"""Shared generators and corpora for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

import pytest

import latfree
from latfree import cli, polygon, reduction, slopes, verify
from latfree.core import E1, E2, Mat2, Sublattice, Vec
from latfree.polygon import DegenerateHullError, Polygon, convex_hull
from latfree.slopes import Frame, Slope, slope_profile, validate_slope
from latfree.verify import SearchBox, enumerate_free_polygons

CORPUS_BOXES = {2: SearchBox(-1, 3, -1, 3), 3: SearchBox(-2, 5, -1, 4)}


def count_calls(monkeypatch, name: str) -> list:
    """Wrap the function ``name`` in every latfree module that binds it;
    the returned list gains one entry per call."""
    calls: list = []
    for module in (latfree, polygon, reduction, slopes, verify, cli):
        original = getattr(module, name, None)
        if original is None:
            continue

        def wrapper(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def dfs_chains(lattice: Sublattice, box: SearchBox) -> Iterator[tuple]:
    """The plain chain DFS, kept as an oracle independent of the library's
    fan DP: every convex chain closing into a strictly convex CCW polygon
    with vertices in the box but off the lattice and no lattice point
    inside or on it.  Chains start at the polygon's
    (x2, x1)-lowest vertex p and grow counter-clockwise; a step is pruned
    as soon as the fan triangle it adds covers a lattice point.  The order
    is the one ``enumerate_free_polygons`` promises."""
    cand, lpts = [], []
    for y in range(box.x2_min, box.x2_max + 1):
        for x in range(box.x1_min, box.x1_max + 1):
            (lpts if lattice.contains(Vec(x, y)) else cand).append((x, y))
    for i0 in range(len(cand)):
        yield from _dfs_from(cand, lpts, i0)


def _dfs_from(cand: list, lpts: list, i0: int) -> Iterator[tuple]:
    p0x, p0y = cand[i0]
    tail = cand[i0 + 1 :]
    chain = [(p0x, p0y)]

    def seg_blocked(qx: int, qy: int) -> bool:
        dx, dy = qx - p0x, qy - p0y
        for lx, ly in lpts:
            ex, ey = lx - p0x, ly - p0y
            if dx * ey - dy * ex == 0 and 0 <= ex * dx + ey * dy <= dx * dx + dy * dy:
                return True
        return False

    def tri_blocked(ux: int, uy: int, vx: int, vy: int) -> bool:
        ax, ay, bx, by = ux, uy, vx, vy
        if (ax - p0x) * (by - p0y) - (ay - p0y) * (bx - p0x) < 0:
            ax, ay, bx, by = vx, vy, ux, uy
        return any(
            (ax - p0x) * (ly - p0y) - (ay - p0y) * (lx - p0x) >= 0
            and (bx - ax) * (ly - ay) - (by - ay) * (lx - ax) >= 0
            and (p0x - bx) * (ly - by) - (p0y - by) * (lx - bx) >= 0
            for lx, ly in lpts
        )

    def upper(dx: int, dy: int) -> int:
        # 0 for directions in [0, pi), 1 for [pi, 2*pi)
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def extend(udx: int, udy: int, fdx: int, fdy: int) -> Iterator[tuple]:
        ux, uy = chain[-1]
        if len(chain) >= 3:
            cdx, cdy = p0x - ux, p0y - uy
            if (
                udx * cdy - udy * cdx > 0
                and cdx * fdy - cdy * fdx > 0
                and upper(udx, udy) <= upper(cdx, cdy)
            ):
                yield tuple(chain)
        for vx, vy in tail:
            dx, dy = vx - ux, vy - uy
            if udx * dy - udy * dx <= 0 or upper(udx, udy) > upper(dx, dy):
                continue
            if tri_blocked(ux, uy, vx, vy):
                continue
            chain.append((vx, vy))
            yield from extend(dx, dy, fdx, fdy)
            chain.pop()

    for vx, vy in tail:
        if seg_blocked(vx, vy):
            continue
        dx, dy = vx - p0x, vy - p0y
        chain.append((vx, vy))
        yield from extend(dx, dy, dx, dy)
        chain.pop()


def random_convex_polygon(rng: random.Random, span: int = 15, max_points: int = 12) -> Polygon:
    while True:
        pts = {
            Vec(rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(rng.randint(3, max_points))
        }
        try:
            return convex_hull(pts)
        except DegenerateHullError:
            continue


def random_unimodular(rng: random.Random, bound: int = 3) -> Mat2:
    while True:
        m = Mat2(
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
        )
        if m.is_unimodular():
            return m


def random_slope_basis_coords(
    rng: random.Random,
    max_edges: int = 6,
    coeff: int = 6,
    scale: tuple[int, int] = (1, 1),
) -> list[tuple[int, int]]:
    """Vertex coordinates (in the slope basis) of a random valid slope.

    Edge vectors are sampled with first coordinate in [1, coeff]*scale1 and
    second in [-coeff, -1]*scale2, de-duplicated by direction ratio and
    sorted ratio-ascending so the convexity condition holds.
    """
    sx, sy = scale
    seen: dict[Fraction, tuple[int, int]] = {}
    for _ in range(rng.randint(1, max_edges)):
        a1 = rng.randint(1, coeff) * sx
        a2 = -rng.randint(1, coeff) * sy
        seen.setdefault(Fraction(a1, -a2), (a1, a2))
    x = rng.randint(-6, 6) * sx
    y = rng.randint(-6, 6) * sy
    verts = [(x, y)]
    for a1, a2 in (seen[r] for r in sorted(seen)):
        x, y = x + a1, y + a2
        verts.append((x, y))
    return verts


def random_skew_slope_coords(
    rng: random.Random, a: int, m: int, max_edges: int = 5
) -> list[tuple[int, int]]:
    """Slope coordinates whose vertices lie in the lattice spanned by
    (1, -a) and (0, m) in basis coordinates."""
    pool: dict[Fraction, tuple[int, int]] = {}
    for c1 in range(1, 7):
        for c2 in range(-1, -13, -1):
            if (c2 + a * c1) % m == 0:
                pool.setdefault(Fraction(c1, -c2), (c1, c2))
    ratios = sorted(pool)
    take = sorted(rng.sample(range(len(ratios)), rng.randint(1, min(max_edges, len(ratios)))))
    p = rng.randint(-3, 3)
    q = rng.randint(-3, 3)
    x, y = p, -a * p + m * q
    verts = [(x, y)]
    for idx in take:
        c1, c2 = pool[ratios[idx]]
        x, y = x + c1, y + c2
        verts.append((x, y))
    return verts


def splitting_origin_box(coords: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Integer origins (in basis coordinates) that can make a frame split:
    strictly to the right of the start and below it, left of the end and
    above it."""
    (vx, vy), (wx, wy) = coords[0], coords[-1]
    return [
        (ox, oy)
        for ox in range(vx + 1, wx)
        for oy in range(wy + 1, vy)
    ]


def build_slope(coords: list[tuple[int, int]], f1: Vec = E1, f2: Vec = E2) -> Slope:
    basis = Mat2.from_columns(f1, f2)
    verts = [basis.mul_vec(Vec(x, y)) for x, y in coords]
    return validate_slope(verts, f1, f2)


def random_splitting_instance(
    rng: random.Random,
    basis_pool: list[tuple[Vec, Vec]],
    allow_swap: bool = True,
    scale: tuple[int, int] = (1, 1),
    coords: list[tuple[int, int]] | None = None,
) -> tuple[Frame, Slope] | None:
    """One (frame, slope) pair with the frame splitting the slope, or None
    when the sampled geometry leaves no room for a splitting origin."""
    f1, f2 = basis_pool[rng.randrange(len(basis_pool))]
    if coords is None:
        coords = random_slope_basis_coords(rng, scale=scale)
    origins = splitting_origin_box(coords)
    if not origins:
        return None
    slope = build_slope(coords, f1, f2)
    basis = Mat2.from_columns(f1, f2)
    origin = basis.mul_vec(Vec(*origins[rng.randrange(len(origins))]))
    if allow_swap and rng.random() < 0.3:
        frame = Frame(origin, f2, f1)
    else:
        frame = Frame(origin, f1, f2)
    if slope_profile(frame, slope) is None:
        return None
    return frame, slope


@pytest.fixture(scope="session")
def corpus_n2() -> list[Polygon]:
    lattice = Sublattice.rectangular(2, 2)
    return list(enumerate_free_polygons(lattice, CORPUS_BOXES[2], 3))


@pytest.fixture(scope="session")
def corpus_n3() -> list[Polygon]:
    lattice = Sublattice.rectangular(3, 3)
    return list(enumerate_free_polygons(lattice, CORPUS_BOXES[3], 3))
