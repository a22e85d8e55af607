"""Shared generators and corpora for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import latfree
from latfree import cli, polygon, reduction, slopes, verify
from latfree.core import E1, E2, Mat2, Sublattice, Vec
from latfree.polygon import DegenerateHullError, Polygon, convex_hull
from latfree.slopes import Frame, Slope, frame_splits, validate_slope
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
    if not frame_splits(frame, slope):
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
