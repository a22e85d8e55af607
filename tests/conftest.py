"""Shared generators and corpora for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

import pytest

import latfree
from latfree import cli, polygon, reduction, slopes, verify
from latfree.core import E1, E2, ORIGIN, AffineMap, LatticeError, Mat2, Sublattice, Vec, xgcd
from latfree.polygon import (
    DegenerateHullError,
    GeometryError,
    Polygon,
    Segment,
    apply_affine,
    bounding_stats,
    convex_hull,
    lattice_points_in,
)
from latfree.reduction import DiameterWitness, NormalizationResult, SplitProfile, TypeTag
from latfree.slopes import Frame, Slope, slope_profile, validate_slope
from latfree.verify import SearchBox, enumerate_free_polygons

CORPUS_BOXES = {2: SearchBox(-1, 3, -1, 3), 3: SearchBox(-2, 5, -1, 4)}


def count_calls(monkeypatch, name: str) -> list:
    """Wrap the function ``name`` in every latfree module that binds it;
    the returned list gains one entry per call.  A name that no module
    binds raises, so a count can never stay empty for want of a target."""
    calls: list = []
    modules = [m for m in (latfree, polygon, reduction, slopes, verify, cli) if hasattr(m, name)]
    if not modules:
        raise AttributeError(f"no latfree module binds {name!r}")
    for module in modules:
        original = getattr(module, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def count_new(monkeypatch, cls: type) -> list:
    """Count the calls of ``cls.__new__``, which a namedtuple's Python-level
    constructor goes through and ``tuple.__new__(cls, ...)`` does not."""
    calls: list = []
    new = cls.__new__

    def counting_new(klass, *args, **kwargs):
        calls.append(args)
        return new(klass, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counting_new)
    return calls


def dfs_chains(lattice: Sublattice, box: SearchBox, states: set) -> Iterator[tuple]:
    """The plain chain DFS, kept as an oracle independent of the library's
    fan DP: every convex chain closing into a strictly convex CCW polygon
    with vertices in the box but off the lattice and no lattice point
    inside or on it.  Chains start at the polygon's
    (x2, x1)-lowest vertex p and grow counter-clockwise; a step is pruned
    as soon as the fan triangle it adds covers a lattice point.  The order
    is the one ``enumerate_free_polygons`` promises.

    ``states`` gains every (p, last edge) the DFS visits, free first edges
    included, whether or not the chain completes to a polygon.  Those
    whose last edge starts at p or turns left around p are the states
    that ``chains_explored`` counts."""
    cand, lpts = [], []
    for y in range(box.x2_min, box.x2_max + 1):
        for x in range(box.x1_min, box.x1_max + 1):
            (lpts if lattice.contains(Vec(x, y)) else cand).append((x, y))
    for i0 in range(len(cand)):
        yield from _dfs_from(cand, lpts, i0, states)


def _dfs_from(cand: list, lpts: list, i0: int, states: set) -> Iterator[tuple]:
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
            states.add((chain[0], chain[-1], (vx, vy)))
            chain.append((vx, vy))
            yield from extend(dx, dy, fdx, fdy)
            chain.pop()

    for vx, vy in tail:
        if seg_blocked(vx, vy):
            continue
        states.add((chain[0], chain[0], (vx, vy)))
        dx, dy = vx - p0x, vy - p0y
        chain.append((vx, vy))
        yield from extend(dx, dy, dx, dy)
        chain.pop()


def convex_hull_oracle(points) -> Polygon:
    """The monotone chain on :class:`Vec` arithmetic, as ``convex_hull`` was
    written before it moved to plain integer pairs: the reference the
    integer version is compared with."""
    pts = sorted({Vec(int(p[0]), int(p[1])) for p in points})
    if len(pts) < 3:
        raise DegenerateHullError("degenerate hull: fewer than 3 distinct points")

    def build(seq: list[Vec]) -> list[Vec]:
        chain: list[Vec] = []
        for p in seq:
            while len(chain) >= 2 and (chain[-1] - chain[-2]).cross(p - chain[-2]) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    hull = build(pts)[:-1] + build(pts[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateHullError("degenerate hull: points are collinear")
    return Polygon(hull)


def diameter_pairs_oracle(pts: list[Vec]) -> tuple[int, tuple[Vec, Vec]]:
    """The quadratic lattice-diameter pass over every pair of lexicographically
    sorted points: the largest gcd of a difference and the first pair, in
    lexicographic order, that reaches it."""
    best, best_pair = -1, None
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            g = math.gcd(q.x1 - p.x1, q.x2 - p.x2)
            if g > best:
                best, best_pair = g, (p, q)
    return best, best_pair


class Line(NamedTuple):
    """An oriented line through ``anchor`` with direction ``direction``."""

    anchor: Vec
    direction: Vec

    @classmethod
    def vertical(cls, c: int) -> "Line":
        return cls(Vec(c, 0), Vec(0, 1))

    @classmethod
    def horizontal(cls, c: int) -> "Line":
        return cls(Vec(0, c), Vec(1, 0))


def line_side(line: Line, p: Vec) -> int:
    """Sign of the oriented position of p: +1 left, -1 right, 0 on the line."""
    c = line.direction.cross(p - line.anchor)
    return (c > 0) - (c < 0)


def line_splits(poly: Polygon, line: Line) -> bool:
    """True iff the polygon has vertices strictly on both sides of the line."""
    return {-1, 1} <= {line_side(line, v) for v in poly.vertices}


def segment_splits(poly: Polygon, seg: Segment) -> bool:
    """True iff the supporting line splits the polygon and the chord lies within the segment."""
    if seg.a == seg.b:
        raise GeometryError("line needs two distinct points")
    line = Line(seg.a, seg.b - seg.a)
    if not line_splits(poly, line):
        return False
    lo, hi = chord_interval(poly, line)
    return lo >= 0 and hi <= 1


def satisfies_type_oracle(poly: Polygon, tag: TypeTag) -> bool:
    """The type clauses written out one segment and one line at a time: the
    reference the table walk of ``satisfies_type`` is compared with."""
    n = tag.n
    s = bounding_stats(poly)
    if tag.kind == "I":
        return s.east <= (s.west // n + 1) * n or s.north <= (s.south // n + 1) * n

    def seg(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return segment_splits(poly, Segment(Vec(*a), Vec(*b)))

    left = seg((0, 0), (0, n))
    right = seg((n, 0), (n, n))
    bottom_mid = seg((0, 0), (n, 0))
    top_mid = seg((0, n), (n, n))

    if tag.kind == "II":
        return bottom_mid and right and top_mid and left
    if tag.kind == "III":
        return bottom_mid and right and top_mid and not line_splits(poly, Line.vertical(0))
    if tag.kind == "IV":
        away = not (s.west <= -n <= s.east) and not (s.west <= 2 * n <= s.east)
        return left and bottom_mid and right and seg((n, n), (2 * n, n)) and away
    if tag.kind == "V":
        return (
            seg((0, 0), (-n, 0))
            and left
            and not line_splits(poly, Line.vertical(-n))
            and not line_splits(poly, Line.horizontal(n))
        )
    if tag.kind == "VI":
        return (
            seg((0, 0), (-n, 0))
            and left
            and top_mid
            and not line_splits(poly, Line.vertical(n))
            and not line_splits(poly, Line.vertical(-n))
        )
    raise ValueError(f"unknown type tag {tag.kind!r}")


def chord_interval(poly: Polygon, line: Line) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval of ``poly`` on the line ``anchor + t*direction``
    as fractions, or None when the line misses the polygon.

    The chord reference of the tests, on any line and in Fraction
    arithmetic: each edge e from a bounds t on one side by -alpha/beta,
    with beta = e x direction and alpha = e x (anchor - a), and an edge
    parallel to the line leaves it outside when alpha < 0."""
    lo = hi = None
    (ox, oy), (dx, dy) = line
    ax, ay = poly.vertices[-1]
    for bx, by in poly.vertices:
        ex, ey = bx - ax, by - ay
        beta = ex * dy - ey * dx
        alpha = ex * (oy - ay) - ey * (ox - ax)
        ax, ay = bx, by
        if beta == 0:
            if alpha < 0:
                return None
            continue
        bound = Fraction(-alpha, beta)
        if beta > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return None if lo > hi else (lo, hi)


def check_split_exclusion(poly: Polygon, n: int) -> bool:
    """The two diagonal pairs of outer unit-square segments cannot both split.

    True iff neither {[(0,n),(-n,n)], [(n,0),(2n,0)]} nor
    {[(0,0),(-n,0)], [(n,n),(2n,n)]} is a pair of simultaneous splitters.
    """
    pair1 = segment_splits(poly, Segment(Vec(0, n), Vec(-n, n))) and segment_splits(
        poly, Segment(Vec(n, 0), Vec(2 * n, 0))
    )
    pair2 = segment_splits(poly, Segment(Vec(0, 0), Vec(-n, 0))) and segment_splits(
        poly, Segment(Vec(n, n), Vec(2 * n, n))
    )
    return not pair1 and not pair2


def _chord_cell_oracle(image: Polygon, x1: int, n: int) -> int:
    chord = chord_interval(image, Line.vertical(x1))
    if chord is None:
        return 0
    lo, hi = chord
    u = math.floor(lo / n)
    if not (u * n < lo and hi < (u + 1) * n):
        raise AssertionError("chord touches a forbidden lattice point")
    return u


def _map_to_first_axis(v: Vec) -> Mat2:
    # unimodular M with M @ v = (1, 0); Bezout coefficient reduced to the
    # smallest nonnegative residue so the result is canonical
    if math.gcd(v.x1, v.x2) != 1:
        raise LatticeError("vector not primitive")
    if v.x2 == 0:
        x, y = (1 if v.x1 > 0 else -1), 0
    else:
        _, x, y = xgcd(v.x1, v.x2)
        x_n = x % abs(v.x2)
        t = (x_n - x) // v.x2
        x, y = x_n, y - t * v.x1
    return Mat2(x, y, -v.x2, v.x1)


def primitive_to(f: Vec, g: Vec) -> Mat2:
    """A matrix M of determinant +1 with M @ f = g, for primitive f and g.

    The general rotation, kept as the reference for the one slab
    normalization builds inline for g = e2."""
    mf = _map_to_first_axis(f)
    mg = _map_to_first_axis(g)
    return mg.inverse_unimodular() @ mf


def normalize_oracle(poly: Polygon, n: int) -> NormalizationResult:
    """Slab normalization in two applications: rotate and shift the polygon,
    read its chords on x1 = 0 and x1 = n as fractions, then shear the moved
    image."""
    lattice = Sublattice.rectangular(n, n)
    pts = lattice_points_in(poly)
    if any(lattice.contains(p) for p in pts):
        raise AssertionError("polygon not lattice-free")
    ell, (p, q) = diameter_pairs_oracle(pts)
    d = q - p
    g = math.gcd(d.x1, d.x2)
    rotate = AffineMap(primitive_to(Vec(d.x1 // g, d.x2 // g), E2), ORIGIN)
    shift_count, c = divmod(rotate(p).x1, n)
    move = AffineMap(Mat2.identity(), Vec(-shift_count * n, 0)).compose(rotate)
    image = apply_affine(poly, move)
    u1, u2 = _chord_cell_oracle(image, 0, n), _chord_cell_oracle(image, n, n)
    shear = AffineMap(Mat2(1, 0, u1 - u2, 1), Vec(0, -u1 * n))
    diameter = DiameterWitness(ell, Segment(p, q))
    return NormalizationResult(shear.compose(move), apply_affine(image, shear), c, diameter)


def _split_index_oracle(image: Polygon, y: int, n: int) -> int:
    hits = [
        idx
        for idx, (a, b) in enumerate([(-n, 0), (0, n), (n, 2 * n)], start=1)
        if segment_splits(image, Segment(Vec(a, y), Vec(b, y)))
    ]
    if len(hits) > 1:
        raise AssertionError("two unit segments of one line split a free polygon")
    return hits[0] if hits else 0


def classify_oracle(poly: Polygon, n: int) -> tuple:
    """Classification one map at a time: normalize, reflect when only x1 = n
    splits, read the split profile on the reflected image, then apply the
    table row's step.

    Returns ``(map, kind, image, profile, reflected)``; ``kind`` is None when
    the table has no row, and then map and image stop before the step.
    """
    norm = normalize_oracle(poly, n)
    image, total = norm.image, norm.map
    left = line_splits(image, Line.vertical(0))
    right = line_splits(image, Line.vertical(n))
    if not left and not right:
        return total, "I", image, SplitProfile("A", None, None), False
    reflected = right and not left
    if reflected:
        refl = AffineMap(Mat2(-1, 0, 0, 1), Vec(n, 0))
        image = apply_affine(image, refl)
        total = refl.compose(total)
        right = False
    case = "C" if right else "B"
    profile = SplitProfile(case, _split_index_oracle(image, 0, n), _split_index_oracle(image, n, n))
    rows = reduction._CASE_C_ROWS if right else reduction._CASE_B_ROWS
    row: Optional[tuple] = rows.get((profile.i, profile.j))
    if row is None:
        return total, None, image, profile, reflected
    kind, linear, (t1, t2) = row
    step = AffineMap(linear, Vec(t1 * n, t2 * n))
    return step.compose(total), kind, apply_affine(image, step), profile, reflected


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
