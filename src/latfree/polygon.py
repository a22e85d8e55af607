"""Exact convex lattice-polygon geometry.

Polygons are closed regions: boundary points count as contained.  All
predicates are computed in integer arithmetic, never floats: the
:class:`Polygon` constructor checks convexity and winding in one pass over
the vertex coordinates, lattice rows are clipped by integer floor and
ceiling division, and a chord's rational end parameters stay
numerator/denominator pairs compared by cross-multiplication.  Only
:func:`chord_interval` hands them out as ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .core import AffineMap, InvariantError, Sublattice, Vec, int_pairs


class GeometryError(ValueError):
    """Raised for geometric input that violates a precondition."""


class DegenerateHullError(GeometryError):
    """Raised when a point set has no two-dimensional convex hull."""


class Segment(NamedTuple):
    a: Vec
    b: Vec


@dataclass(frozen=True)
class Line:
    """An oriented line through ``anchor`` with direction ``direction``."""

    anchor: Vec
    direction: Vec

    @classmethod
    def vertical(cls, c: int) -> "Line":
        return cls(Vec(c, 0), Vec(0, 1))

    @classmethod
    def horizontal(cls, c: int) -> "Line":
        return cls(Vec(0, c), Vec(1, 0))

    @classmethod
    def through(cls, p: Vec, q: Vec) -> "Line":
        if p == q:
            raise GeometryError("line needs two distinct points")
        return cls(p, q - p)

    def side(self, p: Vec) -> int:
        """Sign of the oriented position of p: +1 left, -1 right, 0 on the line."""
        c = self.direction.cross(p - self.anchor)
        return (c > 0) - (c < 0)


_new = tuple.__new__


class Polygon:
    """A strictly convex lattice polygon, stored counter-clockwise.

    The constructor checks its input in one pass over plain integers:
    at least 3 vertices, a strict left turn at every vertex (the cross
    product of the edges into and out of it is positive), and a cycle
    that winds once, i.e. the edge direction passes exactly once from the
    lower half-plane ``[pi, 2*pi)`` to the upper one ``[0, pi)``.  The
    vertex tuple is rotated so it starts at the lexicographically
    smallest vertex, which makes equality and serialisation canonical.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Vec]):
        # tuple.__new__ makes the same Vec as Vec(x1, x2) without a call
        # of the namedtuple's Python-level __new__
        verts = [_new(Vec, (int(v[0]), int(v[1]))) for v in vertices]
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        # the turns at verts[-1], verts[0], ..., verts[-2]: (ex, ey) is the
        # edge into the vertex (bx, by), (fx, fy) the edge out of it
        (ax, ay), (bx, by) = verts[-2], verts[-1]
        ex, ey = bx - ax, by - ay
        wraps = 0
        for cx, cy in verts:
            fx, fy = cx - bx, cy - by
            if ex * fy - ey * fx <= 0:
                raise GeometryError("vertices are not strictly convex counter-clockwise")
            # the direction passes from [pi, 2*pi) to [0, pi)
            if (ey < 0 or (ey == 0 and ex < 0)) and (fy > 0 or (fy == 0 and fx > 0)):
                wraps += 1
            bx, by, ex, ey = cx, cy, fx, fy
        if wraps != 1:
            raise GeometryError("vertex cycle winds more than once")
        start = verts.index(min(verts))
        self.vertices = (*verts[start:], *verts[:start])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Vec, Vec]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def area2(self) -> int:
        """Doubled area (always a positive integer)."""
        total = 0
        for a, b in self.edges():
            total += a.cross(b)
        return total

    def contains(self, p: Vec) -> bool:
        px, py = p
        ax, ay = self.vertices[-1]
        for bx, by in self.vertices:
            if (bx - ax) * (py - ay) < (by - ay) * (px - ax):
                return False
            ax, ay = bx, by
        return True

    def to_obj(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_obj(cls, obj: dict) -> "Polygon":
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise GeometryError("polygon object needs a 'vertices' list")
        return convex_hull(int_pairs(obj["vertices"], "polygon 'vertices'", GeometryError))


def convex_hull(points: Iterable[Vec]) -> Polygon:
    """Strict convex hull (monotone chain); collinear boundary points are dropped."""
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

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHullError("degenerate hull: points are collinear")
    return Polygon(hull)


def lattice_points_in(poly: Polygon) -> list[Vec]:
    """All integer points inside or on the polygon, in lexicographic order.

    Each horizontal row is clipped exactly.  Counter-clockwise, the rising
    edges bound the polygon on the right and the falling edges on the left,
    and each of the two chains covers every row from the bottom to the top.
    So a row takes its largest x from a rising edge by integer floor
    division and its smallest from a falling edge by ceiling division; where
    two edges of a chain meet, both give the vertex.  Horizontal edges add
    nothing: their ends are vertices of the two chains.
    """
    vs = poly.vertices
    bottom = min(y for _, y in vs)
    rows = max(y for _, y in vs) - bottom + 1
    lo = [0] * rows
    hi = [0] * rows
    ax, ay = vs[-1]
    for bx, by in vs:
        if by > ay:
            # x = num / den on row y, for y from ay up to by
            den, step = by - ay, bx - ax
            num = ax * den
            for r in range(ay - bottom, by - bottom + 1):
                hi[r] = num // den
                num += step
        elif by < ay:
            # the same from b up to a, rounded up
            den, step = ay - by, ax - bx
            num = bx * den
            for r in range(by - bottom, ay - bottom + 1):
                lo[r] = -(-num // den)
                num += step
        ax, ay = bx, by
    points = [
        _new(Vec, (x, y))
        for y, x_lo, x_hi in zip(range(bottom, bottom + rows), lo, hi)
        for x in range(x_lo, x_hi + 1)
    ]
    points.sort()
    return points


class PickResult(NamedTuple):
    area2: int
    interior: int
    boundary: int
    holds: bool


def pick_identity(poly: Polygon) -> PickResult:
    """Doubled area versus lattice point counts: area2 = 2*interior + boundary - 2."""
    area2 = poly.area2()
    boundary = sum(math.gcd(b.x1 - a.x1, b.x2 - a.x2) for a, b in poly.edges())
    interior = len(lattice_points_in(poly)) - boundary
    return PickResult(area2, interior, boundary, area2 == 2 * interior + boundary - 2)


def polygon_free_of(poly: Polygon, lattice: Sublattice) -> bool:
    """True iff no lattice point lies inside or on the polygon."""
    return not any(lattice.contains(p) for p in lattice_points_in(poly))


class BoundingStats(NamedTuple):
    """Axis extrema of a polygon and their ranges along the touching faces."""

    north: int
    north_minus: int
    north_plus: int
    south: int
    south_minus: int
    south_plus: int
    west: int
    west_minus: int
    west_plus: int
    east: int
    east_minus: int
    east_plus: int


def bounding_stats(poly: Polygon) -> BoundingStats:
    vs = poly.vertices
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    north, south, west, east = max(ys), min(ys), min(xs), max(xs)
    at_n = [x for x, y in vs if y == north]
    at_s = [x for x, y in vs if y == south]
    at_w = [y for x, y in vs if x == west]
    at_e = [y for x, y in vs if x == east]
    return BoundingStats(
        north, min(at_n), max(at_n),
        south, min(at_s), max(at_s),
        west, min(at_w), max(at_w),
        east, min(at_e), max(at_e),
    )


def line_splits(poly: Polygon, line: Line) -> bool:
    """True iff the polygon has vertices strictly on both sides of the line."""
    (ox, oy), (dx, dy) = line.anchor, line.direction
    return _line_splits(poly.vertices, ox, oy, dx, dy)


def _line_splits(verts, ox: int, oy: int, dx: int, dy: int) -> bool:
    # the split test of the line (ox, oy) + t*(dx, dy) on a vertex sequence
    left = right = False
    for x, y in verts:
        c = dx * (y - oy) - dy * (x - ox)
        if c > 0:
            left = True
        elif c < 0:
            right = True
    return left and right


def _chord(verts, ox: int, oy: int, dx: int, dy: int) -> Optional[tuple[int, int, int, int]]:
    """Integer core of :func:`chord_interval` on the line (ox, oy) + t*(dx, dy),
    for a counter-clockwise vertex sequence: ``(lo_num, lo_den, hi_num,
    hi_den)`` with positive denominators, or None when the line misses.

    Each edge bounds the parameter t on one side by -alpha/beta; the bounds
    are compared by cross-multiplication.
    """
    lo_num = lo_den = hi_num = hi_den = 0
    ax, ay = verts[-1]
    for bx, by in verts:
        ex, ey = bx - ax, by - ay
        beta = ex * dy - ey * dx
        alpha = ex * (oy - ay) - ey * (ox - ax)
        ax, ay = bx, by
        if beta > 0:
            if lo_den == 0 or -alpha * lo_den > lo_num * beta:
                lo_num, lo_den = -alpha, beta
        elif beta < 0:
            if hi_den == 0 or alpha * hi_den < hi_num * -beta:
                hi_num, hi_den = alpha, -beta
        elif alpha < 0:
            return None
    if lo_den == 0 or hi_den == 0:
        raise InvariantError("a two-dimensional polygon bounds every line on both sides")
    if lo_num * hi_den > hi_num * lo_den:
        return None
    return lo_num, lo_den, hi_num, hi_den


def _split_chord(verts, ox: int, oy: int, dx: int, dy: int) -> Optional[tuple[int, int, int, int]]:
    # the chord of a line that splits the polygon, None when it does not split
    if not _line_splits(verts, ox, oy, dx, dy):
        return None
    chord = _chord(verts, ox, oy, dx, dy)
    if chord is None:
        raise InvariantError("a splitting line meets the polygon")
    return chord


def chord_interval(poly: Polygon, line: Line) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval of ``poly`` on the line ``anchor + t*direction``.

    Returns None when the line misses the polygon.
    """
    (ox, oy), (dx, dy) = line.anchor, line.direction
    chord = _chord(poly.vertices, ox, oy, dx, dy)
    if chord is None:
        return None
    lo_num, lo_den, hi_num, hi_den = chord
    return Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)


def segment_splits(poly: Polygon, seg: Segment) -> bool:
    """True iff the supporting line splits the polygon and the chord lies within the segment."""
    (ax, ay), (bx, by) = seg
    if ax == bx and ay == by:
        raise GeometryError("line needs two distinct points")
    chord = _split_chord(poly.vertices, ax, ay, bx - ax, by - ay)
    return chord is not None and chord[0] >= 0 and chord[2] <= chord[3]


def ray_splits(poly: Polygon, origin: Vec, direction: Vec) -> bool:
    """True iff the supporting line splits the polygon and the chord lies on the ray."""
    (ox, oy), (dx, dy) = origin, direction
    chord = _split_chord(poly.vertices, ox, oy, dx, dy)
    return chord is not None and chord[0] >= 0


def apply_affine(poly: Polygon, m: AffineMap) -> Polygon:
    """Map the polygon by a unimodular affine map, renormalising orientation."""
    det = m.linear.det()
    if det not in (1, -1):
        raise GeometryError("affine map must have a unimodular linear part")
    (a, b, c, d), (tx, ty) = m.linear, m.translation
    verts = [(a * x + b * y + tx, c * x + d * y + ty) for x, y in poly.vertices]
    if det < 0:
        verts.reverse()
    return Polygon(verts)
