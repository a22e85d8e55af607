"""Exact convex lattice-polygon geometry.

Polygons are closed regions: boundary points count as contained.  All
predicates are computed in integer arithmetic, never floats: the
:class:`Polygon` constructor checks convexity and winding in one pass over
the vertex coordinates, and lattice rows are clipped by integer floor and
ceiling division.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import AffineMap, Sublattice, Vec, _new, int_pairs


class GeometryError(ValueError):
    """Raised for geometric input that violates a precondition."""


class DegenerateHullError(GeometryError):
    """Raised when a point set has no two-dimensional convex hull."""


class Segment(NamedTuple):
    a: Vec
    b: Vec


class Polygon:
    """A strictly convex lattice polygon, stored counter-clockwise.

    The constructor checks its input in one pass over plain integers:
    at least 3 vertices, a strict left turn at every vertex (the cross
    product of the edges into and out of it is positive), and a cycle
    that winds once, i.e. the edge direction passes exactly once from the
    lower half-plane ``[pi, 2*pi)`` to the upper one ``[0, pi)``.  The
    vertex tuple is rotated so it starts at the lexicographically
    smallest vertex, which makes equality and serialisation canonical.

    ``Polygon._checked(verts)`` skips the check: it takes a list of
    ``Vec`` whose turns and winding its caller has already checked with
    the same predicate, and only rotates it.  Its one caller is the
    ``enumerate`` walk, which checks each turn once per chain prefix.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Vec]):
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

    @classmethod
    def _checked(cls, verts: list[Vec]) -> "Polygon":
        poly = object.__new__(cls)
        start = verts.index(min(verts))
        poly.vertices = (*verts[start:], *verts[:start])
        return poly

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
    """Strict convex hull (monotone chain); collinear boundary points are dropped.

    The chains are built on plain integer pairs: a point is popped while
    the cross product of the last edge and the step to the new point is
    not positive.
    """
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) < 3:
        raise DegenerateHullError("degenerate hull: fewer than 3 distinct points")

    def build(seq: list[tuple[int, int]]) -> list[tuple[int, int]]:
        chain: list[tuple[int, int]] = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
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
