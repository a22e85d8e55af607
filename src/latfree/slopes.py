"""Integer slopes: convex broken lines with down-right edge vectors.

A slope with respect to a basis (f1, f2) is a broken line whose edge
vectors, written in that basis, have positive first and negative second
coordinate, with strictly increasing direction ratios.  The boundary of a
convex polygon decomposes into four maximal slopes plus axis-parallel
edges; splitting frames turn geometric constraints on a slope into
inequalities between its edge count and its endpoint coordinates.  Each
inequality here is packaged as a check that either passes or produces a
structured counterexample.

A check takes the object it reads: build a slope's profile in a frame
(:func:`slope_profile`) or a polygon's maximal slopes
(:func:`maximal_slopes`) once, then pass it to each check.  A profile
keeps its frame and slope, and the maximal slopes keep the polygon's
bounding stats, so a check needs nothing else but a lattice.
:func:`slope_profile` is also the split test: it returns None when the
frame does not split the slope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    E1, E2, NEG_E1, NEG_E2, InvariantError, Mat2, Sublattice, Vec, _new, int_pairs, xgcd,
)
from .polygon import BoundingStats, Polygon, bounding_stats


class SlopeError(ValueError):
    """Raised when a vertex sequence is not a valid slope."""


class Frame(NamedTuple):
    """An origin plus an ordered unimodular basis of Z^2."""

    origin: Vec
    f1: Vec
    f2: Vec


class Slope(NamedTuple):
    """A validated slope; construct through :func:`validate_slope`.

    coords holds the vertices in the basis (f1, f2), so the checks and
    the frame coordinates read them without mapping a vertex again.
    """

    vertices: tuple[Vec, ...]
    f1: Vec
    f2: Vec
    coords: tuple[Vec, ...]

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    def to_obj(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "basis": [list(self.f1), list(self.f2)],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Slope":
        if not isinstance(obj, dict) or "vertices" not in obj or "basis" not in obj:
            raise SlopeError("slope object needs 'vertices' and 'basis'")
        verts = int_pairs(obj["vertices"], "slope 'vertices'", SlopeError)
        f1, f2 = int_pairs(obj["basis"], "slope 'basis'", SlopeError, count=2)
        return validate_slope(verts, f1, f2)


def validate_slope(vertices: list[Vec] | tuple[Vec, ...], f1: Vec, f2: Vec) -> Slope:
    """Check the sign and direction-ratio conditions and build a Slope.

    A single point is a valid slope with no edges.
    """
    (b11, b21), (b12, b22) = f1, f2
    det = b11 * b22 - b12 * b21
    if det not in (1, -1):
        raise SlopeError("slope basis must be a unimodular basis of Z^2")
    verts = tuple([_new(Vec, (int(v[0]), int(v[1]))) for v in vertices])
    if not verts:
        raise SlopeError("slope needs at least one vertex")
    # the inverse of the unimodular basis matrix, whose determinant is +-1
    a11, a12, a21, a22 = det * b22, -det * b12, -det * b21, det * b11
    coords = tuple([_new(Vec, (a11 * x + a12 * y, a21 * x + a22 * y)) for x, y in verts])
    edges = [(qx - px, qy - py) for (px, py), (qx, qy) in zip(coords, coords[1:])]
    for i, a in enumerate(edges, start=1):
        if not (a[0] > 0 and a[1] < 0):
            raise SlopeError(f"edge {i} must point down-right in the basis, got {a}")
    for i in range(len(edges) - 1):
        (a1, a2), (b1, b2) = edges[i], edges[i + 1]
        if a1 * b2 - b1 * a2 <= 0:
            raise SlopeError(
                f"edges {i + 1} and {i + 2} violate the increasing-ratio condition"
            )
    return Slope(verts, f1, f2, coords)


# --- maximal slopes of a polygon -------------------------------------------


class MaximalSlopes(NamedTuple):
    """The four monotone boundary arcs of a polygon between axis extrema.

    slopes holds q1..q4: q4 runs counter-clockwise from the west-bottom
    corner to the south-left corner in basis (e1, e2); q1, q2, q3 continue
    around in the rotated bases.  faces holds m1..m4, which flag
    nondegenerate bottom/right/top/left faces.  The polygon's bounding
    stats are kept, so one build with :func:`maximal_slopes` gives the
    type II pipeline the slopes, the face flags and the face widths it
    reads.
    """

    slopes: tuple[Slope, Slope, Slope, Slope]
    faces: tuple[int, int, int, int]
    stats: BoundingStats

    @property
    def edge_counts(self) -> tuple[int, int, int, int]:
        return tuple(q.n_edges for q in self.slopes)


def _arc(verts: tuple[Vec, ...], start: Vec, stop: Vec, f1: Vec, f2: Vec) -> Slope:
    # the counter-clockwise run of vertices from start to stop
    i, j = verts.index(start), verts.index(stop)
    return validate_slope(verts[i : j + 1] if i <= j else verts[i:] + verts[: j + 1], f1, f2)


def maximal_slopes(poly: Polygon) -> MaximalSlopes:
    s, verts = bounding_stats(poly), poly.vertices
    q4 = _arc(verts, (s.west, s.west_minus), (s.south_minus, s.south), E1, E2)
    q1 = _arc(verts, (s.south_plus, s.south), (s.east, s.east_minus), E2, NEG_E1)
    q2 = _arc(verts, (s.east, s.east_plus), (s.north_plus, s.north), NEG_E1, NEG_E2)
    q3 = _arc(verts, (s.north_minus, s.north), (s.west, s.west_plus), NEG_E2, E1)
    faces = (
        int(s.south_minus != s.south_plus),
        int(s.east_minus != s.east_plus),
        int(s.north_minus != s.north_plus),
        int(s.west_minus != s.west_plus),
    )
    return MaximalSlopes((q1, q2, q3, q4), faces, s)


# --- splitting frames -------------------------------------------------------


def _frame_coords(frame: Frame, slope: Slope) -> list[Vec]:
    # the slope's own coordinates less the origin's, swapped when the
    # frame's basis is the slope's basis swapped
    origin, f1, f2 = frame
    swap = (f2, f1) == (slope.f1, slope.f2)
    if not swap and (f1, f2) != (slope.f1, slope.f2):
        raise ValueError("frame basis must match the slope basis up to a swap")
    ox, oy = Mat2.from_columns(slope.f1, slope.f2).inverse_unimodular().mul_vec(origin)
    if swap:
        return [_new(Vec, (y - oy, x - ox)) for x, y in slope.coords]
    return [_new(Vec, (x - ox, y - oy)) for x, y in slope.coords]


class SlopeProfile(NamedTuple):
    """Combinatorial data of a slope relative to a splitting frame.

    Everything is expressed in frame coordinates, with the vertex order
    normalized so the walk starts at the (-,+) endpoint v = coords[0] and
    ends at the (+,-) endpoint w = coords[-1].  A profile exists only for
    a frame that splits the slope: :func:`slope_profile` returns None
    otherwise.

    k: index of the first vertex strictly below the frame axis.
    alpha: direction ratio a_k1 / -a_k2 of the axis-crossing edge.
    t: ceil(alpha) - 1.
    s_edges: indices i < k of edges that drop by exactly one; s = len.
    delta_flag: 1 when the crossing starts strictly above the axis and
        alpha is an integer.

    The positive-part projections of the walk onto the two frame axes
    telescope to its endpoints, pi1 = w1 and pi2 = v2, so they are not
    stored: :attr:`pihat` reads them off v and w.

    The frame and the slope are kept, so build this once with
    :func:`slope_profile` and pass it to each projection check.
    """

    k: int
    alpha: Fraction
    t: int
    s: int
    s_edges: tuple[int, ...]
    delta_flag: int
    coords: tuple[Vec, ...]
    frame: Frame
    slope: Slope

    @property
    def n_edges(self) -> int:
        return len(self.coords) - 1

    @property
    def small_angle(self) -> bool:
        """True iff the crossing edge's direction ratio is at least one,
        that is a1 >= -a2 for the crossing edge (a1, a2) in lowest terms."""
        return self.alpha.numerator >= self.alpha.denominator

    @property
    def pihat(self) -> int:
        """pi1 + pi2 - 2N = w1 + v2 - 2N."""
        return self.coords[-1].x1 + self.coords[0].x2 - 2 * self.n_edges


def slope_profile(frame: Frame, slope: Slope) -> Optional[SlopeProfile]:
    """The slope's profile in the frame, or None when the frame does not
    split the slope.

    The frame splits the slope when the slope runs from the frame's open
    second quadrant to its open fourth quadrant through the open first.
    """
    if slope.n_edges == 0:
        return None
    coords = _frame_coords(frame, slope)
    if coords[0][0] > 0:
        coords.reverse()
    (ax, ay), (bx, by) = coords[0], coords[-1]
    if not (ax < 0 < ay and by < 0 < bx):
        return None
    # one scan checks every edge (a1, a2) and finds j, the first vertex
    # right of x1 = 0, and k, the first below x2 = 0, with the crossing
    # edge into c_k and the unit-drop edges before it
    j = k = 0
    s_edges = []
    px, py = ax, ay
    for i, (qx, qy) in enumerate(coords[1:], start=1):
        if not (qx > px and qy < py):
            raise InvariantError("slope edges point down-right in frame coordinates")
        if not j and qx > 0:
            j = i
        if not k:
            if qy < 0:
                k, a1, a2 = i, qx - px, qy - py
            elif py - qy == 1:
                s_edges.append(i)
        px, py = qx, qy
    # with every edge down-right the walk is monotone, so it meets the open
    # first quadrant iff it crosses x1 = 0 above the origin
    (px, py), (qx, qy) = coords[j - 1], coords[j]
    if not py * qx > px * qy:
        return None

    alpha = Fraction(a1, -a2)
    t = -(a1 // a2) - 1  # ceil(alpha) - 1, as -a2 > 0
    delta_flag = int(coords[k - 1][1] > 0 and a1 % a2 == 0)
    return SlopeProfile(
        k, alpha, t, len(s_edges), tuple(s_edges), delta_flag, tuple(coords), frame, slope
    )


# --- checks -----------------------------------------------------------------


class CheckReport(NamedTuple):
    name: str
    ok: bool
    details: dict
    counterexample: Optional[dict] = None

    @classmethod
    def from_failures(
        cls, name: str, details: dict, failures: list[str], context: Optional[dict]
    ) -> "CheckReport":
        """Pass when no clause failed; otherwise the counterexample holds the
        context, the failed clauses and the details.

        A passing report reads no context, so the checks build it only when
        some clause failed and pass None otherwise.
        """
        if not failures:
            return cls(name, True, details)
        return cls(
            name, False, details, counterexample={**context, "failed": failures, **details}
        )

    def to_obj(self):
        if self.ok:
            return "ok"
        return {"counterexample": self.counterexample}


def _require_in_lattice(slope: Slope, lattice: Sublattice) -> None:
    if not all(lattice.contains(v) for v in slope.vertices):
        raise ValueError("slope vertices must belong to the given lattice")


def check_width_bound(slope: Slope, lattice: Optional[Sublattice] = None) -> CheckReport:
    """Edge count of a slope against the coordinates of its endpoint difference.

    With s the number of edges of unit width, 2N <= |b1| + s and
    |b2| >= s(s+1)/2.  A lattice whose small f1-step is above 1 forces
    s = 0 and 2N <= |b1|.  A lattice whose small f1-step is 1 is spanned by
    f1 - a*f2 and m*f2 for one a in 1..m; the unit-width edges then drop by
    distinct amounts in a + mZ, which sharpens the height bound to
    2|b2| >= (2a + (s-1)m) * s.
    """
    if slope.n_edges < 1:
        raise ValueError("width bound needs at least one edge")
    coords = slope.coords
    edges = [coords[i] - coords[i - 1] for i in range(1, len(coords))]
    n_edges = len(edges)
    b = coords[-1] - coords[0]
    s = sum(1 for a in edges if a.x1 == 1)
    details = {"n_edges": n_edges, "b1": b.x1, "b2": b.x2, "s": s}
    failures = []
    if not 2 * n_edges <= abs(b.x1) + s:
        failures.append("width")
    if not abs(b.x2) >= s * (s + 1) // 2:
        failures.append("height")
    if lattice is not None:
        _require_in_lattice(slope, lattice)
        # the lattice's basis in (f1, f2): the small f1-step is the gcd of
        # its f1-coordinates, and their Bezout pair gives the lattice vector
        # small*f1 + y0*f2
        c = Mat2.from_columns(slope.f1, slope.f2).inverse_unimodular() @ lattice.basis
        small, x, y = xgcd(c.a11, c.a12)
        details["small_f1_step"] = small
        if small > 1:
            if s != 0:
                failures.append("s_zero")
            if not 2 * n_edges <= abs(b.x1):
                failures.append("width_strict")
        else:
            # the large f2-step m is det L / small = det L, and f1 - a*f2 is
            # in the lattice iff a = -y0 mod m
            y0, m = c.a21 * x + c.a22 * y, lattice.det()
            a = (-y0 - 1) % m + 1
            details["skew"] = [a, m]
            if not 2 * abs(b.x2) >= (2 * a + (s - 1) * m) * s:
                failures.append("height_skew")
    return CheckReport.from_failures(
        "width_bound", details, failures, {"slope": slope.to_obj()} if failures else None
    )


def _ceil_half(x: int) -> int:
    # ceil(x / 2) for a nonnegative integer
    return (x + 1) // 2


def _context(prof: SlopeProfile) -> dict:
    return {"slope": prof.slope.to_obj(), "origin": list(prof.frame.origin)}


def check_projection_bound(prof: SlopeProfile) -> CheckReport:
    """Doubled edge count against the positive-part projections.

    Exhibits witnesses (s, t): the profile values when the frame forms a
    small angle, (0, 0) otherwise.  Always asserts 2N <= v2 + w1, which
    is pihat >= 0 (the clause ``projection_plain``); in the small-angle
    case additionally 2N <= v2 + w1 - t + s - ceil(-w2/2) + 1.
    """
    coords = prof.coords
    v, w = coords[0], coords[-1]
    n_edges = prof.n_edges
    small = prof.small_angle
    s, t = (prof.s, prof.t) if small else (0, 0)
    details = {
        "n_edges": n_edges, "v": list(v), "w": list(w),
        "s": s, "t": t, "small_angle": small,
    }
    failures = []
    if not 0 <= s <= t:
        failures.append("witness_order")
    if not v.x2 - s >= 0:
        failures.append("height_slack")
    if not -v.x1 < t * s - (s * s - s) // 2 + (v.x2 - s) * (t + 1):
        failures.append("reach")
    if not 2 * n_edges <= v.x2 + w.x1 - t + s:
        failures.append("projection")
    if not 2 * n_edges <= v.x2 + w.x1:
        failures.append("projection_plain")
    if small:
        slack = -t + s - _ceil_half(-w.x2) + 1
        if not 2 * n_edges <= v.x2 + w.x1 + slack:
            failures.append("projection_small_angle")
        if not 2 * n_edges <= v.x2 + w.x1 - _ceil_half(-w.x2) + 1:
            failures.append("projection_small_angle_plain")
    return CheckReport.from_failures(
        "projection_bound", details, failures, _context(prof) if failures else None
    )


def check_sublattice_projection_bound(prof: SlopeProfile, lattice: Sublattice) -> CheckReport:
    """For slopes with vertices in a proper sublattice: 2N <= v2 + w1 - 1,
    which is pihat >= 1."""
    if not lattice.is_proper():
        raise ValueError("lattice must be a proper sublattice of Z^2")
    _require_in_lattice(prof.slope, lattice)
    v, w = prof.coords[0], prof.coords[-1]
    details = {"n_edges": prof.n_edges, "v": list(v), "w": list(w)}
    failures = []
    if not 2 * prof.n_edges <= v.x2 + w.x1 - 1:
        failures.append("projection_sublattice")
    return CheckReport.from_failures(
        "sublattice_projection_bound", details, failures,
        {**_context(prof), "lattice": lattice.to_obj()} if failures else None,
    )


def check_profile_ledger(prof: SlopeProfile) -> CheckReport:
    """The bookkeeping inequalities behind the projection bounds.

    s <= t with the partial-sum refinement on the unit-drop edges; a lower
    bound on the head part of pihat; and a lower bound on the tail part
    under a small angle.  The head sums the edges up to c_k and telescopes
    to x1(c_k) + v2 - 2k; the tail is pihat less the head.  pihat >= 1 on
    a proper sublattice is :func:`check_sublattice_projection_bound`.
    """
    coords = prof.coords
    k, t, s = prof.k, prof.t, prof.s
    # c_k lies in the open fourth quadrant: the walk crosses x1 = 0 above
    # the origin before it drops below x2 = 0
    pihat = prof.pihat
    pihat_head = coords[k].x1 + coords[0].x2 - 2 * k
    pihat_tail = pihat - pihat_head
    details = {
        "k": k, "alpha": str(prof.alpha), "t": t, "s": s,
        "pihat": pihat, "pihat_head": pihat_head, "pihat_tail": pihat_tail,
    }
    failures = []
    if not s <= t:
        failures.append("s_le_t")
    s_width = sum(coords[i].x1 - coords[i - 1].x1 for i in prof.s_edges)
    if not s_width <= (t - s) * s + s * (s + 1) // 2:
        failures.append("unit_drop_width")
    vk1_pos = max(coords[k - 1].x1, 0)
    head_rhs = (
        vk1_pos + coords[k - 1].x2 - 1
        + prof.delta_flag
        + (t - s)
        + math.floor((-coords[k].x2 - 1) * prof.alpha)
    )
    details["head_rhs"] = head_rhs
    if not pihat_head >= head_rhs:
        failures.append("head_bound")
    if prof.small_angle:
        if not 2 * pihat_tail >= coords[k].x2 - coords[-1].x2 - 1:
            failures.append("tail_bound")
    return CheckReport.from_failures(
        "profile_ledger", details, failures, _context(prof) if failures else None
    )
