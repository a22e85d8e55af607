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
(:func:`maximal_slopes`) once, then pass it to each check.  Both objects
keep their inputs, so a check needs nothing else but a lattice.
:func:`slope_profile` is also the split test: it returns None when the
frame does not split the slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import E1, E2, InvariantError, Mat2, Sublattice, Vec, int_pairs, steps
from .polygon import BoundingStats, Polygon, _new, bounding_stats, ray_splits


class SlopeError(ValueError):
    """Raised when a vertex sequence is not a valid slope."""

    def __init__(self, message: str, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


class Frame(NamedTuple):
    """An origin plus an ordered unimodular basis of Z^2."""

    origin: Vec
    f1: Vec
    f2: Vec


@dataclass(frozen=True)
class Slope:
    """A validated slope; construct through :func:`validate_slope`."""

    vertices: tuple[Vec, ...]
    f1: Vec
    f2: Vec

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
    frame = Mat2.from_columns(f1, f2)
    if not frame.is_unimodular():
        raise SlopeError("slope basis must be a unimodular basis of Z^2")
    verts = tuple([_new(Vec, (int(v[0]), int(v[1]))) for v in vertices])
    if not verts:
        raise SlopeError("slope needs at least one vertex")
    a11, a12, a21, a22 = frame.inverse_unimodular()
    coords = [(a11 * x + a12 * y, a21 * x + a22 * y) for x, y in verts]
    edges = [(qx - px, qy - py) for (px, py), (qx, qy) in zip(coords, coords[1:])]
    for i, a in enumerate(edges, start=1):
        if not (a[0] > 0 and a[1] < 0):
            raise SlopeError(
                f"edge {i} must point down-right in the basis, got {a}",
                edge_index=i,
            )
    for i in range(len(edges) - 1):
        (a1, a2), (b1, b2) = edges[i], edges[i + 1]
        if a1 * b2 - b1 * a2 <= 0:
            raise SlopeError(
                f"edges {i + 1} and {i + 2} violate the increasing-ratio condition",
                edge_index=i + 2,
            )
    return Slope(verts, f1, f2)


# --- maximal slopes of a polygon -------------------------------------------


@dataclass(frozen=True)
class MaximalSlopes:
    """The four monotone boundary arcs of a polygon between axis extrema.

    q4 runs counter-clockwise from the west-bottom corner to the south-left
    corner in basis (e1, e2); q1, q2, q3 continue around in the rotated
    bases.  m1..m4 flag nondegenerate bottom/right/top/left faces.  The
    polygon and its bounding stats are kept, so build this once with
    :func:`maximal_slopes` and pass it to :func:`frame_splits_maximal` and
    :func:`check_step_bounds`.
    """

    q1: Slope
    q2: Slope
    q3: Slope
    q4: Slope
    m1: int
    m2: int
    m3: int
    m4: int
    polygon: Polygon = field(repr=False)
    stats: BoundingStats = field(repr=False)

    @property
    def edge_counts(self) -> tuple[int, int, int, int]:
        return (self.q1.n_edges, self.q2.n_edges, self.q3.n_edges, self.q4.n_edges)

    def slope(self, k: int) -> Slope:
        return (self.q1, self.q2, self.q3, self.q4)[k - 1]


def _arc(poly: Polygon, start: Vec, stop: Vec, f1: Vec, f2: Vec) -> Slope:
    verts = poly.vertices
    i = verts.index(start)
    run = [verts[i]]
    while verts[i] != stop:
        i = (i + 1) % len(verts)
        run.append(verts[i])
    return validate_slope(run, f1, f2)


def maximal_slopes(poly: Polygon) -> MaximalSlopes:
    s = bounding_stats(poly)
    q4 = _arc(poly, Vec(s.west, s.west_minus), Vec(s.south_minus, s.south), E1, E2)
    q1 = _arc(poly, Vec(s.south_plus, s.south), Vec(s.east, s.east_minus), E2, -E1)
    q2 = _arc(poly, Vec(s.east, s.east_plus), Vec(s.north_plus, s.north), -E1, -E2)
    q3 = _arc(poly, Vec(s.north_minus, s.north), Vec(s.west, s.west_plus), -E2, E1)
    return MaximalSlopes(
        q1,
        q2,
        q3,
        q4,
        int(s.south_minus != s.south_plus),
        int(s.east_minus != s.east_plus),
        int(s.north_minus != s.north_plus),
        int(s.west_minus != s.west_plus),
        poly,
        s,
    )


# --- splitting frames -------------------------------------------------------


def _frame_coords(frame: Frame, slope: Slope) -> list[Vec]:
    origin, f1, f2 = frame
    if (f1, f2) != (slope.f1, slope.f2) and (f2, f1) != (slope.f1, slope.f2):
        raise ValueError("frame basis must match the slope basis up to a swap")
    a11, a12, a21, a22 = Mat2.from_columns(f1, f2).inverse_unimodular()
    ox, oy = origin
    return [
        _new(Vec, (a11 * (x - ox) + a12 * (y - oy), a21 * (x - ox) + a22 * (y - oy)))
        for x, y in slope.vertices
    ]


@dataclass(frozen=True)
class SlopeProfile:
    """Combinatorial data of a slope relative to a splitting frame.

    Everything is expressed in frame coordinates, with the vertex order
    normalized so the walk starts at the (-,+) endpoint.  A profile exists
    only for a frame that splits the slope: :func:`slope_profile` returns
    None otherwise.

    k: index of the first vertex strictly below the frame axis.
    alpha: direction ratio a_k1 / -a_k2 of the axis-crossing edge.
    t: ceil(alpha) - 1.
    s_edges: indices i < k of edges that drop by exactly one; s = len.
    delta_flag: 1 when the crossing starts strictly above the axis and
        alpha is an integer.
    pi1/pi2: total positive-part projections onto the two frame axes;
        pihat = pi1 + pi2 - 2 * edges, split into the head (edges up to k)
        and the tail (edges after k).

    The frame and the slope are kept, so build this once with
    :func:`slope_profile` and pass it to each projection check.
    """

    k: int
    alpha: Fraction
    t: int
    s: int
    s_edges: tuple[int, ...]
    delta_flag: int
    pi1: int
    pi2: int
    pihat: int
    pihat_head: int
    pihat_tail: int
    coords: tuple[Vec, ...] = field(repr=False)
    frame: Frame = field(repr=False)
    slope: Slope = field(repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.coords) - 1

    @property
    def small_angle(self) -> bool:
        """True iff the crossing edge's direction ratio is at least one."""
        return self.alpha >= 1


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
    edges = [(qx - px, qy - py) for (px, py), (qx, qy) in zip(coords, coords[1:])]
    if not all(ex > 0 > ey for ex, ey in edges):
        raise InvariantError("slope edges point down-right in frame coordinates")
    # with every edge down-right the walk is monotone, so it meets the open
    # first quadrant iff it crosses x1 = 0 above the origin
    j = next(i for i, c in enumerate(coords) if c[0] > 0)
    (px, py), (qx, qy) = coords[j - 1], coords[j]
    if not py * qx > px * qy:
        return None

    k = next(i for i, c in enumerate(coords) if c[1] < 0)
    a1, a2 = edges[k - 1]
    alpha = Fraction(a1, -a2)
    t = -(a1 // a2) - 1  # ceil(alpha) - 1, as -a2 > 0
    s_edges = tuple(i for i in range(1, k) if edges[i - 1][1] == -1)
    delta_flag = int(coords[k - 1][1] > 0 and a1 % a2 == 0)

    pi1 = pi2 = pihat_head = pihat_tail = 0
    px, py = ax, ay
    for i, (qx, qy) in enumerate(coords[1:], start=1):
        # the positive-part projections of the edge from p to q
        p1 = (qx if qx > 0 else 0) - (px if px > 0 else 0)
        p2 = (py if py > 0 else 0) - (qy if qy > 0 else 0)
        pi1 += p1
        pi2 += p2
        if i <= k:
            pihat_head += p1 + p2 - 2
        else:
            pihat_tail += p1 + p2 - 2
        px, py = qx, qy
    pihat = pi1 + pi2 - 2 * len(edges)
    if pihat != pihat_head + pihat_tail:
        raise InvariantError("projection sums disagree with their head/tail split")
    return SlopeProfile(
        k, alpha, t, len(s_edges), s_edges, delta_flag, pi1, pi2, pihat,
        pihat_head, pihat_tail, tuple(coords), frame, slope,
    )


# --- checks -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
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


def _require_in_proper(slope: Slope, lattice: Sublattice) -> None:
    if not lattice.is_proper():
        raise ValueError("lattice must be a proper sublattice of Z^2")
    _require_in_lattice(slope, lattice)


def check_width_bound(
    slope: Slope,
    lattice: Optional[Sublattice] = None,
    skew: Optional[tuple[int, int]] = None,
) -> CheckReport:
    """Edge count of a slope against the coordinates of its endpoint difference.

    With s the number of edges of unit width, 2N <= |b1| + s and
    |b2| >= s(s+1)/2.  A lattice hint with first-coordinate step > 1 forces
    s = 0 and 2N <= |b1|; a skew hint (a, m) meaning the vertices lie in the
    lattice spanned by f1 - a*f2 and m*f2 sharpens the height bound to
    2|b2| >= (2a + (s-1)m) * s.
    """
    if slope.n_edges < 1:
        raise ValueError("width bound needs at least one edge")
    inv = Mat2.from_columns(slope.f1, slope.f2).inverse_unimodular()
    coords = [inv.mul_vec(v) for v in slope.vertices]
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
    if not 0 <= s <= n_edges:
        failures.append("s_range")
    if lattice is not None:
        _require_in_lattice(slope, lattice)
        small1 = steps(lattice, slope.f1, slope.f2).small_f1
        details["small_f1_step"] = small1
        if small1 > 1:
            if s != 0:
                failures.append("s_zero")
            if not 2 * n_edges <= abs(b.x1):
                failures.append("width_strict")
    if skew is not None:
        a, m = skew
        if not 1 <= a <= m:
            raise ValueError("skew hint needs 1 <= a <= m")
        if any((c.x2 + a * c.x1) % m != 0 for c in coords):
            raise ValueError("slope vertices do not lie in the skew lattice")
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
    small angle, (0, 0) otherwise.  Always asserts 2N <= v2 + w1; in the
    small-angle case additionally 2N <= v2 + w1 - t + s - ceil(-w2/2) + 1.
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
    """For slopes with vertices in a proper sublattice: 2N <= v2 + w1 - 1."""
    _require_in_proper(prof.slope, lattice)
    v, w = prof.coords[0], prof.coords[-1]
    details = {"n_edges": prof.n_edges, "v": list(v), "w": list(w)}
    failures = []
    if not 2 * prof.n_edges <= v.x2 + w.x1 - 1:
        failures.append("projection_sublattice")
    return CheckReport.from_failures(
        "sublattice_projection_bound", details, failures,
        {**_context(prof), "lattice": lattice.to_obj()} if failures else None,
    )


def check_profile_ledger(
    prof: SlopeProfile, lattice: Optional[Sublattice] = None
) -> CheckReport:
    """The bookkeeping inequalities behind the projection bounds.

    s <= t with the partial-sum refinement on the unit-drop edges; a lower
    bound on the head part of pihat; a lower bound on the tail part under a
    small angle; and pihat >= 1 when the vertices lie in a proper
    sublattice.
    """
    if lattice is not None:
        _require_in_proper(prof.slope, lattice)
    coords = prof.coords
    edges = [coords[i] - coords[i - 1] for i in range(1, len(coords))]
    k, t, s = prof.k, prof.t, prof.s
    details = {
        "k": k, "alpha": str(prof.alpha), "t": t, "s": s,
        "pihat": prof.pihat, "pihat_head": prof.pihat_head,
        "pihat_tail": prof.pihat_tail,
    }
    failures = []
    if not s <= t:
        failures.append("s_le_t")
    s_width = sum(edges[i - 1].x1 for i in prof.s_edges)
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
    if not prof.pihat_head >= head_rhs:
        failures.append("head_bound")
    if prof.small_angle:
        if not 2 * prof.pihat_tail >= coords[k].x2 - coords[-1].x2 - 1:
            failures.append("tail_bound")
    if lattice is not None and not prof.pihat >= 1:
        failures.append("pihat_positive")
    return CheckReport.from_failures(
        "profile_ledger", details, failures, _context(prof) if failures else None
    )


# --- frames against whole polygons ------------------------------------------

_AXIS_FRAME_TO_SLOPE: dict[tuple[Vec, Vec], int] = {
    (-E1, E2): 1, (E2, -E1): 1,
    (-E2, -E1): 2, (-E1, -E2): 2,
    (E1, -E2): 3, (-E2, E1): 3,
    (E2, E1): 4, (E1, E2): 4,
}


def frame_splits_maximal(ms: MaximalSlopes, frame: Frame) -> Optional[SlopeProfile]:
    """The profile of the maximal slope of ``ms.polygon`` that a signed-axis
    frame splits.

    Requires the origin outside the polygon and both frame rays to split it
    as chords; returns None when those preconditions fail, else the profile
    of the k-th maximal slope, the one the frame's axis directions select
    (``prof.slope is ms.slope(k)``), which the frame is then guaranteed to
    split.
    """
    key = (frame.f1, frame.f2)
    if key not in _AXIS_FRAME_TO_SLOPE:
        raise ValueError("frame basis vectors must be signed standard basis vectors")
    poly = ms.polygon
    if poly.contains(frame.origin):
        return None
    if not (ray_splits(poly, frame.origin, frame.f1) and ray_splits(poly, frame.origin, frame.f2)):
        return None
    k = _AXIS_FRAME_TO_SLOPE[key]
    prof = slope_profile(frame, ms.slope(k))
    if prof is None:
        raise InvariantError(f"frame does not split maximal slope {k}")
    return prof


def check_step_bounds(ms: MaximalSlopes, lattice: Sublattice) -> CheckReport:
    """Nondegenerate axis faces of a lattice polygon span at least one large step."""
    poly, s = ms.polygon, ms.stats
    if not all(lattice.contains(v) for v in poly.vertices):
        raise ValueError("polygon vertices must belong to the lattice")
    st = steps(lattice, E1, E2)
    gaps = {
        "bottom": (s.south_plus - s.south_minus, st.large_f1 * ms.m1),
        "right": (s.east_plus - s.east_minus, st.large_f2 * ms.m2),
        "top": (s.north_plus - s.north_minus, st.large_f1 * ms.m3),
        "left": (s.west_plus - s.west_minus, st.large_f2 * ms.m4),
    }
    details = {name: {"gap": g, "bound": b} for name, (g, b) in gaps.items()}
    failures = [name for name, (g, b) in gaps.items() if g < b]
    return CheckReport.from_failures(
        "step_bounds", details, failures,
        {"polygon": poly.to_obj(), "lattice": lattice.to_obj()} if failures else None,
    )
