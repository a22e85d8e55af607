"""Desk-scale verification of the vertex-count threshold.

The threshold nu(delta, n) = 2n + 2*min(delta, 3) - 3 is the number of
vertices that forces a convex integer polygon to contain a point of any
sublattice with invariant factors (delta, n).  This module builds the
extremal (nu - 1)-gons, exhaustively enumerates lattice-free polygons over
bounded boxes, and replays the type-II inequality pipeline as computation.

Both commands search the convex chains that start at a polygon's lowest
vertex p: candidate points are scanned in (x2, x1) order, and a chain
grows counter-clockwise with strictly increasing edge angles; a step is
refused as soon as the fan triangle it adds covers a forbidden lattice
point (growing a convex polygon only ever adds covered points, so the
refusal is sound).  Every such test depends on p and the last edge alone,
so the completions of a chain are a function of its last edge: a fan DP
(Dobkin, Edelsbrunner and Overmars, *Searching for empty convex polygons*,
1990, with "empty" read as "free of lattice points") solves them once per
start, in at most quadratically many states.  Each state's memo entry
keeps its polygon count, its longest completion and the successors that
complete to a polygon, so its successors are scanned once, while it is
solved.

The threshold check (``verify``) reads the count, the largest vertex count
and one witness off the DP; ``chains_explored`` counts its states.  The
stream (``enumerate``) walks the DP's memo depth-first and enters only
states with a completion of at least ``min_vertices`` vertices, so every
state it enters lies on an emitted polygon and its cost follows the
output.  The plain chain DFS that the DP replaced is kept in the tests as
the oracle both are checked against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .core import E1, E2, InvariantError, Sublattice, Vec, steps
from .polygon import Polygon, lattice_points_in, polygon_free_of
from .reduction import TypeTag, satisfies_type
from .slopes import (
    CheckReport,
    Frame,
    check_projection_bound,
    check_step_bounds,
    check_sublattice_projection_bound,
    frame_splits_maximal,
    maximal_slopes,
)


class SearchBox(NamedTuple):
    x1_min: int
    x1_max: int
    x2_min: int
    x2_max: int

    @classmethod
    def parse(cls, text: str) -> "SearchBox":
        usage = "box must be x1min,x1max,x2min,x2max"
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(usage) from None
        if len(parts) != 4:
            raise ValueError(usage)
        box = cls(*parts)
        if box.x1_min > box.x1_max or box.x2_min > box.x2_max:
            raise ValueError("box must be nonempty")
        return box

    def to_obj(self) -> list[int]:
        return list(self)


def critical_vertex_count(delta: int, n: int) -> int:
    """The vertex count forcing a lattice point: 2n + 2*min(delta, 3) - 3."""
    if delta < 1 or n < 1 or n % delta != 0:
        raise ValueError("(delta, n) is not a valid invariant factor pair")
    if delta * n < 2:
        raise ValueError("the lattice must be a proper sublattice")
    return 2 * n + 2 * min(delta, 3) - 3


def construct_extremal(delta: int, n: int) -> Polygon:
    """A polygon with critical_vertex_count - 1 vertices avoiding delta*Z x n*Z.

    Two vertices sit on every usable horizontal row; the quadratic chains
    x1 = 1 - j(n - j) on the left and x1 = 2 + j(n - j) on the right keep
    the profile strictly convex.  For delta >= 3 the rows 0..n each carry
    two vertices; for delta = 2 the outer rows carry one vertex each; for
    delta = 1 only the interior rows 1..n-1 are used.
    """
    nu = critical_vertex_count(delta, n)
    if nu <= 3:
        raise ValueError("no extremal polygon exists")
    right: list[Vec] = []
    left: list[Vec] = []
    if delta >= 3:
        for j in range(n + 1):
            bulge = j * (n - j)
            right.append(Vec(2 + bulge, j))
            left.append(Vec(1 - bulge, j))
        verts = right + left[::-1]
    elif delta == 2:
        for j in range(1, n):
            bulge = j * (n - j)
            right.append(Vec(2 + bulge, j))
            left.append(Vec(1 - bulge, j))
        verts = [Vec(1, 0)] + right + [Vec(1, n)] + left[::-1]
    else:
        m = n - 2
        for j in range(1, n):
            bulge = (j - 1) * (m - (j - 1))
            right.append(Vec(2 + bulge, j))
            left.append(Vec(1 - bulge, j))
        verts = right + left[::-1]
    poly = Polygon(verts)
    if len(poly) != nu - 1:
        raise InvariantError(f"extremal polygon has {len(poly)} vertices, expected {nu - 1}")
    if not polygon_free_of(poly, Sublattice.rectangular(delta, n)):
        raise InvariantError("extremal polygon contains a sublattice point")
    return poly


# --- exhaustive enumeration --------------------------------------------------


def _prepare(lattice: Sublattice, box: SearchBox) -> tuple[list, list]:
    cand = []
    lpts = []
    for y in range(box.x2_min, box.x2_max + 1):
        for x in range(box.x1_min, box.x1_max + 1):
            if lattice.contains(Vec(x, y)):
                lpts.append((x, y))
            else:
                cand.append((x, y))
    return cand, lpts


def _fan_dp(cand: list, lpts: list, i0: int) -> tuple:
    """The fan DP for the polygons whose (x2, x1)-lowest vertex is the
    start p = cand[i0].

    ``tail`` is the later candidates in scan order.  The state (a, b) is a
    chain from p whose last edge runs from tail[a] (from p when a is -1)
    to tail[b].  Returns (tail, firsts, memo):

    - ``memo``: (a, b) -> (count, longest, ks) for every state reachable
      from a free first edge: the number of polygons that complete the
      chain (the chain itself counts when it closes), the most vertices
      any of them adds (-1 when there are none), and the successors k, in
      scan order, whose state (b, k) completes to a polygon;
    - ``firsts``: the successors of p itself, the b in scan order whose
      first edge (p, tail[b]) is free and completes to a polygon.

    A lattice point on the boundary blocks.
    """
    p0x, p0y = cand[i0]
    tail = cand[i0 + 1 :]
    m = len(tail)
    steps: dict = {}  # b -> (k, tail[k] - tail[b]) for every k != b, and for k < b
    free: dict = {}  # b * m + k -> the fan triangle (p, tail[b], tail[k]) is free
    memo: dict = {}

    def seg_blocked(qx: int, qy: int) -> bool:
        dx, dy = qx - p0x, qy - p0y
        for lx, ly in lpts:
            ex, ey = lx - p0x, ly - p0y
            if dx * ey - dy * ex == 0:
                dot = ex * dx + ey * dy
                if 0 <= dot <= dx * dx + dy * dy:
                    return True
        return False

    def tri_blocked(ux: int, uy: int, vx: int, vy: int) -> bool:
        ax, ay, bx, by = ux, uy, vx, vy
        if (ax - p0x) * (by - p0y) - (ay - p0y) * (bx - p0x) < 0:
            ax, ay, bx, by = vx, vy, ux, uy
        for lx, ly in lpts:
            if (ax - p0x) * (ly - p0y) - (ay - p0y) * (lx - p0x) < 0:
                continue
            if (bx - ax) * (ly - ay) - (by - ay) * (lx - ax) < 0:
                continue
            if (p0x - bx) * (ly - by) - (p0y - by) * (lx - bx) < 0:
                continue
            return True
        return False

    def solve(a: int, b: int) -> tuple:
        sx, sy = (p0x, p0y) if a < 0 else tail[a]
        ux, uy = tail[b]
        udx, udy = ux - sx, uy - sy
        up = udy > 0 or (udy == 0 and udx > 0)
        count, longest, ks = 0, -1, []
        # The chain closes at p after a left turn at tail[b] that keeps
        # the edge angles rising.  A left turn at p follows: the angles
        # rise strictly inside [0, 2*pi) from a first edge below pi, and a
        # closed polygon turns through more than pi, so the last turn is
        # less than pi.  Leaving it out keeps the first edge out of the
        # state.
        cdx, cdy = p0x - ux, p0y - uy
        if udx * cdy - udy * cdx > 0 and (up or not (cdy > 0 or (cdy == 0 and cdx > 0))):
            count, longest = 1, 0
        # A successor takes a strict left turn, no edge back in the upper
        # half-plane of directions once one has left it, and a free fan
        # triangle.  tail is in (x2, x1) order, so the k < b are exactly
        # the steps down.  The turn test is skipped for the half-plane
        # misses.
        if b not in steps:
            every = [(k, vx - ux, vy - uy) for k, (vx, vy) in enumerate(tail) if k != b]
            steps[b] = (every, every[:b])
        every, below = steps[b]
        for k, dx, dy in every if up else below:
            if udx * dy - udy * dx <= 0:
                continue
            key = b * m + k
            ok = free.get(key)
            if ok is None:
                vx, vy = tail[k]
                ok = free[key] = not tri_blocked(ux, uy, vx, vy)
            if ok:
                c, l, _ = memo.get((b, k)) or solve(b, k)
                if c:
                    count += c
                    ks.append(k)
                    if l + 1 > longest:
                        longest = l + 1
        memo[(a, b)] = got = (count, longest, ks)
        return got

    firsts = [
        b for b, (vx, vy) in enumerate(tail) if not seg_blocked(vx, vy) and solve(-1, b)[0]
    ]
    # solve reaches itself through its closure; unbinding it lets the
    # tables go with the caller's last reference instead of at the next
    # cyclic garbage collection
    del solve
    return tail, firsts, memo


def enumerate_free_polygons(
    lattice: Sublattice, box: SearchBox, min_vertices: int = 3
) -> Iterator[Polygon]:
    """Every strictly convex polygon with at least min_vertices vertices,
    vertices in the box but not on the lattice, and no lattice point
    inside or on it.  Deterministic order: by lowest vertex, then
    depth-first over the chain's vertices in scan order, each chain
    before its extensions."""
    min_v = max(3, min_vertices)
    cand, lpts = _prepare(lattice, box)

    def walk(a: int, ks: list) -> Iterator[Polygon]:
        # The chain ends at tail[a] (at p when a is -1) and ks are its
        # live successors; this reads the current start's memo.  Only states
        # with a completion of min_v or more vertices are entered.  Such a
        # chain closes itself once it has three vertices: its polygon keeps
        # some vertices of a free convex polygon in their cyclic order, so
        # it is convex and free too, and it is emitted at min_v vertices.
        for b in ks:
            _, l, after = memo[(a, b)]
            if len(chain) + 1 + l >= min_v:
                chain.append(tail[b])
                if len(chain) >= min_v:
                    yield Polygon(chain)
                yield from walk(b, after)
                chain.pop()

    for i0 in range(len(cand)):
        tail, firsts, memo = _fan_dp(cand, lpts, i0)
        chain = [cand[i0]]
        yield from walk(-1, firsts)


def _longest(cand: list, lpts: list, i0: int) -> tuple:
    """(chain, count, DP states) for the start cand[i0], where the chain is
    the lexicographically smallest longest polygon, () when no polygon
    starts there."""
    tail, firsts, memo = _fan_dp(cand, lpts, i0)
    count = sum(memo[(-1, b)][0] for b in firsts)
    # from p and then from each state take, among the successors with the
    # longest completion, the smallest as (x1, x2); scan order is (x2, x1),
    # so the first of them is not always the smallest
    chain = [cand[i0]] if firsts else []
    a, ks = -1, firsts
    while ks:
        b = min(ks, key=lambda k: (-memo[(a, k)][1], tail[k]))
        chain.append(tail[b])
        a, ks = b, memo[(a, b)][2]
    return tuple(chain), count, len(memo)


@dataclass(frozen=True)
class VerificationReport:
    lattice: Sublattice
    box: SearchBox
    max_vertices_found: int
    witness: Optional[Polygon]
    nu: int
    consistent: bool
    instances_checked: int
    chains_explored: int  # fan-DP states solved, summed over the starts
    elapsed_seconds: float

    def to_obj(self) -> dict:
        return {
            "lattice": self.lattice.to_obj(),
            "box": self.box.to_obj(),
            "max_vertices_found": self.max_vertices_found,
            "witness": None if self.witness is None else self.witness.to_obj(),
            "nu": self.nu,
            "consistent": self.consistent,
            "instances_checked": self.instances_checked,
            "chains_explored": self.chains_explored,
            "elapsed_seconds": self.elapsed_seconds,
        }


def default_box(lattice: Sublattice) -> SearchBox:
    """The canonical slab-sized box: both coordinates in [-n+1, 2n-1]."""
    n = lattice.n
    return SearchBox(-n + 1, 2 * n - 1, -n + 1, 2 * n - 1)


def verify_vertex_threshold(
    lattice: Sublattice, box: Optional[SearchBox] = None
) -> VerificationReport:
    """Exhaustively check that no lattice-free polygon in the box has more
    than nu - 1 vertices, by the fan DP from every start vertex."""
    if not lattice.is_proper():
        raise ValueError("the lattice must be a proper sublattice of Z^2")
    if box is None:
        box = default_box(lattice)
    nu = critical_vertex_count(lattice.delta, lattice.n)
    start = time.perf_counter()
    cand, lpts = _prepare(lattice, box)
    best: tuple = ()  # the longest chain, the smallest one on ties
    found = states = 0
    for i0 in range(len(cand)):
        chain, count, solved = _longest(cand, lpts, i0)
        found += count
        states += solved
        if len(chain) > len(best) or (len(chain) == len(best) and chain < best):
            best = chain
    witness = Polygon(best) if best else None
    elapsed = time.perf_counter() - start
    return VerificationReport(
        lattice, box, len(best), witness, nu, len(best) <= nu - 1, found, states, elapsed
    )


# --- statement-level checks ---------------------------------------------------


def _b_parameter(vertex_lattice: Sublattice, n: int) -> int:
    factors = (vertex_lattice.delta, vertex_lattice.n)
    if factors == (1, 1):
        return 0
    if n % 2 == 0 and factors == (1, n // 2):
        return 1
    if factors == (1, n):
        return 2
    raise ValueError(
        "vertex lattice must be Z^2, a (1, n/2)-lattice, or a (1, n)-lattice"
    )


def check_type_vertex_bound(
    poly: Polygon, tag: TypeTag, vertex_lattice: Sublattice
) -> CheckReport:
    """Vertex bound for a typed polygon: 2n+2, 2n or 2n-2 according to
    whether the vertices lie in Z^2, a (1, n/2)- or a (1, n)-lattice."""
    n = tag.n
    if n < 3:
        raise ValueError("the vertex bound applies for n >= 3")
    if not all(vertex_lattice.contains(v) for v in poly.vertices):
        raise ValueError("polygon vertices must belong to the claimed lattice")
    b = _b_parameter(vertex_lattice, n)
    bound = 2 * n + 2 - 2 * b
    details = {"n": n, "b": b, "vertices": len(poly), "bound": bound}
    failures = [] if len(poly) <= bound else ["vertex_bound"]
    return CheckReport.from_failures(
        "type_vertex_bound", details, failures,
        {"polygon": poly.to_obj(), "tag": tag.kind},
    )


def type_ii_bound_pipeline(
    poly: Polygon, n: int, vertex_lattice: Sublattice
) -> CheckReport:
    """Replay the inequality chain bounding the vertices of a type II polygon.

    Verifies the four corner frames split the four maximal slopes (the
    report fails there when one does not), bounds each doubled slope edge
    count by the projection inequalities (with the sublattice sharpening
    when b >= 1), bounds each axis face by the large steps, and sums the
    actual instances to 2N <= 4n + 4 - 4b, hence N <= 2n + 2 - 2b.
    """
    if not satisfies_type(poly, TypeTag("II", n)):
        raise ValueError("polygon is not in type II position")
    if not all(vertex_lattice.contains(v) for v in poly.vertices):
        raise ValueError("polygon vertices must belong to the claimed lattice")
    b = _b_parameter(vertex_lattice, n)
    failures: list[str] = []
    details: dict = {"n": n, "b": b, "vertices": len(poly)}

    frames = {
        1: Frame(Vec(n, 0), -E1, E2),
        2: Frame(Vec(n, n), -E1, -E2),
        3: Frame(Vec(0, n), E1, -E2),
        4: Frame(Vec(0, 0), E1, E2),
    }
    ms = maximal_slopes(poly)
    profs = {k: frame_splits_maximal(ms, frame) for k, frame in frames.items()}
    failures.extend(f"corner_frame_{k}" for k, prof in profs.items() if prof is None)
    context = {"polygon": poly.to_obj(), "lattice": vertex_lattice.to_obj()}
    if failures:
        # every later step reads the four split slopes
        return CheckReport.from_failures("type_ii_bound_pipeline", details, failures, context)

    if b == 2:
        st = steps(vertex_lattice, E1, E2)
        details["large_steps"] = [st.large_f1, st.large_f2]
        if st.large_f1 < 2 or st.large_f2 < 2:
            failures.append("large_steps")

    adj = (b * b - 3 * b) // 2  # 0 for b=0, -1 for b in {1, 2}
    sum_bounds = 0
    slope_rows = []
    for k, prof in profs.items():
        v, w = prof.coords[0], prof.coords[-1]
        bound = v.x2 + w.x1 + adj
        sum_bounds += bound
        if 2 * prof.n_edges > bound:
            failures.append(f"slope_bound_{k}")
        if b == 0:
            rep = check_projection_bound(prof)
        else:
            rep = check_sublattice_projection_bound(prof, vertex_lattice)
        if not rep.ok:
            failures.append(f"slope_check_{k}")
        slope_rows.append(
            {"k": k, "edges": prof.n_edges, "bound": bound, "check": rep.name}
        )
    details["slopes"] = slope_rows

    step_report = check_step_bounds(ms, vertex_lattice)
    if not step_report.ok:
        failures.append("step_bounds")
    beta = (b * b - b + 2) // 2  # 1 for b in {0, 1}, 2 for b=2
    m_vals = (ms.m1, ms.m2, ms.m3, ms.m4)
    stats = ms.stats
    gaps = (
        stats.south_plus - stats.south_minus,
        stats.east_plus - stats.east_minus,
        stats.north_plus - stats.north_minus,
        stats.west_plus - stats.west_minus,
    )
    for idx, (gap, m) in enumerate(zip(gaps, m_vals), start=1):
        if gap < beta * m:
            failures.append(f"face_gap_{idx}")

    n_vertices = len(poly)
    sum_m = sum(m_vals)
    if sum(ms.edge_counts) + sum_m != n_vertices:
        failures.append("boundary_decomposition")
    if sum_bounds != 4 * n + 2 * (b * b - 3 * b) - sum(gaps):
        failures.append("bound_sum_identity")
    two_n = 2 * n_vertices
    mid = sum_bounds + 2 * sum_m
    upper = 4 * n + 2 * b * b - 6 * b + (2 - beta) * sum_m
    final = 4 * n + 4 - 4 * b
    details.update(
        {"two_n": two_n, "sum_bounds": mid, "relaxed": upper, "final": final}
    )
    if not (two_n <= mid <= upper <= final):
        failures.append("summed_chain")
    if not n_vertices <= 2 * n + 2 - 2 * b:
        failures.append("vertex_bound")
    return CheckReport.from_failures("type_ii_bound_pipeline", details, failures, context)


def check_pentagon_parity(poly: Polygon) -> CheckReport:
    """Every integer pentagon has two vertices congruent mod 2, and the
    segment between them holds at least three integer points."""
    if len(poly) != 5:
        raise ValueError("parity check applies to pentagons")
    classes: dict[tuple[int, int], list[Vec]] = {}
    for v in poly.vertices:
        classes.setdefault((v.x1 % 2, v.x2 % 2), []).append(v)
    pair = None
    for members in classes.values():
        if len(members) >= 2:
            cand = tuple(sorted(members)[:2])
            if pair is None or cand < pair:
                pair = cand
    failures = []
    details: dict = {}
    if pair is None:
        failures.append("pigeonhole")
    else:
        p, q = pair
        g = math.gcd(q.x1 - p.x1, q.x2 - p.x2)
        details = {"pair": [list(p), list(q)], "segment_points": g + 1}
        if g + 1 < 3:
            failures.append("segment_points")
    return CheckReport.from_failures(
        "pentagon_parity", details, failures, {"polygon": poly.to_obj()}
    )


def contains_even_ordinate_point(poly: Polygon) -> bool:
    """True iff some integer point of the polygon has an even x2 coordinate."""
    return any(p.x2 % 2 == 0 for p in lattice_points_in(poly))
