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
start and edge.

Angles are compared as direction ranks: the primitive directions of the
box's differences, sorted once per box by exact cross products.  The DP
runs eagerly, once per start, in one pass over the starts in scan order
that both commands read.  It tests each pair of later points on different
rays from p for a free fan triangle once, with the lattice points sliced
by their rank from p, and lists the edge that turns left around p as a
pair (u, v) in the list of its rank.  It then solves the free edges in
decreasing rank, so the edges that may follow an edge, those at its head
in a window of ranks above its own, are solved before it.  Their counts
and longest completions are read from per-vertex tables by bisection.

The threshold check (``verify``) reads the count, the largest vertex count
and one witness off the DP.  ``chains_explored`` counts the edges the DP
solves, edges with no completion included.  Each is a state, a last edge,
that the chain search from p reaches: a first edge, or an edge that turns
left around p after the free first edge to its tail.  The stream
(``enumerate``) walks the DP's live edges depth-first and enters only
states that have a successor and a completion of at least
``min_vertices`` vertices, so every state it enters lies on an emitted
polygon and its cost follows the output.  The walk also checks every
polygon it emits in integers, with the predicate of the ``Polygon``
constructor, but on the chain rather than per polygon: the turn at a
vertex when the chain takes its successor, and the turns at the last
vertex and at p, with the winding, when the chain closes.  Polygons that
share a prefix share its checks, and the polygon is built without a
second pass.  The plain chain DFS that the DP replaced is kept in the
tests as the oracle both are checked against.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from typing import Iterator, NamedTuple, Optional

from .core import E1, E2, NEG_E1, NEG_E2, InvariantError, Sublattice, Vec, _new, steps
from .polygon import Polygon, polygon_free_of
from .reduction import TypeTag, _clause_holds, _extent
from .slopes import (
    CheckReport,
    Frame,
    check_projection_bound,
    maximal_slopes,
    slope_profile,
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

    Two vertices sit on every usable horizontal row j: the rows 0..n for
    delta >= 3 and the interior rows 1..n-1 otherwise.  With the bulge
    b(j) = (j - s)(n - s - j), where s = 1 for delta = 1 and s = 0
    otherwise, the quadratic chains x1 = 2 + b(j) on the right and
    x1 = 1 - b(j) on the left keep the profile strictly convex.  For
    delta = 2 the vertices (1, 0) and (1, n) close it at the bottom and top.
    """
    nu = critical_vertex_count(delta, n)
    if nu <= 3:
        raise ValueError("no extremal polygon exists")
    rows = range(n + 1) if delta >= 3 else range(1, n)
    s = 1 if delta == 1 else 0
    right = [Vec(2 + (j - s) * (n - s - j), j) for j in rows]
    left = [Vec(1 - (j - s) * (n - s - j), j) for j in reversed(rows)]
    if delta == 2:
        right = [Vec(1, 0), *right, Vec(1, n)]
    poly = Polygon(right + left)
    if len(poly) != nu - 1:
        raise InvariantError(f"extremal polygon has {len(poly)} vertices, expected {nu - 1}")
    if not polygon_free_of(poly, Sublattice.rectangular(delta, n)):
        raise InvariantError("extremal polygon contains a sublattice point")
    return poly


# --- exhaustive enumeration --------------------------------------------------


class _Grid(NamedTuple):
    """A box's points in (x2, x1) scan order, each also as the integer id
    x1 * stride + x2, and the direction rank of every nonzero difference
    of ids: ``rank[off + id(q) - id(p)]``.  The stride is more than twice
    the largest difference in x2, so a difference of ids fixes the
    difference of points.  Ranks sort the primitive directions of the
    box's differences by angle on [0, 2*pi): ranks 0 to upper - 1 are the
    directions in [0, pi), and the reverse of rank r < upper is r + upper.
    """

    cand: list  # the candidates, off the lattice, as Vec
    ids: list  # their ids
    lat: list  # the ids of the lattice points
    lat_before: list  # per candidate, how many lattice points precede it
    rank: list
    off: int
    upper: int


def _prepare(lattice: Sublattice, box: SearchBox) -> _Grid:
    w, h = box.x1_max - box.x1_min, box.x2_max - box.x2_min
    stride = 2 * h + 1
    off = w * stride + h
    # the directions in [0, pi), sorted by exact cross products: a turn
    # left from a to b puts a first
    ups = [
        (dx, dy)
        for dx in range(-w, w + 1)
        for dy in range(h + 1)
        if (dy > 0 or dx > 0) and math.gcd(dx, dy) == 1
    ]
    ups.sort(key=cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1]))
    upper = len(ups)
    rank = [-1] * (2 * off + 1)
    for r, (dx, dy) in enumerate(ups):
        step = dx * stride + dy
        for k in range(1, max(w, h) + 1):
            if abs(k * dx) > w or k * dy > h:
                break
            rank[off + k * step] = r
            rank[off - k * step] = r + upper
    cand, ids, lat, lat_before = [], [], [], []
    for y in range(box.x2_min, box.x2_max + 1):
        for x in range(box.x1_min, box.x1_max + 1):
            v = _new(Vec, (x, y))
            if lattice.contains(v):
                lat.append(x * stride + y)
            else:
                cand.append(v)
                ids.append(x * stride + y)
                lat_before.append(len(lat))
    return _Grid(cand, ids, lat, lat_before, rank, off, upper)


def _fan_edges(grid: _Grid, i0: int) -> tuple:
    """The free edges for the polygons whose (x2, x1)-lowest vertex is the
    start p = cand[i0].

    The vertices are the later candidates in scan order, tail[k] as k, and
    p as m = len(tail).  A polygon whose lowest vertex is p sees its other
    vertices at strictly rising angle from p, so each of its edges u -> v
    turns left around p.  Only those edges are listed: p -> b when its
    segment holds no lattice point, and u -> v when u and v lie on
    different rays from p, v at the larger rank, and the fan triangle
    (p, u, v) holds no lattice point, on its boundary included.  Returns
    (rp, by_rank): rp[k] is the rank of tail[k] - p, and by_rank[s] lists
    the free edges of rank s as pairs (u, v), the first edges (m, b) first.
    """
    rank, off, upper = grid.rank, grid.off, grid.upper
    pid = grid.ids[i0]
    tids = grid.ids[i0 + 1 :]
    m = len(tids)
    base = off - pid
    rp = [rank[base + t] for t in tids]
    # The lattice points in p's upper set are the only ones a fan triangle
    # can hold.  A later point lies on a ray from p of direction (dx, dy)
    # with dy > 0, or dy == 0 and dx > 0, so scan order, (x2, x1), lists
    # each ray outwards, and its first lattice point is the nearest.
    upper_lat = grid.lat[grid.lat_before[i0] :]
    nearest: dict = {}
    for lid in upper_lat:
        nearest.setdefault(rank[base + lid], abs(lid - pid))
    # A point behind a lattice point on its ray from p lies on no free
    # edge: every fan triangle at it covers that segment.  The others,
    # grouped by ray and listed outwards; ids grow linearly along a ray,
    # so |id - pid| is the distance along it.
    rays: dict = {}
    for k in range(m):
        if abs(tids[k] - pid) < nearest.get(rp[k], math.inf):
            rays.setdefault(rp[k], []).append(k)
    order = sorted(rays)
    # per ray, the lattice points of rank above the ray before it and up
    # to its own
    folds: list = [[] for _ in order]
    for lid in upper_lat:
        j = bisect_left(order, rank[base + lid])
        if j < len(order):
            folds[j].append(lid)

    by_rank: list = [[] for _ in range(2 * upper)]
    for r in order:
        by_rank[r] += [(m, b) for b in rays[r]]
    for gi, r in enumerate(order):
        last = r + upper - 1
        for u in rays[r]:
            b0 = off - tids[u]
            # For v on a later ray, the triangle (p, u, v) holds the lattice
            # points l of rank from p in [r, rank(v - p)] on p's side of uv:
            # those with rank(l - u) >= rank(v - u).  Both differences point
            # left of the ray through u, so their ranks lie in [r, r + upper]
            # and compare as angles.  Walking the later rays in order keeps
            # t, the largest rank(l - u) over the slice so far; v is free
            # when rank(v - u) > t, and no v is once t reaches r + upper - 1.
            t = r
            for gj in range(gi + 1, len(order)):
                for lid in folds[gj]:
                    x = rank[b0 + lid]
                    if x > t:
                        t = x
                if t >= last:
                    break
                for v in rays[order[gj]]:
                    s = rank[b0 + tids[v]]
                    if s > t:
                        by_rank[s].append((u, v))
    return rp, by_rank


def _fan_dp(grid: _Grid, i0: int) -> tuple:
    """The fan DP for the start p = cand[i0], over the free edges of
    ``_fan_edges``.  Returns (tail, out, count, solved):

    - ``out[x]``: the live edges from vertex x (p when x is m), those that
      complete to a polygon, in decreasing rank, each as (k, longest,
      lo, hi): its head tail[k], the most vertices a completion adds, and
      the window out[k][lo:hi] of live edges that may follow it;
    - ``count``: the number of polygons from p;
    - ``solved``: the number of free edges solved, live or not.

    An edge u -> v of rank s continues with the edges from v of rank in
    (s, s + upper) when s < upper, and in (s, 2 * upper) otherwise.  That
    is the strict left turn plus no edge back in the upper half-plane once
    one has left it.  The chain closes at p by the same rule: the closing
    edge v -> p has rank rp[v] + upper, so it follows when
    s - upper < rp[v] < s.  The turn at p needs no test: the edge angles
    rise within [0, 2*pi), so the turn from the closing edge back to the
    first is positive.  Edges are solved in decreasing rank, one
    equal-rank group at a time, so each window is a suffix of out[v] when
    it is read.
    """
    rp, by_rank = _fan_edges(grid, i0)
    upper = grid.upper
    m = len(rp)
    # per vertex: the negated ranks of out[x], for bisect; prefix sums of
    # the counts; and a stack of (position, longest) with longest falling,
    # whose first entry at or after a position is the window's maximum
    negr: list = [[] for _ in range(m + 1)]
    cum: list = [[0] for _ in range(m + 1)]
    spos: list = [[] for _ in range(m + 1)]
    sval: list = [[] for _ in range(m + 1)]
    out: list = [[] for _ in range(m + 1)]
    for s in range(2 * upper - 1, -1, -1):
        edges = by_rank[s]
        if not edges:
            continue
        live = []
        cut, close = -s - upper, s - upper
        for u, v in edges:
            nr = negr[v]
            lo, hi = bisect_right(nr, cut), len(nr)
            c = cum[v]
            count = c[hi] - c[lo] + (close < rp[v] < s)
            if count:
                longest = sval[v][bisect_left(spos[v], lo)] + 1 if lo < hi else 0
                live.append((u, v, count, longest, lo, hi))
        for u, v, count, longest, lo, hi in live:
            negr[u].append(-s)
            c = cum[u]
            c.append(c[-1] + count)
            sp, sv = spos[u], sval[u]
            while sv and sv[-1] <= longest:
                sp.pop()
                sv.pop()
            sp.append(len(out[u]))
            sv.append(longest)
            out[u].append((v, longest, lo, hi))
    return grid.cand[i0 + 1 :], out, cum[m][-1], sum(map(len, by_rank))


def _fans(lattice: Sublattice, box: SearchBox) -> Iterator[tuple]:
    """The fan DP of every start p, in scan order: (p, tail, out, count,
    solved), the last four as ``_fan_dp`` returns them."""
    grid = _prepare(lattice, box)
    for i0, p in enumerate(grid.cand):
        yield (p, *_fan_dp(grid, i0))


def enumerate_free_polygons(
    lattice: Sublattice, box: SearchBox, min_vertices: int = 3
) -> Iterator[Polygon]:
    """Every strictly convex polygon with at least min_vertices vertices,
    vertices in the box but not on the lattice, and no lattice point
    inside or on it.  Deterministic order: by lowest vertex, then
    depth-first over the chain's vertices in scan order, each chain
    before its extensions.  A polygon that fails the turn or winding check
    of ``Polygon`` is a fault of the DP and raises ``InvariantError``."""
    min_v = max(3, min_vertices)

    def walk(
        x: int, lo: int, hi: int, ex: int, ey: int, e_low: bool, wraps: int
    ) -> Iterator[Polygon]:
        # The chain ends at vertex x and out[x][lo:hi] are its live
        # successors, taken in scan order.  Only states with a completion
        # of min_v or more vertices are entered.  Such a chain closes
        # itself once it has three vertices: its polygon keeps some
        # vertices of a free convex polygon in their cyclic order, so it
        # is convex and free too, and it is emitted at min_v vertices.  A
        # successor's window is empty exactly when its longest completion
        # is 0, so only states with a nonempty window are entered.
        #
        # (ex, ey) is the edge into x, e_low tells whether its direction
        # lies in [pi, 2*pi), and wraps counts the passages from
        # [pi, 2*pi) to [0, pi) at the chain's vertices after p and
        # before x.
        key = (x, lo, hi)
        succ = windows.get(key)
        if succ is None:
            succ = windows[key] = sorted(out[x][lo:hi])
        bx, by = chain[-1]
        for b, longest, blo, bhi in succ:
            if len(chain) + 1 + longest >= min_v:
                c = tail[b]
                cx, cy = c
                fx, fy = cx - bx, cy - by
                if ex * fy - ey * fx <= 0:
                    raise _chain_error([*chain, c], "does not turn strictly left")
                f_low = fy < 0 or (fy == 0 and fx < 0)
                w = wraps + (e_low and not f_low)
                chain.append(c)
                if len(chain) >= min_v:
                    # close with c -> p: the turns at c and at p
                    gx, gy = px - cx, py - cy
                    if fx * gy - fy * gx <= 0 or gx * hy - gy * hx <= 0:
                        raise _chain_error(chain, "does not turn strictly left when closed")
                    g_low = gy < 0 or (gy == 0 and gx < 0)
                    if w + (f_low and not g_low) + (g_low and not h_low) != 1:
                        raise _chain_error(chain, "does not wind once when closed")
                    yield Polygon._checked(chain)
                if longest:
                    yield from walk(b, blo, bhi, fx, fy, f_low, w)
                chain.pop()

    for p, tail, out, _, _ in _fans(lattice, box):
        if out[-1]:
            windows: dict = {}
            px, py = p
            chain = [p]
            # the first edges p -> c; the turn at p is checked on closing
            for b, longest, blo, bhi in sorted(out[-1]):
                if 2 + longest >= min_v:
                    c = tail[b]
                    hx, hy = c[0] - px, c[1] - py
                    h_low = hy < 0 or (hy == 0 and hx < 0)
                    chain.append(c)
                    yield from walk(b, blo, bhi, hx, hy, h_low, 0)
                    chain.pop()


def _chain_error(chain: list, what: str) -> InvariantError:
    return InvariantError(f"fan DP chain {[tuple(v) for v in chain]} {what}")


class VerificationReport(NamedTuple):
    lattice: Sublattice
    box: SearchBox
    max_vertices_found: int
    witness: Optional[Polygon]
    nu: int
    consistent: bool
    instances_checked: int
    chains_explored: int  # free edges the fan DP solves, summed over the starts
    elapsed_seconds: float

    def to_obj(self) -> dict:
        return {
            **self._asdict(),
            "lattice": self.lattice.to_obj(),
            "box": self.box.to_obj(),
            "witness": None if self.witness is None else self.witness.to_obj(),
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
    best: list = []  # the longest chain, the smallest one on ties
    found = states = 0
    for p, tail, out, count, solved in _fans(lattice, box):
        found += count
        states += solved
        # from p and then from each state take, among the successors with the
        # longest completion, the smallest as (x1, x2); scan order is (x2, x1),
        # so the first of them is not always the smallest
        x, lo, hi = len(tail), 0, len(out[-1])
        chain = [p] if hi else []
        while lo < hi:
            x, _, lo, hi = min(out[x][lo:hi], key=lambda e: (-e[1], tail[e[0]]))
            chain.append(tail[x])
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
        {"polygon": poly.to_obj(), "tag": tag.kind} if failures else None,
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
    if n < 1:
        raise ValueError("the type clauses need n >= 1")
    frames = {
        1: Frame(Vec(n, 0), NEG_E1, E2),
        2: Frame(Vec(n, n), NEG_E1, NEG_E2),
        3: Frame(Vec(0, n), E1, NEG_E2),
        4: Frame(Vec(0, 0), E1, E2),
    }
    # the type II clause: each side of the n-square splits the polygon
    # with its chord inside the side
    verts = poly.vertices
    if not _clause_holds(verts, "II", n, (_extent(verts, 0), _extent(verts, 1))):
        raise ValueError("polygon is not in type II position")
    ms = maximal_slopes(poly)
    # The two rays of a corner frame run along the sides at its corner, so
    # both split the polygon, and the frame splits maximal slope k unless
    # the polygon holds the corner.
    profs: dict = {}
    for k, frame in frames.items():
        prof = None
        if not poly.contains(frame.origin):
            prof = slope_profile(frame, ms.slopes[k - 1])
            if prof is None:
                raise InvariantError(f"frame does not split maximal slope {k}")
        profs[k] = prof
    # the one membership check: the sublattice projection bound and the
    # step bounds below read the vertex lattice without checking it again
    if not all(vertex_lattice.contains(v) for v in poly.vertices):
        raise ValueError("polygon vertices must belong to the claimed lattice")
    b = _b_parameter(vertex_lattice, n)
    failures = [f"corner_frame_{k}" for k, prof in profs.items() if prof is None]
    details: dict = {"n": n, "b": b, "vertices": len(poly)}
    if failures:
        # every later step reads the four split slopes
        return _pipeline_report(details, failures, poly, vertex_lattice)

    st = steps(vertex_lattice, E1, E2)
    if b == 2:
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
        # for b >= 1 (a proper lattice) the slope bound is the clause of
        # check_sublattice_projection_bound, 2N <= v2 + w1 - 1, as adj = -1
        check = "sublattice_projection_bound" if b else "projection_bound"
        if b == 0 and not check_projection_bound(prof).ok:
            failures.append(f"slope_check_{k}")
        slope_rows.append({"k": k, "edges": prof.n_edges, "bound": bound, "check": check})
    details["slopes"] = slope_rows

    stats = ms.stats
    gaps = (
        stats.south_plus - stats.south_minus,
        stats.east_plus - stats.east_minus,
        stats.north_plus - stats.north_minus,
        stats.west_plus - stats.west_minus,
    )
    # the step bounds: a nondegenerate axis face spans at least one large
    # step of the vertex lattice along its axis
    large = (st.large_f1, st.large_f2, st.large_f1, st.large_f2)
    if any(gap < step * m for gap, step, m in zip(gaps, large, ms.faces)):
        failures.append("step_bounds")
    beta = (b * b - b + 2) // 2  # 1 for b in {0, 1}, 2 for b=2
    for idx, (gap, m) in enumerate(zip(gaps, ms.faces), start=1):
        if gap < beta * m:
            failures.append(f"face_gap_{idx}")

    n_vertices = len(poly)
    sum_m = sum(ms.faces)
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
    return _pipeline_report(details, failures, poly, vertex_lattice)


def _pipeline_report(
    details: dict, failures: list[str], poly: Polygon, vertex_lattice: Sublattice
) -> CheckReport:
    context = {"polygon": poly.to_obj(), "lattice": vertex_lattice.to_obj()} if failures else None
    return CheckReport.from_failures("type_ii_bound_pipeline", details, failures, context)
