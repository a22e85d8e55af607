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
runs eagerly, once per start.  It tests each pair of later points for a
free fan triangle once, with the lattice points sliced by their rank from
p.  It then solves the free edges in decreasing rank, so the edges that
may follow an edge, those at its head in a window of ranks above its own,
are solved before it.  Their counts and longest completions are read from
per-vertex tables by bisection.

The threshold check (``verify``) reads the count, the largest vertex count
and one witness off the DP.  ``chains_explored`` counts the states, the
last edges, that a chain search from p reaches, edges with no completion
included; a second pass, in increasing rank, counts them.  The stream
(``enumerate``) walks the DP's live edges depth-first and enters only
states with a completion of at least ``min_vertices`` vertices, so every
state it enters lies on an emitted polygon and its cost follows the
output.  The plain chain DFS that the DP replaced is kept in the tests as
the oracle both are checked against.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterator, NamedTuple, Optional

from .core import E1, E2, InvariantError, Sublattice, Vec, steps
from .polygon import Polygon, lattice_points_in, polygon_free_of
from .reduction import TypeTag, satisfies_type
from .slopes import (
    CheckReport,
    Frame,
    check_projection_bound,
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


class _Grid(NamedTuple):
    """A box's points in (x2, x1) scan order, each also as the integer id
    x1 * stride + x2, and the direction rank of every nonzero difference
    of ids: ``rank[off + id(q) - id(p)]``.  The stride is more than twice
    the largest difference in x2, so a difference of ids fixes the
    difference of points.  Ranks sort the primitive directions of the
    box's differences by angle on [0, 2*pi): ranks 0 to upper - 1 are the
    directions in [0, pi), and the reverse of rank r < upper is r + upper.
    """

    cand: list  # the candidates (x1, x2), off the lattice
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
            if lattice.contains(Vec(x, y)):
                lat.append(x * stride + y)
            else:
                cand.append((x, y))
                ids.append(x * stride + y)
                lat_before.append(len(lat))
    return _Grid(cand, ids, lat, lat_before, rank, off, upper)


def _fan_edges(grid: _Grid, i0: int) -> tuple:
    """The free edges for the polygons whose (x2, x1)-lowest vertex is the
    start p = cand[i0].

    The vertices are the later candidates in scan order, tail[k] as k, and
    p as m = len(tail).  An edge u -> v is free when its fan triangle
    (p, u, v) holds no lattice point, on its boundary included; when p, u
    and v lie on one line, when a lattice point lies anywhere on that
    line.  An edge from p is free when its segment is.  Each unordered
    pair is tested once, and both its edges are free or neither is.
    Returns (rp, by_rank): rp[k] is the rank of tail[k] - p, and
    by_rank[s] = (us, vs) lists the free edges us[i] -> vs[i] of rank s.
    """
    rank, off, upper = grid.rank, grid.off, grid.upper
    pid = grid.ids[i0]
    tids = grid.ids[i0 + 1 :]
    m = len(tids)
    base = off - pid
    rp = [rank[base + t] for t in tids]
    # The lattice points in p's upper set are the only ones a fan triangle
    # can hold.  Ids grow linearly along a ray, so |id - pid| orders each
    # ray from p outwards.
    upper_lat = grid.lat[grid.lat_before[i0] :]
    nearest: dict = {}
    for lid in upper_lat:
        r = rank[base + lid]
        nearest[r] = min(abs(lid - pid), nearest.get(r, math.inf))
    # the lines through p that hold a lattice point, below p included
    lines = {rank[base + lid] % upper for lid in grid.lat}
    # A point behind a lattice point on its ray from p lies on no free
    # edge: every fan triangle at it covers that segment.  The others,
    # grouped by ray and ordered outwards.
    rays: dict = {}
    for k in sorted(range(m), key=lambda k: abs(tids[k] - pid)):
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

    us: list = [[] for _ in range(2 * upper)]
    vs: list = [[] for _ in range(2 * upper)]
    for r in order:
        for b in rays[r]:
            us[r].append(m)
            vs[r].append(b)
    for gi, r in enumerate(order):
        ray = rays[r]
        line_free = r not in lines
        last = r + upper - 1
        for i, u in enumerate(ray):
            b0 = off - tids[u]
            if line_free:
                # v beyond u on the ray: u -> v has rank r, v -> u r + upper
                for v in ray[i + 1 :]:
                    us[r].append(u)
                    vs[r].append(v)
                    us[r + upper].append(v)
                    vs[r + upper].append(u)
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
                        o = s + upper if s < upper else s - upper
                        us[s].append(u)
                        vs[s].append(v)
                        us[o].append(v)
                        vs[o].append(u)
    return rp, list(zip(us, vs))


def _fan_dp(grid: _Grid, i0: int) -> tuple:
    """The fan DP for the start p = cand[i0], over the free edges of
    ``_fan_edges``.  Returns (tail, out, count, edges):

    - ``out[x]``: the live edges from vertex x (p when x is m), those that
      complete to a polygon, in decreasing rank, each as (k, longest,
      lo, hi): its head tail[k], the most vertices a completion adds, and
      the window out[k][lo:hi] of live edges that may follow it;
    - ``count``: the number of polygons from p;
    - ``edges``: ``_fan_edges``'s (rp, by_rank).

    An edge u -> v of rank s continues with the edges from v of rank in
    (s, s + upper) when s < upper, and in (s, 2 * upper) otherwise.  That
    is the strict left turn plus no edge back in the upper half-plane once
    one has left it.  The chain closes at p by the same rule: the closing
    edge v -> p has rank rp[v] + upper.  The turn at p needs no test: the
    edge angles rise within [0, 2*pi), so the turn from the closing edge
    back to the first is positive.  Edges are solved
    in decreasing rank, one equal-rank group at a time, so each window is
    a suffix of out[v] when it is read.
    """
    rp, by_rank = edges = _fan_edges(grid, i0)
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
        us, vs = by_rank[s]
        if not us:
            continue
        live = []
        if s < upper:
            cut = -s - upper
            for u, v in zip(us, vs):
                nr = negr[v]
                lo, hi = bisect_right(nr, cut), len(nr)
                c = cum[v]
                count = c[hi] - c[lo] + (rp[v] < s)
                if count:
                    longest = sval[v][bisect_left(spos[v], lo)] + 1 if lo < hi else 0
                    live.append((u, v, count, longest, lo, hi))
        else:
            close = s - upper
            for u, v in zip(us, vs):
                hi = len(negr[v])
                count = cum[v][hi] + (rp[v] > close)
                if count:
                    live.append((u, v, count, sval[v][0] + 1 if hi else 0, 0, hi))
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
    return grid.cand[i0 + 1 :], out, cum[m][-1], edges


def _states(edges: tuple, upper: int) -> int:
    """How many states (last edges) the chain search from p reaches: the
    free first edges, then every free edge that may follow a reached one.
    One pass in increasing rank keeps, per vertex, the largest rank below
    ``upper`` of a reached edge into it and whether one of rank ``upper``
    or more has arrived.  Edges that cannot complete to a polygon count
    too, among them those with p, u and v on one line."""
    rp, by_rank = edges
    m = len(rp)
    top = [-upper] * m + [upper]  # no edge yet, and p reaches its first edges
    down = [False] * (m + 1)
    reached = 0
    for s, (us, vs) in enumerate(by_rank):
        if not us:
            continue
        low = s - upper
        hit = [v for u, v in zip(us, vs) if top[u] > low or down[u]]
        reached += len(hit)
        if s < upper:
            for v in hit:
                top[v] = s
        else:
            for v in hit:
                down[v] = True
    return reached


def enumerate_free_polygons(
    lattice: Sublattice, box: SearchBox, min_vertices: int = 3
) -> Iterator[Polygon]:
    """Every strictly convex polygon with at least min_vertices vertices,
    vertices in the box but not on the lattice, and no lattice point
    inside or on it.  Deterministic order: by lowest vertex, then
    depth-first over the chain's vertices in scan order, each chain
    before its extensions."""
    min_v = max(3, min_vertices)
    grid = _prepare(lattice, box)

    def walk(x: int, lo: int, hi: int) -> Iterator[Polygon]:
        # The chain ends at vertex x and out[x][lo:hi] are its live
        # successors, taken in scan order.  Only states with a completion
        # of min_v or more vertices are entered.  Such a chain closes
        # itself once it has three vertices: its polygon keeps some
        # vertices of a free convex polygon in their cyclic order, so it
        # is convex and free too, and it is emitted at min_v vertices.
        key = (x, lo, hi)
        succ = windows.get(key)
        if succ is None:
            succ = windows[key] = sorted(out[x][lo:hi])
        for b, longest, blo, bhi in succ:
            if len(chain) + 1 + longest >= min_v:
                chain.append(tail[b])
                if len(chain) >= min_v:
                    yield Polygon(chain)
                yield from walk(b, blo, bhi)
                chain.pop()

    for i0 in range(len(grid.cand)):
        tail, out, _, _ = _fan_dp(grid, i0)
        windows: dict = {}
        chain = [grid.cand[i0]]
        yield from walk(len(tail), 0, len(out[-1]))


def _longest(grid: _Grid, i0: int) -> tuple:
    """(chain, count, DP states) for the start cand[i0], where the chain is
    the lexicographically smallest longest polygon, () when no polygon
    starts there."""
    tail, out, count, edges = _fan_dp(grid, i0)
    # from p and then from each state take, among the successors with the
    # longest completion, the smallest as (x1, x2); scan order is (x2, x1),
    # so the first of them is not always the smallest
    x, lo, hi = len(tail), 0, len(out[-1])
    chain = [grid.cand[i0]] if hi else []
    while lo < hi:
        x, _, lo, hi = min(out[x][lo:hi], key=lambda e: (-e[1], tail[e[0]]))
        chain.append(tail[x])
    return tuple(chain), count, _states(edges, grid.upper)


@dataclass(frozen=True)
class VerificationReport:
    lattice: Sublattice
    box: SearchBox
    max_vertices_found: int
    witness: Optional[Polygon]
    nu: int
    consistent: bool
    instances_checked: int
    chains_explored: int  # fan-DP states a chain search reaches, summed over the starts
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
    grid = _prepare(lattice, box)
    best: tuple = ()  # the longest chain, the smallest one on ties
    found = states = 0
    for i0 in range(len(grid.cand)):
        chain, count, solved = _longest(grid, i0)
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
    frames = {
        1: Frame(Vec(n, 0), -E1, E2),
        2: Frame(Vec(n, n), -E1, -E2),
        3: Frame(Vec(0, n), E1, -E2),
        4: Frame(Vec(0, 0), E1, E2),
    }
    ms = maximal_slopes(poly)
    profs = {k: frame_splits_maximal(ms, frame) for k, frame in frames.items()}
    # A profile needs both rays of its frame to split the polygon.  The
    # eight corner rays are the four sides of the n-square, each run from
    # both of its ends, and a side splits the polygon exactly when both of
    # its rays do: the chord then starts at or after one end and stops at
    # or before the other.  So four profiles put the polygon in type II
    # position, and the clause is asked only when some frame fails.
    if any(prof is None for prof in profs.values()) and not satisfies_type(
        poly, TypeTag("II", n)
    ):
        raise ValueError("polygon is not in type II position")
    # the one membership check: the step and sublattice projection clauses
    # below are read here rather than through check_step_bounds and
    # check_sublattice_projection_bound, which would check it again
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
        if b == 0:
            check, ok = "projection_bound", check_projection_bound(prof).ok
        else:
            # the clause of check_sublattice_projection_bound; a lattice
            # with b >= 1 is proper
            check, ok = "sublattice_projection_bound", 2 * prof.n_edges <= v.x2 + w.x1 - 1
        if not ok:
            failures.append(f"slope_check_{k}")
        slope_rows.append({"k": k, "edges": prof.n_edges, "bound": bound, "check": check})
    details["slopes"] = slope_rows

    m_vals = (ms.m1, ms.m2, ms.m3, ms.m4)
    stats = ms.stats
    gaps = (
        stats.south_plus - stats.south_minus,
        stats.east_plus - stats.east_minus,
        stats.north_plus - stats.north_minus,
        stats.west_plus - stats.west_minus,
    )
    # the clause of check_step_bounds: a nondegenerate face spans a large step
    large = (st.large_f1, st.large_f2, st.large_f1, st.large_f2)
    if any(gap < step * m for gap, step, m in zip(gaps, large, m_vals)):
        failures.append("step_bounds")
    beta = (b * b - b + 2) // 2  # 1 for b in {0, 1}, 2 for b=2
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
    return _pipeline_report(details, failures, poly, vertex_lattice)


def _pipeline_report(
    details: dict, failures: list[str], poly: Polygon, vertex_lattice: Sublattice
) -> CheckReport:
    context = {"polygon": poly.to_obj(), "lattice": vertex_lattice.to_obj()} if failures else None
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
        "pentagon_parity", details, failures, {"polygon": poly.to_obj()} if failures else None
    )


def contains_even_ordinate_point(poly: Polygon) -> bool:
    """True iff some integer point of the polygon has an even x2 coordinate."""
    return any(p.x2 % 2 == 0 for p in lattice_points_in(poly))
