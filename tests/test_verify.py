import collections
import functools
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.cli import run
from latfree.core import InvariantError, Mat2, Sublattice, Vec
from latfree.polygon import (
    DegenerateHullError,
    Polygon,
    convex_hull,
    lattice_points_in,
    polygon_free_of,
)
from latfree.reduction import TypeTag, classify_type, satisfies_type
from latfree.slopes import Slope
from latfree.verify import (
    SearchBox,
    check_type_vertex_bound,
    construct_extremal,
    critical_vertex_count,
    default_box,
    enumerate_free_polygons,
    type_ii_bound_pipeline,
    verify_vertex_threshold,
)

from latfree import verify
from conftest import count_calls, dfs_chains

DIAMOND = Polygon([Vec(1, 0), Vec(2, 1), Vec(1, 2), Vec(0, 1)])
QUAD = Polygon([Vec(1, -1), Vec(4, 1), Vec(2, 4), Vec(-1, 2)])


class TestCriticalVertexCount:
    @pytest.mark.parametrize(
        "delta,n,expected", [(1, 2, 3), (2, 2, 5), (3, 3, 9), (1, 3, 5), (2, 4, 9), (6, 6, 15)]
    )
    def test_values(self, delta, n, expected):
        assert critical_vertex_count(delta, n) == expected

    @pytest.mark.parametrize("delta,n", [(1, 1), (2, 3), (0, 2), (3, -3)])
    def test_invalid_pairs(self, delta, n):
        with pytest.raises(ValueError):
            critical_vertex_count(delta, n)


class TestConstructExtremal:
    def test_octagon(self):
        poly = construct_extremal(3, 3)
        assert poly == Polygon(
            [Vec(1, 0), Vec(2, 0), Vec(4, 1), Vec(4, 2), Vec(2, 3), Vec(1, 3), Vec(-1, 2), Vec(-1, 1)]
        )

    # delta = 1 (shifted bulge), delta = 2 (capped rows) and delta >= 3,
    # pinned vertex by vertex
    @pytest.mark.parametrize(
        "delta,n,verts",
        [
            (2, 4, [(-3, 2), (-2, 1), (1, 0), (5, 1), (6, 2), (5, 3), (1, 4), (-2, 3)]),
            (1, 4, [(0, 2), (1, 1), (2, 1), (3, 2), (2, 3), (1, 3)]),
            (1, 5, [(-1, 2), (1, 1), (2, 1), (4, 2), (4, 3), (2, 4), (1, 4), (-1, 3)]),
            (
                4,
                4,
                [(-3, 2), (-2, 1), (1, 0), (2, 0), (5, 1), (6, 2), (5, 3), (2, 4), (1, 4), (-2, 3)],
            ),
        ],
    )
    def test_pinned_vertices(self, delta, n, verts):
        assert construct_extremal(delta, n).vertices == tuple(Vec(*v) for v in verts)

    def test_doubled_lattice(self):
        poly = construct_extremal(2, 2)
        assert len(poly) == 4
        assert polygon_free_of(poly, Sublattice.rectangular(2, 2))

    def test_one_three(self):
        poly = construct_extremal(1, 3)
        assert len(poly) == 4
        assert polygon_free_of(poly, Sublattice.rectangular(1, 3))

    def test_no_triangle_case(self):
        with pytest.raises(ValueError, match="no extremal polygon"):
            construct_extremal(1, 2)

    def test_all_small_pairs(self):
        for n in range(2, 7):
            for delta in range(1, n + 1):
                if n % delta != 0:
                    continue
                nu = critical_vertex_count(delta, n)
                if nu <= 3:
                    continue
                poly = construct_extremal(delta, n)
                assert len(poly) == nu - 1
                assert polygon_free_of(poly, Sublattice.rectangular(delta, n))


class TestEnumerate:
    def test_includes_diamond(self):
        found = list(
            enumerate_free_polygons(Sublattice.rectangular(2, 2), SearchBox(0, 2, 0, 2), 4)
        )
        assert found == [DIAMOND]

    def test_no_free_pentagon(self):
        found = list(
            enumerate_free_polygons(Sublattice.rectangular(2, 2), SearchBox(-1, 3, -1, 3), 5)
        )
        assert found == []

    def test_even_ordinate_lattice_blocks_everything(self):
        found = list(
            enumerate_free_polygons(Sublattice.rectangular(1, 2), SearchBox(0, 4, 0, 4), 3)
        )
        assert found == []

    def test_stream_matches_brute_force(self):
        # oracle: check all <=5 point subsets in convex position over a tiny box
        lattice = Sublattice.rectangular(2, 2)
        box = SearchBox(0, 2, 0, 2)
        pts = [
            Vec(x, y)
            for x in range(box.x1_min, box.x1_max + 1)
            for y in range(box.x2_min, box.x2_max + 1)
            if not lattice.contains(Vec(x, y))
        ]
        brute = set()
        for r in (3, 4, 5):
            for sub in itertools.combinations(pts, r):
                try:
                    hull = convex_hull(sub)
                except DegenerateHullError:
                    continue
                if len(hull) != r or set(hull.vertices) != set(sub):
                    continue
                if polygon_free_of(hull, lattice):
                    brute.add(hull)
        got = set(enumerate_free_polygons(lattice, box, 3))
        assert got == brute

    def test_walk_enters_no_leaf_state(self, monkeypatch):
        # The walk sorts the successor window of a state the first time it
        # enters it; the DP's own sorts take a range or a dict.
        windows = []

        def recording_sorted(items, **kwargs):
            if isinstance(items, list):
                windows.append(items)
            return sorted(items, **kwargs)

        monkeypatch.setattr(verify, "sorted", recording_sorted, raising=False)
        lattice, box = Sublattice.rectangular(3, 3), SearchBox(-2, 5, -1, 4)
        assert sum(1 for _ in enumerate_free_polygons(lattice, box)) == 39712
        assert windows and all(windows)

    @pytest.mark.parametrize(
        "offsets, min_vertices, fault",
        [
            pytest.param([(1, 0), (2, 0), (2, 1)], 4, "turn strictly left", id="collinear"),
            pytest.param([(2, 0), (1, -1), (2, 1)], 4, "turn strictly left", id="right-turn"),
            pytest.param(
                [(4, 0), (4, 4), (2, 1)], 4, "turn strictly left when closed", id="closing-at-last"
            ),
            pytest.param(
                [(2, 0), (2, 2), (-2, 2), (-2, 0)], 5, "turn strictly left when closed",
                id="closing-at-start",
            ),
            # pentagram order: every turn is left but the cycle winds twice
            pytest.param(
                [(8, 4), (0, 4), (8, 0), (4, 6)], 5, "wind once when closed", id="double-winding"
            ),
        ],
    )
    def test_walk_checks_each_chain(
        self, monkeypatch, tmp_path, capsys, offsets, min_vertices, fault
    ):
        # a hand-made DP result: one chain from the first start p through
        # p + offsets, every vertex on its longest completion, and no
        # polygon from the other starts; each chain fails one check only,
        # and no shorter chain is emitted first
        lattice, box = Sublattice.rectangular(2, 2), SearchBox(0, 2, 0, 2)
        p = verify._prepare(lattice, box).cand[0]
        tail = [p + Vec(*d) for d in offsets]
        m = len(tail)
        # out[k] holds the edge tail[k] -> tail[k + 1], out[m] the edge p -> tail[0]
        out = [[(k + 1, m - 2 - k, 0, int(k < m - 2))] for k in range(m - 1)]
        out += [[], [(0, m - 1, 0, 1)]]
        monkeypatch.setattr(
            verify, "_fan_dp", lambda grid, i0: (tail, out, 1, m) if i0 == 0 else ([], [[]], 0, 0)
        )
        with pytest.raises(InvariantError, match=f"^fan DP chain .* {fault}$"):
            list(enumerate_free_polygons(lattice, box, min_vertices))
        # the command line reports it as a fault of the computation
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps({"delta": 2, "n": 2}))
        argv = ["enumerate", "--lattice", str(lat), "--box", "0,2,0,2"]
        assert run(argv + ["--min-vertices", str(min_vertices)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fan DP chain ") and err.count("\n") == 1

    def test_every_emitted_polygon_is_free(self):
        lattice = Sublattice.rectangular(2, 2)
        for poly in enumerate_free_polygons(lattice, SearchBox(-1, 3, -1, 3), 3):
            assert polygon_free_of(poly, lattice)
            assert all(not lattice.contains(v) for v in poly.vertices)


class TestVerify:
    def test_doubled_lattice_box(self):
        rep = verify_vertex_threshold(Sublattice.rectangular(2, 2), SearchBox(-1, 3, -1, 3))
        assert rep.max_vertices_found == 4
        assert rep.nu == 5
        assert rep.consistent
        assert rep.witness is not None and len(rep.witness) == 4
        assert polygon_free_of(rep.witness, Sublattice.rectangular(2, 2))

    def test_even_ordinate_lattice(self):
        rep = verify_vertex_threshold(Sublattice.rectangular(1, 2), SearchBox(0, 4, 0, 4))
        assert rep.max_vertices_found == 0
        assert rep.nu == 3
        assert rep.consistent
        assert rep.witness is None

    def test_requires_proper_lattice(self):
        with pytest.raises(ValueError):
            verify_vertex_threshold(Sublattice.zsquare(), SearchBox(0, 2, 0, 2))

    def test_row_tripled_lattice_hits_extremal_bound(self):
        # the box contains the extremal quadrilateral, so the maximum is
        # exactly nu - 1
        rep = verify_vertex_threshold(Sublattice.rectangular(1, 3), SearchBox(-2, 5, -2, 5))
        assert rep.nu == 5
        assert rep.max_vertices_found == 4
        assert rep.consistent

    def test_report_json(self):
        rep = verify_vertex_threshold(Sublattice.rectangular(2, 2), SearchBox(0, 2, 0, 2))
        obj = rep.to_obj()
        assert obj["lattice"] == {"delta": 2, "n": 2}
        assert obj["box"] == [0, 2, 0, 2]
        assert obj["consistent"] is True


# boxes where the DFS answers within seconds; the (2, 2) default box is
# -1,3,-1,3
DFS_BOXES = {
    "2,2": (Sublattice.rectangular(2, 2), None),
    "1,3": (Sublattice.rectangular(1, 3), None),
    "3,3-box": (Sublattice.rectangular(3, 3), SearchBox(-2, 5, -1, 4)),
    "2,4-box": (Sublattice.rectangular(2, 4), SearchBox(0, 4, 0, 4)),
    "4,4-box": (Sublattice.rectangular(4, 4), SearchBox(0, 4, 0, 4)),
    "1,2-box": (Sublattice.rectangular(1, 2), SearchBox(0, 4, 0, 4)),
    # non-rectangular: x2 = x1 mod 3, and x1 even with x2 = x1 mod 4
    "sheared-1,3": (Sublattice.from_matrix(Mat2(1, 0, 1, 3)), None),
    "sheared-2,4": (Sublattice.from_matrix(Mat2(2, 0, 2, 4)), SearchBox(-1, 4, -1, 4)),
    # x1 + x2 = 0 mod 3, and x2 = 3 x1 mod 5: tied witness vertices that
    # lie on a line of negative slope come in the opposite order in the
    # (x2, x1) scan, at the first vertex in the first box and at a later
    # one in the second
    "neg-1,3-box": (Sublattice.from_matrix(Mat2(1, 0, 2, 3)), SearchBox(0, 2, 0, 3)),
    "neg-1,5-box": (Sublattice.from_matrix(Mat2(1, 0, 3, 5)), SearchBox(0, 4, 0, 6)),
}


@pytest.fixture(scope="class", params=list(DFS_BOXES.values()), ids=list(DFS_BOXES))
def dfs_box(request):
    """(lattice, box, every chain of the DFS oracle, the states it
    visits)."""
    lattice, box = request.param
    box = box or default_box(lattice)
    states: set = set()
    chains = list(dfs_chains(lattice, box, states))
    return lattice, box, chains, states


def _as_polygon(chain: tuple) -> tuple:
    # Polygon's vertex order: the same cycle from its smallest vertex
    i = chain.index(min(chain))
    return chain[i:] + chain[:i]


def _dfs_facts(chains: list, states: set) -> tuple:
    # max, count, witness and states as the DFS oracle finds them; the
    # states counted are those (p, u, v) whose last edge starts at p or
    # turns left around p, the edges a polygon from p can use
    best = min(chains, key=lambda c: (-len(c), c), default=None)
    witness = None if best is None else Polygon(best)
    solved = sum(
        1
        for (px, py), (ux, uy), (vx, vy) in states
        if (ux, uy) == (px, py) or (ux - px) * (vy - py) - (uy - py) * (vx - px) > 0
    )
    return (0 if best is None else len(best), len(chains), witness, solved)


def _report_facts(rep) -> tuple:
    return rep.max_vertices_found, rep.instances_checked, rep.witness, rep.chains_explored


def _hnf_lattices(max_n: int) -> list:
    # every lattice with invariant factors (delta, n), n <= max_n, once: the
    # Hermite normal forms with columns (a, b) and (0, c), 0 <= b < c
    found = []
    for det in range(2, max_n * max_n + 1):
        for a in range(1, det + 1):
            if det % a == 0:
                c = det // a
                found += [Sublattice.from_matrix(Mat2(a, 0, b, c)) for b in range(c)]
    return [lat for lat in found if lat.n <= max_n]


HNF_LATTICES = _hnf_lattices(4)


@st.composite
def oracle_cases(draw):
    """A lattice with factors (delta, n), n <= 4, a box of up to 5x5
    points, and a minimum vertex count for the stream."""
    lattice = draw(st.sampled_from(HNF_LATTICES))
    x1, x2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return lattice, SearchBox(x1, x1 + w - 1, x2, x2 + h - 1), draw(st.integers(3, 6))


def _direction_ranks(box: SearchBox) -> dict:
    # every primitive difference of two box points, numbered by angle on
    # [0, 2*pi): first the upper half-plane, then by cross products
    w, h = box.x1_max - box.x1_min, box.x2_max - box.x2_min
    dirs = [
        (dx, dy)
        for dx in range(-w, w + 1)
        for dy in range(-h, h + 1)
        if math.gcd(dx, dy) == 1
    ]

    def half(d):
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    def before(a, b):
        return half(a) - half(b) or a[1] * b[0] - a[0] * b[1]

    dirs.sort(key=functools.cmp_to_key(before))
    return {d: r for r, d in enumerate(dirs)}


def _check_free_edges(lattice: Sublattice, box: SearchBox) -> None:
    """``_fan_edges`` against brute force, from every start p: the edges
    p -> b whose segment holds no lattice point, and the edges u -> v that
    turn left around p and whose closed fan triangle (p, u, v) holds
    none, each listed once at the rank of its direction.  ``_fan_dp``
    solves exactly these edges."""
    ranks = _direction_ranks(box)
    cand, lpts = [], []
    for y in range(box.x2_min, box.x2_max + 1):
        for x in range(box.x1_min, box.x1_max + 1):
            (lpts if lattice.contains(Vec(x, y)) else cand).append((x, y))
    grid = verify._prepare(lattice, box)
    assert grid.cand == cand

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def rank(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        return ranks[dx // g, dy // g]

    def segment_free(a, b):
        return not any(
            cross(a, b, l) == 0 and min(a, b) <= l <= max(a, b) for l in lpts
        )

    def triangle_free(p, u, v):
        # (p, u, v) is counter-clockwise
        return not any(
            cross(p, u, l) >= 0 and cross(u, v, l) >= 0 and cross(v, p, l) >= 0 for l in lpts
        )

    for i0, p in enumerate(cand):
        tail = cand[i0 + 1 :]
        m = len(tail)
        want = {(rank(p, b), m, k) for k, b in enumerate(tail) if segment_free(p, b)}
        want |= {
            (rank(tail[u], tail[v]), u, v)
            for u, v in itertools.permutations(range(m), 2)
            if cross(p, tail[u], tail[v]) > 0 and triangle_free(p, tail[u], tail[v])
        }
        _, by_rank = verify._fan_edges(grid, i0)
        got = collections.Counter((s, u, v) for s, edges in enumerate(by_rank) for u, v in edges)
        assert set(got) == want and set(got.values()) <= {1}, p
        # each rank lists its first edges (m, b) before the other pairs,
        # with their heads outwards from p
        for edges in by_rank:
            heads = [b for _, b in itertools.takewhile(lambda e: e[0] == m, edges)]
            assert all(u != m for u, _ in edges[len(heads) :]), p
            dist = [(tail[b][0] - p[0]) ** 2 + (tail[b][1] - p[1]) ** 2 for b in heads]
            assert dist == sorted(set(dist)), p
        assert verify._fan_dp(grid, i0)[3] == len(want)


class TestFanDP:
    def test_matches_dfs(self, dfs_box):
        # max, count, witness and states; the witness is the longest
        # chain, the lexicographically smallest on ties
        lattice, box, chains, states = dfs_box
        assert _report_facts(verify_vertex_threshold(lattice, box)) == _dfs_facts(chains, states)

    def test_enumerate_matches_dfs_order(self, dfs_box):
        # min_vertices only gates what the DFS yields, so filtering its
        # stream by length gives the stream for every k
        lattice, box, chains, _ = dfs_box
        nu = critical_vertex_count(lattice.delta, lattice.n)
        for k in range(3, nu + 1):
            got = [p.vertices for p in enumerate_free_polygons(lattice, box, k)]
            assert got == [_as_polygon(c) for c in chains if len(c) >= k], k
            # the walk's polygons hold the Vec and int objects Polygon makes
            assert all(type(v) is Vec and all(type(c) is int for c in v) for vs in got for v in vs)

    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_lattices_match_dfs(self, case):
        lattice, box, k = case
        states: set = set()
        chains = list(dfs_chains(lattice, box, states))
        assert _report_facts(verify_vertex_threshold(lattice, box)) == _dfs_facts(chains, states)
        got = [p.vertices for p in enumerate_free_polygons(lattice, box, k)]
        assert got == [_as_polygon(c) for c in chains if len(c) >= k]

    def test_free_edges_match_oracle(self, dfs_box):
        lattice, box, _, _ = dfs_box
        _check_free_edges(lattice, box)

    @given(oracle_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_free_edges_match_oracle(self, case):
        lattice, box, _ = case
        _check_free_edges(lattice, box)

    def test_settles_4_4_on_the_slab_box(self):
        # out of the DFS's reach: the first n = 4 slab-box answer
        lattice = Sublattice.rectangular(4, 4)
        rep = verify_vertex_threshold(lattice)
        assert rep.box == SearchBox(-3, 7, -3, 7)
        assert rep.max_vertices_found == 10 == rep.nu - 1
        assert rep.instances_checked == 7_181_187
        assert rep.chains_explored == 123_932  # DP states over the 117 starts
        assert rep.consistent
        assert len(rep.witness) == 10 and polygon_free_of(rep.witness, lattice)

    # The (5,5) and (6,6) pins read their SETTLED.json rows, which the slow
    # test_settled_row_replays solves again and compares whole.

    def test_settles_5_5_on_the_slab_box(self):
        lattice, row = _settled_row(5, 5)
        assert SearchBox(*row["box"]) == SearchBox(-4, 9, -4, 9)
        assert row["max_vertices_found"] == 12 == row["nu"] - 1
        assert row["instances_checked"] == 327_816_568
        assert row["chains_explored"] == 563_028  # DP states over the 192 starts
        assert row["consistent"]
        witness = Polygon.from_obj(row["witness"])
        assert len(witness) == 12 and polygon_free_of(witness, lattice)

    def test_settles_6_6_on_the_slab_box(self):
        lattice, row = _settled_row(6, 6)
        assert SearchBox(*row["box"]) == SearchBox(-5, 11, -5, 11)
        assert row["max_vertices_found"] == 14 == row["nu"] - 1
        assert row["instances_checked"] == 11_317_540_633
        assert row["chains_explored"] == 1_883_780
        assert row["consistent"]
        witness = Polygon.from_obj(row["witness"])
        assert len(witness) == 14 and polygon_free_of(witness, lattice)


SETTLED = json.loads((Path(__file__).resolve().parents[1] / "SETTLED.json").read_text())


def _settled_row(delta: int, n: int) -> tuple[Sublattice, dict]:
    row = next(r for r in SETTLED["rows"] if r["lattice"] == {"delta": delta, "n": n})
    return Sublattice.from_obj(row["lattice"]), row


def test_settled_table():
    # one slab-box row per valid (delta, n) with n <= 8, and a witness that
    # checks without a search
    pairs = [(d, n) for n in range(2, 9) for d in range(1, n + 1) if n % d == 0]
    assert [(r["lattice"]["delta"], r["lattice"]["n"]) for r in SETTLED["rows"]] == pairs
    for row in SETTLED["rows"]:
        lattice = Sublattice.from_obj(row["lattice"])
        box = SearchBox(*row["box"])
        assert box == default_box(lattice)
        assert row["nu"] == critical_vertex_count(lattice.delta, lattice.n)
        assert row["consistent"] == (row["max_vertices_found"] <= row["nu"] - 1)
        w = row["witness"]
        if w is None:
            assert row["max_vertices_found"] == 0
            continue
        poly = Polygon.from_obj(w)
        assert poly.to_obj() == w
        assert len(poly) == row["max_vertices_found"]
        assert all(
            box.x1_min <= x1 <= box.x1_max and box.x2_min <= x2 <= box.x2_max
            for x1, x2 in poly.vertices
        )
        assert polygon_free_of(poly, lattice)


@pytest.mark.slow
@pytest.mark.parametrize(
    "row", SETTLED["rows"], ids=lambda row: "{delta},{n}".format(**row["lattice"])
)
def test_settled_row_replays(row):
    rep = verify_vertex_threshold(Sublattice.from_obj(row["lattice"]), SearchBox(*row["box"]))
    got, want = rep.to_obj(), dict(row)
    del got["elapsed_seconds"], want["elapsed_seconds"]
    assert got == want


class TestTypeVertexBound:
    def test_extremal_octagon(self):
        poly = construct_extremal(3, 3)
        _, tag = classify_type(poly, 3)
        rep = check_type_vertex_bound(poly, TypeTag(tag.kind, 3), Sublattice.zsquare())
        assert rep.ok and rep.details["bound"] == 8

    def test_quad(self):
        rep = check_type_vertex_bound(QUAD, TypeTag("II", 3), Sublattice.zsquare())
        assert rep.ok and rep.details == {"n": 3, "b": 0, "vertices": 4, "bound": 8}

    def test_rejects_other_lattices(self):
        with pytest.raises(ValueError):
            check_type_vertex_bound(QUAD, TypeTag("II", 3), Sublattice.rectangular(3, 3))

    def test_nonagon_over_z2_fails(self):
        # Z^2 allows 2n + 2 = 8 vertices; the tag is taken as given, so a
        # convex 9-gon fails the bound although it is in no type II position
        corner, verts = Vec(0, 0), []
        for step in [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (-2, -1), (-1, -1), (1, -2)]:
            verts.append(corner)
            corner = corner + Vec(*step)
        poly = Polygon(verts)
        assert len(poly) == 9
        rep = check_type_vertex_bound(poly, TypeTag("II", 3), Sublattice.zsquare())
        assert not rep.ok
        assert rep.counterexample["failed"] == ["vertex_bound"]
        assert rep.details == {"n": 3, "b": 0, "vertices": 9, "bound": 8}

    def test_rejects_n_below_three(self):
        with pytest.raises(ValueError, match="n >= 3"):
            check_type_vertex_bound(QUAD, TypeTag("II", 2), Sublattice.zsquare())

    def test_rejects_lattice_of_other_factors(self):
        # the vertices lie in Z x 2Z, a (1, 2)-lattice, which for odd n is
        # neither Z^2, a (1, n/2)- nor a (1, n)-lattice
        poly = Polygon([Vec(0, 0), Vec(2, 0), Vec(0, 2)])
        with pytest.raises(ValueError, match="vertex lattice must be"):
            check_type_vertex_bound(poly, TypeTag("II", 3), Sublattice.rectangular(1, 2))

    def test_failing_report(self):
        # a (1, 3)-lattice allows 2n - 2 = 4 vertices
        poly = Polygon([Vec(0, 0), Vec(1, 0), Vec(3, 3), Vec(1, 6), Vec(-2, 3)])
        rep = check_type_vertex_bound(poly, TypeTag("III", 3), Sublattice.rectangular(1, 3))
        assert rep.to_obj() == {
            "counterexample": {
                "polygon": {"vertices": [[-2, 3], [0, 0], [1, 0], [3, 3], [1, 6]]},
                "tag": "III",
                "failed": ["vertex_bound"],
                "n": 3, "b": 2, "vertices": 5, "bound": 4,
            }
        }


# passing type II instances with vertices in Z^2, a (1, 2)- and a (1, 5)-lattice
TYPE_II_CASES = [
    (QUAD, 3, Sublattice.zsquare()),
    (Polygon([Vec(-1, 3), Vec(1, -1), Vec(5, 1), Vec(3, 5)]), 4,
     Sublattice.from_matrix(Mat2(1, -2, -1, 4))),
    (Polygon([Vec(-1, 3), Vec(2, -1), Vec(6, 2), Vec(3, 6)]), 5,
     Sublattice.from_matrix(Mat2(-2, -5, 1, 0))),
]
TYPE_II_IDS = ["b0-quad", "b1", "b2"]
# in type II position for n = 3, and holding the corners (3, 0), (3, 3), (0, 3)
HELD_CORNERS = Polygon([Vec(-1, 2), Vec(1, -1), Vec(5, 1), Vec(3, 3), Vec(1, 4)])


class TestTypeIIPipeline:
    def test_documented_quad(self):
        rep = type_ii_bound_pipeline(QUAD, 3, Sublattice.zsquare())
        assert rep.ok
        assert rep.details["two_n"] == 8
        assert rep.details["sum_bounds"] == 12
        assert rep.details["final"] == 16

    def test_half_lattice_witness(self):
        # found by enumeration with vertices constrained to a (1, 2)-lattice
        poly = Polygon([Vec(-1, 3), Vec(1, -1), Vec(5, 1), Vec(3, 5)])
        lattice = Sublattice.from_matrix(Mat2(1, -2, -1, 4))
        rep = type_ii_bound_pipeline(poly, 4, lattice)
        assert rep.ok and rep.details["b"] == 1
        assert len(poly) <= 2 * 4 + 2 - 2 * 1

    def test_full_lattice_witness(self):
        # found by enumeration with vertices constrained to a (1, 5)-lattice
        poly = Polygon([Vec(-1, 3), Vec(2, -1), Vec(6, 2), Vec(3, 6)])
        lattice = Sublattice.from_matrix(Mat2(-2, -5, 1, 0))
        rep = type_ii_bound_pipeline(poly, 5, lattice)
        assert rep.ok and rep.details["b"] == 2
        assert rep.details["large_steps"] == [5, 5]
        assert len(poly) <= 2 * 5 + 2 - 2 * 2

    def test_rejects_untyped_polygon(self):
        with pytest.raises(ValueError, match="type II"):
            type_ii_bound_pipeline(DIAMOND, 3, Sublattice.zsquare())

    def test_rejects_n_below_one(self):
        # QUAD is split by x1 = 0 and x2 = 0, whose cells divide by n
        for n in (0, -1):
            with pytest.raises(ValueError, match="n >= 1"):
                type_ii_bound_pipeline(QUAD, n, Sublattice.zsquare())

    @pytest.mark.parametrize("poly, n, lattice", TYPE_II_CASES, ids=TYPE_II_IDS)
    def test_slope_facts_computed_once(self, monkeypatch, poly, n, lattice):
        slopes_calls = count_calls(monkeypatch, "maximal_slopes")
        profile_calls = count_calls(monkeypatch, "slope_profile")
        coords_calls = count_calls(monkeypatch, "_frame_coords")
        stats_calls = count_calls(monkeypatch, "bounding_stats")
        type_calls = count_calls(monkeypatch, "satisfies_type")
        assert type_ii_bound_pipeline(poly, n, lattice).ok
        assert len(slopes_calls) == 1
        assert len(profile_calls) <= 4
        assert len(coords_calls) <= 4
        # four split corner frames settle type II, so the clause is not
        # asked and the maximal slopes take the only bounding stats
        assert type_calls == []
        assert len(stats_calls) == 1

    @pytest.mark.parametrize("poly, n, lattice", TYPE_II_CASES, ids=TYPE_II_IDS)
    def test_vertex_lattice_checked_once(self, monkeypatch, poly, n, lattice):
        calls = []
        contains = Sublattice.contains

        def counting_contains(self, p):
            calls.append(p)
            return contains(self, p)

        monkeypatch.setattr(Sublattice, "contains", counting_contains)
        assert type_ii_bound_pipeline(poly, n, lattice).ok
        assert sorted(calls) == sorted(poly.vertices)

    @pytest.mark.parametrize("poly, n, lattice", TYPE_II_CASES, ids=TYPE_II_IDS)
    def test_passing_checks_serialize_nothing(self, monkeypatch, poly, n, lattice):
        # a passing report has no counterexample, so no context is built
        calls = []
        for cls in (Polygon, Slope):
            original = cls.to_obj

            def counting_to_obj(self, _original=original):
                calls.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(cls, "to_obj", counting_to_obj)
        assert type_ii_bound_pipeline(poly, n, lattice).ok
        assert check_type_vertex_bound(poly, TypeTag("II", n), lattice).ok
        assert calls == []
        # a failing report still carries the polygon
        assert not type_ii_bound_pipeline(HELD_CORNERS, 3, Sublattice.zsquare()).ok
        assert calls == ["Polygon"]

    @pytest.mark.parametrize(
        "poly, n, lattice",
        TYPE_II_CASES + [(HELD_CORNERS, 3, Sublattice.zsquare())],
        ids=TYPE_II_IDS + ["held-corners"],
    )
    def test_each_side_tested_once(self, monkeypatch, poly, n, lattice):
        # the four sides of the n-square settle type II position and the
        # corner frames' rays; no side is tested again
        side_calls = count_calls(monkeypatch, "_cell")
        type_calls = count_calls(monkeypatch, "satisfies_type")
        type_ii_bound_pipeline(poly, n, lattice)
        assert len(side_calls) == 4
        assert type_calls == []

    @pytest.mark.parametrize("poly, n, lattice", TYPE_II_CASES, ids=TYPE_II_IDS)
    def test_each_extent_read_once(self, monkeypatch, poly, n, lattice):
        # the type II clause reads the x1 and x2 extents once for its four sides
        calls = count_calls(monkeypatch, "_extent")
        assert type_ii_bound_pipeline(poly, n, lattice).ok
        assert len(calls) <= 2

    @pytest.mark.parametrize("poly, n, lattice", TYPE_II_CASES, ids=TYPE_II_IDS)
    def test_corner_frames_negate_no_vector(self, monkeypatch, poly, n, lattice):
        # the turned axis bases of the corner frames and the maximal slopes
        # are module constants
        calls = []
        neg = Vec.__neg__

        def counting_neg(self):
            calls.append(self)
            return neg(self)

        monkeypatch.setattr(Vec, "__neg__", counting_neg)
        assert type_ii_bound_pipeline(poly, n, lattice).ok
        assert calls == []

    def test_failed_corner_frames_end_the_pipeline(self):
        # type II position, but (3, 0), (3, 3) and (0, 3) lie in the polygon,
        # so three corner frames split nothing and no slope profile exists
        rep = type_ii_bound_pipeline(HELD_CORNERS, 3, Sublattice.zsquare())
        assert not rep.ok
        assert rep.counterexample["failed"] == ["corner_frame_1", "corner_frame_2", "corner_frame_3"]

    def test_random_polygons_follow_the_type_ii_clause(self):
        # Seeded hulls around the n-square.  Most have a vertex beyond the
        # middle of each side, plus up to two points of the closed square,
        # so both type II positions with and without a held corner occur;
        # one in ten claims the (1, n)-lattice, which most of them leave.
        rng = random.Random(12)
        digest = hashlib.sha256()
        seen = collections.Counter()
        while sum(seen.values()) < 600:
            n = rng.choice((3, 4, 5))
            if rng.random() < 0.7:
                pts = [
                    (rng.randint(1, n - 1), -rng.randint(1, 2)),
                    (n + rng.randint(1, 2), rng.randint(1, n - 1)),
                    (rng.randint(1, n - 1), n + rng.randint(1, 2)),
                    (-rng.randint(1, 2), rng.randint(1, n - 1)),
                ]
                pts += [(rng.randint(0, n), rng.randint(0, n)) for _ in range(rng.randint(0, 2))]
            else:
                pts = [(rng.randint(-2, n + 2), rng.randint(-2, n + 2)) for _ in range(rng.randint(3, 6))]
            try:
                poly = convex_hull(pts)
            except DegenerateHullError:
                continue
            lattice = Sublattice.rectangular(1, n) if rng.random() < 0.1 else Sublattice.zsquare()
            type_ii = satisfies_type(poly, TypeTag("II", n))
            try:
                outcome = type_ii_bound_pipeline(poly, n, lattice)._asdict()
            except ValueError as exc:
                outcome = str(exc)
            assert (outcome == "polygon is not in type II position") == (not type_ii)
            corner = any(poly.contains(Vec(x, y)) for x in (0, n) for y in (0, n))
            seen[type_ii, corner, isinstance(outcome, dict) and outcome["ok"]] += 1
            digest.update(json.dumps(outcome, sort_keys=True).encode())
        # every mix occurs: failing and passing reports, held corners
        assert seen[True, True, False] and seen[True, False, True]
        assert seen[True, False, False] and seen[False, True, False]
        # the reports and messages of the pipeline that asked the type II
        # clause first, on every polygon
        assert digest.hexdigest() == "6924b77cf0e9b236298886aea692c67b084a01a9b8709013785aa1f7c2105855"


# Every clause the type II pipeline appends, each fired by one misread fact:
# the pipeline passes honest input, so nothing else shows that a clause can
# fail.  A builder wraps the function the pipeline reads so that its result
# passes through a tamper.  tests/test_optimized.py requires every clause
# that verify.py appends to have a case here, an f-string by its literal
# prefix.  slope_check_k is appended only for b = 0, where the projection
# check adds its witness clauses: slope_check_1 fires when every check
# fails, slope_check_2 when only the second slope's does.
Z2 = Sublattice.zsquare()
B1_CASE, B2_CASE = TYPE_II_CASES[1], TYPE_II_CASES[2]
# type II for n = 4 with a bottom face from (1, -2) to (2, -2)
FACED = Polygon([Vec(-1, 3), Vec(1, -2), Vec(2, -2), Vec(5, 2), Vec(2, 5)])


def _tampered(monkeypatch, name, tamper, poly, n, lattice):
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: tamper(real(*args)))
    return type_ii_bound_pipeline(poly, n, lattice)


def _extra_edge(prof):
    # one more edge, with the same endpoints
    return prof._replace(coords=prof.coords[:1] + prof.coords)


def _second_fails():
    # fail the second report passed through, and pass the others as they are
    calls = itertools.count(1)
    return lambda rep: rep._replace(ok=False) if next(calls) == 2 else rep


def _shifted_end(prof):
    return prof._replace(coords=prof.coords[:-1] + (prof.coords[-1] + Vec(1, 0),))


PIPELINE_CASES = {
    "slope_bound_1": lambda mp: _tampered(mp, "slope_profile", _extra_edge, QUAD, 3, Z2),
    "slope_check_1": lambda mp: _tampered(
        mp, "check_projection_bound", lambda rep: rep._replace(ok=False), QUAD, 3, Z2
    ),
    "slope_check_2": lambda mp: _tampered(
        mp, "check_projection_bound", _second_fails(), QUAD, 3, Z2
    ),
    "large_steps": lambda mp: _tampered(
        mp, "steps", lambda st: st._replace(large_f1=1), *B2_CASE
    ),
    # the bottom face is 1 wide, less than a large step of 2
    "step_bounds": lambda mp: _tampered(
        mp, "steps", lambda st: st._replace(large_f1=2), FACED, 4, Z2
    ),
    # the bottom face read as 0 wide
    "face_gap_1": lambda mp: _tampered(
        mp, "maximal_slopes",
        lambda ms: ms._replace(stats=ms.stats._replace(south_plus=ms.stats.south_minus)),
        FACED, 4, Z2,
    ),
    # the bottom face read as degenerate
    "boundary_decomposition": lambda mp: _tampered(
        mp, "maximal_slopes", lambda ms: ms._replace(faces=(0, 0, 0, 0)), FACED, 4, Z2
    ),
    # a degenerate right face read as 1 wide
    "bound_sum_identity": lambda mp: _tampered(
        mp, "maximal_slopes",
        lambda ms: ms._replace(stats=ms.stats._replace(east_plus=ms.stats.east_plus + 1)),
        QUAD, 3, Z2,
    ),
    "summed_chain": lambda mp: _tampered(mp, "slope_profile", _shifted_end, QUAD, 3, Z2),
}


@pytest.mark.parametrize("clause", list(PIPELINE_CASES))
def test_every_pipeline_clause_can_fire(monkeypatch, clause):
    rep = PIPELINE_CASES[clause](monkeypatch)
    assert not rep.ok
    assert clause in rep.counterexample["failed"]
    assert {"polygon", "lattice"} <= set(rep.counterexample)


def test_vertex_bound_is_the_summed_chain(monkeypatch):
    # the summed chain ends at 4n + 4 - 4b, so a polygon over the vertex
    # bound 2n + 2 - 2b fails it: with b read as 3 the bound is 2 for n = 3
    rep = _tampered(monkeypatch, "_b_parameter", lambda b: 3, QUAD, 3, Z2)
    assert not rep.ok
    assert "summed_chain" in rep.counterexample["failed"]


def test_sublattice_slope_bound_fails_alone(monkeypatch):
    # for b >= 1 the slope bound is the sublattice clause, so an extra edge
    # fails slope_bound_k once and no second clause repeats it
    rep = _tampered(monkeypatch, "slope_profile", _extra_edge, *B1_CASE)
    failed = rep.counterexample["failed"]
    assert rep.details["b"] == 1
    assert "slope_bound_1" in failed
    assert not [f for f in failed if f.startswith("slope_check_")]
    assert {row["check"] for row in rep.details["slopes"]} == {"sublattice_projection_bound"}


def test_count_calls_rejects_an_unbound_name(monkeypatch):
    # a count on a name that no latfree module binds would stay empty and pass
    with pytest.raises(AttributeError, match="ray_splits"):
        count_calls(monkeypatch, "ray_splits")


class TestEmptyTriangleParity:
    def test_no_empty_all_odd_triangle(self):
        # triangles with all ordinates odd have even doubled area, so none
        # of them can be empty (an empty triangle has doubled area 1)
        pts = [Vec(x, y) for x in range(0, 5) for y in range(0, 5)]
        odd = [p for p in pts if p.x2 % 2 == 1]
        for tri in itertools.combinations(odd, 3):
            a, b, c = tri
            area2 = abs((b - a).cross(c - a))
            if area2 == 0:
                continue
            assert area2 % 2 == 0
            poly = convex_hull(tri)
            assert len(lattice_points_in(poly)) > 3
