import collections
import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.core import Mat2, Sublattice, Vec
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
    check_pentagon_parity,
    check_type_vertex_bound,
    construct_extremal,
    contains_even_ordinate_point,
    critical_vertex_count,
    default_box,
    enumerate_free_polygons,
    type_ii_bound_pipeline,
    verify_vertex_threshold,
)

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
    """(lattice, box, every chain of the DFS oracle, how many states it
    visits)."""
    lattice, box = request.param
    box = box or default_box(lattice)
    states: set = set()
    chains = list(dfs_chains(lattice, box, states))
    return lattice, box, chains, len(states)


def _as_polygon(chain: tuple) -> tuple:
    # Polygon's vertex order: the same cycle from its smallest vertex
    i = chain.index(min(chain))
    return chain[i:] + chain[:i]


def _dfs_facts(chains: list, states: int) -> tuple:
    # max, count, witness and states as the DFS oracle finds them
    best = min(chains, key=lambda c: (-len(c), c), default=None)
    witness = None if best is None else Polygon(best)
    return (0 if best is None else len(best), len(chains), witness, states)


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

    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_lattices_match_dfs(self, case):
        lattice, box, k = case
        states: set = set()
        chains = list(dfs_chains(lattice, box, states))
        assert _report_facts(verify_vertex_threshold(lattice, box)) == _dfs_facts(chains, len(states))
        got = [p.vertices for p in enumerate_free_polygons(lattice, box, k)]
        assert got == [_as_polygon(c) for c in chains if len(c) >= k]

    def test_settles_4_4_on_the_slab_box(self):
        # out of the DFS's reach: the first n = 4 slab-box answer
        lattice = Sublattice.rectangular(4, 4)
        rep = verify_vertex_threshold(lattice)
        assert rep.box == SearchBox(-3, 7, -3, 7)
        assert rep.max_vertices_found == 10 == rep.nu - 1
        assert rep.instances_checked == 7_181_187
        assert rep.chains_explored == 184_999  # DP states over the 117 starts
        assert rep.consistent
        assert len(rep.witness) == 10 and polygon_free_of(rep.witness, lattice)

    @pytest.mark.slow
    def test_settles_5_5_on_the_slab_box(self):
        lattice = Sublattice.rectangular(5, 5)
        rep = verify_vertex_threshold(lattice)
        assert rep.box == SearchBox(-4, 9, -4, 9)
        assert rep.max_vertices_found == 12 == rep.nu - 1
        assert rep.instances_checked == 327_816_568
        assert rep.chains_explored == 844_056  # DP states over the 192 starts
        assert rep.consistent
        assert len(rep.witness) == 12 and polygon_free_of(rep.witness, lattice)


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
        held = Polygon([Vec(-1, 2), Vec(1, -1), Vec(5, 1), Vec(3, 3), Vec(1, 4)])
        assert not type_ii_bound_pipeline(held, 3, Sublattice.zsquare()).ok
        assert calls == ["Polygon"]

    def test_failed_corner_frames_end_the_pipeline(self):
        # type II position, but (3, 0), (3, 3) and (0, 3) lie in the polygon,
        # so three corner frames split nothing and no slope profile exists
        poly = Polygon([Vec(-1, 2), Vec(1, -1), Vec(5, 1), Vec(3, 3), Vec(1, 4)])
        rep = type_ii_bound_pipeline(poly, 3, Sublattice.zsquare())
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
                outcome = dataclasses.asdict(type_ii_bound_pipeline(poly, n, lattice))
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


class TestPentagonParity:
    def test_documented_pentagon(self):
        poly = Polygon([Vec(0, 0), Vec(2, 0), Vec(3, 1), Vec(2, 3), Vec(0, 2)])
        rep = check_pentagon_parity(poly)
        assert rep.ok
        (p1, p2), (q1, q2) = rep.details["pair"]
        assert (p1 - q1) % 2 == 0 and (p2 - q2) % 2 == 0
        assert rep.details["segment_points"] >= 3

    def test_small_pentagon(self):
        poly = Polygon([Vec(0, 0), Vec(1, 0), Vec(2, 1), Vec(1, 2), Vec(0, 1)])
        assert check_pentagon_parity(poly).ok

    def test_random_pentagons(self):
        rng = random.Random(83)
        done = 0
        while done < 100:
            pts = {Vec(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(5)}
            try:
                poly = convex_hull(pts)
            except DegenerateHullError:
                continue
            if len(poly) != 5:
                continue
            done += 1
            assert check_pentagon_parity(poly).ok

    def test_rejects_non_pentagon(self):
        with pytest.raises(ValueError):
            check_pentagon_parity(DIAMOND)


class TestEvenOrdinate:
    def test_diamond(self):
        assert contains_even_ordinate_point(DIAMOND)

    def test_random_polygons(self):
        rng = random.Random(89)
        for _ in range(100):
            from conftest import random_convex_polygon

            assert contains_even_ordinate_point(random_convex_polygon(rng))

    def test_whole_corpus(self, corpus_n2):
        assert all(contains_even_ordinate_point(poly) for poly in corpus_n2)


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
