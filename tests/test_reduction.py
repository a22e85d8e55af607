import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree import reduction
from latfree.core import E2, AffineMap, InvariantError, Sublattice, Vec, primitive_to
from latfree.polygon import (
    DegenerateHullError,
    Line,
    Polygon,
    Segment,
    apply_affine,
    bounding_stats,
    chord_interval,
    convex_hull,
    lattice_points_in,
    polygon_free_of,
    segment_splits,
)
from latfree.reduction import (
    ClassificationError,
    NotLatticeFreeError,
    SplitProfile,
    TypeTag,
    check_diameter_slab_bound,
    check_split_exclusion,
    classify_type,
    lattice_diameter,
    satisfies_type,
    slab_normalize,
)

from conftest import (
    classify_oracle,
    count_calls,
    diameter_pairs_oracle,
    normalize_oracle,
    random_convex_polygon,
    random_unimodular,
)

DIAMOND = Polygon([Vec(1, 0), Vec(2, 1), Vec(1, 2), Vec(0, 1)])
QUAD = Polygon([Vec(1, -1), Vec(4, 1), Vec(2, 4), Vec(-1, 2)])
OCTAGON = Polygon(
    [Vec(1, 0), Vec(2, 0), Vec(4, 1), Vec(4, 2), Vec(2, 3), Vec(1, 3), Vec(-1, 2), Vec(-1, 1)]
)


class TestLatticeDiameter:
    def test_unit_triangle(self):
        assert lattice_diameter(Polygon([Vec(0, 0), Vec(1, 0), Vec(0, 1)])).length == 1

    def test_flat_triangle(self):
        wit = lattice_diameter(Polygon([Vec(0, 0), Vec(3, 0), Vec(0, 1)]))
        assert wit.length == 3
        assert wit.segment == Segment(Vec(0, 0), Vec(3, 0))

    def test_square(self):
        assert lattice_diameter(Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])).length == 2

    def test_witness_lies_in_polygon(self):
        rng = random.Random(31)
        for _ in range(25):
            poly = random_convex_polygon(rng, span=7)
            wit = lattice_diameter(poly)
            assert wit.length == diameter_pairs_oracle(lattice_points_in(poly))[0]
            a, b = wit.segment
            assert poly.contains(a) and poly.contains(b)
            d = b - a
            assert math.gcd(d.x1, d.x2) == wit.length

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_pruned_pass_matches_quadratic_oracle(self, points):
        # a small grid makes ties common: the witness must be the first
        # longest pair in lexicographic order, as the quadratic pass finds it
        try:
            poly = convex_hull(points)
        except DegenerateHullError:
            return
        length, pair = diameter_pairs_oracle(lattice_points_in(poly))
        assert lattice_diameter(poly) == (length, Segment(*pair))

    def test_ties_keep_the_first_pair(self):
        rng = random.Random(14)
        tied = 0
        for _ in range(300):
            poly = random_convex_polygon(rng, span=4, max_points=8)
            pts = lattice_points_in(poly)
            length, pair = diameter_pairs_oracle(pts)
            longest = sum(
                math.gcd(q.x1 - p.x1, q.x2 - p.x2) == length
                for i, p in enumerate(pts)
                for q in pts[i + 1 :]
            )
            tied += longest > 1
            assert lattice_diameter(poly) == (length, Segment(*pair))
        assert tied >= 60

    def test_invariant_under_unimodular_maps(self):
        rng = random.Random(37)
        for _ in range(25):
            poly = random_convex_polygon(rng, span=6)
            m = AffineMap(random_unimodular(rng), Vec(rng.randint(-5, 5), rng.randint(-5, 5)))
            assert lattice_diameter(apply_affine(poly, m)).length == lattice_diameter(poly).length


def assert_normalized(poly: Polygon, n: int) -> None:
    res = slab_normalize(poly, n)
    image = res.image
    lattice = Sublattice.rectangular(n, n)
    assert res.map.is_automorphism_of(lattice)
    assert apply_affine(poly, res.map) == image
    stats = bounding_stats(image)
    assert -n + 1 <= stats.west and stats.east <= 2 * n - 1
    assert 0 <= res.diameter_line_c <= n - 1
    # the image still avoids the lattice and keeps the diameter
    assert polygon_free_of(image, lattice)
    ell = lattice_diameter(poly).length
    assert lattice_diameter(image).length == ell
    # a longest lattice string sits on the line x1 = c
    chord = chord_interval(image, Line.vertical(res.diameter_line_c))
    assert chord is not None
    assert math.floor(chord[1]) - math.ceil(chord[0]) + 1 == ell + 1
    # chords on x1 = 0 and x1 = n stay within the unit-square sides
    for x1 in (0, n):
        ch = chord_interval(image, Line.vertical(x1))
        if ch is not None:
            assert 0 <= ch[0] <= ch[1] <= n


class TestSlabNormalize:
    def test_diamond_identity_slab(self):
        res = slab_normalize(DIAMOND, 2)
        assert_normalized(DIAMOND, 2)
        assert res.diameter_line_c in (0, 1)

    def test_translated_diamond(self):
        moved = Polygon([v + Vec(10, 0) for v in DIAMOND.vertices])
        assert_normalized(moved, 2)

    def test_octagon(self):
        assert_normalized(OCTAGON, 3)

    def test_rejects_non_free(self):
        square = Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])
        with pytest.raises(NotLatticeFreeError, match="not lattice-free"):
            slab_normalize(square, 2)

    def test_random_automorphic_images(self):
        rng = random.Random(41)
        lattice = Sublattice.rectangular(2, 2)
        for _ in range(40):
            m = AffineMap(
                random_unimodular(rng),
                Vec(2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3)),
            )
            image = apply_affine(DIAMOND, m)
            assert polygon_free_of(image, lattice)
            assert_normalized(image, 2)


class TestClassify:
    def test_octagon_is_type_one(self):
        mapping, tag = classify_type(OCTAGON, 3)
        assert tag == TypeTag("I", 3)
        assert satisfies_type(apply_affine(OCTAGON, mapping), tag)

    def test_diamond_is_type_one(self):
        mapping, tag = classify_type(DIAMOND, 2)
        assert tag == TypeTag("I", 2)
        assert satisfies_type(apply_affine(DIAMOND, mapping), tag)

    def test_quad_is_type_two(self):
        mapping, tag = classify_type(QUAD, 3)
        assert tag == TypeTag("II", 3)
        image = apply_affine(QUAD, mapping)
        assert satisfies_type(image, tag)
        # all four sides of the n-square split the image
        for seg in [
            Segment(Vec(0, 0), Vec(3, 0)),
            Segment(Vec(3, 0), Vec(3, 3)),
            Segment(Vec(0, 3), Vec(3, 3)),
            Segment(Vec(0, 0), Vec(0, 3)),
        ]:
            assert segment_splits(image, seg)

    def test_map_is_automorphism(self):
        rng = random.Random(43)
        lattice = Sublattice.rectangular(2, 2)
        for _ in range(30):
            m = AffineMap(
                random_unimodular(rng),
                Vec(2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3)),
            )
            image = apply_affine(DIAMOND, m)
            mapping, tag = classify_type(image, 2)
            assert mapping.is_automorphism_of(lattice)
            assert satisfies_type(apply_affine(image, mapping), tag)


# One real instance per decision-table row: (case, (i, j), n, vertices, type).
# The type IV rows come from n = 4 and n = 6 searches, B (1, 0) from an n = 4
# search, the rest from the n = 2 and n = 3 corpora.
ROW_INSTANCES = [
    ("B", (0, 0), 2, [(0, -1), (1, -1), (2, 3)], "I"),
    ("B", (1, 0), 4, [(-1, -2), (1, 3), (0, 3)], "V"),
    ("B", (0, 1), 3, [(-2, -1), (-1, -1), (0, 2)], "V"),
    ("B", (2, 0), 2, [(-1, -1), (1, -1), (2, 1)], "V"),
    ("B", (0, 2), 2, [(-1, 1), (1, 0), (-1, 3)], "V"),
    ("B", (2, 2), 3, [(-2, -1), (1, 1), (-2, 4)], "III"),
    ("B", (1, 2), 3, [(-1, -1), (5, 1), (2, 1)], "VI"),
    ("B", (2, 1), 2, [(0, 3), (1, 0), (2, 1)], "VI"),
    ("C", (0, 0), 4, [(-2, -2), (3, -1), (4, 1), (4, 2), (3, 2)], "I"),
    ("C", (2, 2), 3, [(1, -1), (4, 1), (2, 4), (-1, 2)], "II"),
    ("C", (2, 0), 3, [(-2, 2), (2, -1), (3, 4)], "III"),
    ("C", (0, 2), 3, [(0, 1), (1, -1), (4, 1), (2, 4)], "III"),
    ("C", (2, 3), 4, [(-1, 1), (3, -2), (6, 5)], "IV"),
    ("C", (1, 2), 6, [(-1, 3), (2, -5), (12, 8)], "IV"),
    ("C", (2, 1), 4, [(-3, 2), (7, 5), (8, 9)], "IV"),
    ("C", (3, 2), 6, [(-4, 1), (3, -10), (7, -2)], "IV"),
]


def _rows(case: str) -> dict:
    return reduction._CASE_B_ROWS if case == "B" else reduction._CASE_C_ROWS


def test_row_instances_cover_the_table():
    listed = [(case, ij) for case, ij, *_ in ROW_INSTANCES]
    assert sorted(listed) == sorted((case, ij) for case in "BC" for ij in _rows(case))


@pytest.mark.parametrize(
    "case, ij, n, vertices, kind",
    ROW_INSTANCES,
    ids=[f"{c}{ij[0]}{ij[1]}-{kind}" for c, ij, _, _, kind in ROW_INSTANCES],
)
def test_table_row(monkeypatch, case, ij, n, vertices, kind):
    poly = Polygon([Vec(*v) for v in vertices])
    mapping, tag = classify_type(poly, n)
    assert tag == TypeTag(kind, n)
    assert satisfies_type(apply_affine(poly, mapping), tag)
    assert mapping.is_automorphism_of(Sublattice.rectangular(n, n))
    # the instance really goes through this row: without it, it misses
    monkeypatch.delitem(_rows(case), ij)
    with pytest.raises(ClassificationError) as exc:
        classify_type(poly, n)
    assert exc.value.profile == SplitProfile(case, *ij)
    assert exc.value.polygon == poly
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "vertices, n", [(v, n) for _, _, n, v, _ in ROW_INSTANCES] + [(OCTAGON.vertices, 3)]
)
def test_classify_clips_lattice_points_once(monkeypatch, vertices, n):
    calls = count_calls(monkeypatch, "lattice_points_in")
    classify_type(Polygon([Vec(*v) for v in vertices]), n)
    assert len(calls) == 1


def _longest_column_string(poly: Polygon, columns: range) -> int:
    best = -1
    for c in columns:
        chord = chord_interval(poly, Line.vertical(c))
        if chord is not None:
            best = max(best, math.floor(chord[1]) - math.ceil(chord[0]))
    return best


def test_type_one_reads_no_splits(monkeypatch):
    # type I is an axis-slab test on the bounding stats alone
    calls = count_calls(monkeypatch, "segment_splits")
    slab = Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 5), Vec(0, 5)])
    assert satisfies_type(slab, TypeTag("I", 3))
    assert calls == []


def test_case_b_one_one_is_never_normalized():
    # Polygons in case B (1, 1) position: x1 = 0 splits with its chord in
    # (0, n), and the segments [(-n, 0), (0, 0)] and [(-n, n), (0, n)] split.
    # The table has no row for them because no vertical string on x1 >= 0
    # can be a longest one, which is what slab normalization would need.
    rng = random.Random(53)
    seen = 0
    for _ in range(3000):
        n = rng.randint(3, 7)
        pts = [
            Vec(rng.randint(-n + 1, -1), rng.randint(-2 * n, -1)),
            Vec(rng.randint(-n + 1, -1), rng.randint(n + 1, 3 * n)),
            Vec(rng.randint(1, n - 1), rng.randint(1, n - 1)),
        ] + [Vec(rng.randint(-n + 1, -1), rng.randint(-2 * n, 3 * n)) for _ in range(rng.randint(0, 2))]
        try:
            poly = convex_hull(pts)
        except DegenerateHullError:
            continue
        chord = chord_interval(poly, Line.vertical(0))
        if not (0 < chord[0] and chord[1] < n):
            continue
        if (reduction._split_index(poly, 0, n), reduction._split_index(poly, n, n)) != (1, 1):
            continue
        seen += 1
        east = bounding_stats(poly).east
        # the proof finds a string at least two longer left of x1 = 0
        assert _longest_column_string(poly, range(0, east + 1)) + 2 <= lattice_diameter(poly).length
    assert seen >= 20


def test_failed_postcondition_is_a_miss(monkeypatch):
    monkeypatch.setitem(reduction._CASE_C_ROWS, (2, 2), ("III", reduction._IDENTITY, (0, 0)))
    with pytest.raises(ClassificationError, match="image fails type III") as exc:
        classify_type(QUAD, 3)
    assert exc.value.profile == SplitProfile("C", 2, 2)


def test_failed_type_one_is_a_miss(monkeypatch):
    monkeypatch.setattr(reduction, "satisfies_type", lambda poly, tag: False)
    with pytest.raises(ClassificationError) as exc:
        classify_type(OCTAGON, 3)
    assert exc.value.profile == SplitProfile("A", None, None)
    assert exc.value.polygon == OCTAGON


def _random_free_polygon(rng: random.Random, n: int, around_square: bool) -> Polygon:
    lattice = Sublattice.rectangular(n, n)
    while True:
        if around_square:
            # a point beyond three or four sides of the n-square, plus one
            # of the closed square, for the rows where both x1 = 0 and
            # x1 = n split
            beyond = [
                Vec(rng.randint(1, n - 1), -rng.randint(1, n)),
                Vec(n + rng.randint(1, n), rng.randint(1, n - 1)),
                Vec(rng.randint(1, n - 1), n + rng.randint(1, n)),
                Vec(-rng.randint(1, n), rng.randint(1, n - 1)),
            ]
            pts = rng.sample(beyond, rng.randint(3, 4)) + [Vec(rng.randint(0, n), rng.randint(0, n))]
        else:
            pts = [Vec(rng.randint(-n, 2 * n), rng.randint(-n, 2 * n)) for _ in range(rng.randint(3, 6))]
        try:
            poly = convex_hull(pts)
        except DegenerateHullError:
            continue
        if polygon_free_of(poly, lattice):
            return poly


@pytest.fixture(scope="module")
def oracle_cases() -> list[tuple[Polygon, int]]:
    # seeded free polygons for n = 2..5 (n = 2 only from the random window,
    # where a point beyond each side always covers a corner) and every
    # table row, each under a random automorphism of n*Z^2
    rng = random.Random(14)
    cases = []
    for k in range(800):
        n = 2 + (k // 2) % 4
        cases.append((_random_free_polygon(rng, n, k % 2 == 0 and n > 2), n))
    cases += [(Polygon([Vec(*v) for v in vertices]), n) for _, _, n, vertices, _ in ROW_INSTANCES]
    moved = []
    for poly, n in cases:
        m = AffineMap(random_unimodular(rng), Vec(n * rng.randint(-3, 3), n * rng.randint(-3, 3)))
        moved.append((apply_affine(poly, m), n))
    return moved


def test_one_application_matches_the_two_step_oracle(oracle_cases):
    seen = collections.Counter()
    for poly, n in oracle_cases:
        assert slab_normalize(poly, n) == normalize_oracle(poly, n)
        total, kind, image, profile, reflected = classify_oracle(poly, n)
        seen[profile.case, reflected] += 1
        if kind is None or not satisfies_type(image, TypeTag(kind, n)):
            with pytest.raises(ClassificationError) as exc:
                classify_type(poly, n)
            assert exc.value.profile == profile
            continue
        assert reduction._classify(poly, n) == (total, TypeTag(kind, n), image)
    # reflected case B rows and case C rows both occur
    assert seen["B", True] >= 100 and seen["C", False] >= 30 and seen["B", False] >= 100


def test_classify_applies_the_map_at_most_twice(monkeypatch, oracle_cases):
    # once in slab_normalize, and once more only when the finishing map
    # (the reflection and the row's step) is not the identity
    counts = collections.Counter()
    for poly, n in oracle_cases[::4]:
        norm_map = slab_normalize(poly, n).map
        with monkeypatch.context() as m:
            calls = count_calls(m, "apply_affine")
            mapping, _ = classify_type(poly, n)
        identity = mapping == norm_map
        assert len(calls) == (1 if identity else 2)
        counts[identity] += 1
    assert counts[True] >= 20 and counts[False] >= 20


def test_chord_guard_raises_without_assert():
    square = Polygon([Vec(-1, -1), Vec(1, -1), Vec(1, 1), Vec(-1, 1)])
    with pytest.raises(InvariantError, match="forbidden lattice point"):
        reduction._chord_cell_index(square.vertices, 0, 2)


class TestDiameterSlabBound:
    def test_rotated_flat_triangle(self):
        tri = Polygon([Vec(0, 0), Vec(3, 0), Vec(0, 1)])
        rot = AffineMap(primitive_to(Vec(1, 0), E2), Vec(0, 0))
        mapped = apply_affine(tri, rot)
        assert mapped.contains(Vec(0, 0)) and mapped.contains(Vec(0, 3))
        assert check_diameter_slab_bound(mapped)

    def test_square(self):
        square = Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])
        assert check_diameter_slab_bound(square)

    def test_unit_triangle(self):
        assert check_diameter_slab_bound(Polygon([Vec(0, 0), Vec(1, 0), Vec(0, 1)]))

    def test_rejects_missing_anchor(self):
        with pytest.raises(ValueError):
            check_diameter_slab_bound(Polygon([Vec(1, 0), Vec(2, 0), Vec(1, 1)]))

    def test_normalized_images(self):
        # after slab normalization, translate the longest string onto the
        # x2 axis and check the width bound it implies
        rng = random.Random(47)
        for _ in range(20):
            poly = random_convex_polygon(rng, span=5)
            wit = lattice_diameter(poly)
            d = wit.segment.b - wit.segment.a
            g = math.gcd(d.x1, d.x2)
            rot = AffineMap(primitive_to(Vec(d.x1 // g, d.x2 // g), E2), Vec(0, 0))
            moved = apply_affine(poly, rot)
            anchor = rot(wit.segment.a)
            moved = apply_affine(moved, AffineMap.translate(-anchor))
            assert check_diameter_slab_bound(moved)


class TestSplitExclusion:
    def test_quad(self):
        assert check_split_exclusion(QUAD, 3)

    def test_octagon(self):
        assert check_split_exclusion(OCTAGON, 3)

    def test_normalized_corpus_sample(self, corpus_n2):
        for poly in corpus_n2[:100]:
            res = slab_normalize(poly, 2)
            assert check_split_exclusion(res.image, 2)


def test_slab_postconditions_n4_suite():
    # complete enumeration over a documented desk-scale box
    from latfree.verify import SearchBox, enumerate_free_polygons

    lattice = Sublattice.rectangular(4, 4)
    count = 0
    for poly in enumerate_free_polygons(lattice, SearchBox(-1, 5, 0, 4), 3):
        assert_normalized(poly, 4)
        count += 1
    assert count > 50_000
