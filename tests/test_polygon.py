import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.core import AffineMap, Mat2, Sublattice, Vec
from latfree.polygon import (
    DegenerateHullError,
    GeometryError,
    Line,
    Polygon,
    Segment,
    apply_affine,
    bounding_stats,
    chord_interval,
    convex_hull,
    lattice_points_in,
    line_splits,
    pick_identity,
    polygon_free_of,
    ray_splits,
    segment_splits,
)

from conftest import random_convex_polygon, random_unimodular

UNIT_TRIANGLE = Polygon([Vec(0, 0), Vec(1, 0), Vec(0, 1)])
SQUARE = Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])
DIAMOND = Polygon([Vec(1, 0), Vec(2, 1), Vec(1, 2), Vec(0, 1)])
QUAD = Polygon([Vec(1, -1), Vec(4, 1), Vec(2, 4), Vec(-1, 2)])

point_sets = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)), min_size=3, max_size=50
)
small_point_sets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=8
)


class TestPolygonConstruction:
    def test_canonical_start(self):
        p = Polygon([Vec(2, 2), Vec(0, 2), Vec(0, 0), Vec(2, 0)])
        assert p.vertices[0] == Vec(0, 0)
        assert p == SQUARE

    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            Polygon([Vec(0, 0), Vec(0, 1), Vec(1, 0)])

    def test_rejects_collinear(self):
        with pytest.raises(GeometryError):
            Polygon([Vec(0, 0), Vec(1, 0), Vec(2, 0), Vec(1, 1)])

    def test_rejects_double_winding(self):
        # pentagram order: every turn is left but the cycle winds twice
        pts = [Vec(0, 0), Vec(4, 6), Vec(8, 0), Vec(0, 4), Vec(8, 4)]
        with pytest.raises(GeometryError):
            Polygon(pts)


    @pytest.mark.parametrize(
        "raw",
        [
            [(Fraction(0), 0.0), [2.0, True], [Fraction(2), Fraction(6, 2)], (True, 2)],
            [[0, 0], [2, 1], [2, 3], [1, 2]],
            (Vec(x, y) for x, y in [(2, 3), (1, 2), (0, 0), (2, 1)]),
        ],
        ids=["int-like", "lists", "generator"],
    )
    def test_coerces_int_like_coordinates(self, raw):
        p = Polygon(raw)
        assert p.vertices == ((0, 0), (2, 1), (2, 3), (1, 2))
        assert all(type(v) is Vec for v in p.vertices)
        assert all(type(c) is int for v in p.vertices for c in v)

    def test_int_like_input_rejected_as_before(self):
        with pytest.raises(GeometryError, match="strictly convex"):
            Polygon([(0.0, 0), (Fraction(1), 0), (2, False)])
        with pytest.raises(GeometryError, match="at least 3"):
            Polygon([[True, 2.0], (Fraction(3), 1)])


def _half(v):
    # 0 for directions with angle in [0, pi), 1 for [pi, 2*pi)
    return 0 if (v.x2 > 0 or (v.x2 == 0 and v.x1 > 0)) else 1


def _angle_less(a, b):
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha < hb
    return a.cross(b) > 0


def reference_vertices(vertices):
    """The constructor's former algorithm: ``Vec`` edges, and a cycle winds
    once when exactly one turn does not advance in angle order."""
    verts = tuple(Vec(int(v[0]), int(v[1])) for v in vertices)
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    m = len(verts)
    edges = [verts[(i + 1) % m] - verts[i] for i in range(m)]
    descents = 0
    for i in range(m):
        e, f = edges[i], edges[(i + 1) % m]
        if e.cross(f) <= 0:
            raise GeometryError("vertices are not strictly convex counter-clockwise")
        if not _angle_less(e, f):
            descents += 1
    if descents != 1:
        raise GeometryError("vertex cycle winds more than once")
    start = verts.index(min(verts))
    return verts[start:] + verts[:start]


def _outcome(build, pts):
    try:
        return build(pts)
    except GeometryError as exc:
        return str(exc)


# duplicates and collinear triples are common on a 5 x 5 grid
grid_cycles = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=10)


@st.composite
def circle_cycles(draw):
    """Rounded points on a circle, about evenly spaced in angle over 1-3
    turns, in either orientation and from any start."""
    winds = draw(st.integers(1, 3))
    k = draw(st.integers(3, 12))
    step = 360 * winds / k
    jitter = st.floats(-step / 4, step / 4)
    radius = draw(st.integers(2, 30))
    angles = [math.radians(i * step + draw(jitter)) for i in range(k)]
    pts = [(round(radius * math.cos(a)), round(radius * math.sin(a))) for a in angles]
    if draw(st.booleans()):
        pts.reverse()
    start = draw(st.integers(0, len(pts) - 1))
    return pts[start:] + pts[:start]


class TestConstructorOracle:
    @given(st.one_of(grid_cycles, circle_cycles()))
    @settings(max_examples=1000, deadline=None)
    def test_matches_angle_order_reference(self, pts):
        want = _outcome(reference_vertices, pts)
        assert _outcome(lambda p: Polygon(p).vertices, pts) == want


class TestConvexHull:
    def test_drops_interior_point(self):
        hull = convex_hull([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2), Vec(1, 1)])
        assert hull == SQUARE

    def test_drops_collinear_boundary_point(self):
        hull = convex_hull([Vec(0, 0), Vec(1, 0), Vec(2, 0), Vec(0, 2)])
        assert hull.vertices == (Vec(0, 0), Vec(2, 0), Vec(0, 2))

    def test_collinear_input_rejected(self):
        with pytest.raises(DegenerateHullError, match="degenerate hull"):
            convex_hull([Vec(0, 0), Vec(1, 0), Vec(2, 0)])

    @given(point_sets)
    @settings(max_examples=150)
    def test_hull_oracle(self, pts):
        pts = [Vec(*p) for p in pts]
        try:
            hull = convex_hull(pts)
        except DegenerateHullError:
            # oracle: all points on one line (or coincident)
            a = next((p for p in pts if p != pts[0]), None)
            assert a is None or all((a - pts[0]).cross(p - pts[0]) == 0 for p in pts)
            return
        # every input point weakly inside
        assert all(hull.contains(p) for p in pts)
        # every hull vertex extreme: removing it shrinks the hull
        for v in hull.vertices:
            rest = [p for p in pts if p != v]
            try:
                smaller = convex_hull(rest)
                assert not smaller.contains(v)
            except DegenerateHullError:
                pass

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(30):
            p = random_convex_polygon(rng)
            assert convex_hull(p.vertices) == p


class TestLatticePoints:
    def test_unit_triangle(self):
        assert lattice_points_in(UNIT_TRIANGLE) == [Vec(0, 0), Vec(0, 1), Vec(1, 0)]

    def test_square(self):
        assert len(lattice_points_in(SQUARE)) == 9

    def test_big_triangle(self):
        tri = Polygon([Vec(0, 0), Vec(4, 0), Vec(0, 4)])
        assert len(lattice_points_in(tri)) == 15

    @given(point_sets)
    @settings(max_examples=100)
    def test_against_membership_oracle(self, pts):
        try:
            poly = convex_hull([Vec(*p) for p in pts])
        except DegenerateHullError:
            return
        got = lattice_points_in(poly)
        s = bounding_stats(poly)
        want = [
            Vec(x, y)
            for x in range(s.west, s.east + 1)
            for y in range(s.south, s.north + 1)
            if poly.contains(Vec(x, y))
        ]
        assert got == sorted(want)


class TestPick:
    def test_unit_triangle(self):
        assert pick_identity(UNIT_TRIANGLE) == (1, 0, 3, True)

    def test_square(self):
        assert pick_identity(SQUARE) == (8, 1, 8, True)

    def test_big_triangle(self):
        tri = Polygon([Vec(0, 0), Vec(4, 0), Vec(0, 4)])
        assert pick_identity(tri) == (16, 3, 12, True)

    def test_random_polygons(self):
        rng = random.Random(5)
        for _ in range(100):
            assert pick_identity(random_convex_polygon(rng)).holds


class TestFreeOf:
    def test_unit_square_not_free(self):
        unit = Polygon([Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)])
        assert not polygon_free_of(unit, Sublattice.rectangular(2, 2))

    def test_diamond_free(self):
        assert polygon_free_of(DIAMOND, Sublattice.rectangular(2, 2))

    def test_free_invariant_under_automorphism(self):
        rng = random.Random(9)
        lattice = Sublattice.rectangular(2, 2)
        for _ in range(50):
            m = AffineMap(random_unimodular(rng), Vec(2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2)))
            image = apply_affine(DIAMOND, m)
            assert polygon_free_of(image, lattice)


class TestBoundingStats:
    def test_square(self):
        assert bounding_stats(SQUARE) == (2, 0, 2, 0, 0, 2, 0, 0, 2, 2, 0, 2)

    def test_diamond(self):
        assert bounding_stats(DIAMOND) == (2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1)

    def test_quad(self):
        assert bounding_stats(QUAD) == (4, 2, 2, -1, 1, 1, -1, 2, 2, 4, 1, 1)

    def test_extreme_points_are_vertices(self):
        rng = random.Random(13)
        for _ in range(100):
            poly = random_convex_polygon(rng)
            s = bounding_stats(poly)
            vs = set(poly.vertices)
            for p in [
                Vec(s.north_minus, s.north), Vec(s.north_plus, s.north),
                Vec(s.south_minus, s.south), Vec(s.south_plus, s.south),
                Vec(s.west, s.west_minus), Vec(s.west, s.west_plus),
                Vec(s.east, s.east_minus), Vec(s.east, s.east_plus),
            ]:
                assert p in vs
            for v in poly.vertices:
                assert s.west <= v.x1 <= s.east and s.south <= v.x2 <= s.north


class TestSplits:
    def test_line_examples(self):
        assert line_splits(SQUARE, Line.vertical(1))
        assert not line_splits(SQUARE, Line.vertical(0))
        assert line_splits(QUAD, Line.horizontal(0))

    def test_segment_examples(self):
        assert segment_splits(SQUARE, Segment(Vec(1, 0), Vec(1, 2)))
        assert not segment_splits(SQUARE, Segment(Vec(1, 0), Vec(1, 1)))
        assert segment_splits(QUAD, Segment(Vec(0, 0), Vec(3, 0)))

    def test_quad_chord_is_rational(self):
        from fractions import Fraction

        chord = chord_interval(QUAD, Line.through(Vec(0, 0), Vec(3, 0)))
        assert chord == (Fraction(1, 9), Fraction(5, 6))
        # in absolute coordinates the chord runs from x1 = 1/3 to x1 = 5/2
        assert (chord[0] * 3, chord[1] * 3) == (Fraction(1, 3), Fraction(5, 2))

    def test_one_point_segment_rejected(self):
        with pytest.raises(GeometryError, match="two distinct points"):
            segment_splits(SQUARE, Segment(Vec(1, 1), Vec(1, 1)))

    def test_split_tests_build_no_line(self, monkeypatch):
        built = []
        init = Line.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Line, "__init__", counting_init)
        rng = random.Random(14)
        for _ in range(100):
            poly = random_convex_polygon(rng, span=6)
            a = Vec(rng.randint(-7, 7), rng.randint(-7, 7))
            b = Vec(rng.randint(-7, 7), rng.randint(-7, 7))
            if a != b:
                segment_splits(poly, Segment(a, b))
                ray_splits(poly, a, b - a)
        assert built == []
        Line.vertical(0)
        assert len(built) == 1

    def test_contains_matches_lattice_points(self):
        rng = random.Random(14)
        for _ in range(50):
            poly = random_convex_polygon(rng, span=6)
            inside = set(lattice_points_in(poly))
            for x in range(-7, 8):
                for y in range(-7, 8):
                    assert poly.contains(Vec(x, y)) == (Vec(x, y) in inside)

    def test_segment_implies_line(self):
        rng = random.Random(17)
        for _ in range(200):
            poly = random_convex_polygon(rng, span=8)
            a = Vec(rng.randint(-9, 9), rng.randint(-9, 9))
            b = Vec(rng.randint(-9, 9), rng.randint(-9, 9))
            if a == b:
                continue
            if segment_splits(poly, Segment(a, b)):
                assert line_splits(poly, Line.through(a, b))


def reference_chord(poly, line):
    # the Fraction algorithm the integer chord replaced
    lo = hi = None
    for a, b in poly.edges():
        e = b - a
        beta = e.cross(line.direction)
        alpha = e.cross(line.anchor - a)
        if beta == 0:
            if alpha < 0:
                return None
            continue
        bound = Fraction(-alpha, beta)
        if beta > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return None if lo > hi else (lo, hi)


class TestChordOracle:
    # small hulls have short edges, so a line one step beside an edge is common
    @given(st.one_of(small_point_sets, point_sets), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, pts, data):
        try:
            poly = convex_hull([Vec(*p) for p in pts])
        except DegenerateHullError:
            return
        # anchors anywhere, or next to a vertex so that lines graze the
        # boundary and run one step outside an edge
        coord, near = st.integers(-12, 12), st.integers(-1, 1)
        if data.draw(st.booleans()):
            anchor = Vec(data.draw(coord), data.draw(coord))
        else:
            anchor = data.draw(st.sampled_from(poly.vertices)) + Vec(data.draw(near), data.draw(near))
        k = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        kind = data.draw(st.sampled_from(["horizontal", "vertical", "edge", "vertex", "any"]))
        if kind == "horizontal":
            direction = Vec(k, 0)
        elif kind == "vertical":
            direction = Vec(0, k)
        elif kind == "edge":
            # parallel to an edge, through the edge or one step beside it
            a, b = data.draw(st.sampled_from(poly.edges()))
            anchor = a + Vec(data.draw(near), data.draw(near))
            direction = (b - a).scaled(k)
        elif kind == "vertex":
            # the segment ends on a vertex: chord ends at t = 1 exactly
            direction = data.draw(st.sampled_from(poly.vertices)) - anchor
        else:
            direction = Vec(data.draw(coord), data.draw(coord))
        if direction == Vec(0, 0):
            return
        line = Line(anchor, direction)
        want = reference_chord(poly, line)
        assert chord_interval(poly, line) == want
        sides = {line.side(v) for v in poly.vertices}
        splits = {-1, 1} <= sides
        assert line_splits(poly, line) == splits
        assert ray_splits(poly, anchor, direction) == (splits and want[0] >= 0)
        seg = Segment(anchor, anchor + direction)
        assert segment_splits(poly, seg) == (splits and want[0] >= 0 and want[1] <= 1)


class TestApplyAffine:
    def test_identity(self):
        assert apply_affine(SQUARE, AffineMap.identity()) == SQUARE

    def test_shear(self):
        sheared = apply_affine(UNIT_TRIANGLE, AffineMap(Mat2(1, 0, 1, 1), Vec(0, 0)))
        assert sheared == Polygon([Vec(0, 0), Vec(1, 1), Vec(0, 1)])

    def test_orientation_flip(self):
        mirrored = apply_affine(UNIT_TRIANGLE, AffineMap(Mat2(-1, 0, 0, 1), Vec(0, 0)))
        assert len(mirrored) == 3

    def test_rejects_non_unimodular(self):
        with pytest.raises(GeometryError):
            apply_affine(SQUARE, AffineMap(Mat2(2, 0, 0, 1), Vec(0, 0)))

    def test_preserves_lattice_point_count(self):
        rng = random.Random(23)
        for _ in range(50):
            poly = random_convex_polygon(rng, span=6)
            m = AffineMap(random_unimodular(rng), Vec(rng.randint(-4, 4), rng.randint(-4, 4)))
            image = apply_affine(poly, m)
            assert len(image) == len(poly)
            assert len(lattice_points_in(image)) == len(lattice_points_in(poly))


class TestPolygonJson:
    def test_round_trip(self):
        assert Polygon.from_obj(SQUARE.to_obj()) == SQUARE

    def test_reader_canonicalizes_any_orientation(self):
        cw = {"vertices": [[0, 2], [2, 2], [2, 0], [0, 0]]}
        assert Polygon.from_obj(cw) == SQUARE

    def test_writer_starts_at_lex_min(self):
        rng = random.Random(29)
        for _ in range(30):
            poly = random_convex_polygon(rng)
            assert poly.to_obj()["vertices"][0] == list(min(poly.vertices))
