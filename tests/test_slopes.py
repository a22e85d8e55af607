import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree import slopes
from latfree.core import E1, E2, Mat2, Sublattice, Vec
from latfree.polygon import Polygon
from latfree.slopes import (
    Frame,
    Slope,
    SlopeError,
    check_profile_ledger,
    check_projection_bound,
    check_sublattice_projection_bound,
    check_width_bound,
    maximal_slopes,
    slope_profile,
    validate_slope,
)

from conftest import (
    build_slope,
    count_calls,
    random_slope_basis_coords,
    random_splitting_instance,
    random_unimodular,
)

ORIGIN_FRAME = Frame(Vec(0, 0), E1, E2)
SQUARE = Polygon([Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])
DIAMOND = Polygon([Vec(1, 0), Vec(2, 1), Vec(1, 2), Vec(0, 1)])
QUAD = Polygon([Vec(1, -1), Vec(4, 1), Vec(2, 4), Vec(-1, 2)])


class TestValidateSlope:
    def test_single_edge(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        assert s.n_edges == 1

    def test_single_point(self):
        assert validate_slope([Vec(0, 0)], E1, E2).n_edges == 0

    def test_three_edges_increasing_ratio(self):
        s = validate_slope([Vec(0, 0), Vec(1, -3), Vec(2, -5), Vec(3, -6)], E1, E2)
        assert s.n_edges == 3

    def test_rejects_wrong_sign(self):
        with pytest.raises(SlopeError, match="^edge 1 must point down-right"):
            validate_slope([Vec(0, 0), Vec(-1, -1)], E1, E2)

    def test_rejects_decreasing_ratio(self):
        with pytest.raises(SlopeError, match="^edges 1 and 2 violate"):
            validate_slope([Vec(0, 0), Vec(1, -1), Vec(2, -3)], E1, E2)

    def test_rejects_parallel_edges(self):
        with pytest.raises(SlopeError):
            validate_slope([Vec(0, 0), Vec(1, -1), Vec(2, -2)], E1, E2)

    def test_swap_symmetry(self):
        rng = random.Random(53)
        for _ in range(100):
            coords = random_slope_basis_coords(rng)
            f = random_unimodular(rng)
            f1, f2 = Vec(f.a11, f.a21), Vec(f.a12, f.a22)
            s = build_slope(coords, f1, f2)
            swapped = validate_slope(list(reversed(s.vertices)), f2, f1)
            assert swapped.n_edges == s.n_edges

    def test_json_round_trip(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        assert Slope.from_obj(s.to_obj()) == s


def count_inversions(monkeypatch) -> list:
    calls: list = []
    inverse = Mat2.inverse_unimodular

    def counting_inverse(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Mat2, "inverse_unimodular", counting_inverse)
    return calls


class TestBasisCoords:
    """A slope keeps its vertices in its own basis, so the checks and the
    frame coordinates read them without inverting the basis again."""

    def test_coords_are_the_vertices_in_the_basis(self):
        rng = random.Random(29)
        for _ in range(100):
            coords = random_slope_basis_coords(rng)
            f = random_unimodular(rng)
            s = build_slope(coords, Vec(f.a11, f.a21), Vec(f.a12, f.a22))
            assert s.coords == tuple(Vec(*c) for c in coords)

    def test_width_bound_inverts_nothing_without_a_lattice(self, monkeypatch):
        rng = random.Random(31)
        built = []
        for _ in range(50):
            f = random_unimodular(rng)
            coords = random_slope_basis_coords(rng)
            built.append(build_slope(coords, Vec(f.a11, f.a21), Vec(f.a12, f.a22)))
        calls = count_inversions(monkeypatch)
        for s in built:
            check_width_bound(s)
        assert calls == []

    @pytest.mark.parametrize(
        "lattice",
        [Sublattice.zsquare(), Sublattice.from_matrix(Mat2.from_columns(Vec(1, -1), Vec(0, 3)))],
        ids=["z2", "skew"],
    )
    def test_width_bound_reads_a_lattice_with_one_inversion(self, monkeypatch, lattice):
        # one change of basis gives the small f1-step, the Bezout pair and
        # the skew, with no separate step computation
        s = validate_slope([Vec(0, 0), Vec(1, -4), Vec(2, -5)], E1, E2)
        calls = count_inversions(monkeypatch)
        step_calls = count_calls(monkeypatch, "steps")
        assert check_width_bound(s, lattice=lattice).ok
        assert len(calls) == 1
        assert step_calls == []

    def test_each_profile_inverts_once(self, monkeypatch):
        # one inversion maps the origin; the vertices' frame coordinates are
        # the slope's own, shifted and, in a swapped frame, swapped
        cases = _skew_splitting_cases()
        calls = count_inversions(monkeypatch)
        swapped = 0
        for frame, slope, mapped in cases:
            calls.clear()
            prof = slope_profile(frame, slope)
            assert len(calls) == 1
            assert list(prof.coords) in (mapped, mapped[::-1])
            swapped += frame.f1 != slope.f1
        assert 0 < swapped < len(cases)


def _skew_splitting_cases() -> list:
    # 200 seeded splitting instances in random unimodular bases, each with
    # its vertices mapped into frame coordinates by a direct inversion
    rng = random.Random(37)
    cases = []
    while len(cases) < 200:
        f = random_unimodular(rng)
        inst = random_splitting_instance(rng, [(Vec(f.a11, f.a21), Vec(f.a12, f.a22))])
        if inst is None:
            continue
        frame, slope = inst
        inv = Mat2.from_columns(frame.f1, frame.f2).inverse_unimodular()
        cases.append((frame, slope, [inv.mul_vec(v - frame.origin) for v in slope.vertices]))
    return cases


class TestMaximalSlopes:
    def test_square_all_axis_edges(self):
        ms = maximal_slopes(SQUARE)
        assert ms.edge_counts == (0, 0, 0, 0)
        assert ms.faces == (1, 1, 1, 1)
        assert sum(ms.edge_counts) + 4 == len(SQUARE)

    def test_diamond(self):
        ms = maximal_slopes(DIAMOND)
        assert ms.edge_counts == (1, 1, 1, 1)
        assert ms.faces == (0, 0, 0, 0)

    def test_quad(self):
        ms = maximal_slopes(QUAD)
        assert ms.edge_counts == (1, 1, 1, 1)
        assert ms.faces == (0, 0, 0, 0)

    def test_boundary_identity_random(self):
        from conftest import random_convex_polygon

        rng = random.Random(59)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            ms = maximal_slopes(poly)
            assert sum(ms.edge_counts) + sum(ms.faces) == len(poly)

    def test_projection_bound_holds_on_split_maximal_slopes(self):
        # a frame at an integer origin near the polygon, on the basis of
        # maximal slope k in either order, whenever it splits that slope
        from conftest import random_convex_polygon
        from latfree.polygon import bounding_stats

        rng = random.Random(97)
        hits = 0
        while hits < 150:
            poly = random_convex_polygon(rng, span=8)
            s = bounding_stats(poly)
            origin = Vec(
                rng.randint(s.west - 2, s.east + 2),
                rng.randint(s.south - 2, s.north + 2),
            )
            ms = maximal_slopes(poly)
            for slope in ms.slopes:
                f1, f2 = (slope.f2, slope.f1) if rng.random() < 0.5 else (slope.f1, slope.f2)
                prof = slope_profile(Frame(origin, f1, f2), slope)
                if prof is None:
                    continue
                hits += 1
                assert check_projection_bound(prof).ok


class TestFrameSplits:
    def test_crossing(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        assert slope_profile(ORIGIN_FRAME, s) is not None

    def test_through_origin(self):
        s = validate_slope([Vec(-1, 1), Vec(1, -1)], E1, E2)
        assert slope_profile(ORIGIN_FRAME, s) is None

    def test_single_point(self):
        assert slope_profile(ORIGIN_FRAME, validate_slope([Vec(0, 0)], E1, E2)) is None

    def test_swapped_frame_splits_too(self):
        rng = random.Random(61)
        hits = 0
        while hits < 200:
            inst = random_splitting_instance(rng, [(E1, E2)], allow_swap=False)
            if inst is None:
                continue
            hits += 1
            frame, slope = inst
            swapped = Frame(frame.origin, frame.f2, frame.f1)
            assert slope_profile(swapped, slope) is not None

    def test_basis_mismatch_rejected(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        with pytest.raises(ValueError):
            slope_profile(Frame(Vec(0, 0), Vec(1, 1), E2), s)


def _edge_hits_open_quadrant(p, q):
    # the parameter interval (lo, hi) within [0, 1] where p + t(q - p) has
    # both coordinates positive, as fractions num/den with den > 0
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 1
    for pc, qc in ((p.x1, q.x1), (p.x2, q.x2)):
        d = qc - pc
        if d == 0:
            if pc <= 0:
                return False
        elif d > 0:
            if -pc * lo_den > lo_num * d:
                lo_num, lo_den = -pc, d
        elif pc * hi_den < hi_num * -d:
            hi_num, hi_den = pc, -d
    return lo_num * hi_den < hi_num * lo_den


def reference_splits(frame, slope):
    """The general split test, kept as the reference for slope_profile:
    the endpoints lie in the open second and fourth quadrants, and a
    vertex or an edge meets the open first quadrant, found by clipping
    each edge against it."""
    if slope.n_edges == 0:
        return False
    inv = Mat2.from_columns(frame.f1, frame.f2).inverse_unimodular()
    coords = [inv.mul_vec(v - frame.origin) for v in slope.vertices]
    a, b = coords[0], coords[-1]
    second_to_fourth = a.x1 < 0 and a.x2 > 0 and b.x1 > 0 and b.x2 < 0
    fourth_to_second = b.x1 < 0 and b.x2 > 0 and a.x1 > 0 and a.x2 < 0
    if not (second_to_fourth or fourth_to_second):
        return False
    if any(c.x1 > 0 and c.x2 > 0 for c in coords):
        return True
    return any(
        _edge_hits_open_quadrant(coords[i], coords[i + 1]) for i in range(len(coords) - 1)
    )


AXIS_BASES = [(E1, E2), (E2, -E1), (-E1, -E2), (-E2, E1), (E2, E1), (-E1, E2)]


@st.composite
def split_cases(draw):
    """A slope of 1 to 5 edges in an axis or sheared unimodular basis,
    and a frame in either order of that basis.  The origin sits on a
    vertex, on the line through a vertex parallel to one basis vector,
    1 or 2 below and left of a vertex, strictly inside the slope's box
    (where the splitting origins are), or anywhere in that box widened
    by 2."""
    f1, f2 = draw(st.sampled_from(AXIS_BASES))
    shear = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        f2 = f2 + Vec(shear * f1.x1, shear * f1.x2)
    else:
        f1 = f1 + Vec(shear * f2.x1, shear * f2.x2)
    edge = st.tuples(st.integers(1, 4), st.integers(-4, -1))
    drawn = draw(st.lists(edge, min_size=1, max_size=5))
    by_ratio = {Fraction(a1, -a2): (a1, a2) for a1, a2 in drawn}
    x, y = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    coords = [(x, y)]
    for a1, a2 in (by_ratio[r] for r in sorted(by_ratio)):
        x, y = x + a1, y + a2
        coords.append((x, y))
    # the walk runs down-right: xs ascend and ys descend
    xs, ys = [c[0] for c in coords], [c[1] for c in coords]
    where = draw(st.sampled_from(["inside", "below", "free", "x_line", "y_line", "vertex"]))
    if where == "vertex":
        ox, oy = draw(st.sampled_from(coords))
    elif where == "below":
        vx, vy = draw(st.sampled_from(coords))
        ox, oy = vx - draw(st.integers(1, 2)), vy - draw(st.integers(1, 2))
    elif where == "inside" and xs[-1] - xs[0] > 1 and ys[0] - ys[-1] > 1:
        ox = draw(st.integers(xs[0] + 1, xs[-1] - 1))
        oy = draw(st.integers(ys[-1] + 1, ys[0] - 1))
    else:
        ox = draw(st.sampled_from(xs) if where == "x_line" else st.integers(xs[0] - 2, xs[-1] + 2))
        oy = draw(st.sampled_from(ys) if where == "y_line" else st.integers(ys[-1] - 2, ys[0] + 2))
    basis = Mat2.from_columns(f1, f2)
    slope = validate_slope([basis.mul_vec(Vec(*c)) for c in coords], f1, f2)
    origin = basis.mul_vec(Vec(ox, oy))
    swap = draw(st.booleans())
    return Frame(origin, f2, f1) if swap else Frame(origin, f1, f2), slope


class TestSplitOracle:
    @given(split_cases())
    @settings(max_examples=1000, deadline=None)
    def test_profile_exists_iff_reference_splits(self, case):
        frame, slope = case
        assert (slope_profile(frame, slope) is not None) == reference_splits(frame, slope)


class TestSmallAngle:
    def test_shallow(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        assert not slope_profile(ORIGIN_FRAME, s).small_angle

    def test_steep(self):
        s = validate_slope([Vec(-1, 2), Vec(3, -1)], E1, E2)
        assert slope_profile(ORIGIN_FRAME, s).small_angle

    def test_requires_splitting(self):
        s = validate_slope([Vec(-1, 1), Vec(1, -1)], E1, E2)
        assert slope_profile(ORIGIN_FRAME, s) is None

    def test_one_of_pair_forms_small_angle(self):
        # escalate on failure: either the generator or the statement is wrong
        rng = random.Random(67)
        hits = 0
        while hits < 300:
            inst = random_splitting_instance(rng, [(E1, E2)], allow_swap=False)
            if inst is None:
                continue
            hits += 1
            frame, slope = inst
            swapped = Frame(frame.origin, frame.f2, frame.f1)
            assert (
                slope_profile(frame, slope).small_angle
                or slope_profile(swapped, slope).small_angle
            )

    def test_small_angle_compares_no_fraction(self, monkeypatch):
        # the crossing edge's ratio a1 / -a2 is at least one iff a1 >= -a2,
        # so the test reads integers and never compares alpha with 1
        profiles = [slope_profile(frame, slope) for frame, slope, _ in _skew_splitting_cases()]
        want = [prof.alpha >= 1 for prof in profiles]
        calls = []
        for name in ("__ge__", "__gt__", "__le__", "__lt__", "__eq__"):
            original = getattr(Fraction, name)

            def counting(a, b, _original=original):
                calls.append((a, b))
                return _original(a, b)

            monkeypatch.setattr(Fraction, name, counting)
        assert [prof.small_angle for prof in profiles] == want
        assert calls == []
        assert 0 < sum(want) < len(want)

    def test_low_crossing_point_forces_small_angle(self):
        rng = random.Random(71)
        hits = 0
        while hits < 200:
            inst = random_splitting_instance(rng, [(E1, E2)], allow_swap=False)
            if inst is None:
                continue
            frame, slope = inst
            prof = slope_profile(frame, slope)
            if any(c.x2 > 0 and c.x1 + c.x2 <= 0 for c in prof.coords):
                hits += 1
                assert slope_profile(frame, slope).small_angle


def positive_projections(coords, k):
    """(pi1, pi2, head, tail) summed edge by edge: the positive-part
    projections of each edge onto the two frame axes, and p1 + p2 - 2
    summed over the edges up to c_k (the head) and after it (the tail)."""
    pi1 = pi2 = head = tail = 0
    for i in range(1, len(coords)):
        p, q = coords[i - 1], coords[i]
        p1 = max(q.x1, 0) - max(p.x1, 0)
        p2 = max(p.x2, 0) - max(q.x2, 0)
        pi1, pi2 = pi1 + p1, pi2 + p2
        if i <= k:
            head += p1 + p2 - 2
        else:
            tail += p1 + p2 - 2
    return pi1, pi2, head, tail


class TestSlopeProfile:
    def test_shallow_crossing(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        p = slope_profile(ORIGIN_FRAME, s)
        assert (p.k, p.alpha, p.t, p.s) == (1, Fraction(3, 4), 0, 0)
        assert p.pihat == 3
        assert positive_projections(p.coords, p.k) == (2, 3, 3, 0)

    def test_doubled_slope(self):
        s = validate_slope([Vec(-2, 4), Vec(2, -2)], E1, E2)
        p = slope_profile(ORIGIN_FRAME, s)
        assert (p.k, p.alpha, p.t, p.s) == (1, Fraction(2, 3), 0, 0)
        assert p.pihat == 4
        assert positive_projections(p.coords, p.k) == (2, 4, 4, 0)

    def test_unit_drop_edges(self):
        s = validate_slope([Vec(-1, 2), Vec(0, 1), Vec(3, -1)], E1, E2)
        p = slope_profile(ORIGIN_FRAME, s)
        assert (p.k, p.s, p.s_edges, p.t) == (2, 1, (1,), 1)

    def test_projection_identities(self):
        rng = random.Random(73)
        hits = 0
        while hits < 300:
            inst = random_splitting_instance(rng, [(E1, E2)])
            if inst is None:
                continue
            hits += 1
            frame, slope = inst
            p = slope_profile(frame, slope)
            v, w = p.coords[0], p.coords[-1]
            pi1, pi2, head, tail = positive_projections(p.coords, p.k)
            assert pi1 == abs(max(v.x1, 0) - max(w.x1, 0)) == w.x1
            assert pi2 == abs(max(v.x2, 0) - max(w.x2, 0)) == v.x2
            assert p.pihat == pi1 + pi2 - 2 * p.n_edges == head + tail
            details = check_profile_ledger(p).details
            assert (details["pihat"], details["pihat_head"], details["pihat_tail"]) == (
                p.pihat, head, tail,
            )


class TestWidthBound:
    def test_two_unit_edges(self):
        s = validate_slope([Vec(0, 0), Vec(1, -2), Vec(2, -3)], E1, E2)
        rep = check_width_bound(s)
        assert rep.ok
        assert rep.details == {"n_edges": 2, "b1": 2, "b2": -3, "s": 2}

    def test_wide_edges_allow_strict_bound(self):
        s = validate_slope([Vec(0, 0), Vec(2, -2), Vec(4, -3)], E1, E2)
        rep = check_width_bound(s)
        assert rep.ok and rep.details["s"] == 0
        assert 2 * s.n_edges <= abs(rep.details["b1"])

    def test_sublattice_hint(self):
        s = validate_slope([Vec(0, 0), Vec(2, -4), Vec(4, -6)], E1, E2)
        rep = check_width_bound(s, lattice=Sublattice.rectangular(2, 2))
        assert rep.ok and rep.details["small_f1_step"] == 2 and rep.details["s"] == 0

    def test_skew_hint(self):
        # vertices in the lattice spanned by (1, -1) and (0, 3), so the
        # width bound reads (a, m) = (1, 3) off it; the sharpened height
        # bound is tight here: 2*|b2| = 10 = (2a+(s-1)m)*s
        s = validate_slope([Vec(0, 0), Vec(1, -4), Vec(2, -5)], E1, E2)
        lattice = Sublattice.from_matrix(Mat2.from_columns(Vec(1, -1), Vec(0, 3)))
        rep = check_width_bound(s, lattice=lattice)
        assert rep.ok and rep.details["skew"] == [1, 3]
        assert rep.details["s"] == 2 and rep.details["b2"] == -5

    def test_skew_membership_required(self):
        s = validate_slope([Vec(0, 0), Vec(1, -1)], E1, E2)
        lattice = Sublattice.from_matrix(Mat2.from_columns(Vec(1, -2), Vec(0, 3)))
        with pytest.raises(ValueError):
            check_width_bound(s, lattice=lattice)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            check_width_bound(validate_slope([Vec(0, 0)], E1, E2))


class TestProjectionBound:
    def test_shallow(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        rep = check_projection_bound(slope_profile(ORIGIN_FRAME, s))
        assert rep.ok
        assert 2 * 1 <= 3 + 2

    def test_small_angle_witnesses(self):
        s = validate_slope([Vec(-1, 2), Vec(3, -1)], E1, E2)
        rep = check_projection_bound(slope_profile(ORIGIN_FRAME, s))
        assert rep.ok
        assert rep.details["small_angle"] and (rep.details["s"], rep.details["t"]) == (0, 1)

    def test_sublattice_strengthens(self):
        s = validate_slope([Vec(-2, 4), Vec(2, -2)], E1, E2)
        rep = check_sublattice_projection_bound(
            slope_profile(ORIGIN_FRAME, s), Sublattice.rectangular(2, 2)
        )
        assert rep.ok
        v, w = Vec(-2, 4), Vec(2, -2)
        assert 2 * 1 <= v.x2 + w.x1 - 1

    def test_sublattice_requires_membership(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        with pytest.raises(ValueError):
            check_sublattice_projection_bound(
                slope_profile(ORIGIN_FRAME, s), Sublattice.rectangular(2, 2)
            )

    def test_sublattice_requires_proper(self):
        s = validate_slope([Vec(-2, 4), Vec(2, -2)], E1, E2)
        with pytest.raises(ValueError):
            check_sublattice_projection_bound(slope_profile(ORIGIN_FRAME, s), Sublattice.zsquare())


class TestProfileLedger:
    def test_shallow(self):
        s = validate_slope([Vec(-1, 3), Vec(2, -1)], E1, E2)
        assert check_profile_ledger(slope_profile(ORIGIN_FRAME, s)).ok

    def test_doubled(self):
        # pihat >= 1 on a proper sublattice is the sublattice check's clause
        s = validate_slope([Vec(-2, 4), Vec(2, -2)], E1, E2)
        prof = slope_profile(ORIGIN_FRAME, s)
        rep = check_profile_ledger(prof)
        assert rep.ok
        assert rep.details["pihat"] == 4
        assert check_sublattice_projection_bound(prof, Sublattice.rectangular(2, 2)).ok


# Every clause of the slope checks, each fired by a profile tampered with
# _replace or by a slope built without validate_slope: honest input passes
# them all, so nothing else shows that a clause can fail.  Each entry maps a
# clause to (a builder taking monkeypatch, the context keys its
# counterexample carries).  tests/test_optimized.py requires the keys to be
# exactly the clauses that slopes.py appends.
STEEP = validate_slope([Vec(-1, 2), Vec(3, -1)], E1, E2)  # small angle: t = 1, s = 0
DOUBLED = validate_slope([Vec(-2, 4), Vec(2, -2)], E1, E2)  # in 2Z x 2Z
LAT22 = Sublattice.rectangular(2, 2)
SKEW = Sublattice.from_matrix(Mat2.from_columns(Vec(1, -1), Vec(0, 3)))  # (a, m) = (1, 3)
WIDTH_KEYS = ("slope",)
PROFILE_KEYS = ("slope", "origin")


def _steep(**fields):
    return slope_profile(ORIGIN_FRAME, STEEP)._replace(**fields)


def _doubled(**fields):
    return slope_profile(ORIGIN_FRAME, DOUBLED)._replace(**fields)


def _unchecked(*coords):
    # in the basis (e1, e2) the vertices are their own coordinates
    verts = tuple(Vec(*c) for c in coords)
    return Slope(verts, E1, E2, verts)


def _misread_small_step(monkeypatch):
    # a lattice whose small f1-step is above 1 holds no unit-width edge, so
    # only a misreported step lets s_zero fail
    real = slopes.xgcd
    monkeypatch.setattr(slopes, "xgcd", lambda *args: (2,) + real(*args)[1:])
    return check_width_bound(_unchecked((0, 0), (1, -1)), Sublattice.zsquare())


CLAUSE_CASES = {
    "width": (lambda mp: check_width_bound(_unchecked((0, 0), (0, -1))), WIDTH_KEYS),
    "height": (lambda mp: check_width_bound(_unchecked((0, 0), (1, 0))), WIDTH_KEYS),
    "s_zero": (_misread_small_step, WIDTH_KEYS),
    "width_strict": (
        lambda mp: check_width_bound(_unchecked((0, 0), (0, -2)), LAT22), WIDTH_KEYS
    ),
    # unit drops 1 and 4 pass the plain height bound but not the skew one
    "height_skew": (
        lambda mp: check_width_bound(_unchecked((0, 0), (1, -1), (2, -5), (4, -4)), SKEW),
        WIDTH_KEYS,
    ),
    "witness_order": (lambda mp: check_projection_bound(_steep(s=2)), PROFILE_KEYS),
    "height_slack": (lambda mp: check_projection_bound(_steep(s=3, t=3)), PROFILE_KEYS),
    "reach": (
        lambda mp: check_projection_bound(_steep(coords=(Vec(-5, 2), Vec(3, -1)))),
        PROFILE_KEYS,
    ),
    "projection": (lambda mp: check_projection_bound(_steep(t=4)), PROFILE_KEYS),
    "projection_plain": (
        lambda mp: check_projection_bound(
            _steep(coords=(Vec(-1, 2), Vec(0, 1), Vec(1, 0), Vec(3, -1)))
        ),
        PROFILE_KEYS,
    ),
    "projection_small_angle": (lambda mp: check_projection_bound(_steep(t=4)), PROFILE_KEYS),
    "projection_small_angle_plain": (
        lambda mp: check_projection_bound(_steep(coords=(Vec(-1, 2), Vec(3, -9)))),
        PROFILE_KEYS,
    ),
    "projection_sublattice": (
        lambda mp: check_sublattice_projection_bound(
            _doubled(coords=(Vec(-2, 1), Vec(1, -2))), LAT22
        ),
        PROFILE_KEYS + ("lattice",),
    ),
    "s_le_t": (lambda mp: check_profile_ledger(_steep(s=2)), PROFILE_KEYS),
    # the unit-drop edge is 2 wide, from x1 = -1 to x1 = 1
    "unit_drop_width": (
        lambda mp: check_profile_ledger(
            _steep(s=1, s_edges=(1,), coords=(Vec(-1, 2), Vec(1, -1)))
        ),
        PROFILE_KEYS,
    ),
    "head_bound": (lambda mp: check_profile_ledger(_steep(delta_flag=3)), PROFILE_KEYS),
    "tail_bound": (
        lambda mp: check_profile_ledger(_steep(coords=(Vec(-1, 2), Vec(3, -1), Vec(4, -9)))),
        PROFILE_KEYS,
    ),
}


@pytest.mark.parametrize("clause", list(CLAUSE_CASES))
def test_every_clause_can_fire(monkeypatch, clause):
    build, keys = CLAUSE_CASES[clause]
    rep = build(monkeypatch)
    assert not rep.ok
    assert clause in rep.counterexample["failed"]
    assert set(keys) <= set(rep.counterexample)
