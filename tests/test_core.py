import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree import core
from latfree.core import (
    E1,
    E2,
    AffineMap,
    LatticeError,
    Mat2,
    Sublattice,
    Vec,
    invariant_factors,
    steps,
    xgcd,
)

from conftest import primitive_to

nonsingular = st.builds(
    Mat2,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
).filter(lambda m: m.det() != 0)


def diagonal_reduction_oracle(m: Mat2) -> tuple[int, int]:
    """Invariant factors via naive elementary row/column reduction."""
    a = [[m.a11, m.a12], [m.a21, m.a22]]

    def not_diag():
        return a[0][1] != 0 or a[1][0] != 0

    while not_diag():
        if a[1][0] != 0:
            if a[0][0] == 0 or (a[1][0] != 0 and abs(a[1][0]) < abs(a[0][0])):
                a[0], a[1] = a[1], a[0]
            if a[0][0] != 0:
                q = a[1][0] // a[0][0]
                a[1][0] -= q * a[0][0]
                a[1][1] -= q * a[0][1]
            continue
        if a[0][1] != 0:
            if a[0][0] == 0 or abs(a[0][1]) < abs(a[0][0]):
                a[0][0], a[0][1] = a[0][1], a[0][0]
                a[1][0], a[1][1] = a[1][1], a[1][0]
            if a[0][0] != 0:
                q = a[0][1] // a[0][0]
                a[0][1] -= q * a[0][0]
                a[1][1] -= q * a[1][0]
    d1, d2 = abs(a[0][0]), abs(a[1][1])
    g = math.gcd(d1, d2)
    return g, d1 * d2 // g


def smith_normal_form(m: Mat2) -> tuple[Mat2, Mat2, Mat2]:
    """Return unimodular (U, D, V) with U @ m @ V = D = diag(delta, n), delta | n.

    The Smith normal form, kept as the reference for ``invariant_factors``.
    """
    if m.det() == 0:
        raise LatticeError("degenerate lattice: basis matrix is singular")
    d11, d12, d21, d22 = m
    u = Mat2.identity()
    v = Mat2.identity()

    def row_reduce() -> None:
        # zero out d21; plain elimination when d11 already divides it,
        # otherwise a Bezout row operation that shrinks |d11| to the gcd
        nonlocal d11, d12, d21, d22, u
        if d21 % d11 == 0:
            k = d21 // d11
            d21, d22 = 0, d22 - k * d12
            u = Mat2(1, 0, -k, 1) @ u
        else:
            g, x, y = xgcd(d11, d21)
            r = Mat2(x, y, -d21 // g, d11 // g)
            d11, d12, d21, d22 = (
                g,
                x * d12 + y * d22,
                0,
                (-d21 // g) * d12 + (d11 // g) * d22,
            )
            u = r @ u

    def col_reduce() -> None:
        # zero out d12 with the mirrored column operations
        nonlocal d11, d12, d21, d22, v
        if d12 % d11 == 0:
            k = d12 // d11
            d12, d22 = 0, d22 - k * d21
            v = v @ Mat2(1, -k, 0, 1)
        else:
            g, x, y = xgcd(d11, d12)
            c = Mat2(x, -(d12 // g), y, d11 // g)
            d11, d12, d21, d22 = (
                g,
                0,
                x * d21 + y * d22,
                (-(d12 // g)) * d21 + (d11 // g) * d22,
            )
            v = v @ c

    def diagonalize() -> None:
        nonlocal d11, d12, d21, d22, u, v
        while d21 != 0 or d12 != 0:
            if d11 == 0:
                if d21 != 0:
                    d11, d12, d21, d22 = d21, d22, d11, d12
                    u = Mat2(0, 1, 1, 0) @ u
                else:
                    d11, d12, d21, d22 = d12, d11, d22, d21
                    v = v @ Mat2(0, 1, 1, 0)
            if d21 != 0:
                row_reduce()
            if d12 != 0:
                col_reduce()

    diagonalize()
    if d22 % d11 != 0:
        # fold column 2 into column 1 and reduce again to enforce divisibility
        d11, d21 = d11 + d12, d21 + d22
        v = v @ Mat2(1, 0, 1, 1)
        diagonalize()

    if d11 < 0:
        d11 = -d11
        u = Mat2(-1, 0, 0, 1) @ u
    if d22 < 0:
        d22 = -d22
        u = Mat2(1, 0, 0, -1) @ u
    return u, Mat2(d11, 0, 0, d22), v


class TestInvariantFactors:
    def test_doubled_lattice(self):
        assert invariant_factors(Mat2(2, 0, 0, 2)) == (2, 2)

    def test_identity(self):
        assert invariant_factors(Mat2.identity()) == (1, 1)

    def test_upper_triangular(self):
        m = Mat2(2, 4, 0, 6)
        assert invariant_factors(m) == diagonal_reduction_oracle(m) == (2, 6)

    def test_singular_rejected(self):
        with pytest.raises(LatticeError, match="degenerate lattice"):
            invariant_factors(Mat2(1, 2, 2, 4))

    @given(nonsingular)
    def test_matches_reduction_oracle(self, m):
        assert invariant_factors(m) == diagonal_reduction_oracle(m)


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(Mat2.identity())
        assert d == Mat2.identity()
        assert (u @ Mat2.identity()) @ v == d

    def test_example(self):
        m = Mat2(2, 1, 0, 3)
        u, d, v = smith_normal_form(m)
        assert d == Mat2(1, 0, 0, 6)
        assert (u @ m) @ v == d
        assert u.is_unimodular() and v.is_unimodular()

    def test_antidiagonal(self):
        m = Mat2(0, 3, 3, 0)
        u, d, v = smith_normal_form(m)
        assert d == Mat2(3, 0, 0, 3)
        assert (u @ m) @ v == d

    def test_singular_rejected(self):
        with pytest.raises(LatticeError):
            smith_normal_form(Mat2(0, 0, 0, 0))

    @given(nonsingular)
    @settings(max_examples=200)
    def test_diagonalizes_to_invariant_factors(self, m):
        u, d, v = smith_normal_form(m)
        delta, n = invariant_factors(m)
        assert (d.a11, d.a22) == (delta, n)
        assert d.a12 == d.a21 == 0
        assert n % delta == 0
        assert delta * n == abs(m.det())
        assert u.det() in (1, -1) and v.det() in (1, -1)
        assert (u @ m) @ v == d


class TestPrimitiveTo:
    def test_identity_case(self):
        assert primitive_to(Vec(0, 1), Vec(0, 1)).mul_vec(Vec(0, 1)) == Vec(0, 1)

    def test_quarter_turn(self):
        m = primitive_to(Vec(1, 0), Vec(0, 1))
        assert m == Mat2(0, -1, 1, 0)

    def test_canonical_example(self):
        m = primitive_to(Vec(3, 5), Vec(0, 1))
        assert m == Mat2(5, -3, 2, -1)
        assert m.mul_vec(Vec(3, 5)) == Vec(0, 1)
        assert m.det() == 1

    def test_rejects_non_primitive(self):
        with pytest.raises(LatticeError, match="not primitive"):
            primitive_to(Vec(2, 4), Vec(0, 1))

    @given(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
            lambda t: math.gcd(*t) == 1
        ),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
            lambda t: math.gcd(*t) == 1
        ),
    )
    def test_contract(self, f, g):
        f, g = Vec(*f), Vec(*g)
        m = primitive_to(f, g)
        assert m.mul_vec(f) == g
        assert m.det() == 1

    def test_composition(self):
        f, g, h = Vec(2, 3), Vec(1, 0), Vec(5, -7)
        m = primitive_to(g, h) @ primitive_to(f, g)
        assert m.mul_vec(f) == h


class TestContains:
    def test_doubled_lattice(self):
        lat = Sublattice.rectangular(2, 2)
        assert lat.contains(Vec(4, 6))
        assert not lat.contains(Vec(3, 6))

    def test_sheared(self):
        lat = Sublattice.from_matrix(Mat2.from_columns(Vec(1, 1), Vec(0, 3)))
        assert lat.contains(Vec(1, 1))
        assert not lat.contains(Vec(1, 2))

    @pytest.mark.parametrize(
        "basis",
        [Mat2(2, 0, 0, 2), Mat2(1, 0, 1, 2), Mat2(3, 1, 0, 2), Mat2(2, -1, 1, 2)],
    )
    def test_against_brute_force(self, basis):
        lat = Sublattice.from_matrix(basis)
        brute = set()
        for u1 in range(-60, 61):
            for u2 in range(-60, 61):
                p = basis.mul_vec(Vec(u1, u2))
                if -20 <= p.x1 <= 20 and -20 <= p.x2 <= 20:
                    brute.add(p)
        for x1 in range(-20, 21):
            for x2 in range(-20, 21):
                assert lat.contains(Vec(x1, x2)) == (Vec(x1, x2) in brute)


def brute_force_steps(lat: Sublattice, f1: Vec, f2: Vec, span: int = 60):
    large1 = next(u for u in range(1, span) if lat.contains(Vec(u * f1.x1, u * f1.x2)))
    small1 = next(
        u1
        for u1 in range(1, span)
        if any(
            lat.contains(Vec(u1 * f1.x1 + u2 * f2.x1, u1 * f1.x2 + u2 * f2.x2))
            for u2 in range(-span, span)
        )
    )
    large2 = next(u for u in range(1, span) if lat.contains(Vec(u * f2.x1, u * f2.x2)))
    small2 = next(
        u2
        for u2 in range(1, span)
        if any(
            lat.contains(Vec(u1 * f1.x1 + u2 * f2.x1, u1 * f1.x2 + u2 * f2.x2))
            for u1 in range(-span, span)
        )
    )
    return small1, large1, small2, large2


class TestSteps:
    def test_doubled_lattice(self):
        st_ = steps(Sublattice.rectangular(2, 2), E1, E2)
        assert st_.small_f1 == 2 and st_.large_f2 == 2
        assert st_.small_f1 * st_.large_f2 == 4

    def test_full_lattice(self):
        assert steps(Sublattice.zsquare(), E1, E2) == (1, 1, 1, 1)
        assert steps(Sublattice.zsquare(), Vec(2, 1), Vec(1, 1)) == (1, 1, 1, 1)

    def test_sheared(self):
        lat = Sublattice.from_matrix(Mat2.from_columns(Vec(1, 1), Vec(0, 2)))
        st_ = steps(lat, E1, E2)
        assert st_.small_f1 == 1 and st_.large_f2 == 2
        assert st_.small_f1 * st_.large_f2 == lat.det()

    def test_requires_basis(self):
        with pytest.raises(LatticeError, match="unimodular"):
            steps(Sublattice.rectangular(2, 2), Vec(2, 0), Vec(0, 1))

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            basis = Mat2(
                rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
            )
            if basis.det() == 0:
                continue
            lat = Sublattice.from_matrix(basis)
            while True:
                frame = Mat2(
                    rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
                )
                if frame.is_unimodular():
                    break
            f1, f2 = Vec(frame.a11, frame.a21), Vec(frame.a12, frame.a22)
            assert tuple(steps(lat, f1, f2)) == brute_force_steps(lat, f1, f2)

    def test_small_times_large_equals_det(self):
        rng = random.Random(11)
        for _ in range(60):
            basis = Mat2(
                rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
            )
            if basis.det() == 0:
                continue
            lat = Sublattice.from_matrix(basis)
            while True:
                frame = Mat2(
                    rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
                )
                if frame.is_unimodular():
                    break
            st_ = steps(lat, Vec(frame.a11, frame.a21), Vec(frame.a12, frame.a22))
            assert st_.small_f1 * st_.large_f2 == lat.det()
            assert st_.small_f2 * st_.large_f1 == lat.det()
            assert st_.small_f1 <= st_.large_f1
            assert st_.small_f2 <= st_.large_f2


class TestAffineMap:
    def test_compose(self):
        a = AffineMap(Mat2(0, -1, 1, 0), Vec(1, 0))
        b = AffineMap(Mat2(1, 0, 1, 1), Vec(0, 2))
        p = Vec(3, -4)
        assert a.compose(b)(p) == a(b(p))

    def test_automorphism_check(self):
        lat = Sublattice.rectangular(3, 3)
        assert AffineMap(Mat2(0, -1, 1, 0), Vec(3, 0)).is_automorphism_of(lat)
        assert not AffineMap(Mat2(0, -1, 1, 0), Vec(1, 0)).is_automorphism_of(lat)
        assert not AffineMap(Mat2(2, 0, 0, 1), Vec(3, 0)).is_automorphism_of(lat)


class TestBigIntegers:
    def test_no_overflow(self):
        big = 2**62
        m = Mat2(big, 1, 1, big)
        delta, n = invariant_factors(m)
        assert delta * n == m.det()
        u, d, v = smith_normal_form(m)
        assert (u @ m) @ v == d

    def test_xgcd(self):
        g, x, y = xgcd(2**80 + 1, 2**40 - 3)
        assert g == math.gcd(2**80 + 1, 2**40 - 3)
        assert (2**80 + 1) * x + (2**40 - 3) * y == g


class TestSublatticeFactors:
    @pytest.mark.parametrize(
        "build",
        [lambda: Sublattice.from_matrix(Mat2(1, 0, 1, 3)), lambda: Sublattice.rectangular(2, 6)],
        ids=["from_matrix", "rectangular"],
    )
    def test_factors_computed_once(self, monkeypatch, build):
        calls = []

        def counting(m):
            calls.append(m)
            return invariant_factors(m)

        monkeypatch.setattr(core, "invariant_factors", counting)
        lat = build()
        assert len(calls) == 1
        monkeypatch.undo()
        # the same lattice as the checked constructor builds
        checked = Sublattice(lat.basis, *invariant_factors(lat.basis))
        assert lat == checked and hash(lat) == hash(checked)

    def test_direct_construction_checks_factors(self):
        with pytest.raises(LatticeError, match="invariant factors"):
            Sublattice(Mat2(2, 0, 0, 2), 1, 4)
        with pytest.raises(LatticeError, match="invariant factors"):
            Sublattice(Mat2(1, 0, 1, 3), 3, 1)
        assert Sublattice(Mat2(2, 0, 0, 2), 2, 2) == Sublattice.rectangular(2, 2)


class TestLatticeJson:
    def test_rectangular_round_trip(self):
        lat = Sublattice.rectangular(2, 6)
        assert lat.to_obj() == {"delta": 2, "n": 6}
        assert Sublattice.from_obj(lat.to_obj()) == lat

    def test_matrix_round_trip(self):
        lat = Sublattice.from_matrix(Mat2(1, 0, 1, 3))
        assert Sublattice.from_obj(lat.to_obj()) == lat

    def test_rejects_garbage(self):
        with pytest.raises(LatticeError):
            Sublattice.from_obj({"rows": []})
