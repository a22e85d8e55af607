"""Exact integer algebra for rank-2 sublattices of Z^2.

Everything works over plain Python integers, so determinants, gcds and
linear solves are exact by construction; there is no overflow and no
floating point anywhere in this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class LatticeError(ValueError):
    """Raised for degenerate or otherwise invalid lattice data."""


class InvariantError(RuntimeError):
    """Raised when an internal invariant fails.

    Never caused by malformed input: it signals an inconsistency in the
    computation itself, which the command line reports with exit code 2.
    """


class Vec(NamedTuple):
    """A point or vector of Z^2."""

    x1: int
    x2: int

    def __add__(self, other: "Vec") -> "Vec":  # type: ignore[override]
        return Vec(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vec":
        return Vec(-self.x1, -self.x2)

    def cross(self, other: "Vec") -> int:
        return self.x1 * other.x2 - self.x2 * other.x1


ORIGIN = Vec(0, 0)
E1 = Vec(1, 0)
E2 = Vec(0, 1)
NEG_E1, NEG_E2 = Vec(-1, 0), Vec(0, -1)  # so no turned axis basis negates a vector per call

# _new(Vec, (x1, x2)) makes the same Vec as Vec(x1, x2) without a call of
# the namedtuple's Python-level __new__
_new = tuple.__new__


def int_pair(value, what: str, error: type[ValueError] = LatticeError) -> Vec:
    """Read a JSON pair of integers; any other shape raises ``error``.

    Floats, strings and booleans are rejected rather than rounded.
    """
    if isinstance(value, (list, tuple)) and len(value) == 2:
        x1, x2 = value
        if type(x1) is int and type(x2) is int:  # not bool, float or str
            return _new(Vec, (x1, x2))
    raise error(f"{what} must be a pair of integers, got {value!r}")


def int_pairs(
    value, what: str, error: type[ValueError] = LatticeError, count: int | None = None
) -> list[Vec]:
    """Read a JSON list of integer pairs, of length ``count`` when given."""
    if not isinstance(value, (list, tuple)) or (count is not None and len(value) != count):
        size = "a list" if count is None else f"a list of {count}"
        raise error(f"{what} must be {size} integer pairs")
    return [int_pair(v, what, error) for v in value]


class Mat2(NamedTuple):
    """A 2x2 integer matrix, stored row-major.

    When a matrix represents a lattice basis, the basis vectors are its
    columns ``(a11, a21)`` and ``(a12, a22)``.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_columns(cls, c1: Vec, c2: Vec) -> "Mat2":
        return cls(c1.x1, c2.x1, c1.x2, c2.x2)

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def mul_vec(self, v: Vec) -> Vec:
        return Vec(self.a11 * v.x1 + self.a12 * v.x2, self.a21 * v.x1 + self.a22 * v.x2)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def inverse_unimodular(self) -> "Mat2":
        d = self.det()
        if d not in (1, -1):
            raise LatticeError("matrix is not unimodular")
        return Mat2(d * self.a22, -d * self.a12, -d * self.a21, d * self.a11)

    def rows(self) -> list[list[int]]:
        return [[self.a11, self.a12], [self.a21, self.a22]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def invariant_factors(m: Mat2) -> tuple[int, int]:
    """Invariant factor pair (delta, n) of the lattice spanned by the columns of m.

    delta is the gcd of the four entries and n = |det|/delta; delta always
    divides n.
    """
    d = m.det()
    if d == 0:
        raise LatticeError("degenerate lattice: basis matrix is singular")
    delta = math.gcd(m.a11, m.a12, m.a21, m.a22)
    return delta, abs(d) // delta


class _SublatticeFields(NamedTuple):
    basis: Mat2
    delta: int
    n: int


class Sublattice(_SublatticeFields):
    """A finite-index sublattice of Z^2 with cached invariant factors.

    Direct construction checks the factors against the basis;
    :meth:`from_matrix` computes them from it.
    """

    __slots__ = ()

    def __new__(cls, basis: Mat2, delta: int, n: int) -> "Sublattice":
        if invariant_factors(basis) != (delta, n):
            raise LatticeError("invariant factors do not match the basis")
        return tuple.__new__(cls, (basis, delta, n))

    @classmethod
    def from_matrix(cls, basis: Mat2) -> "Sublattice":
        # the factors come from the basis itself, so the constructor's
        # check would only compute them again
        return tuple.__new__(cls, (basis, *invariant_factors(basis)))

    @classmethod
    def rectangular(cls, delta: int, n: int) -> "Sublattice":
        """The lattice delta*Z x n*Z."""
        if delta < 1 or n < 1:
            raise LatticeError("invariant factors must be positive")
        return cls.from_matrix(Mat2(delta, 0, 0, n))

    @classmethod
    def zsquare(cls) -> "Sublattice":
        return cls.rectangular(1, 1)

    def det(self) -> int:
        return self.delta * self.n

    def is_proper(self) -> bool:
        return self.det() >= 2

    def contains(self, p: Vec) -> bool:
        # Cramer's rule: p is in the lattice iff both adjugate rows map it
        # into det * Z, and delta * n is |det|
        a11, a12, a21, a22 = self.basis
        x1, x2 = p
        d = self.delta * self.n
        return (x1 * a22 - x2 * a12) % d == 0 and (a11 * x2 - a21 * x1) % d == 0

    def to_obj(self) -> dict:
        if self.basis == Mat2(self.delta, 0, 0, self.n):
            return {"delta": self.delta, "n": self.n}
        return {"matrix": self.basis.rows()}

    @classmethod
    def from_obj(cls, obj: dict) -> "Sublattice":
        if isinstance(obj, dict) and "matrix" in obj:
            (a11, a12), (a21, a22) = int_pairs(obj["matrix"], "lattice 'matrix'", count=2)
            return cls.from_matrix(Mat2(a11, a12, a21, a22))
        if isinstance(obj, dict) and "delta" in obj and "n" in obj:
            return cls.rectangular(*int_pair([obj["delta"], obj["n"]], "lattice 'delta'/'n'"))
        raise LatticeError("lattice object needs either 'matrix' or 'delta'/'n'")


class StepMeasures(NamedTuple):
    small_f1: int
    large_f1: int
    small_f2: int
    large_f2: int


def steps(lattice: Sublattice, f1: Vec, f2: Vec) -> StepMeasures:
    """Small and large steps of a sublattice with respect to a basis of Z^2.

    The large f1-step generates {u : u*f1 in L}; the small f1-step generates
    the projection of L onto the f1 coordinate.  The product of the small
    f1-step and the large f2-step equals det L.
    """
    frame = Mat2.from_columns(f1, f2)
    if not frame.is_unimodular():
        raise LatticeError("steps require a unimodular basis of Z^2")
    c = frame.inverse_unimodular() @ lattice.basis
    small1 = math.gcd(c.a11, c.a12)
    small2 = math.gcd(c.a21, c.a22)
    d = abs(c.det())
    return StepMeasures(small1, d // small2, small2, d // small1)


class AffineMap(NamedTuple):
    """An affine map x -> linear @ x + translation."""

    linear: Mat2
    translation: Vec

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(Mat2.identity(), ORIGIN)

    def __call__(self, p: Vec) -> Vec:
        return self.linear.mul_vec(p) + self.translation

    def compose(self, other: "AffineMap") -> "AffineMap":
        """The map x -> self(other(x))."""
        return AffineMap(
            self.linear @ other.linear,
            self.linear.mul_vec(other.translation) + self.translation,
        )

    def is_automorphism_of(self, lattice: Sublattice) -> bool:
        return self.linear.is_unimodular() and lattice.contains(self.translation)

    def to_obj(self) -> dict:
        return {"linear": self.linear.rows(), "translation": list(self.translation)}
