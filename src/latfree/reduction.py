"""Lattice diameter, slab normalization, and the type I-VI classification
of polygons free of n*Z^2 points.

The classification works on a normalized image: the polygon is moved by an
affine automorphism of n*Z^2 into the slab -n+1 <= x1 <= 2n-1, with its
longest lattice string on a vertical line x1 = c, 0 <= c <= n-1, and with
its chords on the lines x1 = 0 and x1 = n confined to the unit-square
sides.  A decision table over which unit segments of the lines x2 = 0 and
x2 = n split the image then picks the type and the finishing automorphism.

Both the table key and the clauses of types II-VI come from one query,
:func:`_cell`: the cell [k*n, (k+1)*n] of a line x1 = c or x2 = c that
holds the line's chord, when the line splits the polygon, that is when c
lies strictly between the polygon's extremes on that axis.  Every chord
the package reads lies on such an axis line, and :func:`_chord` reads it
off the boundary edges that reach the line.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple, Optional

from .core import AffineMap, InvariantError, Mat2, Sublattice, Vec, xgcd
from .polygon import Polygon, Segment, apply_affine, lattice_points_in


class NotLatticeFreeError(ValueError):
    """Raised when an operation requires an n*Z^2-free polygon."""


class DiameterWitness(NamedTuple):
    length: int
    segment: Segment


class TypeTag(NamedTuple):
    kind: str  # one of "I".."VI"
    n: int


class SplitProfile(NamedTuple):
    """The table key of a normalized image.

    ``case`` is "A" when neither x1 = 0 nor x1 = n splits (no index is
    computed then), "B" when only x1 = 0 splits (after the initial
    reflection) and "C" when both do; ``i`` and ``j`` are the split indices
    on the lines x2 = 0 and x2 = n.
    """

    case: str
    i: Optional[int]
    j: Optional[int]


class ClassificationError(InvariantError):
    """Raised when the decision table has no row for a polygon, or the row's
    image fails the type's clause.

    Carries the input ``polygon`` and the ``profile`` (a :class:`SplitProfile`)
    of its normalized image.
    """

    def __init__(self, reason: str, polygon: Polygon, profile: SplitProfile):
        case, i, j = profile
        vertices = [tuple(v) for v in polygon.vertices]
        super().__init__(
            f"classification miss ({reason}): case {case}, split profile ({i}, {j}), "
            f"polygon {vertices}"
        )
        self.polygon = polygon
        self.profile = profile


class NormalizationResult(NamedTuple):
    map: AffineMap
    image: Polygon
    diameter_line_c: int
    diameter: DiameterWitness  # of the input polygon, whose string the map moves to x1 = c


def lattice_diameter(poly: Polygon) -> DiameterWitness:
    """Longest string of collinear integer points in the polygon, minus one.

    One integer clip of the polygon's lattice points (which
    :func:`slab_normalize` shares with its freeness test), then a pruned
    pass over their pairs; ties are broken by the lexicographically
    smallest endpoint pair.
    """
    return _diameter(lattice_points_in(poly))


def _diameter(pts: list[Vec]) -> DiameterWitness:
    # pts in lexicographic order, as lattice_points_in returns them.  The
    # pairs are visited in lexicographic order and only a strictly longer
    # string replaces the best, so the first longest pair is kept.  Every
    # skipped pair is strictly shorter than the best so far: gcd(dx, dy) is
    # at most |dx| and, for dy != 0, at most |dy|; in p's own column the
    # string to the column's last point is the longest.
    best = -1
    best_pair: Optional[tuple[Vec, Vec]] = None
    for i, p in enumerate(pts):
        px, py = p
        end = bisect_left(pts, (px + 1,), i + 1)  # the first point right of p's column
        top = pts[end - 1]
        if end - 1 > i and top[1] - py > best:
            best = top[1] - py
            best_pair = (p, top)
        for q in pts[bisect_left(pts, (px + best,), end) :]:
            qx, qy = q
            dy = qy - py
            if dy and -best < dy < best:
                continue
            g = math.gcd(qx - px, dy)
            if g > best:
                best = g
                best_pair = (p, q)
    if best_pair is None or best < 1:
        raise InvariantError("a polygon has at least two lattice points")
    return DiameterWitness(best, Segment(*best_pair))


def _chord(verts, axis: int, c: int) -> Optional[tuple[int, int, int, int]]:
    """The chord of the line x_axis = c on a counter-clockwise vertex
    sequence: its least and greatest other coordinate as
    ``(lo_num, lo_den, hi_num, hi_den)`` with positive denominators, or None
    when the line misses.

    Counter-clockwise, an edge running towards +x1 bounds the polygon from
    below and one running towards +x2 from the right; the reversed edges
    bound it from above and from the left.  Each chain spans the polygon's
    extent on the axis, so any of its edges that reaches the line gives
    that end (two meeting edges both give their vertex).
    """
    other = 1 - axis
    forward = backward = None
    ap, aq = verts[-1][axis], verts[-1][other]
    for b in verts:
        bp, bq = b[axis], b[other]
        if ap < bp:
            if ap <= c <= bp:
                den = bp - ap
                forward = (aq * den + (c - ap) * (bq - aq), den)
        elif bp < ap:
            if bp <= c <= ap:
                den = ap - bp
                backward = (bq * den + (c - bp) * (aq - bq), den)
        ap, aq = bp, bq
    if forward is None and backward is None:
        return None
    if forward is None or backward is None:
        raise InvariantError("a line meets only one chain of the polygon")
    lo, hi = (forward, backward) if axis == 0 else (backward, forward)
    return (*lo, *hi)


def _chord_cell_index(verts, x1: int, n: int) -> int:
    """Index u with the vertical chord at x1 inside the open strip (u*n, (u+1)*n),
    for a counter-clockwise vertex sequence.

    Zero when the line misses the polygon.  The chord of an n*Z^2-free
    polygon cannot touch a multiple of n, which the caller relies on.
    """
    chord = _chord(verts, 0, x1)
    if chord is None:
        return 0
    lo_num, lo_den, hi_num, hi_den = chord
    u = lo_num // (lo_den * n)
    if not (u * n * lo_den < lo_num and hi_num < (u + 1) * n * hi_den):
        raise InvariantError("chord touches a forbidden lattice point")
    return u


def slab_normalize(poly: Polygon, n: int) -> NormalizationResult:
    """Move an n*Z^2-free polygon into the slab -n+1 <= x1 <= 2n-1.

    The composed map is an affine automorphism of n*Z^2.  The image carries
    a longest lattice string on a line x1 = c with 0 <= c <= n-1, and its
    chords on x1 = 0 and x1 = n (when nonempty) lie on the unit-square
    sides [(0,0),(0,n)] and [(n,0),(n,n)].

    The map is built in plain integers and applied once: a rotation R
    taking the string's direction to e2, a shift (tx, 0) by a multiple of n
    that puts the string's line at x1 = c, then the vertical shear
    (x1, x2) -> (x1, k*x1 + x2 - u1*n) that moves the chords into the
    unit-square sides, read off the rotated and shifted vertices.
    """
    if n < 2:
        raise ValueError("slab normalization needs n >= 2")
    pts = lattice_points_in(poly)
    if any(not (x % n or y % n) for x, y in pts):  # a point of n*Z^2
        raise NotLatticeFreeError("polygon not lattice-free")

    diameter = _diameter(pts)
    (px, py), (qx, qy) = diameter.segment
    g = math.gcd(qx - px, qy - py)
    dx, dy = (qx - px) // g, (qy - py) // g
    # R = [[dy, -dx], [r21, r22]] takes (dx, dy) to e2; its determinant
    # dx*r21 + dy*r22 = +1 keeps the moved vertices counter-clockwise, and
    # the Bezout coefficient r21 is reduced mod |dy| so that R is canonical
    r11, r12 = dy, -dx
    if dy == 0:
        r21, r22 = dx, 0
    else:
        r21 = xgcd(dx, dy)[1] % abs(dy)
        r22 = (1 - dx * r21) // dy
    shift_count, c = divmod(r11 * px + r12 * py, n)
    tx = -shift_count * n
    moved = [(r11 * x + r12 * y + tx, r21 * x + r22 * y) for x, y in poly.vertices]
    u1 = _chord_cell_index(moved, 0, n)
    k = u1 - _chord_cell_index(moved, n, n)
    full = AffineMap(Mat2(r11, r12, k * r11 + r21, k * r12 + r22), Vec(tx, k * tx - u1 * n))
    image = apply_affine(poly, full)

    xs = [x for x, _ in image.vertices]
    if not (-n + 1 <= min(xs) and max(xs) <= 2 * n - 1):
        raise InvariantError("normalized image escapes the slab")
    if not full.is_automorphism_of(Sublattice.rectangular(n, n)):
        raise InvariantError("normalizing map is not an automorphism of n*Z^2")
    return NormalizationResult(full, image, c, diameter)


# --- type predicates -------------------------------------------------------


def _extent(verts, axis: int) -> tuple[int, int]:
    # the least and greatest coordinate x_axis of the vertices; the line
    # x_axis = c splits the polygon iff lo < c < hi
    coords = [v[axis] for v in verts]
    return min(coords), max(coords)


def _cell(verts, axis: int, c: int, n: int, extent: tuple[int, int]) -> Optional[int]:
    """The k with the axis chord :func:`_chord` of the line x_axis = c
    inside [k*n, (k+1)*n], for a counter-clockwise vertex sequence whose
    x_axis extent is ``extent``.

    None when the line does not split the polygon or when no such k
    exists.  A splitting line's chord has positive length, so k is unique.
    """
    lo, hi = extent
    if not lo < c < hi:
        return None
    chord = _chord(verts, axis, c)
    if chord is None:
        raise InvariantError("a splitting line meets the polygon")
    lo_num, lo_den, hi_num, hi_den = chord
    k = lo_num // (lo_den * n)
    return k if hi_num <= (k + 1) * n * hi_den else None


# The split clauses of types II-VI as (axis, m, cell) triples: the line
# x_axis = m*n splits with its chord in [cell*n, (cell+1)*n], or, for a
# None cell, does not split, i.e. m*n is at most the polygon's least or at
# least its greatest coordinate x_axis.  Type IV also keeps the lines
# x1 = -n and x1 = 2n away, which satisfies_type reads off the x1 extent.
_TYPE_CLAUSES: dict[str, tuple[tuple[int, int, Optional[int]], ...]] = {
    "II": ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0)),
    "III": ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, None)),
    "IV": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)),
    "V": ((1, 0, -1), (0, 0, 0), (0, -1, None), (1, 1, None)),
    "VI": ((1, 0, -1), (0, 0, 0), (1, 1, 0), (0, 1, None), (0, -1, None)),
}


def _clause_holds(verts, kind: str, n: int, extents: tuple) -> bool:
    """Walk the split clause of type ``kind`` (one of "II".."VI") on a
    counter-clockwise vertex sequence with x1 and x2 extents ``extents``."""
    clause = _TYPE_CLAUSES.get(kind)
    if clause is None:
        raise ValueError(f"unknown type tag {kind!r}")
    for axis, m, cell in clause:
        if cell is None:
            lo, hi = extents[axis]
            if lo < m * n < hi:
                return False
        elif _cell(verts, axis, m * n, n, extents[axis]) != cell:
            return False
    return True


def _in_axis_slab(lo: int, hi: int, n: int) -> bool:
    return hi <= (lo // n + 1) * n


def satisfies_type(poly: Polygon, tag: TypeTag) -> bool:
    """Re-verify the defining split/containment clause of a type tag."""
    n = tag.n
    if n < 1:
        raise ValueError("the type clauses need n >= 1")
    verts = poly.vertices
    west, east = x1 = _extent(verts, 0)
    if tag.kind == "I":
        return _in_axis_slab(west, east, n) or _in_axis_slab(*_extent(verts, 1), n)
    if tag.kind == "IV" and (west <= -n <= east or west <= 2 * n <= east):
        return False
    return _clause_holds(verts, tag.kind, n, (x1, _extent(verts, 1)))


# --- classification --------------------------------------------------------


def _split_index(verts, y: int, n: int, extent: tuple[int, int]) -> int:
    """Which of the three unit segments on the line x2 = y splits the polygon
    with vertices ``verts`` and x2 extent ``extent``.

    Returns 1, 2 or 3 for [(-n,y),(0,y)], [(0,y),(n,y)], [(n,y),(2n,y)],
    that is for the cells -1, 0 and 1 of the line, or 0 when none does.
    """
    cell = _cell(verts, 1, y, n, extent)
    return cell + 2 if cell in (-1, 0, 1) else 0


_IDENTITY = Mat2(1, 0, 0, 1)
_FLIP_X1 = Mat2(-1, 0, 0, 1)
_FLIP_X2 = Mat2(1, 0, 0, -1)
_HALF_TURN = Mat2(-1, 0, 0, -1)
_QUARTER_TURN = Mat2(0, -1, 1, 0)
_SWAP = Mat2(0, 1, 1, 0)
_IDENTITY_MAP = AffineMap.identity()
# the split index after the reflection x -> (n - x1, x2), by the index before
_MIRROR = (0, 3, 2, 1)

# Decision rows: split profile (i, j) -> (type, L, t), where the finishing
# automorphism is x -> L x + n*t.  Case B is the one-vertical-line
# configuration (the line x1 = 0 splits after an optional reflection); case C
# has both x1 = 0 and x1 = n splitting.  Profiles without a row, such as the
# excluded case C pairs (3, 1) and (1, 3), are classification misses.
#
# Case B (1, 1) has no row because it cannot occur.  There the chords on
# x2 = 0 and x2 = n lie in (-n, 0) and the chord on x1 = 0 lies in (0, n).
# A point of the image with x1 >= 0 and x2 <= 0 (or x2 >= n), joined to the
# chord on x1 = 0, would put a point of the x2 = 0 (x2 = n) chord at
# x1 >= 0, so the image meets x1 >= 0 only inside 0 < x2 < n.  Normalization
# puts a longest lattice string on a column x1 = c >= 0, so that string is
# (c, s)..(c, s + l) with 1 <= s and s + l <= n - 1.  The vertices
# D = (d1, d2) with d2 <= -1 and U = (u1, u2) with u2 >= n + 1 have
# d1, u1 < 0.  If u1 >= d1, the segment from D to (c, s) crosses x1 = u1 at
# height at most s, so the image holds (u1, s)..(u1, n + 1); otherwise the
# segment from U to (c, s + l) gives (d1, -1)..(d1, s + l).  Either string
# has at least l + 3 points, which contradicts l being the lattice diameter.
_CASE_B_ROWS: dict[tuple[int, int], tuple[str, Mat2, tuple[int, int]]] = {
    (0, 0): ("I", _IDENTITY, (0, 0)),
    (1, 0): ("V", _IDENTITY, (0, 0)),
    (0, 1): ("V", _FLIP_X2, (0, 1)),  # (x1, n - x2)
    (2, 0): ("V", _FLIP_X1, (0, 0)),  # (-x1, x2)
    (0, 2): ("V", _HALF_TURN, (0, 1)),  # (-x1, n - x2)
    (2, 2): ("III", _FLIP_X1, (1, 0)),  # (n - x1, x2)
    (1, 2): ("VI", _IDENTITY, (0, 0)),
    (2, 1): ("VI", _FLIP_X2, (0, 1)),  # (x1, n - x2)
}

_CASE_C_ROWS: dict[tuple[int, int], tuple[str, Mat2, tuple[int, int]]] = {
    (0, 0): ("I", _IDENTITY, (0, 0)),
    (2, 2): ("II", _IDENTITY, (0, 0)),
    (2, 0): ("III", _QUARTER_TURN, (1, 0)),  # (n - x2, x1)
    (0, 2): ("III", _SWAP, (0, 0)),  # (x2, x1)
    (2, 3): ("IV", _IDENTITY, (0, 0)),
    (1, 2): ("IV", _HALF_TURN, (1, 1)),  # (n - x1, n - x2)
    (2, 1): ("IV", _FLIP_X1, (1, 0)),  # (n - x1, x2)
    (3, 2): ("IV", _FLIP_X2, (0, 1)),  # (x1, n - x2)
}


def classify_type(poly: Polygon, n: int) -> tuple[AffineMap, TypeTag]:
    """Classify an n*Z^2-free polygon into one of the types I-VI.

    Returns an affine automorphism of n*Z^2 together with the tag; applying
    the map to the polygon yields an image that satisfies the tag's clause,
    which is re-verified with :func:`satisfies_type` before returning.
    Raises :class:`ClassificationError` when the table has no row for the
    split profile or the image fails the clause.
    """
    total, tag, _ = _classify(poly, n)
    return total, tag


def _classify(poly: Polygon, n: int) -> tuple[AffineMap, TypeTag, Polygon]:
    """:func:`classify_type` together with the image of the polygon.

    When only x1 = n splits, the table is read after the reflection
    x -> (n - x1, x2).  It swaps the outer segments 1 and 3 on each line
    x2 = y and keeps the middle one, so the split indices are read on the
    unreflected image and mirrored, and the reflection is folded into the
    finishing map, which is applied once (not at all when it is the
    identity).
    """
    norm = slab_normalize(poly, n)
    image, total = norm.image, norm.map

    verts = image.vertices
    west, east = _extent(verts, 0)
    left, right = west < 0 < east, west < n < east

    if not left and not right:
        profile = SplitProfile("A", None, None)
        kind = "I"
    else:
        x2 = _extent(verts, 1)
        i, j = _split_index(verts, 0, n, x2), _split_index(verts, n, n, x2)
        reflect = right and not left
        if reflect:
            i, j = _MIRROR[i], _MIRROR[j]
        case = "C" if left and right else "B"
        profile = SplitProfile(case, i, j)
        row = (_CASE_C_ROWS if case == "C" else _CASE_B_ROWS).get((i, j))
        if row is None:
            raise ClassificationError("no table row", poly, profile)
        kind, linear, (t1, t2) = row
        finish = AffineMap(linear, Vec(t1 * n, t2 * n))
        if reflect:
            finish = finish.compose(AffineMap(_FLIP_X1, Vec(n, 0)))  # x -> (n - x1, x2) first
        if finish != _IDENTITY_MAP:
            image = apply_affine(image, finish)
            total = finish.compose(total)

    tag = TypeTag(kind, n)
    if not satisfies_type(image, tag):
        raise ClassificationError(f"image fails type {kind}", poly, profile)
    return total, tag, image
