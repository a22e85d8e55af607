"""Plain-integer polygon geometry used by the benchmark to make its inputs
and to re-check program outputs.

It deliberately imports nothing from ``latfree``: inputs and reference
checks must not change when the package's geometry changes.  Points are
``(x, y)`` tuples of ints; polygons are counter-clockwise vertex lists.
"""

from __future__ import annotations


def cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> list:
    """Strict convex hull, counter-clockwise from the smallest point
    (collinear points dropped).  Fewer than 3 vertices means degenerate."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(pts[::-1])
    verts = lower[:-1] + upper[:-1]
    return verts if len(verts) >= 3 else []


def is_strictly_convex_ccw(verts) -> bool:
    """Every turn is a strict left turn and the boundary winds once."""
    m = len(verts)
    if m < 3 or len(set(verts)) != m:
        return False
    if any(cross(verts[i - 2], verts[i - 1], verts[i]) <= 0 for i in range(m)):
        return False
    # a doubly wound star also turns left everywhere; its edge directions
    # wrap around the circle twice instead of once
    edges = [(verts[i][0] - verts[i - 1][0], verts[i][1] - verts[i - 1][1]) for i in range(m)]

    def half(e) -> int:
        return 0 if e[1] > 0 or (e[1] == 0 and e[0] > 0) else 1

    wraps = sum(1 for i in range(m) if half(edges[i - 1]) > half(edges[i]))
    return wraps == 1


def contains(verts, p) -> bool:
    """Closed containment in a counter-clockwise convex polygon."""
    m = len(verts)
    return all(cross(verts[i - 1], verts[i], p) >= 0 for i in range(m))


def free_of_grid(verts, delta: int, n: int) -> bool:
    """True iff no point of delta*Z x n*Z lies inside or on the polygon.

    Steps over grid points only, so moved polygons with large bounding
    boxes stay cheap; :func:`free_of_lattice` handles any basis."""
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    for x in range(-(-min(xs) // delta) * delta, max(xs) + 1, delta):
        for y in range(-(-min(ys) // n) * n, max(ys) + 1, n):
            if contains(verts, (x, y)):
                return False
    return True


def nu(delta: int, n: int) -> int:
    """The vertex count the theorem says forces a lattice point."""
    return 2 * n + 2 * min(delta, 3) - 3


def mat_mul(a, b):
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return ((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
            (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))


def random_unimodular(rng, words: int, reach: int):
    """A product of ``words`` random elementary integer matrices of determinant
    +-1 with shear entries in [-reach, reach]."""
    m = ((1, 0), (0, 1))
    for _ in range(words):
        k = rng.randint(-reach, reach)
        e = rng.choice((((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))))
        m = mat_mul(e, m)
    return m


def apply(linear, shift, p):
    (a11, a12), (a21, a22) = linear
    return (a11 * p[0] + a12 * p[1] + shift[0], a21 * p[0] + a22 * p[1] + shift[1])


def in_lattice(basis, p) -> bool:
    """Membership in the lattice spanned by the columns of ``basis``."""
    (a11, a12), (a21, a22) = basis
    d = a11 * a22 - a12 * a21
    return (p[0] * a22 - p[1] * a12) % d == 0 and (a11 * p[1] - a21 * p[0]) % d == 0


def free_of_lattice(verts, basis) -> bool:
    """True iff no point of the lattice lies inside or on a small polygon."""
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    return not any(
        in_lattice(basis, (x, y)) and contains(verts, (x, y))
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
    )
