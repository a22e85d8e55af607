"""Seeded inputs for the three workloads, made with the benchmark's own
integer code (``intgeom``) and no ``latfree`` calls, so the inputs stay
the same when the enumerator or the geometry changes.
"""

from __future__ import annotations

import random

from intgeom import apply, cross, free_of_grid, hull, mat_mul, random_unimodular

# Reference answers that come from an independent fan DP, not from the DFS
# under test: (delta, n, box) -> (max vertices, number of free polygons).
# ``None`` is the default slab box [-n+1, 2n-1]^2.
DP_REFERENCE = {
    (2, 2, None): (4, 483),
    (1, 3, None): (4, 4562),
    (3, 3, "-2,5,-1,4"): (8, 39712),
}

# Matrix jobs on small boxes; only the threshold itself is checked there.
_SMALL_MATRIX_JOBS = [(2, 4, "0,4,0,4"), (4, 4, "0,4,0,4")]
# Four more (1,3) jobs in random bases make the median job one of five
# with the same cost, so item_p50_ms is a median over many samples.
_MATRIX_REPEATS = 4

ENUMERATE_JOB = {"delta": 3, "n": 3, "box": "-2,5,-1,4"}
ENUMERATE_SAMPLE = 400
CLASSIFY_WINDOW_ITEMS = 2400
CLASSIFY_STRADDLE_ITEMS = 1600


def _random_basis(rng, delta: int, n: int) -> list:
    """The lattice delta*Z x n*Z written in a random basis diag(delta, n) @ V.

    The lattice, and so the answer and the search cost, do not depend on
    the seed; the reader, the invariant factors and the general-basis
    membership test still see a non-diagonal matrix.
    """
    while True:
        v = random_unimodular(rng, words=4, reach=2)
        basis = mat_mul(((delta, 0), (0, n)), v)
        if basis[0][1] != 0 or basis[1][0] != 0:
            return [list(basis[0]), list(basis[1])]


def verify_jobs(seed: int) -> list[dict]:
    """Rectangular jobs with DP-confirmed answers, then seeded matrix jobs."""
    rng = random.Random(seed)
    jobs = []
    for (delta, n, box), (vmax, count) in DP_REFERENCE.items():
        jobs.append({"lattice": {"delta": delta, "n": n}, "delta": delta, "n": n,
                     "box": box, "ref_max": vmax, "ref_count": count})
    vmax, count = DP_REFERENCE[(1, 3, None)]
    for _ in range(_MATRIX_REPEATS):
        jobs.append({"lattice": {"matrix": _random_basis(rng, 1, 3)}, "delta": 1, "n": 3,
                     "box": None, "ref_max": vmax, "ref_count": count})
    for delta, n, box in _SMALL_MATRIX_JOBS:
        jobs.append({"lattice": {"matrix": _random_basis(rng, delta, n)}, "delta": delta,
                     "n": n, "box": box, "ref_max": None, "ref_count": None})
    return jobs


def enumerate_job(seed: int) -> dict:
    """The fixed (3,3) stream plus a seeded sample of output lines to re-check."""
    rng = random.Random(seed)
    _, count = DP_REFERENCE[(ENUMERATE_JOB["delta"], ENUMERATE_JOB["n"], ENUMERATE_JOB["box"])]
    return {**ENUMERATE_JOB, "ref_count": count,
            "sample": sorted(rng.sample(range(count), ENUMERATE_SAMPLE))}


def _window_hull(rng, n: int) -> list:
    # a few random points in a window about one lattice cell wide
    w = rng.randint(n - 1, n + 1)
    ox, oy = rng.randrange(n), rng.randrange(n)
    k = rng.randint(3, 7)
    return hull((ox + rng.randint(0, w), oy + rng.randint(0, w)) for _ in range(k))


def _straddle_hull(rng, n: int) -> list:
    # one vertex beyond each side of the unit n-square, like (1,-1), (4,1),
    # (2,4), (-1,2) for n = 3, with every square corner cut off; then up
    # to two stray points nearby when the hull stays free
    corners = ((n, 0), (n, n), (0, n), (0, 0))
    while True:
        quad = [
            (rng.randint(1, n - 1), -rng.randint(1, 2)),
            (n + rng.randint(1, 2), rng.randint(1, n - 1)),
            (rng.randint(1, n - 1), n + rng.randint(1, 2)),
            (-rng.randint(1, 2), rng.randint(1, n - 1)),
        ]
        if all(cross(quad[k - 1], quad[k], corners[k - 1]) < 0 for k in range(4)):
            break
    strays = [(rng.randint(-2, n + 2), rng.randint(-2, n + 2)) for _ in range(rng.randint(0, 2))]
    verts = hull(quad + strays)
    return verts if free_of_grid(verts, n, n) else hull(quad)


def _free_polygon(rng, n: int, make) -> list:
    while True:
        verts = make(rng, n)
        if verts and free_of_grid(verts, n, n):
            return verts


def classify_corpus(seed: int) -> list[dict]:
    """n*Z^2-free polygons for n in {3, 4}, each moved by a random affine
    automorphism of n*Z^2 (unimodular linear part, shift in n*Z^2)."""
    rng = random.Random(seed)
    strata = [("window", _window_hull, CLASSIFY_WINDOW_ITEMS),
              ("straddle", _straddle_hull, CLASSIFY_STRADDLE_ITEMS)]
    items = []
    for stratum, make, count in strata:
        for i in range(count):
            n = 3 + i % 2
            verts = _free_polygon(rng, n, make)
            linear = random_unimodular(rng, words=3, reach=2)
            shift = (n * rng.randint(-2, 2), n * rng.randint(-2, 2))
            moved = [apply(linear, shift, v) for v in verts]
            rng.shuffle(moved)
            items.append({"n": n, "stratum": stratum, "vertices": [list(v) for v in moved]})
    return items
