"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import random
import time

import pytest

from latfree.core import E1, E2, Mat2, Sublattice, Vec
from latfree.polygon import (
    Polygon,
    apply_affine,
    bounding_stats,
    pick_identity,
    polygon_free_of,
)
from latfree.reduction import (
    classify_type,
    lattice_diameter,
    satisfies_type,
    slab_normalize,
)
from latfree.slopes import (
    check_profile_ledger,
    check_projection_bound,
    check_sublattice_projection_bound,
    check_width_bound,
    maximal_slopes,
    slope_profile,
)
from latfree.verify import (
    SearchBox,
    check_type_vertex_bound,
    construct_extremal,
    critical_vertex_count,
    enumerate_free_polygons,
    type_ii_bound_pipeline,
    verify_vertex_threshold,
)

from conftest import (
    Line,
    check_split_exclusion,
    chord_interval,
    random_convex_polygon,
    random_skew_slope_coords,
    random_splitting_instance,
    random_unimodular,
)

QUAD = Polygon([Vec(1, -1), Vec(4, 1), Vec(2, 4), Vec(-1, 2)])


@pytest.fixture(scope="session")
def classified_corpora(corpus_n2, corpus_n3):
    out = {}
    for n, corpus in ((2, corpus_n2), (3, corpus_n3)):
        out[n] = [(poly,) + classify_type(poly, n) for poly in corpus]
    return out


def test_criterion_1_nu_formula_and_extremal_constructor():
    start = time.perf_counter()
    assert critical_vertex_count(1, 2) == 3
    assert critical_vertex_count(2, 2) == 5
    assert critical_vertex_count(3, 3) == 9
    assert critical_vertex_count(1, 3) == 2 * 3 + 2 * 1 - 3 == 5
    built = 0
    for n in range(2, 7):
        for delta in range(1, n + 1):
            if n % delta != 0:
                continue
            nu = critical_vertex_count(delta, n)
            if nu <= 3:
                with pytest.raises(ValueError):
                    construct_extremal(delta, n)
                continue
            poly = construct_extremal(delta, n)
            assert len(poly) == nu - 1
            assert polygon_free_of(poly, Sublattice.rectangular(delta, n))
            built += 1
    elapsed = time.perf_counter() - start
    assert built >= 12
    assert elapsed < 1.0
    print(f"\n[criterion 1] nu formula and extremal constructor ({built} pairs, {elapsed:.3f}s): PASS")


def test_criterion_2_no_free_pentagon_for_doubled_lattice():
    start = time.perf_counter()
    lattice = Sublattice.rectangular(2, 2)
    box = SearchBox(-1, 3, -1, 3)
    sizes = [len(p) for p in enumerate_free_polygons(lattice, box, 3)]
    elapsed = time.perf_counter() - start
    assert max(sizes) == 4
    assert 4 in sizes
    assert all(s < 5 for s in sizes)
    assert elapsed < 60.0
    print(f"\n[criterion 2] doubled lattice: free quadrilaterals but no pentagon ({elapsed:.2f}s): PASS")


def test_criterion_3_even_ordinate_lattice_forces_containment():
    start = time.perf_counter()
    lattice = Sublattice.rectangular(1, 2)
    found = list(enumerate_free_polygons(lattice, SearchBox(0, 4, 0, 4), 3))
    elapsed = time.perf_counter() - start
    assert found == []
    assert elapsed < 60.0
    print(f"\n[criterion 3] every polygon meets a point with even ordinate ({elapsed:.2f}s): PASS")


def test_criterion_4_threshold_for_n3():
    start = time.perf_counter()
    lattice = Sublattice.rectangular(3, 3)
    box = SearchBox(-2, 5, -1, 4)
    report = verify_vertex_threshold(lattice, box)
    elapsed = time.perf_counter() - start
    assert report.max_vertices_found == 8 == report.nu - 1
    assert report.consistent
    assert report.witness is not None and len(report.witness) == 8
    assert polygon_free_of(report.witness, lattice)
    assert report.box == box and report.to_obj()["box"] == list(box)
    assert elapsed < 1800.0
    print(
        f"\n[criterion 4] n=3 exhaustive max is 8 over {report.instances_checked} polygons "
        f"({elapsed:.1f}s): PASS"
    )


def test_criterion_5_pick_identity_suite():
    rng = random.Random(1005)
    for _ in range(1000):
        result = pick_identity(random_convex_polygon(rng))
        assert result.holds
        assert result.area2 == 2 * result.interior + result.boundary - 2
    print("\n[criterion 5] Pick identity on 1000 random polygons: PASS")


def test_criterion_6_boundary_decomposition_suite():
    rng = random.Random(1006)
    for _ in range(1000):
        poly = random_convex_polygon(rng)
        ms = maximal_slopes(poly)
        assert sum(ms.edge_counts) + sum(ms.faces) == len(poly)
    print("\n[criterion 6] boundary decomposition on 1000 random polygons: PASS")


def test_criterion_7_slope_inequality_suite():
    rng = random.Random(1007)
    basis_pool = [(E1, E2)] + [
        (Vec(m.a11, m.a21), Vec(m.a12, m.a22)) for m in (random_unimodular(rng) for _ in range(8))
    ]
    rect_shapes = [(2, 2), (1, 2), (1, 3), (3, 3), (2, 4)]
    failures = []
    instances = 0
    start = time.perf_counter()
    while instances < 10_000:
        mode = rng.random()
        reports = []
        if mode < 0.6:
            inst = random_splitting_instance(rng, basis_pool)
            if inst is None:
                continue
            frame, slope = inst
            prof = slope_profile(frame, slope)
            reports.append(check_width_bound(slope))
            reports.append(check_projection_bound(prof))
            reports.append(check_profile_ledger(prof))
        elif mode < 0.8:
            delta, n = rect_shapes[rng.randrange(len(rect_shapes))]
            f1, f2 = basis_pool[rng.randrange(len(basis_pool))]
            inst = random_splitting_instance(rng, [(f1, f2)], scale=(delta, n))
            if inst is None:
                continue
            frame, slope = inst
            lattice = Sublattice.from_matrix(
                Mat2.from_columns(Vec(delta * f1.x1, delta * f1.x2), Vec(n * f2.x1, n * f2.x2))
            )
            prof = slope_profile(frame, slope)
            reports.append(check_width_bound(slope, lattice=lattice))
            reports.append(check_projection_bound(prof))
            reports.append(check_sublattice_projection_bound(prof, lattice))
            reports.append(check_profile_ledger(prof))
        else:
            m_param = rng.randint(1, 4)
            a_param = rng.randint(1, m_param)
            f1, f2 = basis_pool[rng.randrange(len(basis_pool))]
            coords = random_skew_slope_coords(rng, a_param, m_param)
            inst = random_splitting_instance(rng, [(f1, f2)], coords=coords)
            if inst is None:
                continue
            frame, slope = inst
            lattice = Sublattice.from_matrix(
                Mat2.from_columns(
                    f1 - Vec(a_param * f2.x1, a_param * f2.x2),
                    Vec(m_param * f2.x1, m_param * f2.x2),
                )
            )
            prof = slope_profile(frame, slope)
            width = check_width_bound(slope, lattice=lattice)
            # the sharpened height bound reads the generator's pair off the lattice
            assert width.details["skew"] == [a_param, m_param]
            reports.append(width)
            reports.append(check_projection_bound(prof))
            reports.append(check_profile_ledger(prof))
            if lattice.is_proper():
                reports.append(check_sublattice_projection_bound(prof, lattice))
        instances += 1
        for rep in reports:
            if not rep.ok:
                failures.append(rep)
    elapsed = time.perf_counter() - start
    if failures:
        print("\nminimal reproductions:")
        for rep in failures[:5]:
            print(json.dumps({"check": rep.name, **rep.counterexample}, sort_keys=True))
    assert not failures
    print(f"\n[criterion 7] slope inequalities on {instances} instances ({elapsed:.1f}s): PASS")


def test_criterion_8_normalization_and_classification(classified_corpora):
    start = time.perf_counter()
    checked = 0
    for n, rows in classified_corpora.items():
        lattice = Sublattice.rectangular(n, n)
        for poly, mapping, tag in rows:
            res = slab_normalize(poly, n)
            image = res.image
            stats = bounding_stats(image)
            assert -n + 1 <= stats.west and stats.east <= 2 * n - 1
            assert 0 <= res.diameter_line_c <= n - 1
            assert res.map.is_automorphism_of(lattice)
            chord = chord_interval(image, Line.vertical(res.diameter_line_c))
            ell = lattice_diameter(poly).length
            assert chord is not None
            assert math.floor(chord[1]) - math.ceil(chord[0]) + 1 == ell + 1
            for x1 in (0, n):
                side = chord_interval(image, Line.vertical(x1))
                if side is not None:
                    assert 0 <= side[0] <= side[1] <= n
            assert mapping.is_automorphism_of(lattice)
            assert satisfies_type(apply_affine(poly, mapping), tag)
            assert check_split_exclusion(image, n)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 8] normalization and classification on {checked} polygons ({elapsed:.1f}s): PASS")


def test_criterion_9_type_ii_pipeline(classified_corpora):
    z2 = Sublattice.zsquare()
    cases = [QUAD]
    for poly, mapping, tag in classified_corpora[3]:
        if tag.kind == "II":
            cases.append(apply_affine(poly, mapping))
    assert len(cases) >= 3
    for poly in cases:
        report = type_ii_bound_pipeline(poly, 3, z2)
        assert report.ok, report.counterexample
        assert report.details["two_n"] <= report.details["sum_bounds"]
        assert report.details["final"] == 4 * 3 + 4
        assert len(poly) <= 2 * 3 + 2
        bound_report = check_type_vertex_bound(
            poly, classify_type(poly, 3)[1], z2
        )
        assert bound_report.ok
    print(f"\n[criterion 9] type II pipeline on {len(cases)} polygons: PASS")

