"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  The numbered criteria pin the sample counts and tolerances;
nothing here is calibrated after the fact.
"""

import json
import time

import pytest

from clifford_foliations.clifford import build_system, delta, equivalence_profile
from clifford_foliations.homogeneity import classify_homogeneity
from clifford_foliations.verify import SuiteConfig, run_suite

FULL_MATRIX = [(m, k) for m in range(1, 13) for k in range(1, 5)
               if (m, k) != (1, 1) and 2 * k * delta(m) <= 512]

DISK_SYSTEMS = [(1, 3), (2, 2), (4, 2), (9, 1)]
SPHERE_SYSTEMS = [(2, 1), (4, 1), (8, 1)]

_cache = {}


def system(m, k, flips=0):
    key = (m, k, flips)
    if key not in _cache:
        _cache[key] = build_system(m, k, flips)
    return _cache[key]


def announce(number, description, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{mark}] criterion {number:2d}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def suite_violations(report):
    return {c.name: c.violation for c in report.checks}


def test_criterion_01_relations_exact():
    started = time.perf_counter()
    worst = 0.0
    for m, k in FULL_MATRIX:
        report = run_suite(SuiteConfig("relations", system(m, k)))
        worst = max(worst, max(c.violation for c in report.checks))
        assert report.passed
    elapsed = time.perf_counter() - started
    announce(1, "defining relations hold exactly across the full matrix",
             worst == 0.0 and elapsed <= 30.0,
             f"max violation {worst}, {elapsed:.1f}s")


def test_criterion_02_dimension_table():
    table_ok = [delta(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
    recursion_ok = all(delta(m) == 16 * delta(m - 8) for m in range(9, 17))
    spot_ok = delta(9) == 16 and delta(12) == 64
    announce(2, "irreducible dimension table and its period-8 recursion",
             table_ok and recursion_ok and spot_ok)


def test_criterion_03_disk_image():
    worst = 0.0
    for m, k in FULL_MATRIX:
        report = run_suite(SuiteConfig("disk_image", system(m, k), seed=31, samples=10**4))
        assert report.passed, (m, k, suite_violations(report))
        worst = max(worst, suite_violations(report)["disk_containment"])
    announce(3, "quotient values stay inside the closed unit disk "
                "(1e4 samples per system)", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_04_boundary_fibers():
    worst = 0.0
    for m, k in FULL_MATRIX:
        report = run_suite(SuiteConfig("boundary_fibers", system(m, k), seed=33, samples=10**3))
        assert report.passed, (m, k, suite_violations(report))
        v = suite_violations(report)
        worst = max(worst, v["fiber_projects_to_point"])
        assert v["eigenspace_dimension"] == 0.0
    announce(4, "boundary fibers project to their point and eigenspaces have "
                "dimension l", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_05_sphere_quotient():
    worst = 0.0
    for m, k in SPHERE_SYSTEMS:
        report = run_suite(SuiteConfig("sphere_quotient", system(m, k), seed=35,
                                       samples=10**4, budget={"targets": 100}))
        assert report.passed, (m, k, suite_violations(report))
        worst = max(worst, max(suite_violations(report).values()))
    announce(5, "sphere-quotient systems map onto the boundary with explicit "
                "preimages", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_06_surjectivity_and_submersion():
    worst_fiber = worst_fd = 0.0
    for m, k in DISK_SYSTEMS:
        fibers = run_suite(SuiteConfig("focal_and_fibers", system(m, k), seed=37, samples=10**3))
        assert fibers.passed, (m, k, suite_violations(fibers))
        worst_fiber = max(worst_fiber, suite_violations(fibers)["interior_fibers"])
        rank = run_suite(SuiteConfig("submersion_rank", system(m, k), seed=39,
                                     budget={"trials": 100}))
        assert rank.passed, (m, k, suite_violations(rank))
        assert suite_violations(rank)["jacobian_rank"] == 0.0
        worst_fd = max(worst_fd, suite_violations(rank)["finite_difference"])
    announce(6, "interior grid is hit, the differential has exact rank m+1, "
                "finite differences agree",
             worst_fiber <= 1e-9 and worst_fd <= 1e-6,
             f"fiber {worst_fiber:.2e}, fd {worst_fd:.2e}")


def test_criterion_07_factorization():
    report = run_suite(SuiteConfig("factorization_m_plus_1", system(1, 2), seed=41,
                                   samples=10**3))
    v = suite_violations(report)
    announce(7, "the disconnected case factors exactly through the extended system",
             report.passed and v["projection_factorizes"] == 0.0,
             f"witness {v['disconnected_witness']:.2e}")


def test_criterion_08_geodesics_and_quotient_metric():
    worst_res = worst_lift = worst_speed = 0.0
    for m, k in [(2, 2), (4, 2), (4, 1)]:
        geod = run_suite(SuiteConfig("geodesics", system(m, k), seed=43,
                                     budget={"geodesics": 100}))
        assert geod.passed, (m, k, suite_violations(geod))
        worst_res = max(worst_res, suite_violations(geod)["projected_geodesic"])
        metric = run_suite(SuiteConfig("quotient_metric", system(m, k), seed=45,
                                       budget={"geodesics": 50}))
        assert metric.passed, (m, k, suite_violations(metric))
        v = suite_violations(metric)
        worst_lift = max(worst_lift, v["lifted_great_circle"])
        worst_speed = max(worst_speed, v["unit_speed"])
    announce(8, "projected geodesics: residual, great-circle lift, unit speed",
             worst_res <= 1e-10 and worst_lift <= 1e-9 and worst_speed <= 1e-8,
             f"residual {worst_res:.2e}, lift {worst_lift:.2e}, speed {worst_speed:.2e}")


def test_criterion_09_symmetries():
    worst_reflect = worst_spin = 0.0
    for m, k in [(4, 2), (1, 2)]:
        report = run_suite(SuiteConfig("symmetry", system(m, k), seed=47, samples=10**3))
        assert report.passed, (m, k, suite_violations(report))
        v = suite_violations(report)
        worst_reflect = max(worst_reflect, v["reflection"])
        worst_spin = max(worst_spin, v["spin_rotation"])
    announce(9, "reflection and double-angle rotation identities",
             worst_reflect <= 1e-10 and worst_spin <= 1e-9,
             f"reflect {worst_reflect:.2e}, spin {worst_spin:.2e}")


def test_criterion_10_quartic_form_consistency():
    worst = value_worst = 0.0
    for m, k in [(2, 2), (4, 2), (8, 1), (1, 2), (5, 1)]:
        report = run_suite(SuiteConfig("fkm_consistency", system(m, k), seed=49,
                                       samples=10**4))
        assert report.passed, (m, k, suite_violations(report))
        v = suite_violations(report)
        worst = max(worst, v["two_evaluations"])
        value_worst = max(value_worst, v["boundary_value"], v.get("focal_value", 0.0))
    announce(10, "quartic form factors through the quotient map; special values "
                 "on focal sets", worst <= 1e-12 and value_worst <= 1e-10,
             f"consistency {worst:.2e}, values {value_worst:.2e}")


def test_criterion_11_invariant_classification():
    report = run_suite(SuiteConfig("invariants_classification", system(4, 3), seed=51,
                                   budget={"conjugations": 10}))
    assert report.passed, suite_violations(report)
    kappas = {equivalence_profile(system(4, 3, j)).kappa for j in range(4)}
    flip_free = equivalence_profile(system(3, 2, 0)) == equivalence_profile(system(3, 2, 1))
    drift = suite_violations(report)["conjugation_invariance"]
    announce(11, "trace invariant classifies: two rank-5 classes, conjugation "
                 "invariant, flip-insensitive off multiples of four",
             kappas == {1, 3} and flip_free and drift <= 1e-9,
             f"classes {sorted(kappas)}, drift {drift:.2e}")


def test_criterion_12_homogeneity():
    worst_orbit = worst_forms = 0.0
    for m in (1, 2, 4):
        for k in (2, 3):
            orbits = run_suite(SuiteConfig("homogeneous_orbits", system(m, k), seed=53,
                                           samples=10**3))
            assert orbits.passed, (m, k, suite_violations(orbits))
            worst_orbit = max(worst_orbit, suite_violations(orbits)["orbit_in_fiber"])
            forms = run_suite(SuiteConfig("normal_forms", system(m, k), seed=55,
                                          samples=10**3))
            assert forms.passed, (m, k, suite_violations(forms))
            worst_forms = max(worst_forms, suite_violations(forms)["orbit_constancy"],
                              suite_violations(forms)["fiber_constancy"])

    def expected_status(m, k, kappa):
        l = k * delta(m)
        if l == m:
            return "homogeneous" if m in (2, 4) else "non_homogeneous"
        if m in (1, 2):
            return "homogeneous"
        if m == 4:
            return "homogeneous" if kappa == k else "non_homogeneous"
        if l == m + 1:
            return "conditionally"
        return "non_homogeneous"

    table_ok = True
    for m, k in FULL_MATRIX:
        for flips in range(k + 1):
            profile = equivalence_profile(system(m, k, flips))
            if classify_homogeneity(profile).status != expected_status(m, k, profile.kappa):
                table_ok = False
    announce(12, "diagonal actions fill fibers; the decision table matches the "
                 "classification on every supported profile",
             worst_orbit <= 1e-10 and worst_forms <= 1e-9 and table_ok,
             f"orbit {worst_orbit:.2e}, forms {worst_forms:.2e}")


def test_criterion_13_composed_foliations():
    identities = run_suite(SuiteConfig("composed_identities", system(2, 2), seed=57,
                                       samples=4000))
    assert identities.passed, suite_violations(identities)
    vi = suite_violations(identities)

    trans = run_suite(SuiteConfig("transnormality", system(2, 2), seed=59,
                                  budget={"pairs": 100, "leaf_budget": 10**4}))
    assert trans.passed, suite_violations(trans)
    vt = suite_violations(trans)

    # the diameter suite also checks tensor invariance, over 1000 rotations
    diam_disk = run_suite(SuiteConfig("diameter", system(8, 2), seed=61, samples=10**4))
    assert diam_disk.passed, suite_violations(diam_disk)
    vd = suite_violations(diam_disk)
    diam_sphere = run_suite(SuiteConfig("diameter", system(8, 1), seed=63, samples=10**4))
    assert diam_sphere.passed, suite_violations(diam_sphere)

    announce(13, "composed-foliation identities, tensor invariance, "
                 "transnormality cross-check, quotient diameter",
             vi["membership_identities"] == 0.0 and vd["tensor_invariance"] <= 1e-10
             and vt["fiber_equidistance"] <= 1e-3 and vt["composed_equidistance"] <= 1e-2,
             f"tensor {vd['tensor_invariance']:.2e}, transnormal "
             f"{vt['composed_equidistance']:.2e}")


def test_criterion_14_determinism():
    ok = True
    for suite, m, k in [("disk_image", 2, 2), ("geodesics", 4, 2),
                        ("transnormality", 2, 2), ("symmetry", 1, 2),
                        ("diameter", 8, 1)]:
        cfg = dict(seed=65, samples=200, budget={"pairs": 3, "leaf_budget": 800,
                                                 "geodesics": 10})
        a = run_suite(SuiteConfig(suite, system(m, k), **cfg))
        b = run_suite(SuiteConfig(suite, system(m, k), **cfg))
        if [c.violation for c in a.checks] != [c.violation for c in b.checks]:
            ok = False
        if json.dumps(a.to_json_dict()) != json.dumps(b.to_json_dict()):
            ok = False
    announce(14, "re-running any suite with its seed reproduces violations "
                 "bit for bit", ok)
