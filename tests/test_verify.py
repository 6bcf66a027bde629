"""Suite engine: registry, determinism, isolation, report format."""

import json

import pytest

from clifford_foliations.clifford import build_system
from clifford_foliations.verify import (
    IncompatibleSuiteError,
    SUITE_IDS,
    SuiteConfig,
    default_plan,
    run_matrix,
    run_suite,
)

EXPECTED_SUITES = {
    "relations", "disk_image", "boundary_fibers", "sphere_quotient",
    "focal_and_fibers", "submersion_rank", "factorization_m_plus_1",
    "geodesics", "quotient_metric", "symmetry", "fkm_consistency",
    "invariants_classification", "homogeneous_orbits", "normal_forms",
    "composed_identities", "transnormality", "diameter",
}

FAST_BUDGET = {"pairs": 2, "leaf_budget": 600, "geodesics": 6, "targets": 8,
               "conjugations": 2, "rotations": 60, "trials": 12}


@pytest.fixture(scope="module")
def s22():
    return build_system(2, 2)


class TestRegistry:
    def test_all_suites_present(self):
        assert set(SUITE_IDS) == EXPECTED_SUITES

    def test_unknown_suite(self, s22):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig("bogus", s22))

    def test_incompatibilities(self, s22):
        with pytest.raises(IncompatibleSuiteError):
            run_suite(SuiteConfig("sphere_quotient", s22))
        with pytest.raises(IncompatibleSuiteError):
            run_suite(SuiteConfig("factorization_m_plus_1", s22))
        with pytest.raises(IncompatibleSuiteError):
            run_suite(SuiteConfig("diameter", s22))
        s41 = build_system(4, 1)
        with pytest.raises(IncompatibleSuiteError):
            run_suite(SuiteConfig("focal_and_fibers", s41))
        s431 = build_system(4, 3, 1)
        with pytest.raises(IncompatibleSuiteError):
            run_suite(SuiteConfig("homogeneous_orbits", s431))


class TestDeterminism:
    @pytest.mark.parametrize("suite", ["disk_image", "geodesics", "symmetry",
                                       "transnormality", "normal_forms"])
    def test_bit_identical_reruns(self, s22, suite):
        cfg = dict(seed=5, samples=80, budget=dict(FAST_BUDGET))
        a = run_suite(SuiteConfig(suite, s22, **cfg))
        b = run_suite(SuiteConfig(suite, s22, **cfg))
        assert [c.violation for c in a.checks] == [c.violation for c in b.checks]
        assert json.dumps(a.to_json_dict(), sort_keys=True) \
            == json.dumps(b.to_json_dict(), sort_keys=True)

    def test_seed_changes_violations_not_outcomes(self, s22):
        for suite in ("disk_image", "boundary_fibers", "symmetry"):
            a = run_suite(SuiteConfig(suite, s22, seed=1, samples=80, budget=dict(FAST_BUDGET)))
            b = run_suite(SuiteConfig(suite, s22, seed=2, samples=80, budget=dict(FAST_BUDGET)))
            assert a.passed and b.passed

    def test_headroom_on_reseeded_runs(self, s22):
        # tight algebraic checks keep a 10x margin below tolerance at any seed
        for seed in (3, 4):
            for suite in ("disk_image", "geodesics", "symmetry", "fkm_consistency",
                          "quotient_metric", "boundary_fibers"):
                report = run_suite(SuiteConfig(suite, s22, seed=seed, samples=80,
                                               budget=dict(FAST_BUDGET)))
                for check in report.checks:
                    if check.headroom and check.tol > 0:
                        assert check.violation * 10.0 <= check.tol, \
                            f"{suite}/{check.name} at seed {seed}"


class TestReportFormat:
    def test_json_schema(self, s22):
        report = run_suite(SuiteConfig("relations", s22, seed=0, samples=10))
        payload = report.to_json_dict()
        assert set(payload) == {"suite", "seed", "samples", "checks", "pass", "system"}
        assert payload["system"] == {"m": 2, "k": 2, "kappa": None}
        for check in payload["checks"]:
            assert set(check) == {"name", "claim", "violation", "tol", "pass"}
        # wall time and code version are provenance only, never serialized
        assert "wall_time" not in payload and report.wall_time >= 0.0
        assert report.version


class TestConfigValidation:
    def test_rejects_bad_config(self, s22):
        with pytest.raises(ValueError):
            SuiteConfig("disk_image", s22, samples=0)


class TestRunMatrix:
    def test_empty_plan(self):
        reports, summary = run_matrix([])
        assert reports == [] and summary["total"] == 0
        assert summary["failed"] == [] and summary["errors"] == []

    def test_incompatible_entry_is_isolated(self, s22):
        plan = [
            SuiteConfig("relations", s22, seed=1, samples=10),
            SuiteConfig("sphere_quotient", s22, seed=1, samples=10),
            SuiteConfig("disk_image", s22, seed=1, samples=50),
        ]
        reports, summary = run_matrix(plan)
        assert len(reports) == 2 and all(r.passed for r in reports)
        assert summary["total"] == 3 and summary["passed"] == 2
        assert len(summary["errors"]) == 1
        assert "sphere_quotient" == summary["errors"][0]["suite"]

    def test_default_plan_full_width_passes(self):
        # every compatible suite on every built system up to dimension 64
        plan = default_plan(max_dim=64, seed=7, samples=150)
        assert plan, "plan should not be empty"
        reports, summary = run_matrix(plan)
        assert not summary["errors"]
        assert summary["failed"] == []
        assert summary["passed"] == summary["total"] == len(plan) == len(reports)
