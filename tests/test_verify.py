"""Suite engine: registry, determinism, isolation, report format."""

import hashlib
import json

import numpy as np
import pytest

from clifford_foliations.cli import main
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


@pytest.fixture(scope="module")
def seed7_report(tmp_path_factory):
    """The bytes `cfl report --max-dim 64 --seed 7 --out FILE` writes, run once."""
    out = tmp_path_factory.mktemp("report") / "seed7.json"
    assert main(["report", "--max-dim", "64", "--seed", "7", "--out", str(out)]) == 0
    return out.read_bytes()


def suite_digests(report: bytes) -> dict:
    """SHA-256 per suite of its reports in a report file, one sort_keys JSON line each."""
    digests = {}
    for entry in json.loads(report)["reports"]:
        line = json.dumps(entry, sort_keys=True) + "\n"
        digests.setdefault(entry["suite"], hashlib.sha256()).update(line.encode())
    return {suite: h.hexdigest() for suite, h in digests.items()}


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

    # SHA-256 of each suite's report JSON lines over the configs of
    # default_plan(64, seed=7, samples=300) other than transnormality, taken
    # with numpy 2.4.6 before the suites evaluated their points as row batches;
    # symmetry re-pinned when the spin symmetry became cos(theta) x + sin(theta) P(Qx);
    # composed_identities, invariants_classification and diameter re-pinned when each
    # drew its pairs, points or blocks in one call per quantity on its stream;
    # focal_and_fibers, submersion_rank, fkm_consistency, normal_forms and
    # composed_identities re-pinned when M+ and interior fibers were sampled in
    # E_+-(P_0) coefficients (62 floats moved, by <= 2.8e-12)
    PLAN_DIGESTS_NUMPY = "2.4.6"
    PLAN_DIGESTS = {
        "relations": "3134b2bf296504f5009f19bbeee6bd28e733dfa9ae31601f50604054c83b6bf5",
        "disk_image": "8b39d4bdd10630e97050149ceeeda871e335a143df92fd6a21165e32849b9908",
        "boundary_fibers": "8b95ac401f28a663b440a2475e752c881b7ef50f9c30297ac8b2541e6766e0b5",
        "factorization_m_plus_1":
            "433fd8d0c56b5b8e11f9ddc6b15b99b8e15a22c9c19e4b64d701308ecd057501",
        "geodesics": "14dcde8efffaea1bebe5ffda28039c52e90d8f2ff6cd1cc34dc6c3e7bd1bdadc",
        "quotient_metric": "c967c8279cd184ab4be1270f095708852486ba65375e3e5895ede783a8accd94",
        "symmetry": "14bf8d0ed4f78ef25d796bc8b66de0e723850342808b66c4cbe2075d1df73cd2",
        "fkm_consistency": "59d0a047531790afba9caa01b5341ec5600954b4c7f143f9e66c23caa5469a58",
        "invariants_classification":
            "f7480517c168ba4a0d6da8005e18a3c7c7b7dd58724587446d2b067434f8e2c9",
        "homogeneous_orbits": "98765cc184fc0554413f5ae0202baa557400508e3cb655298d47103d6debcac1",
        "normal_forms": "6a32695f7aad6515e7522dcda5e24ff1960e7e93c27e053edcd47ea401c67061",
        "focal_and_fibers": "c0f982f339659fbaf2754d5e11953afe5bd641dc09ee8eb08d4b7f5cec72d72a",
        "submersion_rank": "1f62a47689749cdfab6b07109ef710b62d5514f9ead018fe9cc63af34dad41e9",
        "composed_identities":
            "fa35cceb787ebc38c7d7c6dc5dcae8c99a7387da6adbed9ebdbaf221a5039c3b",
        "sphere_quotient": "8e922891a9991afdcb943783d1254850ab6c904f8daf4e567462a64c1cd61a79",
        "diameter": "34192336ff655fb1a987dfaed51657f96c05ba3c6fbdc3eee9e27c5594ab08fa",
    }

    # SHA-256 of the file `cfl report --max-dim 64 --seed 7 --out FILE` writes;
    # re-pinned with transnormality when the estimator's solves became LU, and
    # again when the Newton step applied its span element through span_apply
    # and fiber leaves were held to pi_C(y) itself, and again when M+ and interior
    # fibers were sampled in E_+-(P_0) coefficients
    REPORT_DIGEST = "31da9dfb541d7ef96c0878dc7cad8849c4ebb1746fe4b2ca1698573918f5704f"

    @pytest.mark.skipif(np.__version__ != PLAN_DIGESTS_NUMPY,
                        reason=f"plan digests were taken with numpy {PLAN_DIGESTS_NUMPY}")
    def test_seed7_report_is_pinned(self, seed7_report):
        assert hashlib.sha256(seed7_report).hexdigest() == self.REPORT_DIGEST

    @pytest.mark.skipif(np.__version__ != PLAN_DIGESTS_NUMPY,
                        reason=f"plan digests were taken with numpy {PLAN_DIGESTS_NUMPY}")
    def test_default_plan_reports_are_pinned(self, seed7_report):
        digests = suite_digests(seed7_report)
        del digests["transnormality"]
        assert digests == self.PLAN_DIGESTS

    # SHA-256 of the transnormality report JSON lines over all 28 of its
    # configs in default_plan(64, seed=7, samples=300), taken with numpy 2.4.6;
    # re-pinned when the estimator's Newton corrections and bordered systems
    # became LU solves (40 of the report's 2982 floats moved, by <= 7.2e-15), and
    # again when the Newton step applied 2 sum a_i P_i through span_apply and
    # fiber leaves were held to pi_C(y) itself (38 floats moved, by <= 1.34e-14), and
    # again when M+ and interior fibers were sampled in E_+-(P_0) coefficients (53
    # floats moved, by <= 1.9e-14, but for same_leaf_zero on (6, 1): 0 -> 1.49e-8,
    # arccos(1 - 2^-53), against its tolerance of 1e-6)
    TRANSNORMALITY_DIGEST = "07f7a731df209413a7497a30c8fffbf678bbe8b6b4cfc8fd72f9388af9d3b350"

    @pytest.mark.skipif(np.__version__ != PLAN_DIGESTS_NUMPY,
                        reason=f"plan digests were taken with numpy {PLAN_DIGESTS_NUMPY}")
    def test_transnormality_reports_are_pinned(self, seed7_report):
        assert suite_digests(seed7_report)["transnormality"] == self.TRANSNORMALITY_DIGEST

    def test_seed_changes_violations_not_outcomes(self, s22):
        for suite in ("disk_image", "boundary_fibers", "symmetry"):
            a = run_suite(SuiteConfig(suite, s22, seed=1, samples=80, budget=dict(FAST_BUDGET)))
            b = run_suite(SuiteConfig(suite, s22, seed=2, samples=80, budget=dict(FAST_BUDGET)))
            assert a.passed and b.passed

    def test_headroom_on_reseeded_runs(self, s22):
        # tight algebraic checks keep a 10x margin below tolerance at any seed
        runs = [(suite, s22) for suite in ("disk_image", "geodesics", "symmetry",
                                           "fkm_consistency", "quotient_metric", "boundary_fibers",
                                           "composed_identities", "invariants_classification")]
        runs.append(("diameter", build_system(8, 1)))
        for seed in (3, 4):
            for suite, system in runs:
                report = run_suite(SuiteConfig(suite, system, seed=seed, samples=80,
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
        for value in (0, -5):
            with pytest.raises(ValueError, match="leaf_budget"):
                SuiteConfig("diameter", s22, budget={"pairs": 4, "leaf_budget": value})
        # a misspelt knob would otherwise run the suite's default silently
        with pytest.raises(ValueError, match="'pair'.*pairs.*leaf_budget.*geodesics.*targets"
                                             ".*conjugations.*rotations.*trials"):
            SuiteConfig("transnormality", s22, budget={"pair": 1})


    def test_seed_range(self, s22):
        for seed in (-1, 2**48, 2**62):
            with pytest.raises(ValueError, match="seed"):
                SuiteConfig("disk_image", s22, seed=seed)
        for seed in (1.5, np.float64(2.0), "7"):
            with pytest.raises(TypeError, match="seed"):
                SuiteConfig("disk_image", s22, seed=seed)
        assert type(SuiteConfig("disk_image", s22, seed=np.int64(3)).seed) is int

    def test_counts_are_integers(self, s22):
        # a fraction or a bool would run (truncated) and land in the report
        for samples in (2.5, True):
            with pytest.raises(TypeError, match="samples"):
                SuiteConfig("disk_image", s22, samples=samples)
        for budget in ({"pairs": 2.5}, {"geodesics": True}):
            with pytest.raises(TypeError, match=f"{next(iter(budget))} must be an integer"):
                SuiteConfig("geodesics", s22, budget=budget)
        config = SuiteConfig("disk_image", s22, samples=np.int64(8), budget={"pairs": np.int64(2)})
        assert type(config.samples) is int and config.knob("pairs", 1) == 2

    @pytest.mark.parametrize("suite", ["geodesics", "quotient_metric", "homogeneous_orbits",
                                       "normal_forms", "composed_identities", "transnormality"])
    def test_largest_seed_runs(self, s22, suite):
        # every seed derived from the largest one, up to seed * 20000 + i, fits in int64
        config = SuiteConfig(suite, s22, seed=2**48 - 1, samples=20, budget=dict(FAST_BUDGET))
        assert run_suite(config).passed


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
