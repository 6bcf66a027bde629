"""Suite engine: registry, determinism, isolation, report format."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from clifford_foliations import foliation
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
from kernel_family import AVX2, AVX512, pinned

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

    # Each pin below is keyed by numeric-kernel family (kernel_family.py). Its history
    # is the AVX512 family's; the AVX2 family's values were first taken when the pins
    # were keyed by family.

    # SHA-256 of each suite's report JSON lines over the configs of
    # default_plan(64, seed=7, samples=300) other than transnormality, taken
    # with numpy 2.4.6 before the suites evaluated their points as row batches;
    # symmetry re-pinned when the spin symmetry became cos(theta) x + sin(theta) P(Qx);
    # composed_identities, invariants_classification and diameter re-pinned when each
    # drew its pairs, points or blocks in one call per quantity on its stream;
    # focal_and_fibers, submersion_rank, fkm_consistency, normal_forms and
    # composed_identities re-pinned when M+ and interior fibers were sampled in
    # E_+-(P_0) coefficients (62 floats moved, by <= 2.8e-12); every suite but
    # relations, disk_image, invariants_classification, normal_forms and diameter
    # re-pinned when pi_C was evaluated in E_+-(P_0) coefficients (266 floats moved,
    # by <= 5.6e-12, the largest in submersion_rank's finite differences); quotient_metric
    # (52 checks moved), geodesics (40), symmetry (38), fkm_consistency (18),
    # boundary_fibers (10), invariants_classification (10), normal_forms (2) and
    # factorization_m_plus_1 (1) re-pinned when every span element acted in E_+-(P_0)
    # coefficients through one l x l block (by <= 5.8e-15); composed_identities (40 checks
    # moved: apex_to_boundary from <= 1.05e-8 to <= 5.6e-16 on 26 configs), quotient_metric
    # (6) and diameter (1) re-pinned when every distance became one unit_angle, and
    # fkm_consistency (27) when its direct form took <P_i x, x> from the generator images
    # (by <= 4.4e-16 but for apex_to_boundary); normal_forms (1 check moved: fiber_constancy
    # on (1, 2), 1.9e-15 -> 1.1e-16) re-pinned when M+ samples on l = m+1 systems took a
    # second projection pass
    PLAN_DIGESTS = {
        AVX512: {
            "relations": "3134b2bf296504f5009f19bbeee6bd28e733dfa9ae31601f50604054c83b6bf5",
            "disk_image": "8b39d4bdd10630e97050149ceeeda871e335a143df92fd6a21165e32849b9908",
            "boundary_fibers": "cdd850d7b7ccbcf4c2314b2d6db4ddd0e4eb8794cdc7f75816a825fd4e968be9",
            "factorization_m_plus_1":
                "600956b92295d45d071ba29ff1283e86edb01837687282439e0c55fdc232f3bb",
            "geodesics": "5c0f576be21c2c4655353cbb50b5a4ac2ebf3f7aade13a91114c254667014c78",
            "quotient_metric": "556a8d52bc2e7f92cdd6f4237a00038f0f6b51545102a746e3988f0bbac6ea46",
            "symmetry": "0f96cf1d934c797cc0ade9635ef291be2afb474de89478074e111a51fd31f1cb",
            "fkm_consistency": "06f99f77186627aafc5ab0ef1da6bd7a6f884b2453ccca11825252ff5f9733bd",
            "invariants_classification":
                "c1defa433385e82a47ad055d619638815582d8b29f41d630806eae91f95b603e",
            "homogeneous_orbits":
                "64d30520c7dc36e83d2e978a3d68a6bc083cdba4401239cedf9039e0fb05567e",
            "normal_forms": "10368c6984fa3f0d0e2bad79f5c60adaa29f09038bc23a2899dd15a7f10749d8",
            "focal_and_fibers": "926935c53d663a5cbf394a8bbc5a793f07595482f41b82a8fc8529250b51298c",
            "submersion_rank": "7095e0652c137177066fed3a889bde618ac4fab07673f029c2d8e9f377e5ccda",
            "composed_identities":
                "e26c6837204acc8cb36a238b47d4a25ebcba63c743c3b2b5bc034de43fed4c04",
            "sphere_quotient": "f452777506353c2274da073481d07c5dd82d6322a249f93ef5bee57624c60724",
            "diameter": "558bd441d5f819392118af5f927b88d7334c6e1979d14fef538717bcafedae36",
        },
        AVX2: {
            "relations": "3134b2bf296504f5009f19bbeee6bd28e733dfa9ae31601f50604054c83b6bf5",
            "disk_image": "8b39d4bdd10630e97050149ceeeda871e335a143df92fd6a21165e32849b9908",
            "boundary_fibers": "cdd850d7b7ccbcf4c2314b2d6db4ddd0e4eb8794cdc7f75816a825fd4e968be9",
            "factorization_m_plus_1":
                "600956b92295d45d071ba29ff1283e86edb01837687282439e0c55fdc232f3bb",
            "geodesics": "e606496b359b23c0d91f8de16774175ce6cac085e9b1d4855075d72b94489038",
            "quotient_metric": "fdb409e2b63193ed9c6638e898fe9e6aee88ea1a1a7f0399253b2e5ee8747146",
            "symmetry": "03c911240637d60dbd970dd594b922080068f45c644ca413fa14dc4b234de204",
            "fkm_consistency": "d96d6da640a0914541e923579fd494531690f4f8b3171c85d58e19f603492cc1",
            "invariants_classification":
                "4238dfd8a43a8b43058049f892d81e8cb9d6e92497c9481f657d9318e9c8770f",
            "homogeneous_orbits":
                "5b5991d212b759f5b44403c788a085b9bee7216a1f5edd35d8f33d12bcb19a1c",
            "normal_forms": "484ac567da02723d7efe7cded44773a6b4dca69710ed84ecea67a6a71b987024",
            "focal_and_fibers": "2b359e216f426d1a8ee33e697df1ab02d52f748e37b1b26cc65360275dbca2b7",
            "submersion_rank": "8400eefa92065a761cafa0b6426297ad86a6df19278202e17cac492dcafe2023",
            "composed_identities":
                "2b5b403dccdb884d6027e11b770613db2ad85aad51c2099610c6c920e8b91556",
            "sphere_quotient": "f452777506353c2274da073481d07c5dd82d6322a249f93ef5bee57624c60724",
            "diameter": "40363dc5eee7b4fbece245b603885a7c117d3ee563fffa0be8492d57c5773a69",
        },
    }

    # SHA-256 of the file `cfl report --max-dim 64 --seed 7 --out FILE` writes;
    # re-pinned with transnormality when the estimator's solves became LU, and
    # again when the Newton step applied its span element through span_apply
    # and fiber leaves were held to pi_C(y) itself, and again when M+ and interior
    # fibers were sampled in E_+-(P_0) coefficients, and again when the estimator
    # returned chord angles, and again when pi_C was evaluated in E_+-(P_0)
    # coefficients (357 of 2982 floats moved, by <= 5.6e-12; no verdict changed), and
    # again when every span element acted in E_+-(P_0) coefficients through one l x l
    # block (254 of 1491 check violations moved, by <= 5.8e-15; no verdict changed), and
    # again when every distance became one unit_angle and fkm_consistency's direct form
    # took the generator images (129 of 1491 moved, by <= 7.1e-16 but for apex_to_boundary's
    # 26, which fell from <= 1.05e-8 to <= 5.6e-16; no verdict changed), and again when
    # the estimator restored its trial points by fiber transport (112 of 1491 moved, all
    # in transnormality, by <= 5.2e-12; no verdict changed), and again when the estimator
    # drew its leaf samples as whole chunks from two child streams (97 of 1491 moved, all
    # in transnormality, by <= 3.0e-11; no verdict changed), and again when the estimator's
    # leaf directions started at the spec's nearest leaf point and M+ samples on l = m+1
    # systems took a second projection pass (48 of 1491 moved, 47 in the AVX2 family, by
    # <= 5.8e-15: all in transnormality but normal_forms' fiber_constancy on (1, 2); no
    # verdict changed), and again when the Newton step on fiber leaves solved the reduced
    # system of m+2 unknowns (15 of 1491 moved, 17 in the AVX2 family, all in
    # transnormality, by <= 1.4e-16; no verdict changed)
    REPORT_DIGEST = {
        AVX512: "880356c68cd274b3564bc53fb12f6e562b4e879d2efd4126dc7280340629aa5e",
        AVX2: "124fe0d7c8dce43ecf63a6effe218a91ae1985a98af3c422bef34f38763a8d83",
    }

    def test_seed7_report_is_pinned(self, seed7_report):
        assert hashlib.sha256(seed7_report).hexdigest() == pinned(self.REPORT_DIGEST)

    def test_default_plan_reports_are_pinned(self, seed7_report):
        digests = suite_digests(seed7_report)
        del digests["transnormality"]
        assert digests == pinned(self.PLAN_DIGESTS)

    # SHA-256 of the transnormality report JSON lines over all 28 of its
    # configs in default_plan(64, seed=7, samples=300), taken with numpy 2.4.6;
    # re-pinned when the estimator's Newton corrections and bordered systems
    # became LU solves (40 of the report's 2982 floats moved, by <= 7.2e-15), and
    # again when the Newton step applied 2 sum a_i P_i through span_apply and
    # fiber leaves were held to pi_C(y) itself (38 floats moved, by <= 1.34e-14), and
    # again when M+ and interior fibers were sampled in E_+-(P_0) coefficients (53
    # floats moved, by <= 1.9e-14, but for same_leaf_zero on (6, 1): 0 -> 1.49e-8,
    # arccos(1 - 2^-53), against its tolerance of 1e-6), and again when the estimator
    # returned the chord angle 2 arcsin(|x - z|/2) to the nearest point z it found
    # (103 floats moved: 75 equidistance and no_undercut values by <= 1.2e-14, and
    # same_leaf_zero from 0 to <= 3.9e-15 on 27 configs and on (6, 1) from 1.49e-8 to 3.1e-16),
    # and again when pi_C was evaluated in E_+-(P_0) coefficients (91 floats moved, by <= 6.4e-15),
    # and again when every span element acted in E_+-(P_0) coefficients through one l x l
    # block (83 floats moved, by <= 3.3e-16), and again when every distance became one
    # unit_angle (55 floats moved, by <= 7.1e-16), and again when every trial point was
    # restored by one fiber transport (112 floats moved, by <= 5.2e-12: no_undercut's
    # largest fell from 1.3e-12 to 4.9e-15 and same_leaf_zero's rose to 5.2e-12), and
    # again when the leaf samples became one draw of whole chunks from two child streams,
    # cut to the budget (97 floats moved: same_leaf_zero's 28 by <= 3.0e-11, its largest
    # 5.2e-12 -> 2.97e-11; composed_equidistance's and no_undercut's 28 each by <= 4.6e-15;
    # fiber_equidistance's 13 by <= 1.1e-16), and again when the estimator's leaf directions
    # started at the spec's nearest leaf point, so no Newton step moves them (47 floats moved,
    # 46 in the AVX2 family: composed_equidistance's 26 and no_undercut's 21 (20), by
    # <= 5.8e-15, their largest 5.9e-15 -> 3.3e-16), and again when the Newton step on
    # fiber leaves solved gm y = -h in m+2 unknowns instead of the bordered system (15
    # floats moved, 17 in the AVX2 family: same_leaf_zero, fiber_equidistance and
    # no_undercut values, by <= 1.4e-16)
    TRANSNORMALITY_DIGEST = {
        AVX512: "587bbd44c3294915d64842b6a7f1bbc26f613b07ac8b3dfb3b00dc4d83922b60",
        AVX2: "30b229247c3e3c221ba4732643be7c07f170fba68c5c08686cad28ff688bf1ab",
    }

    def test_transnormality_reports_are_pinned(self, seed7_report):
        assert suite_digests(seed7_report)["transnormality"] == pinned(self.TRANSNORMALITY_DIGEST)

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


class TestCheckSensitivity:
    def test_fkm_two_evaluations_sees_an_error_in_pi_c(self, s22, monkeypatch):
        # the direct form takes <P_i x, x> from the generator images, so an error in
        # one coordinate of pi_C's E+-(P_0) kernel shows in direct - factored
        exact = foliation._quadratic_values

        def off(system, x):
            v = exact(system, x)
            v[..., 1] += 1e-6
            return v

        monkeypatch.setattr(foliation, "_quadratic_values", off)
        report = run_suite(SuiteConfig("fkm_consistency", s22, seed=1, samples=80))
        check = next(c for c in report.checks if c.name == "two_evaluations")
        assert check.violation >= 1e-7 and not check.passed


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
        # every compatible suite on build_system(m, k), k <= 4, up to dimension 64
        plan = default_plan(max_dim=64, seed=7, samples=150)
        assert plan, "plan should not be empty"
        reports, summary = run_matrix(plan)
        assert not summary["errors"]
        assert summary["failed"] == []
        assert summary["passed"] == summary["total"] == len(plan) == len(reports)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 18: the m = 1 height leaf is two fibers, and the "
                              "estimator's descent settles on the far one")
    def test_transnormality_on_a_class_beyond_the_plan(self):
        # build_system(1, 16) (2l = 32) is in the family but outside default_plan's k <= 4;
        # with the plan's seed and budgets, one height pair's estimate reads 0.270 above
        # the cone metric, against composed_equidistance's tolerance of 1e-2
        config = next(c for c in default_plan(max_dim=8) if c.suite == "transnormality")
        report = run_suite(dataclasses.replace(config, system=build_system(1, 16)))
        assert [c.name for c in report.checks if not c.passed] == []
