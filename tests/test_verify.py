"""Suite engine: registry, determinism, isolation, report format."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from clifford_foliations import clifford, foliation, verify
from clifford_foliations.algebra import rng_from, sign_fixed_q
from clifford_foliations.cli import main
from clifford_foliations.clifford import (build_system, conjugate_system, sub_system,
                                          system_from_dict, system_to_dict)
from clifford_foliations.reports import CheckResult
from clifford_foliations.verify import (
    IncompatibleSuiteError,
    SUITE_IDS,
    SuiteConfig,
    compatible_suites,
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
            SuiteConfig("bogus", s22)

    def test_incompatibilities(self, s22):
        with pytest.raises(IncompatibleSuiteError):
            SuiteConfig("sphere_quotient", s22)
        with pytest.raises(IncompatibleSuiteError):
            SuiteConfig("factorization_m_plus_1", s22)
        with pytest.raises(IncompatibleSuiteError):
            SuiteConfig("diameter", s22)
        s41 = build_system(4, 1)
        with pytest.raises(IncompatibleSuiteError):
            SuiteConfig("focal_and_fibers", s41)
        s431 = build_system(4, 3, 1)
        with pytest.raises(IncompatibleSuiteError):
            SuiteConfig("homogeneous_orbits", s431)


ORBIT_SUITES = ("homogeneous_orbits", "normal_forms")


class TestOrbitGating:
    """The orbit suites run exactly on systems whose generators are the construction's."""

    @pytest.mark.parametrize("suite", ORBIT_SUITES)
    def test_identical_systems_pass(self, s22, suite):
        # sub_system(s, range(m+1)) is s's gather pair, so its reports are s's, bit for bit;
        # the identity conjugate is the same entries as a dense stack
        cfg = dict(seed=3, samples=60)
        built = run_suite(SuiteConfig(suite, s22, **cfg))
        whole = run_suite(SuiteConfig(suite, sub_system(s22, range(3)), **cfg))
        same = run_suite(SuiteConfig(suite, conjugate_system(s22, np.eye(s22.dim)), **cfg))
        assert built.passed and whole.passed and same.passed
        assert whole.to_json_dict() == built.to_json_dict()

    @pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 1), (2, 2), (4, 1), (4, 2), (4, 3)])
    def test_other_systems_refused(self, m, k):
        # every flipped class and every generic conjugate, saved and loaded too
        built = build_system(m, k)
        a = sign_fixed_q(rng_from(61, m, k).standard_normal((1, built.dim, built.dim)))[0]
        others = [build_system(m, k, flips) for flips in range(1, k + 1)]
        others.append(conjugate_system(built, a))
        for system in others + [system_from_dict(system_to_dict(t)) for t in others]:
            assert not set(ORBIT_SUITES) & set(compatible_suites(system))
            for suite in ORBIT_SUITES:
                with pytest.raises(IncompatibleSuiteError, match="unflipped"):
                    SuiteConfig(suite, system)
        assert set(ORBIT_SUITES) <= set(compatible_suites(built))

    def test_layout_built_once_per_system(self, monkeypatch):
        # the predicate is cached: compatible_suites, SuiteConfig's check and run_suite build
        # the construction once between them
        system = build_system(4, 1)
        calls = []
        construction = clifford._construction
        monkeypatch.setattr(clifford, "_construction",
                            lambda *args: calls.append(args) or construction(*args))
        compatible_suites(system)
        run_suite(SuiteConfig("homogeneous_orbits", system, seed=2, samples=10))
        assert calls == [(4, 1, 0)]

    def test_dimension_checked_on_every_system(self, s22):
        # a conjugate and a sub-system read l mod delta(m) as a built system does
        a = sign_fixed_q(rng_from(62).standard_normal((1, s22.dim, s22.dim)))[0]
        for system in (s22, conjugate_system(s22, a), sub_system(s22, [0, 2])):
            check = run_suite(SuiteConfig("relations", system)).checks[-1]
            assert (check.name, check.violation, check.passed) == ("dimension", 0.0, True)


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
    # second projection pass; quotient_metric (27 checks moved, 23 in the AVX2 family),
    # geodesics (23, 22), boundary_fibers (6, 7), sphere_quotient (1, 2) and fkm_consistency
    # (1, 1) re-pinned when fiber_sample became the one sampler and snapped every boundary
    # point to p/|p| (by <= 1.4e-15, 1.5e-15 in the AVX2 family); every suite but relations,
    # disk_image, factorization_m_plus_1, focal_and_fibers and diameter (sphere_quotient in
    # the AVX2 family) re-pinned when every row dot and norm became algebra.row_dots, one
    # pairwise sum of a C-ordered product, and quotient_lift's height _lift_height(|v|)
    # (168 checks moved, 122 in the AVX2 family, by <= 1.8e-15 but for quotient_metric's
    # lifted_great_circle: 25 by <= 2.2e-14, its largest falling 1.04e-13 -> 8.1e-14);
    # geodesics, quotient_metric, symmetry, invariants_classification, composed_identities,
    # focal_and_fibers and submersion_rank (the first four and composed_identities in the
    # AVX2 family) re-pinned when span_apply acted per irreducible copy wherever the
    # E_+-(P_0) blocks are equal copies (93 checks moved, 81 in the AVX2 family, by
    # <= 1.8e-15), and fkm_consistency (88 checks moved) and composed_identities (23, 25 in
    # the AVX2 family) when the FKM value checks read the direct quartic (by <= 3.8e-15)
    PLAN_DIGESTS = {
        AVX512: {
            "relations": "3134b2bf296504f5009f19bbeee6bd28e733dfa9ae31601f50604054c83b6bf5",
            "disk_image": "8b39d4bdd10630e97050149ceeeda871e335a143df92fd6a21165e32849b9908",
            "boundary_fibers": "22c93bbdf4b0be21ffa6ffdffbbc13ddc74ddcf8dc25dd61e92663b4cd838807",
            "factorization_m_plus_1":
                "600956b92295d45d071ba29ff1283e86edb01837687282439e0c55fdc232f3bb",
            "geodesics": "9f801b01a13899d7cf9ee02b626f3bf628795d18c0258881a8d4c1a9af68d10b",
            "quotient_metric": "9d81f49aab3676b7012993e68f324f7b4482717cf59c4cf54d35191438274d2c",
            "symmetry": "4aa834a136efc4735aa7e464a64bb816bc32012a993b0d04432953bfa31760b7",
            "fkm_consistency": "d16545d97ec7e54a51aa0697b89c141dd7bb2376ae453acba8c01ed63e201a06",
            "invariants_classification":
                "69e806e7aa87aaaedfe915f84889a16ce0214a45cec5e09863fcae808633350b",
            "homogeneous_orbits":
                "5f7f80aa39b410bbf6b86f851574b0d9d7ededa4c25ea1383fd91753c15d414f",
            "normal_forms": "b78a336cf7f9193b598922409dd3146ee13be41ceb4b12665f7a631e1dccc626",
            "focal_and_fibers": "7d97025ed73a48a0a334f50fee89dcd8c5b9eda3cd8bd87bb82f49a9a0516853",
            "submersion_rank": "526744ea474b2c6648210c2e897c42c078bdbbb35d68b632d76db9eabdc1e00f",
            "composed_identities":
                "c9d3cee9d17b37c1069a9cd300fcbb8f6fb17f282a3dbb5811056f2294d5beb4",
            "sphere_quotient": "4390845793841c749ada487538eebc6da24758a7e485ac4d75237e1a12fa666f",
            "diameter": "558bd441d5f819392118af5f927b88d7334c6e1979d14fef538717bcafedae36",
        },
        AVX2: {
            "relations": "3134b2bf296504f5009f19bbeee6bd28e733dfa9ae31601f50604054c83b6bf5",
            "disk_image": "8b39d4bdd10630e97050149ceeeda871e335a143df92fd6a21165e32849b9908",
            "boundary_fibers": "22c93bbdf4b0be21ffa6ffdffbbc13ddc74ddcf8dc25dd61e92663b4cd838807",
            "factorization_m_plus_1":
                "600956b92295d45d071ba29ff1283e86edb01837687282439e0c55fdc232f3bb",
            "geodesics": "ff4460c58613f51f11af597977e09428722dd1f8d8a83959861b2a499cc27d32",
            "quotient_metric": "3d610335f9436e1f93c4bed61a464d5099fc25e3ee6abd28a9c98e389986d123",
            "symmetry": "d99f34fbbe825157f3c10eb9719b7103a538a9c29d30fe622874e69e3ecada36",
            "fkm_consistency": "d16545d97ec7e54a51aa0697b89c141dd7bb2376ae453acba8c01ed63e201a06",
            "invariants_classification":
                "fddb31aa3275cd3c48a3314fbdd67e0af0ebaba0b1056425400b22a9ea3958b8",
            "homogeneous_orbits":
                "883aef4541829f8c31d4ff7e5cbf7a40d770a925ce7ff061b3f96f9603c4294e",
            "normal_forms": "ce0361fc03bbb73498e298a40baeac327e876d08858a2ba15c81fdde3ed4ed07",
            "focal_and_fibers": "2b359e216f426d1a8ee33e697df1ab02d52f748e37b1b26cc65360275dbca2b7",
            "submersion_rank": "526744ea474b2c6648210c2e897c42c078bdbbb35d68b632d76db9eabdc1e00f",
            "composed_identities":
                "f2a32176d69d9ed3e2c61add93ecc1d6811b0f9ed04eec51698db1a10fb30429",
            "sphere_quotient": "4390845793841c749ada487538eebc6da24758a7e485ac4d75237e1a12fa666f",
            "diameter": "ed639768f5c2e55ff4e5c2148ea5dc79be1e4e9a1fbed0bc86d1775c97bb5d23",
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
    # transnormality, by <= 1.4e-16; no verdict changed), and again when every leaf sample
    # became the spec's nearest leaf point of a uniform direction (26 of 1491 moved, 17 in
    # the AVX2 family, all in transnormality, by <= 1.4e-16; no verdict changed), and again
    # when fiber_sample became the one sampler and snapped every boundary point to p/|p|
    # (58 of 1491 moved, 55 in the AVX2 family, in five suites and none in transnormality,
    # by <= 1.4e-15, 1.5e-15 in the AVX2 family; no verdict changed), and again when every
    # row dot and norm became algebra.row_dots and quotient_lift's height _lift_height(|v|)
    # (254 of 1491 moved, 194 in the AVX2 family, in 12 suites, by <= 1.8e-15 but for
    # lifted_great_circle's 25, by <= 2.2e-14; no verdict changed), and again when
    # span_apply acted per irreducible copy wherever the E_+-(P_0) blocks are equal copies
    # (155 of 1491 moved, 143 in the AVX2 family, by <= 1.8e-15) and the FKM value checks
    # read the direct quartic (111 more moved, 113 in the AVX2 family, by <= 3.8e-15); no
    # verdict changed
    REPORT_DIGEST = {
        AVX512: "1972f4fd8c7ed97ddfba00622b01338e0d6d4d48d3e002d508e01df831505a1b",
        AVX2: "cbea29761bc91c0eda8b79e160905544d1a283965e332ac23bdbf9ca6e522975",
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
    # no_undercut values, by <= 1.4e-16), and again when every leaf sample became the
    # spec's nearest leaf point of a uniform direction (26 floats moved, 17 in the AVX2
    # family: composed_equidistance and no_undercut values, by <= 1.4e-16), and again when
    # every row dot and norm became algebra.row_dots (86 floats moved, 72 in the AVX2
    # family, by <= 2.4e-16), and again when span_apply acted per irreducible copy wherever
    # the E_+-(P_0) blocks are equal copies (62 floats moved in each family, by <= 2.8e-16)
    TRANSNORMALITY_DIGEST = {
        AVX512: "7048fa09d83cec4493736e4fca36d509d3f25c775deb7eae6551420e19d31fef",
        AVX2: "6ebc514e7f414a5cc1d70508385059197022b7a7209c39ad0bd1bd13dafd504d",
    }

    def test_transnormality_reports_are_pinned(self, seed7_report):
        assert suite_digests(seed7_report)["transnormality"] == pinned(self.TRANSNORMALITY_DIGEST)

    def test_seed_changes_violations_not_outcomes(self, s22):
        for suite in ("disk_image", "boundary_fibers", "symmetry"):
            a = run_suite(SuiteConfig(suite, s22, seed=1, samples=80, budget=dict(FAST_BUDGET)))
            b = run_suite(SuiteConfig(suite, s22, seed=2, samples=80, budget=dict(FAST_BUDGET)))
            assert a.passed and b.passed

    def test_headroom_on_reseeded_runs(self, s22):
        # every check with a nonzero tolerance keeps a 10x margin below it at any seed
        runs = [(suite, s22) for suite in ("disk_image", "geodesics", "symmetry",
                                           "fkm_consistency", "quotient_metric", "boundary_fibers",
                                           "composed_identities", "invariants_classification")]
        runs.append(("diameter", build_system(8, 1)))
        for seed in (3, 4):
            for suite, system in runs:
                report = run_suite(SuiteConfig(suite, system, seed=seed, samples=80,
                                               budget=dict(FAST_BUDGET)))
                for check in report.checks:
                    if check.tol > 0:
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

    def test_fkm_value_checks_read_the_direct_form(self, s22, monkeypatch):
        # the value checks evaluate the quartic itself, not 1 - 2 |pi_C|^2, so an error of
        # 1e-6 in the direct form (its sign the sign of x_0, so points of one leaf disagree)
        # fails each of them
        exact = verify.fkm_f0

        def off(system, x):
            return exact(system, x) + np.where(np.asarray(x)[..., 0] < 0, -1e-6, 1e-6)

        names = {"fkm_consistency": ["boundary_value", "focal_value", "half_radius_value"],
                 "composed_identities": ["equal_radius_law"]}
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(verify, "fkm_f0", off)
            for suite, checks in names.items():
                report = run_suite(SuiteConfig(suite, s22, seed=1, samples=80,
                                               budget=dict(FAST_BUDGET)))
                passed = {c.name: c.passed for c in report.checks}
                assert [passed[name] for name in checks] == [not patched] * len(checks)

    def test_nan_rows_fail_their_checks(self, s22, monkeypatch):
        # a check is its rows' worst excess: one NaN row reads NaN and fails it, whatever
        # the other rows read, in the one-sided bounds as in the two-sided gaps
        def nan_rows(*args, **kwargs):
            return np.full(np.shape(args[2])[:-1], np.nan)

        exact = verify.project_geodesic_params

        def nan_coordinate(*args):
            q = exact(*args)
            q[0, 1] = np.nan
            return q

        cases = [
            ("leaf_to_leaf_ambient_distance", nan_rows, "transnormality", s22,
             ["fiber_equidistance", "composed_equidistance", "no_undercut"]),
            ("composed_quotient_distance", nan_rows, "diameter", build_system(8, 2),
             ["diameter_upper", "diameter_attained"]),
            ("project_geodesic_params", nan_coordinate, "geodesics", s22, ["q_in_disk"]),
        ]
        for name, patch, suite, system, checks in cases:
            with monkeypatch.context() as patched:
                patched.setattr(verify, name, patch)
                report = run_suite(SuiteConfig(suite, system, seed=1, samples=40,
                                               budget=dict(FAST_BUDGET)))
            read = {c.name: c for c in report.checks}
            for check in checks:
                assert np.isnan(read[check].violation) and not read[check].passed, check


class TestReportFormat:
    def test_json_schema(self, s22):
        report = run_suite(SuiteConfig("relations", s22, seed=0, samples=10))
        payload = report.to_json_dict()
        assert set(payload) == {"suite", "seed", "samples", "checks", "pass", "system"}
        assert payload["system"] == {"m": 2, "k": 2, "kappa": None}
        for check in payload["checks"]:
            assert set(check) == {"name", "claim", "violation", "tol", "pass"}

    def test_check_verdict_follows_its_numbers(self):
        # the verdict is violation <= tol on the stored floats: above fails, NaN fails and
        # equal passes, and no verdict can be given beside the numbers
        assert not CheckResult("x", "y", 1.0, 0.0).passed
        assert not CheckResult("x", "y", float("nan"), 1.0).passed
        assert CheckResult("x", "y", 1e-12, 1e-12).passed
        check = CheckResult("x", "y", np.float64(0.5), np.int64(1))
        assert (type(check.violation), type(check.tol)) == (float, float)
        assert check.to_json_dict()["pass"] is True
        with pytest.raises(TypeError):
            CheckResult("x", "y", 1.0, 0.0, True)
        # one reduction: the violation is the worst row's excess, never negative, and NaN if
        # any row is NaN; no rows read 0 and -0.0 reads +0.0
        check = CheckResult("x", "y", [-1.0, np.nan], 0.0)
        assert np.isnan(check.violation) and not check.passed
        for rows in ([], [-0.0], [-1.0], -0.0):
            check = CheckResult("x", "y", rows, 0.0)
            assert check.violation == 0.0 and np.copysign(1.0, check.violation) == 1.0
        assert CheckResult("x", "y", np.array([[0.5, 2.0], [1.0, -3.0]]), 1.0).violation == 2.0
        assert CheckResult("x", "y", np.int64(3), 0.0).violation == 3.0

    def test_report_that_gains_a_failing_check_fails(self, s22):
        report = run_suite(SuiteConfig("relations", s22, seed=0, samples=10))
        assert report.passed and report.to_json_dict()["pass"] is True
        report.checks.append(CheckResult("x", "y", 1.0, 0.0))
        assert not report.passed and report.to_json_dict()["pass"] is False


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


def _broken(cfg):
    raise RuntimeError("no luck")


# a suite that applies to every system and raises
BROKEN = verify._SuiteDef(_broken, lambda s: None)


class TestRunMatrix:
    def test_empty_plan(self):
        reports, summary = run_matrix([])
        assert reports == [] and summary["total"] == 0
        assert summary["failed"] == [] and summary["errors"] == []

    def test_incompatible_config_refused_and_raising_suite_isolated(self, s22, monkeypatch):
        # a config that exists applies: building or replacing one for a suite the system
        # does not meet raises, so the only errors run_matrix isolates are suites that raise
        with pytest.raises(IncompatibleSuiteError, match="sphere quotient"):
            SuiteConfig("sphere_quotient", s22, seed=1, samples=10)
        with pytest.raises(IncompatibleSuiteError, match="disk quotient"):
            dataclasses.replace(SuiteConfig("focal_and_fibers", s22), system=build_system(4, 1))

        monkeypatch.setitem(verify._SUITES, "geodesics", BROKEN)
        plan = [
            SuiteConfig("relations", s22, seed=1, samples=10),
            SuiteConfig("geodesics", s22, seed=1, samples=10),
            SuiteConfig("disk_image", s22, seed=1, samples=50),
        ]
        reports, summary = run_matrix(plan)
        assert [r.suite for r in reports] == ["relations", "disk_image"]
        assert all(r.passed for r in reports)
        assert summary["total"] == 3 and summary["passed"] == 2 and summary["failed"] == []
        assert summary["errors"] == [{"suite": "geodesics", "seed": 1,
                                      "system": {"m": 2, "k": 2, "kappa": None},
                                      "error": "RuntimeError: no luck"}]

    def test_unreadable_profile_is_none(self, monkeypatch):
        # m = 4 and l = 4 (k = 1): P_0 = diag(1, 1, 1, 1, -1, -1, -1, -1) and four
        # identities, so the relations fail and the product, P_0, has trace 0: kappa = 0,
        # which no system of k = 1 has, so no profile can be read, in a report, a failed
        # entry or an error entry alike
        signs = np.ones((5, 8), dtype=np.int64)
        signs[0, 4:] = -1
        bad = clifford.CliffordSystem((np.tile(np.arange(8), (5, 1)), signs))
        assert (bad.m, bad.l, bad.k) == (4, 4, 1)
        report = run_suite(SuiteConfig("relations", bad))
        failing = {c.name: c.violation for c in report.checks if not c.passed}
        assert failing == {"anticommutation": 2.0}
        assert report.system is None and not report.passed

        monkeypatch.setitem(verify._SUITES, "geodesics", BROKEN)
        reports, summary = run_matrix([SuiteConfig("relations", bad),
                                       SuiteConfig("geodesics", bad)])
        assert [r.to_json_dict() for r in reports] == [report.to_json_dict()]
        assert summary["total"] == 2 and summary["passed"] == 0
        [failed], [error] = summary["failed"], summary["errors"]
        assert failed["system"] is None and error["system"] is None
        assert [c["name"] for c in failed["checks"]] == ["anticommutation"]
        assert error["error"] == "RuntimeError: no luck"

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
