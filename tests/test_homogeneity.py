"""Group actions on fibers, normal forms, and the homogeneity decision table."""

import numpy as np
import pytest

from clifford_foliations.algebra import max_abs, rng_from, sample_unit_vectors
from clifford_foliations.clifford import EquivalenceProfile, build_system, delta, equivalence_profile
from clifford_foliations.foliation import boundary_fiber_sample, fiber_sample, pi_c
from clifford_foliations.homogeneity import (
    FIELD_DIM,
    FIELD_FOR_M,
    classify_homogeneity,
    diagonal_act,
    normal_form,
    sample_group_element,
)


class TestGroupSampling:
    @pytest.mark.parametrize("field,k", [("R", 2), ("R", 4), ("C", 1), ("C", 3),
                                         ("H", 1), ("H", 2), ("H", 3)])
    def test_real_representation_orthogonal(self, field, k):
        for seed in range(5):
            g = sample_group_element(field, k, seed)
            mat = g.action_matrix()
            n = k * FIELD_DIM[field]
            assert mat.shape == (n, n)
            assert max_abs(mat.T @ mat - np.eye(n)) <= 1e-12

    def test_determinism(self):
        a = sample_group_element("H", 3, 42)
        b = sample_group_element("H", 3, 42)
        assert np.array_equal(a.entries, b.entries)
        c = sample_group_element("H", 3, 43)
        assert not np.array_equal(a.entries, c.entries)

    def test_special_determinants(self):
        g = sample_group_element("R", 4, 1)
        assert np.linalg.det(g.entries[..., 0]) == pytest.approx(1.0, abs=1e-12)
        gc = sample_group_element("C", 3, 2)
        zc = gc.entries[..., 0] + 1j * gc.entries[..., 1]
        assert np.linalg.det(zc) == pytest.approx(1.0, abs=1e-12)

    def test_sp1_is_unit_quaternion(self):
        g = sample_group_element("H", 1, 3)
        assert abs(np.linalg.norm(g.entries[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seed_array_equals_single_seeds(self, field, k):
        # at (C, 3) an array-wide phase exp differs from the scalar one in the last bit
        seeds = 500 * k + np.arange(64)
        g = sample_group_element(field, k, seeds)
        d = FIELD_DIM[field]
        assert g.entries.shape == (64, k, k, d)
        mats = g.action_matrix()
        assert mats.shape == (64, k * d, k * d)
        x = sample_unit_vectors(rng_from(k), 2 * k * d, 64)
        gx = diagonal_act(g, x)
        for j, seed in enumerate(seeds):
            one = sample_group_element(field, k, int(seed))
            assert one.entries.tobytes() == g.entries[j].tobytes()
            assert one.action_matrix().tobytes() == mats[j].tobytes()
            assert diagonal_act(one, x[j]).tobytes() == gx[j].tobytes()


    def test_seeds_must_be_integers(self):
        for seeds in (1.5, np.array([1.0, 2.0])):
            with pytest.raises(TypeError, match="^seeds must be an integer, got"):
                sample_group_element("R", 2, seeds)
        with pytest.raises(ValueError, match="^seeds must be at least 0, got -3$"):
            sample_group_element("C", 2, -3)


class TestDiagonalAction:
    @pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (2, 3), (4, 2), (4, 3)])
    def test_preserves_quotient_map(self, m, k):
        system = build_system(m, k)
        field = FIELD_FOR_M[m]
        worst = 0.0
        for i in range(60):
            g = sample_group_element(field, k, 7000 + i)
            x = sample_unit_vectors(rng_from(100 + i), system.dim, 1)[0]
            worst = max(worst, float(np.abs(
                pi_c(system, diagonal_act(g, x)) - pi_c(system, x)).max()))
        assert worst <= 1e-10

    def test_identity_like_behavior(self):
        system = build_system(2, 2)
        g = sample_group_element("C", 2, 11)
        x = sample_unit_vectors(rng_from(12), system.dim, 5)
        gx = diagonal_act(g, x)
        np.testing.assert_allclose(np.linalg.norm(gx, axis=1), 1.0, atol=1e-12)

    def test_identity_element_acts_trivially(self):
        from clifford_foliations.homogeneity import GroupElement
        entries = np.zeros((2, 2, 4))
        entries[0, 0, 0] = entries[1, 1, 0] = 1.0
        identity = GroupElement("H", 2, entries)
        x = sample_unit_vectors(rng_from(21), 16, 4)
        np.testing.assert_array_equal(diagonal_act(identity, x), x)

    def test_dimension_mismatch(self):
        g = sample_group_element("R", 3, 0)
        with pytest.raises(ValueError):
            diagonal_act(g, np.zeros(4))
        stack = sample_group_element("C", 2, np.arange(3))
        with pytest.raises(ValueError):
            diagonal_act(stack, np.zeros((2, 8)))


class TestNormalForm:
    def test_already_normal(self):
        # (u, v) = (e1, 0)
        x = np.zeros(4)
        x[0] = 1.0
        nf = normal_form(x, "R")
        assert (nf.u1, nf.v2) == (1.0, 0.0)
        np.testing.assert_array_equal(nf.v1, [0.0])

    def test_complex_worked_example(self):
        # u = (0, 1)/sqrt2, v = (i, 0)/sqrt2: frozen (1/sqrt2, 0, 1/sqrt2)
        x = np.array([0, 0, 1, 0, 0, 1, 0, 0], dtype=float) / np.sqrt(2)
        nf = normal_form(x, "C")
        assert nf.u1 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        np.testing.assert_allclose(nf.v1, [0.0, 0.0], atol=1e-12)
        assert nf.v2 == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_unit_decomposition_invariant(self):
        rng = rng_from(13)
        for field, k in (("R", 3), ("C", 2), ("H", 2)):
            dim = 2 * k * FIELD_DIM[field]
            for x in sample_unit_vectors(rng, dim, 30):
                nf = normal_form(x, field)
                total = nf.u1 ** 2 + float(nf.v1 @ nf.v1) + nf.v2 ** 2
                assert abs(total - 1.0) <= 1e-12

    def test_zero_u_branch(self):
        # u = 0 forces the representative (0, e1): v1 real positive, v2 = 0
        x = np.zeros(8)
        x[5] = 1.0  # a v-component of C^2 x C^2
        nf = normal_form(x, "C")
        assert nf.u1 == 0.0
        np.testing.assert_allclose(nf.v1, [1.0, 0.0], atol=1e-12)
        assert nf.v2 == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.zeros(8)
        x[0] = bad
        with pytest.raises(ValueError):
            normal_form(x, "C")

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2)])
    def test_constant_on_orbits_and_fibers(self, m, k):
        system = build_system(m, k)
        field = FIELD_FOR_M[m]
        rng = rng_from(14)
        v = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
        fiber = fiber_sample(system, v, 40, 15)
        nfs = np.stack([normal_form(z, field).as_array() for z in fiber])
        assert np.abs(nfs - nfs[0]).max() <= 1e-9
        g = sample_group_element(field, k, 16)
        moved = diagonal_act(g, fiber)
        nfs2 = np.stack([normal_form(z, field).as_array() for z in moved])
        assert np.abs(nfs2 - nfs).max() <= 1e-9

    @pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (4, 1)])
    def test_orbit_constancy_seed_sweep(self, m, k):
        # uniform points, then points with |u| in [0.01, 0.1]: there
        # |v|^2 - |v1|^2 loses eps / |u|^2, whose square root is far above
        # the suite's 1e-9 wherever v2 vanishes (always when k = 1)
        field = FIELD_FOR_M[m]
        l = k * FIELD_DIM[field]
        worst = 0.0
        for seed in range(200):
            rng = rng_from(seed, 18)
            x = sample_unit_vectors(rng, 2 * l, 1)[0]
            if seed % 2:
                u_norm = rng.uniform(0.01, 0.1)
                x[:l] *= u_norm / np.linalg.norm(x[:l])
                x[l:] *= np.sqrt(1.0 - u_norm ** 2) / np.linalg.norm(x[l:])
            moved = diagonal_act(sample_group_element(field, k, seed), x)
            worst = max(worst, float(np.abs(normal_form(x, field).as_array()
                                            - normal_form(moved, field).as_array()).max()))
        assert worst <= 1e-9

    def test_form_determines_fiber(self):
        system = build_system(2, 2)
        rng = rng_from(17)
        x = sample_unit_vectors(rng, system.dim, 120)
        pis = pi_c(system, x)
        nfs = np.stack([normal_form(z, "C").as_array() for z in x])
        for i in range(0, 120, 3):
            for j in range(0, 120, 3):
                pi_close = np.abs(pis[i] - pis[j]).max() <= 1e-8
                nf_close = np.abs(nfs[i] - nfs[j]).max() <= 1e-9
                assert pi_close == nf_close

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            normal_form(np.ones(4), "R")

    def test_rejects_unknown_field(self):
        # as sample_group_element does, for a point and for rows
        x = np.eye(4)[:2]
        for point in (x, x[0]):
            with pytest.raises(ValueError, match="^unknown field 'Q'$"):
                normal_form(point, "Q")
        with pytest.raises(ValueError, match="^unknown field 'Q'$"):
            sample_group_element("Q", 2, 0)

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 1), (2, 2), (4, 1), (4, 2)])
    def test_rows_equal_single_points(self, m, k):
        # uniform points, a point with u = 0 and a boundary fiber, in one call
        system = build_system(m, k)
        field = FIELD_FOR_M[m]
        x = sample_unit_vectors(rng_from(19, m, k), system.dim, 40)
        x[3, :system.l] = 0.0
        x[3] /= np.linalg.norm(x[3])
        p = sample_unit_vectors(rng_from(20, m, k), m + 1, 1)[0]
        x = np.concatenate([x, boundary_fiber_sample(system, p, 8, 21)])
        forms = normal_form(x, field)
        assert forms.u1.shape == forms.v2.shape == (len(x),)
        rows = forms.as_array()
        assert rows.shape == (len(x), FIELD_DIM[field] + 2)
        assert forms.u1[3] == 0.0
        for row, z in zip(rows, x):
            assert row.tobytes() == normal_form(z, field).as_array().tobytes()
        with pytest.raises(ValueError):
            normal_form(np.concatenate([x[:2], np.ones((1, system.dim))]), field)


def expected_verdict(m, k, kappa):
    """The decision table, written out independently as literal data."""
    l = k * delta(m)
    if l == m:
        return "homogeneous" if m in (2, 4) else "non_homogeneous"
    if m == 1:
        return "homogeneous"
    if m == 2:
        return "homogeneous"
    if m == 4:
        return "homogeneous" if kappa == k else "non_homogeneous"
    if l == m + 1:
        return "conditionally"
    return "non_homogeneous"


class TestClassification:
    def test_table_on_all_supported_profiles(self):
        for m in range(1, 13):
            for k in range(1, 5):
                if (m, k) == (1, 1) or 2 * k * delta(m) > 512:
                    continue
                for flips in range(k + 1):
                    profile = equivalence_profile(build_system(m, k, flips))
                    verdict = classify_homogeneity(profile)
                    assert verdict.status == expected_verdict(m, k, profile.kappa), \
                        f"profile {profile}"

    def test_group_names(self):
        assert classify_homogeneity(EquivalenceProfile(1, 3)).group == "SO(3) diagonal"
        assert classify_homogeneity(EquivalenceProfile(2, 4)).group == "SU(4) diagonal"
        assert classify_homogeneity(EquivalenceProfile(4, 2, 2)).group == "Sp(2) diagonal"
        assert classify_homogeneity(EquivalenceProfile(2, 1)).group == "U(1)"
        assert classify_homogeneity(EquivalenceProfile(4, 1, 1)).group == "Sp(1)"

    def test_hopf_and_exceptional_cases(self):
        assert classify_homogeneity(EquivalenceProfile(8, 1, 1)).status == "non_homogeneous"
        assert classify_homogeneity(EquivalenceProfile(9, 1)).status == "non_homogeneous"
        assert classify_homogeneity(EquivalenceProfile(4, 3, 1)).status == "non_homogeneous"
        assert classify_homogeneity(EquivalenceProfile(4, 3, 3)).status == "homogeneous"

    def test_disconnected_cases_flagged(self):
        assert classify_homogeneity(EquivalenceProfile(3, 1)).status == "conditionally"
        assert classify_homogeneity(EquivalenceProfile(7, 1)).status == "conditionally"

    def test_unsupported(self):
        with pytest.raises(ValueError):
            classify_homogeneity(EquivalenceProfile(1, 1))


class TestFiberWitnesses:
    def test_boundary_orbit_matches_fiber(self):
        # on the sphere-quotient rank-3 system the circle action fills fibers
        system = build_system(2, 2)
        p = sample_unit_vectors(rng_from(18), 3, 1)[0]
        x = boundary_fiber_sample(system, p, 3, 19)
        g = sample_group_element("C", 2, 20)
        np.testing.assert_allclose(pi_c(system, diagonal_act(g, x)),
                                   pi_c(system, x), atol=1e-10)
