"""Group actions on fibers, normal forms, and the homogeneity decision table."""

import numpy as np
import pytest

from clifford_foliations.algebra import max_abs, rng_from, sample_unit_vectors
from clifford_foliations.clifford import EquivalenceProfile, build_system, delta, equivalence_profile
from clifford_foliations.foliation import boundary_fiber_sample, fiber_sample, pi_c
from clifford_foliations.homogeneity import (
    ORBIT_RANKS,
    classify_homogeneity,
    diagonal_act,
    normal_form,
    sample_group_element,
)

# test ids name the field F of dimension m
FIELD_IDS = {1: "R", 2: "C", 4: "H"}
SAMPLING_CASES = [(1, 2), (1, 4), (2, 1), (2, 3), (4, 1), (4, 2), (4, 3)]


def entries(mat, m):
    """Entries of the element g with action matrix mat, (..., k, k, m) with [j, i] = g_ji:
    in block (i, j), column m j and rows m i to m i + m - 1 hold g_ji."""
    k = mat.shape[-1] // m
    columns = mat.reshape(mat.shape[:-2] + (k, m, k, m))[..., 0]  # [..., i, :, j]
    return np.moveaxis(columns, -1, -3)


class TestGroupSampling:
    @pytest.mark.parametrize("m,k", SAMPLING_CASES,
                             ids=[f"{FIELD_IDS[m]}-{k}" for m, k in SAMPLING_CASES])
    def test_real_representation_orthogonal(self, m, k):
        for seed in range(5):
            mat = sample_group_element(m, k, seed)
            n = k * m
            assert mat.shape == (n, n)
            assert max_abs(mat.T @ mat - np.eye(n)) <= 1e-12

    def test_determinism(self):
        a = sample_group_element(4, 3, 42)
        b = sample_group_element(4, 3, 42)
        assert np.array_equal(a, b)
        c = sample_group_element(4, 3, 43)
        assert not np.array_equal(a, c)

    def test_special_determinants(self):
        g = entries(sample_group_element(1, 4, 1), 1)
        assert np.linalg.det(g[..., 0]) == pytest.approx(1.0, abs=1e-12)
        gc = entries(sample_group_element(2, 3, 2), 2)
        zc = gc[..., 0] + 1j * gc[..., 1]
        assert np.linalg.det(zc) == pytest.approx(1.0, abs=1e-12)

    def test_sp1_is_unit_quaternion(self):
        g = entries(sample_group_element(4, 1, 3), 4)
        assert abs(np.linalg.norm(g[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", ORBIT_RANKS, ids=FIELD_IDS.get)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seed_array_equals_single_seeds(self, m, k):
        # at (C, 3) an array-wide phase exp differs from the scalar one in the last bit
        seeds = 500 * k + np.arange(64)
        mats = sample_group_element(m, k, seeds)
        assert mats.shape == (64, k * m, k * m)
        x = sample_unit_vectors(rng_from(k), 2 * k * m, 64)
        gx = diagonal_act(mats, x)
        for j, seed in enumerate(seeds):
            one = sample_group_element(m, k, int(seed))
            assert one.tobytes() == mats[j].tobytes()
            assert diagonal_act(one, x[j]).tobytes() == gx[j].tobytes()


    def test_seeds_must_be_integers(self):
        for seeds in (1.5, np.array([1.0, 2.0])):
            with pytest.raises(TypeError, match="^seeds must be an integer, got"):
                sample_group_element(1, 2, seeds)
        with pytest.raises(ValueError, match="^seeds must be at least 0, got -3$"):
            sample_group_element(2, 2, -3)


class TestDiagonalAction:
    @pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (2, 3), (4, 2), (4, 3)])
    def test_preserves_quotient_map(self, m, k):
        system = build_system(m, k)
        worst = 0.0
        for i in range(60):
            g = sample_group_element(m, k, 7000 + i)
            x = sample_unit_vectors(rng_from(100 + i), system.dim, 1)[0]
            worst = max(worst, float(np.abs(
                pi_c(system, diagonal_act(g, x)) - pi_c(system, x)).max()))
        assert worst <= 1e-10

    def test_identity_like_behavior(self):
        system = build_system(2, 2)
        g = sample_group_element(2, 2, 11)
        x = sample_unit_vectors(rng_from(12), system.dim, 5)
        gx = diagonal_act(g, x)
        np.testing.assert_allclose(np.linalg.norm(gx, axis=1), 1.0, atol=1e-12)

    def test_identity_element_acts_trivially(self):
        x = sample_unit_vectors(rng_from(21), 16, 4)
        np.testing.assert_array_equal(diagonal_act(np.eye(8), x), x)

    def test_dimension_mismatch(self):
        g = sample_group_element(1, 3, 0)
        with pytest.raises(ValueError):
            diagonal_act(g, np.zeros(4))
        stack = sample_group_element(2, 2, np.arange(3))
        with pytest.raises(ValueError):
            diagonal_act(stack, np.zeros((2, 8)))


class TestNormalForm:
    def test_already_normal(self):
        # (u, v) = (e1, 0)
        x = np.zeros(4)
        x[0] = 1.0
        nf = normal_form(x, 1)
        assert (nf[..., 0], nf[..., -1]) == (1.0, 0.0)
        np.testing.assert_array_equal(nf[..., 1:-1], [0.0])

    def test_complex_worked_example(self):
        # u = (0, 1)/sqrt2, v = (i, 0)/sqrt2: frozen (1/sqrt2, 0, 1/sqrt2)
        x = np.array([0, 0, 1, 0, 0, 1, 0, 0], dtype=float) / np.sqrt(2)
        nf = normal_form(x, 2)
        assert nf[..., 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        np.testing.assert_allclose(nf[..., 1:-1], [0.0, 0.0], atol=1e-12)
        assert nf[..., -1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_unit_decomposition_invariant(self):
        rng = rng_from(13)
        for m, k in ((1, 3), (2, 2), (4, 2)):
            dim = 2 * k * m
            for x in sample_unit_vectors(rng, dim, 30):
                nf = normal_form(x, m)
                total = nf[..., 0] ** 2 + float(nf[..., 1:-1] @ nf[..., 1:-1]) + nf[..., -1] ** 2
                assert abs(total - 1.0) <= 1e-12

    def test_zero_u_branch(self):
        # u = 0 forces the representative (0, e1): v1 real positive, v2 = 0
        x = np.zeros(8)
        x[5] = 1.0  # a v-component of C^2 x C^2
        nf = normal_form(x, 2)
        assert nf[..., 0] == 0.0
        np.testing.assert_allclose(nf[..., 1:-1], [1.0, 0.0], atol=1e-12)
        assert nf[..., -1] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.zeros(8)
        x[0] = bad
        with pytest.raises(ValueError):
            normal_form(x, 2)

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2)])
    def test_constant_on_orbits_and_fibers(self, m, k):
        system = build_system(m, k)
        rng = rng_from(14)
        v = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
        fiber = fiber_sample(system, v, 40, 15)
        nfs = np.stack([normal_form(z, m) for z in fiber])
        assert np.abs(nfs - nfs[0]).max() <= 1e-9
        g = sample_group_element(m, k, 16)
        moved = diagonal_act(g, fiber)
        nfs2 = np.stack([normal_form(z, m) for z in moved])
        assert np.abs(nfs2 - nfs).max() <= 1e-9

    @pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (4, 1)])
    def test_orbit_constancy_seed_sweep(self, m, k):
        # uniform points, then points with |u| in [0.01, 0.1]: there
        # |v|^2 - |v1|^2 loses eps / |u|^2, whose square root is far above
        # the suite's 1e-9 wherever v2 vanishes (always when k = 1)
        l = k * m
        worst = 0.0
        for seed in range(200):
            rng = rng_from(seed, 18)
            x = sample_unit_vectors(rng, 2 * l, 1)[0]
            if seed % 2:
                u_norm = rng.uniform(0.01, 0.1)
                x[:l] *= u_norm / np.linalg.norm(x[:l])
                x[l:] *= np.sqrt(1.0 - u_norm ** 2) / np.linalg.norm(x[l:])
            moved = diagonal_act(sample_group_element(m, k, seed), x)
            worst = max(worst, float(np.abs(normal_form(x, m) - normal_form(moved, m)).max()))
        assert worst <= 1e-9

    def test_form_determines_fiber(self):
        system = build_system(2, 2)
        rng = rng_from(17)
        x = sample_unit_vectors(rng, system.dim, 120)
        pis = pi_c(system, x)
        nfs = np.stack([normal_form(z, 2) for z in x])
        for i in range(0, 120, 3):
            for j in range(0, 120, 3):
                pi_close = np.abs(pis[i] - pis[j]).max() <= 1e-8
                nf_close = np.abs(nfs[i] - nfs[j]).max() <= 1e-9
                assert pi_close == nf_close

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            normal_form(np.ones(4), 1)

    @pytest.mark.parametrize("x,m,message", [
        (np.eye(4)[None, :1], 1, r"^normal_form expects a point \(2l,\) or rows \(n, 2l\)$"),
        (np.eye(6)[0], 4, "^point dimension is not a multiple of dim F$"),
        (np.eye(6)[:2], 2, "^point dimension is not a multiple of dim F$"),
    ], ids=["three_axes", "point_width", "rows_width"])
    def test_rejects_other_shapes(self, x, m, message):
        # unit rows of l = 3 hold no whole column of H (m = 4) or of C (m = 2)
        with pytest.raises(ValueError, match=message):
            normal_form(x, m)

    def test_rejects_unknown_field(self):
        # an m that is no dim F of R, C, H, as sample_group_element does, for a point
        # and for rows
        x = np.eye(6)[:2]
        message = r"^m must be one of ORBIT_RANKS = \(1, 2, 4\), got 3$"
        for point in (x, x[0]):
            with pytest.raises(ValueError, match=message):
                normal_form(point, 3)
        with pytest.raises(ValueError, match=message):
            sample_group_element(3, 2, 0)

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 1), (2, 2), (4, 1), (4, 2)])
    def test_rows_equal_single_points(self, m, k):
        # uniform points, a point with u = 0 and a boundary fiber, in one call
        system = build_system(m, k)
        x = sample_unit_vectors(rng_from(19, m, k), system.dim, 40)
        x[3, :system.l] = 0.0
        x[3] /= np.linalg.norm(x[3])
        p = sample_unit_vectors(rng_from(20, m, k), m + 1, 1)[0]
        x = np.concatenate([x, boundary_fiber_sample(system, p, 8, 21)])
        rows = normal_form(x, m)
        assert rows[..., 0].shape == rows[..., -1].shape == (len(x),)
        assert rows.shape == (len(x), m + 2)
        assert rows[3, 0] == 0.0
        for row, z in zip(rows, x):
            assert row.tobytes() == normal_form(z, m).tobytes()
        with pytest.raises(ValueError):
            normal_form(np.concatenate([x[:2], np.ones((1, system.dim))]), m)


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


def supported_profiles():
    """(m, k, profile) of every (m, k, flips) class that build_system builds."""
    return [(m, k, equivalence_profile(build_system(m, k, flips)))
            for m in range(1, 13) for k in range(1, 5)
            if (m, k) != (1, 1) and 2 * k * delta(m) <= 512 for flips in range(k + 1)]


class TestClassification:
    def test_table_on_all_supported_profiles(self):
        for m, k, profile in supported_profiles():
            verdict = classify_homogeneity(profile)
            assert verdict.status == expected_verdict(m, k, profile.kappa), f"profile {profile}"

    def test_verdicts_print_their_status_and_group(self):
        # a verdict prints what the table decides: its status, with the acting group of a
        # homogeneous verdict or the condition of a conditional one, and no quoted reason
        for _, _, profile in supported_profiles():
            verdict = classify_homogeneity(profile)
            assert (verdict.group is None) == (verdict.status != "homogeneous")
            assert (verdict.condition is None) == (verdict.status != "conditionally")
            detail = verdict.group or verdict.condition
            assert str(verdict) == (verdict.status if detail is None
                                    else f"{verdict.status} ({detail})")

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

    @pytest.mark.parametrize("args", [(4, 2), (4, 2, 5), (4, 2, 1), (2, 3, 7)], ids=str)
    def test_profiles_no_system_has_are_refused(self, args):
        # a kappa exactly where 4 divides m, and then one of k, k - 2, ..., k mod 2
        with pytest.raises(ValueError, match="^no system has the profile"):
            EquivalenceProfile(*args)


class TestFiberWitnesses:
    def test_boundary_orbit_matches_fiber(self):
        # on the sphere-quotient rank-3 system the circle action fills fibers
        system = build_system(2, 2)
        p = sample_unit_vectors(rng_from(18), 3, 1)[0]
        x = boundary_fiber_sample(system, p, 3, 19)
        g = sample_group_element(2, 2, 20)
        np.testing.assert_allclose(pi_c(system, diagonal_act(g, x)),
                                   pi_c(system, x), atol=1e-10)
