"""Composed foliations: specs, leaf classes, cone metric, ambient distances."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from clifford_foliations.algebra import rng_from, sample_unit_vectors, sign_fixed_rotation
from clifford_foliations import composed
from clifford_foliations.clifford import build_system
from clifford_foliations.composed import (
    BUILTIN_SPEC_NAMES,
    FoliationSpec,
    _descend,
    _leaf_sample_blocks,
    builtin_spec,
    composed_class,
    composed_quotient_distance,
    leaf_to_leaf_ambient_distance,
    same_leaf,
    signed_svd_triple,
    tensor_orbit_distance,
)
from clifford_foliations.foliation import (
    boundary_fiber_sample,
    fiber_sample,
    fkm_f0,
    mplus_sample,
    pi_c,
    quotient_distance,
)

# ---------------------------------------------------------------------------
# Oracles, independent of the implementation paths they validate
# ---------------------------------------------------------------------------

def rotation(rng):
    """Haar-distributed rotation from SO(3), drawn from rng."""
    return sign_fixed_rotation(rng.standard_normal((3, 3)))


def signed_triple_oracle(mat):
    """Signed ordered singular values via the eigendecomposition of M^T M."""
    mat = np.asarray(mat, dtype=float).reshape(3, 3)
    evals = np.linalg.eigvalsh(mat.T @ mat)[::-1]
    tau = np.sqrt(np.clip(evals, 0.0, None))
    if np.linalg.det(mat) < 0:
        tau[2] = -tau[2]
    return tau


def orbit_distance_search_oracle(a, b, restarts=12, iters=40, seed=0):
    """Minimize arccos <a, U b V^T> over sampled rotations with local refinement.

    Alternating best-rotation updates on tr(a^T U b V^T) from random starts;
    each half-step is a one-sided alignment solved in closed form by an SVD.
    """
    a = np.asarray(a, dtype=float).reshape(3, 3)
    b = np.asarray(b, dtype=float).reshape(3, 3)
    rng = rng_from(seed)

    def best_rotation(m):
        u, _, vt = np.linalg.svd(m)
        return u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt

    best = -1.0
    for _ in range(restarts):
        u = rotation(rng)
        v = rotation(rng)
        for _ in range(iters):
            u = best_rotation(b @ v.T @ a.T).T
            v = best_rotation(a.T @ u @ b)
        best = max(best, float(np.sum(a * (u @ b @ v.T))))
    return float(np.arccos(np.clip(best, -1.0, 1.0)))


@pytest.fixture(scope="module")
def s22():
    return build_system(2, 2)


@pytest.fixture(scope="module")
def s82():
    return build_system(8, 2)


class TestBuiltinSpecs:
    def test_points_is_identity(self):
        spec = builtin_spec("points", 4)
        v = sample_unit_vectors(rng_from(0), 5, 1)[0]
        np.testing.assert_array_equal(spec.invariant_map(v), v)
        assert spec.leaves_are_fibers

    def test_one_leaf_constant(self):
        spec = builtin_spec("one_leaf", 3)
        u, v = sample_unit_vectors(rng_from(1), 4, 2)
        np.testing.assert_array_equal(spec.invariant_map(u[None])[0],
                                      spec.invariant_map(v[None])[0])
        assert not spec.leaves_are_fibers
        assert spec.quotient_distance(u[None], v[None])[0] == 0.0

    def test_height_leaves_and_sampler(self):
        spec = builtin_spec("height", 2)
        rng = rng_from(2)
        v = sample_unit_vectors(rng, 3, 1)[0]
        for _ in range(10):
            w = spec.leaf_sampler(v[None], rng)[0]
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            np.testing.assert_allclose(spec.invariant_map(w[None])[0],
                                       spec.invariant_map(v[None])[0], atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_rows_equal_single_rows(self, name):
        # on the 8-sphere every row is long enough for a pairwise sum to
        # differ from one BLAS dot
        spec = builtin_spec(name, 8)
        u = sample_unit_vectors(rng_from(45), 9, 7)
        v = sample_unit_vectors(rng_from(46), 9, 7)
        invariants = spec.invariant_map(u)
        distances = spec.quotient_distance(u, v)
        for j in range(len(u)):
            assert invariants[j].tobytes() == spec.invariant_map(u[j:j + 1])[0].tobytes()
            one = spec.quotient_distance(u[j:j + 1], v[j:j + 1])[0]
            assert distances[j].tobytes() == one.tobytes()
        if spec.leaf_sampler is not None:
            rng = rng_from(47)
            one_by_one = [spec.leaf_sampler(u[j:j + 1], rng)[0] for j in range(len(u))]
            assert spec.leaf_sampler(u, rng_from(47)).tobytes() == np.array(one_by_one).tobytes()

    # digest of the 50 rows below, taken with the per-row sampler it replaced
    TENSOR_ROWS_DIGEST = "ada7a57e7261a1f6591c16afc3ffa186c7691f5dc7a9b9d465efb593f7c333c9"

    def test_tensor_sampler_equals_per_row_rotations(self):
        # one draw for all rows, in the per-row order U_1, W_1, U_2, W_2, ...
        v = sample_unit_vectors(rng_from(48), 9, 50)
        rng = rng_from(49)
        per_row = np.array([(rotation(rng) @ mat @ rotation(rng).T).ravel()
                            for mat in v.reshape(-1, 3, 3)])
        rows = builtin_spec("tensor_svd", 8).leaf_sampler(v, rng_from(49))
        assert rows.tobytes() == per_row.tobytes()
        if np.__version__ == "2.4.6":
            assert hashlib.sha256(rows.tobytes()).hexdigest() == self.TENSOR_ROWS_DIGEST

    def test_tensor_restricted_to_nine_dims(self):
        with pytest.raises(ValueError):
            builtin_spec("tensor_svd", 4)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_spec("nonsense", 2)


class TestSignedTriple:
    def test_isotropic_matrix(self):
        np.testing.assert_allclose(signed_svd_triple(np.eye(3) / np.sqrt(3)),
                                   np.full(3, 1 / np.sqrt(3)), atol=1e-14)

    def test_matches_eigen_oracle(self):
        rng = rng_from(3)
        for _ in range(100):
            mat = rng.standard_normal((3, 3))
            np.testing.assert_allclose(signed_svd_triple(mat), signed_triple_oracle(mat),
                                       atol=1e-10)

    def test_rotation_invariance(self):
        rng = rng_from(4)
        mat = rng.standard_normal((3, 3))
        mat /= np.linalg.norm(mat)
        tau = signed_svd_triple(mat)
        for _ in range(200):
            u, v = rotation(rng), rotation(rng)
            np.testing.assert_allclose(signed_svd_triple(u @ mat @ v.T), tau, atol=1e-10)


class TestTensorOrbitDistance:
    def test_zero_and_symmetry(self):
        rng = rng_from(5)
        a = rng.standard_normal((3, 3))
        a /= np.linalg.norm(a)
        b = rng.standard_normal((3, 3))
        b /= np.linalg.norm(b)
        assert tensor_orbit_distance(a, a) <= 1e-7
        assert abs(tensor_orbit_distance(a, b) - tensor_orbit_distance(b, a)) <= 1e-12

    def test_frozen_closed_form(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        b = np.eye(3) / np.sqrt(3)
        assert abs(tensor_orbit_distance(a, b) - np.arccos(1 / np.sqrt(3))) <= 1e-12

    def test_matches_rotation_search_oracle(self):
        rng = rng_from(6)
        for trial in range(8):
            a = rng.standard_normal((3, 3))
            a /= np.linalg.norm(a)
            b = rng.standard_normal((3, 3))
            b /= np.linalg.norm(b)
            formula = tensor_orbit_distance(a, b)
            searched = orbit_distance_search_oracle(a, b, seed=trial)
            assert abs(formula - searched) <= 1e-3
            # the searched distance can only overshoot the true minimum
            assert searched >= formula - 1e-9


class TestComposedClasses:
    def test_points_class_carries_full_value(self, s22):
        spec = builtin_spec("points", 2)
        v = np.array([0.2, -0.4, 0.1])
        x = fiber_sample(s22, v, 1, 7)[0]
        cls = composed_class(s22, spec, x)
        assert abs(cls.radius - np.linalg.norm(v)) <= 1e-12
        np.testing.assert_allclose(cls.tail, v / np.linalg.norm(v), atol=1e-10)

    def test_origin_class_has_no_tail(self, s22):
        for name in ("points", "one_leaf", "height"):
            spec = builtin_spec(name, 2)
            cls = composed_class(s22, spec, mplus_sample(s22, 1, 8)[0])
            assert cls.tail is None and cls.radius <= 1e-10

    def test_dimension_mismatch_rejected(self, s22):
        with pytest.raises(ValueError):
            composed_class(s22, builtin_spec("points", 3), mplus_sample(s22, 1, 9)[0])


class TestSameLeaf:
    def test_membership_families(self, s22):
        pts = builtin_spec("points", 2)
        one = builtin_spec("one_leaf", 2)
        rng = rng_from(10)
        for i in range(10):
            dirs = sample_unit_vectors(rng, 3, 2)
            r = float(rng.uniform(0.2, 0.9))
            a = fiber_sample(s22, r * dirs[0], 2, 100 + i)
            b = fiber_sample(s22, r * dirs[1], 1, 200 + i)[0]
            assert same_leaf(s22, pts, a[0], a[1])
            assert same_leaf(s22, pts, a[0], -a[0])
            assert not same_leaf(s22, pts, a[0], b)
            assert same_leaf(s22, one, a[0], b)
            c = fiber_sample(s22, (r / 2) * dirs[1], 1, 300 + i)[0]
            assert not same_leaf(s22, one, a[0], c)

    def test_equal_radius_law(self, s22):
        one = builtin_spec("one_leaf", 2)
        rng = rng_from(11)
        for i in range(10):
            dirs = sample_unit_vectors(rng, 3, 2)
            r = float(rng.uniform(0.2, 0.9))
            x = fiber_sample(s22, r * dirs[0], 1, 400 + i)[0]
            y = fiber_sample(s22, r * dirs[1], 1, 500 + i)[0]
            assert same_leaf(s22, one, x, y)
            assert abs(fkm_f0(s22, x)[1] - fkm_f0(s22, y)[1]) <= 2e-9


class TestConeMetric:
    def test_points_spec_reduces_to_disk_metric(self, s22):
        pts = builtin_spec("points", 2)
        x = sample_unit_vectors(rng_from(12), s22.dim, 40)
        for i in range(0, 40, 2):
            d1 = composed_quotient_distance(s22, pts, x[i], x[i + 1])
            d2 = quotient_distance(pi_c(s22, x[i]), pi_c(s22, x[i + 1]))
            assert abs(d1 - d2) <= 1e-9

    def test_same_leaf_distance_zero(self, s22):
        hgt = builtin_spec("height", 2)
        v = np.array([0.4, 0.1, 0.2])
        x = fiber_sample(s22, v, 2, 13)
        assert composed_quotient_distance(s22, hgt, x[0], x[1]) <= 1e-9

    def test_apex_to_boundary(self, s22):
        one = builtin_spec("one_leaf", 2)
        x = mplus_sample(s22, 1, 14)[0]
        y = boundary_fiber_sample(s22, np.array([1.0, 0, 0]), 1, 15)[0]
        assert abs(composed_quotient_distance(s22, one, x, y) - np.pi / 4) <= 1e-7

    def test_one_leaf_is_radius_difference(self, s22):
        one = builtin_spec("one_leaf", 2)
        rng = rng_from(16)
        for i in range(10):
            dirs = sample_unit_vectors(rng, 3, 2)
            r1, r2 = rng.uniform(0.1, 0.95, size=2)
            x = fiber_sample(s22, r1 * dirs[0], 1, 600 + i)[0]
            y = fiber_sample(s22, r2 * dirs[1], 1, 700 + i)[0]
            expected = 0.5 * abs(np.arcsin(r1) - np.arcsin(r2))
            assert abs(composed_quotient_distance(s22, one, x, y) - expected) <= 1e-9

    def test_missing_leaf_metric_rejected(self, s22):
        from clifford_foliations.composed import FoliationSpec
        bare = FoliationSpec("bare", 3, lambda v: np.zeros(1))
        x = sample_unit_vectors(rng_from(17), s22.dim, 2)
        with pytest.raises(ValueError):
            composed_quotient_distance(s22, bare, x[0], x[1])


def mixed_pairs(system, seed):
    """Paired rows (x, y) of every kind the class tests branch on.

    Generic rows, one boundary fiber, and, where M+ exists, origin-class rows
    and interior fibers drawn two to a fiber.  y pairs each row with its
    successor (fiber partners, origin with origin), the reversed rows, the row
    itself and its antipode.
    """
    m = system.m
    rng = rng_from(seed)
    parts = [sample_unit_vectors(rng, system.dim, 10),
             boundary_fiber_sample(system, sample_unit_vectors(rng, m + 1, 1)[0], 4, seed + 1)]
    if system.l >= m + 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # l = m+1: disconnected fibers
            parts.append(mplus_sample(system, 4, seed + 2))
            for i, r in enumerate((0.2, 0.5, 0.85)):
                v = r * sample_unit_vectors(rng, m + 1, 1)[0]
                parts.append(fiber_sample(system, v, 2, seed + 3 + i))
    rows = np.concatenate(parts)
    x = np.concatenate([rows] * 4)
    y = np.concatenate([np.roll(rows, -1, axis=0), rows[::-1], rows, -rows])
    return x, y


ROW_WISE_CASES = [((2, 2), "points"), ((2, 2), "one_leaf"), ((2, 2), "height"),
                  ((3, 1), "points"), ((3, 1), "height"), ((4, 3, 1), "height"),
                  ((8, 2), "tensor_svd"), ((8, 1), "tensor_svd")]


class TestRowWise:
    """Paired rows give, bit for bit, what each row gives alone on exact systems."""

    @pytest.mark.parametrize("mk, name", ROW_WISE_CASES)
    def test_same_leaf(self, mk, name):
        system = build_system(*mk)
        spec = builtin_spec(name, system.m)
        x, y = mixed_pairs(system, 40)
        rows = same_leaf(system, spec, x, y)
        alone = [same_leaf(system, spec, a, b) for a, b in zip(x, y)]
        assert all(type(s) is bool for s in alone)
        assert rows.dtype == bool and rows.tolist() == alone
        assert rows.any() and not rows.all()

    @pytest.mark.parametrize("mk, name", ROW_WISE_CASES)
    def test_composed_quotient_distance(self, mk, name):
        system = build_system(*mk)
        spec = builtin_spec(name, system.m)
        x, y = mixed_pairs(system, 41)
        rows = composed_quotient_distance(system, spec, x, y)
        alone = [composed_quotient_distance(system, spec, a, b) for a, b in zip(x, y)]
        assert all(type(d) is float for d in alone)
        np.testing.assert_array_equal(rows, alone)
        assert rows.shape == (len(x),)

    @pytest.mark.parametrize("mk, name", ROW_WISE_CASES)
    def test_composed_class(self, mk, name):
        system = build_system(*mk)
        spec = builtin_spec(name, system.m)
        x, _ = mixed_pairs(system, 42)
        rows = composed_class(system, spec, x)
        assert len(rows) == len(x)
        for row, point in zip(rows, x):
            alone = composed_class(system, spec, point)
            assert row.radius == alone.radius
            if alone.tail is None:
                assert row.tail is None
            else:
                np.testing.assert_array_equal(row.tail, alone.tail)
        if system.l >= system.m + 1:
            assert any(row.tail is None for row in rows)

    def test_radius_is_the_single_point_norm(self, s22):
        # at this row norm(v, axis=-1) sums pairwise and differs from the 1-D
        # norm in the last bit; radii and distances keep the 1-D value
        x = sample_unit_vectors(rng_from(31), s22.dim, 8)
        v = pi_c(s22, x[3])
        r = float(np.linalg.norm(v))
        assert r != np.linalg.norm(v, axis=-1)
        assert composed_class(s22, builtin_spec("points", 2), x)[3].radius == r
        r0 = float(np.linalg.norm(pi_c(s22, x[0])))
        s, s0 = np.arcsin(r), np.arcsin(r0)
        expected = 0.5 * np.arccos(np.clip(np.cos(s) * np.cos(s0) + np.sin(s) * np.sin(s0),
                                           -1.0, 1.0))
        d = composed_quotient_distance(s22, builtin_spec("one_leaf", 2), x, x[[0] * 8])
        assert d[3] == expected

    def test_mismatched_shapes_rejected(self, s22):
        x = sample_unit_vectors(rng_from(43), s22.dim, 4)
        with pytest.raises(ValueError):
            same_leaf(s22, builtin_spec("points", 2), x, x[0])
        with pytest.raises(ValueError):
            composed_quotient_distance(s22, builtin_spec("points", 2), x[:3], x)


class TestAmbientLeafDistance:
    def test_same_leaf_goes_to_zero(self, s22):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        assert leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], 1500, 19) <= 1e-6

    def test_opposite_boundary_fibers(self, s22):
        pts = builtin_spec("points", 2)
        p = np.array([0.0, 1.0, 0.0])
        x = boundary_fiber_sample(s22, p, 1, 20)[0]
        y = boundary_fiber_sample(s22, -p, 1, 21)[0]
        d = leaf_to_leaf_ambient_distance(s22, pts, x, y, 200, 22)
        assert abs(d - np.pi / 2) <= 1e-3

    def test_boundary_leaf_closed_form_is_pinned(self, s22):
        # a height leaf through a boundary point: budget 320 takes 20 sampled
        # directions, each one nearest point of a great subsphere
        hgt = builtin_spec("height", 2)
        rng = rng_from(45)
        v = 0.5 * sample_unit_vectors(rng, 3, 1)[0]
        p = sample_unit_vectors(rng, 3, 1)[0]
        x = fiber_sample(s22, v, 1, 46)[0]
        y = boundary_fiber_sample(s22, p, 1, 47)[0]
        d = leaf_to_leaf_ambient_distance(s22, hgt, x, y, 320, 48)
        assert d.hex() == "0x1.b5a7833dc1117p-1"
        assert d >= composed_quotient_distance(s22, hgt, x, y) - 1e-9

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_empty_budget(self, s22, budget):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        with pytest.raises(ValueError, match="budget"):
            leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], budget, 19)

    @pytest.mark.parametrize("starts", [0, -2])
    def test_rejects_no_starts(self, s22, starts):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        with pytest.raises(ValueError, match="starts"):
            leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], 100, 19, starts=starts)

    def test_rejects_anything_but_two_unit_points(self, s22):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        nan = np.full(s22.dim, np.nan)
        for xa, xb in ((3 * x[0], x[1]), (nan, x[1]), (x[0], 3 * x[1])):
            with pytest.raises(ValueError, match="finite unit vector"):
                leaf_to_leaf_ambient_distance(s22, pts, xa, xb, 200, 19)
        for xa, xb in ((x, x), (x[0], x), (x[0][:-1], x[1][:-1])):
            with pytest.raises(ValueError, match="shape"):
                leaf_to_leaf_ambient_distance(s22, pts, xa, xb, 200, 19)

    def test_distance_to_focal_manifold(self, s22):
        # the origin class is one leaf; its distance from any point equals
        # the cone distance to the apex, half the arcsine of the radius
        pts = builtin_spec("points", 2)
        one = builtin_spec("one_leaf", 2)
        focal = mplus_sample(s22, 1, 31)[0]
        for i, r in enumerate((0.35, 0.7)):
            x = fiber_sample(s22, np.array([r, 0.0, 0.0]), 1, 32 + i)[0]
            expected = 0.5 * np.arcsin(r)
            for spec in (pts, one):
                d = leaf_to_leaf_ambient_distance(s22, spec, x, focal, 2000, 33 + i)
                assert d >= expected - 1e-9
                assert abs(d - expected) <= 1e-3

    def test_matches_cone_metric(self, s22):
        pts = builtin_spec("points", 2)
        hgt = builtin_spec("height", 2)
        rng = rng_from(23)
        for i in range(4):
            va = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            vb = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            xa = fiber_sample(s22, va, 1, 800 + i)[0]
            xb = fiber_sample(s22, vb, 1, 900 + i)[0]
            dp = leaf_to_leaf_ambient_distance(s22, pts, xa, xb, 4000, 1000 + i, starts=6)
            assert abs(dp - composed_quotient_distance(s22, pts, xa, xb)) <= 1e-3
            dh = leaf_to_leaf_ambient_distance(s22, hgt, xa, xb, 4000, 1100 + i, starts=6)
            assert abs(dh - composed_quotient_distance(s22, hgt, xa, xb)) <= 1e-2

    def test_monotone_in_budget(self, s22):
        # descent starts are fixed beyond the 2048-sample prefix, so larger
        # budgets can only tighten the sampled floor
        hgt = builtin_spec("height", 2)
        xa = fiber_sample(s22, np.array([0.5, 0.0, 0.2]), 1, 24)[0]
        xb = fiber_sample(s22, np.array([-0.1, 0.45, 0.0]), 1, 25)[0]
        estimates = [leaf_to_leaf_ambient_distance(s22, hgt, xa, xb, b, 26)
                     for b in (2048, 4096, 6144, 8192)]
        for small, large in zip(estimates, estimates[1:]):
            assert large <= small + 1e-15

    def test_monotone_in_budget_points_large_rank(self):
        s51 = build_system(5, 1)
        pts = builtin_spec("points", 5)
        xa = fiber_sample(s51, np.array([0.4, 0.0, -0.2, 0.1, 0.0, 0.3]), 1, 34)[0]
        xb = fiber_sample(s51, np.array([-0.2, 0.3, 0.0, 0.0, 0.4, -0.1]), 1, 35)[0]
        estimates = [leaf_to_leaf_ambient_distance(s51, pts, xa, xb, b, 36)
                     for b in (2048, 4096, 6144, 8192)]
        for small, large in zip(estimates, estimates[1:]):
            assert large <= small + 1e-15

    @pytest.mark.parametrize("kind, tol", [("height", 1e-2), ("points", 1e-3)])
    def test_user_spec_without_jacobian_matches_cone_metric(self, s22, kind, tol):
        # central differences of the invariant map stand in for a closed form;
        # the point spec is given only by an identity invariant, so |pi|^2 and
        # the direction are constrained separately
        if kind == "height":
            user = dataclasses.replace(builtin_spec("height", 2), invariant_jacobian=None)
        else:
            user = FoliationSpec(
                "user_points", 3, invariant_map=lambda v: np.asarray(v, dtype=float),
                quotient_distance=lambda u, v: np.arccos(
                    np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)))
        rng = rng_from(37)
        for i in range(3):
            va = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            vb = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            xa = fiber_sample(s22, va, 1, 1200 + i)[0]
            xb = fiber_sample(s22, vb, 1, 1300 + i)[0]
            d = leaf_to_leaf_ambient_distance(s22, user, xa, xb, 4000, 1400 + i, starts=6)
            dq = composed_quotient_distance(s22, user, xa, xb)
            assert dq - d <= 1e-9
            assert abs(d - dq) <= tol


class TestBatchedAscent:
    @pytest.mark.parametrize("mk", [(2, 2), (1, 4), (9, 1), (4, 3, 1)])
    @pytest.mark.parametrize("spec_name", ["points", "height", "user"])
    def test_batch_equals_each_start_alone(self, mk, spec_name):
        # the lockstep ascent keeps every start's arithmetic to its own row
        system = build_system(*mk)
        m = system.m
        if spec_name == "user":
            spec = dataclasses.replace(builtin_spec("height", m), invariant_jacobian=None)
        else:
            spec = builtin_spec(spec_name, m)
        rng = rng_from(39, m)
        va = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
        vb = sample_unit_vectors(rng, m + 1, 1)[0] * 0.4
        x = fiber_sample(system, va, 1, 40)[0]
        y = fiber_sample(system, vb, 1, 41)[0]
        v = pi_c(system, y)
        r = float(np.linalg.norm(v))
        tail = np.asarray(spec.invariant_map((v / r)[None])[0], dtype=float)
        starts = _leaf_sample_blocks(system, spec, v, 256, rng_from(42))[::32]
        batch = _descend(system, spec, x, starts, r * r, tail)
        alone = np.array([_descend(system, spec, x, starts[i:i + 1], r * r, tail)[0]
                          for i in range(len(starts))])
        assert batch.shape == (len(starts),)
        np.testing.assert_array_equal(batch, alone)
        # each start only climbs
        assert np.all(batch >= starts @ x - 1e-15)


@pytest.mark.parametrize("spec_name,radius", [("points", 0.6), ("height", 0.6),
                                              ("one_leaf", 0.0), ("height", 1.0)])
def test_leaf_blocks_equal_chunk_by_chunk_draws(spec_name, radius):
    # the blocks are the chunks one fiber_sample call per chunk would draw,
    # in order, with every direction and seed taken from the one rng stream
    system = build_system(3, 2)
    spec = builtin_spec(spec_name, system.m)
    v = radius * sample_unit_vectors(rng_from(43), system.m + 1, 1)[0]
    budget = 600
    rng = rng_from(44)
    chunk = 256 if spec.leaf_sampler is None or radius == 0.0 else 32
    expected = []
    for lo in range(0, budget, chunk):
        n = min(chunk, budget - lo)
        if radius == 0.0:
            expected.append(mplus_sample(system, n, int(rng.integers(2**62))))
            continue
        d = (v / radius if spec.leaf_sampler is None
             else spec.leaf_sampler((v / radius)[None], rng)[0])
        expected.append(fiber_sample(system, radius * d, n, int(rng.integers(2**62))))
    got = _leaf_sample_blocks(system, spec, v, budget, rng_from(44))
    assert got.tobytes() == np.concatenate(expected).tobytes()


class TestNewtonAscent:
    # leaf pairs of the leaf_distance benchmark pool: (m, k), spec, starts,
    # the pool's (system, spec) indices and the estimator seed's index
    CASES = {
        "points_2_2": ((2, 2), "points", 64, (0, 0), 0),
        "height_4_3": ((4, 3), "height", 6, (4, 1), 9),
        "height_9_1": ((9, 1), "height", 6, (6, 1), 12),
    }
    # _restore rows per estimate; the projected-gradient ascent took 2276,
    # 612 and 720
    RESTORE_CEILING = {"points_2_2": 400, "height_4_3": 150, "height_9_1": 150}

    @classmethod
    def estimate(cls, case):
        mk, spec_name, starts, (j, s), seed_index = cls.CASES[case]
        system = build_system(*mk)
        m = system.m
        rng = np.random.default_rng([0, j, s, 0])
        vs = []
        for _ in range(2):
            v = rng.standard_normal(m + 1)
            vs.append(v / np.linalg.norm(v) * rng.uniform(0.15, 0.9))
        xa = fiber_sample(system, vs[0], 1, int(rng.integers(2**62)))[0]
        xb = fiber_sample(system, vs[1], 1, int(rng.integers(2**62)))[0]
        seed = int(np.random.default_rng([0, 0]).integers(2**62, size=13)[seed_index])
        spec = builtin_spec(spec_name, m)
        d = leaf_to_leaf_ambient_distance(system, spec, xa, xb, 1200, seed, starts=starts)
        return d, composed_quotient_distance(system, spec, xa, xb)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_restore_rows_below_ceiling(self, case, monkeypatch):
        rows = []
        restore = composed._restore

        def counted(system, spec, z, *args):
            rows.append(len(z))
            return restore(system, spec, z, *args)

        monkeypatch.setattr(composed, "_restore", counted)
        d, dq = self.estimate(case)
        assert sum(rows) <= self.RESTORE_CEILING[case]
        assert dq - d <= 1e-9

    def test_converges_where_gradient_ascent_hit_the_cap(self):
        # the projected gradient stopped at 120 iterations, 1.7e-9 away
        d, dq = self.estimate("height_9_1")
        assert abs(d - dq) <= 1e-10


    def test_singular_hessian_takes_the_gradient(self, s22):
        # a = 0 and mu = 0 make B = 0: that row must take the gradient, and
        # quietly; the other row keeps its Newton direction
        spec = builtin_spec("points", 2)
        v0 = np.array([0.3, 0.1, -0.2])
        z = fiber_sample(s22, v0, 2, 45)
        x = fiber_sample(s22, np.array([-0.2, 0.4, 0.1]), 1, 46)[0]
        r = float(np.linalg.norm(v0))
        _, rows, v, rows_pi, dphi = composed._constraint_state(s22, spec, z, r * r, v0 / r)
        best = z @ x
        g, lam = composed._tangent_projection(rows, x - best[:, None] * z)
        lam[0], best[0] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, gain = composed._newton_direction(s22, spec, z, g, lam, best, v, rows_pi, dphi,
                                                 False)
        np.testing.assert_array_equal(d[0], g[0])
        assert gain[0] == np.sum(g[0] * g[0])
        assert np.all(np.isfinite(d)) and gain[1] > 0.0

    def test_one_leaf_converges(self):
        # one_leaf's invariant row vanishes; the ascent still converges, where
        # the projected gradient stopped 8.5e-4 short on the third pair
        system = build_system(1, 4)
        spec = builtin_spec("one_leaf", 1)
        rng = rng_from(5, 1)
        for i in range(4):
            va = sample_unit_vectors(rng, 2, 1)[0] * rng.uniform(0.2, 0.8)
            vb = sample_unit_vectors(rng, 2, 1)[0] * rng.uniform(0.2, 0.8)
            xa = fiber_sample(system, va, 1, 10 + i)[0]
            xb = fiber_sample(system, vb, 1, 20 + i)[0]
            d = leaf_to_leaf_ambient_distance(system, spec, xa, xb, 1200, 30 + i, starts=6)
            assert abs(d - composed_quotient_distance(system, spec, xa, xb)) <= 1e-9


class TestInvariantJacobian:
    @staticmethod
    def central_differences(fn, v, h=1e-6):
        cols = []
        for j in range(v.shape[0]):
            e = np.zeros(v.shape[0])
            e[j] = h
            up = fn((v + e) / np.linalg.norm(v + e))
            dn = fn((v - e) / np.linalg.norm(v - e))
            cols.append((up - dn) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def test_height_closed_form_matches_differences(self):
        spec = builtin_spec("height", 4)
        p0 = np.eye(5)[0]
        rng = rng_from(43)
        dirs = sample_unit_vectors(rng, 5, 20)
        near = p0 + 1e-4 * sample_unit_vectors(rng, 5, 5)
        near /= np.linalg.norm(near, axis=1)[:, None]
        dirs = np.concatenate([dirs, near, [p0, -p0]])
        v = dirs * rng.uniform(0.05, 1.0, size=(len(dirs), 1))
        jac = spec.invariant_jacobian(v)
        assert jac.shape == (len(v), 1, 5)
        for row, j in zip(v, jac):
            np.testing.assert_allclose(j, self.central_differences(
                lambda u: spec.invariant_map(u[None])[0], row),
                                       rtol=0, atol=1e-7)

    def test_one_leaf_jacobian_is_zero(self):
        spec = builtin_spec("one_leaf", 3)
        v = sample_unit_vectors(rng_from(44), 4, 6) * 0.5
        np.testing.assert_array_equal(spec.invariant_jacobian(v), np.zeros((6, 1, 4)))


class TestDiameterScenario:
    def test_disk_quotient_attains_pi_over_four(self, s82):
        ten = builtin_spec("tensor_svd", 8)
        x = mplus_sample(s82, 10, 27)
        y = boundary_fiber_sample(s82, np.eye(9)[0], 10, 28)
        rng = rng_from(29)
        z = sample_unit_vectors(rng, s82.dim, 40)
        pool = np.concatenate([x, y, z])
        sup = 0.0
        for i in range(len(pool)):
            for j in range(i + 1, min(i + 8, len(pool))):
                sup = max(sup, composed_quotient_distance(s82, ten, pool[i], pool[j]))
        assert sup <= np.pi / 4 + 1e-6
        assert sup >= np.pi / 4 - 0.05

    def test_sphere_quotient_stays_below(self):
        s81 = build_system(8, 1)
        ten = builtin_spec("tensor_svd", 8)
        x = sample_unit_vectors(rng_from(30), 16, 60)
        sup = 0.0
        for i in range(0, 60, 2):
            sup = max(sup, composed_quotient_distance(s81, ten, x[i], x[i + 1]))
        assert sup <= np.pi / 4 + 1e-6
