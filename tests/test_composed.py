"""Composed foliations: specs, leaf classes, cone metric, ambient distances."""

import dataclasses
import warnings

import numpy as np
import pytest

from clifford_foliations.algebra import (max_abs, rng_from, row_norms, sample_unit_vectors,
                                         sign_fixed_q, sign_fixed_rotation, unit_angle)
from clifford_foliations import composed, foliation
from clifford_foliations.clifford import CliffordSystem, build_system, conjugate_system
from clifford_foliations.composed import (
    BUILTIN_SPEC_NAMES,
    FoliationSpec,
    _descend,
    _unit,
    _leaf_sample_blocks,
    _sample_floor,
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
    pi_jacobian_rows,
    quotient_distance,
)
from kernel_family import AVX2, AVX512, pinned

# ---------------------------------------------------------------------------
# Oracles, independent of the implementation paths they validate
# ---------------------------------------------------------------------------

def rotation(rng):
    """Haar-distributed rotation from SO(3), drawn from rng."""
    return sign_fixed_rotation(rng.standard_normal((3, 3)))


def user_points_spec(m):
    """A user-built point foliation of S^m with both closed forms.

    Its closed forms keep its leaves off the fiber-leaf path, so |pi|^2 and the
    direction are constrained separately, through the Jacobian (I - v^ v^T) / |v|
    of v -> v / |v|; the nearest point of the leaf with tail w is w / |w|, so its
    leaf samples are that point whatever the direction drawn.
    """
    def jacobian(v):
        r = np.linalg.norm(v, axis=-1)
        vhat = v / r[:, None]
        return (np.eye(m + 1) - vhat[:, :, None] * vhat[:, None, :]) / r[:, None, None]

    return FoliationSpec(
        "user_points", m + 1, invariant_map=lambda v: np.asarray(v, dtype=float),
        quotient_distance=lambda u, v: np.arccos(np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)),
        invariant_jacobian=jacobian,
        nearest_leaf_point=lambda u, tails: (np.broadcast_to(tails, np.shape(u))
                                             / np.linalg.norm(tails, axis=-1, keepdims=True)))


def leaf_tail(spec, v):
    """The invariant tail the estimator passes for the leaf through disk point v (None at 0)."""
    r = float(row_norms(v))
    return spec.invariant_map((v / r)[None])[0] if r else None


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


def leaf_distance_pool():
    """The 13 leaf pairs of the ``leaf_distance`` benchmark, as perfbench/workloads.py draws
    them: (system, spec, starts, xa, xb, estimator seed)."""
    seeds = np.random.default_rng([0, 0]).integers(2**62, size=13)
    pairs = []
    for j, mk in enumerate(((2, 2), (1, 4), (3, 2), (5, 1), (4, 3), (6, 2), (9, 1))):
        system = build_system(*mk)
        for s, (name, starts) in enumerate((("points", 64), ("height", 6))):
            if (mk, name) == ((9, 1), "points"):
                continue
            rng = np.random.default_rng([0, j, s, 0])
            vs = []
            for _ in range(2):
                v = rng.standard_normal(system.m + 1)
                vs.append(v / np.linalg.norm(v) * rng.uniform(0.15, 0.9))
            xa, xb = (fiber_sample(system, v, 1, int(rng.integers(2**62)))[0] for v in vs)
            pairs.append((system, builtin_spec(name, system.m), starts, xa, xb,
                          int(seeds[len(pairs)])))
    return pairs


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
        assert spec.invariant_jacobian is None and spec.nearest_leaf_point is None

    def test_one_leaf_constant(self):
        spec = builtin_spec("one_leaf", 3)
        u, v = sample_unit_vectors(rng_from(1), 4, 2)
        np.testing.assert_array_equal(spec.invariant_map(u[None])[0],
                                      spec.invariant_map(v[None])[0])
        assert spec.nearest_leaf_point is not None
        assert spec.quotient_distance(u[None], v[None])[0] == 0.0

    def test_height_leaves_and_sampler(self):
        # a leaf's samples are the nearest leaf points of uniform directions
        spec = builtin_spec("height", 2)
        rng = rng_from(2)
        v = sample_unit_vectors(rng, 3, 1)[0]
        tail = spec.invariant_map(v[None])[0]
        w = spec.nearest_leaf_point(sample_unit_vectors(rng, 3, 10), tail)
        assert max_abs(row_norms(w) - 1.0) <= 1e-12
        assert max_abs(spec.invariant_map(w) - tail) <= 1e-12

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
        if spec.nearest_leaf_point is not None:
            # the closed forms too, on rows of several lengths: the estimator forms a
            # point's constraint rows in whatever batch holds it. Row 0 is a height
            # pole, and for tensor_svd a matrix with a repeated singular value,
            # whose Jacobian takes central differences
            w = u * rng_from(48).uniform(0.2, 3.0, (len(u), 1))
            if name == "height":
                w[0] = 0.7 * np.eye(9)[0]
            if name == "tensor_svd":
                q = sign_fixed_rotation(rng_from(49).standard_normal((2, 3, 3)))
                w[0] = 1.3 * (q[0] @ np.diag([0.6, 0.6, 0.3]) @ q[1].T).ravel()
            jac = spec.invariant_jacobian(w)
            units = _unit(w)
            tails = spec.invariant_map(v)
            nearest = spec.nearest_leaf_point(units, tails)
            one_tail = spec.nearest_leaf_point(units, tails[1])
            for j in range(len(u)):
                assert jac[j].tobytes() == spec.invariant_jacobian(w[j:j + 1])[0].tobytes()
                one = spec.nearest_leaf_point(units[j:j + 1], tails[j:j + 1])[0]
                assert nearest[j].tobytes() == one.tobytes()
                one = spec.nearest_leaf_point(units[j:j + 1], tails[1])[0]
                assert one_tail[j].tobytes() == one.tobytes()

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

    @pytest.mark.parametrize("mk", [(2, 2), (5, 1), (12, 4)])
    def test_one_fiber_near_the_origin(self, mk):
        # radii within 1e-9 and invariant tails within 1e-9 rejected 38-100 of these 100
        # pairs per radius: a tail v / r carries roundoff of about 1e-16 / r
        system = build_system(*mk)
        spec = builtin_spec("points", system.m)
        u = np.zeros(system.m + 1)
        u[:2] = np.sqrt(0.5)
        for r in (1e-9, 1e-8, 1e-7):
            x = fiber_sample(system, r * u, 200, 3)
            assert np.all(composed_quotient_distance(system, spec, x[0::2], x[1::2]) <= 1e-14)
            assert np.all(same_leaf(system, spec, x[0::2], x[1::2]))

    @pytest.mark.parametrize("r", [1.0 - 1e-12, 1.0 - 1e-10, 1.0 - 1e-9])
    def test_near_boundary_leaves_apart(self, s22, r):
        # radii 5e-10 apart passed the old radius test, but next to the boundary the
        # classes are 5e-6 to 1.5e-5 apart in the cone metric and in the ambient sphere
        pts = builtin_spec("points", 2)
        u = np.array([0.6, 0.0, 0.8])
        x = fiber_sample(s22, r * u, 1, 1)[0]
        y = fiber_sample(s22, (r - 5e-10) * u, 1, 2)[0]
        d = composed_quotient_distance(s22, pts, x, y)
        assert d > 5e-6 and not same_leaf(s22, pts, x, y)
        if r == 1.0 - 1e-12:
            ambient = leaf_to_leaf_ambient_distance(s22, pts, x, y, 1200, 5, 16)
            assert abs(ambient - d) <= 1e-10

    def test_reads_no_invariant_map(self, s22):
        # membership is the cone metric at zero: the leaf-space metric decides it
        def refuse(v):
            raise AssertionError("same_leaf must not evaluate the invariant map")

        for name in ("points", "height"):
            spec = dataclasses.replace(builtin_spec(name, 2), invariant_map=refuse)
            x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 8, 23)
            assert np.all(same_leaf(s22, spec, x[0::2], x[1::2]))
            assert same_leaf(s22, spec, x[0], x[1]) is True


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

    @pytest.mark.parametrize("gap", [5e-10, 5e-13])
    def test_close_classes_match_disk_metric(self, s22, gap):
        # arcsin of the radii and arccos of the cosine law gave 0 at both gaps
        pts = builtin_spec("points", 2)
        v = np.array([0.3, 0.2, -0.1])
        x = fiber_sample(s22, v, 1, 3)[0]
        y = fiber_sample(s22, v + np.array([0.0, gap, 0.0]), 1, 4)[0]
        expected = quotient_distance(pi_c(s22, x), pi_c(s22, y))
        assert expected > 0.0
        assert abs(composed_quotient_distance(s22, pts, x, y) - expected) <= 1e-15

    def test_apex_to_boundary_is_exact(self, s22):
        # boundary radii round to 1 - 1e-16, whose arcsine was off by 1e-8
        one = builtin_spec("one_leaf", 2)
        x = mplus_sample(s22, 8, 14)
        y = boundary_fiber_sample(s22, np.array([0.6, 0.0, 0.8]), 8, 15)
        d = composed_quotient_distance(s22, one, x, y)
        assert np.abs(d - np.pi / 4).max() <= 1e-15

    @pytest.mark.parametrize("gap", [1e-13, 1e-14])
    def test_sampler_and_cone_metric_share_the_boundary(self, s22, gap):
        # one boundary rule: at 1 - 1e-13 the sampler turns M+ onto the fiber over v (a
        # boundary fiber sample is 1e-13 off v) and the cone metric lifts the rows off
        # height 0; at 1 - 1e-14 both put them on the boundary, at pi/4 from the apex:
        # the sampler snaps v to v/|v| and turns M+ onto its boundary fiber
        one = builtin_spec("one_leaf", 2)
        p = sample_unit_vectors(rng_from(20), 3, 1)[0]
        v = (1.0 - gap) * p
        y = fiber_sample(s22, v, 8, 21)
        sampled_boundary = max_abs(s22.span_apply(p, y) - y) <= 1e-12
        assert sampled_boundary == (gap == 1e-14)
        if not sampled_boundary:
            assert max_abs(pi_c(s22, y) - v) <= 1e-14
        d = composed_quotient_distance(s22, one, mplus_sample(s22, 8, 22), y)
        assert np.all((np.abs(d - np.pi / 4) <= 1e-15) == sampled_boundary)

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

    def test_missing_leaf_metric_rejected(self):
        # the contract is checked once, at construction: every spec has a leaf-space
        # metric, and both closed forms or neither
        with pytest.raises(TypeError, match="quotient_distance"):
            FoliationSpec("bare", 3, lambda v: np.zeros((len(v), 1)))
        height = builtin_spec("height", 2)
        fields = {f.name: getattr(height, f.name) for f in dataclasses.fields(height)}
        for name in ("invariant_jacobian", "nearest_leaf_point"):
            with pytest.raises(ValueError, match="both invariant_jacobian and nearest_leaf_point"):
                FoliationSpec(**{**fields, name: None})
            with pytest.raises(ValueError, match="both invariant_jacobian and nearest_leaf_point"):
                dataclasses.replace(height, **{name: None})
        # point leaves need neither closed form
        points = dataclasses.replace(height, invariant_jacobian=None, nearest_leaf_point=None)
        assert composed._fiber_leaf(points, 0.5) and not composed._fiber_leaf(height, 0.5)
        # leaf samples follow from nearest_leaf_point: a spec takes no sampler
        with pytest.raises(TypeError, match="leaf_sampler"):
            FoliationSpec(**fields, leaf_sampler=lambda v, rng: v)


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
        parts.append(mplus_sample(system, 4, seed + 2))
        for i, r in enumerate((0.2, 0.5, 0.85)):
            v = r * sample_unit_vectors(rng, m + 1, 1)[0]
            parts.append(fiber_sample(system, v, 2, seed + 3 + i))
    rows = np.concatenate(parts)
    x = np.concatenate([rows] * 4)
    y = np.concatenate([np.roll(rows, -1, axis=0), rows[::-1], rows, -rows])
    return x, y


def edge_pairs(system):
    """Paired rows at both ends of the disk, where M+ exists (else none).

    Two pairs to a fiber at radii 1e-9 and 1e-8, and the fibers at radii
    1 - 1e-12 and 1 - 1e-12 - 5e-10 paired with each other.
    """
    m = system.m
    if system.l < m + 1:
        return np.empty((2, 0, system.dim))
    u = sample_unit_vectors(rng_from(50, m), m + 1, 1)[0]
    radii = [1e-9, 1e-8, 1.0 - 1e-12, 1.0 - 1e-12 - 5e-10]
    f = fiber_sample(system, np.outer(radii, u), 4, np.arange(51, 55))
    x = np.concatenate([f[0, 0::2], f[1, 0::2], f[2]])
    y = np.concatenate([f[0, 1::2], f[1, 1::2], f[3]])
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
    def test_same_leaf_is_the_cone_metric_at_zero(self, mk, name):
        system = build_system(*mk)
        spec = builtin_spec(name, system.m)
        x, y = (np.concatenate(rows) for rows in zip(mixed_pairs(system, 40), edge_pairs(system)))
        d = composed_quotient_distance(system, spec, x, y)
        np.testing.assert_array_equal(same_leaf(system, spec, x, y), d <= 1e-9)

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
        # row 0 of this draw is a norm trap: with pi_C taken in E_+-(P_0) coefficients its
        # 1-D np.linalg.norm, a BLAS dot, and its pairwise axis norm differ in the last bit
        # on some kernels.  Radii and distances of a batch row keep its single call's
        # row_norms; row 3 is the reference
        x = sample_unit_vectors(rng_from(31), s22.dim, 8)
        points, one_leaf = builtin_spec("points", 2), builtin_spec("one_leaf", 2)
        r = float(row_norms(pi_c(s22, x[0])))
        assert composed_class(s22, points, x)[0].radius == r
        assert composed_class(s22, points, x[0]).radius == r
        r0 = float(row_norms(pi_c(s22, x[3])))
        cone = [np.array([np.sqrt(1.0 - t * t), t, 0.0]) for t in (r, r0)]
        expected = 0.5 * unit_angle(*cone)
        d = composed_quotient_distance(s22, one_leaf, x, x[[3] * 8])
        assert d[0] == composed_quotient_distance(s22, one_leaf, x[0], x[3]) == expected

    def test_mismatched_shapes_rejected(self, s22):
        x = sample_unit_vectors(rng_from(43), s22.dim, 4)
        with pytest.raises(ValueError):
            same_leaf(s22, builtin_spec("points", 2), x, x[0])
        with pytest.raises(ValueError):
            composed_quotient_distance(s22, builtin_spec("points", 2), x[:3], x)

    def test_batches_of_more_than_two_axes_rejected(self, s22):
        # only a point (2l,) or rows (n, 2l) are accepted, by all three
        x = sample_unit_vectors(rng_from(44), s22.dim, 6).reshape(2, 3, s22.dim)
        points = builtin_spec("points", 2)
        for call in (lambda: composed_class(s22, points, x),
                     lambda: composed_quotient_distance(s22, points, x, x),
                     lambda: same_leaf(s22, points, x, x)):
            with pytest.raises(ValueError, match=r"\(2l,\) or \(n, 2l\), got \(2, 3, 8\)"):
                call()


class TestAmbientLeafDistance:
    def test_same_leaf_goes_to_zero(self, s22):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        assert leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], 1500, 19) <= 1e-6
        # arccos of the best dot resolved nothing below arccos(1 - 2^-53) = 1.49e-8,
        # which it returned here; the chord angle to the nearest point resolves it
        s61 = build_system(6, 1)
        v = sample_unit_vectors(rng_from(7, 601), 7, 1)[0] * 0.5
        zz = fiber_sample(s61, v, 2, 16)
        d = leaf_to_leaf_ambient_distance(s61, builtin_spec("points", 6), zz[0], zz[1], 1200, 17,
                                          starts=6)
        assert 0.0 <= d < 1e-12

    def test_opposite_boundary_fibers(self, s22):
        pts = builtin_spec("points", 2)
        p = np.array([0.0, 1.0, 0.0])
        x = boundary_fiber_sample(s22, p, 1, 20)[0]
        y = boundary_fiber_sample(s22, -p, 1, 21)[0]
        d = leaf_to_leaf_ambient_distance(s22, pts, x, y, 200, 22)
        assert abs(d - np.pi / 2) <= 1e-3
        # x lies in E_-(P_p) exactly: the projection onto the nearest subsphere is 0,
        # and the whole subsphere sits at pi/2
        assert np.all(0.5 * (x + s22.span_apply(-p, x)) == 0.0)
        assert d == np.pi / 2

    def test_opposite_boundary_fibers_on_a_conjugated_system(self, s22):
        # on a dense system the projection p of x onto the other fiber's subsphere is
        # roundoff (|p| ~ 3e-16), not 0; the angle is taken in the plane of x and p, where
        # the angle to the noise direction p / |p| read 0.54, 1.44 and 1.49
        system = conjugate_system(s22, sign_fixed_q(rng_from(3).standard_normal((1, 8, 8)))[0])
        pts = builtin_spec("points", 2)
        p = np.eye(3)[0]
        for s in range(3):
            x, y = boundary_fiber_sample(system, [p, -p], 1, s + np.array([11, 12]))[:, 0]
            d = leaf_to_leaf_ambient_distance(system, pts, x, y, 64, s + 13)
            assert abs(d - np.pi / 2) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-8, 3e-9, 1.5e-9, 5e-10, 1e-11, 1e-12])
    def test_fiber_leaves_next_to_the_boundary(self, s22, gap):
        # a fiber leaf and a height leaf 1e-8 to 1e-12 inside the boundary: points feasible
        # to 1e-10 in pi_C undercut the leaf distance by up to 8.4e-7 here, while a point
        # restored by fiber transport lies on the fiber to roundoff; a boundary closed form
        # switched on from 1 - 1e-9 would overshoot by up to 1.6e-5 (points), 2.0e-4 (height)
        rng = rng_from(5)
        w = sample_unit_vectors(rng, 3, 1)[0]
        v = 0.5 * sample_unit_vectors(rng, 3, 1)[0]
        x = fiber_sample(s22, v, 1, 11)[0]
        y = fiber_sample(s22, (1.0 - gap) * w, 1, 12)[0]
        for spec in (builtin_spec("points", 2), builtin_spec("height", 2)):
            d = leaf_to_leaf_ambient_distance(s22, spec, x, y, 1200, 7, starts=16)
            assert abs(d - composed_quotient_distance(s22, spec, x, y)) <= 1e-10

    # re-pinned when the span action moved to E_+-(P_0) coefficients (one ulp, from
    # ...1117p-1), keyed by numeric-kernel family since, and re-pinned when the closed
    # form took its angle in the plane of x and its projection (one ulp, back to ...1117p-1),
    # and re-pinned when the leaf's own direction and the Newton point from pi_C(x)'s
    # direction became candidates: from 1.5e-4 above the cone metric to within 1.1e-16; the
    # AVX2 family's re-pinned when every row dot and norm became algebra.row_dots (two ulps,
    # to the AVX512 family's value)
    BOUNDARY_LEAF_HEX = {AVX512: "0x1.b59376eead2f9p-1", AVX2: "0x1.b59376eead2f9p-1"}

    def test_boundary_leaf_closed_form_is_pinned(self, s22):
        # a height leaf through a boundary point: budget 320 takes the leaf's own
        # direction, the Newton point from pi_C(x)'s direction and 20 sampled
        # directions, each one nearest point of a great subsphere
        hgt = builtin_spec("height", 2)
        rng = rng_from(45)
        v = 0.5 * sample_unit_vectors(rng, 3, 1)[0]
        p = sample_unit_vectors(rng, 3, 1)[0]
        x = fiber_sample(s22, v, 1, 46)[0]
        y = boundary_fiber_sample(s22, p, 1, 47)[0]
        d = leaf_to_leaf_ambient_distance(s22, hgt, x, y, 320, 48)
        assert d >= composed_quotient_distance(s22, hgt, x, y) - 1e-9
        assert d.hex() == pinned(self.BOUNDARY_LEAF_HEX)

    @pytest.mark.parametrize("mk, name", [((2, 2), "height"), ((2, 2), "one_leaf"),
                                          ((5, 1), "height"), ((5, 1), "one_leaf"),
                                          ((9, 1), "height"), ((8, 2), "tensor_svd")], ids=str)
    def test_boundary_leaf_candidates(self, mk, name):
        # the closed form tries the leaf's own direction, so two points of one boundary
        # fiber read 0 (sampled directions alone read up to 0.5), and the spec's nearest
        # leaf point to pi_C(x)'s direction, so an interior point reads the cone metric
        system = build_system(*mk)
        spec = builtin_spec(name, system.m)
        rng = rng_from(91, *mk)
        y = boundary_fiber_sample(system, sample_unit_vectors(rng, system.m + 1, 1)[0], 2, 92)
        assert leaf_to_leaf_ambient_distance(system, spec, y[0], y[1], 1200, 93) <= 1e-12
        x = fiber_sample(system, 0.5 * sample_unit_vectors(rng, system.m + 1, 1)[0], 1, 94)[0]
        d = leaf_to_leaf_ambient_distance(system, spec, x, y[0], 1200, 95)
        cone = composed_quotient_distance(system, spec, x, y[0])
        assert abs(d - cone) <= 1e-12

    @pytest.mark.parametrize("budget", [0, -5, 100.0, True])
    def test_rejects_empty_budget(self, s22, budget):
        # an integer below 1 is a ValueError; a float or a bool is no integer, a TypeError
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        with pytest.raises(ValueError if type(budget) is int else TypeError, match="budget"):
            leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], budget, 19)

    @pytest.mark.parametrize("starts", [0, -2, 2.5, True, np.float64(2.0)])
    def test_rejects_no_starts(self, s22, starts):
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        with pytest.raises(ValueError if type(starts) is int else TypeError, match="starts"):
            leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], 100, 19, starts=starts)

    def test_numpy_integer_counts(self, s22):
        # bools and floats are rejected above; numpy integers count as integers
        pts = builtin_spec("points", 2)
        x = fiber_sample(s22, np.array([0.3, 0.2, -0.1]), 2, 18)
        d = leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], 100, 19, starts=2)
        assert leaf_to_leaf_ambient_distance(s22, pts, x[0], x[1], np.int64(100), 19,
                                             starts=np.int32(2)) == d

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
        # descent starts are fixed beyond the 2048-sample prefix and every
        # budget's samples are a prefix of a larger one's, so larger budgets,
        # multiples of the chunk or not, can only tighten the sampled floor
        hgt = builtin_spec("height", 2)
        xa = fiber_sample(s22, np.array([0.5, 0.0, 0.2]), 1, 24)[0]
        xb = fiber_sample(s22, np.array([-0.1, 0.45, 0.0]), 1, 25)[0]
        estimates = [leaf_to_leaf_ambient_distance(s22, hgt, xa, xb, b, 26)
                     for b in (2048, 2100, 2200, 3000, 4096, 4100, 6144, 8192)]
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

    def test_user_spec_matches_cone_metric(self, s22):
        user = user_points_spec(2)
        rng = rng_from(37)
        for i in range(3):
            va = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            vb = sample_unit_vectors(rng, 3, 1)[0] * float(rng.uniform(0.2, 0.85))
            xa = fiber_sample(s22, va, 1, 1200 + i)[0]
            xb = fiber_sample(s22, vb, 1, 1300 + i)[0]
            d = leaf_to_leaf_ambient_distance(s22, user, xa, xb, 4000, 1400 + i, starts=6)
            dq = composed_quotient_distance(s22, user, xa, xb)
            assert dq - d <= 1e-9
            assert abs(d - dq) <= 1e-3

    def test_tensor_spec_matches_cone_metric(self):
        # without a closed-form invariant Jacobian the ascent stalled here at 1.026
        system = build_system(8, 2)
        spec = builtin_spec("tensor_svd", 8)
        dirs = sample_unit_vectors(rng_from(5), 9, 2)
        xa = fiber_sample(system, 0.5 * dirs[0], 1, 1)[0]
        xb = fiber_sample(system, 0.6 * dirs[1], 1, 2)[0]
        d = leaf_to_leaf_ambient_distance(system, spec, xa, xb, 600, 3, starts=4)
        dq = composed_quotient_distance(system, spec, xa, xb)
        assert abs(dq - 0.134) <= 1e-3
        assert abs(d - dq) <= 1e-6

    def test_fiber_leaves_target_the_disk_point(self):
        # without closed forms the leaf is the fiber pi_C(z) = pi_C(y) whatever
        # the invariant, so the estimate is the fiber distance, above the cone metric
        system = build_system(3, 2)
        spec = dataclasses.replace(builtin_spec("height", 3), invariant_jacobian=None,
                                   nearest_leaf_point=None)
        dirs = sample_unit_vectors(rng_from(3), 4, 2)
        xa = fiber_sample(system, 0.4 * dirs[0], 1, 13)[0]
        xb = fiber_sample(system, 0.7 * dirs[1], 1, 23)[0]
        d = leaf_to_leaf_ambient_distance(system, spec, xa, xb, 600, 3, starts=6)
        assert d >= composed_quotient_distance(system, spec, xa, xb) - 1e-9
        fiber = composed_quotient_distance(system, builtin_spec("points", 3), xa, xb)
        assert abs(d - fiber) <= 1e-9


class TestBatchedAscent:
    @pytest.mark.parametrize("spec_name", ["points", "height"])
    def test_dense_batch_equals_each_start_alone(self, s22, spec_name):
        # a dense system's products go one row at a time, so its starts and
        # paired rows keep to their own rows as well
        a = sign_fixed_rotation(rng_from(57).standard_normal((s22.dim, s22.dim)))
        system = conjugate_system(s22, a)
        spec = builtin_spec(spec_name, 2)
        va, vb = np.array([0.5, -0.2, 0.1]), np.array([-0.1, 0.3, 0.2])
        x = fiber_sample(system, va, 1, 58)[0]
        v = pi_c(system, fiber_sample(system, vb, 1, 59)[0])
        r = float(row_norms(v))
        target = (None, v) if spec.nearest_leaf_point is None else (
            r * r, spec.invariant_map((v / r)[None])[0])
        starts = _leaf_sample_blocks(system, spec, v, 256, rng_from(60), target[1])[::32]
        _, batch = _descend(system, spec, x, starts, *target)
        alone = [_descend(system, spec, x, starts[i:i + 1], *target)[1][0]
                 for i in range(len(starts))]
        np.testing.assert_array_equal(batch, alone)
        xs, ys = fiber_sample(system, np.array([va, vb]), 4, [61, 62])
        rows = composed_quotient_distance(system, spec, xs, ys)
        np.testing.assert_array_equal(
            rows, [composed_quotient_distance(system, spec, p, q) for p, q in zip(xs, ys)])

    # every spec on four systems, and tensor_svd, the one sampled-leaf spec whose
    # Jacobian comes from an SVD, on the 8-sphere it lives on
    CASES = [pytest.param(mk, name, id=f"{name}-mk{i}")
             for name in ("points", "height", "user", "one_leaf")
             for i, mk in enumerate([(2, 2), (1, 4), (9, 1), (4, 3, 1)])]
    CASES.append(pytest.param((8, 2), "tensor_svd", id="tensor_svd-8_2"))

    @pytest.mark.parametrize("mk,spec_name", CASES)
    def test_batch_equals_each_start_alone(self, mk, spec_name):
        # the lockstep ascent keeps every start's arithmetic to its own row
        system = build_system(*mk)
        m = system.m
        spec = user_points_spec(m) if spec_name == "user" else builtin_spec(spec_name, m)
        rng = rng_from(39, m)
        va = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
        vb = sample_unit_vectors(rng, m + 1, 1)[0] * 0.4
        x = fiber_sample(system, va, 1, 40)[0]
        y = fiber_sample(system, vb, 1, 41)[0]
        v = pi_c(system, y)
        r = float(np.linalg.norm(v))
        # a fiber leaf's target is pi_C(y) itself, any other leaf's |pi_C(y)|^2 and invariant
        if spec.nearest_leaf_point is None:
            target = (None, v)
        else:
            target = (r * r, spec.invariant_map((v / r)[None])[0])
        starts = _leaf_sample_blocks(system, spec, v, 256, rng_from(42), target[1])[::32]
        points, batch = _descend(system, spec, x, starts, *target)
        alone = [_descend(system, spec, x, starts[i:i + 1], *target)
                 for i in range(len(starts))]
        assert batch.shape == (len(starts),)
        assert points.shape == starts.shape
        np.testing.assert_array_equal(batch, [value[0] for _, value in alone])
        np.testing.assert_array_equal(points, [point[0] for point, _ in alone])
        # each best point carries its value
        np.testing.assert_array_equal(batch, np.sum(points * x, axis=-1))
        # each start only climbs
        assert np.all(batch >= starts @ x - 1e-15)


@pytest.mark.parametrize("spec_name,radius", [("points", 0.6), ("height", 0.6),
                                              ("one_leaf", 0.0), ("height", 1.0)])
def test_leaf_blocks_equal_chunk_by_chunk_draws(spec_name, radius):
    # the blocks are the whole chunks one fiber_sample call per chunk would
    # draw, in order and cut to the budget: each chunk's direction the nearest
    # leaf point of a uniform direction from the child stream rng_from(seed, 0),
    # its seed from rng_from(seed, 1)
    system = build_system(3, 2)
    spec = builtin_spec(spec_name, system.m)
    v = radius * sample_unit_vectors(rng_from(43), system.m + 1, 1)[0]
    # the sampler's own radius: |v| taken row-wise, which need not be radius at the last bit
    r = float(row_norms(v))
    tail = leaf_tail(spec, v)
    budget = 600
    directions, draws = rng_from(44, 0), rng_from(44, 1)
    fiber = spec.nearest_leaf_point is None or radius == 0.0
    chunk = 256 if fiber else 32
    expected = []
    for _ in range(0, budget, chunk):
        seed = int(draws.integers(2**62))
        if radius == 0.0:
            expected.append(mplus_sample(system, chunk, seed))
            continue
        u = v if fiber else r * spec.nearest_leaf_point(
            sample_unit_vectors(directions, system.m + 1, 1), tail)[0]
        expected.append(fiber_sample(system, u, chunk, seed))
    got = _leaf_sample_blocks(system, spec, v, budget, rng_from(44), tail)
    assert got.tobytes() == np.concatenate(expected)[:budget].tobytes()


@pytest.mark.parametrize("spec_name,radius,chunk", [("points", 0.6, 256), ("height", 0.6, 32),
                                                    ("height", 0.0, 256)])
def test_budget_multiples_of_the_chunk_draw_prefixes(spec_name, radius, chunk):
    # every budget, a multiple of the chunk or not, draws a prefix of any
    # larger budget's samples
    system = build_system(2, 2)
    spec = builtin_spec(spec_name, system.m)
    v = radius * sample_unit_vectors(rng_from(51), system.m + 1, 1)[0]
    tail = leaf_tail(spec, v)
    larger = _leaf_sample_blocks(system, spec, v, 2200, rng_from(52), tail)
    assert larger.shape == (2200, system.dim)
    for budget in (1, 17, 33, chunk, 600, 1200, 2048, 2100, 2200 // chunk * chunk):
        got = _leaf_sample_blocks(system, spec, v, budget, rng_from(52), tail)
        assert got.tobytes() == larger[:budget].tobytes()


def test_leaf_blocks_are_one_draw(monkeypatch):
    # budget 1200 on a height leaf is 38 chunks of 32: one nearest_leaf_point call
    # on one draw of 38 uniform directions gives their directions, one integers call
    # their seeds and one fiber_sample call their samples
    system = build_system(2, 2)
    spec = builtin_spec("height", system.m)
    directions, fibers = [], []

    def nearest(units, tails):
        directions.append(units)
        return spec.nearest_leaf_point(units, tails)

    def sample(system, points, n, seeds):
        fibers.append((len(points), n, np.array(seeds)))
        return fiber_sample(system, points, n, seeds)

    monkeypatch.setattr(composed, "fiber_sample", sample)
    v = 0.6 * sample_unit_vectors(rng_from(51), system.m + 1, 1)[0]
    got = _leaf_sample_blocks(system, dataclasses.replace(spec, nearest_leaf_point=nearest), v,
                              1200, rng_from(52), leaf_tail(spec, v))
    assert got.shape == (1200, system.dim)
    assert [len(units) for units in directions] == [38]
    assert directions[0].tobytes() == sample_unit_vectors(rng_from(52, 0), 3, 38).tobytes()
    assert [f[:2] for f in fibers] == [(38, 32)]
    np.testing.assert_array_equal(fibers[0][2], rng_from(52, 1).integers(2**62, size=38))


@pytest.mark.parametrize("mk", [(1, 2), (3, 1)], ids=str)
def test_disconnected_fibers_raise_no_warning(mk):
    # l = m+1: the fibers are disconnected, which the factorization suite witnesses;
    # the samplers and the estimator say nothing about it
    system = build_system(*mk)
    u = sample_unit_vectors(rng_from(88, *mk), system.m + 1, 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = fiber_sample(system, np.outer([0.0, 0.5, 1.0], u), 2, np.arange(3))
        mplus_sample(system, 4, 89)
        for name in ("points", "height"):
            d = leaf_to_leaf_ambient_distance(system, builtin_spec(name, system.m),
                                              x[1, 0], x[0, 0], 64, 90)
            assert d >= composed_quotient_distance(system, builtin_spec(name, system.m),
                                                   x[1, 0], x[0, 0]) - 1e-9


def test_origin_class_estimate_is_the_same_for_every_spec():
    # the origin class is the fiber over 0 for every spec, so its estimate is
    # the same bits whatever the spec, the distance pi/12 from |pi_C(x)| = 1/2
    system = build_system(3, 2)
    x = fiber_sample(system, 0.5 * sample_unit_vectors(rng_from(53), 4, 1)[0], 1, 54)[0]
    y = mplus_sample(system, 1, 55)[0]
    d = [leaf_to_leaf_ambient_distance(system, builtin_spec(name, 3), x, y, 600, 56, starts=6)
         for name in ("points", "height", "one_leaf")]
    assert d[0].hex() == d[1].hex() == d[2].hex()
    assert abs(d[0] - np.pi / 12) <= 1e-9


def test_solve_rows_falls_back_row_by_row():
    # zero pivots (a zero row, as one_leaf's constraint gives) take the
    # minimum-norm solution; no row's bits depend on the rest of its batch
    rng = rng_from(50)
    a = rng.standard_normal((7, 4, 4))
    b = rng.standard_normal((7, 4))
    a[1, 3] = 0.0
    a[4] = 0.0
    a[5, :, 2] = 0.0
    a[5, 0] = 0.0
    x = composed._solve_rows(a, b)
    for i in range(len(a)):
        assert x[i].tobytes() == composed._solve_rows(a[i:i + 1], b[i:i + 1])[0].tobytes()
    for i in (1, 4, 5):
        np.testing.assert_allclose(x[i], np.linalg.lstsq(a[i], b[i], rcond=None)[0],
                                   rtol=0, atol=1e-12)
    for i in (0, 2, 3, 6):
        np.testing.assert_allclose(a[i] @ x[i], b[i], rtol=0, atol=1e-12)


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
    # _residuals calls per estimate, one per _restore call; with up to 8 Newton
    # corrections per restore the constraints were evaluated 20, 43 and 31 times,
    # one of them at the start of the ascent, which now forms constraint rows only
    CONSTRAINT_CEILING = {"points_2_2": 9, "height_4_3": 15, "height_9_1": 11}

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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constraint_evaluations_below_ceiling(self, case, monkeypatch):
        calls = []
        residuals = composed._residuals

        def counted(*args):
            calls.append(len(args[2]))
            return residuals(*args)

        monkeypatch.setattr(composed, "_residuals", counted)
        d, dq = self.estimate(case)
        assert len(calls) <= self.CONSTRAINT_CEILING[case]
        assert dq - d <= 1e-9

    def test_converges_where_gradient_ascent_hit_the_cap(self):
        # the projected gradient stopped at 120 iterations, 1.7e-9 away
        d, dq = self.estimate("height_9_1")
        assert abs(d - dq) <= 1e-10


    def test_singular_hessian_takes_the_gradient(self, s22):
        # a = 0 and mu = 0 make B = 0: that row must take the gradient, and
        # quietly; the other row keeps its Newton direction
        spec = user_points_spec(2)
        v0 = np.array([0.3, 0.1, -0.2])
        z = fiber_sample(s22, v0, 2, 45)
        x = fiber_sample(s22, np.array([-0.2, 0.4, 0.1]), 1, 46)[0]
        r = float(np.linalg.norm(v0))
        v = foliation._quadratic_values(s22, z)
        rows, rows_pi, dphi = composed._constraint_rows(s22, spec, z, v, r * r)
        best = z @ x
        g, lam = composed._tangent_projection(rows, x - best[:, None] * z)
        lam[0], best[0] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, gain = composed._newton_direction(s22, spec, z, g, lam, best, v, rows_pi, dphi)
        np.testing.assert_array_equal(d[0], g[0])
        assert gain[0] == np.sum(g[0] * g[0])
        assert np.all(np.isfinite(d)) and gain[1] > 0.0

    @staticmethod
    def fiber_leaf_state(system, z, x, target):
        # a fiber leaf's state, as _descend forms it: target_r2 = None, so dphi is None
        # (the identity), the rows are the pi_C rows and the residuals pi_C(z) - target
        spec = builtin_spec("points", system.m)
        v, resid = composed._residuals(system, spec, z, None, target)
        rows, rows_pi, dphi = composed._constraint_rows(system, spec, z, v, None)
        assert dphi is None and rows is rows_pi
        np.testing.assert_array_equal(resid, v - target)
        best = z @ x
        g, lam = composed._tangent_projection(rows, x - best[:, None] * z)
        return spec, g, lam, best, v, rows_pi

    @pytest.mark.parametrize("at", ["interior", "origin"])
    def test_fiber_leaf_step_equals_the_bordered_system(self, s22, at):
        # the reduced system gm y = -h gives the direction and gain of the bordered
        # system in (y_J, y_z, nu) with dphi = I and W = 0, built here from the same
        # gram <C_i, B^-1 vecs_j> with dense span matrices
        p = s22.m + 1
        if at == "interior":
            target = np.array([0.3, 0.1, -0.2])
            z = fiber_sample(s22, target, 6, 63)
        else:
            target = np.zeros(p)
            z = mplus_sample(s22, 6, 63)
        x = fiber_sample(s22, np.array([-0.2, 0.4, 0.1]), 1, 64)[0]
        spec, g, lam, best, v, rows_pi = self.fiber_leaf_state(s22, z, x, target)
        d, gain = composed._newton_direction(s22, spec, z, g, lam, best, v, rows_pi, None)
        newton = 0
        for i in range(len(z)):
            mu = best[i] - 2.0 * lam[i] @ v[i]
            b = 2.0 * s22.span_matrix(lam[i]) + mu * np.eye(s22.dim)
            vecs = np.vstack([g[i], rows_pi[i], z[i]])
            binv = np.linalg.solve(b, vecs.T).T
            gram = vecs[1:] @ binv.T
            h, gm = gram[:, 0], gram[:, 1:]
            # unknowns (y_J, y_z, nu): y_J = nu, <z, xi> = 0 and s = J xi = 0
            kkt = np.zeros((2 * p + 1, 2 * p + 1))
            kkt[:p, :p] = np.eye(p)
            kkt[:p, p + 1:] = -np.eye(p)
            kkt[p, :p + 1] = gm[p]
            kkt[p + 1:, :p + 1] = gm[:p]
            rhs = -np.concatenate([np.zeros(p), h[p:], h[:p]])
            y = np.linalg.solve(kkt, rhs)[:p + 1]
            xi = binv[0] + y @ binv[1:]
            if g[i] @ xi <= 0.0:  # not an ascent direction: both take the gradient
                np.testing.assert_array_equal(d[i], g[i])
                continue
            newton += 1
            assert max_abs(d[i] - xi) <= 1e-12 * max_abs(xi)
            assert abs(gain[i] - g[i] @ xi) <= 1e-12 * abs(g[i] @ xi)
        assert newton >= 4  # 5 of the 6 rows at either target

    def test_fiber_leaf_singular_hessian_takes_the_gradient(self, s22):
        # the fiber-leaf twin of the singular B: lam_0 = 0 and best = 0 give a = 0 and
        # mu = 0, so B = 0; that row takes the gradient, quietly, and the other its
        # Newton direction
        v0 = np.array([0.3, 0.1, -0.2])
        z = fiber_sample(s22, v0, 2, 45)
        x = fiber_sample(s22, np.array([-0.2, 0.4, 0.1]), 1, 46)[0]
        spec, g, lam, best, v, rows_pi = self.fiber_leaf_state(s22, z, x, v0)
        lam[0], best[0] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, gain = composed._newton_direction(s22, spec, z, g, lam, best, v, rows_pi, None)
        np.testing.assert_array_equal(d[0], g[0])
        assert gain[0] == np.sum(g[0] * g[0])
        assert np.all(np.isfinite(d)) and gain[1] > 0.0

    @pytest.mark.parametrize("dense", [False, True], ids=["exact", "dense"])
    def test_constraint_state_matches_public_maps(self, s22, dense):
        # v comes from pi_C's E_+-(P_0) kernel and the pi_C rows from the generator
        # image stack, each bit for bit as pi_c and pi_jacobian_rows give them
        a = sign_fixed_rotation(rng_from(47).standard_normal((s22.dim, s22.dim)))
        system = conjugate_system(s22, a) if dense else s22
        spec = builtin_spec("height", 2)
        v0 = np.array([0.3, 0.1, -0.2])
        z = fiber_sample(system, v0, 5, 48)
        r = float(np.linalg.norm(v0))
        # the v the restore's residuals return, which the ascent carries, and a fiber
        # leaf's residuals read the same v
        v, resid = composed._residuals(system, builtin_spec("points", 2), z, None, v0)
        assert v.tobytes() == pi_c(system, z).tobytes()
        assert resid.tobytes() == (pi_c(system, z) - v0).tobytes()
        _, rows_pi, _ = composed._constraint_rows(system, spec, z, v, r * r)
        assert rows_pi.tobytes() == pi_jacobian_rows(system, z).tobytes()

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


def transport_system(mk):
    if mk == "conjugated":
        a = sign_fixed_rotation(rng_from(63).standard_normal((8, 8)))
        return conjugate_system(build_system(2, 2), a)
    return build_system(*mk)


class TestFiberTransport:
    SYSTEMS = [(2, 2), (1, 4), (3, 2), (5, 1), (9, 1), "conjugated"]

    @pytest.mark.parametrize("mk", SYSTEMS, ids=["2_2", "1_4", "3_2", "5_1", "9_1", "conjugated"])
    def test_restore_lands_on_the_target_fiber(self, mk):
        # points of the fiber over v' carried to the fiber over v, both from the
        # origin to |v| = 0.99: the pull-back to M+ alone kept |pi_C| <= 5.9e-15
        system = transport_system(mk)
        m = system.m
        dirs = sample_unit_vectors(rng_from(64, m), m + 1, 2)
        radii = (0.0, 0.3, 0.9, 0.99)
        hgt = builtin_spec("height", m)
        tail = hgt.invariant_map(dirs[1:])[0]
        for i, r_from in enumerate(radii):
            z = fiber_sample(system, r_from * dirs[0], 8, 65 + i)
            for r_to in radii:
                v = r_to * dirs[1]
                got, _, resid = composed._restore(system, builtin_spec("points", m), z, None, v)
                assert np.max(np.abs(pi_c(system, got) - v)) <= 1e-13
                assert np.max(np.abs(row_norms(got) - 1.0)) <= 1e-14
                assert np.max(resid) <= 1e-13
                if r_to:
                    # any other leaf: the direction moved onto the height leaf first
                    got, _, resid = composed._restore(system, hgt, z, r_to * r_to, tail)
                    assert np.max(resid) <= 1e-13
                    assert np.max(np.abs(row_norms(got) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("mk", [(3, 2), "conjugated"], ids=["3_2", "conjugated"])
    def test_turn_from_m_plus_is_fiber_sample(self, mk):
        # the restore's push to the leaf is the turn fiber_sample takes, origin row included
        system = transport_system(mk)
        v = np.array([[0.0], [0.5], [0.99]]) * sample_unit_vectors(rng_from(66), system.m + 1, 3)
        seeds = np.array([67, 68, 69])
        turned = foliation._turn(system, v, mplus_sample(system, 5, seeds))
        assert turned.tobytes() == fiber_sample(system, v, 5, seeds).tobytes()


def carry_system(kind):
    """An exact, a flipped (E+-(P_0) an int-array split), a dense and a conjugated system."""
    if kind == "exact":
        return build_system(3, 2)
    if kind == "flipped":
        return build_system(4, 2, 1)
    if kind == "dense":
        built = build_system(2, 2)
        return CliffordSystem(2, built.l, np.stack([built.dense_generator(i) for i in range(3)]))
    return transport_system("conjugated")


class TestCarriedPi:
    """_descend carries each point's pi_C from the restore that accepted it into
    _constraint_rows, which must be the value a fresh evaluation gives, bit for bit."""

    KINDS = ["exact", "flipped", "dense", "conjugated"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_restore_returns_the_fresh_pi(self, kind):
        system = carry_system(kind)
        m = system.m
        if kind == "flipped":
            assert not all(isinstance(at, slice) for at in system._p0_split)
        dirs = sample_unit_vectors(rng_from(80, m), m + 1, 2)
        hgt = builtin_spec("height", m)
        z = fiber_sample(system, 0.4 * dirs[0], 8, 81)
        for spec, target_r2, target in ((builtin_spec("points", m), None, 0.7 * dirs[1]),
                                        (hgt, 0.49, hgt.invariant_map(dirs[1:])[0])):
            got, v, _ = composed._restore(system, spec, z, target_r2, target)
            assert v.tobytes() == foliation._quadratic_values(system, got).tobytes()
            # and each row's, as a batch of one: the carried rows are regrouped
            for i in range(len(got)):
                assert (v[i].tobytes()
                        == foliation._quadratic_values(system, got[i:i + 1])[0].tobytes())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("spec_name", ["points", "height"])
    def test_carry_equals_fresh_evaluation(self, kind, spec_name, monkeypatch):
        system = carry_system(kind)
        m = system.m
        spec = builtin_spec(spec_name, m)
        rng = rng_from(82, m)
        va = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
        vb = sample_unit_vectors(rng, m + 1, 1)[0] * 0.4
        x = fiber_sample(system, va, 1, 83)[0]
        v = pi_c(system, fiber_sample(system, vb, 1, 84)[0])
        r = float(row_norms(v))
        target = (None, v) if spec.nearest_leaf_point is None else (
            r * r, spec.invariant_map((v / r)[None])[0])
        starts = _leaf_sample_blocks(system, spec, v, 256, rng_from(85), target[1])[::32]
        carried = _descend(system, spec, x, starts, *target)

        constraint_rows, calls = composed._constraint_rows, []

        def fresh(system, spec, z, v, target_r2):
            # the ascent as it ran before the carry: pi_C evaluated again at every iteration
            again = foliation._quadratic_values(system, z)
            assert v.tobytes() == again.tobytes()
            calls.append(len(z))
            return constraint_rows(system, spec, z, again, target_r2)

        monkeypatch.setattr(composed, "_constraint_rows", fresh)
        evaluated = _descend(system, spec, x, starts, *target)
        assert len(calls) >= 2
        assert carried[0].tobytes() == evaluated[0].tobytes()
        assert carried[1].tobytes() == evaluated[1].tobytes()


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

    def test_tensor_closed_form_matches_differences(self):
        spec = builtin_spec("tensor_svd", 8)
        rng = rng_from(45)
        mats = sample_unit_vectors(rng, 9, 12).reshape(-1, 3, 3)
        mats[0] = np.diag([0.8, -0.42, 0.42])  # repeated singular values, det < 0
        mats[1] = np.eye(3) / np.sqrt(3.0)
        v = mats.reshape(-1, 9) * rng.uniform(0.2, 1.0, size=(len(mats), 1))
        jac = spec.invariant_jacobian(v)
        assert jac.shape == (len(v), 3, 9)
        for row, j in zip(v[2:], jac[2:]):
            np.testing.assert_allclose(j, self.central_differences(
                lambda u: spec.invariant_map(u[None])[0], row),
                                       rtol=0, atol=1e-7)
        # tau has no derivative where singular values repeat: those rows are
        # the estimator's own central differences, with steps 1e-6 |v|
        steps = 1e-6 * np.linalg.norm(v[:2], axis=1)
        differences = composed._central_differences(
            lambda w: spec.invariant_map(composed._unit(w)), v[:2], steps)
        assert jac[:2].tobytes() == differences.tobytes()

    def test_one_leaf_jacobian_is_zero(self):
        spec = builtin_spec("one_leaf", 3)
        v = sample_unit_vectors(rng_from(44), 4, 6) * 0.5
        np.testing.assert_array_equal(spec.invariant_jacobian(v), np.zeros((6, 1, 4)))


class TestNearestLeafPoint:
    SPECS = [("one_leaf", 3), ("height", 4), ("tensor_svd", 8)]

    @staticmethod
    def rows(name, m):
        """Unit rows u and targets w, with the edge cases of each spec among the rows."""
        rng = rng_from(70, m)
        u = sample_unit_vectors(rng, m + 1, 40)
        w = sample_unit_vectors(rng, m + 1, 40)
        if name == "height":
            u[:2] = np.eye(m + 1)[0] * np.array([[1.0], [-1.0]])  # poles: every leaf point is nearest
            u[2] = _unit(np.eye(m + 1)[0] + 1e-9 * u[3])
        if name == "tensor_svd":
            u[0] = np.diag([0.8, -0.42, 0.42]).ravel()  # repeated singular values, det < 0
            u[1] = np.diag([0.8, 0.6, 0.0]).ravel()  # det = 0
            w[2] = -u[2]
        return u, w

    @pytest.mark.parametrize("name, m", SPECS, ids=[n for n, _ in SPECS])
    def test_lies_on_the_leaf_at_the_leaf_space_distance(self, name, m):
        # the chord to the nearest leaf point is 2 sin(delta / 2) for the leaf-space
        # distance delta, so no point of the leaf is nearer
        spec = builtin_spec(name, m)
        u, w = self.rows(name, m)
        tails = spec.invariant_map(w)
        near = spec.nearest_leaf_point(u, tails)
        assert not np.shares_memory(near, u)
        assert max_abs(spec.invariant_map(near) - tails) <= 1e-14
        assert max_abs(row_norms(near) - 1.0) <= 1e-14
        delta = spec.quotient_distance(u, w)
        assert max_abs(row_norms(u - near) - 2.0 * np.sin(delta / 2.0)) <= 1e-14
        # one tail (t,) serves every row
        one = spec.nearest_leaf_point(u, tails[5])
        assert one.tobytes() == spec.nearest_leaf_point(u, np.tile(tails[5], (len(u), 1))).tobytes()


class TestLeafSamples:
    """A leaf's samples are the nearest leaf points of uniform directions.

    Every built-in leaf is an orbit of a group of isometries, and the nearest-point
    map commutes with the group, so it carries uniform directions to uniform leaf
    points: the samples' first and second moments match those of an independent
    construction of the orbit, each entry within five standard errors of the
    difference of two independent means of N draws.
    """

    N = 40000

    @staticmethod
    def assert_moments_agree(a, b):
        for fa, fb in ((a, b), (np.einsum("ni,nj->nij", a, a), np.einsum("ni,nj->nij", b, b))):
            fa, fb = fa.reshape(len(fa), -1), fb.reshape(len(fb), -1)
            se = np.sqrt(fa.var(axis=0) / len(fa) + fb.var(axis=0) / len(fb))
            assert np.all(np.abs(fa.mean(axis=0) - fb.mean(axis=0)) <= 5.0 * se + 1e-15)

    def samples(self, spec, tail, seed):
        """The estimator's leaf directions: one uniform draw from rng_from(seed, 0)."""
        units = sample_unit_vectors(rng_from(seed, 0), spec.ambient_dim, self.N)
        near = spec.nearest_leaf_point(units, tail)
        assert max_abs(row_norms(near) - 1.0) <= 1e-12
        assert max_abs(spec.invariant_map(near) - tail) <= 1e-12
        return near

    def test_height_samples_are_uniform_on_the_leaf(self):
        # rotations fixing e_0 carry one leaf point over the whole leaf
        m = 4
        spec = builtin_spec("height", m)
        h = 0.3
        got = self.samples(spec, np.array([h]), 73)
        q = sign_fixed_rotation(rng_from(74).standard_normal((self.N, m, m)))
        orbit = np.concatenate([np.full((self.N, 1), h), np.sqrt(1.0 - h * h) * q[:, :, 0]], axis=1)
        self.assert_moments_agree(got, orbit)

    def test_tensor_samples_are_uniform_on_the_leaf(self):
        # U M W^T for Haar U and W carries M over its rotate-both-sides orbit
        spec = builtin_spec("tensor_svd", 8)
        mat = sample_unit_vectors(rng_from(75), 9, 1)[0].reshape(3, 3)
        got = self.samples(spec, signed_svd_triple(mat), 76)
        uw = sign_fixed_rotation(rng_from(77).standard_normal((self.N, 2, 3, 3)))
        orbit = (uw[:, 0] @ mat @ np.swapaxes(uw[:, 1], -1, -2)).reshape(self.N, 9)
        self.assert_moments_agree(got, orbit)

    def test_one_leaf_blocks_are_uniform_directions(self):
        # one_leaf's nearest point is the direction itself: its blocks are fibers over
        # r times the uniform draw of the child stream rng_from(seed, 0), bit for bit
        system = build_system(3, 2)
        spec = builtin_spec("one_leaf", system.m)
        v = 0.6 * sample_unit_vectors(rng_from(78), system.m + 1, 1)[0]
        r = float(row_norms(v))
        got = _leaf_sample_blocks(system, spec, v, 600, rng_from(79), leaf_tail(spec, v))
        units = sample_unit_vectors(rng_from(79, 0), system.m + 1, 19)
        blocks = fiber_sample(system, r * units, 32, rng_from(79, 1).integers(2**62, size=19))
        assert got.tobytes() == blocks.reshape(-1, system.dim)[:600].tobytes()


class TestSampleFloor:
    """The estimator's sample floor measures only the samples within 1e-9 of the best dot,
    and must give the least unit_angle over all of them, bit for bit."""

    @staticmethod
    def assert_floor(samples, x):
        dots = samples @ x
        floor = _sample_floor(samples, dots, x)
        assert floor.tobytes() == np.min(unit_angle(samples, x)).tobytes()
        return floor

    def test_benchmark_pool(self, monkeypatch):
        floors = []
        sample_floor = composed._sample_floor

        def checked(samples, dots, x):
            np.testing.assert_array_equal(dots, samples @ x)
            floors.append(self.assert_floor(samples, x))
            return sample_floor(samples, dots, x)

        monkeypatch.setattr(composed, "_sample_floor", checked)
        for system, spec, starts, xa, xb, seed in leaf_distance_pool():
            leaf_to_leaf_ambient_distance(system, spec, xa, xb, 1200, seed, starts=starts)
        assert len(floors) == 13

    @pytest.mark.parametrize("mk", [(3, 2), (4, 2, 1)], ids=["3_2", "4_2_1"])
    @pytest.mark.parametrize("spec_name", ["points", "height"])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.0 - 1e-8], ids=["origin", "interior",
                                                                    "boundary_adjacent"])
    def test_seeded_leaves(self, mk, spec_name, radius):
        system = build_system(*mk)
        m = system.m
        spec = builtin_spec(spec_name, m)
        rng = rng_from(86, m, int(1e3 * radius))
        v = radius * sample_unit_vectors(rng, m + 1, 1)[0]
        assert foliation._lift_height(radius) > 0.0  # samples, not the boundary closed form
        x = fiber_sample(system, 0.3 * sample_unit_vectors(rng, m + 1, 1)[0], 1, 87)[0]
        for budget in (1, 17, 64, 1200):
            samples = _leaf_sample_blocks(system, spec, v, budget, rng_from(88, budget),
                                          leaf_tail(spec, v))
            assert len(samples) == budget
            # x unit, x off unit by 5e-10 (check_unit passes it), and x next to a sample
            near = _unit(samples[-1] + 1e-7 * sample_unit_vectors(rng, system.dim, 1)[0])
            for point in (x, x * (1.0 + 5e-10), near):
                self.assert_floor(samples, point)

    def test_every_sample_on_the_far_side(self):
        rng = rng_from(89)
        x = sample_unit_vectors(rng, 16, 1)[0]
        for spread in (0.05, 0.5, 1.0):
            samples = _unit(-x + spread * rng.standard_normal((600, 16)) / 4.0)
            assert np.all(samples @ x < 0.0)
            for point in (x, x * (1.0 - 5e-10)):
                self.assert_floor(samples, point)

    def test_ties_and_repeats(self):
        # the best sample repeated, and samples a roundoff apart in their dot
        rng = rng_from(90)
        x = sample_unit_vectors(rng, 8, 1)[0]
        base = sample_unit_vectors(rng, 8, 40)
        samples = np.vstack([base, np.repeat(base[:1], 5, axis=0),
                             _unit(base[:1] + 1e-15 * rng.standard_normal((30, 8)))])
        self.assert_floor(samples, x)
        self.assert_floor(samples, _unit(samples[0] + 1e-12 * rng.standard_normal(8)))


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
