"""Quotient map geometry: fibers, the quartic form, geodesics, symmetries."""

import numpy as np
import pytest

from clifford_foliations import algebra, clifford, foliation
from clifford_foliations.algebra import (max_abs, rng_from, rng_streams, sample_unit_vectors,
                                         sign_fixed_q)
from clifford_foliations.clifford import (CliffordSystem, build_system, conjugate_system, delta,
                                          sub_system)
from clifford_foliations.foliation import (
    EmptyFocalError,
    HorizontalGeodesic,
    boundary_fiber_sample,
    eig_split,
    fiber_sample,
    fkm_f0,
    geodesic_eval,
    mplus_sample,
    pi_c,
    pi_jacobian_rows,
    project_geodesic_params,
    quotient_distance,
    quotient_lift,
    random_horizontal_geodesic,
    reflect_symmetry,
    reflected_disk_point,
    rotated_disk_point,
    spin_rotate,
)
from clifford_foliations.homogeneity import normal_form, sample_group_element


def haar(seed, n):
    """Haar-distributed matrix from O(n), drawn from seed's stream."""
    return sign_fixed_q(rng_from(seed).standard_normal((n, n)))


def built_pairs(max_dim):
    """Every (m, k) that build_system accepts with 2l <= max_dim."""
    return [(m, k) for m in range(1, 13) for k in range(1, 5)
            if (m, k) != (1, 1) and 2 * k * delta(m) <= max_dim]


def pi_oracle_rank2_mult2(x):
    """Independent evaluation of the quotient map for the m=1, k=2 system.

    Splits x = (u, v) in R^2 x R^2 and evaluates (|u|^2 - |v|^2, 2<u, v>).
    """
    u, v = x[:2], x[2:]
    return np.array([u @ u - v @ v, 2.0 * (u @ v)])


@pytest.fixture(scope="module")
def s12():
    return build_system(1, 2)


@pytest.fixture(scope="module")
def s22():
    return build_system(2, 2)


@pytest.fixture(scope="module")
def s42():
    return build_system(4, 2)


class TestPiC:
    def test_rank2_mult2_worked_values(self, s12):
        # frozen from the componentwise oracle
        x = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(pi_c(s12, x), [0.0, 0.0], atol=1e-15)
        y = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
        np.testing.assert_allclose(pi_c(s12, y), [0.0, 1.0], atol=1e-15)

    def test_matches_oracle_on_random_points(self, s12):
        x = sample_unit_vectors(rng_from(0), 4, 200)
        np.testing.assert_allclose(pi_c(s12, x),
                                   np.stack([pi_oracle_rank2_mult2(row) for row in x]),
                                   atol=1e-14)

    def test_eigenvector_maps_to_vertex(self, s22):
        p = np.array([1.0, 0.0, 0.0])
        x = boundary_fiber_sample(s22, p, 1, 0)[0]
        np.testing.assert_allclose(pi_c(s22, x), p, atol=1e-12)

    def test_even_bitwise(self, s42):
        x = sample_unit_vectors(rng_from(1), s42.dim, 100)
        assert np.array_equal(pi_c(s42, x), pi_c(s42, -x))

    def test_disk_containment(self, s42):
        x = sample_unit_vectors(rng_from(2), s42.dim, 2000)
        assert np.linalg.norm(pi_c(s42, x), axis=1).max() <= 1.0 + 1e-12

    def test_rejects_non_unit(self, s22):
        with pytest.raises(ValueError):
            pi_c(s22, np.ones(s22.dim))

    def test_pi_c_chunks_equal_one_stack(self):
        # 2l = 512 with 12 blocks R_i of width 256: 21 rows to a block, so 400
        # rows take 20; the reference is one kernel call on the whole batch
        system = build_system(12, 4)
        x = sample_unit_vectors(rng_from(65), system.dim, 400)
        assert len(algebra._blocks(len(x), system.m * system.l)) == 20
        whole = foliation._quadratic_values(system, x)
        assert pi_c(system, x).tobytes() == whole.tobytes()
        dense = conjugate_system(build_system(5, 2), haar(66, 32))
        y = sample_unit_vectors(rng_from(67), dense.dim, 12000)
        whole = foliation._quadratic_values(dense, y)
        assert pi_c(dense, y).tobytes() == whole.tobytes()
        assert pi_c(dense, y.reshape(40, 300, 32)).tobytes() == whole.tobytes()

    def test_matches_the_dense_quadratic_forms(self):
        # (|u|^2 - |w|^2, 2 <u R_i^T, w>) in E+-(P_0) coefficients is <P_i x, x>, whether
        # P_0 is a +-1 diagonal (built systems, their dense twins, prefix sub-systems)
        # or not (conjugates, a sub-system led by P_1), and for m = 0
        built = [build_system(m, k, flips) for m, k in built_pairs(64) for flips in {0, min(1, k)}]
        s431 = build_system(4, 3, 1)
        others = [dense_twin(s431), conjugate_system(s431, haar(75, s431.dim)),
                  sub_system(s431, range(3)), sub_system(s431, [0, 2, 4]),
                  sub_system(s431, [1, 0, 3]), sub_system(s431, [0]), sub_system(s431, [2])]
        for system in built + others:
            x = sample_unit_vectors(rng_from(76, system.dim, system.m), system.dim, 20)
            gens = np.stack([system.dense_generator(i) for i in range(system.m + 1)])
            expected = np.einsum("nd,ide,ne->ni", x, gens, x)
            got = pi_c(system, x)
            assert got.shape == (20, system.m + 1)
            assert max_abs(got - expected) <= 1e-14
            if system.exact and system._p0_split is not None:
                # with E+-(P_0) read off a diagonal P_0 a row is its single call, bit
                # for bit; other bases take BLAS products shaped by the batch
                assert all(pi_c(system, row).tobytes() == got[j].tobytes()
                           for j, row in enumerate(x))

    def test_prefix_sub_systems_truncate_bitwise(self):
        # a prefix keeps P_0, so its E+-(P_0) coefficients and the first blocks R_i
        for m, k in built_pairs(64):
            full = build_system(m, k, min(1, k - 1))
            x = sample_unit_vectors(rng_from(77, m, k), full.dim, 12)
            whole = pi_c(full, x)
            for top in range(m):
                assert np.array_equal(pi_c(sub_system(full, range(top + 1)), x),
                                      whole[:, :top + 1])

    def test_built_systems_evaluate_from_gather_pairs(self, monkeypatch):
        # pi_C and its differential on a fresh built system form no 2l x 2l generator
        # and no SVD eigenbasis: E+-(P_0) come off P_0's diagonal
        def refuse(*args, **kwargs):
            raise AssertionError("dense generator or eigenbasis built")

        monkeypatch.setattr(CliffordSystem, "dense_generator", refuse)
        monkeypatch.setattr(algebra, "projector_colspace_basis", refuse)
        for system in (build_system(12, 4), build_system(4, 3, 1)):
            x = sample_unit_vectors(rng_from(78), system.dim, 5)
            assert pi_c(system, x).shape == (5, system.m + 1)
            assert pi_jacobian_rows(system, x).shape == (5, system.m + 1, system.dim)

    def test_wrong_width_names_the_shape(self, s22):
        # a unit row of another width fails before any gather, and says what was expected
        for width in (s22.dim - 2, s22.dim + 1, 2 * s22.dim):
            for x in (np.eye(width)[0], np.eye(width)[:3]):
                with pytest.raises(ValueError, match=rf"shape \(\.\.\., {s22.dim}\)"):
                    pi_c(s22, x)
                with pytest.raises(ValueError, match=rf"shape \(\.\.\., {s22.dim}\)"):
                    pi_jacobian_rows(s22, x)


NON_FINITE = [np.nan, np.inf, -np.inf]
# finite, but its square overflows to inf
HUGE = 1.3407807929942597e+154


class TestNonFiniteInputs:
    """NaN, inf and coordinates whose squares overflow fail the norm tests,
    instead of slipping past them or warning first."""

    @pytest.mark.parametrize("bad", NON_FINITE + [HUGE])
    def test_pi_c(self, s22, bad):
        x = np.zeros(s22.dim)
        x[0] = bad
        with pytest.raises(ValueError):
            pi_c(s22, x)
        batch = np.eye(s22.dim)[:3].copy()
        batch[1, 2] = bad
        with pytest.raises(ValueError):
            pi_c(s22, batch)

    @pytest.mark.parametrize("bad", NON_FINITE + [HUGE])
    def test_fiber_sample(self, s22, bad):
        with pytest.raises(ValueError):
            fiber_sample(s22, np.array([bad, 0.0, 0.0]), 4, 0)
        with pytest.raises(ValueError):
            fiber_sample(s22, np.array([0.1, bad, 0.2]), 4, 0)

    @pytest.mark.parametrize("bad", NON_FINITE + [HUGE])
    def test_boundary_fiber_sample(self, s22, bad):
        with pytest.raises(ValueError):
            boundary_fiber_sample(s22, np.array([bad, 0.0, 0.0]), 4, 0)
        with pytest.raises(ValueError):
            reflect_symmetry(s22, np.array([0.0, bad, 0.0]), np.eye(s22.dim))

    @pytest.mark.parametrize("bad", NON_FINITE + [2.0])
    def test_fkm_f0(self, s22, bad):
        # fkm_f0 relies on pi_c's unit check; 2.0 makes a finite non-unit row
        x = np.eye(s22.dim)[:2].copy()
        x[1, 0] = bad
        with pytest.raises(ValueError, match="unit vector"):
            fkm_f0(s22, x)

    @pytest.mark.parametrize("bad", NON_FINITE + [HUGE])
    def test_quotient_lift(self, bad):
        with pytest.raises(ValueError):
            quotient_lift(np.array([bad, 0.0]))
        with pytest.raises(ValueError):
            quotient_lift(np.array([[0.1, 0.0], [0.0, bad]]))


class TestEigSplit:
    def test_diagonal_involution(self):
        p = np.diag([1.0, 1.0, -1.0, -1.0])
        plus, minus = eig_split(p)
        assert plus.shape == (4, 2) and minus.shape == (4, 2)
        assert max_abs(p @ plus - plus) <= 1e-14
        assert max_abs(p @ minus + minus) <= 1e-14

    def test_generator_and_span_combination(self, s22):
        p0, p1 = s22.dense_generator(0), s22.dense_generator(1)
        for mat in (p0, (p0 + p1) / np.sqrt(2)):
            plus, minus = eig_split(mat)
            assert plus.shape[1] == s22.l and minus.shape[1] == s22.l
            assert max_abs(mat @ plus - plus) <= 1e-12

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            eig_split(np.diag([1.0, 2.0]))


class TestFiberSamplers:
    def test_boundary_fiber(self, s42):
        p = sample_unit_vectors(rng_from(3), 5, 1)[0]
        x = boundary_fiber_sample(s42, p, 300, 4)
        assert np.abs(pi_c(s42, x) - p).max() <= 1e-10
        assert np.abs(pi_c(s42, -x) - p).max() <= 1e-10

    def test_mplus(self, s42):
        x = mplus_sample(s42, 500, 5)
        assert np.linalg.norm(pi_c(s42, x), axis=1).max() <= 1e-10

    def test_mplus_empty_on_sphere_quotient(self):
        with pytest.raises(EmptyFocalError):
            mplus_sample(build_system(2, 1), 4, 0)

    def test_mplus_flags_disconnected(self, s12):
        # l = m+1: M+ still samples; that its fibers are disconnected is the
        # factorization suite's disconnected_witness, not a warning
        x = mplus_sample(s12, 50, 6)
        assert np.linalg.norm(pi_c(s12, x), axis=1).max() <= 1e-10

    @pytest.mark.parametrize("mk", [(1, 2), (3, 1), (7, 1)], ids=str)
    def test_mplus_holds_precision_on_a_line(self, mk):
        # l = m+1 leaves a line in E_-(P_0) after P_1 x+, ..., P_m x+ are projected out;
        # a second projection pass keeps pi_C at roundoff (one pass read up to 5.5e-13)
        system = build_system(*mk)
        assert system.l == system.m + 1
        assert max_abs(pi_c(system, mplus_sample(system, 2000, 81))) <= 1e-14

    def test_interior_fiber_and_redirects(self, s22):
        v = np.array([0.3, -0.2, 0.4])
        x = fiber_sample(s22, v, 400, 7)
        assert np.linalg.norm(pi_c(s22, x) - v, axis=1).max() <= 1e-9
        assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-12
        # the origin's fiber is M+ (a turn by 0); a boundary point's is drawn on E_+(P)
        origin = fiber_sample(s22, np.zeros(3), 50, 8)
        assert np.linalg.norm(pi_c(s22, origin), axis=1).max() <= 1e-10
        p = np.array([0.0, 1.0, 0.0])
        boundary = fiber_sample(s22, p, 50, 9)
        assert np.abs(pi_c(s22, boundary) - p).max() <= 1e-10

    @pytest.mark.parametrize("mk", [(2, 2), (3, 1), (5, 1), (4, 3, 1), (12, 4)], ids=str)
    def test_boundary_rows_are_turns_of_mplus(self, mk):
        # a boundary fiber is M+ turned by pi/4 (foliation._turn at |v| = 1), onto the unit
        # sphere of E_+(P); the samples' second moment about (I + P)/2l is within three
        # times the spread sqrt((1 - 1/l)/n) of n uniform samples, which the Gaussian
        # construction the sampler takes meets too
        system = build_system(*mk)
        p = sample_unit_vectors(rng_from(80, system.dim), system.m + 1, 1)[0]
        n = 2000
        x = foliation._turn(system, p[None], mplus_sample(system, n, 81)[None])[0]
        assert max_abs(pi_c(system, x) - p) <= 1e-12
        assert max_abs(np.linalg.norm(x, axis=1) - 1.0) <= 1e-12
        target = (np.eye(system.dim) + system.span_matrix(p)) / system.dim
        bound = 3.0 * np.sqrt((1.0 - 1.0 / system.l) / n)
        for sample in (x, boundary_fiber_sample(system, p, n, 81)):
            assert np.linalg.norm(sample.T @ sample / n - target) <= bound

    def test_boundary_rows_up_to_the_accepted_radius(self, s22):
        # boundary rows snap to v/|v| before they are drawn, up to the accepted 1 + 1e-12;
        # the turn clips |v| to 1 in its arcsine, so a row a rounding above 1 turns by pi/4
        p = np.array([0.6, 0.0, 0.8])
        radii = np.array([1.0 + 0.9e-12, 1.0, 1.0 - 1e-14])
        x = fiber_sample(s22, radii[:, None] * p, 20, np.arange(3))
        assert max_abs(pi_c(s22, x) - p) <= 1e-12
        over = foliation._turn(s22, (1.0 + 1e-12) * p[None], mplus_sample(s22, 20, 3)[None])
        assert max_abs(pi_c(s22, over) - p) <= 1e-12

    def test_sphere_quotient_has_only_boundary_fibers(self):
        # l = m: M+ is empty, so every fiber is a boundary fiber, drawn as
        # boundary_fiber_sample draws it, and any other disk point has no fiber
        system = build_system(2, 1)
        p = sample_unit_vectors(rng_from(82), 3, 2)
        x = fiber_sample(system, p, 10, np.array([83, 84]))
        assert max_abs(pi_c(system, x) - p[:, None]) <= 1e-12
        assert max_abs(x - boundary_fiber_sample(system, p, 10, np.array([83, 84]))) <= 1e-15
        for v, seeds in ((np.zeros(3), 0), (0.5 * p[0], 0), (p * [[1.0], [0.5]], np.arange(2))):
            with pytest.raises(EmptyFocalError):
                fiber_sample(system, v, 4, seeds)

    def test_boundary_limit_parametrization(self, s22):
        # t = pi/4 maps focal points onto the boundary fiber of Q itself
        q = np.array([1.0, 0.0, 0.0])
        x0 = mplus_sample(s22, 50, 10)
        q_mat = s22.span_matrix(q)
        t = np.pi / 4
        z = np.cos(t) * x0 + np.sin(t) * (x0 @ q_mat.T)
        assert np.abs(pi_c(s22, z) - q).max() <= 1e-12

    def test_fiber_dimension_counts(self, s12, s22):
        # complement dimension l - m: 1 for (1,2) (a 0-sphere), 2 for (2,2)
        assert s12.l - s12.m == 1
        assert s22.l - s22.m == 2


def dense_span(system, coords):
    """sum_i coords[i] * P_i as a plain dense sum, zero coordinates included."""
    out = np.zeros((system.dim, system.dim))
    for i, c in enumerate(coords):
        out += c * system.dense_generator(i)
    return out


def ascending_units(basis):
    """basis with its standard unit columns sorted by the coordinate each selects, in their own
    slots; every other column stays where it is."""
    units = np.flatnonzero((np.count_nonzero(basis, axis=0) == 1) & np.any(basis == 1.0, axis=0))
    out = basis.copy()
    out[:, units] = basis[:, units[np.argsort(np.argmax(basis[:, units], axis=0))]]
    return out


def mplus_reference(system, n, seed):
    """The M+ sampler written out with a fresh eig_split, its coordinate columns in ascending
    order as CliffordSystem reads them off a diagonal P_0, and dense generators."""
    b_plus, b_minus = map(ascending_units, eig_split(system.dense_generator(0)))
    rng = rng_from(seed)
    x_plus = sample_unit_vectors(rng, system.l, n) @ b_plus.T
    w = np.stack([x_plus @ system.dense_generator(i).T for i in range(1, system.m + 1)], axis=1)
    g = rng.standard_normal((n, system.l)) @ b_minus.T
    # l = m+1 leaves a line, where one pass keeps roundoff in the span: project twice
    for _ in range(2 if system.l == system.m + 1 else 1):
        g -= np.einsum("nmd,nm->nd", w, np.einsum("nmd,nd->nm", w, g))
    norms = np.linalg.norm(g, axis=1)
    assert norms.min() >= 1e-8  # no redraws, so the draws above are all of them
    return (x_plus + g / norms[:, None]) / np.sqrt(2.0)


def dense_twin(system):
    """The generators of a system as one dense stack, so its E_+-(P_0) blocks are a stack too."""
    gens = np.stack([system.dense_generator(i) for i in range(system.m + 1)])
    return CliffordSystem(system.m, system.l, gens, system.provenance)


def reference_systems():
    """Every built system with 2l <= 64 and a nonempty M+, (4, 3, 1) and a conjugated one."""
    for m in range(1, 13):
        for k in range(1, 5):
            if (m, k) != (1, 1) and 2 * k * delta(m) <= 64 and k * delta(m) >= m + 1:
                yield (m, k)
    yield (4, 3, 1)
    yield "conjugated"


def boundary_cases():
    conj = conjugate_system(build_system(3, 2), haar(30, 16))
    for system in (build_system(2, 2), build_system(4, 3, flips=1), conj):
        e0 = np.eye(system.m + 1)[0]
        yield system, e0
        yield system, -e0
        yield system, sample_unit_vectors(rng_from(31, system.dim), system.m + 1, 1)[0]


class TestSamplerFormulas:
    @pytest.mark.parametrize("case", range(9))
    def test_boundary_samples_in_positive_eigenspace(self, case):
        system, p = list(boundary_cases())[case]
        x = boundary_fiber_sample(system, p, 200, 32 + case)
        assert max_abs(x @ dense_span(system, p).T - x) <= 1e-12
        assert max_abs(np.linalg.norm(x, axis=1) - 1.0) <= 1e-12
        again = boundary_fiber_sample(system, p, 200, 32 + case)
        assert x.tobytes() == again.tobytes()

    def test_boundary_rejects_non_involution(self, s22):
        # unit to the 1e-9 point tolerance, but P^2 - Id = (|p|^2 - 1) Id exceeds 1e-10
        with pytest.raises(ValueError, match="involution"):
            boundary_fiber_sample(s22, np.array([1.0 + 5e-10, 0.0, 0.0]), 4, 0)

    def test_boundary_uniform_second_moment(self, s22):
        # uniform on the unit sphere of E_+(P): E[x x^T] = (Id + P) / (2l)
        p = sample_unit_vectors(rng_from(33), 3, 1)[0]
        n = 20000
        x = boundary_fiber_sample(s22, p, n, 34)
        outer = x[:, :, None] * x[:, None, :]
        expected = (np.eye(s22.dim) + dense_span(s22, p)) / s22.dim
        sigma = outer.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(outer.mean(axis=0) - expected) <= 5.0 * sigma + 1e-12)

    # (4, 3, 1): a flipped block, whose E+-(P_0) coordinates do not ascend
    @pytest.mark.parametrize("mk", [(2, 2), (3, 2), (4, 3), (6, 2), (9, 1), (4, 3, 1)])
    def test_exact_samplers_match_dense_formulas_bitwise(self, mk):
        # the gather pair of an exact system and the (m, l, l) blocks of its
        # dense twin give the same bits, on one point and on rows, where both take
        # l x l blocks B_p; the exact system's own span action takes one copy at a time
        # (except on the partial flip and at k = 1), whose products differ from the l x l
        # ones in the last bits on some kernels
        copies = build_system(*mk)
        system = CliffordSystem(copies.m, copies.l, copies.generators)
        vars(system)["_p0_copies"] = 1  # set before the cached scatter index is read
        twin = dense_twin(system)
        assert isinstance(system._p0_blocks, tuple)
        assert isinstance(twin._p0_blocks, np.ndarray)
        coords = sample_unit_vectors(rng_from(35, *mk), system.m + 1, 1)[0]
        coords[1] = 0.0
        assert system.span_matrix(coords).tobytes() == dense_span(system, coords).tobytes()
        assert mplus_sample(system, 40, 36).tobytes() == mplus_sample(twin, 40, 36).tobytes()
        v = 0.6 * coords / np.linalg.norm(coords)
        assert fiber_sample(system, v, 40, 37).tobytes() == fiber_sample(twin, v, 40, 37).tobytes()
        rows, seeds = mixed_disk_rows(system)
        expected = fiber_sample(twin, rows, 3, seeds)
        assert fiber_sample(system, rows, 3, seeds).tobytes() == expected.tobytes()
        assert max_abs(fiber_sample(copies, rows, 3, seeds) - expected) <= 1e-15

    @pytest.mark.parametrize("mk", list(reference_systems()), ids=str)
    def test_samplers_match_the_2l_formulas(self, mk):
        # sampled in E+-(P_0) coefficients, equal to the formulas on R^(2l) up to rounding
        if mk == "conjugated":
            system = conjugate_system(build_system(3, 2), haar(36, 16))
        else:
            system = build_system(*mk)
        assert max_abs(mplus_sample(system, 40, 36) - mplus_reference(system, 40, 36)) <= 1e-15
        coords = sample_unit_vectors(rng_from(37, system.dim, system.m), system.m + 1, 1)[0]
        v = 0.6 * coords
        t = np.arcsin(np.linalg.norm(v)) / 2.0
        x = mplus_reference(system, 40, 37)
        expected = np.cos(t) * x + np.sin(t) * (x @ dense_span(system, coords).T)
        assert max_abs(fiber_sample(system, v, 40, 37) - expected) <= 1e-15

    def test_built_systems_take_no_eigenbasis(self, monkeypatch):
        # E+-(P_0) are read off a diagonal P_0, so no SVD runs, not even on a fresh system
        def refuse(*args, **kwargs):
            raise AssertionError("projector_colspace_basis called")

        monkeypatch.setattr(algebra, "projector_colspace_basis", refuse)
        v = np.array([0.3, -0.2, 0.1, 0.0, 0.4])
        for system in (build_system(4, 3), build_system(4, 3, 1), dense_twin(build_system(4, 3, 1))):
            mplus_sample(system, 4, 39)
            fiber_sample(system, v, 4, 40)
            boundary_fiber_sample(system, v / np.linalg.norm(v), 4, 41)
            assert system.p0_eigenbases[0].shape == (24, 12)
        # a conjugated P_0 is not diagonal: its eigenbases still come from the SVD
        conj = conjugate_system(build_system(4, 3), haar(38, 24))
        with pytest.raises(AssertionError, match="projector_colspace_basis called"):
            conj.p0_eigenbases

    def test_built_systems_form_no_dense_generator(self, monkeypatch):
        # a fresh exact system samples from its gather pairs: E+-(P_0) come off the
        # diagonal of P_0's gather pair, and no 2l x 2l generator is formed
        def refuse(self, i):
            raise AssertionError("dense_generator called")

        monkeypatch.setattr(CliffordSystem, "dense_generator", refuse)
        system = build_system(12, 4)
        p = sample_unit_vectors(rng_from(42), system.m + 1, 1)[0]
        assert mplus_sample(system, 4, 39).shape == (4, 512)
        assert fiber_sample(system, 0.5 * p, 4, 40).shape == (4, 512)
        assert boundary_fiber_sample(system, p, 4, 41).shape == (4, 512)


class TestSamplerLaws:
    """First and second moments of N draws of every sampler, against their closed forms.

    For unit rows x with E[x] = 0 and E[x x^T] = M, E|x_bar|^2 = 1/N and
    E|M_hat - M|_F^2 = (1 - |M|_F^2)/N, so sqrt(N)|x_bar| and sqrt(N)|M_hat - M|_F each
    have rms at most 1 and, by Chebyshev, exceed BOUND = 20 with probability at most 1/400.
    The fiber over v has M = (I + sum v_i P_i)/(2l): v = 0 for uniform points of S^(2l-1)
    and for M+, and v = q for the boundary fiber over a unit q, drawn on E_+(Q) by the
    sampler and, as Ferus, Karcher and Muenzner's turn of M+ by pi/4, by foliation._turn.
    The E_-(P_0) coefficients w of M+ have E[w] = 0 and E|w|^2 = 1/2, so sqrt(2N)|w_bar|
    has rms at most 1 too.
    """

    N, BOUND = 10**5, 20.0

    @pytest.mark.parametrize("mkf", [(3, 2, 0), (4, 2, 1), (5, 1, 0), (7, 1, 0)], ids=str)
    def test_moments_match_the_closed_forms(self, mkf):
        system = build_system(*mkf)
        q = sample_unit_vectors(rng_from(93, *mkf), system.m + 1, 1)[0]
        origin = np.zeros(system.m + 1)
        draws = {
            "uniform": (origin,
                        lambda: sample_unit_vectors(rng_from(94, *mkf), system.dim, self.N)),
            "mplus": (origin, lambda: mplus_sample(system, self.N, 95)),
            "fiber_0.5": (0.5 * q, lambda: fiber_sample(system, 0.5 * q, self.N, 96)),
            "fiber_0.95": (0.95 * q, lambda: fiber_sample(system, 0.95 * q, self.N, 97)),
            "boundary": (q, lambda: boundary_fiber_sample(system, q, self.N, 98)),
            "fiber_1": (q, lambda: fiber_sample(system, q, self.N, 99)),
            "turn": (q, lambda: foliation._turn(system, q[None],
                                                mplus_sample(system, self.N, 100)[None])[0]),
        }
        eye = np.eye(system.dim)
        stats = {}
        for name, (v, draw) in draws.items():
            x = draw()
            moment = (eye + system.span_apply(v, eye)) / system.dim
            stats[name] = (np.sqrt(self.N) * np.linalg.norm(x.mean(axis=0)),
                           np.sqrt(self.N) * np.linalg.norm(x.T @ x / self.N - moment))
            if name == "mplus":
                w = system.p0_coefficients(x)[1]
                stats["mplus_minus_half"] = (np.sqrt(2 * self.N) * np.linalg.norm(w.mean(axis=0)),)
        assert max(max(pair) for pair in stats.values()) <= self.BOUND, stats


def delegation_systems():
    """Exact, flipped, dense, conjugated, l = m and l = m+1 systems."""
    yield build_system(3, 2)
    yield build_system(4, 2, 1)
    yield dense_twin(build_system(4, 3, 1))
    yield conjugate_system(build_system(3, 2), haar(65, 16))
    yield build_system(2, 1)
    yield build_system(3, 1)


class TestOneSampler:
    """mplus_sample and boundary_fiber_sample are fiber_sample, at the origin and at p/|p|."""

    @pytest.mark.parametrize("case", range(6))
    def test_delegations_equal_fiber_sample(self, case):
        system = list(delegation_systems())[case]
        p = sample_unit_vectors(rng_from(66, system.dim), system.m + 1, 3)
        unit = p / algebra.row_norms(p)[:, None]  # each row's norm, as a single call's
        seeds = np.array([7, 8, 9])
        for rows, row_seeds in ((p, seeds), (p[0], 7)):
            got = boundary_fiber_sample(system, rows, 4, row_seeds)
            want = fiber_sample(system, unit if rows.ndim == 2 else unit[0], 4, row_seeds)
            assert got.tobytes() == want.tobytes()
        origin = np.zeros((3, system.m + 1))
        if system.l == system.m:  # no M+: both raise where M+ is asked for
            for call in (lambda: mplus_sample(system, 4, seeds),
                         lambda: fiber_sample(system, origin, 4, seeds)):
                with pytest.raises(EmptyFocalError):
                    call()
        else:
            for origin_rows, row_seeds in ((origin, seeds), (origin[0], 7)):
                assert (mplus_sample(system, 4, row_seeds).tobytes()
                        == fiber_sample(system, origin_rows, 4, row_seeds).tobytes())

    def test_boundary_point_off_unit_by_the_involution_tolerance(self, s22):
        # |p| = 1 + 4e-11 is above fiber_sample's 1 + 1e-12, but |p|^2 - 1 is within the
        # involution's 1e-10, so it samples the fiber over p/|p|; 1 + 5e-10 is not
        p = np.array([0.6, 0.0, 0.8])
        x = boundary_fiber_sample(s22, (1.0 + 4e-11) * p, 8, 3)
        assert max_abs(pi_c(s22, x) - p) <= 1e-12
        with pytest.raises(ValueError, match="norm > 1"):
            fiber_sample(s22, (1.0 + 4e-11) * p, 8, 3)
        with pytest.raises(ValueError, match="involution"):
            boundary_fiber_sample(s22, (1.0 + 5e-10) * p, 8, 3)


class ZeroRowAt:
    """A generator whose standard_normal draw number ``at`` comes back with row 1 zeroed."""

    def __init__(self, rng, at):
        self.rng, self.at, self.draws = rng, at, 0

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size, out=out)
        if self.draws == self.at:
            x[1] = 0.0
        self.draws += 1
        return x


def sample(system, sampler, seeds):
    """Three samples of the fiber over e_0 or of M+, for one seed or a seed array."""
    if sampler == "boundary":
        p = np.eye(system.m + 1)[0]
        rows = p if np.ndim(seeds) == 0 else np.array([p] * len(seeds))
        return boundary_fiber_sample(system, rows, 3, seeds)
    return mplus_sample(system, 3, seeds)


def row_wise_systems():
    yield build_system(2, 2)
    yield build_system(4, 3, flips=1)
    yield build_system(9, 1)
    yield conjugate_system(build_system(3, 2), haar(60, 16))
    yield conjugate_system(build_system(5, 2), haar(61, 32))


def mixed_disk_rows(system, count=12):
    """Disk points with origin, interior and boundary rows, and one seed per row."""
    d = sample_unit_vectors(rng_from(62, system.dim), system.m + 1, count)
    r = np.linspace(0.05, 0.95, count)
    r[[0, 5]] = 0.0
    r[[1, 8]] = 1.0
    seeds = rng_from(63, system.dim).integers(2**62, size=count)
    return r[:, None] * d, seeds


class TestRowWiseSamplers:
    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("n", [1, 3])
    def test_fiber_rows_equal_single_calls(self, case, n):
        # origin, interior and boundary rows mixed in one call
        system = list(row_wise_systems())[case]
        v, seeds = mixed_disk_rows(system)
        batch = fiber_sample(system, v, n, seeds)
        assert batch.shape == (len(v), n, system.dim)
        for j in range(len(v)):
            assert batch[j].tobytes() == fiber_sample(system, v[j], n, int(seeds[j])).tobytes()

    @pytest.mark.parametrize("case", range(5))
    def test_boundary_and_mplus_rows_equal_single_calls(self, case):
        system = list(row_wise_systems())[case]
        p = sample_unit_vectors(rng_from(64, system.dim), system.m + 1, 7)
        seeds = np.arange(7) * 1000 + 5
        boundary = boundary_fiber_sample(system, p, 4, seeds)
        focal = mplus_sample(system, 4, seeds)
        assert boundary.shape == focal.shape == (7, 4, system.dim)
        for j, seed in enumerate(seeds):
            single = boundary_fiber_sample(system, p[j], 4, int(seed))
            assert boundary[j].tobytes() == single.tobytes()
            assert focal[j].tobytes() == mplus_sample(system, 4, int(seed)).tobytes()

    @pytest.mark.parametrize("case", range(5))
    def test_geodesic_rows_equal_single_calls(self, case):
        system = list(row_wise_systems())[case]
        seeds = 7000 + np.arange(9)
        geodesics = random_horizontal_geodesic(system, seeds)
        assert len(geodesics.x_plus) == len(seeds)
        ts = np.linspace(0.0, np.pi / 2.0, 7)
        curves = geodesic_eval(geodesics, ts)
        p, q = project_geodesic_params(system, geodesics)
        for j, seed in enumerate(seeds):
            one = random_horizontal_geodesic(system, int(seed))
            for name in ("p_coords", "x_plus", "x_minus"):
                assert getattr(geodesics, name)[j].tobytes() == getattr(one, name).tobytes()
            assert curves[:, j].tobytes() == geodesic_eval(one, ts).tobytes()
            p_one, q_one = project_geodesic_params(system, one)
            assert p[j].tobytes() == p_one.tobytes()
            assert q[j].tobytes() == q_one.tobytes()

    @pytest.mark.parametrize("case", range(5))
    def test_span_stack_equals_single_matrices(self, case):
        system = list(row_wise_systems())[case]
        coords = sample_unit_vectors(rng_from(68, system.dim), system.m + 1, 6)
        coords[2, 1] = 0.0
        coords[4, :] = 0.0
        stack = system.span_matrix(coords)
        assert stack.shape == (6, system.dim, system.dim)
        for c, mat in zip(coords, stack):
            assert mat.tobytes() == system.span_matrix(c).tobytes()
            assert mat.tobytes() == dense_span(system, c).tobytes()

    def test_norm_trap_row(self, s22):
        # the pairwise norm of this row is one ulp off its 1-D np.linalg.norm, a BLAS dot,
        # on some kernels; the batch radius must be the single call's
        v = np.array([0.3808923102553664, 0.22284632304195315, -0.40652252618398793])
        rows = np.stack([0.5 * v, v, -v])
        batch = fiber_sample(s22, rows, 3, np.array([70, 71, 72]))
        assert batch[1].tobytes() == fiber_sample(s22, v, 3, 71).tobytes()
        assert batch[2].tobytes() == fiber_sample(s22, -v, 3, 72).tobytes()

    def test_seeds_must_be_integers(self, s22):
        # a float seed is rejected, not truncated to the stream of its integer part
        v = np.array([0.1, 0.2, 0.3])
        for call in (lambda: fiber_sample(s22, v, 2, 1.5),
                     lambda: fiber_sample(s22, np.stack([v, v]), 2, np.array([1.0, 2.0])),
                     lambda: mplus_sample(s22, 2, np.array([1.9, 2.2])),
                     lambda: boundary_fiber_sample(s22, np.eye(3)[0], 2, 3.0),
                     lambda: random_horizontal_geodesic(s22, 1.5)):
            with pytest.raises(TypeError, match="^seeds must be an integer, got"):
                call()
        with pytest.raises(ValueError, match="^seeds must be at least 0, got -1$"):
            mplus_sample(s22, 2, np.array([3, -1]))

    def test_bool_seeds_raise(self, s22):
        # a bool is not a seed: True would otherwise draw seed 1's stream
        v = np.array([0.1, 0.2, 0.3])
        for points, seeds in ((v, True), (np.stack([v, v]), np.array([True, False])),
                              (np.stack([v, v]), [1, True])):
            with pytest.raises(TypeError, match="^seeds must be an integer, got True$"):
                fiber_sample(s22, points, 2, seeds)

    @pytest.mark.parametrize("sampler, at", [("boundary", 0), ("mplus", 0), ("mplus", 1)])
    def test_short_rows_redraw_from_their_own_stream(self, s22, monkeypatch, sampler, at):
        # draw number `at` of every stream has a zero row: the boundary
        # Gaussians, the M+ unit vectors or the M+ complement Gaussians
        plain = sample(s22, sampler, np.arange(7) + 40)
        monkeypatch.setattr(foliation, "rng_streams",
                            lambda seeds: [ZeroRowAt(rng, at) for rng in rng_streams(seeds)])
        rows = sample(s22, sampler, np.arange(7) + 40)
        for j in range(7):
            assert rows[j].tobytes() == sample(s22, sampler, 40 + j).tobytes()
        target = np.eye(3)[0] if sampler == "boundary" else np.zeros(3)
        assert max_abs(pi_c(s22, rows) - target) <= 1e-12
        assert max_abs(rows[:, 1] - plain[:, 1]) > 0.1  # the short row came back redrawn
        if sampler == "boundary":
            # the redrawn row is the stream's next draw y, as (y + P y) / |y + P y|
            rng = rng_from(40)
            rng.standard_normal((3, s22.dim))
            y = rng.standard_normal(s22.dim)
            z = y + s22.span_matrix(target) @ y
            assert max_abs(rows[0, 1] - z / np.linalg.norm(z)) <= 1e-15

    @pytest.mark.parametrize("mk", [(2, 2), (11, 2), (2, 2, 1)], ids=str)
    def test_empty_batches(self, mk):
        # k = 0 rows give an empty batch of the documented shape, on systems whose span
        # action takes one copy at a time and on a partial flip's, which takes l x l blocks
        system = build_system(*mk)
        assert system._p0_copies == (1 if mk[2:] else 2)
        n, dim, none = 3, system.dim, np.arange(0)
        p, x = np.empty((0, system.m + 1)), np.empty((0, n, dim))
        for rows in (fiber_sample(system, p, n, none), boundary_fiber_sample(system, p, n, none),
                     mplus_sample(system, n, none), reflect_symmetry(system, p, x),
                     spin_rotate(system, p, p, 0.3, x), system.span_apply(p, x)):
            assert rows.shape == (0, n, dim)
        assert system.span_matrix(p).shape == (0, dim, dim)
        geodesics = random_horizontal_geodesic(system, none)
        assert [a.shape for a in (geodesics.p_coords, geodesics.x_plus, geodesics.x_minus)] == [
            (0, system.m + 1), (0, dim), (0, dim)]
        assert rng_streams(none) == []
        assert sample_group_element("H", 2, none).entries.shape == (0, 2, 2, 4)
        form = normal_form(np.empty((0, dim)), "R")
        assert [np.shape(a) for a in (form.u1, form.v1, form.v2)] == [(0,), (0, 1), (0,)]

    def test_seed_count_must_match_rows(self, s22):
        v = np.array([[0.1, 0.2, 0.3], [0.0, 0.4, 0.0]])
        with pytest.raises(ValueError, match="seed"):
            fiber_sample(s22, v, 2, np.arange(3))
        with pytest.raises(ValueError, match="seed"):
            fiber_sample(s22, v, 2, 5)
        with pytest.raises(ValueError, match="seed"):
            fiber_sample(s22, v[0], 2, np.arange(1))
        with pytest.raises(ValueError, match="seed"):
            boundary_fiber_sample(s22, np.eye(3)[:2], 2, np.arange(1))


class TestBlocks:
    def test_blocks_are_equal_slices_of_whole_rows(self):
        for count, size in [(0, 5), (1, 10**6), (3, 10**6), (7, 1), (1000, 100), (401, 6656)]:
            blocks = algebra._blocks(count, size)
            assert blocks[0].start == 0 and blocks[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            rows = [b.stop - b.start for b in blocks]
            assert max(rows) - min(rows) <= 1
            assert all(r * size <= algebra._BLOCK or r == 1 for r in rows)

    @pytest.mark.parametrize("case", ["exact", "conjugated"])
    def test_small_blocks_equal_one_block(self, monkeypatch, case):
        system = build_system(3, 2)
        if case == "conjugated":
            system = conjugate_system(system, haar(69, system.dim))
        x = sample_unit_vectors(rng_from(70), system.dim, 50)
        v, seeds = mixed_disk_rows(system)  # 2 origin, 8 interior and 2 boundary rows
        n, m, l = 5, system.m, system.l
        d = l // system._p0_copies  # 4 on the exact system's two copies, 8 when conjugated
        sliced = []

        def blocks(count, size):
            out = algebra._blocks(count, size)
            sliced.append((count, size, len(out)))
            return out

        monkeypatch.setattr(foliation, "_blocks", blocks)
        monkeypatch.setattr(clifford, "_blocks", blocks)

        def draws():
            sliced.clear()
            return [pi_c(system, x), fiber_sample(system, v, n, seeds),
                    mplus_sample(system, n, seeds)]

        # (rows, entries a row) of each slicing: pi_c's 50 rows of m l images; the 2
        # boundary fibers' d x d blocks B_p in span_apply, then the other 10 fibers' M+
        # draws of n m l images in _mplus_rows and the d x d turns of the 8 rows off the
        # origin; mplus_sample's 12 rows of n m l images
        sizes = [(50, m * l), (2, d * d), (10, n * m * l), (8, d * d), (12, n * m * l)]
        whole = draws()
        assert sliced == [size + (1,) for size in sizes]
        # a slice of 640 entries holds at most 26 pi_c rows, 5 M+ rows and 640 / d^2
        # blocks B_p; one of 256 at most 10, 2 and 256 / d^2; one of 64 at most 2, 1 and
        # 64 / d^2; one of 16 at most 1 of each.  Every path splits at d^2, all but the
        # boundary rows at 256 where d = 8, and pi_c and the M+ draws at 640
        levels = {4: ((640, [2, 1, 2, 1, 3]), (256, [5, 1, 5, 1, 6]), (16, [50, 2, 10, 8, 12])),
                  8: ((640, [2, 1, 2, 1, 3]), (256, [5, 1, 5, 2, 6]), (64, [25, 2, 10, 8, 12]))}
        for block, parts in levels[d]:
            monkeypatch.setattr(algebra, "_BLOCK", block)
            for got, expected in zip(draws(), whole):
                assert got.tobytes() == expected.tobytes()
            assert sliced == [size + (count,) for size, count in zip(sizes, parts)]


class TestHorizontalFrame:
    def test_interior_frame(self, s22):
        # the m+1 gradient rows span the horizontal space at an interior point
        x = fiber_sample(s22, np.array([0.2, 0.1, -0.3]), 1, 11)[0]
        rows = pi_jacobian_rows(s22, x)
        assert rows.shape == (3, s22.dim)
        assert max_abs(rows @ x) <= 1e-12
        sv = np.linalg.svd(rows, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]

    def test_focal_frame_orthogonal_of_norm_two(self, s22):
        x = mplus_sample(s22, 1, 12)[0]
        rows = pi_jacobian_rows(s22, x)
        gram = rows @ rows.T
        np.testing.assert_allclose(gram, 4.0 * np.eye(3), atol=1e-12)

    def test_boundary_flagged(self, s22):
        # a boundary point shows as a rank drop: the rows lie in the normal
        # space E_-(P) and span only the m directions along the boundary sphere
        p = np.array([1.0, 0.0, 0.0])
        x = boundary_fiber_sample(s22, p, 1, 13)[0]
        rows = pi_jacobian_rows(s22, x)
        assert max_abs(rows @ s22.span_matrix(p).T + rows) <= 1e-12
        assert max_abs(p @ rows) <= 1e-12
        sv = np.linalg.svd(rows, compute_uv=False)
        assert sv[1] > 0.5 and sv[2] <= 1e-12

    def test_finite_difference_agreement(self, s22):
        x = fiber_sample(s22, np.array([0.25, 0.2, 0.1]), 1, 14)[0]
        rng = rng_from(15)
        h = 1e-5
        for _ in range(5):
            w = rng.standard_normal(s22.dim)
            w -= (w @ x) * x
            w /= np.linalg.norm(w)
            fd = (pi_c(s22, np.cos(h) * x + np.sin(h) * w)
                  - pi_c(s22, np.cos(h) * x - np.sin(h) * w)) / (2 * h)
            np.testing.assert_allclose(fd, pi_jacobian_rows(s22, x) @ w, atol=1e-6)


class TestFkm:
    def test_two_forms_agree(self, s42):
        x = sample_unit_vectors(rng_from(16), s42.dim, 1000)
        direct, factored = fkm_f0(s42, x)
        assert np.abs(direct - factored).max() <= 1e-12

    def test_special_values(self, s22):
        p = np.array([0.0, 0.0, 1.0])
        boundary = boundary_fiber_sample(s22, p, 30, 17)
        assert np.abs(fkm_f0(s22, boundary)[1] + 1.0).max() <= 1e-10
        focal = mplus_sample(s22, 30, 18)
        assert np.abs(fkm_f0(s22, focal)[1] - 1.0).max() <= 1e-10
        half = fiber_sample(s22, 0.5 * p, 30, 19)
        assert np.abs(fkm_f0(s22, half)[1] - 0.5).max() <= 1e-10


class TestGeodesics:
    def test_worked_example_projection(self, s12):
        # P = first generator, x+ = e1, x- = e3: frozen image (-cos 2t, sin 2t)
        g = HorizontalGeodesic(np.array([1.0, 0.0]),
                               np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0]))
        p0 = s12.dense_generator(0)
        np.testing.assert_array_equal(p0 @ g.x_plus, g.x_plus)
        np.testing.assert_array_equal(p0 @ g.x_minus, -g.x_minus)
        ts = np.linspace(0, np.pi, 40)
        np.testing.assert_allclose(
            pi_c(s12, geodesic_eval(g, ts)),
            np.stack([-np.cos(2 * ts), np.sin(2 * ts)], axis=1), atol=1e-14)
        p, q = project_geodesic_params(s12, g)
        np.testing.assert_allclose(q, [0.0, 1.0], atol=1e-15)

    def test_random_endpoints_are_eigenvectors(self, monkeypatch):
        # both endpoints come from the boundary sampler, with no eigenbasis of P: the
        # exact systems build none, and the conjugated one only its cached one of P_0
        bases, original = [], algebra.projector_colspace_basis

        def refuse(*args, **kwargs):
            raise AssertionError("random_horizontal_geodesic must not build eigenbases")

        def record(*args, **kwargs):
            bases.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(algebra, "projector_colspace_basis", refuse)
        for system in (build_system(2, 2), build_system(4, 3, 1),
                       conjugate_system(build_system(3, 2), haar(25, 16))):
            if not system.exact:
                monkeypatch.setattr(algebra, "projector_colspace_basis", record)
            for i in range(5):
                g = random_horizontal_geodesic(system, 30 + i)
                p = system.span_matrix(g.p_coords)
                assert abs(np.linalg.norm(g.p_coords) - 1.0) <= 1e-12
                assert max_abs(p @ g.x_plus - g.x_plus) <= 1e-12
                assert max_abs(p @ g.x_minus + g.x_minus) <= 1e-12
                assert abs(np.linalg.norm(g.x_plus) - 1.0) <= 1e-12
                assert abs(np.linalg.norm(g.x_minus) - 1.0) <= 1e-12
                assert abs(float(g.x_plus @ g.x_minus)) <= 1e-12
                again = random_horizontal_geodesic(system, 30 + i)
                assert again.x_plus.tobytes() == g.x_plus.tobytes()
                assert again.x_minus.tobytes() == g.x_minus.tobytes()
        # E+-(P_0) of the conjugated system, once over its ten draws
        assert len(bases) == 2

    def test_endpoints(self, s22):
        g = random_horizontal_geodesic(s22, 20)
        np.testing.assert_allclose(geodesic_eval(g, 0.0), g.x_minus, atol=1e-15)
        np.testing.assert_allclose(geodesic_eval(g, np.pi / 2), g.x_plus, atol=1e-15)
        np.testing.assert_allclose(pi_c(s22, g.x_minus), -g.p_coords, atol=1e-12)

    def test_projection_identity_random(self, s22):
        ts = np.linspace(0, np.pi / 2, 100)
        for i in range(20):
            g = random_horizontal_geodesic(s22, 100 + i)
            p, q = project_geodesic_params(s22, g)
            assert np.linalg.norm(q) <= 1.0 + 1e-12
            assert abs(p @ q) <= 1e-12
            curve = pi_c(s22, geodesic_eval(g, ts))
            pred = -np.cos(2 * ts)[:, None] * p + np.sin(2 * ts)[:, None] * q
            assert np.abs(curve - pred).max() <= 1e-10

    def test_orthogonal_everything_gives_diameter(self, s22):
        # x- orthogonal to every P_i x+ makes the projected curve a diameter
        p = np.array([1.0, 0.0, 0.0])
        plus, minus = eig_split(s22.span_matrix(p))
        xp = plus @ sample_unit_vectors(rng_from(22), s22.l, 1)[0]
        w = np.stack([s22.dense_generator(i) @ xp for i in range(3)])
        g_raw = minus @ sample_unit_vectors(rng_from(23), s22.l, 1)[0]
        g_raw -= w.T @ (w @ g_raw)
        xm = g_raw / np.linalg.norm(g_raw)
        geo = HorizontalGeodesic(p, xp, xm)
        _, q = project_geodesic_params(s22, geo)
        assert np.abs(q).max() <= 1e-12


class TestQuotientMetric:
    def test_lift_shape_and_norm(self):
        v = np.array([0.3, 0.4, 0.0])
        lam = quotient_lift(v)
        assert lam.shape == (4,)
        assert abs(np.linalg.norm(lam) - 0.5) <= 1e-12
        np.testing.assert_allclose(lam[:3], v / 2)

    def test_metric_axioms_and_antipodes(self):
        rng = rng_from(24)
        p = sample_unit_vectors(rng, 3, 6)
        for v in p:
            assert quotient_distance(0.5 * v, 0.5 * v) == 0.0
            assert abs(quotient_distance(v, -v) - np.pi / 2) <= 1e-14
        for _ in range(30):
            a = sample_unit_vectors(rng, 3, 1)[0] * rng.uniform(0, 1)
            b = sample_unit_vectors(rng, 3, 1)[0] * rng.uniform(0, 1)
            c = sample_unit_vectors(rng, 3, 1)[0] * rng.uniform(0, 1)
            dab, dbc, dac = (quotient_distance(a, b), quotient_distance(b, c),
                             quotient_distance(a, c))
            assert dab == quotient_distance(b, a)
            assert dac <= dab + dbc + 1e-12

    def test_unit_speed_projection(self, s22):
        ts = np.linspace(0, np.pi / 2, 30)
        for i in range(5):
            g = random_horizontal_geodesic(s22, 200 + i)
            curve = pi_c(s22, geodesic_eval(g, ts))
            for a in range(0, 30, 7):
                for b in range(0, 30, 7):
                    if a == b:
                        continue
                    d = quotient_distance(curve[a], curve[b])
                    assert abs(d - abs(ts[a] - ts[b])) <= 1e-8

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            quotient_lift(np.array([1.2, 0.0]))

    def test_lift_and_sampler_share_the_disk_check(self, s22):
        # one norm check, |v| <= 1 + 1e-12, with one message, for the lift and the sampler
        v = np.array([0.6, 0.0, 0.8])
        quotient_lift((1.0 + 5e-13) * v)
        fiber_sample(s22, (1.0 + 5e-13) * v, 2, 0)
        for call in (lambda: quotient_lift((1.0 + 3e-12) * v),
                     lambda: fiber_sample(s22, (1.0 + 3e-12) * v, 2, 0)):
            with pytest.raises(ValueError, match="^disk point has norm > 1 or is not finite$"):
                call()

    @pytest.mark.parametrize("v", [
        [-0.08319989872380268, -0.4740900640722058, -0.8765365868007227],
        [0.47980120379938623, -0.1352799920526903, -0.26300881847266117, 0.6811641080667096,
         0.40794744857411636, 0.19909300080490103, 0.10116412489839548, 0.0354680016361893,
         0.02794002140171126]])
    def test_lift_snaps_by_the_one_boundary_rule(self, v):
        # radicands 1 - |v|^2 near the 1e-13 snap, where |v|^2 summed apart from |v| can
        # snap the other way: the lift's height is _lift_height(|v|), the boundary rule of
        # the sampler, the cone metric and the estimator
        v = np.array(v)
        height = foliation._lift_height(algebra.row_norms(v))
        assert 2.0 * quotient_lift(v)[-1] == height
        assert (2.0 * quotient_lift(np.stack([v, -v]))[:, -1] == height).all()


class TestSymmetries:
    def test_reflection_identity(self, s42):
        rng = rng_from(25)
        p = sample_unit_vectors(rng, 5, 1)[0]
        x = sample_unit_vectors(rng, s42.dim, 300)
        lhs = pi_c(s42, reflect_symmetry(s42, p, x))
        rhs = reflected_disk_point(pi_c(s42, x), p)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_reflection_fixes_eigenvectors_and_origin(self, s22):
        p = np.array([0.0, 1.0, 0.0])
        x = boundary_fiber_sample(s22, p, 20, 26)
        np.testing.assert_allclose(reflect_symmetry(s22, p, x), x, atol=1e-12)
        focal = mplus_sample(s22, 20, 27)
        assert np.linalg.norm(
            pi_c(s22, reflect_symmetry(s22, p, focal)), axis=1).max() <= 1e-10

    def test_spin_worked_example_fixes_sign(self, s12):
        # the image of the point over (1, 0) is (cos 2t, -sin 2t): frozen
        x = np.array([1.0, 0.0, 0.0, 0.0])
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for theta in (0.3, 1.2, 2.0):
            got = pi_c(s12, spin_rotate(s12, e0, e1, theta, x))
            np.testing.assert_allclose(got, [np.cos(2 * theta), -np.sin(2 * theta)],
                                       atol=1e-13)

    def test_spin_rotation_identity_random(self, s42):
        rng = rng_from(28)
        pq = sample_unit_vectors(rng, 5, 2)
        p = pq[0]
        q = pq[1] - (pq[1] @ p) * p
        q /= np.linalg.norm(q)
        x = sample_unit_vectors(rng, s42.dim, 200)
        for theta in (0.0, 0.7, np.pi):
            # the images g e_i of the basis, as rows: g transposed
            g = spin_rotate(s42, p, q, theta, np.eye(s42.dim))
            assert max_abs(g.T @ g - np.eye(s42.dim)) <= 1e-12
            got = pi_c(s42, spin_rotate(s42, p, q, theta, x))
            pred = rotated_disk_point(pi_c(s42, x), p, q, theta)
            assert np.abs(got - pred).max() <= 1e-9

    def test_spin_requires_orthonormal_frame(self, s22):
        x = np.zeros((3, 2, s22.dim))
        with pytest.raises(ValueError):
            spin_rotate(s22, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 0.5, x[0])
        # rows: only the middle frame is not orthonormal
        p = np.eye(3)
        q = np.eye(3)[[1, 1, 0]]
        spin_rotate(s22, p[[0, 2]], q[[0, 2]], 0.5, x[:2])
        with pytest.raises(ValueError, match="orthonormal"):
            spin_rotate(s22, p, q, 0.5, x)

    def test_one_frame_per_row(self, s22):
        k = 3
        p, q = np.eye(3)[:k], np.eye(3)[[1, 2, 0]]
        x = sample_unit_vectors(rng_from(74), s22.dim, 2 * (k + 1)).reshape(k + 1, 2, s22.dim)
        with pytest.raises(ValueError, match="one frame per row of x"):
            reflect_symmetry(s22, p, x)
        with pytest.raises(ValueError, match="one frame per row of x"):
            spin_rotate(s22, p, q, 0.5, x)

    @pytest.mark.parametrize("block", [None, 256])
    @pytest.mark.parametrize("case", ["exact", "conjugated"])
    def test_rows_equal_single_calls(self, monkeypatch, case, block):
        system = build_system(3, 2)
        if case == "conjugated":
            system = conjugate_system(system, haar(71, system.dim))
        k = 5
        pq = sample_unit_vectors(rng_from(72), system.m + 1, 2 * k)
        p, q = pq[:k], pq[k:]
        q = q - np.sum(q * p, axis=-1, keepdims=True) * p
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        theta = np.linspace(0.1, 3.0, k)
        x = sample_unit_vectors(rng_from(73), system.dim, 4 * k).reshape(k, 4, system.dim)
        if block is not None:
            # at most four 8 x 8 blocks B_p to a slice: the five frames split in two
            monkeypatch.setattr(algebra, "_BLOCK", block)
            assert len(algebra._blocks(k, system.l ** 2)) == 2
        reflected = reflect_symmetry(system, p, x)
        rotated = spin_rotate(system, p, q, theta, x)
        half_turns = spin_rotate(system, p, q, np.pi, x)
        assert reflected.shape == rotated.shape == half_turns.shape == x.shape
        for j in range(k):
            assert reflected[j].tobytes() == reflect_symmetry(system, p[j], x[j]).tobytes()
            single = spin_rotate(system, p[j], q[j], theta[j], x[j])
            assert rotated[j].tobytes() == single.tobytes()
            single = spin_rotate(system, p[j], q[j], np.pi, x[j])
            assert half_turns[j].tobytes() == single.tobytes()
        # the spin symmetry is cos(theta) x + sin(theta) P(Qx), bit for bit
        t = theta[:, None, None]
        pqx = reflect_symmetry(system, p, reflect_symmetry(system, q, x))
        assert rotated.tobytes() == (np.cos(t) * x + np.sin(t) * pqx).tobytes()
        single = np.cos(theta[0]) * x[0] + np.sin(theta[0]) * reflect_symmetry(
            system, p[0], reflect_symmetry(system, q[0], x[0]))
        assert rotated[0].tobytes() == single.tobytes()


class TestFactorization:
    def test_subsystem_projection_is_exact_truncation(self):
        full = build_system(2, 1)
        sub = sub_system(full, [0, 1])
        x = sample_unit_vectors(rng_from(29), 4, 500)
        assert np.array_equal(pi_c(sub, x), pi_c(full, x)[:, :2])

    def test_disconnectedness_witness(self):
        full = build_system(2, 1)
        sub = sub_system(full, [0, 1])
        v = np.array([0.3, 0.5])
        c = np.sqrt(1 - v @ v)
        x = boundary_fiber_sample(full, np.concatenate([v, [c]]), 3, 30)
        y = boundary_fiber_sample(full, np.concatenate([v, [-c]]), 3, 31)
        assert np.abs(pi_c(sub, x) - pi_c(sub, y)).max() <= 1e-10
        assert np.abs(pi_c(full, x)[:, 2] + pi_c(full, y)[:, 2]).max() <= 1e-10
        assert np.abs(pi_c(full, x)[:, 2]).min() >= 0.5
