"""Division-algebra arithmetic, signed permutations, and sampling primitives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_foliations.algebra import (
    cd_mul,
    cd_units,
    eig_split,
    max_abs,
    projector_colspace_basis,
    redraw_short_rows,
    rng_from,
    rng_streams,
    row_dots,
    row_norms,
    sample_unit_vectors,
    sign_fixed_q,
    sign_fixed_rotation,
    unit_angle,
)
from clifford_foliations.algebra import _kron, _mul, _pcg64_words, _transpose
from clifford_foliations.clifford import build_complex_structures, build_system, delta

# ---------------------------------------------------------------------------
# Oracle: bilinear expansion of the Hamilton product over a hand-typed
# basis table, fully independent of the doubling that builds cd_units.
# ---------------------------------------------------------------------------

# basis products 1,i,j,k as (index, sign)
_HAMILTON_TABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def hamilton_oracle(a, b) -> np.ndarray:
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            idx, sign = _HAMILTON_TABLE[(i, j)]
            out[idx] += sign * a[i] * b[j]
    return out


def hamilton_closed_form(a, b) -> np.ndarray:
    """The Hamilton product written out term by term."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def unit(d: int, index: int) -> np.ndarray:
    return np.eye(d)[index]


def norm(a) -> float:
    return float(np.linalg.norm(a))


finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestQuaternions:
    def test_identity(self):
        q = np.array([0.3, -1.2, 0.5, 2.0])
        assert np.array_equal(cd_mul(unit(4, 0), q), q)

    def test_hamilton_relations(self):
        i, j, k = (unit(4, n) for n in (1, 2, 3))
        np.testing.assert_array_equal(cd_mul(i, j), k)
        np.testing.assert_array_equal(cd_mul(j, i), -k)
        np.testing.assert_array_equal(cd_mul(i, i), -unit(4, 0))

    def test_mixed_product_matches_expansion_oracle(self):
        # (i+j)(i-j): expected value frozen from the bilinear oracle: -2k
        a = np.array([0.0, 1, 1, 0])
        b = np.array([0.0, 1, -1, 0])
        expected = hamilton_oracle(a, b)
        np.testing.assert_array_equal(expected, [0, 0, 0, -2])
        np.testing.assert_array_equal(cd_mul(a, b), expected)

    @given(st.tuples(*[finite] * 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_bilinearly(self, coeffs):
        a, b = np.array(coeffs[:4]), np.array(coeffs[4:])
        np.testing.assert_allclose(cd_mul(a, b), hamilton_oracle(a, b), atol=1e-9)

    @given(st.tuples(*[finite] * 8))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, coeffs):
        a, b = np.array(coeffs[:4]), np.array(coeffs[4:])
        assert abs(norm(cd_mul(a, b)) - norm(a) * norm(b)) <= 1e-10 * (1 + norm(a) * norm(b))

    def test_associativity_on_random_triples(self):
        rng = rng_from(1)
        for d in (1, 2, 4):
            a, b, c = rng.standard_normal((3, 50, d))
            np.testing.assert_allclose(cd_mul(cd_mul(a, b), c), cd_mul(a, cd_mul(b, c)),
                                       atol=1e-12)

    def test_norm_multiplicative_on_unit_inputs(self):
        for row in sample_unit_vectors(rng_from(2), 8, 300):
            a, b = row[:4] / norm(row[:4]), row[4:] / norm(row[4:])
            assert abs(norm(cd_mul(a, b)) - 1.0) <= 1e-14

    def test_bits_match_closed_forms(self):
        # summed in order of the left index from the i = 0 term, the table
        # product reproduces the written-out products to the last bit
        rng = rng_from(11)
        a, b = rng.standard_normal((2, 2000, 4))
        closed = np.array([hamilton_closed_form(x, y) for x, y in zip(a, b)])
        assert np.array_equal(cd_mul(a, b).view(np.int64), closed.view(np.int64))
        a2, b2 = a[:, :2], b[:, :2]
        complex_form = np.stack([a2[:, 0] * b2[:, 0] - a2[:, 1] * b2[:, 1],
                                 a2[:, 0] * b2[:, 1] + a2[:, 1] * b2[:, 0]], axis=1)
        assert np.array_equal(cd_mul(a2, b2).view(np.int64), complex_form.view(np.int64))

    def test_batch_equals_one_by_one(self):
        a, b = rng_from(12).standard_normal((2, 30, 4))
        batch = cd_mul(a, b)
        for x, y, z in zip(a, b, batch):
            assert np.array_equal(cd_mul(x, y), z)


class TestOctonions:
    def test_identity_and_unit_squares(self):
        x = np.arange(8) + 0.5
        assert np.array_equal(cd_mul(unit(8, 0), x), x)
        for r in range(1, 8):
            np.testing.assert_array_equal(cd_mul(unit(8, r), unit(8, r)), -unit(8, 0))

    def test_imaginary_units_anticommute(self):
        # all 21 unordered pairs, by direct expansion
        for r in range(1, 8):
            for s in range(r + 1, 8):
                er, es = unit(8, r), unit(8, s)
                np.testing.assert_array_equal(cd_mul(er, es) + cd_mul(es, er), np.zeros(8))

    @given(st.tuples(*[finite] * 16))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, coeffs):
        a, b = np.array(coeffs[:8]), np.array(coeffs[8:])
        assert abs(norm(cd_mul(a, b)) - norm(a) * norm(b)) <= 1e-10 * (1 + norm(a) * norm(b))

    @given(st.tuples(*[finite] * 16))
    @settings(max_examples=60, deadline=None)
    def test_alternative_law(self, coeffs):
        a, b = np.array(coeffs[:8]), np.array(coeffs[8:])
        np.testing.assert_allclose(cd_mul(a, cd_mul(a, b)), cd_mul(cd_mul(a, a), b),
                                   atol=1e-9 * (1 + norm(a) ** 2 * norm(b)))
        np.testing.assert_allclose(cd_mul(cd_mul(b, a), a), cd_mul(b, cd_mul(a, a)),
                                   atol=1e-9 * (1 + norm(a) ** 2 * norm(b)))

    def test_norm_multiplicative_on_unit_inputs(self):
        rows = sample_unit_vectors(rng_from(3), 16, 300)
        a = rows[:, :8] / np.linalg.norm(rows[:, :8], axis=1)[:, None]
        b = rows[:, 8:] / np.linalg.norm(rows[:, 8:], axis=1)[:, None]
        assert max_abs(np.linalg.norm(cd_mul(a, b), axis=1) - 1.0) <= 1e-14

    def test_alternative_law_on_unit_inputs(self):
        rows = sample_unit_vectors(rng_from(4), 16, 300)
        a = rows[:, :8] / np.linalg.norm(rows[:, :8], axis=1)[:, None]
        b = rows[:, 8:] / np.linalg.norm(rows[:, 8:], axis=1)[:, None]
        assert max_abs(cd_mul(a, cd_mul(a, b)) - cd_mul(cd_mul(a, a), b)) <= 1e-14

    def test_not_associative(self):
        e1, e2, e4 = unit(8, 1), unit(8, 2), unit(8, 4)
        lhs = cd_mul(cd_mul(e1, e2), e4)
        rhs = cd_mul(e1, cd_mul(e2, e4))
        assert max_abs(lhs - rhs) > 1e-6


class TestLeftMultMatrix:
    """Left multiplication by a unit, read off one row of the unit table."""

    @staticmethod
    def left_mult(d: int, r: int) -> np.ndarray:
        rows, signs = cd_units(d)
        m = np.zeros((d, d))
        m[rows[r], np.arange(d)] = signs[r]  # column j holds signs[r, j] at row rows[r, j]
        return m

    def test_skew_square_and_signed_columns(self):
        for d in (2, 4, 8):
            for r in range(1, d):
                m = self.left_mult(d, r)
                np.testing.assert_array_equal(m.T, -m)
                np.testing.assert_array_equal(m @ m, -np.eye(d))
                assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
                assert np.all(np.sum(np.abs(m), axis=0) == 1)
                # column j is e_r e_j
                np.testing.assert_array_equal(m, cd_mul(unit(d, r), np.eye(d)).T)

    def test_pairs_anticommute(self):
        mats = [self.left_mult(8, r) for r in range(1, 8)]
        for i in range(7):
            for j in range(i + 1, 7):
                np.testing.assert_array_equal(mats[i] @ mats[j] + mats[j] @ mats[i],
                                              np.zeros((8, 8)))

    def test_rejects_bad_input(self):
        for d in (0, 3, 16):
            with pytest.raises(ValueError):
                cd_units(d)

    def test_structures_are_left_multiplications(self):
        # J_r x = e_(r+1) x in the algebra of dimension delta(n+1)
        for n in range(1, 8):
            d = delta(n + 1)
            x = rng_from(13, n).standard_normal((20, d))
            cols, signs = build_complex_structures(n, d)
            for r in range(n):
                np.testing.assert_array_equal(signs[r] * x[:, cols[r]], cd_mul(unit(d, r + 1), x))

    def test_hamilton_table_is_the_doubled_table(self):
        rows, signs = cd_units(4)
        for (i, j), (k, s) in _HAMILTON_TABLE.items():
            assert (rows[i, j], signs[i, j]) == (k, s)


def gather_dense(cols, signs):
    """Dense matrix of a gather pair: row r holds signs[r] in column cols[r]."""
    out = np.zeros((len(cols), len(cols)))
    out[np.arange(len(cols)), cols] = signs
    return out


class TestSignedPerm:
    """Signed permutations as gather pairs (cols, signs): row r of P x is signs[r] x[cols[r]]."""

    def test_roundtrip_and_ops(self):
        rng = rng_from(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.permutation(n), rng.choice([-1, 1], size=n)
            da = gather_dense(*a)
            np.testing.assert_array_equal(da[np.arange(n), a[0]], a[1])
            assert np.count_nonzero(da) == n
            x = rng.standard_normal(n)
            np.testing.assert_array_equal(a[1] * x[a[0]], da @ x)
            b = rng.permutation(n), rng.choice([-1, 1], size=n)
            np.testing.assert_array_equal(gather_dense(*_mul(a, b)), da @ gather_dense(*b))
            np.testing.assert_array_equal(gather_dense(*_transpose(a)), da.T)
        # a stack transposes matrix by matrix
        system = build_system(4, 2, 1)
        cols, signs = _transpose(system.generators)
        for i in range(system.m + 1):
            np.testing.assert_array_equal(gather_dense(cols[i], signs[i]),
                                          system.dense_generator(i).T)

    def test_batch_apply_along_last_axis(self):
        # an exact system's generators apply as a gather on the last axis
        system = build_system(3, 2, 1)
        cols, signs = system.generators
        assert cols.shape == signs.shape == (system.m + 1, system.dim)
        x = rng_from(4).standard_normal((5, system.dim))
        images = system.generator_images(x)
        for i in range(system.m + 1):
            np.testing.assert_array_equal(signs[i] * x[:, cols[i]],
                                          x @ system.dense_generator(i).T)
            np.testing.assert_array_equal(images[:, i], x @ system.dense_generator(i).T)

    def test_kron_matches_numpy(self):
        a = np.array([1, 0]), np.array([1, -1])
        b = np.array([0, 2, 1]), np.array([-1, 1, 1])
        np.testing.assert_array_equal(gather_dense(*_kron(a, b)),
                                      np.kron(gather_dense(*a), gather_dense(*b)))
        # a stack of pairs on either side gives the stack of products
        stack = np.stack([b[0], b[0][::-1]]), np.stack([b[1], -b[1]])
        cols, signs = _kron(a, stack)
        for i in range(2):
            np.testing.assert_array_equal(
                gather_dense(cols[i], signs[i]),
                np.kron(gather_dense(*a), gather_dense(stack[0][i], stack[1][i])))


class TestDenseHelpers:
    def test_row_norms_equal_single_row_norms(self):
        # the first row is a norm trap: its 1-D np.linalg.norm, a BLAS dot, and its pairwise
        # axis norm differ in the last bit on some kernels; a batch row has its single call's
        a = np.concatenate([[[0.3808923102553664, 0.22284632304195315, -0.40652252618398793]],
                            sample_unit_vectors(rng_from(6), 3, 200) * 0.6])
        assert row_norms(a).tobytes() == np.array([row_norms(r) for r in a]).tobytes()
        b = np.roll(a, 1, axis=0)
        singles = np.array([row_dots(r, s) for r, s in zip(a, b)])
        assert row_dots(a, b).tobytes() == singles.tobytes()

    @pytest.mark.parametrize("width", [3, 8, 9, 16, 17, 64, 129, 512])
    def test_rows_equal_single_calls_in_any_layout(self, width):
        # row_dots sums a C-ordered product along each row, so Fortran-ordered operands,
        # transposed views, broadcast operands and 3-D stacks give every row the bits of
        # its single-row call; a product in the operands' own layout did not, from width 9
        rng = rng_from(12, width)
        a, b = sample_unit_vectors(rng, width, 24), sample_unit_vectors(rng, width, 24)
        cases = {"fortran": (np.asfortranarray(a), np.asfortranarray(b)),
                 "transposed": (np.ascontiguousarray(a.T).T, b),
                 "broadcast": (a, b[0]),
                 "stack": (np.asfortranarray(a.reshape(4, 6, width)), b[:6])}
        kernels = {"row_dots": row_dots, "unit_angle": unit_angle,
                   "row_norms": lambda x, y: row_norms(x - y)}
        for case, (x, y) in cases.items():
            rows = list(zip(*(z.reshape(-1, width) for z in np.broadcast_arrays(x, y))))
            for name, kernel in kernels.items():
                singles = np.array([kernel(np.array(r), np.array(s)) for r, s in rows])
                assert kernel(x, y).ravel().tobytes() == singles.tobytes(), (case, name)

    def test_unit_angle_rows_equal_single_calls(self):
        a = sample_unit_vectors(rng_from(7), 5, 200)
        b = sample_unit_vectors(rng_from(8), 5, 200)
        dots = row_dots(a, b)
        assert np.any(dots >= 0.0) and np.any(dots < 0.0)  # both branches run
        rows = unit_angle(a, b)
        assert rows.tobytes() == np.array([unit_angle(r, s) for r, s in zip(a, b)]).tobytes()
        assert unit_angle(a[0], b[0]).shape == ()

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_unit_angle_is_exact_at_zero_and_pi(self, eps):
        # arccos <x, y> resolves nothing below arccos(1 - 2^-53) = 1.49e-8
        x, t = np.linalg.qr(rng_from(9).standard_normal((6, 2)))[0].T
        y = np.cos(eps) * x + np.sin(eps) * t
        assert abs(unit_angle(x, y) - eps) <= 1e-15
        assert abs(unit_angle(x, -y) - (np.pi - eps)) <= 1e-15

    def test_sign_fixed_q_contract(self):
        # condition number 1e6: orthogonality still at 1e-12
        rng = rng_from(5)
        u = sign_fixed_q(rng.standard_normal((40, 40)))
        v = sign_fixed_q(rng.standard_normal((12, 12)))
        a = u[:, :12] @ np.diag(np.logspace(0, -6, 12)) @ v
        q = sign_fixed_q(a)
        assert max_abs(q.T @ q - np.eye(12)) <= 1e-12
        # spans the same space, and a = Q R with R's diagonal positive
        assert max_abs(a - q @ (q.T @ a)) <= 1e-9
        assert np.all(np.diagonal(q.T @ a) > 0)

    def test_sign_fixed_q_complex(self):
        rng = rng_from(14)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q = sign_fixed_q(a)
        assert max_abs(q.conj().T @ q - np.eye(6)) <= 1e-12
        r = q.conj().T @ a
        assert max_abs(np.tril(r, -1)) <= 1e-12
        assert max_abs(np.diagonal(r).imag) <= 1e-12 and np.all(np.diagonal(r).real > 0)

    def test_projector_basis(self):
        rng = rng_from(6)
        u = sign_fixed_q(rng.standard_normal((10, 10)))
        p = u[:, :4] @ u[:, :4].T
        b = projector_colspace_basis(p)
        assert b.shape == (10, 4)
        assert max_abs(p @ b - b) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_eig_split_rejects_non_finite_without_warnings(self, bad):
        # a NaN gap passes every comparison's False branch (and then fails the SVD), and an
        # inf entry warns in the product, so non-finite entries are rejected before it
        p = build_system(2, 2).dense_generator(1)
        p[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not an involution"):
                eig_split(p)


class TestSampling:
    def test_seeded_streams_bit_identical(self):
        a = sample_unit_vectors(rng_from(42, 1), 16, 50)
        b = sample_unit_vectors(rng_from(42, 1), 16, 50)
        assert np.array_equal(a, b)
        c = sample_unit_vectors(rng_from(42, 2), 16, 50)
        assert not np.array_equal(a, c)

    def test_unit_norm(self):
        x = sample_unit_vectors(rng_from(7), 9, 200)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_haar_orthogonal_and_rotation(self):
        rng = rng_from(8)
        q = sign_fixed_q(rng.standard_normal((15, 15)))
        assert max_abs(q.T @ q - np.eye(15)) <= 1e-12
        r = sign_fixed_rotation(rng_from(9).standard_normal((6, 6)))
        assert np.linalg.det(r) > 0
        assert max_abs(r.T @ r - np.eye(6)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacks_equal_single_matrices(self, n):
        a = rng_from(15, n).standard_normal((60, 2, n, n))
        for stack in (a[:, 0], a[:, 0] + 1j * a[:, 1]):
            q = sign_fixed_q(stack)
            assert q.tobytes() == np.array([sign_fixed_q(m) for m in stack]).tobytes()
        assert np.any(np.linalg.det(sign_fixed_q(a)) < 0)  # the det flip runs
        # a (60, 2) stack of rotations is 120 single draws from one stream
        rot = sign_fixed_rotation(a)
        rng = rng_from(15, n)
        single = [sign_fixed_rotation(rng.standard_normal((n, n))) for _ in range(120)]
        assert rot.tobytes() == np.array(single).tobytes()
        assert np.all(np.linalg.det(rot) > 0)


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


# seeds of one, two and (padded) full words, and random draws as the suites derive them
STREAM_SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**48 - 1, 2**63]
                + rng_from(80).integers(2**62, size=14).tolist())


def assert_same_streams(got, seeds, *path):
    """got[j] has the state of rng_from(seeds[j], *path_j), and draws as it does."""
    path = [np.broadcast_to(np.asarray(entry, dtype=object), len(seeds)) for entry in path]
    assert len(got) == len(seeds)
    for j, (rng, seed) in enumerate(zip(got, seeds)):
        ref = rng_from(seed, *(int(entry[j]) for entry in path))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


class TestStreams:
    @pytest.mark.parametrize("path", [(), (0,), (7, 3), (300 + np.arange(20),)])
    def test_states_equal_rng_from(self, path):
        assert_same_streams(rng_streams(STREAM_SEEDS, *path), STREAM_SEEDS, *path)
        assert_same_streams(rng_streams(np.array(STREAM_SEEDS, dtype=np.uint64), *path),
                            STREAM_SEEDS, *path)

    @pytest.mark.parametrize("seed", STREAM_SEEDS[:6])
    def test_index_paths_of_one_seed(self, seed):
        # the suites' per-index streams: one seed, path entries 300..419
        assert_same_streams(rng_streams(seed, 300 + np.arange(120)), [seed] * 120,
                            300 + np.arange(120))

    @pytest.mark.parametrize("path", [(), (0,), (7, 3), (419, 2**32 - 1)])
    def test_hash_equals_seed_sequence(self, path):
        # the vectorised hash itself, whatever the fallback threshold
        seeds = np.array(STREAM_SEEDS + [2**64 - 1], dtype=np.uint64)
        paths = np.array([path] * len(seeds), dtype=np.uint32).reshape(len(seeds), -1)
        words = _pcg64_words(seeds, paths)
        for seed, row in zip(seeds.tolist(), words):
            ref = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
            assert row.tobytes() == ref.tobytes()

    def test_fallback_inputs(self):
        big = [2**64, 2**64 + 5, 2**70, 3 * 2**100] + STREAM_SEEDS[:4]
        assert_same_streams(rng_streams(big), big)
        assert_same_streams(rng_streams(big, 9), big, 9)
        wide = [2**32, 2**40, 0, 5, 2**32 - 1, 7, 2**33, 1]
        assert_same_streams(rng_streams(STREAM_SEEDS[:8], wide), STREAM_SEEDS[:8], wide)
        assert_same_streams(rng_streams(3, wide, 1), [3] * 8, wide, 1)

    def test_small_counts_and_broadcasting(self):
        for k in range(8):
            assert_same_streams(rng_streams(STREAM_SEEDS[:k]), STREAM_SEEDS[:k])
            assert_same_streams(rng_streams(11, np.arange(k), 2), [11] * k, np.arange(k), 2)
        assert_same_streams(rng_streams(5), [5])
        with pytest.raises(ValueError, match="broadcast"):
            rng_streams(np.arange(3), np.arange(4))

    def test_seed_coercion(self):
        # rng_streams reads seeds under the one integer rule, each value by _count
        assert_same_streams(rng_streams(np.int64(5)), [5])
        assert_same_streams(rng_streams([2**70, np.uint64(2**63)]), [2**70, 2**63])
        assert rng_streams(np.array([], dtype=float)) == []
        for bad in (1.5, np.array([1.9, 2.2]), [1, 2.0], "7"):
            with pytest.raises(TypeError, match="^seeds must be an integer, got"):
                rng_streams(bad)
        for negative in (-1, [3, -2], np.array([-5])):
            with pytest.raises(ValueError, match="^seeds must be at least 0, got -"):
                rng_streams(negative)
        with pytest.raises(ValueError, match="^seeds must be an int or a 1-D array$"):
            rng_streams(np.zeros((2, 2), dtype=int))

    def test_bool_seeds_raise(self):
        # bools are ints to Python and to operator.index, but a seed must be an integer
        for bad in (True, False, np.array([True, False]), [3, True],
                    np.array([True], dtype=object)):
            with pytest.raises(TypeError, match="^seeds must be an integer, got (True|False)$"):
                rng_streams(bad)
        # a path entry is named as rng_from names it, not as a seed
        with pytest.raises(TypeError, match="^path entry must be an integer, got True$"):
            rng_streams(np.arange(8), True)

    @pytest.mark.parametrize("args", [(True,), (1, True), (np.True_,), (1, 2, False)])
    def test_rng_from_rejects_bools(self, args):
        # numpy's SeedSequence would read True as 1: rng_from(True) drew seed 1's stream
        with pytest.raises(TypeError, match="must be an integer"):
            rng_from(*args)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16, 64])
    @pytest.mark.parametrize("count", [0, 1, 3, 50])
    def test_rowwise_unit_vectors_equal_single_calls(self, dim, count):
        rows = sample_unit_vectors(rng_streams(4, np.arange(9)), dim, count)
        single = np.array([sample_unit_vectors(rng_from(4, i), dim, count) for i in range(9)])
        assert rows.shape == (9, count, dim)
        assert rows.tobytes() == single.reshape(rows.shape).tobytes()

    def test_redraw_in_single_call_order(self):
        # a zero row is redrawn from its own stream after the first draw, as
        # x[bad] = rng.standard_normal((1, dim))
        rng = rng_from(81)
        ref = rng.standard_normal((3, 4))
        ref[1] = rng.standard_normal((1, 4))
        ref /= np.linalg.norm(ref, axis=1)[:, None]
        single = sample_unit_vectors(ZeroRowAt(rng_from(81), 0), 4, 3)
        assert single.tobytes() == ref.tobytes()
        rows = sample_unit_vectors([ZeroRowAt(rng_from(81), 0), rng_from(82),
                                    ZeroRowAt(rng_from(83), 0)], 4, 3)
        assert rows[0].tobytes() == ref.tobytes()
        assert rows[1].tobytes() == sample_unit_vectors(rng_from(82), 4, 3).tobytes()
        assert rows[2].tobytes() == sample_unit_vectors(ZeroRowAt(rng_from(83), 0), 4, 3).tobytes()

    def test_redraw_repeats_until_no_row_is_short(self):
        z = np.zeros((2, 3, 2))
        z[1] = 1.0
        fresh = iter([np.zeros((3, 2)), np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]]),
                      np.array([[1.0, 0.0]])])
        norms = redraw_short_rows(z, lambda j, bad: next(fresh)[: int(np.sum(bad))])
        assert norms.tolist() == [[1.0, 5.0, 2.0], [np.sqrt(2.0)] * 3]
