"""System construction, relations, invariants, equivalence, serialization."""

import json
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from clifford_foliations.algebra import _blocks, eig_split, max_abs, rng_from, sign_fixed_q
from clifford_foliations.clifford import (
    CliffordSystem,
    _relation_violations,
    _span_sum,
    MalformedSystemError,
    build_complex_structures,
    build_system,
    conjugate_system,
    delta,
    equivalence_profile,
    sub_system,
    system_from_dict,
    system_to_dict,
    trace_invariant,
    verify_relations,
)
from clifford_foliations.foliation import boundary_fiber_sample, fiber_sample, pi_c
from clifford_foliations.verify import default_plan
from kernel_family import AVX512, pinned


def haar(seed, n):
    """Haar-distributed matrix from O(n), drawn from seed's stream."""
    return sign_fixed_q(rng_from(seed).standard_normal((n, n)))


def gather_dense(cols, signs):
    """Dense integer stack of a stack of gather pairs: row r of matrix i holds
    signs[i, r] in column cols[i, r]."""
    out = np.zeros(cols.shape + cols.shape[-1:], dtype=np.int64)
    np.put_along_axis(out, cols[..., None], signs[..., None], axis=-1)
    return out


class TestDelta:
    def test_small_table(self):
        assert [delta(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]

    def test_recursion(self):
        assert delta(9) == 16
        assert delta(12) == 64
        assert delta(16) == 16 * delta(8) == 128
        for m in range(9, 25):
            assert delta(m) == 16 * delta(m - 8)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            delta(0)


def assert_anticommuting_structures(structures, dim):
    dense = gather_dense(*structures)
    for i, j in enumerate(dense):
        assert j.shape == (dim, dim)
        assert np.array_equal(j.T, -j), f"structure {i} not skew"
        assert np.array_equal(j @ j, -np.eye(dim, dtype=np.int64)), \
            f"structure {i} does not square to -Id"
        for other in dense[i + 1:]:
            assert not np.any(j @ other + other @ j)


class TestComplexStructures:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_minimal_sets_exact(self, n):
        dim = delta(n + 1)
        structures = build_complex_structures(n, dim)
        assert structures[0].shape == structures[1].shape == (n, dim)
        assert_anticommuting_structures(structures, dim)

    def test_two_by_two_forced(self):
        (j,) = gather_dense(*build_complex_structures(1, 2))
        assert abs(j[1, 0]) == 1

    def test_multiples_are_blockwise(self):
        js = build_complex_structures(2, 12)  # three copies of the minimal R^4 block
        assert_anticommuting_structures(js, 12)
        dense = gather_dense(*js)[0]
        assert max_abs(dense[:4, 4:]) == 0.0
        np.testing.assert_array_equal(dense[:4, :4], dense[4:8, 4:8])

    def test_rejects_inadmissible_dim(self):
        with pytest.raises(ValueError):
            build_complex_structures(3, 6)
        with pytest.raises(ValueError):
            build_complex_structures(7, 4)


ALL_PAIRS = [(m, k) for m in range(1, 13) for k in range(1, 5)
             if (m, k) != (1, 1) and 2 * k * delta(m) <= 512]


class TestBuildSystem:
    def test_rejects_degenerate_and_bad_args(self):
        with pytest.raises(ValueError):
            build_system(1, 1)
        with pytest.raises(ValueError):
            build_system(0, 2)
        with pytest.raises(ValueError):
            build_system(2, 2, flips=3)

    def test_numpy_integer_arguments_save_and_reload(self):
        # numpy integers are taken and stored as Python ints, so the system saves as JSON
        system = build_system(np.int64(4), np.int64(2), np.int64(1))
        stored = (system.m, system.l, system.provenance.k, system.provenance.flips)
        assert {type(value) for value in stored} == {int}
        loaded = system_from_dict(json.loads(json.dumps(system_to_dict(system))))
        assert all(map(np.array_equal, loaded.generators, build_system(4, 2, 1).generators))
        assert loaded.provenance == system.provenance == build_system(4, 2, 1).provenance

    @pytest.mark.parametrize("args", [(4, 2, True), (True, 2), (4, True), (4, 2, np.True_)])
    def test_bool_arguments_raise(self, args):
        with pytest.raises(TypeError):
            build_system(*args)

    def test_dimension_cap(self, monkeypatch):
        build_system(12, 4)  # 2l = 512 is the default cap
        with pytest.raises(ValueError):
            build_system(13, 4)  # 2l = 1024 over the default cap
        monkeypatch.setenv("CFL_MAX_DIM", "256")
        with pytest.raises(ValueError):
            build_system(12, 4)  # the env override also lowers the cap
        monkeypatch.setenv("CFL_MAX_DIM", "1024")
        s = build_system(13, 4)  # allowed once the env override raises the cap
        assert s.dim == 8 * delta(13)
        with pytest.raises(ValueError):
            build_system(17, 4)  # 2l = 2048 > 1024

    @pytest.mark.parametrize("raw", ["abc", "0", "-4", "12.5"])
    def test_dimension_cap_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("CFL_MAX_DIM", raw)
        with pytest.raises(ValueError, match="CFL_MAX_DIM must be a positive integer"):
            build_system(2, 2)

    def test_rank_and_dimension(self):
        s = build_system(1, 2)
        assert s.generators[0].shape == s.generators[1].shape == (2, 4) and s.dim == 4
        s = build_system(9, 1)
        assert s.dim == 32 and s.generators[0].shape == (10, 32)

    @pytest.mark.parametrize("m,k", ALL_PAIRS)
    def test_relations_exact_everywhere(self, m, k):
        for flips in {0, min(1, k)}:
            report = verify_relations(build_system(m, k, flips))
            assert report.passed
            assert max(c.violation for c in report.checks) == 0.0

    def test_m4_generator_product_is_minus_identity(self):
        s = build_system(4, 1)
        prod = reduce(np.matmul, gather_dense(*s.generators))
        np.testing.assert_array_equal(prod, -np.eye(8))

    def test_negating_one_generator_preserves_relations(self):
        s = build_system(3, 2)
        cols, signs = s.generators
        signs = signs.copy()
        signs[1] *= -1
        flipped = CliffordSystem(s.m, s.l, (cols, signs), None)
        report = verify_relations(flipped)
        assert report.passed and max(c.violation for c in report.checks) == 0.0


def pair_loop_violations(system):
    """The relation violations of a dense stack, one product per generator and per pair."""
    eye = np.eye(system.dim)
    sym = invol = anti = 0.0
    for i, p in enumerate(system.generators):
        sym = np.maximum(sym, max_abs(p.T - p))
        invol = np.maximum(invol, max_abs(p @ p - eye))
        for q in system.generators[i + 1:]:
            anti = np.maximum(anti, max_abs(p @ q + q @ p))  # np.maximum keeps a NaN
    return float(sym), float(invol), float(anti)


class TestRelationViolations:
    def test_exact_values_match_dense_on_broken_systems(self):
        # the exact gather comparison must report what the dense matmuls report
        rng = rng_from(21)
        for m, k in [(2, 1), (3, 2), (4, 1), (8, 1)]:
            s = build_system(m, k)
            for trial in range(12):
                cols, signs = (g.copy() for g in s.generators)
                i = int(rng.integers(m + 1))
                if trial % 4 == 0:
                    signs[i, rng.integers(s.dim)] *= -1
                elif trial % 4 == 1:
                    a, b = rng.choice(s.dim, 2, replace=False)
                    cols[i, [a, b]] = cols[i, [b, a]]
                elif trial % 4 == 2:
                    cols[i], signs[i] = rng.permutation(s.dim), rng.choice([-1, 1], s.dim)
                else:
                    cols[i], signs[i] = cols[(i + 1) % (m + 1)], signs[(i + 1) % (m + 1)]
                exact = CliffordSystem(m, s.l, (cols, signs))
                dense = CliffordSystem(m, s.l, gather_dense(cols, signs).astype(float))
                got = [c.violation for c in verify_relations(exact).checks]
                want = [c.violation for c in verify_relations(dense).checks]
                assert got == want
                assert max(got) > 0.0

    @pytest.mark.parametrize("mkf", [(2, 2, 0), (4, 2, 1), (8, 1, 0)], ids=str)
    def test_batched_products_equal_the_pair_loop(self, mkf):
        # a dense stack's violations are the per-pair products' maxima, bit for bit, on a
        # dense copy, its Haar conjugate and a one-generator sub-system
        built = build_system(*mkf)
        twin = system_from_dict(system_to_dict(built, "dense"))
        conj = conjugate_system(built, haar(33 + built.m, built.dim))
        for system in (twin, conj, sub_system(conj, [1])):
            got = _relation_violations(system)
            assert np.array(got).tobytes() == np.array(pair_loop_violations(system)).tobytes()
            assert max(got) <= 1e-12

    def test_broken_dense_relations_are_found(self):
        # every anticommuting pair of (3, 1) checked, and a broken symmetry or involution
        twin = system_from_dict(system_to_dict(build_system(3, 1), "dense"))
        for i in range(4):
            for j in range(i + 1, 4):
                gens = twin.generators.copy()
                gens[j] = gens[i]  # P_i P_j + P_j P_i = 2 Id; every other relation holds
                broken = CliffordSystem(3, twin.l, gens)
                assert _relation_violations(broken) == pair_loop_violations(broken) == (0, 0, 2)
        skew, scaled = twin.generators.copy(), twin.generators.copy()
        skew[2, 0, 1] += 1e-9
        scaled[3] *= 1.0 + 2**-40
        for gens, failing in ((skew, "symmetry"), (scaled, "involution")):
            system = CliffordSystem(3, twin.l, gens)
            got = _relation_violations(system)
            assert np.array(got).tobytes() == np.array(pair_loop_violations(system)).tobytes()
            assert failing in [c.name for c in verify_relations(system).checks if not c.passed]

    def test_nan_entry_fails_to_load(self):
        # a NaN entry reads NaN in every relation, and the loader rejects the file
        payload = system_to_dict(build_system(4, 2, 1), "dense")
        payload["generators"][3][5] = float("nan")
        gens = np.array(payload["generators"]).reshape(5, 16, 16)
        with np.errstate(invalid="ignore"):
            assert np.isnan(_relation_violations(CliffordSystem(4, 8, gens))).all()
        with pytest.raises(MalformedSystemError, match="violation nan"):
            system_from_dict(payload)

    def test_dense_check_holds_one_slice_of_products(self):
        # the dense products are taken one _blocks slice of generators at a time, so at
        # 2l = 128 (13 generators, four to a slice) the check holds less than the stack it reads
        twin = system_from_dict(system_to_dict(build_system(12, 1), "dense"))
        tracemalloc.start()
        try:
            assert _relation_violations(twin) == (0.0, 0.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < twin.generators.nbytes

    def test_tolerance_follows_representation(self):
        s = build_system(3, 2)
        assert [c.tol for c in verify_relations(s).checks] == [0.0] * 3
        dense = conjugate_system(s, haar(22, s.dim))
        assert [c.tol for c in verify_relations(dense).checks] == [1e-12] * 3


def assert_product_bits(system, seed):
    """generator_images equals the signed gather x[cols] * signs (exact systems), and p0_assemble
    the row-by-row products u B_plus^T + w B_minus^T bit for bit, on a batch, one row and one
    point."""
    x = rng_from(seed).standard_normal((3, 5, system.dim))
    u = rng_from(seed, 1).standard_normal((3, 5, system.l))
    w = rng_from(seed, 2).standard_normal((3, 5, system.l))
    if system.exact:
        cols, signs = system.generators
        for pts in (x, x[0, 0]):
            assert system.generator_images(pts).tobytes() == (np.take(pts, cols, axis=-1)
                                                              * signs).tobytes()
    b_plus, b_minus = system.p0_eigenbases
    for at in (np.s_[:], np.s_[0], np.s_[0, 0]):
        expected = (u[at][..., None, :] @ b_plus.T)[..., 0, :]
        expected += (w[at][..., None, :] @ b_minus.T)[..., 0, :]
        assert system.p0_assemble(u[at], w[at]).tobytes() == expected.tobytes()


def assert_block_actions(system, seed, tol):
    """p0_images agrees with the generators' action on R^(2l) to tol, and span_apply with
    the dense span matrices, on rows of mixed, P_0-free and P_0-only coordinates."""
    u = rng_from(seed, 1).standard_normal((3, 5, system.l))
    x = rng_from(seed, 2).standard_normal((3, 5, system.dim))
    q = rng_from(seed, 3).standard_normal((3, system.m + 1))
    q[1, 0] = q[2, 1:] = 0.0
    b_plus, b_minus = system.p0_eigenbases
    images = system.generator_images(u @ b_plus.T)[..., 1:, :] @ b_minus
    assert system.p0_images(u).shape == (3, 5, system.m, system.l)
    assert max_abs(system.p0_images(u) - images) <= tol
    assert max_abs(system.p0_images(u[0]) - images[0]) <= tol
    expected = x @ np.swapaxes(system.span_matrix(q), -1, -2)
    assert system.span_apply(q, x).shape == x.shape
    assert max_abs(system.span_apply(q, x) - expected) <= tol
    assert max_abs(system.span_apply(q[0], x[0]) - expected[0]) <= tol
    assert max_abs(system.span_apply(q[0], x[0, 0]) - expected[0, 0]) <= tol


class TestGeneratorPaths:
    @pytest.mark.parametrize("m,k", ALL_PAIRS)
    def test_signed_gather_and_scattered_lift_match_products(self, m, k):
        for flips in {0, min(1, k)}:
            system = build_system(m, k, flips)
            # every built system's eigenbases of P_0 are the unit columns at its +1,
            # then its -1 diagonal entries, ascending, and its E+-(P_0) blocks one gather pair
            diag = np.diag(system.dense_generator(0))
            order = np.concatenate([np.flatnonzero(diag == 1), np.flatnonzero(diag == -1)])
            assert np.array_equal(np.hstack(system.p0_eigenbases), np.eye(system.dim)[:, order])
            assert system._p0_split is not None
            assert isinstance(system._p0_blocks, tuple)
            assert_product_bits(system, m * 10 + k)
            assert_block_actions(system, m * 10 + k, 1e-14)

    @pytest.mark.parametrize("m,k,flips", [(2, 2, 0), (4, 3, 1), (8, 2, 1), (9, 1, 0)])
    def test_block_gather_equals_dense_blocks(self, m, k, flips):
        # R_i = B_minus^T P_i B_plus, read off the gather pair and multiplied out
        system = build_system(m, k, flips)
        b_plus, b_minus = system.p0_eigenbases
        dense = np.stack([b_minus.T @ system.dense_generator(i) @ b_plus
                          for i in range(1, m + 1)])
        assert np.array_equal(gather_dense(*system._p0_blocks), dense)

    def test_other_bases_take_the_product(self):
        conj = conjugate_system(build_system(3, 2), haar(23, 16))
        # a signed-perm system whose P_0 (the built P_1) is not diagonal
        cols, signs = build_system(3, 2).generators
        swapped = CliffordSystem(3, 8, (cols[[1, 0, 2, 3]], signs[[1, 0, 2, 3]]))
        assert verify_relations(swapped).passed
        for system in (conj, swapped):
            # P_0 is not diagonal: the bases are eig_split's, and the products act on them
            assert system._p0_split is None
            assert all(np.array_equal(b, e) for b, e in
                       zip(system.p0_eigenbases, eig_split(system.dense_generator(0))))
            assert isinstance(system._p0_blocks, np.ndarray)
            assert_product_bits(system, 24)
            assert_block_actions(system, 24, 1e-14)

    def test_dense_rows_equal_single_calls(self):
        # one (1, width) product per row: a row's bits do not depend on its batch
        system = conjugate_system(build_system(3, 2), haar(25, 16))
        x = rng_from(26).standard_normal((40, system.dim))
        u = rng_from(27).standard_normal((40, system.l))
        for f, rows in ((system.generator_images, x), (system.p0_images, u),
                        (lambda y: np.concatenate(system.p0_coefficients(y), axis=-1), x)):
            assert f(rows).tobytes() == np.stack([f(r) for r in rows]).tobytes()

    def test_rank_one_sub_system(self):
        # m = 0: every span element is p_0 P_0, and the E+-(P_0) blocks are empty
        for system in (sub_system(build_system(3, 2), [0]),
                       sub_system(conjugate_system(build_system(3, 2), haar(24, 16)), [0])):
            assert system.m == 0
            assert_block_actions(system, 25, 1e-14)

    def test_span_apply_rejects_other_widths(self):
        system = build_system(3, 2)
        x = rng_from(26).standard_normal((2, 3, system.dim))
        p = rng_from(27).standard_normal((2, system.m + 1))
        for bad_p, bad_x in ((p[:, :-1], x), (np.hstack([p, p]), x), (p, x[..., :-1]),
                             (p, np.concatenate([x, x], axis=-1)), (p[0, :-1], x[0]),
                             (p[0], x[0, :, :-1]), (p[0], np.concatenate([x[0], x[0]], axis=-1))):
            with pytest.raises(ValueError, match="width"):
                system.span_apply(bad_p, bad_x)
        with pytest.raises(ValueError, match="one frame per row of x"):
            system.span_apply(p, x[:1])


def full_block_twin(system):
    """A fresh system on the same generators whose span action takes the l x l blocks."""
    twin = CliffordSystem(system.m, system.l, system.generators)
    vars(twin)["_p0_copies"] = 1  # set before the cached scatter index is read
    return twin


class TestSpanCopies:
    def test_copy_counts(self):
        # an unflipped or fully flipped system is k copies of the irreducible module at every
        # width, and so is its signed_perm file; a partial flip (its flipped copies' blocks
        # differ from the others') and a dense system act through the l x l blocks.  The
        # copies' span action is checked against span matrices by TestGeneratorPaths
        for m in range(1, 17):
            for k in range(1, 9):
                if 2 * k * delta(m) > 512 or (m, k) == (1, 1):
                    continue
                for flips in range(k + 1):
                    built = build_system(m, k, flips)
                    loaded = system_from_dict(json.loads(json.dumps(system_to_dict(built))))
                    copies = k if flips in (0, k) else 1
                    assert built._p0_copies == loaded._p0_copies == copies, (m, k, flips)
        built = build_system(12, 4)
        dense = CliffordSystem(12, built.l, built.span_matrix(np.eye(13)))
        assert dense._p0_copies == 1
        # D P_i D for a random sign diagonal D: the copies' indices agree, their signs not
        cols, signs = build_system(11, 2).generators
        d = rng_from(70).choice([-1, 1], cols.shape[-1])
        signed = CliffordSystem(11, 128, (cols, signs * d * d[cols]))
        assert verify_relations(signed).passed and signed._p0_copies == 1
        assert_block_actions(signed, 70, 1e-14)

    @pytest.mark.parametrize("m,k", [(11, 2), (12, 4)])
    def test_copies_keep_the_full_blocks_bits(self, m, k):
        # at the fiber samplers' batch shape (one frame, 32 rows) the per-copy product rounds
        # as the l x l one does; the bits were compared in the AVX-512 family only
        pinned({AVX512: None})
        system = build_system(m, k)
        twin = full_block_twin(system)
        for seed in range(4):
            p = rng_from(71, seed).standard_normal(m + 1)
            p /= np.linalg.norm(p)
            x = rng_from(72, seed).standard_normal((1, 32, system.dim))
            assert system.span_apply(p[None], x).tobytes() == twin.span_apply(p[None], x).tobytes()
            v = 0.6 * p
            assert (fiber_sample(system, v, 32, seed).tobytes()
                    == fiber_sample(twin, v, 32, seed).tobytes())
            assert (boundary_fiber_sample(system, p, 32, seed).tobytes()
                    == boundary_fiber_sample(twin, p, 32, seed).tobytes())

    @pytest.mark.parametrize("m,k", [(11, 2), (12, 4)])
    def test_frames_equal_single_calls(self, m, k):
        system = build_system(m, k)
        p = rng_from(73).standard_normal((5, m + 1))
        x = rng_from(74).standard_normal((5, 32, system.dim))
        got = system.span_apply(p, x)
        assert all(got[j].tobytes() == system.span_apply(p[j], x[j]).tobytes() for j in range(5))


def permuted_system(system, perm):
    """The exact system E P_i E^T with E x = x[perm]: its gather pair, coordinates permuted."""
    cols, signs = system.generators
    return CliffordSystem(system.m, system.l, (np.argsort(perm)[cols[:, perm]], signs[:, perm]))


class TestP0Layout:
    def test_plan_systems_split_as_views(self):
        # every system the report and the benchmark build keeps E+(P_0) in the first l
        # coordinates, so p0_coefficients reads views of x and gathers nothing
        systems = {(c.system.m, c.system.l): c.system
                   for c in default_plan(64) + default_plan(512)}
        systems.update({(s.m, s.l): s for s in (build_system(11, 2), build_system(12, 4))})
        for system in systems.values():
            assert system._p0_split == (slice(0, system.l), slice(system.l, system.dim))
            x = rng_from(60).standard_normal((3, system.dim))
            u, w = system.p0_coefficients(x)
            assert np.shares_memory(u, x) and np.shares_memory(w, x)

    def test_each_index_is_a_run_or_a_gather(self):
        # a run is a view of x, a gather a copy; fully flipped systems (E+(P_0) the last l
        # coordinates) and dense copies read views, a partial flip gathers E-(P_0) only
        # (its +1 coordinates are one run), a coordinate permutation gathers both
        built = build_system(3, 2)
        swap = np.eye(built.dim)[rng_from(61).permutation(built.dim)]
        permuted = permuted_system(built, swap.argmax(axis=1))
        assert verify_relations(permuted).passed
        assert np.array_equal(gather_dense(*permuted.generators),
                              swap @ gather_dense(*built.generators) @ swap.T)
        cases = [(built, ("run", "run")), (build_system(4, 3, 3), ("run", "run")),
                 (build_system(8, 2, 2), ("run", "run")),
                 (system_from_dict(system_to_dict(build_system(4, 2, 2), "dense")), ("run", "run")),
                 (system_from_dict(system_to_dict(built, "dense")), ("run", "run")),
                 (build_system(4, 2, 1), ("run", "gather")),
                 (build_system(8, 3, 2), ("run", "gather")),
                 (conjugate_system(built, swap), ("gather", "gather")),
                 (permuted, ("gather", "gather"))]
        for system, kinds in cases:
            x = rng_from(62).standard_normal((4, 5, system.dim))
            for at, part, kind in zip(system._p0_split, system.p0_coefficients(x), kinds):
                assert isinstance(at, slice) is (kind == "run")
                assert np.array_equal(part, x[..., at])
                assert np.shares_memory(part, x) is (kind == "run")
        for k in (1, 2, 3):
            flipped = build_system(4, k, k)
            assert flipped._p0_split == (slice(flipped.l, flipped.dim), slice(0, flipped.l))

    def test_round_trip_bits_on_every_path(self):
        built = build_system(3, 2)
        swap = np.eye(built.dim)[rng_from(61).permutation(built.dim)]
        systems = [built, build_system(4, 2, 1), build_system(4, 2, 2), build_system(8, 2, 2),
                   build_system(8, 3, 2), system_from_dict(system_to_dict(built, "dense")),
                   conjugate_system(built, swap), permuted_system(built, swap.argmax(axis=1))]
        for system in systems:
            # x -> (u, w) -> x and (u, w) -> x -> (u, w), bit for bit, at every batch shape
            x = rng_from(63).standard_normal((4, 5, system.dim))
            uw = rng_from(64).standard_normal((2, 4, 5, system.l))
            for at in (np.s_[:], np.s_[0], np.s_[0, 0]):
                u, w = system.p0_coefficients(x[at])
                assert system.p0_assemble(u, w).tobytes() == x[at].tobytes()
                back = system.p0_coefficients(system.p0_assemble(uw[0][at], uw[1][at]))
                assert [b.tobytes() for b in back] == [c[at].tobytes() for c in uw]
        # a Haar conjugate takes the eigenbasis products (their bits are pinned by
        # test_other_bases_take_the_product), so its round trip holds to rounding only
        conjugated = conjugate_system(built, haar(66, built.dim))
        assert conjugated._p0_split is None
        u, w = conjugated.p0_coefficients(x)
        assert not np.shares_memory(u, x) and not np.shares_memory(w, x)
        assert max_abs(conjugated.p0_assemble(u, w) - x) <= 1e-14

    def test_gathered_rows_keep_their_bits(self):
        # a gathered E+(P_0) comes back with its coordinate axis outermost in memory; pi_c
        # still sums each row pairwise, so a row's values are its single call's
        built = build_system(8, 2, 1)
        permuted = permuted_system(built, rng_from(67).permutation(built.dim))
        for system in (built, permuted, system_from_dict(system_to_dict(permuted, "dense"))):
            x = rng_from(68).standard_normal((40, system.dim))
            x /= np.linalg.norm(x, axis=-1, keepdims=True)
            got = pi_c(system, x)
            assert all(pi_c(system, row).tobytes() == got[j].tobytes() for j, row in enumerate(x))

    def test_point_layout_leaves_the_bits(self):
        # a Fortran-ordered or strided x is split as its C-contiguous copy would be, so
        # pi_c's sums (pairwise on contiguous rows) and span_apply see the same rows
        system = build_system(3, 2)
        x = rng_from(64).standard_normal((40, system.dim))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        p = rng_from(65).standard_normal(system.m + 1)
        expected = pi_c(system, x).tobytes(), system.span_apply(p, x).tobytes()
        for other in (np.asfortranarray(x), np.concatenate([x, x], axis=-1)[..., ::2]):
            other[...] = x
            assert (pi_c(system, other).tobytes(),
                    system.span_apply(p, other).tobytes()) == expected


class TestSpanMatrix:
    def test_rows_equal_the_per_generator_sum(self):
        # identity, sparse and full coefficient rows, alone and mixed in one stack, give
        # sum_i c_i P_i added generator by generator from zero, bit for bit
        built = build_system(4, 3, 1)
        twin = CliffordSystem(4, built.l, gather_dense(*built.generators).astype(float))
        conj = conjugate_system(built, haar(27, built.dim))
        full = rng_from(28).standard_normal((6, 5))
        sparse = np.where(rng_from(29).random((6, 5)) < 0.4, full, 0.0)
        for system in (built, twin, conj):
            gens = [system.dense_generator(i) for i in range(5)]
            for rows in (np.eye(5), np.eye(5)[1:], sparse, full,
                         np.vstack([np.eye(5)[2], sparse[:3], full[:2], np.zeros(5)])):
                expected = []
                for row in rows:
                    acc = np.zeros((system.dim, system.dim))
                    for c, gen in zip(row, gens):
                        acc = acc + c * gen
                    expected.append(acc)
                assert system.span_matrix(rows).tobytes() == np.stack(expected).tobytes()


    @pytest.mark.parametrize("mkf", [(2, 2, 0), (4, 2, 1), (8, 1, 0)])
    def test_stack_sums_equal_the_nonzero_terms(self, mkf):
        # a stack (dense and conjugated systems) adds every term, zero terms included; the
        # dense sum of the nonzero terms alone must give the same bits, at width 2l (the
        # generators) and at width l (the blocks R_i span_apply sums), for identity rows,
        # random rows and rows holding 0, -0.0, NaN or only zeros
        built = build_system(*mkf)
        twin = CliffordSystem(built.m, built.l, gather_dense(*built.generators).astype(float))
        conj = conjugate_system(built, haar(30 + built.m, built.dim))
        n = built.m + 1
        odd = rng_from(31, built.m).standard_normal((4, n))
        odd[0, ::2], odd[1, ::2], odd[2, 1] = 0.0, -0.0, np.nan
        rows = np.vstack([np.eye(n), np.eye(n)[1:], rng_from(32, built.m).standard_normal((7, n)),
                          odd, np.zeros(n), np.full(n, -0.0)])
        for system in (twin, conj):
            gens = np.stack([system.dense_generator(i) for i in range(n)])
            for coeffs, blocks, width in ((rows, gens, system.dim),
                                          (rows[:, 1:], system._p0_scatter, system.l)):
                assert not isinstance(blocks, tuple)
                expected = np.zeros((len(coeffs), width, width))
                for acc, row in zip(expected, coeffs):
                    for c, block in zip(row, blocks):
                        if c != 0.0:
                            acc += c * block
                assert _span_sum(coeffs, blocks, width).tobytes() == expected.tobytes()


class TestSpanScatter:
    """_span_sum writes every coefficient row of a gather pair in one scatter."""

    @staticmethod
    def support_sum(rows, dense):
        """sum_i rows[j, i] A_i added block by block from zero on each A_i's nonzero entries:
        the dense sum for finite rows, a NaN coefficient marking only its own entries."""
        out = np.zeros((len(rows),) + dense.shape[1:])
        for acc, row in zip(out, rows):
            for c, block in zip(row, dense):
                on = block != 0
                acc[on] = acc[on] + c * block[on]
        return out

    @staticmethod
    def rows(m, seed):
        full = rng_from(seed).standard_normal((4, m))
        odd = full.copy()
        odd[0, ::2] = 0.0
        odd[1, ::2] = -0.0
        odd[2, 1] = np.nan
        odd[3, 0], odd[3, -1] = -0.0, np.nan
        return np.vstack([full, odd, np.zeros(m), np.full(m, -0.0), np.eye(m)])

    @classmethod
    def assert_scatter(cls, got, rows, cols, signs):
        expected = cls.support_sum(rows, gather_dense(cols, signs).astype(float))
        assert got.tobytes() == expected.tobytes()
        # zero coefficients, -0.0 included, leave +0.0 on their entries
        assert not np.signbit(got[got == 0.0]).any()
        assert np.isnan(got[6]).sum() == cols.shape[-1]

    @pytest.mark.parametrize("m,k,flips", [(4, 3, 1), (8, 2, 0)])
    def test_span_matrix(self, m, k, flips):
        # width 2l: the generators
        system = build_system(m, k, flips)
        rows = self.rows(m + 1, 91 + m)
        self.assert_scatter(system.span_matrix(rows), rows, *system.generators)

    @pytest.mark.parametrize("m,k,flips", [(4, 3, 1), (8, 2, 0), (12, 4, 0)])
    def test_span_apply_blocks(self, m, k, flips):
        # width l: the blocks R_i of the partial flip, and of an unflipped system the first
        # of its k copies span_apply sums
        system = build_system(m, k, flips)
        width = system.l // system._p0_copies
        assert width == (system.l if flips else system.l // k)
        rows = self.rows(m, 92 + m)
        cols, signs = (a[:, :width] for a in system._p0_blocks)
        self.assert_scatter(_span_sum(rows, system._p0_scatter, width), rows, cols, signs)


class TestSpanTrace:
    @pytest.mark.parametrize("m,k,flips", [(1, 2, 0), (3, 2, 1), (4, 3, 1), (8, 1, 0), (9, 1, 0)])
    def test_exact_and_dense_traces_match_the_matrix(self, m, k, flips):
        built = build_system(m, k, flips)
        twin = CliffordSystem(m, built.l, gather_dense(*built.generators).astype(float),
                              built.provenance)
        conj = conjugate_system(built, haar(26, built.dim))
        p = rng_from(25, m, k).standard_normal(m + 1)
        expected = float(np.trace(built.span_matrix(p)))
        for system, tol in ((built, 1e-12), (twin, 1e-12), (conj, 1e-10)):
            assert system.span_trace(p) == pytest.approx(expected, abs=tol)
            # each generator's trace is the sum of its diagonal, an integer on a gather pair
            for i in range(m + 1):
                assert system.span_trace(np.eye(m + 1)[i]) == np.trace(system.dense_generator(i))

    def test_fixed_rows_carry_the_trace(self):
        # a Clifford generator is traceless; a lone signed permutation need not be
        assert build_system(4, 3, 1).span_trace(np.arange(5.0)) == 0.0
        cols = np.array([[0, 1, 3, 2, 4, 5]])
        signs = np.array([[1, 1, 1, 1, -1, 1]])
        lone = CliffordSystem(0, 3, (cols, signs))
        assert lone.span_trace(np.array([0.5])) == 0.5 * np.trace(lone.dense_generator(0)) == 1.0


class TestTraceInvariant:
    @pytest.mark.parametrize("m,k,flips,expected", [
        (4, 3, 0, 3), (4, 3, 1, 1), (4, 2, 0, 2), (4, 2, 1, 0), (4, 2, 2, 2),
        (8, 1, 0, 1), (12, 1, 0, 1), (1, 2, 0, 0), (3, 2, 0, 0), (2, 3, 1, 0),
    ])
    def test_values(self, m, k, flips, expected):
        assert trace_invariant(build_system(m, k, flips)) == pytest.approx(expected, abs=1e-12)

    def test_class_count(self):
        # k=3 flips sweep gives floor(3/2)+1 = 2 distinct values
        values = {round(trace_invariant(build_system(4, 3, j))) for j in range(4)}
        assert values == {1, 3}


class TestEquivalence:
    def test_profiles_distinguish_flips_mod4(self):
        a = equivalence_profile(build_system(4, 3, 0))
        b = equivalence_profile(build_system(4, 3, 1))
        assert a.as_tuple() == (4, 3, 3)
        assert b.as_tuple() == (4, 3, 1)
        assert a.as_tuple() != b.as_tuple()

    def test_flip_insensitive_off_mod4(self):
        a = equivalence_profile(build_system(3, 2, 0))
        b = equivalence_profile(build_system(3, 2, 1))
        assert a.as_tuple() == b.as_tuple() == (3, 2, None)

    def test_inferred_multiplicity(self):
        s = build_system(2, 3)
        s2 = sub_system(s, range(3))  # same generators, provenance dropped
        assert equivalence_profile(s2).as_tuple() == (2, 3, None)

    def test_malformed_dimension(self):
        s = build_system(3, 1)  # l = 4
        bad = sub_system(s, [0, 1, 2])  # m = 2 needs delta = 2 | 4: fine
        assert equivalence_profile(bad).k == 2
        worse = sub_system(build_system(3, 1), [0])  # m = 0 invalid for delta
        with pytest.raises(ValueError):
            equivalence_profile(worse)


class TestConjugation:
    def test_identity_and_generator_conjugation(self):
        s = build_system(2, 2)
        same = conjugate_system(s, np.eye(s.dim))
        for i in range(3):
            np.testing.assert_array_equal(same.dense_generator(i), s.dense_generator(i))
        # conjugating by P0 flips the sign of every other generator
        by_p0 = conjugate_system(s, s.dense_generator(0))
        np.testing.assert_allclose(by_p0.dense_generator(0), s.dense_generator(0), atol=1e-14)
        for i in (1, 2):
            np.testing.assert_allclose(by_p0.dense_generator(i), -s.dense_generator(i), atol=1e-14)

    def test_haar_conjugation_keeps_relations_and_profile(self):
        s = build_system(4, 2, 1)
        base = trace_invariant(s)
        for i in range(5):
            a = haar(50 + i, s.dim)
            c = conjugate_system(s, a)
            rep = verify_relations(c)
            assert rep.passed and max(check.violation for check in rep.checks) <= 1e-12
            assert abs(trace_invariant(c) - base) <= 1e-9
            assert equivalence_profile(c).as_tuple() == equivalence_profile(s).as_tuple()

    def test_blocks_equal_per_generator_products(self):
        # at 2l = 128 the generators are conjugated a few _blocks slices at a time, and
        # each equals its own product A^T P_i A bit for bit
        s = build_system(12, 1)
        assert len(_blocks(s.m + 1, s.dim ** 2)) > 1
        a = haar(57, s.dim)
        expected = np.stack([a.T @ s.dense_generator(i) @ a for i in range(s.m + 1)])
        assert conjugate_system(s, a).generators.tobytes() == expected.tobytes()

    def test_conjugates_carry_no_provenance(self):
        # conjugate_system never records a construction, not even for A = Id
        s = build_system(4, 2, 1)
        assert conjugate_system(s, haar(55, s.dim)).provenance is None
        assert conjugate_system(s, np.eye(s.dim)).provenance is None

    def test_rejects_non_orthogonal(self):
        s = build_system(2, 1)
        with pytest.raises(ValueError):
            conjugate_system(s, np.eye(s.dim) * 1.001)


class TestSubSystem:
    def test_keep_all_is_identity(self):
        s = build_system(3, 1)
        t = sub_system(s, range(4))
        assert t.m == 3
        for a, b in zip(t.generators, s.generators):
            assert np.array_equal(a, b)

    def test_restriction_gives_disconnected_case(self):
        s = sub_system(build_system(2, 1), [0, 1])
        assert (s.m, s.l) == (1, 2)  # l = m + 1
        assert max(c.violation for c in verify_relations(s).checks) == 0.0

    def test_drop_one_from_rank_nine(self):
        s = sub_system(build_system(8, 1), range(8))
        assert s.m == 7
        assert max(c.violation for c in verify_relations(s).checks) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sub_system(build_system(2, 1), [])

    @pytest.mark.parametrize("indices", [[1, 1], [0, 2, 0], [2, 1, 2]])
    def test_repeated_index_rejected(self, indices):
        # P_1 twice anticommutes with itself to a violation of 2.0
        with pytest.raises(ValueError, match="at most once"):
            sub_system(build_system(2, 2), indices)

    def test_bool_indices_rejected(self):
        # numpy would read a list of bools as a mask: [True, False] picked P_0 alone
        with pytest.raises(TypeError, match="generator index"):
            sub_system(build_system(1, 2), [True, False])


class TestSerialization:
    def test_signed_perm_roundtrip_lossless(self):
        s = build_system(5, 2, 1)
        blob = json.dumps(system_to_dict(s))
        t = system_from_dict(json.loads(blob))
        assert t.m == s.m and t.l == s.l
        assert t.provenance == s.provenance
        assert t.exact
        for a, b in zip(s.generators, t.generators):
            assert np.array_equal(a, b)
        assert json.dumps(system_to_dict(t)) == blob

    def test_dense_roundtrip(self):
        s = conjugate_system(build_system(2, 1), haar(9, 4))
        t = system_from_dict(json.loads(json.dumps(system_to_dict(s))))
        assert not t.exact and t.generators.shape == (3, 4, 4)
        for i in range(3):
            np.testing.assert_array_equal(t.dense_generator(i), s.dense_generator(i))

    def test_dense_provenance_names_the_construction(self):
        # a dense file of a built system keeps its provenance; one whose generators
        # were conjugated, as older files of conjugated systems are, is refused
        s = build_system(4, 2, 1)
        t = system_from_dict(json.loads(json.dumps(system_to_dict(s, "dense"))))
        assert t.provenance == s.provenance and not t.exact
        d = system_to_dict(conjugate_system(s, haar(56, s.dim)))
        d["provenance"] = {"k": 2, "flips": 1}
        with pytest.raises(MalformedSystemError, match="conjugated"):
            system_from_dict(d)

    def test_bad_payload(self):
        d = system_to_dict(build_system(2, 1))
        d["generators"] = d["generators"][:-1]
        with pytest.raises(MalformedSystemError):
            system_from_dict(d)

    @pytest.mark.parametrize("defect,message", [("repeated_row", "permutation"),
                                                ("sign_two", "signs"),
                                                ("short_generator", "2l"),
                                                ("fractional", "integers"),
                                                ("string_sign", "integers"),
                                                ("fractional_m", "integers"),
                                                ("string_l", "integers"),
                                                ("fractional_k", "integers"),
                                                ("false_flips", "integers")],
                             ids=["repeated_row", "sign_two", "short_generator",
                                  "fractional", "string_sign", "fractional_m", "string_l",
                                  "fractional_k", "false_flips"])
    def test_signed_perm_payload_checked(self, defect, message):
        # row targets must be a permutation, signs +-1, each entry an integer,
        # and each generator 2l pairs long; m, l, k and flips are integers too
        d = system_to_dict(build_system(3, 2))
        pairs = d["generators"][2]
        # each header value below would truncate or parse back to the exact system
        if defect == "fractional_m":
            d["m"] = 3.9
        elif defect == "string_l":
            d["l"] = "8"
        elif defect == "fractional_k":
            d["provenance"]["k"] = 2.7
        elif defect == "false_flips":
            d["provenance"]["flips"] = False
        elif defect == "repeated_row":
            pairs[1][0] = pairs[0][0]
        elif defect == "sign_two":
            pairs[3][1] = 2
        elif defect == "fractional":
            # truncated toward zero, these entries would cast back to the exact system
            d["generators"] = [[[r + 0.7, 1.4 * s] for r, s in gen] for gen in d["generators"]]
        elif defect == "string_sign":
            pairs[[s for _, s in pairs].index(1)][1] = "1"
        else:
            del pairs[-1]
        with pytest.raises(MalformedSystemError, match=message):
            system_from_dict(d)

    @pytest.mark.parametrize("defect,message", [("string_entry", "numbers"),
                                                ("bool_entry", "numbers"),
                                                ("true_k", "integers"),
                                                ("zero_l", "at least 1"),
                                                ("zero_m", "at least 1")],
                             ids=["string_entry", "bool_entry", "true_k", "zero_l", "zero_m"])
    def test_dense_payload_checked(self, defect, message):
        # entries are JSON numbers, k an integer, and m, l at least 1; each
        # payload here would load as a system
        d = system_to_dict(build_system(2, 1), "dense")
        one = d["generators"][1].index(1.0)
        if defect == "string_entry":
            d["generators"][1][one] = "1"
        elif defect == "bool_entry":
            d["generators"][1][one] = True
        elif defect == "true_k":
            d["provenance"]["k"] = True
        elif defect == "zero_l":
            d.update(l=0, provenance=None, generators=[[], [], []])
        else:
            d = system_to_dict(sub_system(build_system(2, 1), [0]), "dense")
            assert d["m"] == 0
        with pytest.raises(MalformedSystemError, match=message):
            system_from_dict(d)

    @pytest.mark.parametrize("prov", [False, 0, 0.0, "", [], {}], ids=repr)
    def test_provenance_of_the_wrong_type_rejected(self, prov):
        # only JSON null means "no provenance"; these falsy values loaded as none
        for encoding in ("signed_perm", "dense"):
            d = system_to_dict(build_system(2, 2), encoding)
            d["provenance"] = prov
            with pytest.raises(MalformedSystemError, match="provenance"):
                system_from_dict(d)
            d["provenance"] = None
            assert system_from_dict(d).provenance is None

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_dense_rejected_without_warnings(self, bad):
        d = system_to_dict(build_system(2, 2), "dense")
        d["generators"][1][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedSystemError):
                system_from_dict(d)
