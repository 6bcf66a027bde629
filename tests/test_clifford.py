"""System construction, relations, invariants, equivalence, serialization."""

import json
import warnings
from functools import reduce

import numpy as np
import pytest

from clifford_foliations.algebra import max_abs, rng_from, sign_fixed_q
from clifford_foliations.clifford import (
    CliffordSystem,
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

    def test_tolerance_follows_representation(self):
        s = build_system(3, 2)
        assert [c.tol for c in verify_relations(s).checks] == [0.0] * 3
        dense = conjugate_system(s, haar(22, s.dim))
        assert [c.tol for c in verify_relations(dense).checks] == [1e-12] * 3


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

    def test_bad_payload(self):
        d = system_to_dict(build_system(2, 1))
        d["generators"] = d["generators"][:-1]
        with pytest.raises(MalformedSystemError):
            system_from_dict(d)

    @pytest.mark.parametrize("defect,message", [("repeated_row", "permutation"),
                                                ("sign_two", "signs"),
                                                ("short_generator", "2l"),
                                                ("fractional", "integers"),
                                                ("string_sign", "integers")],
                             ids=["repeated_row", "sign_two", "short_generator",
                                  "fractional", "string_sign"])
    def test_signed_perm_payload_checked(self, defect, message):
        # row targets must be a permutation, signs +-1, each entry an integer,
        # and each generator 2l pairs long
        d = system_to_dict(build_system(3, 2))
        pairs = d["generators"][2]
        if defect == "repeated_row":
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

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_dense_rejected_without_warnings(self, bad):
        d = system_to_dict(build_system(2, 2), "dense")
        d["generators"][1][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedSystemError):
                system_from_dict(d)
