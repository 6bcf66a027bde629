"""Command-line surface: exit codes, files, determinism, golden format."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifford_foliations import clifford, verify
from clifford_foliations.cli import main
from clifford_foliations.clifford import (
    CliffordSystem,
    MalformedSystemError,
    build_system,
    system_from_dict,
    system_to_dict,
)
from clifford_foliations.composed import BUILTIN_SPEC_NAMES
from clifford_foliations.reports import CheckResult
from kernel_family import AVX2, AVX512, pinned

GOLDEN = pathlib.Path(__file__).parent / "golden" / "system_m2_k1.json"


def run(*argv):
    return main([str(a) for a in argv])


class TestConstruct:
    def test_writes_loadable_system(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run("construct", "--m", 4, "--k", 3, "--flips", 1, "--out", out) == 0
        assert "(m=4, k=3, kappa=1)" in capsys.readouterr().out
        system = system_from_dict(json.loads(out.read_text()))
        assert (system.m, system.l) == (4, 12)

    def test_rejects_degenerate(self, tmp_path, capsys):
        assert run("construct", "--m", 1, "--k", 1, "--out", tmp_path / "x.json") == 2
        assert "degenerate" in capsys.readouterr().err

    def test_golden_file_format(self, tmp_path):
        out = tmp_path / "golden.json"
        assert run("construct", "--m", 2, "--k", 1, "--out", out) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_rejects_large_m(self, tmp_path, capsys):
        # delta(10000) has 1505 digits: over the cap, and taken in closed form, not by recursion
        assert run("construct", "--m", 10000, "--k", 1, "--out", tmp_path / "x.json") == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and "Traceback" not in err


class TestVerify:
    def test_single_suite_pass_and_report(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        report = tmp_path / "r.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        code = run("verify", "--system", system, "--suite", "relations",
                   "--seed", 9, "--samples", 50, "--report", report)
        assert code == 0
        payload = json.loads(report.read_text())["reports"][0]
        assert payload["pass"] is True
        assert payload["suite"] == "relations"
        assert {"name", "claim", "violation", "tol", "pass"} == set(payload["checks"][0])

    def test_incompatible_suite_exit_two(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        assert run("verify", "--system", system, "--suite", "sphere_quotient") == 2
        assert "sphere quotient" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["homogeneous_orbits", "normal_forms"])
    def test_orbit_suites_run_on_dense_files(self, tmp_path, suite):
        # a dense file of a built system holds the construction's entries, and the orbit
        # suites need only those, not the gather-pair form
        system = tmp_path / "s.json"
        run("construct", "--m", 4, "--k", 2, "--encoding", "dense", "--out", system)
        assert system_from_dict(json.loads(system.read_text())).standard_layout
        assert run("verify", "--system", system, "--suite", suite, "--seed", 3,
                   "--samples", 60) == 0

    def test_fixed_seed_reports_byte_identical(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for rep in (r1, r2):
            assert run("verify", "--system", system, "--suite", "disk_image",
                       "--seed", 4, "--samples", 300, "--report", rep) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_all_suites_on_small_system(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 1, "--k", 3, "--out", system)
        report = tmp_path / "all.json"
        code = run("verify", "--system", system, "--suite", "all", "--seed", 3,
                   "--samples", 60, "--pairs", 2, "--leaf-budget", 500,
                   "--report", report)
        assert code == 0
        payload = json.loads(report.read_text())
        names = {r["suite"] for r in payload["reports"]}
        assert "relations" in names and "sphere_quotient" not in names
        summary = payload["summary"]
        assert summary["errors"] == [] and summary["failed"] == []
        assert summary["passed"] == summary["total"] == len(payload["reports"])

    def test_budget_below_one_exit_two(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        capsys.readouterr()
        for knob, flag in (("pairs", "--pairs"), ("leaf_budget", "--leaf-budget")):
            for value in (0, -5):
                for suite in ("diameter", "all"):
                    code = run("verify", "--system", system, "--suite", suite, flag, value)
                    captured = capsys.readouterr()
                    lines = captured.err.splitlines()
                    assert code == 2 and len(lines) == 1 and captured.out == ""
                    assert lines[0].startswith("error:") and knob in lines[0]

    @pytest.mark.parametrize("seed", [-1, 2**48, 2**62])
    def test_seed_out_of_range_exit_two(self, seed, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        capsys.readouterr()
        for argv in (["verify", "--system", system, "--suite", "all"],
                     ["verify", "--system", system, "--suite", "homogeneous_orbits"],
                     ["report", "--max-dim", 8]):
            code = run(*argv, "--seed", seed)
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert code == 2 and len(lines) == 1 and captured.out == "", (argv, captured)
            assert lines[0].startswith("error:") and "seed" in lines[0]

    def test_normal_forms_acts_at_one_sample(self, tmp_path, monkeypatch):
        # --samples 1 still draws a pair, so an action that leaves the fibers
        # (swapping the u and v halves) fails orbit_constancy
        system = tmp_path / "s.json"
        report = tmp_path / "r.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        monkeypatch.setattr(verify, "diagonal_act",
                            lambda g, x: np.roll(x, x.shape[-1] // 2, axis=-1))
        assert run("verify", "--system", system, "--suite", "normal_forms",
                   "--samples", 1, "--report", report) == 1
        checks = {c["name"]: c["pass"]
                  for c in json.loads(report.read_text())["reports"][0]["checks"]}
        assert checks["orbit_constancy"] is False

    def test_missing_file_exit_two(self, tmp_path):
        assert run("verify", "--system", tmp_path / "absent.json") == 2

    def test_report_path_is_directory_exit_two(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        assert run("verify", "--system", system, "--suite", "relations",
                   "--report", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


class TestMalformedSystemFiles:
    @staticmethod
    def assert_rejected(tmp_path, capsys, payload, *command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run(*(command or ("invariant",)), "--system", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_missing_key(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {"m": 2})

    def test_system_path_is_directory(self, tmp_path, capsys):
        assert run("invariant", "--system", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_not_an_object(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, [1, 2])

    def test_deeply_nested_file(self, tmp_path, capsys):
        # json.load raises RecursionError here, neither an OSError nor a ValueError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run("invariant", "--system", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_signed_perm_column_without_sign(self, tmp_path, capsys):
        payload = json.loads(GOLDEN.read_text())
        payload["generators"][1] = [[0] for _ in payload["generators"][1]]
        self.assert_rejected(tmp_path, capsys, payload)

    @pytest.mark.parametrize("defect", ["repeated_row", "sign_two", "short_generator",
                                        "fractional", "string_sign"])
    def test_signed_perm_pairs_checked(self, tmp_path, capsys, defect):
        payload = json.loads(GOLDEN.read_text())
        pairs = payload["generators"][1]
        if defect == "repeated_row":
            pairs[1][0] = pairs[0][0]
        elif defect == "sign_two":
            pairs[2][1] = 2
        elif defect == "fractional":
            payload["generators"] = [[[r + 0.7, 1.4 * s] for r, s in gen]
                                     for gen in payload["generators"]]
        elif defect == "string_sign":
            pairs[[s for _, s in pairs].index(1)][1] = "1"
        else:
            del pairs[-1]
        self.assert_rejected(tmp_path, capsys, payload)

    @pytest.mark.parametrize("defect", ["fractional_m", "string_l", "zero_m"])
    def test_header_fields_checked(self, tmp_path, capsys, defect):
        # each payload would load as the golden system, or as an m = 0 one that
        # cfl invariant rejects but cfl fiber samples
        payload = json.loads(GOLDEN.read_text())
        if defect == "fractional_m":
            payload["m"] = 2.9
        elif defect == "string_l":
            payload["l"] = "2"
        else:
            payload.update(m=0, generators=payload["generators"][:1])
            self.assert_rejected(tmp_path, capsys, payload, "fiber", "--at", "0")
        self.assert_rejected(tmp_path, capsys, payload)

    @pytest.mark.parametrize("prov", [False, 0, "", [], {}], ids=repr)
    def test_provenance_of_the_wrong_type(self, tmp_path, capsys, prov):
        # an older file's provenance is ignored, whatever its value, and the orbit suites
        # read the golden generators, the construction's
        payload = json.loads(GOLDEN.read_text())
        payload["provenance"] = prov
        path = self.assert_loads(tmp_path, payload)
        assert run("verify", "--system", path, "--suite", "homogeneous_orbits",
                   "--samples", 20) == 0

    @pytest.mark.parametrize("defect", ["string_entry", "bool_entry", "zero_l"])
    def test_dense_payload_checked(self, tmp_path, capsys, defect):
        payload = self.constructed(tmp_path, "--m", 2, "--k", 1, "--encoding", "dense")
        one = payload["generators"][1].index(1.0)
        if defect == "string_entry":
            payload["generators"][1][one] = "1"
        elif defect == "bool_entry":
            payload["generators"][1][one] = True
        else:
            payload.update(l=0, generators=[[], [], []])
        self.assert_rejected(tmp_path, capsys, payload)

    @staticmethod
    def constructed(tmp_path, *argv):
        path = tmp_path / "built.json"
        assert run("construct", *argv, "--out", path) == 0
        return json.loads(path.read_text())

    @staticmethod
    def assert_loads(tmp_path, payload):
        # the generators load as they are stored, and save back without the provenance
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(payload))
        assert run("invariant", "--system", path) == 0
        stored = {key: value for key, value in payload.items() if key != "provenance"}
        assert system_to_dict(system_from_dict(payload), payload["encoding"]) == stored
        return path

    @staticmethod
    def assert_orbit_suites_refuse(path, capsys):
        capsys.readouterr()
        for suite in ("homogeneous_orbits", "normal_forms"):
            assert run("verify", "--system", path, "--suite", suite) == 2
            assert "unflipped" in capsys.readouterr().err

    def test_signed_perm_equal_generators(self, tmp_path, capsys):
        payload = self.constructed(tmp_path, "--m", 3, "--k", 2)
        payload["generators"][2] = payload["generators"][1]
        self.assert_rejected(tmp_path, capsys, payload)

    def test_dense_equal_generators(self, tmp_path, capsys):
        payload = self.constructed(tmp_path, "--m", 3, "--k", 2, "--encoding", "dense")
        payload["generators"][2] = payload["generators"][1]
        self.assert_rejected(tmp_path, capsys, payload)

    def test_dense_relations_checked_to_1e12(self, tmp_path, capsys):
        payload = self.constructed(tmp_path, "--m", 2, "--k", 2, "--encoding", "dense")
        assert run("invariant", "--system", tmp_path / "built.json") == 0
        n = 2 * payload["l"]
        payload["generators"][0][0] += 1e-9
        payload["generators"][0][n + 1] -= 1e-9
        self.assert_rejected(tmp_path, capsys, payload)

    def test_wrong_flips(self, tmp_path, capsys):
        # an older file of build_system(4, 3, 1) labelled unflipped loads as what it is, and
        # the orbit suites, which read the generators, refuse it
        payload = self.constructed(tmp_path, "--m", 4, "--k", 3, "--flips", 1)
        payload["provenance"] = {"k": 3, "flips": 0}
        self.assert_orbit_suites_refuse(self.assert_loads(tmp_path, payload), capsys)

    def test_wrong_flips_dense(self, tmp_path, capsys):
        payload = self.constructed(tmp_path, "--m", 4, "--k", 3, "--flips", 1,
                                   "--encoding", "dense")
        payload["provenance"] = {"k": 3, "flips": 0}
        self.assert_orbit_suites_refuse(self.assert_loads(tmp_path, payload), capsys)

    @pytest.mark.parametrize("encoding", ["signed_perm", "dense"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_wrong_flips_without_trace_invariant(self, tmp_path, capsys, m, encoding):
        # off the multiples of four the trace invariant cannot tell flips apart, but the
        # generators can: the file loads, and the orbit suites refuse it
        payload = self.constructed(tmp_path, "--m", m, "--k", 3, "--flips", 1,
                                   "--encoding", encoding)
        payload["provenance"] = {"k": 3, "flips": 0}
        self.assert_orbit_suites_refuse(self.assert_loads(tmp_path, payload), capsys)

    def test_non_finite_numbers(self, tmp_path, capsys):
        payload = self.constructed(tmp_path, "--m", 2, "--k", 2)
        payload["m"] = float("inf")
        self.assert_rejected(tmp_path, capsys, payload)
        for bad in (float("inf"), float("nan")):
            payload = self.constructed(tmp_path, "--m", 2, "--k", 1, "--encoding", "dense")
            payload["generators"][1][1] = bad
            self.assert_rejected(tmp_path, capsys, payload)

    def test_flips_outside_range(self, tmp_path, capsys):
        # a provenance no construction has is ignored as any other
        payload = self.constructed(tmp_path, "--m", 3, "--k", 2)
        payload["provenance"] = {"k": 2, "flips": 3}
        self.assert_loads(tmp_path, payload)

    @staticmethod
    def one_column_pair_payload(m):
        # l = 1 with m + 1 generators: a shape no Clifford system of m >= 2 has
        return {"m": m, "l": 1, "encoding": "signed_perm",
                "generators": [[[0, 1], [1, 1]]] * (m + 1)}

    @pytest.mark.parametrize("encoding", ["signed_perm", "dense"])
    def test_one_one_refused(self, tmp_path, capsys, encoding):
        # the (m, l) = (1, 1) file satisfies every relation, and is refused as
        # build_system(1, 1) is: no command runs on it, verify --suite all included
        payload = {"m": 1, "l": 1, "encoding": "signed_perm",
                   "generators": [[[0, 1], [1, -1]], [[1, 1], [0, 1]]]}
        if encoding == "dense":
            payload.update(encoding="dense", generators=[[1, 0, 0, -1], [0, 1, 1, 0]])
        for command in (("invariant",), ("verify", "--suite", "all", "--samples", 40)):
            assert "degenerate" in self.assert_rejected(tmp_path, capsys, payload, *command)

    def test_large_m_with_provenance(self, tmp_path, capsys):
        # the loader reads delta(10000), which once recursed past Python's limit
        self.assert_rejected(tmp_path, capsys, self.one_column_pair_payload(10000))

    def test_l_not_a_multiple_of_delta(self, tmp_path, capsys, monkeypatch):
        # rejected before the relation check, which builds (m+1)^2 2l gathers
        def unreachable(system):
            raise AssertionError("relation check reached")

        monkeypatch.setattr(clifford, "_relation_violations", unreachable)
        err = self.assert_rejected(tmp_path, capsys, self.one_column_pair_payload(300))
        assert "l = 1 is not a multiple of delta(m) = 2^150" in err


class TestInvariantAndClassify:
    def test_invariant_output(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 4, "--k", 3, "--out", system)
        assert run("invariant", "--system", system) == 0
        out = capsys.readouterr().out
        assert "kappa=3" in out and "trace invariant: 3" in out

    def test_classify_flip_pair(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("construct", "--m", 4, "--k", 3, "--flips", 0, "--out", a)
        run("construct", "--m", 4, "--k", 3, "--flips", 1, "--out", b)
        assert run("classify", "--system", a, "--other", b) == 0
        assert "inequivalent" in capsys.readouterr().out
        run("construct", "--m", 3, "--k", 2, "--flips", 1, "--out", b)
        run("construct", "--m", 3, "--k", 2, "--flips", 0, "--out", a)
        assert run("classify", "--system", a, "--other", b) == 0
        assert "inequivalent" not in capsys.readouterr().out


class TestFiberCsv:
    def test_origin_fiber_csv(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        out = tmp_path / "fiber.csv"
        assert run("fiber", "--system", system, "--at", "0", "--count", 40,
                   "--seed", 6, "--out", out) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [f"x{i}" for i in range(8)] + ["pi0", "pi1", "pi2"]
        data = np.array(rows[1:], dtype=float)
        assert data.shape == (40, 11)
        assert np.linalg.norm(data[:, 8:], axis=1).max() <= 1e-10

    def test_interior_point_and_seeding(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("fiber", "--system", system, "--at", "0.2,0.1,-0.3",
                       "--count", 10, "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_disconnected_fibers_sample_quietly(self, tmp_path, capsys):
        # l = m+1: the fibers are disconnected, which the factorization suite checks;
        # sampling them writes nothing to stderr, and without M+ (l = m) only a
        # boundary point has a fiber
        disconnected, sphere = tmp_path / "d.json", tmp_path / "s.json"
        run("construct", "--m", 3, "--k", 1, "--out", disconnected)
        run("construct", "--m", 2, "--k", 1, "--out", sphere)
        capsys.readouterr()
        for at in ("0", "0.6,0,0.8,0"):
            assert run("fiber", "--system", disconnected, "--at", at, "--count", 3,
                       "--out", tmp_path / "f.csv") == 0
            assert capsys.readouterr().err == ""
        assert run("fiber", "--system", sphere, "--at", "0.6,0,0.8", "--count", 3,
                   "--out", tmp_path / "f.csv") == 0
        assert run("fiber", "--system", sphere, "--at", "0", "--count", 3) == 2
        assert "M+ is empty" in capsys.readouterr().err

    def test_bad_coordinates(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        assert run("fiber", "--system", system, "--at", "0.2,0.1") == 2

    @pytest.mark.parametrize("command, flag", [("fiber", "--count"), ("compose", "--count"),
                                               ("compose", "--check-pairs")])
    def test_negative_counts(self, command, flag, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        capsys.readouterr()
        where = ("--at", "0") if command == "fiber" else ("--spec", "height")
        assert run(command, "--system", system, *where, flag, -1) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {flag} must be at least 0, got -1"]
        assert captured.out == ""

    def test_non_finite_coordinates(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        capsys.readouterr()
        for at in ("nan,0,0", "0.1,inf,0", "-inf,0,0"):
            assert run("fiber", "--system", system, f"--at={at}") == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""


class TestComposeAndHomogeneity:
    def test_compose_csv(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        out = tmp_path / "classes.csv"
        assert run("compose", "--system", system, "--spec", "points",
                   "--count", 12, "--check-pairs", 2, "--seed", 1, "--out", out) == 0
        text = capsys.readouterr().out
        assert text.count("same_leaf") == 2
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "radius" and len(rows) == 13

    # SHA-256 of the stdout (CSV, then the pair verdicts) of
    # `cfl compose --count 40 --check-pairs 20 --seed 3`, taken when every
    # row was classified on its own; re-pinned when pi_C was evaluated in
    # E_+-(P_0) coefficients (187 of 600 printed numbers moved, by <= 3.4e-16,
    # and no same_leaf verdict changed); keyed by numeric-kernel family since, and re-pinned
    # when every row dot and norm became algebra.row_dots (72 of 689 printed numbers moved,
    # by <= 5.6e-16, and no same_leaf verdict changed), after which the height, points and
    # one_leaf outputs are the same in both families
    COMPOSE_CASES = [(2, 2, "height"), (3, 1, "points"), (4, 1, "one_leaf"), (8, 1, "tensor_svd")]
    COMPOSE_STDOUT = {
        AVX512: dict(zip(COMPOSE_CASES, [
            "327616e673210f9a9fdcc2663bc047f584e0ba1086971731d74fe2ff675d1f60",
            "db8a07d906476cdcefb2fef849466708256f8c3270085daee089f46939754251",
            "436bc70fb0421e5410143090c75e6e160459e1b0c0a86c477cadacfb5df95f62",
            "88d1130ddf77b9de7f0e8bf9cd936a348de9bae02702c5af899cbedce75de6ab",
        ])),
        AVX2: dict(zip(COMPOSE_CASES, [
            "327616e673210f9a9fdcc2663bc047f584e0ba1086971731d74fe2ff675d1f60",
            "db8a07d906476cdcefb2fef849466708256f8c3270085daee089f46939754251",
            "436bc70fb0421e5410143090c75e6e160459e1b0c0a86c477cadacfb5df95f62",
            "a8a466bd58c2eb0d5e66c5db4c08fd929409765982d9f62f540bb92870e5777d",
        ])),
    }

    @pytest.mark.parametrize("case", COMPOSE_CASES)
    def test_compose_output_is_pinned(self, case, tmp_path, capsys):
        m, k, spec = case
        system = tmp_path / "s.json"
        run("construct", "--m", m, "--k", k, "--out", system)
        capsys.readouterr()
        assert run("compose", "--system", system, "--spec", spec, "--count", 40,
                   "--check-pairs", 20, "--seed", 3) == 0
        out = capsys.readouterr().out
        assert out.count("same_leaf = ") == 20
        assert hashlib.sha256(out.encode()).hexdigest() == pinned(self.COMPOSE_STDOUT)[case]

    def test_compose_zero_count(self, tmp_path):
        system = tmp_path / "s.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        out = tmp_path / "classes.csv"
        assert run("compose", "--system", system, "--spec", "height",
                   "--count", 0, "--out", out) == 0
        # the columns follow the spec's invariant width, not the rows drawn
        assert out.read_text().splitlines() == ["radius,tail0"]

    def test_homogeneity_verdicts(self, tmp_path, capsys):
        system = tmp_path / "s.json"
        run("construct", "--m", 9, "--k", 1, "--out", system)
        assert run("homogeneity", "--system", system) == 0
        assert "non_homogeneous" in capsys.readouterr().out
        run("construct", "--m", 1, "--k", 3, "--out", system)
        assert run("homogeneity", "--system", system) == 0
        assert "SO(3)" in capsys.readouterr().out


class TestReportCommand:
    def test_small_matrix_report(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert run("report", "--max-dim", 8, "--seed", 2, "--samples", 40,
                   "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["passed"] == payload["summary"]["total"] > 0
        assert "suites passed" in capsys.readouterr().out

    def test_empty_plan_exit_two(self, tmp_path, capsys):
        # the smallest system has 2l = 4, so --max-dim 3 would report 0/0 suites passed
        out = tmp_path / "summary.json"
        assert run("report", "--max-dim", 3, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "--max-dim 3" in captured.err and not out.exists()


class TestFailingPlans:
    """What a plan with a failing and a raising suite prints, writes and exits with."""

    @pytest.fixture
    def registry(self, monkeypatch):
        # relations as it is, a suite whose second check fails by m/4, and one that raises
        def drift(cfg):
            return [CheckResult("steady", "a check that passes", 0.0, 0.0),
                    CheckResult("drift", "a check that fails", cfg.system.m / 4, 1e-3)]

        def broken(cfg):
            raise RuntimeError(f"no luck at l = {cfg.system.l}")

        monkeypatch.setattr(verify, "_SUITES", {
            "relations": verify._SUITES["relations"],
            "drift": verify._SuiteDef(drift, lambda s: None),
            "broken": verify._SuiteDef(broken, lambda s: None)})

    @staticmethod
    def summary_of(path):
        summary = json.loads(path.read_text())["summary"]
        return ([(f["suite"], f["system"], [c["name"] for c in f["checks"]])
                 for f in summary["failed"]],
                [(e["suite"], e["system"], e["error"]) for e in summary["errors"]])

    def test_verify_all(self, registry, tmp_path, capsys):
        system, report = tmp_path / "s.json", tmp_path / "r.json"
        run("construct", "--m", 2, "--k", 2, "--out", system)
        capsys.readouterr()
        assert run("verify", "--system", system, "--suite", "all", "--report", report) == 1
        assert capsys.readouterr().out.splitlines() == [
            "1/3 suites passed, 1 errors",
            "  FAILED drift/drift on {'m': 2, 'k': 2, 'kappa': None}: "
            "violation 5.000e-01 (tol 1.0e-03)",
            "  ERROR broken: RuntimeError: no luck at l = 4"]
        s22 = {"m": 2, "k": 2, "kappa": None}
        assert self.summary_of(report) == ([("drift", s22, ["drift"])],
                                           [("broken", s22, "RuntimeError: no luck at l = 4")])

    def test_report(self, registry, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert run("report", "--max-dim", 8, "--out", out) == 1
        # the systems with 2l <= 8: (m, k, kappa) and l
        systems = [((1, 2, None), 2), ((1, 3, None), 3), ((1, 4, None), 4), ((2, 1, None), 2),
                   ((2, 2, None), 4), ((3, 1, None), 4), ((4, 1, 1), 4)]
        profiles = [dict(zip(("m", "k", "kappa"), p)) for p, _ in systems]
        assert capsys.readouterr().out.splitlines() == (
            ["7/21 suites passed, 7 errors"]
            + [f"  FAILED drift/drift on {p}: violation {p['m'] / 4:.3e} (tol 1.0e-03)"
               for p in profiles]
            + [f"  ERROR broken: RuntimeError: no luck at l = {l}" for _, l in systems])
        assert self.summary_of(out) == (
            [("drift", p, ["drift"]) for p in profiles],
            [("broken", p, f"RuntimeError: no luck at l = {l}")
             for p, (_, l) in zip(profiles, systems)])


# ---------------------------------------------------------------------------
# Fuzzing: any JSON payload either loads or is rejected with exit code 2
# ---------------------------------------------------------------------------

json_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
                | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 30]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=4),
    max_leaves=24)
free_payloads = st.fixed_dictionaries(
    {"m": json_values, "l": json_values,
     "encoding": st.sampled_from(["signed_perm", "dense", "other"]) | json_values,
     "generators": json_values},
    optional={"provenance": json_values})


def valid_payloads():
    return [system_to_dict(build_system(2, 1)), system_to_dict(build_system(3, 1, 1)),
            system_to_dict(build_system(4, 2, 1)), system_to_dict(build_system(1, 2)),
            system_to_dict(build_system(2, 1), "dense"),
            system_to_dict(build_system(4, 1), "dense")]


@st.composite
def mutated_payloads(draw):
    """A valid payload with one to three nodes replaced, removed or nudged."""
    payload = copy.deepcopy(draw(st.sampled_from(valid_payloads())))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = payload, draw(st.sampled_from(sorted(payload)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        action = draw(st.sampled_from(["replace", "remove", "nudge"]))
        if action == "remove" and isinstance(parent, dict):
            del parent[key]
        elif action == "nudge" and isinstance(parent[key], (int, float)):
            parent[key] = parent[key] + draw(st.sampled_from([-1, 1, 1e-9, 0.5, float("inf"),
                                                              10 ** 30]))
        else:
            parent[key] = draw(json_values)
    return payload


payloads = free_payloads | mutated_payloads() | st.sampled_from(valid_payloads()) | json_values
# systems the geometry commands run on: valid ones, an m = 8 one for tensor_svd, and mutants
geometry_payloads = (st.sampled_from(valid_payloads() + [system_to_dict(build_system(8, 1))])
                     | mutated_payloads())
small_ints = st.integers(-3, 40)
seeds = st.integers(-2, 2**64)
coordinates = (st.floats(-0.7, 0.7) | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9]))
disk_points = (st.lists(coordinates, min_size=1, max_size=6).map(
    lambda c: ",".join(repr(x) for x in c)) | st.text(max_size=8))


def write_payload(directory, payload):
    path = pathlib.Path(directory) / "fuzz.json"
    path.write_text(json.dumps(payload))
    return path


def assert_contract(*argv):
    """One cfl call exits 0 or 2 with no traceback; argparse rejections count as exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


class TestFuzz:
    @given(payloads)
    @settings(max_examples=150, deadline=None)
    def test_loader_returns_system_or_malformed(self, payload):
        try:
            system = system_from_dict(payload)
        except MalformedSystemError:
            return
        assert isinstance(system, CliffordSystem)

    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_cli_exit_codes(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(tmp, payload)
            for argv in (["invariant", "--system", path], ["homogeneity", "--system", path],
                         ["classify", "--system", path, "--other", path]):
                assert_contract(*argv)

    @given(payloads, seeds, small_ints)
    @settings(max_examples=40, deadline=None)
    def test_verify_relations_exit_codes(self, payload, seed, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(tmp, payload)
            assert_contract("verify", "--system", path, "--suite", "relations",
                            "--seed", seed, "--samples", samples,
                            "--report", pathlib.Path(tmp) / "report.json")

    @given(st.integers(-2, 9), st.integers(-2, 5), st.integers(-2, 6),
           st.sampled_from(["signed_perm", "dense"]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_construct_exit_codes(self, m, k, flips, encoding, out_is_dir):
        with tempfile.TemporaryDirectory() as tmp:
            out = tmp if out_is_dir else pathlib.Path(tmp) / "s.json"
            assert_contract("construct", "--m", m, "--k", k, "--flips", flips,
                            "--encoding", encoding, "--out", out)

    @given(geometry_payloads, disk_points, small_ints, seeds)
    # a finite coordinate whose square overflows in the disk check
    @example(system_to_dict(build_system(1, 2)), "0.0,1.3407807929942597e+154", 0, 0)
    @settings(max_examples=40, deadline=None)
    def test_fiber_exit_codes(self, payload, at, count, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(tmp, payload)
            assert_contract("fiber", "--system", path, f"--at={at}", "--count", count,
                            "--seed", seed, "--out", pathlib.Path(tmp) / "fiber.csv")

    @given(geometry_payloads, st.sampled_from(BUILTIN_SPEC_NAMES), small_ints, small_ints, seeds)
    @settings(max_examples=40, deadline=None)
    def test_compose_exit_codes(self, payload, spec, count, pairs, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(tmp, payload)
            assert_contract("compose", "--system", path, "--spec", spec, "--count", count,
                            "--check-pairs", pairs, "--seed", seed,
                            "--out", pathlib.Path(tmp) / "classes.csv")
