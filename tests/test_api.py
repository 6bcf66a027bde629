"""Every exported name resolves, and so does every function the traced benchmark wraps;
only clifford.py reads the generators, built systems act without dense span matrices,
every angle is one algebra.unit_angle, and no module warns."""

import importlib.util
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import clifford_foliations
from clifford_foliations.algebra import rng_from, row_dots, row_norms, sample_unit_vectors
from clifford_foliations.clifford import CliffordSystem, build_system
from clifford_foliations.composed import builtin_spec, leaf_to_leaf_ambient_distance
from clifford_foliations.foliation import (boundary_fiber_sample, fiber_sample, mplus_sample,
                                           random_horizontal_geodesic, reflect_symmetry,
                                           spin_rotate)

MODULES = [info.name for info in pkgutil.iter_modules(clifford_foliations.__path__)]
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE_DIR = pathlib.Path(clifford_foliations.__file__).resolve().parent


def resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_package_all_resolves():
    for name in clifford_foliations.__all__:
        assert hasattr(clifford_foliations, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"clifford_foliations.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_traced_benchmark_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.WRAPPED:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(resolve(mod, attr)), f"{module}.{attr}"
    for layer in tracing.LAYERS:
        importlib.import_module(f"{tracing.PACKAGE}.{layer}")


def test_angles_go_through_unit_angle():
    # every distance is one chord-form angle: no arccos anywhere, and arcsin only
    # twice in unit_angle and once for fiber_sample's turning angle
    calls = {path.name: len(re.findall(r"np\.arc(?:sin|cos)\b", path.read_text()))
             for path in PACKAGE_DIR.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"algebra.py": 2, "foliation.py": 1}


def test_no_module_warns():
    # every claim is a check or an error: no src module imports the warnings channel
    importers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                       if re.search(r"^\s*(?:import warnings|from warnings import)", path.read_text(),
                                    re.MULTILINE))
    assert importers == []


def test_only_clifford_reads_generators():
    # the generator representation (gather pair or dense stack) stays behind CliffordSystem
    readers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\.generators\b", path.read_text()))
    assert readers == ["clifford.py"]


def test_only_clifford_reads_the_storage_form():
    # which form a system's generators take is clifford.py's business alone; a
    # provenance, not the form, tells the orbit suites a system is the construction
    readers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\.exact\b", path.read_text()))
    assert readers == ["clifford.py"]


def test_only_clifford_builds_span_matrices():
    # every sum a_i P_i acts through CliffordSystem.span_apply, which works in E+-(P_0)
    # coefficients; span_matrix is left to dense generators, conjugation and dense blocks
    callers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\bspan_matrix\(", path.read_text()))
    assert callers == ["clifford.py"]


@pytest.mark.parametrize("m,k,flips", [(4, 3, 1), (12, 4, 0)])
def test_built_systems_act_without_span_matrices(monkeypatch, m, k, flips):
    # no (2l)^2 span matrix in the samplers, geodesics, symmetries or leaf distances
    def refuse(*args, **kwargs):
        raise AssertionError("a built system's geometry must not build a span matrix")

    monkeypatch.setattr(CliffordSystem, "span_matrix", refuse)
    system = build_system(m, k, flips)
    rng = rng_from(80, m, k)
    p = sample_unit_vectors(rng, m + 1, 3)
    q = p[[1, 2, 0]] - row_dots(p[[1, 2, 0]], p)[:, None] * p
    q /= row_norms(q)[:, None]
    v = p * np.array([0.0, 0.5, 1.0])[:, None]  # origin, interior and boundary rows
    x = fiber_sample(system, v, 2, np.arange(3))
    assert x.shape == (3, 2, system.dim)
    assert mplus_sample(system, 2, np.arange(3)).shape == x.shape
    assert boundary_fiber_sample(system, p, 2, np.arange(3)).shape == x.shape
    assert random_horizontal_geodesic(system, np.arange(3)).x_plus.shape == (3, system.dim)
    assert reflect_symmetry(system, p, x).shape == x.shape
    assert spin_rotate(system, p, q, np.array([0.1, 0.2, 0.3]), x).shape == x.shape
    for name, y in (("points", x[1, 0]), ("height", x[1, 0]), ("height", x[2, 0])):
        d = leaf_to_leaf_ambient_distance(system, builtin_spec(name, m), x[0, 0], y, 64, 81)
        assert 0.0 <= d <= np.pi
