"""Every exported name resolves, and so does every function the traced benchmark wraps;
only clifford.py reads the generators, built systems act without dense span matrices,
every angle is one algebra.unit_angle, no module warns, every built-in spec with leaves
to sample has its closed forms, only FoliationSpec's construction check asks whether
a spec carries its leaf metric and closed forms, and only composed._solve_rows solves
linear systems."""

import ast
import importlib.util
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import clifford_foliations
from clifford_foliations.algebra import rng_from, row_dots, row_norms, sample_unit_vectors
from clifford_foliations.clifford import CliffordSystem, build_system
from clifford_foliations.composed import (BUILTIN_SPEC_NAMES, builtin_spec,
                                          leaf_to_leaf_ambient_distance)
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


@pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
def test_builtin_specs_with_leaves_have_nearest_points(name):
    # the estimator's restore and boundary closed form call nearest_leaf_point directly,
    # and construction refuses a spec with leaves to sample but without it: every built-in
    # spec must build, and one with non-point leaves must carry both closed forms
    spec = builtin_spec(name, 8)
    assert (spec.leaf_sampler is None) or (spec.nearest_leaf_point is not None
                                           and spec.invariant_jacobian is not None)


SPEC_CONTRACT = {"quotient_distance", "invariant_jacobian", "nearest_leaf_point"}


def names_contract_field(node) -> bool:
    """Whether node mentions a contract field: as an attribute, a name or a getattr string."""
    return any((isinstance(n, ast.Attribute) and n.attr in SPEC_CONTRACT)
               or (isinstance(n, ast.Name) and n.id in SPEC_CONTRACT)
               or (isinstance(n, ast.Constant) and n.value in SPEC_CONTRACT)
               for n in ast.walk(node))


def test_only_construction_checks_the_spec_contract():
    # FoliationSpec.__post_init__ refuses a spec that samples leaves without both closed
    # forms, and the leaf-space metric is a required field, so no other src code may ask
    # whether a spec has them: no fallback path for a spec without them
    branches = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        checked = {id(n) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "FoliationSpec"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                   for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and id(node) not in checked
                    and any(isinstance(o, ast.Constant) and o.value is None
                            for o in [node.left, *node.comparators])
                    and names_contract_field(node)):
                branches.append(f"{path.name}:{node.lineno}")
    assert branches == []


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


LINEAR_SOLVES = {"solve", "lstsq", "inv", "pinv"}


def linear_solves(node) -> list:
    """The calls of linalg.solve, lstsq, inv or pinv under node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr in LINEAR_SOLVES
            and ((isinstance(n.func.value, ast.Attribute) and n.func.value.attr == "linalg")
                 or (isinstance(n.func.value, ast.Name) and n.func.value.id == "linalg"))]


def test_only_solve_rows_solves_linear_systems():
    # every small solve of the estimator takes the one batched LU path of
    # composed._solve_rows, with its row-by-row least-squares fallback
    stray, inside = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(call) for fn in ast.walk(tree)
                   if path.name == "composed.py" and isinstance(fn, ast.FunctionDef)
                   and fn.name == "_solve_rows"
                   for call in linear_solves(fn)}
        inside += len(allowed)
        stray += [f"{path.name}:{call.lineno}" for call in linear_solves(tree)
                  if id(call) not in allowed]
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
                  and LINEAR_SOLVES & {alias.name for alias in node.names}]
    assert stray == [] and inside


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
