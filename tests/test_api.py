"""Every exported name resolves, and so does every function the traced benchmark wraps;
only clifford.py reads the generators, built systems act without dense span matrices,
every angle is one algebra.unit_angle, every row dot and norm one algebra.row_dots, no
module warns or reads the environment, every built-in spec carries both closed forms or
neither, FoliationSpec has its six fields, CliffordSystem, CheckResult and
VerificationReport only the data they cannot derive, the orbit and geodesic layers and
verify_relations return only what their callers read, only FoliationSpec's construction check and
composed._fiber_leaf ask whether a spec carries its leaf metric and closed forms, only
composed._solve_rows solves linear systems, only algebra tests for integers, only
CliffordSystem's construction takes the rules of a system's shape, every integer
argument takes numpy integers and refuses bools, floats, strings and values below its
range, a draw's seeds are read once, by rng_streams, library calls leave read-only inputs
untouched, and every python block of README.md runs."""

import ast
import dataclasses
import importlib.util
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import clifford_foliations
from clifford_foliations import algebra, clifford, composed, foliation, homogeneity
from clifford_foliations.algebra import (cd_units, rng_from, rng_streams, row_dots, row_norms,
                                         sample_unit_vectors)
from clifford_foliations.clifford import (CliffordSystem, EquivalenceProfile,
                                          build_complex_structures, build_system, delta,
                                          sub_system, system_from_dict, system_to_dict,
                                          verify_relations)
from clifford_foliations.composed import (BUILTIN_SPEC_NAMES, FoliationSpec, builtin_spec,
                                          composed_class, composed_quotient_distance,
                                          leaf_to_leaf_ambient_distance, same_leaf)
from clifford_foliations.foliation import (boundary_fiber_sample, fiber_sample, mplus_sample,
                                           pi_c, project_geodesic_params,
                                           random_horizontal_geodesic, reflect_symmetry,
                                           spin_rotate)
from clifford_foliations.homogeneity import normal_form, sample_group_element
from clifford_foliations.reports import CheckResult, VerificationReport
from clifford_foliations.verify import SuiteConfig, default_plan

MODULES = [info.name for info in pkgutil.iter_modules(clifford_foliations.__path__)]
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
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


def is_product(node) -> bool:
    """Whether node is a product a * b, np.multiply(...) or np.square(...)."""
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"multiply", "square"}))


def last_axis_product_sums(tree) -> list:
    """The np.add.reduce, np.sum and .sum calls under tree that sum a product along axis -1."""
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
            continue
        if (n.func.attr, ast.unparse(n.func.value)) in {("reduce", "np.add"), ("sum", "np")}:
            operand, axis = n.args[:1], n.args[1:2]
        elif n.func.attr == "sum":
            operand, axis = [n.func.value], n.args[:1]
        else:
            continue
        axis += [k.value for k in n.keywords if k.arg == "axis"]
        if operand and is_product(operand[0]) and [ast.unparse(a) for a in axis] == ["-1"]:
            found.append(n)
    return found


def test_row_reductions_go_through_row_dots():
    # one row reduction: algebra.row_dots sums a C-ordered product along the last axis and
    # row_norms is its square root, so no other module sums a product along its last axis,
    # calls np.linalg.norm or keeps a norm kernel of its own
    sums, norms = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        if found := last_axis_product_sums(tree):
            sums[path.name] = len(found)
        if re.search(r"\blinalg\.norm\b|\b_pairwise_norms\b", text) or any(
                isinstance(n, ast.ImportFrom) and "linalg" in (n.module or "")
                and "norm" in {alias.name for alias in n.names} for n in ast.walk(tree)):
            norms.append(path.name)
    assert sums == {"algebra.py": 1} and norms == []


def test_checks_hand_over_their_rows():
    # CheckResult owns the one reduction of a check's rows, which keeps a NaN; a Python
    # max, min or float built in front of it would drop one or hide the rows
    built = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                    and n.func.id == "CheckResult":
                violation = n.args[2:3] + [k.value for k in n.keywords if k.arg == "violation"]
                assert len(violation) == 1, f"{path.name}:{n.lineno}"
                value = violation[0]
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                        and value.func.id in {"max", "min", "float"}:
                    built.append(f"{path.name}:{n.lineno}")
    assert built == []


def test_no_module_warns():
    # every claim is a check or an error: no src module imports the warnings channel
    importers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                       if re.search(r"^\s*(?:import warnings|from warnings import)", path.read_text(),
                                    re.MULTILINE))
    assert importers == []


def test_no_module_reads_the_environment():
    # every setting is an argument: no src module reads os.environ or calls os.getenv, so
    # the 2l cap, like everything else, is the same in every shell
    readers = sorted(
        f"{path.name}:{node.lineno}" for path in PACKAGE_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"))
    assert readers == []


@pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
def test_builtin_specs_with_leaves_have_nearest_points(name):
    # the estimator samples, restores and closes boundary leaves through nearest_leaf_point,
    # and construction refuses a spec with one closed form but not the other: every built-in
    # spec must build, with both closed forms or, for point leaves, neither
    spec = builtin_spec(name, 8)
    assert (spec.nearest_leaf_point is None) == (spec.invariant_jacobian is None)
    assert (spec.nearest_leaf_point is None) == (name == "points")


def test_foliation_spec_has_six_fields():
    # a spec is its invariant, its leaf metric and two closed forms: its leaf samples
    # follow from nearest_leaf_point, and no option rides along
    assert [f.name for f in dataclasses.fields(FoliationSpec)] == [
        "name", "ambient_dim", "invariant_map", "quotient_distance", "invariant_jacobian",
        "nearest_leaf_point"]


def test_clifford_system_is_its_generators():
    # a system is its generators: its rank m+1, its width 2l and whether it is the
    # construction (standard_layout) are read off them, not stored beside them
    assert [f.name for f in dataclasses.fields(CliffordSystem)] == ["generators"]


def test_value_types_store_only_their_data():
    # a check's verdict is read off its numbers and a report's off its checks; a
    # homogeneity verdict is what the table decides, with no quoted reason beside it
    assert [f.name for f in dataclasses.fields(CheckResult)] == [
        "name", "claim", "violation", "tol"]
    assert [f.name for f in dataclasses.fields(VerificationReport)] == [
        "suite", "seed", "samples", "checks", "system"]
    assert [f.name for f in dataclasses.fields(homogeneity.HomogeneityVerdict)] == [
        "status", "group", "condition"]


def test_results_are_what_callers_read():
    # a normal form is its array [u1, v1, v2], a group element its action matrix, a
    # geodesic its three arrays (p, x_plus, x_minus), its projection Q alone, a leaf class
    # its radius and tail and a relation check its three CheckResults, with no wrapper
    # type or field tag; the 2l cap has no function or setting of its own
    form = normal_form(np.eye(8)[0], 2)
    assert type(form) is np.ndarray and form.shape == (4,)
    mat = sample_group_element(2, 2, 5)
    assert type(mat) is np.ndarray and mat.shape == (4, 4)
    geodesic = random_horizontal_geodesic(S22, 3)
    assert type(geodesic) is tuple and len(geodesic) == 3
    assert all(type(a) is np.ndarray for a in geodesic)
    q = project_geodesic_params(S22, *geodesic[1:])
    assert type(q) is np.ndarray and q.shape == (S22.m + 1,)
    for module in (foliation, homogeneity):
        assert not {"GroupElement", "FIELD_DIM", "FIELD_FOR_M", "HorizontalGeodesic"} & set(
            dir(module))
    checks = verify_relations(build_system(2, 2))
    assert type(checks) is list and all(type(c) is CheckResult for c in checks)
    assert [c.name for c in checks] == ["symmetry", "involution", "anticommutation"]
    assert not hasattr(homogeneity, "NormalForm")
    x = sample_unit_vectors(rng_from(6), S22.dim, 5)
    radius, tail = composed_class(S22, builtin_spec("height", 2), x[0])
    assert type(radius) is float and type(tail) is np.ndarray and tail.shape == (1,)
    radii, tails = composed_class(S22, builtin_spec("points", 2), x)
    assert type(radii) is np.ndarray and radii.shape == (5,)
    assert type(tails) is np.ndarray and tails.shape == (5, 3)
    assert not hasattr(composed, "ComposedClass")
    assert not {"dimension_cap", "DEFAULT_DIM_CAP"} & set(dir(clifford))


SPEC_CONTRACT = {"quotient_distance", "invariant_jacobian", "nearest_leaf_point"}


def names_contract_field(node) -> bool:
    """Whether node mentions a contract field: as an attribute, a name or a getattr string."""
    return any((isinstance(n, ast.Attribute) and n.attr in SPEC_CONTRACT)
               or (isinstance(n, ast.Name) and n.id in SPEC_CONTRACT)
               or (isinstance(n, ast.Constant) and n.value in SPEC_CONTRACT)
               for n in ast.walk(node))


def test_only_construction_checks_the_spec_contract():
    # FoliationSpec.__post_init__ refuses a spec with one closed form but not the other,
    # and the leaf-space metric is a required field, so no other src code may ask whether
    # a spec has them, but composed._fiber_leaf, which reads "no closed forms" as point
    # leaves: no fallback path for a spec without them
    branches = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        checked = {id(n) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "FoliationSpec"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                   for n in ast.walk(fn)}
        checked |= {id(n) for fn in tree.body
                    if path.name == "composed.py" and isinstance(fn, ast.FunctionDef)
                    and fn.name == "_fiber_leaf"
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
    # which form a system's generators take is clifford.py's business alone; the
    # generators' entries, in either form, tell the orbit suites a system is the construction
    readers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\.exact\b", path.read_text()))
    assert readers == ["clifford.py"]


def test_only_clifford_builds_span_matrices():
    # every sum a_i P_i acts through CliffordSystem.span_apply, which works in E+-(P_0)
    # coefficients; span_matrix is left to dense generators, conjugation and dense blocks
    callers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\bspan_matrix\(", path.read_text()))
    assert callers == ["clifford.py"]


def test_only_fiber_sample_draws_fibers():
    # mplus_sample and boundary_fiber_sample delegate to fiber_sample; no other module
    # calls them, and the package only re-exports them
    namers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                    if re.search(r"\b(mplus_sample|boundary_fiber_sample)\b", path.read_text()))
    assert namers == ["__init__.py", "foliation.py"]
    init = (PACKAGE_DIR / "__init__.py").read_text()
    assert not re.search(r"\b(mplus_sample|boundary_fiber_sample)\(", init)


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


INTEGER_TYPES = {"bool", "bool_", "int", "integer"}


def integer_tests(tree) -> list:
    """The isinstance calls under tree that test for bool or int, and every np.integer."""
    return [n for n in ast.walk(tree)
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance"
                and INTEGER_TYPES & {t.id if isinstance(t, ast.Name) else t.attr
                                     for t in ast.walk(n.args[1])
                                     if isinstance(t, (ast.Name, ast.Attribute))})
            or (isinstance(n, ast.Attribute) and n.attr == "integer")]


def test_only_algebra_checks_integers():
    # every integer argument goes through algebra._index, the one isinstance(value, bool),
    # and algebra._count: no other module tests for bool, int or np.integer by hand
    stray, inside = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(n) for fn in ast.walk(tree)
                   if path.name == "algebra.py" and isinstance(fn, ast.FunctionDef)
                   and fn.name == "_index"
                   for n in integer_tests(fn)}
        inside += len(allowed)
        stray += [f"{path.name}:{n.lineno}" for n in integer_tests(tree) if id(n) not in allowed]
    assert stray == [] and inside == 1


def scopes(tree):
    """(qualified name, node) of each function and method under tree, and ("<module>", stmt)
    of each statement outside them; a nested function belongs to the function around it."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                yield (f"{node.name}.{fn.name}" if isinstance(fn, ast.FunctionDef)
                       else "<module>"), fn
        else:
            yield "<module>", node


def is_delta_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "delta")


def shape_rules(scope) -> list:
    """The nodes under scope that take x % delta(...), or x % d for a d bound to delta(...) in
    scope, or compare with the tuple (1, 1)."""
    bound = {t.id for n in ast.walk(scope) if isinstance(n, ast.Assign) and is_delta_call(n.value)
             for t in n.targets if isinstance(t, ast.Name)}
    return [n for n in ast.walk(scope)
            if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                and (is_delta_call(n.right) or (isinstance(n.right, ast.Name)
                                                and n.right.id in bound)))
            or (isinstance(n, ast.Compare)
                and any(isinstance(o, ast.Tuple)
                        and [getattr(e, "value", None) for e in o.elts] == [1, 1]
                        for o in [n.left, *n.comparators]))]


# where a rule of a system's shape may be taken besides CliffordSystem.__post_init__, its one
# home: a profile is also built without a system, the default plan skips (1, 1) before it
# builds, the relations suite's dimension check is in every report, and a set of complex
# structures checks its own target dimension
SHAPE_RULE_GUESTS = {"EquivalenceProfile.__post_init__", "default_plan", "_suite_relations",
                     "build_complex_structures"}


def test_only_the_type_holds_the_shape_rules():
    # m >= 1, l a positive multiple of delta(m) and (m, k) != (1, 1) are refused where a
    # CliffordSystem is made, so no other function of src/ tests them again
    stray, home = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for name, scope in scopes(ast.parse(path.read_text())):
            rules = shape_rules(scope)
            if path.name == "clifford.py" and name == "CliffordSystem.__post_init__":
                home += len(rules)
            elif name not in SHAPE_RULE_GUESTS:
                stray += [f"{path.name}:{name}:{n.lineno}" for n in rules]
    assert stray == [] and home == 2


S22 = build_system(2, 2)
V = np.array([0.3, 0.2, -0.1])
PAIR = fiber_sample(S22, V, 2, 18)
HEIGHT = builtin_spec("height", 2)

# (the argument's name in its messages, a call taking the value, a valid value, a value
# below the argument's range)
INTEGER_ARGUMENTS = {
    "SuiteConfig.seed": ("seed", lambda v: SuiteConfig("disk_image", S22, seed=v), 3, -1),
    "SuiteConfig.samples": ("samples", lambda v: SuiteConfig("disk_image", S22, samples=v), 8, 0),
    "SuiteConfig.budget": ("pairs", lambda v: SuiteConfig("transnormality", S22,
                                                          budget={"pairs": v}), 2, 0),
    "estimator.budget": ("budget", lambda v: leaf_to_leaf_ambient_distance(
        S22, HEIGHT, PAIR[0], PAIR[1], v, 19, starts=1), 40, 0),
    "estimator.starts": ("starts", lambda v: leaf_to_leaf_ambient_distance(
        S22, HEIGHT, PAIR[0], PAIR[1], 40, 19, starts=v), 2, 0),
    "estimator.seed": ("seed", lambda v: leaf_to_leaf_ambient_distance(
        S22, HEIGHT, PAIR[0], PAIR[1], 40, v, starts=1), 19, -1),
    "build_system.m": ("m", lambda v: build_system(v, 2), 2, 0),
    "build_system.k": ("k", lambda v: build_system(2, v), 2, 0),
    "build_system.flips": ("flips", lambda v: build_system(4, 2, v), 1, -1),
    "delta": ("m", delta, 3, 0),
    "build_complex_structures.n": ("n", lambda v: build_complex_structures(v, 8), 2, -1),
    "build_complex_structures.target_dim": ("target_dim",
                                            lambda v: build_complex_structures(2, v), 8, 0),
    "sub_system": ("generator index", lambda v: sub_system(S22, [0, v]), 1, -1),
    "dense_generator": ("i", S22.dense_generator, 1, -1),
    "builtin_spec.m": ("m", lambda v: builtin_spec("height", v), 2, 0),
    "sample_group_element.m": ("m", lambda v: sample_group_element(v, 2, 5), 2, 3),
    "sample_group_element.k": ("k", lambda v: sample_group_element(2, v, 5), 2, 0),
    "sample_group_element.seeds": ("seeds", lambda v: sample_group_element(2, 2, v), 5, -1),
    "normal_form.m": ("m", lambda v: normal_form(np.eye(8)[0], v), 2, 3),
    "fiber_sample.seeds": ("seeds", lambda v: fiber_sample(S22, V, 2, v), 1, -1),
    "boundary_fiber_sample.seeds": ("seeds", lambda v: boundary_fiber_sample(
        S22, np.eye(3)[0], 2, v), 1, -1),
    "mplus_sample.seeds": ("seeds", lambda v: mplus_sample(S22, 2, v), 1, -1),
    "random_horizontal_geodesic.seeds": ("seeds", lambda v: random_horizontal_geodesic(S22, v),
                                         1, -1),
    "rng_streams.seeds": ("seeds", rng_streams, 1, -1),
    "fiber_sample.n": ("n", lambda v: fiber_sample(S22, V, v, 1), 2, -1),
    "mplus_sample.n": ("n", lambda v: mplus_sample(S22, v, 1), 2, -1),
    "boundary_fiber_sample.n": ("n", lambda v: boundary_fiber_sample(S22, np.eye(3)[0], v, 1),
                                2, -1),
    "sample_unit_vectors.dim": ("dim", lambda v: sample_unit_vectors(rng_from(1), v, 2), 3, 0),
    "sample_unit_vectors.count": ("count", lambda v: sample_unit_vectors(rng_from(1), 3, v),
                                  2, -1),
    "rng_from.seed": ("seed", rng_from, 1, -1),
    "rng_from.path": ("path entry", lambda v: rng_from(1, 0, v), 1, -1),
    "rng_streams.path": ("path entry", lambda v: rng_streams(np.arange(8), v), 1, -1),
    "default_plan.max_dim": ("max_dim", default_plan, 8, 0),
    "cd_units": ("d", cd_units, 4, 0),
    "EquivalenceProfile.m": ("m", lambda v: EquivalenceProfile(v, 2), 2, 0),
    "EquivalenceProfile.k": ("k", lambda v: EquivalenceProfile(2, v), 2, 0),
    "EquivalenceProfile.kappa": ("kappa", lambda v: EquivalenceProfile(4, 2, v), 2, -1),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_arguments(argument):
    # one rule for every integer argument: numpy integers are taken; a bool (which Python
    # counts an int), a float or a string raises TypeError, and a value below range
    # ValueError, each naming the argument
    name, call, valid, below = INTEGER_ARGUMENTS[argument]
    for bad in (True, 2.5, "2"):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {bad!r}$"):
            call(bad)
    call(np.int64(valid))
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(below)


def rows_for(point, seeds):
    """point for an int seed, one row of it per seed for a list of seeds."""
    return np.tile(point, (len(seeds), 1)) if np.ndim(seeds) else point


# every public draw, as a function of its seeds
DRAWS = {
    "fiber_sample": lambda seeds: fiber_sample(S22, rows_for(V, seeds), 2, seeds),
    "boundary_fiber_sample": lambda seeds: boundary_fiber_sample(
        S22, rows_for(np.eye(3)[0], seeds), 2, seeds),
    "mplus_sample": lambda seeds: mplus_sample(S22, 2, seeds),
    "random_horizontal_geodesic": lambda seeds: random_horizontal_geodesic(S22, seeds),
    "sample_group_element": lambda seeds: sample_group_element(4, 2, seeds),
}


@pytest.mark.parametrize("seeds", [7, [3, 4, 5, 6, 7, 8]], ids=["int", "list"])
@pytest.mark.parametrize("draw", DRAWS)
def test_draws_read_their_seeds_once(monkeypatch, draw, seeds):
    # rng_streams is the one reader of seeds: a draw hands its seeds to it once and passes
    # the generators on; every integer read of src goes through algebra._index
    # (test_only_algebra_checks_integers), so counting its reads by name counts every
    # parse of a seed
    calls, names = [], []
    streams, index = algebra.rng_streams, algebra._index

    def counted_streams(*args):
        calls.append(args[0])
        return streams(*args)

    def counted_index(value, name):
        names.append(name)
        return index(value, name)

    for module in (foliation, homogeneity):
        monkeypatch.setattr(module, "rng_streams", counted_streams)
    monkeypatch.setattr(algebra, "_index", counted_index)
    DRAWS[draw](seeds)
    assert [call is seeds for call in calls].count(True) == 1
    # the geodesic's endpoints come from seeds its own streams draw, an int64 array that
    # boundary_fiber_sample hands to rng_streams in a call of its own
    assert len(calls) == (2 if draw == "random_horizontal_geodesic" else 1)
    assert names.count("seeds") == np.size(seeds)
    assert "seed" not in names and "path entry" not in names


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
    assert random_horizontal_geodesic(system, np.arange(3))[1].shape == (3, system.dim)
    assert reflect_symmetry(system, p, x).shape == x.shape
    assert spin_rotate(system, p, q, np.array([0.1, 0.2, 0.3]), x).shape == x.shape
    for name, y in (("points", x[1, 0]), ("height", x[1, 0]), ("height", x[2, 0])):
        d = leaf_to_leaf_ambient_distance(system, builtin_spec(name, m), x[0, 0], y, 64, 81)
        assert 0.0 <= d <= np.pi


@pytest.mark.parametrize("m,k,flips", [(3, 2, 0), (4, 2, 1), (4, 2, 2)])
def test_read_only_inputs_stay_untouched(m, k, flips):
    # wherever E+-(P_0) are coordinate runs, p0_coefficients returns views of the caller's
    # points (a built system, fully flipped too, and its dense copy), so no kernel may write
    # into them: every input is read-only, and its bytes must not change
    built, spec = build_system(m, k, flips), builtin_spec("height", m)
    for system in (built, system_from_dict(system_to_dict(built, "dense"))):
        rng = rng_from(90, m, k)
        p = sample_unit_vectors(rng, m + 1, 3)
        v = p * np.array([0.0, 0.5, 1.0])[:, None]
        x = fiber_sample(system, v, 4, np.arange(3))
        seeds = np.arange(3)
        inputs = (p, v, x, seeds)
        for a in inputs:
            a.flags.writeable = False
        before = [a.tobytes() for a in inputs]
        pi_c(system, x)
        system.span_apply(p, x)
        system.span_apply(p[0], x[0])
        fiber_sample(system, v, 4, seeds)
        boundary_fiber_sample(system, p, 4, seeds)
        composed_quotient_distance(system, spec, x[0], x[1])
        same_leaf(system, spec, x[0], x[2])
        leaf_to_leaf_ambient_distance(system, spec, x[0, 0], x[1, 0], 64, 81)
        assert [a.tobytes() for a in inputs] == before


PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", range(len(PYTHON_BLOCKS)))
def test_readme_python_blocks_run(block):
    # the documented API cannot drift from the code: every example runs as written
    exec(compile(PYTHON_BLOCKS[block], f"README.md python block {block}", "exec"), {})
