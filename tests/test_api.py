"""Every exported name resolves, and so does every function the traced benchmark wraps."""

import importlib.util
import pathlib
import pkgutil
import re

import pytest

import clifford_foliations

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


def test_only_clifford_reads_generators():
    # the generator representation (gather pair or dense stack) stays behind CliffordSystem
    readers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\.generators\b", path.read_text()))
    assert readers == ["clifford.py"]


def test_only_clifford_builds_span_matrices():
    # every sum a_i P_i acts through CliffordSystem.span_apply, the one caller of span_matrix
    callers = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if re.search(r"\bspan_matrix\(", path.read_text()))
    assert callers == ["clifford.py"]
