"""Outside-in tracing of clifford_foliations' public functions.

A :class:`Tracer` swaps each wrapped function for a timing wrapper in every
``clifford_foliations`` module namespace that holds it (``composed.pi_c`` and
``verify.pi_c`` as well as ``foliation.pi_c``), so calls the library makes to
itself are seen too.  Each call becomes a span (name, start, end, parent
span, task id) kept in flat arrays; self time is a span's duration minus the
time its child spans cover.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, points): the module is the layer.  ``points`` names the
# argument that counts processed rows: "rows" for the leading axes of x, an
# int for the position of a sample-count argument ``n``.
WRAPPED = (
    ("composed", "leaf_to_leaf_ambient_distance", None),
    ("composed", "composed_quotient_distance", None),
    ("composed", "same_leaf", None),
    ("composed", "composed_class", None),
    ("foliation", "pi_c", "rows"),
    ("foliation", "pi_jacobian_rows", "rows"),
    ("foliation", "eig_split", None),
    ("foliation", "mplus_sample", 1),
    ("foliation", "fiber_sample", 2),
    ("foliation", "boundary_fiber_sample", 2),
    ("foliation", "quotient_distance", None),
    ("foliation", "random_horizontal_geodesic", None),
    ("algebra", "projector_colspace_basis", None),
    ("algebra", "sample_unit_vectors", None),
    ("algebra", "rng_from", None),
    ("clifford", "build_system", None),
    ("clifford", "CliffordSystem.span_matrix", None),
    ("clifford", "CliffordSystem.dense_generator", None),
    ("clifford", "verify_relations", None),
    ("clifford", "trace_invariant", None),
    ("clifford", "conjugate_system", None),
    ("clifford", "equivalence_profile", None),
    ("homogeneity", "normal_form", None),
    ("homogeneity", "diagonal_act", None),
    ("homogeneity", "sample_group_element", None),
)
INVARIANT_MAP = "composed.invariant_map"
ESTIMATOR = "composed.leaf_to_leaf_ambient_distance"
JACOBIAN = "foliation.pi_jacobian_rows"
TASK = "bench.task"
PACKAGE = "clifford_foliations"
LAYERS = ("composed", "foliation", "algebra", "clifford", "homogeneity", "verify")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _points(spec, args, kwargs) -> int:
    if spec == "rows":
        shape = np.shape(args[1] if len(args) > 1 else kwargs["x"])
        return int(np.prod(shape[:-1], dtype=np.int64))
    return int(args[spec] if len(args) > spec else kwargs["n"])


class Tracer:
    """Spans and per-name counters for one traced pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls = array("q")
        self.points = array("q")
        self.self_s = array("d")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_task = array("q")
        self._stack: list = []  # [span index, name id, start, child seconds]
        self.task = -1
        self._estimator_depth = 0
        self.jacobian_in_estimator = 0
        self._estimator_id = self.name_id(ESTIMATOR)
        self._jacobian_id = self.name_id(JACOBIAN)
        self._saved: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.points.append(0)
            self.self_s.append(0.0)
        return nid

    # -- spans ------------------------------------------------------------ #

    def enter(self, nid: int, points: int = 0) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_task.append(self.task)
        self.span_end.append(0.0)
        self.calls[nid] += 1
        self.points[nid] += points
        if nid == self._estimator_id:
            self._estimator_depth += 1
        elif nid == self._jacobian_id and self._estimator_depth:
            self.jacobian_in_estimator += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, nid, start, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if nid == self._estimator_id:
            self._estimator_depth -= 1

    def wrap(self, name, fn, points=None):
        """Timing wrapper of fn; ``name`` may be a function of the call's args."""
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            self.enter(nid, _points(points, args, kwargs) if points is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    # -- installation ----------------------------------------------------- #

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        from clifford_foliations import composed, verify

        for modname, attr, points in WRAPPED:
            module = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name(modname, attr), original, points))
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.wrap(span_name(modname, attr), original,
                                                             points))

        builtin_spec = composed.builtin_spec

        @functools.wraps(builtin_spec)
        def traced_builtin_spec(*args, **kwargs):
            spec = builtin_spec(*args, **kwargs)
            spec.invariant_map = self.wrap(INVARIANT_MAP, spec.invariant_map)
            return spec

        self._replace_everywhere(builtin_spec, traced_builtin_spec)
        self._replace_everywhere(verify.run_suite, self.wrap(
            lambda args, kwargs: f"verify.{(args[0] if args else kwargs['config']).suite}",
            verify.run_suite))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------- #

    def counters(self) -> dict:
        """Exact counts: calls and points per name, plus estimator constraint evals."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.points"] = self.points[nid]
        out["jacobian_in_estimator"] = self.jacobian_in_estimator
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, np.int64),
                 task=np.frombuffer(self.span_task, np.int64))
