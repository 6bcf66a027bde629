"""Command-line surface: build systems, persist them, run suites, sample leaves.

Exit codes: 0 on success (every suite of a plan passed), 1 when a suite of the plan
fails or raises, 2 on usage errors, invalid parameters, or suite/system incompatibility.
All commands take an explicit --seed; there are no hidden entropy sources.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .algebra import _count, rng_from, sample_unit_vectors
from .clifford import (
    MalformedSystemError,
    build_system,
    equivalence_profile,
    system_from_dict,
    system_to_dict,
    trace_invariant,
)
from .composed import BUILTIN_SPEC_NAMES, builtin_spec, composed_class, same_leaf
from .foliation import fiber_sample, pi_c
from .homogeneity import classify_homogeneity
from .verify import (
    SUITE_IDS,
    SuiteConfig,
    compatible_suites,
    default_plan,
    run_matrix,
)


def _atomic_write(path: str, text: str):
    """Write via a temp file plus rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cfl-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_system(path: str):
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise MalformedSystemError(f"{path} nests too deeply to be a system file") from None
    return system_from_dict(payload)


def _cmd_construct(args) -> int:
    system = build_system(args.m, args.k, args.flips)
    _atomic_write(args.out, _dump_json(system_to_dict(system, args.encoding)))
    print(f"wrote {args.out}: profile {equivalence_profile(system)}")
    return 0


def _run_plan(plan, out) -> int:
    """Run a plan, write its report to out if given and print its summary; 0 iff all pass."""
    reports, summary = run_matrix(plan)
    if out:
        _atomic_write(out, _dump_json({"reports": [r.to_json_dict() for r in reports],
                                       "summary": summary}))
    print(f"{summary['passed']}/{summary['total']} suites passed, "
          f"{len(summary['errors'])} errors")
    for failure in summary["failed"]:
        for check in failure["checks"]:
            print(f"  FAILED {failure['suite']}/{check['name']} on {failure['system']}: "
                  f"violation {check['violation']:.3e} (tol {check['tol']:.1e})")
    for err in summary["errors"]:
        print(f"  ERROR {err['suite']}: {err['error']}")
    return 0 if summary["passed"] == summary["total"] else 1


def _cmd_verify(args) -> int:
    system = _load_system(args.system)
    # "all" skips inapplicable suites; a named one that does not apply raises
    suites = compatible_suites(system) if args.suite == "all" else [args.suite]
    budget = {"pairs": args.pairs, "leaf_budget": args.leaf_budget}
    return _run_plan([SuiteConfig(suite, system, seed=args.seed, samples=args.samples,
                                  budget=dict(budget)) for suite in suites], args.report)


def _cmd_invariant(args) -> int:
    system = _load_system(args.system)
    print(f"profile {equivalence_profile(system)}")
    print(f"normalized trace invariant: {trace_invariant(system):.12g}")
    return 0


def _cmd_classify(args) -> int:
    a = equivalence_profile(_load_system(args.system))
    b = equivalence_profile(_load_system(args.other))
    verdict = "equivalent" if a == b else "inequivalent"
    print(f"{verdict}: {a} vs {b}")
    return 0


def _parse_disk_point(raw: str, dim: int) -> np.ndarray:
    parts = [float(p) for p in raw.split(",")]
    if len(parts) == 1 and parts[0] == 0.0:
        return np.zeros(dim)
    if len(parts) != dim:
        raise ValueError(f"expected {dim} comma-separated coordinates, got {len(parts)}")
    return np.array(parts)


def _write_csv(path, header, rows):
    """CSV to stdout when no path is given, else an atomic file write."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    if path is None:
        sys.stdout.write(buffer.getvalue())
    else:
        _atomic_write(path, buffer.getvalue())


def _cmd_fiber(args) -> int:
    _count(args.count, "--count", 0)
    system = _load_system(args.system)
    v = _parse_disk_point(args.at, system.m + 1)
    points = fiber_sample(system, v, args.count, args.seed)
    values = pi_c(system, points)
    header = [f"x{i}" for i in range(system.dim)] + [f"pi{i}" for i in range(system.m + 1)]
    rows = ([f"{c:.17g}" for c in row] + [f"{c:.17g}" for c in val]
            for row, val in zip(points, values))
    _write_csv(args.out, header, rows)
    if args.out:
        print(f"wrote {args.count} fiber samples to {args.out}")
    return 0


def _cmd_compose(args) -> int:
    _count(args.count, "--count", 0)
    _count(args.check_pairs, "--check-pairs", 0)
    system = _load_system(args.system)
    spec = builtin_spec(args.spec, system.m)
    if 2 * args.check_pairs > args.count:
        raise ValueError("--check-pairs needs at least two samples per pair")
    x = sample_unit_vectors(rng_from(args.seed), system.dim, args.count)
    radii, tails = composed_class(system, spec, x)
    rows = ([f"{r:.17g}"] + ["" if np.isnan(t) else f"{t:.17g}" for t in tail]
            for r, tail in zip(radii, tails))
    _write_csv(args.out, ["radius"] + [f"tail{i}" for i in range(tails.shape[1])], rows)
    pairs = x[:2 * args.check_pairs]
    for i, same in enumerate(same_leaf(system, spec, pairs[0::2], pairs[1::2])):
        print(f"pair {i}: same_leaf = {same}")
    if args.out:
        print(f"wrote {args.count} leaf classes to {args.out}")
    return 0


def _cmd_homogeneity(args) -> int:
    system = _load_system(args.system)
    print(classify_homogeneity(equivalence_profile(system)))
    return 0


def _cmd_report(args) -> int:
    plan = default_plan(max_dim=args.max_dim, seed=args.seed, samples=args.samples)
    if not plan:
        raise ValueError(f"--max-dim {args.max_dim} admits no system of the plan")
    return _run_plan(plan, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfl",
        description="Construct Clifford systems and verify their sphere foliations.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a system and write it to JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--flips", type=int, default=0)
    p.add_argument("--encoding", choices=["signed_perm", "dense"], default="signed_perm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run a property suite against a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--suite", default="all", choices=list(SUITE_IDS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--leaf-budget", type=int, default=1500)
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariant", help="print the trace invariant and profile")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("classify", help="compare two systems' equivalence profiles")
    p.add_argument("--system", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fiber", help="sample a fiber and emit plot-ready CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--at", required=True,
                   help="disk point as comma-separated coordinates, or 0 for the origin")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("compose", help="classify samples under a composed foliation")
    p.add_argument("--system", required=True)
    p.add_argument("--spec", required=True, choices=BUILTIN_SPEC_NAMES)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--check-pairs", type=int, default=0,
                   help="also print same-leaf verdicts for this many sample pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("homogeneity", help="print the homogeneity verdict for a system")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_homogeneity)

    p = sub.add_parser("report", help="run the default suite plan and summarize")
    p.add_argument("--max-dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # IncompatibleSuiteError and MalformedSystemError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
