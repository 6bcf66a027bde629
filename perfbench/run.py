"""Benchmark of clifford_foliations: one closed-loop caller, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload leaf_distance --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One caller issues a task, waits for its checked verdict, then issues the
next, in whole rounds of a fixed mix; ``--seconds`` sets how many rounds.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass over a fixed set of rounds.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "clifford_foliations"
RESULTS = BENCH_DIR / "results"

# One BLAS thread: the box is shared and small, and a single thread keeps
# run-to-run spread low.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402

WORKLOAD_NAMES = ("leaf_distance", "fiber_large", "suite_matrix")
SETUP_PROBES = 6
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("cpu_s_per_task", "s"), ("peak_rss_mb", "MB"))


def per_layer_names(suites) -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for module, attr, points in tracing.WRAPPED:
        name = tracing.span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if points is not None:
            out.append((f"{name}.points", "count"))
    out += [(f"{tracing.INVARIANT_MAP}.calls", "count"), (f"{tracing.INVARIANT_MAP}.self_s", "s"),
            ("composed.constraint_evals_per_estimate", "ratio")]
    for suite in suites:
        out += [(f"verify.{suite}.calls", "count"), (f"verify.{suite}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    out += [(f"{tracing.TASK}.self_s", "s"), ("bench.trace_overhead", "ratio")]
    return out


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #

# The reference box is a small VM on a shared host, and its speed drifts by
# a third within seconds and by more between runs minutes apart.  So every
# time metric is taken at a reference host speed.  A fixed LAPACK kernel, the
# probe (PROBE_REPS SVDs of a fixed PROBE_N x PROBE_N matrix, best of two),
# is timed every PROBE_EVERY_S from an interval timer, inside tasks as well as
# between them.  A task's time, less the probes inside it, is multiplied by
# PROBE_REF_S over the mean of those probes and the two around the task.
# Probing inside tasks halves the jitter of a single task's scaled time
# against probing only between tasks (per-pair CV of leaf_distance tasks
# 0.07 against 0.12).  The probe runs no library code, so a change to the
# library moves the scaled figures as it moves the raw ones.  Raw figures
# are in the record.
PROBE_N = 96
PROBE_REPS = 3
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.005  # the probe's time on the reference box at its fastest

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((PROBE_N, PROBE_N))


def probe_seconds() -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            np.linalg.svd(_PROBE_MATRIX)
        best = min(best, time.perf_counter() - start)
    return best


def setup_probe_seconds() -> float:
    """The probe's time right after a set-up: the median of three."""
    return statistics.median(probe_seconds() for _ in range(3))


class HostSpeed:
    """Probes on a SIGALRM interval timer while the context is open.

    The handler runs in the main thread between bytecodes, so a probe lies
    wholly inside a task or wholly outside it.
    """

    def __init__(self):
        self.probes = []  # (start, end, probe seconds, CPU seconds)
        self.probing = False

    def _probe(self, *_) -> None:
        if self.probing:
            return
        self.probing = True
        start, cpu = time.perf_counter(), time.process_time()
        seconds = probe_seconds()
        self.probes.append((start, time.perf_counter(), seconds, time.process_time() - cpu))
        self.probing = False

    def __enter__(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def busy(self, starts, latencies, cpu) -> tuple:
        """Each task's time and CPU time less its probes, and its scale to the reference speed."""
        probes = np.array(self.probes)
        i = np.searchsorted(probes[:, 0], starts)  # first probe inside, or after
        j = np.searchsorted(probes[:, 0], np.add(starts, latencies))  # first after
        walls, cpus, scales = [], [], []
        for a, b, wall, c in zip(i, j, latencies, cpu):
            inside = probes[a:b]
            walls.append(wall - (inside[:, 1] - inside[:, 0]).sum())
            cpus.append(c - inside[:, 3].sum())
            scales.append(PROBE_REF_S / probes[a - 1:b + 1, 2].mean())
        return walls, cpus, scales


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #

def setup(workload: str, seed: int):
    """Import the library, build the workload's systems and its first round."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE_DIR.relative_to(ROOT)} not found; "
                         "run from the root of a clifford-foliations checkout")
    sys.path.insert(0, str(SRC))
    import clifford_foliations.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, wl.round(0)


def setup_seconds(workload: str, seed: int, own: float) -> list:
    """(set-up time, probe time) of this process and of SETUP_PROBES fresh interpreters."""
    samples = [(own, setup_probe_seconds())]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", workload,
                               "--seed", str(seed)], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        own_s, probe_s = proc.stdout.split()[-2:]
        samples.append((float(own_s), float(probe_s)))
    return samples


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #

class Runner:
    """Runs tasks one at a time, times them and checks their verdicts.

    Outputs are kept by task key, so a task seen again in this process (a
    repeat inside a round, or the same round in a later pass) must reproduce
    them bit for bit.  The digest covers first outputs in task order.
    """

    def __init__(self):
        self.outputs: dict = {}
        self.latencies: list = []
        self.starts: list = []
        self.cpu: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digest = hashlib.sha256()

    def run(self, tasks, tracer=None) -> None:
        task_id = tracer.name_id(tracing.TASK) if tracer else None
        for task in tasks:
            output, reason = None, "check failed"
            if tracer:
                tracer.task = self.attempted
                tracer.enter(task_id)
            cpu_start = time.process_time()
            start = time.perf_counter()
            self.starts.append(start)
            try:
                passed, output = task.run()
            except Exception:
                passed, reason = False, traceback.format_exc(limit=3)
            finally:
                elapsed = time.perf_counter() - start
                self.cpu.append(time.process_time() - cpu_start)
                if tracer:
                    tracer.exit()
            self.latencies.append(elapsed)
            self.attempted += 1
            if output is not None:
                first = self.outputs.setdefault(task.key, output)
                if first is output:
                    self.digest.update(repr(task.key).encode())
                    self.digest.update(output)
                elif first != output:
                    passed, reason = False, "output differs from the task's first run"
            if not passed:
                self.failed += 1
                self.errors.append(f"{task.key}: {reason}")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def latency_stats(latencies: list) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1  # too few tasks: the slowest
    return {"tasks": n, "p50_s": statistics.median(ordered), "tail_s": ordered[k],
            "tail_percentile": 100.0 * (k + 1) / n, "tail_beyond": n - k - 1}


def measure(wl, first: list, seconds: float, runner: Runner) -> dict:
    """Whole rounds, as many as fill ``seconds`` at the workload's nominal pace.

    The round count depends on ``seconds`` only, so every commit measures
    the same tasks; round 0 comes from set-up.  Task and CPU times are
    scaled to the reference host speed (see HostSpeed).
    """
    rounds = max(1, int(seconds / wl.round_seconds + 0.5))
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with HostSpeed() as speed:
        runner.run(first)
        for r in range(1, rounds):
            runner.run(wl.round(r))
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    busy, busy_cpu, scales = speed.busy(runner.starts, runner.latencies, runner.cpu)
    scaled = [t * k for t, k in zip(busy, scales)]
    probe_s = [p[2] for p in speed.probes]
    return {"rounds": rounds, "wall_s": wall, "cpu_s": cpu, "task_s": sum(busy),
            "scaled_task_s": sum(scaled), "scaled_cpu_s": sum(c * k for c, k in zip(busy_cpu, scales)),
            "probes": len(probe_s), "probe_quartiles_s": statistics.quantiles(probe_s, n=4),
            "raw": latency_stats(busy), **latency_stats(scaled)}


def traced(wl, first: list, runner: Runner) -> tuple:
    """One untraced and two traced passes over the workload's trace rounds."""
    passes = []
    for p in range(3):
        rounds = [first if p == 0 and r == 0 else wl.round(r) for r in range(wl.trace_rounds)]
        tracer = tracing.Tracer() if p else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            for tasks in rounds:
                runner.run(tasks, tracer)
        finally:
            wall = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        passes.append((wall, tracer))
    return passes


def per_layer_metrics(passes, suites) -> tuple:
    (wall0, _), (wall1, tr1), (_, tr2) = passes
    values = {}
    names = {name: nid for nid, name in enumerate(tr1.names)}
    for name, _unit in per_layer_names(suites):
        base, _, field = name.rpartition(".")
        nid = names.get(base)
        if field == "calls":
            values[name] = tr1.calls[nid] if nid is not None else 0
        elif field == "points":
            values[name] = tr1.points[nid] if nid is not None else 0
        elif field == "self_s" and base in tracing.LAYERS:
            values[name] = sum(tr1.self_s[i] for n, i in names.items()
                               if n.split(".")[0] == base)
        elif field == "self_s":
            values[name] = tr1.self_s[nid] if nid is not None else 0.0
    estimates = tr1.calls[names[tracing.ESTIMATOR]]
    values["composed.constraint_evals_per_estimate"] = (
        tr1.jacobian_in_estimator / estimates if estimates else 0.0)
    values["bench.trace_overhead"] = wall1 / wall0
    mismatched = sorted(k for k, v in tr1.counters().items() if tr2.counters().get(k) != v)
    return values, mismatched


# --------------------------------------------------------------------------- #
# Run record
# --------------------------------------------------------------------------- #

def blas_info() -> dict:
    info = {"configured_threads": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "blas": blas_info(),
        "numpy": np.__version__, "python": platform.python_version(),
        "git_sha": git_sha(), "src_sha256": src_digest(),
    }


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def run_workload(args) -> dict:
    wl, first = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - _T0
    runner = Runner()
    record = run_record(args)
    if args.trace:
        passes = traced(wl, first, runner)
        from workloads import SUITES

        metrics, mismatched = per_layer_metrics(passes, SUITES)
        units = dict(per_layer_names(SUITES))
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans_{args.workload}_seed{args.seed}.npz"
        passes[1][1].save(spans)
        record.update(untraced_wall_s=passes[0][0], traced_wall_s=passes[1][0],
                      spans=str(spans.relative_to(ROOT)), counters_repeat=not mismatched,
                      counter_mismatches=mismatched[:20])
        correct = runner.failed == 0 and not mismatched
    else:
        setups = setup_seconds(args.workload, args.seed, own_setup)
        stats = measure(wl, first, args.seconds, runner)
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(own * PROBE_REF_S / probe for own, probe in setups),
            "tasks_per_s": stats["tasks"] / stats["scaled_task_s"],
            "task_p50_ms": 1e3 * stats["p50_s"],
            "task_tail_ms": 1e3 * stats["tail_s"],
            "cpu_s_per_task": stats["scaled_cpu_s"] / stats["tasks"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_samples_s=[own for own, _ in setups],
                      setup_probe_s=[probe for _, probe in setups], **stats,
                      p50_tasks=stats["tasks"], tail_tasks=stats["tasks"])
        correct = runner.failed == 0
    record.update(attempted=runner.attempted, failed=runner.failed,
                  failed_frac=runner.failed / max(1, runner.attempted),
                  output_digest=runner.digest.hexdigest(), errors=runner.errors[:20])
    for err in runner.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:48s} {value:14.6g} {units[name]}")
    print(f"{args.workload:14s} {'failed_frac':48s} {record['failed_frac']:14.6g} ratio")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so memory and set-up stay per workload."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.perf_counter() - _T0, setup_probe_seconds())
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
