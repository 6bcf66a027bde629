"""The benchmark's three workloads.

Each workload builds its systems once, then hands out rounds: lists of tasks
with a fixed mix, so a run that completes whole rounds always measures the
same proportions.  ``round_seconds`` is about a round's time at the seed
commit on a 2-core x86 box; a run does seconds / round_seconds rounds,
rounded.  A task is one checked verdict; ``Task.run`` returns
``(passed, output bytes)``.  Every task seen again in a process (a later
round repeating round 0, or a repeat at the end of a round) must match its
first output bit for bit.  Repeats are chosen so that they cost the same for
every seed where one task's cost can dominate.

Inputs come from ``numpy.random.default_rng([seed, round, ...])``; the library
receives only the generated inputs.  Library functions are called through
their modules (``composed.leaf_to_leaf_ambient_distance``) so that a tracer
that swaps module attributes sees these calls too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from clifford_foliations import clifford, composed, foliation, verify

SEED_RANGE = 2**62


@dataclass(frozen=True)
class Task:
    key: tuple
    run: Callable[[], tuple]


def _disk_point(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    v = rng.standard_normal(m + 1)
    return v / np.linalg.norm(v) * rng.uniform(lo, hi)


# --------------------------------------------------------------------------- #
# leaf_distance: the ambient leaf-distance estimator on small systems
# --------------------------------------------------------------------------- #

# Disk-quotient systems (l > m+1) with 2l = 8, 8, 16, 16, 24, 32, 32.
LEAF_SYSTEMS = ((2, 2), (1, 4), (3, 2), (5, 1), (4, 3), (6, 2), (9, 1))
# (spec, descent starts, tolerance against the cone metric), as in the
# transnormality suite.
LEAF_MIX = (("points", 64, 1e-3), ("height", 6, 1e-2))
# (9, 1) runs `height` only: its `points` estimate alone took 6 s, over half
# a round, and leaving it out makes the pair count odd (see LeafDistance).
LEAF_LEFT_OUT = (((9, 1), "points"),)
LEAF_BUDGET = 1200
NO_UNDERCUT = 1e-9
# The inputs are a fixed pool: one leaf pair per (system, spec) and one
# estimator seed per pair, all drawn from LEAF_POOL_SEED.  An estimate's cost
# is set by its inputs and varies tenfold between pairs, so inputs drawn per
# seed made a run's figures depend on the seed more than on the code
# (IQR/median of tasks_per_s 0.14 over five seeds, against 0.07 with fixed
# inputs).  The seed orders the tasks of each round.
LEAF_POOL_SEED = 0


def _leaf_task(system, spec_name, starts, tol, xa, xb, est_seed):
    spec = composed.builtin_spec(spec_name, system.m)
    d = composed.leaf_to_leaf_ambient_distance(system, spec, xa, xb, LEAF_BUDGET, est_seed,
                                               starts=starts)
    dq = composed.composed_quotient_distance(system, spec, xa, xb)
    passed = dq - d <= NO_UNDERCUT and abs(d - dq) <= tol
    return passed, np.float64(d).tobytes()


class LeafDistance:
    """The same 13 pairs in every round, in an order the seed draws.

    Each pair keeps its estimator seed in every round, so later rounds repeat
    round 0 and must match it bit for bit, and a pair's cost shows as a group
    of equal tasks, one per round.  With three rounds of an odd number of
    pairs, the median (20th of 39) and the tail (11th slowest) each fall on
    the middle task of a group, not between two groups, which keeps them
    steady against the host's jitter of about a tenth per task.
    """

    round_seconds = 10.0
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = []
        for j, (m, k) in enumerate(LEAF_SYSTEMS):
            system = clifford.build_system(m, k)
            for s, (spec_name, starts, tol) in enumerate(LEAF_MIX):
                if ((m, k), spec_name) in LEAF_LEFT_OUT:
                    continue
                rng = np.random.default_rng([LEAF_POOL_SEED, j, s, 0])
                va = _disk_point(rng, m, 0.15, 0.9)
                vb = _disk_point(rng, m, 0.15, 0.9)
                xa = foliation.fiber_sample(system, va, 1, int(rng.integers(SEED_RANGE)))[0]
                xb = foliation.fiber_sample(system, vb, 1, int(rng.integers(SEED_RANGE)))[0]
                self.pairs.append((system, spec_name, starts, tol, xa, xb))
        self.est_seeds = np.random.default_rng([LEAF_POOL_SEED, 0]).integers(
            SEED_RANGE, size=len(self.pairs))

    def round(self, r: int) -> list:
        order = np.random.default_rng([self.seed, r]).permutation(len(self.pairs))
        return [Task(("leaf", int(i)), partial(_leaf_task, *self.pairs[i], int(self.est_seeds[i])))
                for i in order]


# --------------------------------------------------------------------------- #
# fiber_large: fiber samplers on large systems
# --------------------------------------------------------------------------- #

# (m, k) and the sampler mix per round.  2l = 512 has two thirds of the tasks,
# so the median task is a 2l = 512 batch.
FIBER_SYSTEMS = (
    ((11, 2), ("interior", "boundary", "mplus")),  # 2l = 256
    ((12, 4), ("interior", "interior", "boundary", "boundary", "mplus", "mplus")),  # 2l = 512
)
# Chunk size _leaf_sample_blocks uses for specs with a leaf sampler.
FIBER_BATCH = 32
FIBER_RESIDUAL = 1e-9
FIBER_UNIT = 1e-12


def _fiber_task(system, kind, target, seed):
    if kind == "interior":
        x = foliation.fiber_sample(system, target, FIBER_BATCH, seed)
    elif kind == "boundary":
        x = foliation.boundary_fiber_sample(system, target, FIBER_BATCH, seed)
    else:
        x = foliation.mplus_sample(system, FIBER_BATCH, seed)
    passed = (x.shape == (FIBER_BATCH, system.dim)
              and float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0))) <= FIBER_UNIT)
    if passed:
        residual = float(np.max(np.abs(foliation.pi_c(system, x) - target)))
        passed = residual <= FIBER_RESIDUAL
    return passed, x.tobytes()


class FiberLarge:
    round_seconds = 1.5
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.systems = [(clifford.build_system(m, k), mix) for (m, k), mix in FIBER_SYSTEMS]

    def round(self, r: int) -> list:
        tasks = []
        for j, (system, mix) in enumerate(self.systems):
            for s, kind in enumerate(mix):
                rng = np.random.default_rng([self.seed, r, j, s])
                if kind == "interior":
                    target = _disk_point(rng, system.m, 0.1, 0.95)
                elif kind == "boundary":
                    target = _disk_point(rng, system.m, 1.0, 1.0)
                else:
                    target = np.zeros(system.m + 1)
                tasks.append(Task(("fiber", r, j, s), partial(
                    _fiber_task, system, kind, target, int(rng.integers(SEED_RANGE)))))
        # repeat the first 2l = 512 interior batch: same cost in every round
        return tasks + [tasks[len(FIBER_SYSTEMS[0][1])]]


# --------------------------------------------------------------------------- #
# suite_matrix: the default verification plan, without transnormality
# --------------------------------------------------------------------------- #

# The 16 suites of default_plan(max_dim=64) other than transnormality, which
# is the leaf_distance estimator again.  Naming them keeps the workload fixed
# if the library gains suites.
SUITES = ("relations", "disk_image", "boundary_fibers", "sphere_quotient",
          "focal_and_fibers", "submersion_rank", "factorization_m_plus_1", "geodesics",
          "quotient_metric", "symmetry", "fkm_consistency", "invariants_classification",
          "homogeneous_orbits", "normal_forms", "composed_identities", "diameter")
SUITE_MAX_DIM = 64
SUITE_REPEATS = 4


def _suite_task(config):
    report = verify.run_suite(config)
    return report.passed, json.dumps(report.to_json_dict(), indent=2, sort_keys=True).encode()


class SuiteMatrix:
    """The plan ``cfl report --max-dim 64`` runs, at its default seed.

    Every round rebuilds the plan, so per-system set-up is paid inside the
    round, and every config of a later round repeats one of round 0.  The
    seed orders the configs and picks the in-round repeats.
    """

    round_seconds = 12.5
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        plan = [c for c in verify.default_plan(max_dim=SUITE_MAX_DIM) if c.suite in SUITES]
        rng = np.random.default_rng([self.seed, r])
        tasks = [Task(("suite", int(i)), partial(_suite_task, plan[i]))
                 for i in rng.permutation(len(plan))]
        picks = rng.choice(len(tasks), size=SUITE_REPEATS, replace=False)
        return tasks + [tasks[int(i)] for i in picks]


WORKLOADS = {
    "leaf_distance": LeafDistance,
    "fiber_large": FiberLarge,
    "suite_matrix": SuiteMatrix,
}
