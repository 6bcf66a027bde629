"""Named, seeded property suites over a Clifford system.

Every desk-checkable claim of the construction is bound into one of the
suites below; each suite samples with an explicit seed, records the worst
violation per named check, and passes iff every violation is within its
pinned tolerance.  Identical configurations reproduce identical reports
bit for bit (wall time aside), and sample fan-out uses index-derived child
seeds so no ordering effect can creep in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (
    _count,
    _index,
    gaussian_rows,
    max_abs,
    rng_from,
    rng_streams,
    row_dots,
    row_norms,
    sample_unit_vectors,
    sign_fixed_q,
    sign_fixed_rotation,
)
from .clifford import (
    CliffordSystem,
    MalformedSystemError,
    build_system,
    conjugate_system,
    delta,
    equivalence_profile,
    sub_system,
    trace_invariant,
    verify_relations,
)
from .composed import (
    builtin_spec,
    composed_class,
    composed_quotient_distance,
    leaf_to_leaf_ambient_distance,
    same_leaf,
    signed_svd_triple,
)
from .foliation import (
    fiber_sample,
    fkm_f0,
    geodesic_eval,
    pi_c,
    pi_jacobian_rows,
    project_geodesic_params,
    quotient_distance,
    quotient_lift,
    random_horizontal_geodesic,
    reflect_symmetry,
    reflected_disk_point,
    rotated_disk_point,
    spin_rotate,
)
from .homogeneity import FIELD_FOR_M, diagonal_act, normal_form, sample_group_element
from .reports import CheckResult, VerificationReport

__all__ = [
    "SuiteConfig",
    "SUITE_IDS",
    "IncompatibleSuiteError",
    "run_suite",
    "run_matrix",
    "compatible_suites",
    "default_plan",
]


class IncompatibleSuiteError(ValueError):
    """The requested suite does not apply to the given system."""


# the effort knobs the suites read through SuiteConfig.knob
_BUDGET_KNOBS = ("pairs", "leaf_budget", "geodesics", "targets", "conjugations", "rotations",
                 "trials")


@dataclass
class SuiteConfig:
    """One suite invocation: which suite, on which system, how hard to push.

    ``budget`` holds per-suite effort knobs named in ``_BUDGET_KNOBS``, each
    at least 1; any other name raises ValueError.  The seed, ``samples`` and
    every knob are integers (anything else, a bool too, raises TypeError),
    ``samples`` at least 1.  The seed satisfies 0 <= seed < 2^48, so every
    seed a suite derives from it (at most seed * 20000 + i) fits in int64.
    Tolerances are pinned in the suites.
    """

    suite: str
    system: CliffordSystem
    seed: int = 0
    samples: int = 1000
    budget: dict = field(default_factory=dict)

    def __post_init__(self):
        self.seed, self.samples = _index(self.seed, "seed"), _count(self.samples, "samples", 1)
        if not 0 <= self.seed < 2**48:
            raise ValueError(f"seed must satisfy 0 <= seed < 2**48, got {self.seed}")
        for name, value in self.budget.items():
            if name not in _BUDGET_KNOBS:
                raise ValueError(f"unknown budget knob {name!r}; choose from {_BUDGET_KNOBS}")
            _count(value, name, 1)

    def knob(self, name: str, default: int) -> int:
        return int(self.budget.get(name, default))


def _unit_batch(system: CliffordSystem, seed: int, stage: int, n: int) -> np.ndarray:
    return sample_unit_vectors(rng_from(seed, stage), system.dim, n)


def _interior_grid(m: int, count: int = 10, rmax: float = 0.92) -> np.ndarray:
    """Deterministic interior disk points with radii spread over (0, rmax]."""
    pts = np.zeros((count, m + 1))
    for i in range(count):
        r = 0.08 + (rmax - 0.08) * i / max(count - 1, 1)
        a = 0.7 * (i + 1)
        d = np.zeros(m + 1)
        d[i % (m + 1)] = np.cos(a)
        d[(i + 1) % (m + 1)] = np.sin(a)
        pts[i] = r * d / row_norms(d)
    return pts


# --------------------------------------------------------------------------- #
# Suite bodies
# --------------------------------------------------------------------------- #

def _suite_relations(cfg: SuiteConfig):
    system = cfg.system
    report = verify_relations(system)
    checks = list(report.checks)
    if system.provenance is not None:
        gap = abs(system.l - system.provenance.k * delta(system.m))
        checks.append(CheckResult.from_violation(
            "dimension", "generators act on R^(2 k delta(m))", float(gap), 0.0))
    return checks


def _suite_disk_image(cfg: SuiteConfig):
    x = _unit_batch(cfg.system, cfg.seed, 0, cfg.samples)
    v = pi_c(cfg.system, x)
    radii = row_norms(v)
    even = pi_c(cfg.system, -x)
    return [
        CheckResult.from_violation(
            "disk_containment", "image of the quotient map lies in the closed unit disk",
            max(0.0, float(radii.max()) - 1.0), 1e-12),
        CheckResult.from_violation(
            "evenness", "the quotient map takes the same value at antipodes, bitwise",
            float(np.max(np.abs(v - even))), 0.0),
    ]


def _suite_boundary_fibers(cfg: SuiteConfig):
    system = cfg.system
    p = sample_unit_vectors(rng_from(cfg.seed, 0), system.m + 1, 1)[0]
    x = fiber_sample(system, p, cfg.samples, cfg.seed + 1)
    res = np.abs(pi_c(system, x) - p).max()
    res_anti = np.abs(pi_c(system, -x) - p).max()
    # p is a unit vector and P^2 = |p|^2 Id, so P is an involution: its
    # eigenvalues are +-1 and dim E_+(P) = tr((Id + P) / 2)
    dim_plus = round((system.dim + system.span_trace(p)) / 2.0)
    return [
        CheckResult.from_violation(
            "fiber_projects_to_point", "every boundary-fiber sample maps to its boundary point",
            float(max(res, res_anti)), 1e-10),
        CheckResult.from_violation(
            "eigenspace_dimension", "the positive eigenspace of a unit span element has dimension l",
            float(abs(dim_plus - system.l)), 0.0),
    ]


def _suite_sphere_quotient(cfg: SuiteConfig):
    system = cfg.system
    x = _unit_batch(system, cfg.seed, 0, cfg.samples)
    radii = row_norms(pi_c(system, x))
    targets = sample_unit_vectors(rng_from(cfg.seed, 1), system.m + 1, cfg.knob("targets", 100))
    z = fiber_sample(system, targets, 4, cfg.seed + 100 + np.arange(len(targets)))
    worst = float(np.abs(pi_c(system, z) - targets[:, None]).max(initial=0.0))
    return [
        CheckResult.from_violation(
            "image_on_boundary", "with l = m the whole sphere maps onto the boundary sphere",
            float(np.abs(radii - 1.0).max()), 1e-10),
        CheckResult.from_violation(
            "preimage_construction", "every boundary target admits explicit preimages",
            worst, 1e-10),
    ]


def _suite_focal_and_fibers(cfg: SuiteConfig):
    system = cfg.system
    xm = fiber_sample(system, np.zeros(system.m + 1), cfg.samples, cfg.seed + 1)
    focal = float(row_norms(pi_c(system, xm)).max())
    grid = _interior_grid(system.m)
    per = max(4, cfg.samples // len(grid))
    z = fiber_sample(system, grid, per, cfg.seed + 10 + np.arange(len(grid)))
    worst = float(row_norms(pi_c(system, z) - grid[:, None]).max())
    unit_err = float(np.abs(row_norms(z) - 1.0).max())
    return [
        CheckResult.from_violation(
            "focal_manifold", "focal samples map to the disk origin", focal, 1e-10),
        CheckResult.from_violation(
            "interior_fibers", "fiber samples hit a deterministic interior grid", worst, 1e-9),
        CheckResult.from_violation(
            "fiber_unit_norm", "fiber samples stay on the unit sphere", unit_err, 1e-12),
    ]


def _suite_submersion_rank(cfg: SuiteConfig):
    system = cfg.system
    m = system.m
    trials = cfg.knob("trials", min(cfg.samples, 100))
    grid = _interior_grid(m, count=5, rmax=0.88)
    per = max(1, -(-trials // len(grid)))
    seeds = cfg.seed + 20 + np.arange(len(grid))
    points = fiber_sample(system, grid, per, seeds).reshape(-1, system.dim)[:trials]
    rows = pi_jacobian_rows(system, points)
    tangency = float(np.abs(rows @ points[:, :, None]).max())
    sv = np.linalg.svd(rows, compute_uv=False)
    rel = sv / sv[:, :1]
    keep = np.sum(rel > 1e-6, axis=1)
    in_band = np.sum((rel > 1e-8) & (rel <= 1e-6), axis=1)
    rank_bad = int(np.sum((keep != m + 1) | (in_band > 0)))
    # finite differences along great circles vs. the analytic gradient rows
    h = 1e-5
    x = points[:20]
    w = rng_from(cfg.seed, 3).standard_normal(x.shape)
    w -= row_dots(w, x)[:, None] * x
    w /= row_norms(w)[:, None]
    fwd = pi_c(system, np.cos(h) * x + np.sin(h) * w)
    bwd = pi_c(system, np.cos(h) * x - np.sin(h) * w)
    fd = (fwd - bwd) / (2.0 * h)
    pred = (rows[:20] @ w[:, :, None])[..., 0]
    fd_worst = float(np.abs(fd - pred).max())
    return [
        CheckResult.from_violation(
            "jacobian_rank", "the quotient map has full rank m+1 at interior points "
            "(no singular value inside the forbidden band)", float(rank_bad), 0.0),
        CheckResult.from_violation(
            "gradient_tangency", "gradient rows are tangent to the sphere", tangency, 1e-12),
        CheckResult.from_violation(
            "finite_difference", "central differences match the analytic differential",
            fd_worst, 1e-6),
    ]


def _suite_factorization(cfg: SuiteConfig):
    system = cfg.system
    m = system.m
    k_full = system.l // delta(m + 1)
    full = build_system(m + 1, k_full, 0)
    sub = sub_system(full, range(m + 1))
    x = _unit_batch(full, cfg.seed, 0, cfg.samples)
    gap = float(np.abs(pi_c(sub, x) - pi_c(full, x)[:, : m + 1]).max())

    rng = rng_from(cfg.seed, 1)
    v = sample_unit_vectors(rng, m + 1, 1)[0] * 0.6
    c = float(np.sqrt(1.0 - v @ v))
    ends = np.array([np.append(v, c), np.append(v, -c)])
    xs, ys = fiber_sample(full, ends, 4, cfg.seed + np.array([2, 3]))
    same_sub = float(np.abs(pi_c(sub, xs) - pi_c(sub, ys)).max())
    opposite = float(np.abs(pi_c(full, xs)[:, m + 1] + pi_c(full, ys)[:, m + 1]).max())
    nontrivial = float(np.abs(pi_c(full, xs)[:, m + 1]).min())
    return [
        CheckResult.from_violation(
            "projection_factorizes", "the restricted map equals the truncated extended map, bitwise",
            gap, 0.0),
        CheckResult.from_violation(
            "disconnected_witness", "a same-fiber pair with opposite extended coordinate exists",
            max(same_sub, opposite), 1e-10),
        CheckResult.from_violation(
            "witness_nontrivial", "the witness pair has extended coordinate bounded away from zero",
            max(0.0, 0.1 - nontrivial), 0.0),
    ]


def _suite_geodesics(cfg: SuiteConfig):
    system = cfg.system
    n_geo = cfg.knob("geodesics", min(cfg.samples, 100))
    ts = np.linspace(0.0, np.pi / 2.0, 100)
    g = random_horizontal_geodesic(system, cfg.seed * 1000 + np.arange(n_geo))
    p, q = project_geodesic_params(system, g)
    curve = pi_c(system, geodesic_eval(g, ts))
    pred = -np.cos(2 * ts)[:, None, None] * p + np.sin(2 * ts)[:, None, None] * q
    res = float(np.abs(curve - pred).max())
    q_norm = float(np.max(row_norms(q))) - 1.0
    pq = float(np.max(np.abs(row_dots(p, q))))
    return [
        CheckResult.from_violation(
            "projected_geodesic", "horizontal great circles project onto disk geodesics "
            "traversed at twice the speed", res, 1e-10),
        CheckResult.from_violation(
            "q_in_disk", "the projected-geodesic parameter stays in the unit disk",
            max(0.0, q_norm), 1e-12),
        CheckResult.from_violation(
            "q_orthogonal", "the projected-geodesic parameters are orthogonal", pq, 1e-12),
    ]


def _suite_quotient_metric(cfg: SuiteConfig):
    system = cfg.system
    n_geo = cfg.knob("geodesics", min(cfg.samples, 50))
    ts = np.linspace(0.0, np.pi / 2.0, 25)
    knots = range(0, len(ts), 6)
    si, ti = np.array([(i, j) for i in knots for j in knots if i != j]).T
    g = random_horizontal_geodesic(system, cfg.seed * 2000 + np.arange(n_geo))
    curve = pi_c(system, geodesic_eval(g, ts))
    a = quotient_lift(curve[0])
    b = quotient_lift(pi_c(system, geodesic_eval(g, np.pi / 4.0)))
    pred = np.cos(2 * ts)[:, None, None] * a + np.sin(2 * ts)[:, None, None] * b
    lift_res = float(np.abs(quotient_lift(curve) - pred).max())
    frame_err = float(max(np.max(np.abs(row_norms(a) - 0.5)), np.max(np.abs(row_norms(b) - 0.5)),
                          np.max(np.abs(row_dots(a, b)))))
    d = quotient_distance(curve[si], curve[ti])
    speed_err = float(np.max(np.abs(d - np.abs(ts[si] - ts[ti])[:, None])))
    p = sample_unit_vectors(rng_from(cfg.seed, 5), system.m + 1, 8)
    anti = float(np.max(np.abs(quotient_distance(p, -p) - np.pi / 2.0)))
    self_d = float(np.max(np.abs(quotient_distance(p * 0.5, p * 0.5))))
    return [
        CheckResult.from_violation(
            "lifted_great_circle", "projected geodesics lift to great circles of the "
            "radius-1/2 hemisphere", lift_res, 1e-9),
        CheckResult.from_violation(
            "lift_frame", "the lifted circle frame is orthogonal of radius 1/2", frame_err, 1e-9),
        CheckResult.from_violation(
            "unit_speed", "projected geodesics are unit speed for the disk metric",
            speed_err, 1e-8),
        CheckResult.from_violation(
            "antipodal_boundary", "antipodal boundary points sit at distance pi/2", anti, 1e-12),
        CheckResult.from_violation(
            "self_distance", "the distance of a point to itself vanishes", self_d, 1e-7),
    ]


def _suite_symmetry(cfg: SuiteConfig):
    system = cfg.system
    trials = cfg.samples
    frames = max(1, min(25, trials // 20))
    per = max(1, trials // frames)
    rngs = rng_streams(cfg.seed, 100 + np.arange(frames))
    p, q = np.swapaxes(sample_unit_vectors(rngs, system.m + 1, 2), 0, 1).copy()
    theta = np.array([rng.uniform(0.05, np.pi - 0.05) for rng in rngs])
    x = sample_unit_vectors(rngs, system.dim, per)
    q -= row_dots(q, p)[:, None] * p
    q /= row_norms(q)[:, None]
    v = pi_c(system, x)
    refl = max_abs(pi_c(system, reflect_symmetry(system, p, x))
                   - reflected_disk_point(v, p[:, None]))
    spin = max_abs(pi_c(system, spin_rotate(system, p, q, theta, x))
                   - rotated_disk_point(v, p[:, None], q[:, None], theta[:, None, None]))
    half_turn = max_abs(pi_c(system, spin_rotate(system, p, q, np.pi, x)) - v)
    e = np.eye(system.m + 1)
    ident = max_abs(spin_rotate(system, e[0], e[1], 0.0, x) - x)
    return [
        CheckResult.from_violation(
            "reflection", "boundary elements act as disk reflections through their axis",
            refl, 1e-10),
        CheckResult.from_violation(
            "spin_rotation", "the one-parameter symmetry rotates the disk by twice its angle",
            spin, 1e-9),
        CheckResult.from_violation(
            "spin_half_turn", "angle pi gives a full disk turn", half_turn, 1e-9),
        CheckResult.from_violation(
            "spin_identity", "angle zero acts as the identity", ident, 0.0),
    ]


def _suite_fkm_consistency(cfg: SuiteConfig):
    system = cfg.system
    x = _unit_batch(system, cfg.seed, 0, cfg.samples)
    direct, factored = fkm_f0(system, x)
    checks = [CheckResult.from_violation(
        "two_evaluations", "the quartic form equals its factorization through the quotient map",
        float(np.abs(direct - factored).max()), 1e-12)]
    p = sample_unit_vectors(rng_from(cfg.seed, 1), system.m + 1, 1)[0]
    xb = fiber_sample(system, p, 64, cfg.seed + 2)
    checks.append(CheckResult.from_violation(
        "boundary_value", "the form equals -1 on boundary fibers",
        float(np.abs(fkm_f0(system, xb)[0] + 1.0).max()), 1e-10))
    if system.l >= system.m + 1:
        xm = fiber_sample(system, np.zeros(system.m + 1), 64, cfg.seed + 3)
        checks.append(CheckResult.from_violation(
            "focal_value", "the form equals +1 on the focal manifold",
            float(np.abs(fkm_f0(system, xm)[0] - 1.0).max()), 1e-10))
    if system.l > system.m + 1:
        v = 0.5 * p
        xr = fiber_sample(system, v, 64, cfg.seed + 4)
        checks.append(CheckResult.from_violation(
            "half_radius_value", "the form equals 1/2 on fibers at radius 1/2",
            float(np.abs(fkm_f0(system, xr)[0] - 0.5).max()), 1e-10))
    return checks


def _suite_invariants_classification(cfg: SuiteConfig):
    system = cfg.system
    prof = equivalence_profile(system)
    m, k = prof.m, prof.k
    checks = []
    if (m, k) != (1, 1):
        kappa_gap = 0.0
        zeros = 0.0
        values = set()
        for j in range(k + 1):
            variant = build_system(m, k, j)
            t = trace_invariant(variant)
            if m % 4 == 0:
                kappa_gap = max(kappa_gap, abs(t - abs(k - 2 * j)))
                values.add(int(round(t)))
            else:
                zeros = max(zeros, abs(t))
        if m % 4 == 0:
            checks.append(CheckResult.from_violation(
                "trace_values", "the flip count sets the normalized trace to |k - 2j|",
                kappa_gap, 1e-12))
            checks.append(CheckResult.from_violation(
                "class_count", "flips realize floor(k/2)+1 distinct classes",
                float(abs(len(values) - (k // 2 + 1))), 0.0))
        else:
            checks.append(CheckResult.from_violation(
                "trace_vanishes", "off the multiples of four the generator product is traceless",
                zeros, 1e-12))
    base_t = trace_invariant(system)
    drift = mismatch = 0.0
    rngs = rng_streams(cfg.seed, 200 + np.arange(cfg.knob("conjugations", 10)))
    for a in sign_fixed_q(gaussian_rows(rngs, (system.dim, system.dim))):
        conj = conjugate_system(system, a)
        drift = max(drift, abs(trace_invariant(conj) - base_t))
        cp = equivalence_profile(conj)
        mismatch = max(mismatch, float(cp.as_tuple() != prof.as_tuple()))
        rel = verify_relations(conj)
        mismatch = max(mismatch, 0.0 if rel.passed else 1.0)
    checks.append(CheckResult.from_violation(
        "conjugation_invariance", "the profile survives orthogonal conjugation", drift, 1e-9))
    checks.append(CheckResult.from_violation(
        "conjugation_exactness", "conjugated systems keep relations and profile",
        mismatch, 0.0))
    rng = rng_from(cfg.seed, 7)
    pq = rng.standard_normal((50, 2, system.m + 1))
    x = sample_unit_vectors(rng, system.dim, 50)[:, None]
    px = system.span_apply(pq[:, 0], x)[:, 0]
    qx = system.span_apply(pq[:, 1], x)[:, 0]
    iso = float(np.max(np.abs(row_dots(px, qx) - row_dots(pq[:, 0], pq[:, 1]))))
    checks.append(CheckResult.from_violation(
        "span_isometry", "span elements multiply like their coordinates on every unit vector",
        iso, 1e-12))
    return checks


def _orbit_requirements(system: CliffordSystem) -> Optional[str]:
    if system.m not in FIELD_FOR_M:
        return "explicit group actions exist only for rank 2, 3, or 5 systems"
    if system.provenance is None or system.provenance.flips:
        return "requires an unflipped system in the standard constructed layout"
    return None


def _suite_homogeneous_orbits(cfg: SuiteConfig):
    system = cfg.system
    field_tag = FIELD_FOR_M[system.m]
    k = system.provenance.k
    g = sample_group_element(field_tag, k, cfg.seed * 10000 + np.arange(cfg.samples))
    mat = g.action_matrix()
    ortho = max_abs(np.swapaxes(mat, -1, -2) @ mat - np.eye(mat.shape[-1]))
    rngs = rng_streams(cfg.seed, 300 + np.arange(cfg.samples))
    x = sample_unit_vectors(rngs, system.dim, 1)[:, 0]
    gx = diagonal_act(g, x)
    invariance = float(np.abs(pi_c(system, gx) - pi_c(system, x)).max())
    g1 = sample_group_element(field_tag, k, cfg.seed + 1)
    g2 = sample_group_element(field_tag, k, cfg.seed + 1)
    det = float(np.abs(g1.entries - g2.entries).max())
    return [
        CheckResult.from_violation(
            "orbit_in_fiber", "the diagonal group action preserves the quotient map",
            invariance, 1e-10),
        CheckResult.from_violation(
            "group_orthogonality", "sampled group elements are orthogonal in the real representation",
            ortho, 1e-12),
        CheckResult.from_violation(
            "sampling_determinism", "equal seeds give bit-identical group elements", det, 0.0),
    ]


def _suite_normal_forms(cfg: SuiteConfig):
    system = cfg.system
    field_tag = FIELD_FOR_M[system.m]
    k = system.provenance.k
    n = cfg.samples
    pairs = max(1, n // 2)
    xs = sample_unit_vectors(rng_streams(cfg.seed, 400 + np.arange(pairs)), system.dim, 1)[:, 0]
    gxs = diagonal_act(sample_group_element(field_tag, k, cfg.seed * 20000 + np.arange(pairs)), xs)
    orbit = float(np.abs(normal_form(xs, field_tag).as_array()
                         - normal_form(gxs, field_tag).as_array()).max())

    per = max(4, n // 100)
    if system.l > system.m + 1:
        rng = rng_from(cfg.seed, 401)
        v = sample_unit_vectors(rng, system.m + 1, 1)[0] * 0.55
        batches = [fiber_sample(system, v, max(8, n // 50), cfg.seed + 5)]
    elif system.l == system.m + 1:
        # disconnected-fiber case: the focal manifold and the fiber over e_0
        batches = list(fiber_sample(system, np.eye(2, system.m + 1, -1), per,
                                    cfg.seed + np.array([5, 6])))
    else:
        # sphere quotient: only boundary fibers exist
        p = sample_unit_vectors(rng_from(cfg.seed, 404), system.m + 1, 2)
        batches = list(fiber_sample(system, p, per, cfg.seed + np.array([5, 6])))
    forms = [normal_form(batch, field_tag).as_array() for batch in batches]
    same_fiber = max(float(np.abs(bn - bn[0]).max()) for bn in forms)
    pis = pi_c(system, np.concatenate(batches))

    x = _unit_batch(system, cfg.seed, 402, n)
    pool_pi = np.concatenate([pi_c(system, x), pis])
    pool_nf = np.concatenate([normal_form(x, field_tag).as_array()] + forms)
    rng = rng_from(cfg.seed, 403)
    i, j = rng.integers(0, len(pool_pi), size=(n, 2)).T
    pi_close = np.abs(pool_pi[i] - pool_pi[j]).max(axis=1) <= 1e-8
    nf_close = np.abs(pool_nf[i] - pool_nf[j]).max(axis=1) <= 1e-9
    mismatches = int(np.sum(pi_close != nf_close))
    return [
        CheckResult.from_violation(
            "orbit_constancy", "normal forms are constant along group orbits", orbit, 1e-9),
        CheckResult.from_violation(
            "fiber_constancy", "normal forms are constant along fibers", same_fiber, 1e-9),
        CheckResult.from_violation(
            "form_determines_fiber", "equal normal forms and equal quotient values coincide",
            float(mismatches), 0.0),
    ]


def _suite_composed_identities(cfg: SuiteConfig):
    system = cfg.system
    m = system.m
    pts = builtin_spec("points", m)
    one = builtin_spec("one_leaf", m)
    n_pairs = max(8, cfg.samples // 4)
    rng = rng_from(cfg.seed, 500)
    v = sample_unit_vectors(rng, m + 1, 2 * n_pairs).reshape(n_pairs, 2, m + 1)
    r, r2 = rng.uniform(0.15, 0.9, (2, n_pairs))
    has_c = np.abs(r2 - r) > 1e-6
    seeds = cfg.seed * 3000 + np.arange(n_pairs)
    a = fiber_sample(system, r[:, None] * v[:, 0], 2, seeds)
    a0, a1 = a[:, 0], a[:, 1]
    b = fiber_sample(system, r[:, None] * v[:, 1], 1, seeds + 1000)[:, 0]
    c = fiber_sample(system, (r2[:, None] * v[:, 1])[has_c], 1, (seeds + 2000)[has_c])[:, 0]
    # same fiber -> same leaf for every spec; same radius only for one_leaf
    wrong = int(np.sum(~same_leaf(system, pts, a0, a1)) + np.sum(~same_leaf(system, pts, a0, -a0))
                + np.sum(same_leaf(system, pts, a0, b)) + np.sum(~same_leaf(system, one, a0, b))
                + np.sum(same_leaf(system, one, a0[has_c], c)))
    radius_law = float(np.max(np.abs(fkm_f0(system, a0)[0] - fkm_f0(system, b)[0])))
    xm = fiber_sample(system, np.zeros(m + 1), 4, cfg.seed + 7)
    cls = composed_class(system, pts, xm[0])
    origin_ok = cls.tail is None and cls.radius <= 1e-10
    x = _unit_batch(system, cfg.seed, 501, 64)
    d1 = composed_quotient_distance(system, pts, x[0::2], x[1::2])
    d2 = quotient_distance(pi_c(system, x[0::2]), pi_c(system, x[1::2]))
    dist_identity = float(np.max(np.abs(d1 - d2)))
    p0 = np.eye(m + 1)[0]
    xb = fiber_sample(system, p0, 1, cfg.seed + 8)[0]
    apex = abs(composed_quotient_distance(system, one, xm[0], xb) - np.pi / 4.0)
    return [
        CheckResult.from_violation(
            "membership_identities", "point leaves reproduce the fibers and the one-leaf "
            "spec reproduces the level sets", float(wrong), 0.0),
        CheckResult.from_violation(
            "equal_radius_law", "points of one composed leaf share the quartic value",
            radius_law, 2e-9),
        CheckResult.from_violation(
            "origin_class", "the focal manifold forms a single tailless class",
            0.0 if origin_ok else 1.0, 0.0),
        CheckResult.from_violation(
            "points_distance_identity", "the cone metric collapses to the disk metric for "
            "point leaves", dist_identity, 1e-9),
        CheckResult.from_violation(
            "apex_to_boundary", "focal-to-boundary classes sit at distance pi/4", apex, 1e-7),
    ]


def _suite_transnormality(cfg: SuiteConfig):
    system = cfg.system
    m = system.m
    pts = builtin_spec("points", m)
    hgt = builtin_spec("height", m)
    pairs = cfg.knob("pairs", 8)
    leaf_budget = cfg.knob("leaf_budget", 1500)
    worst_points = worst_height = undercut = 0.0
    rngs = rng_streams(cfg.seed, 600 + np.arange(pairs))
    va, vb = np.empty((2, pairs, m + 1))
    for v in (va, vb):  # each pair's stream draws a direction, then a radius, for each end
        v[:] = sample_unit_vectors(rngs, m + 1, 1)[:, 0]
        v *= np.array([rng.uniform(0.15, 0.9) for rng in rngs])[:, None]
    seeds = cfg.seed * 4000 + np.arange(pairs)
    xas = fiber_sample(system, va, 1, seeds)[:, 0]
    xbs = fiber_sample(system, vb, 1, seeds + 2000)[:, 0]
    dqs = composed_quotient_distance(system, pts, xas, xbs)
    dqhs = composed_quotient_distance(system, hgt, xas, xbs)
    for i, (xa, xb, dq, dqh) in enumerate(zip(xas, xbs, dqs, dqhs)):
        # the 1e-3 route sweeps every descent start: thin global basins on
        # high-dimensional fibers are not reliably caught by a few starts
        da = leaf_to_leaf_ambient_distance(system, pts, xa, xb, leaf_budget,
                                           cfg.seed * 5000 + i, starts=64)
        worst_points = max(worst_points, abs(da - dq))
        undercut = max(undercut, dq - da)
        dah = leaf_to_leaf_ambient_distance(system, hgt, xa, xb, leaf_budget,
                                            cfg.seed * 5000 + 3000 + i, starts=6)
        worst_height = max(worst_height, abs(dah - dqh))
        undercut = max(undercut, dqh - dah)
    rng = rng_from(cfg.seed, 601)
    v = sample_unit_vectors(rng, m + 1, 1)[0] * 0.5
    zz = fiber_sample(system, v, 2, cfg.seed + 9)
    zero = leaf_to_leaf_ambient_distance(system, pts, zz[0], zz[1],
                                         max(leaf_budget, 1000), cfg.seed + 10, starts=6)
    p = np.eye(m + 1)[0]
    bx, by = fiber_sample(system, [p, -p], 1, cfg.seed + np.array([11, 12]))[:, 0]
    perp = abs(leaf_to_leaf_ambient_distance(system, pts, bx, by, 64, cfg.seed + 13)
               - np.pi / 2.0)
    return [
        CheckResult.from_violation(
            "fiber_equidistance", "ambient fiber distances match the disk metric",
            worst_points, 1e-3),
        CheckResult.from_violation(
            "composed_equidistance", "ambient composed-leaf distances match the cone metric",
            worst_height, 1e-2),
        CheckResult.from_violation(
            "no_undercut", "ambient estimates never fall below the quotient lower bound",
            max(0.0, undercut), 1e-9),
        CheckResult.from_violation(
            "same_leaf_zero", "a leaf has distance zero to itself", zero, 1e-6),
        CheckResult.from_violation(
            "perpendicular_boundary_fibers", "opposite boundary fibers sit at distance pi/2",
            perp, 1e-3),
    ]


def _suite_diameter(cfg: SuiteConfig):
    system = cfg.system
    ten = builtin_spec("tensor_svd", system.m)
    rng = rng_from(cfg.seed, 700)
    pools = []
    if system.l > system.m + 1:
        # M+ and the fiber over e_0
        pools.extend(fiber_sample(system, np.eye(2, system.m + 1, -1), 60,
                                  cfg.seed + np.array([14, 15])))
    pools.append(sample_unit_vectors(rng, system.dim, 180))
    pool = np.concatenate(pools)
    n_pairs = cfg.samples
    idx = rng_from(cfg.seed, 701).integers(0, len(pool), size=(n_pairs, 2))
    sup = float(np.max(composed_quotient_distance(system, ten, pool[idx[:, 0]], pool[idx[:, 1]])))
    checks = [CheckResult.from_violation(
        "diameter_upper", "the composed quotient has diameter at most pi/4",
        max(0.0, sup - np.pi / 4.0), 1e-6)]
    if system.l > system.m + 1:
        checks.append(CheckResult.from_violation(
            "diameter_attained", "sampled pairs come within 0.05 of the diameter pi/4",
            max(0.0, (np.pi / 4.0 - 0.05) - sup), 0.0))

    # the tensor spec's invariant, which depends on no system: checked once per m = 8 system,
    # on blocks of 100 images U M W^T of one random matrix M each, for Haar U and W drawn
    # here, apart from the spec
    rngr = rng_from(cfg.seed, 502)
    rotations = cfg.knob("rotations", 1000)
    pmat = rngr.standard_normal((-(-rotations // 100), 9))
    pmat = np.repeat(pmat / row_norms(pmat)[:, None], 100, axis=0)[:rotations]
    uw = sign_fixed_rotation(rngr.standard_normal((rotations, 2, 3, 3)))
    orbit = uw[:, 0] @ pmat.reshape(-1, 3, 3) @ np.swapaxes(uw[:, 1], -1, -2)
    rot = max_abs(signed_svd_triple(orbit) - signed_svd_triple(pmat))
    checks.append(CheckResult.from_violation(
        "tensor_invariance", "the signed singular triple is constant on rotate-both-sides "
        "orbits", rot, 1e-10))
    return checks


# --------------------------------------------------------------------------- #
# Registry and runners
# --------------------------------------------------------------------------- #

def _needs_interior(system: CliffordSystem) -> Optional[str]:
    if system.l <= system.m + 1:
        return "requires a disk quotient (l > m+1)"
    return None


@dataclass
class _SuiteDef:
    runner: Callable
    requires: Callable[[CliffordSystem], Optional[str]]


_SUITES = {
    "relations": _SuiteDef(_suite_relations, lambda s: None),
    "disk_image": _SuiteDef(_suite_disk_image, lambda s: None),
    "boundary_fibers": _SuiteDef(_suite_boundary_fibers, lambda s: None),
    "sphere_quotient": _SuiteDef(
        _suite_sphere_quotient,
        lambda s: None if s.l == s.m else "requires a sphere quotient (l = m)"),
    "focal_and_fibers": _SuiteDef(_suite_focal_and_fibers, _needs_interior),
    "submersion_rank": _SuiteDef(_suite_submersion_rank, _needs_interior),
    "factorization_m_plus_1": _SuiteDef(
        _suite_factorization,
        lambda s: None if s.l == s.m + 1 else "requires the disconnected-fiber case (l = m+1)"),
    "geodesics": _SuiteDef(_suite_geodesics, lambda s: None),
    "quotient_metric": _SuiteDef(_suite_quotient_metric, lambda s: None),
    "symmetry": _SuiteDef(_suite_symmetry, lambda s: None),
    "fkm_consistency": _SuiteDef(_suite_fkm_consistency, lambda s: None),
    "invariants_classification": _SuiteDef(_suite_invariants_classification, lambda s: None),
    "homogeneous_orbits": _SuiteDef(_suite_homogeneous_orbits, _orbit_requirements),
    "normal_forms": _SuiteDef(_suite_normal_forms, _orbit_requirements),
    "composed_identities": _SuiteDef(_suite_composed_identities, _needs_interior),
    "transnormality": _SuiteDef(_suite_transnormality, _needs_interior),
    "diameter": _SuiteDef(
        _suite_diameter,
        lambda s: None if s.m == 8 else "the tensor foliation lives on the 8-sphere"),
}

SUITE_IDS = tuple(_SUITES)


def compatible_suites(system: CliffordSystem) -> list:
    """The suites whose requirements the system meets, in SUITE_IDS order."""
    return [suite for suite, sdef in _SUITES.items() if sdef.requires(system) is None]


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run one suite; raises IncompatibleSuiteError when it does not apply."""
    if config.suite not in _SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; choose from {SUITE_IDS}")
    suite = _SUITES[config.suite]
    reason = suite.requires(config.system)
    if reason is not None:
        raise IncompatibleSuiteError(f"suite {config.suite!r}: {reason}")
    started = time.perf_counter()
    checks = suite.runner(config)
    elapsed = time.perf_counter() - started
    try:
        profile = equivalence_profile(config.system).to_json_dict()
    except MalformedSystemError:
        profile = None
    return VerificationReport.from_checks(config.suite, config.seed, config.samples,
                                          checks, elapsed, profile)


def run_matrix(plan):
    """Run a list of SuiteConfigs, isolating failures and incompatibilities.

    Returns (reports, summary); errors never abort sibling configs.
    """
    reports = []
    summary = {"total": 0, "passed": 0, "failed": [], "errors": []}
    for config in plan:
        label = {"suite": config.suite, "seed": config.seed}
        try:
            label["system"] = equivalence_profile(config.system).to_json_dict()
        except Exception:
            label["system"] = None
        summary["total"] += 1
        try:
            report = run_suite(config)
        except Exception as exc:
            summary["errors"].append({**label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        reports.append(report)
        if report.passed:
            summary["passed"] += 1
        else:
            summary["failed"].append({
                **label,
                "checks": [c.to_json_dict() for c in report.checks if not c.passed],
            })
    return reports, summary


def default_plan(max_dim: int = 64, seed: int = 7, samples: int = 300):
    """Every compatible suite on build_system(m, k) for m <= 12, k <= 4 and 2l <= max_dim.

    (1, 1), flipped classes and k > 4 are left out: at max_dim 64 the plan
    covers 34 systems and 416 configs, 34 of the 102 classes with 2l <= 64.
    """
    max_dim = _count(max_dim, "max_dim", 1)
    plan = []
    budget = {"pairs": 4, "leaf_budget": 1200, "geodesics": 20, "targets": 25,
              "conjugations": 5, "rotations": 200, "trials": 40}
    for m in range(1, 13):
        for k in range(1, 5):
            if (m, k) == (1, 1) or 2 * k * delta(m) > max_dim:
                continue
            system = build_system(m, k)
            for suite in compatible_suites(system):
                n = samples
                if suite in ("homogeneous_orbits", "normal_forms"):
                    n = min(samples, 120)
                plan.append(SuiteConfig(suite, system, seed=seed, samples=n,
                                        budget=dict(budget)))
    return plan
