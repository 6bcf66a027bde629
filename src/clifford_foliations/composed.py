"""Composed foliations: boundary-sphere foliations pulled back through pi_C.

A foliation F0 of the boundary sphere S_C is described here by an invariant
map iota whose fibers are its leaves.  F0 extends homothetically to the disk
(the leaf through t*P is t times the leaf through P), and pulling the
extended leaves back through pi_C partitions the ambient sphere.  A point's
class is therefore the pair (radius of pi_C, invariant of the direction);
the origin class, the focal manifold, is a single leaf with no direction.

The quotient of the composed foliation is a metric cone over the F0 leaf
space, scaled by one half; :func:`composed_quotient_distance` is that join
metric.  :func:`leaf_to_leaf_ambient_distance` estimates ambient leaf
distances directly (sampling plus projected ascent on the leaf), which is the
instrument used to cross-check that leaves really are equidistant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import haar_rotation, rng_from, sample_unit_vectors
from .clifford import CliffordSystem
from .foliation import (
    boundary_fiber_sample,
    fiber_sample,
    mplus_sample,
    pi_c,
    pi_jacobian_rows,
    quotient_distance,
)

__all__ = [
    "FoliationSpec",
    "builtin_spec",
    "BUILTIN_SPEC_NAMES",
    "signed_svd_triple",
    "tensor_orbit_distance",
    "ComposedClass",
    "composed_class",
    "same_leaf",
    "composed_quotient_distance",
    "leaf_to_leaf_ambient_distance",
]

_ORIGIN_TOL = 1e-10
_BOUNDARY_TOL = 1e-9
_SAME_LEAF_TOL = 1e-9

BUILTIN_SPEC_NAMES = ("points", "one_leaf", "height", "tensor_svd")


@dataclass
class FoliationSpec:
    """A boundary-sphere foliation given by a leaf-separating invariant map.

    ``invariant_map`` eats a unit vector of R^(m+1) and returns a finite
    vector constant exactly on leaves.  ``quotient_distance``, when present,
    is the metric of the leaf space on pairs of unit vectors (needed by the
    cone metric).  ``leaf_sampler``, when present, draws a uniform-ish point
    of the leaf through a given unit vector; the ambient distance estimator
    falls back to single-direction fibers without it.  ``leaves_are_fibers``
    marks the trivial by-points foliation, whose composed leaves are plain
    fibers and can be constrained directly.  ``invariant_jacobian``, when
    present, is the Jacobian of v -> invariant_map(v / |v|) at nonzero v,
    along the last axis: a batch (S, m+1) maps to (S, t, m+1) for a
    t-component invariant.  The ambient distance estimator chains it into
    its leaf constraints; without it, central differences of
    ``invariant_map`` (2(m+1) extra calls per point) stand in.
    """

    name: str
    ambient_dim: int
    invariant_map: Callable[[np.ndarray], np.ndarray]
    quotient_distance: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    leaf_sampler: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    leaves_are_fibers: bool = False
    invariant_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def signed_svd_triple(mat: np.ndarray) -> np.ndarray:
    """Ordered singular values of a 3x3 matrix with det sign on the smallest.

    (s1 >= s2 >= |s3|, sign(s3) = sign(det)); constant on orbits of the
    rotate-both-sides action M -> U M V^T, U, V in SO(3).
    """
    mat = np.asarray(mat, dtype=float).reshape(3, 3)
    s = np.linalg.svd(mat, compute_uv=False)
    tau = s.copy()
    if np.linalg.det(mat) < 0:
        tau[2] = -tau[2]
    return tau


def tensor_orbit_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spherical distance between the rotate-both-sides orbits of two unit 3x3 matrices.

    arccos of the inner product of the signed singular triples, which is the
    minimum of arccos <a, U b V^T> over U, V in SO(3).
    """
    ta = signed_svd_triple(a)
    tb = signed_svd_triple(b)
    return float(np.arccos(np.clip(ta @ tb, -1.0, 1.0)))


def builtin_spec(name: str, m: int, pole: Optional[np.ndarray] = None) -> FoliationSpec:
    """Built-in boundary foliations on the m-sphere in R^(m+1).

    points    -- leaves are points (identity invariant); composition returns
                 the plain Clifford foliation.
    one_leaf  -- one big leaf (constant invariant); composition gives the
                 codimension-1 isoparametric family.
    height    -- distance spheres around a pole p0 (invariant <P, p0>).
    tensor_svd-- m = 8 only: orbits of the rotate-both-sides action on unit
                 3x3 matrices, separated by the signed singular triple.
    """
    dim = m + 1
    if name == "points":
        # leaves are single fibers: no direction sampling needed
        return FoliationSpec(
            "points", dim,
            invariant_map=lambda v: np.asarray(v, dtype=float),
            quotient_distance=lambda u, v: float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0))),
            leaves_are_fibers=True,
        )
    if name == "one_leaf":
        return FoliationSpec(
            "one_leaf", dim,
            invariant_map=lambda v: np.zeros(1),
            quotient_distance=lambda u, v: 0.0,
            leaf_sampler=lambda v, rng: sample_unit_vectors(rng, dim, 1)[0],
            invariant_jacobian=lambda v: np.zeros(np.shape(v)[:-1] + (1, dim)),
        )
    if name == "height":
        p0 = np.zeros(dim) if pole is None else np.asarray(pole, dtype=float)
        if pole is None:
            p0[0] = 1.0
        p0 = p0 / np.linalg.norm(p0)

        def sample_leaf(v, rng):
            c = float(np.clip(np.dot(v, p0), -1.0, 1.0))
            q = sample_unit_vectors(rng, dim, 1)[0]
            q -= np.dot(q, p0) * p0
            nq = np.linalg.norm(q)
            if nq < 1e-12:
                return c * p0
            return c * p0 + np.sqrt(max(0.0, 1.0 - c * c)) * (q / nq)

        def height_jacobian(v):
            # d<v/|v|, p0>/dv = (p0 - <v^, p0> v^) / |v|
            r = np.linalg.norm(v, axis=-1, keepdims=True)
            vhat = v / r
            return ((p0 - np.sum(vhat * p0, axis=-1, keepdims=True) * vhat) / r)[..., None, :]

        return FoliationSpec(
            "height", dim,
            invariant_map=lambda v: np.array([np.dot(v, p0)]),
            quotient_distance=lambda u, v: float(abs(
                np.arccos(np.clip(np.dot(u, p0), -1.0, 1.0))
                - np.arccos(np.clip(np.dot(v, p0), -1.0, 1.0)))),
            leaf_sampler=sample_leaf,
            invariant_jacobian=height_jacobian,
        )
    if name == "tensor_svd":
        if m != 8:
            raise ValueError("tensor_svd lives on the 8-sphere of unit 3x3 matrices")

        def sample_leaf(v, rng):
            mat = np.asarray(v, dtype=float).reshape(3, 3)
            u = haar_rotation(rng, 3)
            w = haar_rotation(rng, 3)
            return (u @ mat @ w.T).ravel()

        return FoliationSpec(
            "tensor_svd", dim,
            invariant_map=lambda v: signed_svd_triple(v),
            quotient_distance=tensor_orbit_distance,
            leaf_sampler=sample_leaf,
        )
    raise ValueError(f"unknown foliation spec {name!r}; choose from {BUILTIN_SPEC_NAMES}")


# --------------------------------------------------------------------------- #
# Leaf classes and membership
# --------------------------------------------------------------------------- #

@dataclass
class ComposedClass:
    """Leaf label of a point: quotient radius plus direction invariant.

    ``tail`` is absent at the origin class (the focal manifold is one leaf).
    """

    radius: float
    tail: Optional[np.ndarray]


def _check_spec(system: CliffordSystem, spec: FoliationSpec):
    if spec.ambient_dim != system.m + 1:
        raise ValueError(f"spec {spec.name!r} lives on R^{spec.ambient_dim}, "
                         f"system quotient is R^{system.m + 1}")


def composed_class(system: CliffordSystem, spec: FoliationSpec, x: np.ndarray) -> ComposedClass:
    _check_spec(system, spec)
    v = pi_c(system, x)
    r = float(np.linalg.norm(v))
    if r <= _ORIGIN_TOL:
        return ComposedClass(r, None)
    return ComposedClass(r, np.asarray(spec.invariant_map(v / r), dtype=float))


def same_leaf(system: CliffordSystem, spec: FoliationSpec, x: np.ndarray, y: np.ndarray) -> bool:
    """True iff x and y belong to the same composed leaf, up to 1e-9."""
    cx = composed_class(system, spec, x)
    cy = composed_class(system, spec, y)
    if abs(cx.radius - cy.radius) > _SAME_LEAF_TOL:
        return False
    if cx.radius <= _SAME_LEAF_TOL and cy.radius <= _SAME_LEAF_TOL:
        return True
    if cx.tail is None or cy.tail is None:
        return False
    return float(np.max(np.abs(cx.tail - cy.tail))) <= _SAME_LEAF_TOL


def composed_quotient_distance(system: CliffordSystem, spec: FoliationSpec,
                               x: np.ndarray, y: np.ndarray) -> float:
    """Distance between the composed classes of x and y (half the cone/join metric).

    With cone angles s = arcsin |pi_C| and the leaf-space distance delta of
    the directions: (1/2) arccos(cos s cos s' + sin s sin s' cos min(delta, pi)).
    """
    _check_spec(system, spec)
    if spec.quotient_distance is None:
        raise ValueError(f"spec {spec.name!r} carries no leaf-space metric")
    vx = pi_c(system, x)
    vy = pi_c(system, y)
    rx = min(1.0, float(np.linalg.norm(vx)))
    ry = min(1.0, float(np.linalg.norm(vy)))
    s, sp = np.arcsin(rx), np.arcsin(ry)
    if rx <= _ORIGIN_TOL or ry <= _ORIGIN_TOL:
        delta = 0.0
    else:
        delta = min(float(spec.quotient_distance(vx / rx, vy / ry)), np.pi)
    c = np.clip(np.cos(s) * np.cos(sp) + np.sin(s) * np.sin(sp) * np.cos(delta), -1.0, 1.0)
    return 0.5 * float(np.arccos(c))


# --------------------------------------------------------------------------- #
# Ambient leaf distance
# --------------------------------------------------------------------------- #

def _leaf_sample_blocks(system: CliffordSystem, spec: FoliationSpec, v: np.ndarray,
                        budget: int, rng: np.random.Generator):
    """Samples of the composed leaf through the disk class of v, in fixed chunks.

    One rng stream and a spec-fixed chunk size keep the sample sequence a
    prefix of any larger budget's sequence.  Specs without a leaf sampler
    have single-fiber leaves, so their chunks can be large.
    """
    r = float(np.linalg.norm(v))
    chunk = 32 if spec.leaf_sampler is not None else 256
    out = []
    drawn = 0
    if r <= _ORIGIN_TOL:
        while drawn < budget:
            n = min(256, budget - drawn)
            out.append(mplus_sample(system, n, int(rng.integers(2**62))))
            drawn += n
        return np.concatenate(out, axis=0)
    vhat = v / r
    while drawn < budget:
        n = min(chunk, budget - drawn)
        direction = vhat if spec.leaf_sampler is None else spec.leaf_sampler(vhat, rng)
        seed = int(rng.integers(2**62))
        if r >= 1.0 - _BOUNDARY_TOL:
            out.append(boundary_fiber_sample(system, direction, n, seed))
        else:
            out.append(fiber_sample(system, r * direction, n, seed))
        drawn += n
    return np.concatenate(out, axis=0)


def _constraint_state(system: CliffordSystem, spec: FoliationSpec, z: np.ndarray,
                      target_r2: float, target_tail: Optional[np.ndarray]):
    """Constraint residuals c(z) and tangent-space Jacobian rows at each row of z.

    z holds one point per row, shape (S, 2l); c has shape (S, k) and the rows
    (S, k, 2l).  Constraints: |pi|^2 fixed, plus the direction invariant
    fixed when the class is off the origin.  For point leaves, and for the
    origin class (whose leaf is the fiber over 0 for every spec), the
    quotient value itself is the constraint; the |pi|^2 form would have a
    vanishing gradient exactly on the focal manifold.  Otherwise the
    invariant's Jacobian (the spec's closed form, or central differences of
    its invariant map) is chained through the pi_C gradients.
    """
    v = pi_c(system, z)
    rows_pi = np.moveaxis(pi_jacobian_rows(system, z), 0, -2)  # (S, m+1, 2l)
    if target_tail is None:
        return v, rows_pi
    if spec.leaves_are_fibers:
        return v - np.sqrt(target_r2) * target_tail, rows_pi
    r2 = np.sum(v * v, axis=-1)
    vhat = v / np.sqrt(np.maximum(r2, 1e-30))[:, None]
    tail = np.array([np.asarray(spec.invariant_map(u), dtype=float) for u in vhat])
    if spec.invariant_jacobian is not None:
        # a contiguous operand takes the same matmul path at every batch size
        jac = np.ascontiguousarray(spec.invariant_jacobian(v), dtype=float)
    else:
        jac = np.array([_fd_jacobian(spec.invariant_map, u) for u in v])
    c = np.concatenate([(r2 - target_r2)[:, None], tail - target_tail], axis=1)
    rows = np.concatenate([2.0 * (v[:, None, :] @ rows_pi), jac @ rows_pi], axis=1)
    return c, rows


def _fd_jacobian(invariant_map, v: np.ndarray) -> np.ndarray:
    """Central differences, step 1e-6, of v -> invariant_map(v / |v|) at one point v."""
    step = 1e-6
    cols = []
    for j in range(v.shape[0]):
        e = np.zeros(v.shape[0])
        e[j] = step
        up = np.asarray(invariant_map(_unit(v + e)), dtype=float)
        dn = np.asarray(invariant_map(_unit(v - e)), dtype=float)
        cols.append((up - dn) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _min_norm_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of g[s] x = rhs[s], row by row.

    Singular values at or below lstsq's default cutoff (machine epsilon times
    the larger dimension, relative to the largest) count as zero.
    """
    u, sv, vt = np.linalg.svd(g, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(g.shape[-2:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    coef = (np.swapaxes(u, -1, -2) @ rhs[..., None])[..., 0] * inv
    return (np.swapaxes(vt, -1, -2) @ coef[..., None])[..., 0]


def _tangent_projection(g: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """grad minus its component in the row space of g, row by row.

    The normal equations are regularized by 1e-14.  If the batched solve
    finds a singular system, every row is solved on its own and only the
    singular rows fall back to lstsq, so no row depends on another.
    """
    g_t = np.swapaxes(g, -1, -2)
    gg = g @ g_t
    rhs = g @ grad[..., None]
    reg = gg + 1e-14 * np.eye(gg.shape[-1])
    try:
        coef = np.linalg.solve(reg, rhs)
    except np.linalg.LinAlgError:
        coef = np.empty(rhs.shape)
        for i in range(len(g)):
            try:
                coef[i] = np.linalg.solve(reg[i:i + 1], rhs[i:i + 1])[0]
            except np.linalg.LinAlgError:
                coef[i, :, 0] = np.linalg.lstsq(gg[i], rhs[i, :, 0], rcond=None)[0]
    return grad - (g_t @ coef)[..., 0]


def _restore(system, spec, z, target_r2, target_tail):
    """Newton corrections of every row of z back onto the leaf.

    At most 8 corrections; each row stops once its residual drops below
    1e-12.  Returns the points, their residuals and their constraint
    Jacobian rows.
    """
    z = np.array(z, dtype=float)
    resid = np.empty(len(z))
    rows = None
    live = np.arange(len(z))
    for _ in range(8):
        c, g = _constraint_state(system, spec, z[live], target_r2, target_tail)
        if rows is None:
            rows = np.empty((len(z),) + g.shape[1:])
        res = np.max(np.abs(c), axis=1)
        resid[live], rows[live] = res, g
        more = res >= 1e-12
        live = live[more]
        if not live.size:
            return z, resid, rows
        z[live] = _unit(z[live] + _min_norm_solve(g[more], -c[more]))
    c, g = _constraint_state(system, spec, z[live], target_r2, target_tail)
    resid[live], rows[live] = np.max(np.abs(c), axis=1), g
    return z, resid, rows


def _descend(system, spec, x, z, target_r2, target_tail):
    """Projected ascent of <x, .> on the leaf from every row of z, in lockstep.

    Each row is one start with its own Gauss-Newton direction, line-search
    step and acceptance.  A step is accepted only when the restored point is
    feasible again (otherwise an off-leaf point could undercut the true leaf
    distance) and raises <x, .>; a row stops when its projected gradient
    vanishes, no step of its line search is accepted, or after 120
    iterations.  Returns the best <x, .> of every row.
    """
    z = np.array(z, dtype=float)
    best = np.sum(z * x, axis=-1)
    _, rows = _constraint_state(system, spec, z, target_r2, target_tail)
    active = np.arange(len(z))
    for _ in range(120):
        za = z[active]
        d = _tangent_projection(rows[active], x - best[active, None] * za)
        moving = np.linalg.norm(d, axis=-1) >= 1e-12
        active, za, d = active[moving], za[moving], d[moving]
        step = np.ones(len(active))
        pending = np.arange(len(active))
        improved = np.zeros(len(active), dtype=bool)
        for _ in range(20):
            if not pending.size:
                break
            cand, resid, cand_rows = _restore(
                system, spec, _unit(za[pending] + step[pending, None] * d[pending]),
                target_r2, target_tail)
            val = np.sum(cand * x, axis=-1)
            ok = (resid <= 1e-10) & (val > best[active[pending]] + 1e-15)
            accepted = active[pending[ok]]
            z[accepted], best[accepted], rows[accepted] = cand[ok], val[ok], cand_rows[ok]
            improved[pending[ok]] = True
            pending = pending[~ok]
            step[pending] *= 0.5
        active = active[improved]
        if not active.size:
            break
    return best


def leaf_to_leaf_ambient_distance(system: CliffordSystem, spec: FoliationSpec,
                                  x: np.ndarray, y: np.ndarray, budget: int = 1000,
                                  seed: int = 0, starts: int = 4) -> float:
    """Estimate of the spherical distance from x to the composed leaf through y.

    Minimum over ``budget`` leaf samples, refined by projected ascent of
    <x, .> on the leaf from the best starts.  Descent starts are taken from
    the first 2048 samples so that growing the budget only tightens the
    sampled floor; the estimate is nonincreasing in the budget beyond that
    prefix.  All starts ascend together as one (starts, 2l) batch, each with
    its own step and acceptance.  On exact systems a start's result is bit
    for bit the one it reaches alone; on dense systems the batched matmul
    in ``pi_c`` may round differently, at the last bit.  Leaf constraints use the spec's ``invariant_jacobian``
    when it has one, else central differences of its invariant map.
    Boundary leaves are handled in closed form per sampled direction (the
    nearest point of a great subsphere is an orthogonal projection).
    """
    _check_spec(system, spec)
    x = np.asarray(x, dtype=float)
    v = pi_c(system, y)
    r = float(np.linalg.norm(v))
    rng = rng_from(seed)

    if r >= 1.0 - _BOUNDARY_TOL:
        # distance to E_+^1(P_w) is arccos |(x + P_w x)/2| per direction w
        vhat = v / r
        n_dirs = 1 if spec.leaf_sampler is None else max(1, min(256, budget // 16))
        best = np.inf
        for _ in range(n_dirs):
            w = vhat if spec.leaf_sampler is None else spec.leaf_sampler(vhat, rng)
            proj = 0.5 * (x + x @ system.span_matrix(w).T)
            best = min(best, float(np.arccos(np.clip(np.linalg.norm(proj), 0.0, 1.0))))
        return best

    samples = _leaf_sample_blocks(system, spec, v, budget, rng)
    dots = samples @ x
    best_dot = float(np.max(dots))

    target_r2 = r * r
    target_tail = None
    if r > _ORIGIN_TOL:
        target_tail = np.asarray(spec.invariant_map(v / r), dtype=float)
    # Starts: champions of the 32-sample slices of the first 2048 samples,
    # half taken greedily by objective value and half spread through the
    # remaining ranks, so a global basin with a mediocre floor still gets a
    # descent.  The pool is a fixed prefix, keeping estimates monotone in
    # the budget beyond it.
    prefix = dots[:2048]
    champions = [int(c * 32 + np.argmax(prefix[c * 32:(c + 1) * 32]))
                 for c in range((len(prefix) + 31) // 32)]
    champions.sort(key=lambda i: -dots[i])
    n_starts = max(starts, 1)
    greedy = champions[:(n_starts + 1) // 2]
    rest = champions[len(greedy):]
    spread = [rest[j * len(rest) // max(1, n_starts - len(greedy))]
              for j in range(n_starts - len(greedy))] if rest else []
    starts_idx = list(dict.fromkeys(greedy + spread))
    refined = _descend(system, spec, x, samples[starts_idx], target_r2, target_tail)
    best_dot = max(best_dot, float(np.max(refined)))
    return float(np.arccos(np.clip(best_dot, -1.0, 1.0)))
