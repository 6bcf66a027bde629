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
distances directly (sampling plus Newton ascent on the leaf), which is the
instrument used to cross-check that leaves really are equidistant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (check_unit, rng_from, row_dots, row_norms, sample_unit_vectors,
                      sign_fixed_rotation)
from .clifford import CliffordSystem
from .foliation import (
    _generator_images,
    _quadratic_values,
    _span_apply,
    fiber_sample,
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
_STEPS = np.ldexp(1.0, -np.arange(20))  # line-search steps 1, 1/2, ..., 2^-19

BUILTIN_SPEC_NAMES = ("points", "one_leaf", "height", "tensor_svd")


@dataclass
class FoliationSpec:
    """A boundary-sphere foliation given by a leaf-separating invariant map.

    Every callable takes rows.  ``invariant_map`` maps unit rows (n, m+1) to
    (n, t), constant exactly on leaves.  ``quotient_distance`` (optional,
    needed by the cone metric) is the leaf-space metric of paired rows,
    giving (n,).  ``leaf_sampler(units, rng)`` (optional) draws a leaf point
    through each row, in row order; without it the ambient distance
    estimator uses single-direction fibers.  ``leaves_are_fibers`` marks the
    by-points foliation, whose composed leaves are plain fibers.
    ``invariant_jacobian`` (optional) maps nonzero rows (S, m+1) to the
    Jacobians (S, t, m+1) of v -> invariant_map(v / |v|); without it the
    estimator takes central differences, one ``invariant_map`` call on
    2(m+1) shifted rows per point.
    """

    name: str
    ambient_dim: int
    invariant_map: Callable[[np.ndarray], np.ndarray]
    quotient_distance: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    leaf_sampler: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    leaves_are_fibers: bool = False
    invariant_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def signed_svd_triple(mat: np.ndarray) -> np.ndarray:
    """Ordered singular values of a 3x3 matrix with det sign on the smallest.

    (s1 >= s2 >= |s3|, sign(s3) = sign(det)); constant on orbits of the
    rotate-both-sides action M -> U M V^T, U, V in SO(3).  A matrix (3, 3)
    or (9,) gives (3,); rows (n, 9) or a stack (n, 3, 3) give (n, 3).
    """
    mat = np.asarray(mat, dtype=float)
    lead = mat.shape[:-1] if mat.shape[-1] == 9 else mat.shape[:-2]
    mat = mat.reshape(lead + (3, 3))
    tau = np.linalg.svd(mat, compute_uv=False)
    tau[..., 2] = np.where(np.linalg.det(mat) < 0, -tau[..., 2], tau[..., 2])
    return tau


def tensor_orbit_distance(a: np.ndarray, b: np.ndarray):
    """Spherical distance between the rotate-both-sides orbits of two unit 3x3 matrices.

    arccos of the inner product of the signed singular triples, which is the
    minimum of arccos <a, U b V^T> over U, V in SO(3).  Two matrices give a
    float; paired rows (n, 9) give (n,).
    """
    d = np.arccos(np.clip(row_dots(signed_svd_triple(a), signed_svd_triple(b)), -1.0, 1.0))
    return float(d) if d.ndim == 0 else d


def builtin_spec(name: str, m: int) -> FoliationSpec:
    """Built-in boundary foliations on the m-sphere in R^(m+1).

    points    -- leaves are points (identity invariant); composition returns
                 the plain Clifford foliation.
    one_leaf  -- one big leaf (constant invariant); composition gives the
                 codimension-1 isoparametric family.
    height    -- distance spheres around the pole p0 = e_0 (invariant <P, p0>).
    tensor_svd-- m = 8 only: orbits of the rotate-both-sides action on unit
                 3x3 matrices, separated by the signed singular triple.
    """
    dim = m + 1
    if name == "points":
        # leaves are single fibers: no direction sampling needed
        return FoliationSpec(
            "points", dim,
            invariant_map=lambda v: np.asarray(v, dtype=float),
            quotient_distance=lambda u, v: np.arccos(np.clip(row_dots(u, v), -1.0, 1.0)),
            leaves_are_fibers=True,
        )
    if name == "one_leaf":
        return FoliationSpec(
            "one_leaf", dim,
            invariant_map=lambda v: np.zeros((len(v), 1)),
            quotient_distance=lambda u, v: np.zeros(len(u)),
            leaf_sampler=lambda v, rng: sample_unit_vectors(rng, dim, len(v)),
            invariant_jacobian=lambda v: np.zeros(np.shape(v)[:-1] + (1, dim)),
        )
    if name == "height":
        p0 = np.eye(dim)[0]

        def sample_leaf(v, rng):
            c = np.clip(row_dots(v, p0), -1.0, 1.0)
            q = sample_unit_vectors(rng, dim, len(v))
            q -= row_dots(q, p0)[:, None] * p0
            nq = row_norms(q)
            out = c[:, None] * p0
            off = nq >= 1e-12  # a draw on the pole axis leaves the point at the pole
            out[off] += (np.sqrt(np.maximum(0.0, 1.0 - c[off] * c[off]))[:, None]
                         * (q[off] / nq[off, None]))
            return out

        def height_jacobian(v):
            # d<v/|v|, p0>/dv = (p0 - <v^, p0> v^) / |v|
            r = np.linalg.norm(v, axis=-1, keepdims=True)
            vhat = v / r
            return ((p0 - np.sum(vhat * p0, axis=-1, keepdims=True) * vhat) / r)[..., None, :]

        return FoliationSpec(
            "height", dim,
            invariant_map=lambda v: row_dots(v, p0)[:, None],
            quotient_distance=lambda u, v: np.abs(
                np.arccos(np.clip(row_dots(u, p0), -1.0, 1.0))
                - np.arccos(np.clip(row_dots(v, p0), -1.0, 1.0))),
            leaf_sampler=sample_leaf,
            invariant_jacobian=height_jacobian,
        )
    if name == "tensor_svd":
        if m != 8:
            raise ValueError("tensor_svd lives on the 8-sphere of unit 3x3 matrices")

        def sample_leaf(v, rng):
            # U M W^T per row, U drawn before W (left operand first), all rows in one draw
            mats = np.reshape(v, (-1, 3, 3))
            uw = sign_fixed_rotation(rng.standard_normal((len(mats), 2, 3, 3)))
            return (uw[:, 0] @ mats @ np.swapaxes(uw[:, 1], -1, -2)).reshape(len(mats), 9)

        return FoliationSpec(
            "tensor_svd", dim,
            invariant_map=signed_svd_triple,
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


def _disk_points(system: CliffordSystem, x: np.ndarray):
    """pi_C of every row of x and its radius; a single point is a batch of one."""
    v = pi_c(system, np.atleast_2d(x))
    return v, row_norms(v)


def _check_pair(x: np.ndarray, y: np.ndarray):
    if np.shape(x) != np.shape(y):
        raise ValueError(f"paired points must share a shape, got {np.shape(x)} and {np.shape(y)}")


def composed_class(system: CliffordSystem, spec: FoliationSpec, x: np.ndarray):
    """Leaf class of x: one :class:`ComposedClass` for a point (2l,), a list for rows (n, 2l)."""
    _check_spec(system, spec)
    v, r = _disk_points(system, x)
    tails = [None] * len(r)
    off = np.flatnonzero(r > _ORIGIN_TOL)
    for i, tail in zip(off, spec.invariant_map(v[off] / r[off, None])):
        tails[i] = tail
    classes = [ComposedClass(float(ri), tail) for ri, tail in zip(r, tails)]
    return classes[0] if np.ndim(x) == 1 else classes


def same_leaf(system: CliffordSystem, spec: FoliationSpec, x: np.ndarray, y: np.ndarray):
    """True iff x and y belong to the same composed leaf, up to 1e-9.

    x and y are single points (2l,), giving a bool, or paired rows (n, 2l),
    giving an (n,) bool array.  The direction invariant is evaluated only on
    rows whose radii agree and are off the origin class.
    """
    _check_spec(system, spec)
    _check_pair(x, y)
    vx, rx = _disk_points(system, x)
    vy, ry = _disk_points(system, y)
    close = np.abs(rx - ry) <= _SAME_LEAF_TOL
    same = close & (rx <= _SAME_LEAF_TOL) & (ry <= _SAME_LEAF_TOL)
    need = np.flatnonzero(close & ~same & (rx > _ORIGIN_TOL) & (ry > _ORIGIN_TOL))
    tx = spec.invariant_map(vx[need] / rx[need, None])
    ty = spec.invariant_map(vy[need] / ry[need, None])
    same[need] = np.max(np.abs(tx - ty), axis=1) <= _SAME_LEAF_TOL
    return bool(same[0]) if np.ndim(x) == 1 else same


def composed_quotient_distance(system: CliffordSystem, spec: FoliationSpec,
                               x: np.ndarray, y: np.ndarray):
    """Distance between the composed classes of x and y (half the cone/join metric).

    With cone angles s = arcsin |pi_C| and the leaf-space distance delta of
    the directions: (1/2) arccos(cos s cos s' + sin s sin s' cos min(delta, pi)).
    x and y are single points (2l,), giving a float, or paired rows (n, 2l),
    giving an (n,) array.  The leaf-space metric is evaluated only on rows
    with both classes off the origin.
    """
    _check_spec(system, spec)
    if spec.quotient_distance is None:
        raise ValueError(f"spec {spec.name!r} carries no leaf-space metric")
    _check_pair(x, y)
    vx, rx = _disk_points(system, x)
    vy, ry = _disk_points(system, y)
    rx, ry = np.minimum(1.0, rx), np.minimum(1.0, ry)
    s, sp = np.arcsin(rx), np.arcsin(ry)
    delta = np.zeros(len(rx))
    off = np.flatnonzero((rx > _ORIGIN_TOL) & (ry > _ORIGIN_TOL))
    delta[off] = np.minimum(
        spec.quotient_distance(vx[off] / rx[off, None], vy[off] / ry[off, None]), np.pi)
    c = np.clip(np.cos(s) * np.cos(sp) + np.sin(s) * np.sin(sp) * np.cos(delta), -1.0, 1.0)
    d = 0.5 * np.arccos(c)
    return float(d[0]) if np.ndim(x) == 1 else d


# --------------------------------------------------------------------------- #
# Ambient leaf distance
# --------------------------------------------------------------------------- #

def _leaf_sample_blocks(system: CliffordSystem, spec: FoliationSpec, v: np.ndarray,
                        budget: int, rng: np.random.Generator):
    """Samples of the composed leaf through the disk class of v, in fixed chunks.

    One rng stream and a spec-fixed chunk size keep the sample sequence a
    prefix of any larger budget's sequence.  Specs without a leaf sampler
    have single-fiber leaves, so their chunks can be large.  Every chunk's
    disk point (r times its direction; zero for the origin class) and seed
    are drawn first, in chunk order; then the full chunks take one
    :func:`fiber_sample` call and a shorter last chunk another.
    """
    r = float(np.linalg.norm(v))
    origin = r <= _ORIGIN_TOL
    chunk = 32 if spec.leaf_sampler is not None and not origin else 256
    full, rest = divmod(budget, chunk)
    points = np.zeros((full + (rest > 0), len(v)))
    seeds = np.empty(len(points), dtype=np.int64)
    for j in range(len(points)):
        if not origin:
            points[j] = r * (v / r if spec.leaf_sampler is None
                             else spec.leaf_sampler((v / r)[None], rng)[0])
        seeds[j] = rng.integers(2**62)
    blocks = [fiber_sample(system, points[:full], chunk, seeds[:full])] if full else []
    if rest:
        blocks.append(fiber_sample(system, points[full:], rest, seeds[full:]))
    return np.concatenate([b.reshape(-1, system.dim) for b in blocks], axis=0)


def _constraint_state(system: CliffordSystem, spec: FoliationSpec, z: np.ndarray,
                      target_r2: float, target_tail: Optional[np.ndarray]):
    """Constraint residuals c(z), their tangent-space Jacobian rows and pi_C data.

    z holds one point per row, shape (S, 2l); c has shape (S, k) and the rows
    (S, k, 2l).  Constraints: |pi|^2 fixed, plus the direction invariant
    fixed when the class is off the origin.  For point leaves, and for the
    origin class (whose leaf is the fiber over 0 for every spec), the
    quotient value itself is the constraint; the |pi|^2 form would have a
    vanishing gradient exactly on the focal manifold.  Otherwise the
    invariant's Jacobian (the spec's closed form, or central differences of
    its invariant map) is chained through the pi_C gradients.

    Every constraint is a function phi of pi_C, so the rows are
    dphi @ pi_rows.  Returns (c, rows, v, pi_rows, dphi) with v = pi_C(z)
    (S, m+1), pi_rows (S, m+1, 2l) and dphi (S, k, m+1); the Newton step
    reuses the last three.  The points are the estimator's own, so pi_C is
    evaluated without the unit-norm check of the public ``pi_c``.
    """
    v = _quadratic_values(_generator_images(system, z), z)
    rows_pi = pi_jacobian_rows(system, z)
    if target_tail is None or spec.leaves_are_fibers:
        eye = np.broadcast_to(np.eye(v.shape[-1]), v.shape + v.shape[-1:])
        c = v if target_tail is None else v - np.sqrt(target_r2) * target_tail
        return c, rows_pi, v, rows_pi, eye
    r2 = np.sum(v * v, axis=-1)
    vhat = v / np.sqrt(np.maximum(r2, 1e-30))[:, None]
    tail = spec.invariant_map(vhat)
    if spec.invariant_jacobian is not None:
        # a contiguous operand takes the same matmul path at every batch size
        jac = np.ascontiguousarray(spec.invariant_jacobian(v), dtype=float)
    else:
        jac = _central_differences(lambda u: spec.invariant_map(_unit(u)), v, np.full(len(v), 1e-6))
    c = np.concatenate([(r2 - target_r2)[:, None], tail - target_tail], axis=1)
    rows = np.concatenate([2.0 * (v[:, None, :] @ rows_pi), jac @ rows_pi], axis=1)
    dphi = np.concatenate([2.0 * v[:, None, :], jac], axis=1)
    return c, rows, v, rows_pi, dphi


def _central_differences(f, v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central differences of f at every row of v (S, p), with step h[s] on row s.

    f maps a batch (N, p) to (N, ...) and takes all 2p shifted points of
    every row in one call; the result is (S, ...) + (p,), the last axis the
    coordinate moved.
    """
    n, p = v.shape
    steps = h[:, None, None] * np.eye(p)
    shifted = np.concatenate([v[:, None, :] + steps, v[:, None, :] - steps], axis=1)
    vals = np.asarray(f(shifted.reshape(-1, p)), dtype=float)
    vals = vals.reshape((n, 2, p) + vals.shape[1:])
    diff = np.moveaxis(vals[:, 0] - vals[:, 1], 1, -1)
    return diff / (2.0 * h).reshape((n,) + (1,) * (diff.ndim - 1))


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


def _tangent_projection(g: np.ndarray, grad: np.ndarray):
    """grad minus its component in the row space of g, row by row.

    Returns the projection and the least-squares multipliers (S, k) of the
    rows.  The normal equations are regularized by 1e-14.  If the batched
    solve finds a singular system, every row is solved on its own and only
    the singular rows fall back to lstsq, so no row depends on another.
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
    return grad - (g_t @ coef)[..., 0], coef[..., 0]


def _newton_direction(system, spec, z, g, lam, best, v, rows_pi, dphi, curved):
    """Riemannian Newton direction of <x, .> on the leaf at every row of z.

    g is the projected gradient and lam its multipliers for the rows
    dphi @ pi_rows.  Pulled back to pi_C coordinates they are a = dphi^T lam;
    with the sphere term mu = <x, z> - 2 <a, v>, the Lagrangian Hessian is
    -(B + J^T W J): B = 2 sum a_i P_i + mu I, J the pi_C rows and W the
    curvature of the constraint maps, 2 lam_0 I for |pi|^2 plus lam_t times
    the invariant's Hessian (zero for point leaves and the origin class;
    without an invariant Jacobian the invariant term is left out).  As
    (2 sum a_i P_i)^2 = 4|a|^2 I, B^-1 = (B - 2 mu I) / (4|a|^2 - mu^2), and
    the direction is xi = B^-1 (g + C y) for C = [J^T, z]; y and the
    normal multipliers solve a bordered system of m+2+k unknowns that puts
    xi in the tangent space, in the minimum-norm sense, so a constraint
    with a vanishing gradient (the constant invariant of ``one_leaf``) drops
    out instead of making the system singular.  A row keeps xi only when it
    is finite, an ascent direction and of positive B + J^T W J curvature
    (negative model curvature of <x, .>); otherwise it takes g, also where a
    singular B (4|a|^2 = mu^2) leaves the row non-finite.  Returns the
    directions and their predicted gains <g, d>.
    """
    n_rows, p = v.shape
    k = lam.shape[1]
    a = np.sum(dphi * lam[:, :, None], axis=1)
    mu = best - 2.0 * np.sum(a * v, axis=-1)
    w = np.zeros((n_rows, p, p))
    if curved:
        w += 2.0 * lam[:, 0, None, None] * np.eye(p)
        if spec.invariant_jacobian is not None:
            # the invariant's Hessians (S, t, m+1, m+1), symmetrized
            hess = _central_differences(spec.invariant_jacobian, v,
                                        1e-5 * np.linalg.norm(v, axis=-1))
            hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
            w += np.sum(lam[:, 1:, None, None] * hess, axis=1)
    cols = np.concatenate([rows_pi, z[:, None, :]], axis=1)  # C^T, (S, m+2, 2l)
    vecs = np.concatenate([g[:, None, :], cols], axis=1)
    images = 2.0 * np.sum(a[:, None, :, None] * _generator_images(system, vecs), axis=2)
    # rows with a (nearly) singular B overflow quietly; the final mask drops them
    with np.errstate(all="ignore"):
        binv = (images - mu[:, None, None] * vecs) / (4.0 * np.sum(a * a, axis=-1)
                                                       - mu * mu)[:, None, None]
        gram = cols @ np.ascontiguousarray(np.swapaxes(binv, -1, -2))  # <C_i, B^-1 vecs_j>
        h, gm = gram[..., 0], gram[..., 1:]
        # unknowns (y_J, y_z, nu): y_J + W s = dphi^T nu, <z, xi> = 0, dphi s = 0,
        # where s = J xi and (s, <z, xi>) = h + gm y
        kkt = np.zeros((n_rows, p + 1 + k, p + 1 + k))
        rhs = np.zeros((n_rows, p + 1 + k))
        kkt[:, :p, :p + 1] = np.eye(p, p + 1) + _small_matmul(w, gm[:, :p])
        kkt[:, :p, p + 1:] = -np.swapaxes(dphi, -1, -2)
        kkt[:, p, :p + 1] = gm[:, p]
        kkt[:, p + 1:, :p + 1] = _small_matmul(dphi, gm[:, :p])
        rhs[:, :p] = -_small_matmul(w, h[:, :p, None])[..., 0]
        rhs[:, p] = -h[:, p]
        rhs[:, p + 1:] = -_small_matmul(dphi, h[:, :p, None])[..., 0]
        finite = np.all(np.isfinite(kkt), axis=(1, 2)) & np.all(np.isfinite(rhs), axis=1)
        kkt[~finite], rhs[~finite] = 0.0, 0.0  # the SVD rejects non-finite input
        y = _min_norm_solve(kkt, rhs)[:, :p + 1]
        xi = binv[:, 0] + np.sum(y[:, :, None] * binv[:, 1:], axis=1)
        s = np.sum(rows_pi * xi[:, None, :], axis=-1)
        gain = np.sum(g * xi, axis=-1)
        curv = (gain + np.sum(s * y[:, :p], axis=-1) + np.sum(z * xi, axis=-1) * y[:, p]
                + np.sum(s * _small_matmul(w, s[..., None])[..., 0], axis=-1))
        newton = finite & np.all(np.isfinite(xi), axis=-1) & (gain > 0.0) & (curv > 0.0)
    d = np.where(newton[:, None], xi, g)
    return d, np.where(newton, gain, np.sum(g * g, axis=-1))


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, summed in a fixed order per row."""
    return np.sum(a[..., :, :, None] * b[..., None, :, :], axis=-2)


def _restore(system, spec, z, target_r2, target_tail):
    """Newton corrections of every row of z back onto the leaf.

    At most 8 corrections; each row stops once its residual drops below
    1e-12.  Returns the points, their residuals and their constraint state
    (rows, v, pi_rows, dphi of :func:`_constraint_state`).
    """
    z = np.array(z, dtype=float)
    resid = np.empty(len(z))
    state = None
    live = np.arange(len(z))
    for corrections in range(9):
        c, *found = _constraint_state(system, spec, z[live], target_r2, target_tail)
        if state is None:
            state = [np.empty((len(z),) + f.shape[1:]) for f in found]
        for kept, f in zip(state, found):
            kept[live] = f
        res = np.max(np.abs(c), axis=1)
        resid[live] = res
        more = res >= 1e-12
        live = live[more]
        if not live.size or corrections == 8:
            break
        z[live] = _unit(z[live] + _min_norm_solve(found[0][more], -c[more]))
    return z, resid, state


def _descend(system, spec, x, z, target_r2, target_tail):
    """Newton ascent of <x, .> on the leaf from every row of z, in lockstep.

    Each row is one start with its own direction, line-search step and
    acceptance.  The direction is the Riemannian Newton direction of
    :func:`_newton_direction`, or the projected gradient where that is not
    a finite ascent direction of negative model curvature.  The line search
    takes the first of the steps 1, 1/2, ..., 2^-19 that is accepted, each
    restored onto the leaf by :func:`_restore`: step 1 for every row, then
    the 19 halvings of the rows it fails in one call.  A step is accepted
    only when the restored point is feasible again (otherwise an off-leaf
    point could undercut the true leaf distance) and raises <x, .> by more
    than 1e-15; a row stops when the predicted gain <g, d> of its direction
    is below 1e-16, where no step could pass that margin, when no step of
    its line search is accepted, or after 120 iterations.  Returns the best
    <x, .> of every row.
    """
    z = np.array(z, dtype=float)
    best = np.sum(z * x, axis=-1)
    _, *state = _constraint_state(system, spec, z, target_r2, target_tail)
    state = [np.array(s) for s in state]
    curved = target_tail is not None and not spec.leaves_are_fibers
    active = np.arange(len(z))
    for _ in range(120):
        za = z[active]
        rows, v, rows_pi, dphi = (s[active] for s in state)
        g, lam = _tangent_projection(rows, x - best[active, None] * za)
        d, gain = _newton_direction(system, spec, za, g, lam, best[active], v, rows_pi, dphi,
                                    curved)
        moving = gain >= 1e-16
        active, za, d = active[moving], za[moving], d[moving]
        pending = np.arange(len(active))
        improved = np.zeros(len(active), dtype=bool)
        for steps in (_STEPS[:1], _STEPS[1:]):
            if not pending.size:
                break
            trial = za[pending, None] + steps[:, None] * d[pending, None]
            cand, resid, cand_state = _restore(system, spec, _unit(trial.reshape(-1, len(x))),
                                               target_r2, target_tail)
            val = np.sum(cand * x, axis=-1)
            ok = ((resid <= 1e-10) & (val > np.repeat(best[active[pending]], len(steps)) + 1e-15)
                  ).reshape(len(pending), len(steps))
            hit = np.any(ok, axis=1)
            first = np.flatnonzero(hit) * len(steps) + np.argmax(ok[hit], axis=1)
            accepted = active[pending[hit]]
            z[accepted], best[accepted] = cand[first], val[first]
            for kept, found in zip(state, cand_state):
                kept[accepted] = found[first]
            improved[pending[hit]] = True
            pending = pending[~hit]
        active = active[improved]
        if not active.size:
            break
    return best


def leaf_to_leaf_ambient_distance(system: CliffordSystem, spec: FoliationSpec,
                                  x: np.ndarray, y: np.ndarray, budget: int = 1000,
                                  seed: int = 0, starts: int = 4) -> float:
    """Estimate of the spherical distance from x to the composed leaf through y.

    Minimum over ``budget`` leaf samples, refined by Newton ascent of <x, .>
    on the leaf (:func:`_descend`) from the best starts.  Only points that
    are feasible to 1e-10 are accepted, so the estimate does not undercut
    the leaf distance beyond that.  Descent starts are taken from the first
    2048 samples so that growing the budget only tightens the sampled floor;
    the estimate is nonincreasing in the budget beyond that prefix.  All
    starts ascend together as one (starts, 2l) batch, each with its own
    direction, step and acceptance.  On exact systems a start's result is
    bit for bit the one it reaches alone; on dense systems the batched
    matmul of the generator images may round differently, at the last bit.
    Leaf constraints use the spec's ``invariant_jacobian`` when it has one,
    else central differences of its invariant map.  Boundary leaves are
    handled in closed form per sampled direction (the nearest point of a
    great subsphere is an orthogonal projection).
    """
    _check_spec(system, spec)
    if budget < 1:
        raise ValueError(f"budget must be at least 1 leaf sample, got {budget}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1 descent start, got {starts}")
    _check_pair(x, y)
    if np.shape(x) != (system.dim,):
        raise ValueError(f"x and y must be single points of shape ({system.dim},)")
    x, y = check_unit(x), check_unit(y)
    v = pi_c(system, y)
    r = float(np.linalg.norm(v))
    rng = rng_from(seed)

    if r >= 1.0 - _BOUNDARY_TOL:
        # distance to E_+^1(P_w) is arccos |(x + P_w x)/2| per direction w
        vhat = v / r
        n_dirs = 1 if spec.leaf_sampler is None else max(1, min(256, budget // 16))
        units = np.repeat(vhat[None], n_dirs, axis=0)
        w = units if spec.leaf_sampler is None else spec.leaf_sampler(units, rng)
        xs = np.broadcast_to(x, (n_dirs, 1, len(x)))
        proj = 0.5 * (x + _span_apply(system, w, xs)[:, 0])
        return float(np.min(np.arccos(np.clip(row_norms(proj), 0.0, 1.0))))

    samples = _leaf_sample_blocks(system, spec, v, budget, rng)
    dots = samples @ x
    best_dot = float(np.max(dots))

    target_r2 = r * r
    target_tail = None
    if r > _ORIGIN_TOL:
        target_tail = spec.invariant_map((v / r)[None])[0]
    # Starts: champions of the 32-sample slices of the first 2048 samples,
    # half taken greedily by objective value and half spread through the
    # remaining ranks, so a global basin with a mediocre floor still gets a
    # descent.  The pool is a fixed prefix, keeping estimates monotone in
    # the budget beyond it.
    prefix = dots[:2048]
    champions = [int(c * 32 + np.argmax(prefix[c * 32:(c + 1) * 32]))
                 for c in range((len(prefix) + 31) // 32)]
    champions.sort(key=lambda i: -dots[i])
    greedy = champions[:(starts + 1) // 2]
    rest = champions[len(greedy):]
    spread = [rest[j * len(rest) // max(1, starts - len(greedy))]
              for j in range(starts - len(greedy))] if rest else []
    starts_idx = list(dict.fromkeys(greedy + spread))
    refined = _descend(system, spec, x, samples[starts_idx], target_r2, target_tail)
    best_dot = max(best_dot, float(np.max(refined)))
    return float(np.arccos(np.clip(best_dot, -1.0, 1.0)))
