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

from .algebra import (_count, check_unit, rng_from, row_dots, row_norms,
                      sample_unit_vectors, unit_angle)
from .clifford import CliffordSystem
from .foliation import _lift_height, _pi_rows, _quadratic_values, _turn, fiber_sample, pi_c

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
_SAME_LEAF_TOL = 1e-9
_STEPS = np.ldexp(1.0, -np.arange(20))  # line-search steps 1, 1/2, ..., 2^-19

BUILTIN_SPEC_NAMES = ("points", "one_leaf", "height", "tensor_svd")


@dataclass
class FoliationSpec:
    """A boundary-sphere foliation given by a leaf-separating invariant map.

    Every callable takes rows.  ``invariant_map`` maps unit rows (n, m+1) to
    (n, t), constant exactly on leaves.  ``quotient_distance`` is the
    leaf-space metric of paired rows, giving (n,).  A spec with non-point
    leaves carries two closed forms; without them the leaves are points, as
    for ``points``, and each composed leaf is the fiber over its disk point.
    ``invariant_jacobian`` maps nonzero rows (S, m+1) to the Jacobians
    (S, t, m+1) of v -> invariant_map(v / |v|), and
    ``nearest_leaf_point(u, tails)`` maps unit rows u (n, m+1) and target
    tails (n, t), or one tail (t,) for every row, to fresh unit rows: for each
    row, the nearest point to u of the boundary leaf with that tail.  The
    estimator's leaf samples are the nearest points of uniform directions,
    uniform on the leaf where the leaves are the orbits of a group of
    isometries.  Both give each row the bits of its single-row call, whatever
    batch holds it: the estimator forms a point's constraint rows in a batch
    other than the one that restored it.  Construction (``dataclasses.replace``
    included) refuses a spec with one closed form and not the other.
    """

    name: str
    ambient_dim: int
    invariant_map: Callable[[np.ndarray], np.ndarray]
    quotient_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    invariant_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    nearest_leaf_point: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if (self.invariant_jacobian is None) != (self.nearest_leaf_point is None):
            raise ValueError(f"spec {self.name!r} needs both invariant_jacobian and "
                             "nearest_leaf_point, or neither for point leaves")


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

    The :func:`~clifford_foliations.algebra.unit_angle` between the signed
    singular triples, which is the minimum angle between a and U b V^T over
    U, V in SO(3).  Two matrices give a float; paired rows (n, 9) give (n,).
    """
    d = unit_angle(signed_svd_triple(a), signed_svd_triple(b))
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
    dim = _count(m, "m", 1) + 1
    if name == "points":
        # no closed forms: the composed leaves are single fibers
        return FoliationSpec(
            "points", dim,
            invariant_map=lambda v: np.asarray(v, dtype=float),
            quotient_distance=unit_angle,
        )
    if name == "one_leaf":
        return FoliationSpec(
            "one_leaf", dim,
            invariant_map=lambda v: np.zeros((len(v), 1)),
            quotient_distance=lambda u, v: np.zeros(len(u)),
            invariant_jacobian=lambda v: np.zeros(np.shape(v)[:-1] + (1, dim)),
            nearest_leaf_point=lambda u, tails: np.array(u, dtype=float),
        )
    if name == "height":
        p0 = np.eye(dim)[0]

        def height_jacobian(v):
            # d<v/|v|, p0>/dv = (p0 - <v^, p0> v^) / |v|
            r = row_norms(v)[..., None]
            vhat = v / r
            return ((p0 - row_dots(vhat, p0)[..., None] * vhat) / r)[..., None, :]

        def nearest_height(u, tails):
            # h p0 + sqrt(1 - h^2) e^ for e^ the unit part of u off p0 = e_0; at a pole
            # every leaf point is nearest, and e^ = e_1 serves
            h = np.broadcast_to(tails, (len(u), 1))[:, 0]
            out = np.array(u, dtype=float)
            ne = row_norms(out[:, 1:])
            pole = ne == 0.0
            out[pole, 1], ne[pole] = 1.0, 1.0
            out[:, 1:] *= (np.sqrt(np.maximum(0.0, 1.0 - h * h)) / ne)[:, None]
            out[:, 0] = h
            return out

        return FoliationSpec(
            "height", dim,
            invariant_map=lambda v: row_dots(v, p0)[:, None],
            quotient_distance=lambda u, v: np.abs(unit_angle(u, p0) - unit_angle(v, p0)),
            invariant_jacobian=height_jacobian,
            nearest_leaf_point=nearest_height,
        )
    if name == "tensor_svd":
        if m != 8:
            raise ValueError("tensor_svd lives on the 8-sphere of unit 3x3 matrices")

        def tensor_jacobian(v):
            # d tau_i = u_i^T dM v_i with u_3 times sign(det), chained through
            # (I - v^ v^T) / |v|; where singular values repeat, tau has no
            # derivative, so those rows take central differences
            r = row_norms(v)
            vhat = v / r[:, None]
            mats = vhat.reshape(-1, 3, 3)
            u, sv, vt = np.linalg.svd(mats)
            sign = np.where(np.linalg.det(mats) < 0, -1.0, 1.0)
            u[:, :, 2] *= sign[:, None]
            dtau = np.swapaxes(u[:, :, :, None] * vt[:, None], 1, 2).reshape(-1, 3, 9)
            tau = np.concatenate([sv[:, :2], (sign * sv[:, 2])[:, None]], axis=1)
            jac = (dtau - tau[:, :, None] * vhat[:, None, :]) / r[:, None, None]
            rep = np.flatnonzero(np.min(sv[:, :2] - sv[:, 1:], axis=1) <= 1e-6 * sv[:, 0])
            if rep.size:
                jac[rep] = _central_differences(lambda w: signed_svd_triple(_unit(w)), v[rep],
                                                1e-6 * r[rep])
            return jac

        def nearest_tensor(u, tails):
            # U diag(tau) V^T for U, V in SO(3) with u = U diag(signed triple) V^T: its
            # inner product with u is the triples', the most any orbit point reaches
            # (von Neumann's trace inequality), so it is the nearest point of the orbit
            mats = np.reshape(u, (-1, 3, 3))
            left, _, vt = np.linalg.svd(mats)
            # into SO(3) by their last singular vectors, which moves only the third value's sign
            left[:, :, 2] *= np.sign(np.linalg.det(left))[:, None]
            vt[:, 2] *= np.sign(np.linalg.det(vt))[:, None]
            tau = np.broadcast_to(tails, (len(mats), 3))
            return ((left * tau[:, None, :]) @ vt).reshape(len(mats), 9)

        return FoliationSpec(
            "tensor_svd", dim,
            invariant_map=signed_svd_triple,
            quotient_distance=tensor_orbit_distance,
            invariant_jacobian=tensor_jacobian,
            nearest_leaf_point=nearest_tensor,
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
    if np.ndim(x) > 2:
        raise ValueError(f"points must have shape (2l,) or (n, 2l), got {np.shape(x)}")
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
    """True iff the classes of x and y are at most 1e-9 apart in the cone metric.

    Two points lie on one composed leaf exactly when their
    :func:`composed_quotient_distance` is 0, so membership reads that distance
    alone: the spec's ``quotient_distance``, never its ``invariant_map``.
    x and y are single points (2l,), giving a bool, or paired rows (n, 2l),
    giving an (n,) bool array, each row the bool of its single call.
    """
    return composed_quotient_distance(system, spec, x, y) <= _SAME_LEAF_TOL


def composed_quotient_distance(system: CliffordSystem, spec: FoliationSpec,
                               x: np.ndarray, y: np.ndarray):
    """Distance between the composed classes of x and y (half the cone/join metric).

    Half the :func:`~clifford_foliations.algebra.unit_angle` between (h, r, 0) and
    (h', r' cos delta, r' sin delta): radii r = |pi_C|, heights h = sqrt(1 - r^2), 0 exactly
    on the boundary of :func:`~clifford_foliations.foliation.fiber_sample`, delta the leaf-space
    distance of the directions, capped at pi.  Single points x, y (2l,) give a float, paired
    rows (n, 2l) an (n,) array; the leaf-space metric runs on rows with both classes off the origin.
    """
    _check_spec(system, spec)
    _check_pair(x, y)
    vx, rx = _disk_points(system, x)
    vy, ry = _disk_points(system, y)
    rx, ry = np.minimum(1.0, rx), np.minimum(1.0, ry)
    delta = np.zeros(len(rx))
    off = np.flatnonzero((rx > _ORIGIN_TOL) & (ry > _ORIGIN_TOL))
    delta[off] = np.minimum(
        spec.quotient_distance(vx[off] / rx[off, None], vy[off] / ry[off, None]), np.pi)
    a = np.stack([_lift_height(rx), rx, np.zeros(len(rx))], axis=-1)
    b = np.stack([_lift_height(ry), ry * np.cos(delta), ry * np.sin(delta)], axis=-1)
    d = 0.5 * unit_angle(a, b)
    return float(d[0]) if np.ndim(x) == 1 else d


# --------------------------------------------------------------------------- #
# Ambient leaf distance
# --------------------------------------------------------------------------- #

def _fiber_leaf(spec: FoliationSpec, r: float) -> bool:
    """Whether the leaf over radius r is a fiber: at the origin, or if spec has point leaves."""
    return spec.nearest_leaf_point is None or r <= _ORIGIN_TOL


def _leaf_sample_blocks(system: CliffordSystem, spec: FoliationSpec, v: np.ndarray,
                        budget: int, rng: np.random.Generator, tail: np.ndarray):
    """The first ``budget`` samples of the composed leaf through the disk class of v.

    One :func:`fiber_sample` draw of ceil(budget / chunk) whole chunks, cut
    to the budget: a fiber leaf (:func:`_fiber_leaf`) takes chunks of 256 over
    v (0 at the origin), any other leaf chunks of 32 over r times the
    ``nearest_leaf_point`` on the leaf with invariant ``tail`` of uniform
    directions, which is uniform on the leaf for a group-orbit foliation (a
    fiber leaf reads no tail).  The directions come from rng's first child
    stream (for rng_from(seed), rng_from(seed, 0)) in one draw, the chunk seeds
    from its second in one ``integers`` call, so every budget's samples are a
    prefix of any larger budget's.
    """
    r = float(row_norms(v))
    fiber = _fiber_leaf(spec, r)
    chunk = 256 if fiber else 32
    count = (budget + chunk - 1) // chunk
    directions, draws = rng.spawn(2)
    points = (np.repeat(v[None], count, axis=0) if fiber else
              r * spec.nearest_leaf_point(sample_unit_vectors(directions, len(v), count), tail))
    seeds = draws.integers(2**62, size=count)
    return fiber_sample(system, points, chunk, seeds).reshape(-1, system.dim)[:budget]


def _residuals(system: CliffordSystem, spec: FoliationSpec, z: np.ndarray,
               target_r2: Optional[float], target: np.ndarray):
    """pi_C(z), shape (S, m+1), and the constraint residuals c(z), shape (S, k), of z (S, 2l).

    A fiber leaf (:func:`_fiber_leaf`) passes target_r2 = None and its disk
    point as target, 0 for the origin class, and holds pi_C(z) - target; a
    |pi|^2 constraint would have a vanishing gradient exactly on the focal
    manifold.  Any other leaf holds |pi|^2 - target_r2 and its direction
    invariant less target.  The points are the estimator's own, so pi_C is
    evaluated without the unit-norm check of the public ``pi_c``.
    """
    v = _quadratic_values(system, z)
    if target_r2 is None:
        return v, v - target
    r2 = row_dots(v, v)
    vhat = v / np.sqrt(np.maximum(r2, 1e-30))[:, None]
    return v, np.concatenate([(r2 - target_r2)[:, None], spec.invariant_map(vhat) - target],
                             axis=1)


def _constraint_rows(system: CliffordSystem, spec: FoliationSpec, z: np.ndarray, v: np.ndarray,
                     target_r2: Optional[float]):
    """Tangent-space Jacobian rows of the :func:`_residuals` constraints at z, with v = pi_C(z).

    Every constraint is a function phi of pi_C, so the rows (S, k, 2l) are
    dphi @ pi_rows, with the invariant's Jacobian chained through the pi_C
    gradients.  v (S, m+1) is the pi_C that :func:`_restore` returned with
    z, carried by :func:`_descend`: ``_quadratic_values`` gives each row its
    bits whatever the batch, so it is the value a fresh evaluation of z gives.
    Returns (rows, pi_rows, dphi) with pi_rows (S, m+1, 2l) and dphi
    (S, k, m+1); the Newton step reuses the last two.  On a fiber leaf
    (target_r2 = None) every constraint is pi_C itself: dphi is None and the
    rows are pi_rows.
    """
    rows_pi = _pi_rows(system, z, v)
    if target_r2 is None:
        return rows_pi, rows_pi, None
    # a contiguous operand takes the same matmul path at every batch size
    jac = np.ascontiguousarray(spec.invariant_jacobian(v), dtype=float)
    rows = np.concatenate([2.0 * (v[:, None, :] @ rows_pi), jac @ rows_pi], axis=1)
    dphi = np.concatenate([2.0 * v[:, None, :], jac], axis=1)
    return rows, rows_pi, dphi


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
    return v / row_norms(v)[..., None]


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions of the square systems a[s] x = b[s], row by row, by LU.

    a is (S, n, n) and b (S, n).  One batched LU solve, returned as it is
    when it meets no zero pivot and every solution is finite; if it meets a
    zero pivot, slogdet's zero sign finds those rows and the others are
    solved again.  Rows with a zero pivot or a non-finite solution take the
    minimum-norm least-squares solution instead, with lstsq's default cutoff
    (singular values at or below machine epsilon times n, relative to the
    largest, count as zero).  No row's arithmetic depends on another row.
    """
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
        if np.isfinite(x).all():
            return x
        lu = np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        lu = np.linalg.slogdet(a)[0] != 0.0
        x = np.empty(b.shape)
        x[lu] = np.linalg.solve(a[lu], b[lu, :, None])[..., 0]
    bad = ~lu | ~np.all(np.isfinite(x), axis=-1)
    if np.any(bad):
        u, sv, vt = np.linalg.svd(a[bad])
        keep = sv > np.finfo(float).eps * a.shape[-1] * sv[:, :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
        coef = np.sum(u * b[bad, :, None], axis=1) * inv
        x[bad] = np.sum(vt * coef[:, :, None], axis=1)
    return x


def _tangent_projection(g: np.ndarray, grad: np.ndarray):
    """grad minus its component in the row space of g, row by row.

    Returns the projection and the least-squares multipliers (S, k) of the
    rows, from the normal equations regularized by 1e-14 and solved by
    :func:`_solve_rows`.
    """
    g_t = g.swapaxes(-1, -2)
    gg = g @ g_t
    coef = _solve_rows(gg + 1e-14 * np.eye(gg.shape[-1]), (g @ grad[..., None])[..., 0])
    return grad - (g_t @ coef[..., None])[..., 0], coef


def _newton_direction(system, spec, z, g, lam, best, v, rows_pi, dphi):
    """Riemannian Newton direction of <x, .> on the leaf at every row of z.

    g is the projected gradient and lam its multipliers for the rows
    dphi @ pi_rows.  Pulled back to pi_C coordinates they are a = dphi^T lam;
    with the sphere term mu = <x, z> - 2 <a, v>, the Lagrangian Hessian is
    -(B + J^T W J): B = 2 sum a_i P_i + mu I, J the pi_C rows and W the
    curvature of the constraint maps, 2 lam_0 I for |pi|^2 plus lam_t times
    the invariant's Hessian, central differences of ``invariant_jacobian``.
    As (2 sum a_i P_i)^2 = 4|a|^2 I, B^-1 = (B - 2 mu I) / (4|a|^2 - mu^2), and
    the direction is xi = B^-1 (g + C y) for C = [J^T, z]; y and the
    normal multipliers nu solve a square bordered system of m+2+k unknowns
    that puts xi in the tangent space.  On a fiber leaf dphi is None (every
    constraint is pi_C itself, :func:`_constraint_rows`) and W = 0: the
    bordered system's first block row gives nu = y_J, and y solves the m+2
    unknowns gm y = -h, with h the <C_i, B^-1 g> and gm the
    <C_i, B^-1 C_j>.  :func:`_solve_rows` solves either system by LU; a
    singular one (the vanishing gradient of ``one_leaf``'s constant invariant) takes the
    minimum-norm solution, in which the constraint drops out; in the reduced
    system that norm weights (y_J, y_z) alone, not (y_J, y_z, nu).  A row keeps
    xi only when it is finite, an ascent direction and of positive B + J^T W J
    curvature (negative model curvature of <x, .>); otherwise it takes g, also
    where a singular B (4|a|^2 = mu^2) leaves the row non-finite.  Returns the
    directions and their predicted gains <g, d>.
    """
    n_rows, p = v.shape
    fiber = dphi is None
    a = lam if fiber else np.add.reduce(dphi * lam[:, :, None], axis=1)
    mu = best - 2.0 * row_dots(a, v)
    if not fiber:
        w = 2.0 * lam[:, 0, None, None] * np.eye(p)
        # the invariant's Hessians (S, t, m+1, m+1), symmetrized
        step = 1e-5 * row_norms(v)
        hess = _central_differences(spec.invariant_jacobian, v, step)
        hess = 0.5 * (hess + hess.swapaxes(-1, -2))
        w += np.add.reduce(lam[:, 1:, None, None] * hess, axis=1)
    vecs = np.concatenate([g[:, None, :], rows_pi, z[:, None, :]], axis=1)
    cols = vecs[:, 1:]  # C^T, (S, m+2, 2l)
    # rows with a (nearly) singular B overflow quietly; the final mask drops them
    with np.errstate(all="ignore"):
        binv = ((2.0 * system.span_apply(a, vecs) - mu[:, None, None] * vecs)
                / (4.0 * row_dots(a, a) - mu * mu)[:, None, None])
        gram = cols @ np.ascontiguousarray(binv.swapaxes(-1, -2))  # <C_i, B^-1 vecs_j>
        h, gm = gram[..., 0], gram[..., 1:]
        if fiber:
            kkt, rhs = gm, -h
        else:
            # unknowns (y_J, y_z, nu): y_J + W s = dphi^T nu, <z, xi> = 0, dphi s = 0,
            # where s = J xi and (s, <z, xi>) = h + gm y
            k = dphi.shape[1]
            wd = np.concatenate([w, dphi], axis=1)
            wd_gm, wd_h = _small_matmul(wd, gm[:, :p]), _small_matmul(wd, h[:, :p, None])[..., 0]
            kkt = np.zeros((n_rows, p + 1 + k, p + 1 + k))
            kkt[:, :p, :p + 1] = np.eye(p, p + 1) + wd_gm[:, :p]
            kkt[:, :p, p + 1:] = -dphi.swapaxes(-1, -2)
            kkt[:, p, :p + 1] = gm[:, p]
            kkt[:, p + 1:, :p + 1] = wd_gm[:, p:]
            rhs = -np.concatenate([wd_h[:, :p], h[:, p:], wd_h[:, p:]], axis=1)
        finite = np.isfinite(kkt).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
        # the fallback SVD rejects non-finite input (gram, which gm views, is not read again)
        kkt[~finite], rhs[~finite] = 0.0, 0.0
        y = _solve_rows(kkt, rhs)[:, :p + 1]
        xi = binv[:, 0] + np.add.reduce(y[:, :, None] * binv[:, 1:], axis=1)
        s = row_dots(rows_pi, xi[:, None, :])
        gain = row_dots(g, xi)
        curv = gain + row_dots(s, y[:, :p]) + row_dots(z, xi) * y[:, p]
        if not fiber:
            curv += row_dots(s, _small_matmul(w, s[..., None])[..., 0])
        newton = finite & np.isfinite(xi).all(axis=-1) & (gain > 0.0) & (curv > 0.0)
    d = np.where(newton[:, None], xi, g)
    return d, np.where(newton, gain, row_dots(g, g))


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, summed in a fixed order per row."""
    return np.add.reduce(a[..., :, :, None] * b[..., None, :, :], axis=-2)


def _restore(system, spec, z, target_r2, target):
    """Every row of z carried onto the leaf by one fiber transport.

    z lies on the fiber over v' = pi_C(z), read off its generator images, so
    z = cos(t) x + sin(t) Qx for Q = v' / |v'| and some x in M+: z +- Qz, with
    Qz contracted from the images, are multiples of x +- Qx, whose normalised
    sum is x (no angle t is read off |v'|, which loses it as |v'| nears 1).
    :func:`~clifford_foliations.foliation._turn` lands x on the fiber over the
    leaf's disk point: the target of a fiber leaf, else sqrt(target_r2) times
    the spec's ``nearest_leaf_point`` of Q.  Returns the points, their pi_C,
    which the feasibility check evaluates and :func:`_descend` carries into
    :func:`_constraint_rows`, and their :func:`_residuals` max |c|.
    """
    images = system.generator_images(z)
    v = row_dots(images, z[:, None, :])
    q = _unit(np.where(row_norms(v)[:, None] > 0.0, v, 1.0))  # any Q serves on M+
    qz = np.add.reduce(q[:, :, None] * images, axis=1)
    plus, minus = z + qz, z - qz
    back = (_unit(plus) + minus / np.maximum(row_norms(minus), 1e-300)[:, None]) / np.sqrt(2.0)
    disk = (np.broadcast_to(target, v.shape) if target_r2 is None
            else np.sqrt(target_r2) * spec.nearest_leaf_point(q, target))
    z = _turn(system, disk, back[:, None])[:, 0]
    v, c = _residuals(system, spec, z, target_r2, target)
    return z, v, np.maximum.reduce(np.abs(c), axis=1)


def _descend(system, spec, x, z, target_r2, target):
    """Newton ascent of <x, .> on the leaf from every row of z, in lockstep.

    Each row is one start with its own direction, line-search step and
    acceptance.  The direction is the Riemannian Newton direction of
    :func:`_newton_direction`, or the projected gradient where that is not
    a finite ascent direction of negative model curvature.  The line search
    takes the first of the steps 1, 1/2, ..., 2^-19 that is accepted, each
    carried onto the leaf by one fiber transport (:func:`_restore`): step 1
    for every row, then the 19 halvings of the rows it fails in one call.  A step is accepted
    only when the restored point is feasible again (otherwise an off-leaf
    point could undercut the true leaf distance) and raises <x, .> by more
    than 1e-15; a row stops when the predicted gain <g, d> of its direction
    is below 1e-16, where no step could pass that margin, when no step of
    its line search is accepted, or after 120 iterations.  An iteration forms
    its rows' constraint rows once (:func:`_constraint_rows`); restores read
    residuals only.  Every row carries its pi_C with its point: evaluated
    once for the starts, then the one each accepted restore returns.
    Returns the best point of every row and its <x, .>.
    """
    z = np.array(z, dtype=float)
    pis = _quadratic_values(system, z)
    best = row_dots(z, x)
    active = np.arange(len(z))
    for _ in range(120):
        za, va = z[active], pis[active]
        rows, rows_pi, dphi = _constraint_rows(system, spec, za, va, target_r2)
        g, lam = _tangent_projection(rows, x - best[active, None] * za)
        d, gain = _newton_direction(system, spec, za, g, lam, best[active], va, rows_pi, dphi)
        moving = gain >= 1e-16
        active, za, d = active[moving], za[moving], d[moving]
        pending = np.arange(len(active))
        improved = np.zeros(len(active), dtype=bool)
        for steps in (_STEPS[:1], _STEPS[1:]):
            if not pending.size:
                break
            trial = za[pending, None] + steps[:, None] * d[pending, None]
            cand, cand_pi, resid = _restore(system, spec, _unit(trial.reshape(-1, len(x))),
                                            target_r2, target)
            val = row_dots(cand, x)
            ok = ((resid <= 1e-10) & (val > np.repeat(best[active[pending]], len(steps)) + 1e-15)
                  ).reshape(len(pending), len(steps))
            hit = ok.any(axis=1)
            first = np.flatnonzero(hit) * len(steps) + ok[hit].argmax(axis=1)
            accepted = active[pending[hit]]
            z[accepted], pis[accepted], best[accepted] = cand[first], cand_pi[first], val[first]
            improved[pending[hit]] = True
            pending = pending[~hit]
        active = active[improved]
        if not active.size:
            break
    return z, best


def _sample_floor(samples: np.ndarray, dots: np.ndarray, x: np.ndarray) -> float:
    """The least ``unit_angle`` from x to the unit rows samples, with dots = samples @ x.

    Only the samples whose dot is within 1e-9 of the largest are measured.  For unit rows
    |s -+ x|^2 = |s|^2 + |x|^2 -+ 2 <s, x> with |s|^2 = 1 to about 1e-15, so the angle
    falls as <s, x> rises, and a dot 1e-9 below the best is an angle larger by far more than
    roundoff: the least angle is among the candidates, and as ``unit_angle`` is row-wise it
    has the bits of the least over all samples.
    """
    return unit_angle(samples[dots >= dots.max() - 1e-9], x).min()


def leaf_to_leaf_ambient_distance(system: CliffordSystem, spec: FoliationSpec,
                                  x: np.ndarray, y: np.ndarray, budget: int = 1000,
                                  seed: int = 0, starts: int = 4) -> float:
    """Estimate of the spherical distance from x to the composed leaf through y.

    Minimum over ``budget`` leaf samples, refined by Newton ascent of <x, .>
    on the leaf (:func:`_descend`) from the best starts.  Distances to the
    points z found are their ``unit_angle`` to x, which resolves what
    arccos <x, z> cannot below arccos(1 - 2^-53).  Descended points are
    fiber transports (:func:`_restore`), on their fiber to roundoff, and only
    points whose constraint residuals are all at most 1e-10 are accepted.  On a
    fiber leaf that is feasibility to 1e-10 in pi_C, so on a leaf of radius r an
    undercut is at most about 1e-10 / (2 sqrt(1 - r^2)).  On any other leaf the
    residuals are |pi_C|^2 - r^2 and the invariant's, so |pi_C| - r is bounded
    by about 1e-10 / (2r) (3.3e-10 at r = 0.15).  Descent starts are taken from the first
    2048 samples, and every budget's samples (:func:`_leaf_sample_blocks`)
    are a prefix of any larger budget's, so from 2048 on no larger budget
    gives a larger estimate.  The samples' floor is measured only on those
    within 1e-9 of the largest <x, .>, which hold its minimum
    (:func:`_sample_floor`).  All
    starts ascend together as one (starts, 2l) batch, each with its own
    direction, step and acceptance.  A start's result is bit for bit the
    one it reaches alone, on dense systems too, whose products go row by row.
    ``budget`` and ``starts`` are integers of at least 1: a bool, a float or a
    string raises TypeError, a smaller integer ValueError.
    A fiber leaf (:func:`_fiber_leaf`) holds pi_C at its disk point, 0 at
    the origin; any other leaf holds |pi_C|^2 and the invariant, through the
    spec's ``invariant_jacobian``.  Boundary leaves, at lift height 0 as
    :func:`fiber_sample` and :func:`composed_quotient_distance` decide it, are
    handled in closed form per leaf direction (the nearest point of a great
    subsphere is an orthogonal projection p of x, at the angle of (|p|, |x - p|)
    to (1, 0)): the leaf's own direction, the ``nearest_leaf_point`` of
    pi_C(x)'s direction where it lies on the leaf to 1e-10, and those of up to
    256 uniform directions, so an interior x reads the cone metric to a boundary class.
    """
    _check_spec(system, spec)
    budget, starts = _count(budget, "budget", 1), _count(starts, "starts", 1)
    _check_pair(x, y)
    if np.shape(x) != (system.dim,):
        raise ValueError(f"x and y must be single points of shape ({system.dim},)")
    x, y = check_unit(x), check_unit(y)
    v = pi_c(system, y)
    r = float(row_norms(v))
    if r <= _ORIGIN_TOL:
        v, r = np.zeros_like(v), 0.0  # the origin class is the fiber over 0, for every spec
    fiber = _fiber_leaf(spec, r)
    rng = rng_from(seed)
    target_r2, target = (None, v) if fiber else (r * r, spec.invariant_map((v / r)[None])[0])

    if _lift_height(r) == 0.0:
        # distance to E_+^1(P_w) is arccos |(x + P_w x)/2| per direction w
        w = (v / r)[None]
        if not fiber:
            # the leaf's own direction, the nearest leaf point to pi_C(x)'s direction if it
            # lies on the leaf (a spec's nearest point could miss it, and a candidate off
            # the leaf could undercut), then the nearest leaf points of uniform directions
            vx = pi_c(system, x)
            rx = float(row_norms(vx))
            if rx > _ORIGIN_TOL:
                near = spec.nearest_leaf_point((vx / rx)[None], target)
                if np.max(np.abs(spec.invariant_map(near) - target)) <= 1e-10:
                    w = np.concatenate([w, near])
            units = sample_unit_vectors(rng, len(v), max(1, min(256, budget // 16)))
            w = np.concatenate([w, spec.nearest_leaf_point(units, target)])
        xs = np.broadcast_to(x, (len(w), 1, len(x)))
        proj = 0.5 * (x + system.span_apply(w, xs)[:, 0])
        norms = row_norms(proj)
        # x = proj + (x - proj) orthogonally, so x sits at (|proj|, |x - proj|) from the nearest
        # point (1, 0) in their plane: no division by a |proj| that may be roundoff; proj = 0
        # puts the whole subsphere at pi/2
        plane = np.stack([norms, row_norms(x - proj)], axis=1)
        return float(np.min(np.where(norms > 0.0, unit_angle(plane, np.eye(2)[:1]), 0.5 * np.pi)))

    samples = _leaf_sample_blocks(system, spec, v, budget, rng, target)
    dots = samples @ x

    # Starts: champions of the 32-sample slices of the first 2048 samples,
    # half taken greedily by objective value and half spread through the
    # remaining ranks, so a global basin with a mediocre floor still gets a
    # descent.  Every budget beyond 2048 shares this pool.
    prefix = dots[:2048]
    slices = np.pad(prefix, (0, -len(prefix) % 32), constant_values=-np.inf).reshape(-1, 32)
    champions = (32 * np.arange(len(slices)) + np.argmax(slices, axis=1)).tolist()
    champions.sort(key=lambda i: -dots[i])
    greedy = champions[:(starts + 1) // 2]
    rest = champions[len(greedy):]
    spread = [rest[j * len(rest) // max(1, starts - len(greedy))]
              for j in range(starts - len(greedy))] if rest else []
    starts_idx = list(dict.fromkeys(greedy + spread))
    refined, _ = _descend(system, spec, x, samples[starts_idx], target_r2, target)
    return float(min(_sample_floor(samples, dots, x), unit_angle(refined, x).min()))
