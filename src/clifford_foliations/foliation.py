"""Geometry of the quotient map pi_C and its fibers.

For a Clifford system C = (P_0, ..., P_m) on R^(2l), the map

    pi_C(x) = (<P_0 x, x>, ..., <P_m x, x>)

sends the unit sphere S^(2l-1) into the closed unit disk of R^(m+1); its
fibers are the leaves of the Clifford foliation.  This module evaluates
pi_C, samples its fibers (boundary fibers, the focal manifold M+ over the
origin, interior fibers through the cos(t) x + sin(t) Qx parametrization),
exposes the quartic form that factors through pi_C, horizontal geodesics and
their projections, the curvature-4 metric on the quotient disk realized by a
radius-1/2 hemisphere lift, and the reflection / spin symmetries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (_blocks, check_unit, eig_split, gaussian_rows, redraw_short_rows, rng_streams,
                      row_dots, row_norms, sample_unit_vectors, seed_ints, snapped_sqrt)
from .clifford import CliffordSystem

__all__ = [
    "pi_c",
    "eig_split",
    "boundary_fiber_sample",
    "mplus_sample",
    "fiber_sample",
    "pi_jacobian_rows",
    "fkm_f0",
    "HorizontalGeodesic",
    "random_horizontal_geodesic",
    "geodesic_eval",
    "project_geodesic_params",
    "quotient_lift",
    "quotient_distance",
    "reflect_symmetry",
    "reflected_disk_point",
    "spin_rotate",
    "rotated_disk_point",
    "EmptyFocalError",
]


class EmptyFocalError(ValueError):
    """Requested samples of M+ on a system whose quotient has no interior."""


def _quadratic_values(px: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<P_i x, x> from the stacked images px of x."""
    return np.sum(px * x[..., None, :], axis=-1)


def pi_c(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """Quotient-map coordinates (<P_i x, x>)_i along the last axis of x.

    Accepts a single point of shape (2l,) or a batch (..., 2l); the input must
    be unit-norm.  Batches run in blocks (:func:`_blocks`), so the
    (rows, m+1, 2l) image stack of a large batch is never built whole; each
    block's stack is multiplied by x in place and summed into its slice of
    the output, and each row's sums are the same in any block.
    """
    x = check_unit(x)
    flat = x.reshape(-1, system.dim)
    out = np.empty((len(flat), system.m + 1))
    for rows in _blocks(len(flat), (system.m + 1) * system.dim):
        px = system.generator_images(flat[rows])
        px *= flat[rows, None, :]
        np.add.reduce(px, axis=-1, out=out[rows])
    return out.reshape(x.shape[:-1] + (system.m + 1,))


# --------------------------------------------------------------------------- #
# Fiber samplers
# --------------------------------------------------------------------------- #

def _seeded_rows(points, seeds, width: int):
    """Rows of points as (k, width) floats, the seeds as k ints, and whether the call was single.

    A 1-D point takes one int seed and is a batch of one; k rows take k seeds.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != width:
        raise ValueError(f"points must have shape ({width},) or (k, {width})")
    seeds, single = seed_ints(seeds)
    if single != (points.ndim == 1) or len(seeds) != len(np.atleast_2d(points)):
        raise ValueError("pass one seed per point: an int for a single point, "
                         "a (k,) array for k rows")
    return np.atleast_2d(points), seeds, single


def _boundary_rows(system: CliffordSystem, p: np.ndarray, n: int, seeds) -> np.ndarray:
    """n samples of each boundary fiber over the unit rows of p, shape (k, n, 2l)."""
    # P^2 = |p|^2 Id on a Clifford system: the involution check, without P @ P
    if not np.all(np.abs(row_norms(p) ** 2 - 1.0) <= 1e-10):
        raise ValueError("span element is not an involution to 1e-10")
    rngs = rng_streams(seeds)
    z = gaussian_rows(rngs, (n, system.dim))
    z += system.span_apply(p, z)

    def draw(j, bad):
        fresh = rngs[j].standard_normal((int(np.sum(bad)), system.dim))
        return fresh + system.span_apply(p[j], fresh)

    return z / redraw_short_rows(z, draw)[..., None]


def boundary_fiber_sample(system: CliffordSystem, p_coords: np.ndarray,
                          n: int, seeds) -> np.ndarray:
    """n uniform samples of the boundary fiber over P = sum p_i P_i.

    The fiber over a boundary point is the unit sphere of the positive
    eigenspace E_+(P).  A Gaussian y in R^(2l) maps to z = y + P y, twice its
    orthogonal projection onto E_+(P), which is a Gaussian of E_+(P); so z/|z|
    is uniform on the fiber, with no eigenbasis needed.  Rows with |z| below
    1e-8 are redrawn.  A point (m+1,) with an int seed gives rows of shape
    (n, 2l); k points (k, m+1) with k seeds give (k, n, 2l), fiber j equal
    bit for bit to the single call with seeds[j].
    """
    p_coords, seeds, single = _seeded_rows(p_coords, seeds, system.m + 1)
    check_unit(p_coords, "span element")
    z = _boundary_rows(system, p_coords, n, seeds)
    return z[0] if single else z


def _check_focal(system: CliffordSystem) -> None:
    """Raise on an empty M+ and warn, once per call, on disconnected fibers."""
    if system.l < system.m + 1:
        raise EmptyFocalError("the quotient is the boundary sphere; M+ is empty")
    if system.l == system.m + 1:
        warnings.warn("l = m+1: the complement fibers are 0-spheres, so fibers are disconnected",
                      stacklevel=3)


def _project_out(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows g[j] less their components along the orthonormal rows of w[j]."""
    return g - np.einsum("nmd,nm->nd", w, np.einsum("nmd,nd->nm", w, g))


def _mplus_rows(system: CliffordSystem, n: int, seeds):
    """n samples of M+ per seed as E_+-(P_0) coefficients (u, w), each (k, n, l).

    The sample is u B_plus^T + w B_minus^T; each seed draws in the single call's order.
    """
    m, l = system.m, system.l
    rngs = rng_streams(seeds)
    u = sample_unit_vectors(rngs, l, n)
    g = gaussian_rows(rngs, (n, l))
    if m:
        # P_1 x+, ..., P_m x+ are orthonormal vectors of E_-(P_0) at each
        # sample; their (rows, m, l) coefficients are built block by block
        for rows in _blocks(len(rngs), n * m * l):
            w = system.p0_images(u[rows]).reshape(-1, m, l)
            g[rows] = _project_out(w, g[rows].reshape(-1, l)).reshape(g[rows].shape)

    def draw(j, bad):
        fresh = rngs[j].standard_normal((int(np.sum(bad)), l))
        return _project_out(system.p0_images(u[j][bad]), fresh) if m else fresh

    # the halves of (x_plus + g / |g|) / sqrt(2), in place
    g /= redraw_short_rows(g, draw)[..., None]
    u /= np.sqrt(2.0)
    g /= np.sqrt(2.0)
    return u, g


def mplus_sample(system: CliffordSystem, n: int, seeds) -> np.ndarray:
    """n samples of the focal manifold M+ = preimage of the disk origin.

    Each sample is (x_plus + x_minus)/sqrt(2) with x_plus uniform on the unit
    sphere of E_+(P_0) and x_minus uniform on the unit sphere of the
    complement of span(P_1 x_plus, ..., P_m x_plus) inside E_-(P_0); that
    complement has dimension l - m.  An int seed gives (n, 2l); a (k,) seed
    array gives (k, n, 2l), batch j equal bit for bit to the call with
    seeds[j].
    """
    seeds, single = seed_ints(seeds)
    _check_focal(system)
    x = system.p0_assemble(*_mplus_rows(system, n, seeds))
    return x[0] if single else x


def fiber_sample(system: CliffordSystem, v: np.ndarray, n: int, seeds) -> np.ndarray:
    """n samples of the fiber over a disk point v.

    Interior points use the parametrization cos(t) x + sin(t) Qx over x in M+
    with Q = v/|v| and t = arcsin(|v|)/2, which lands exactly in the fiber
    over sin(2t) Q = v.  Origin and boundary points take the samples of
    :func:`mplus_sample` / :func:`boundary_fiber_sample`.  A point (m+1,)
    with an int seed gives (n, 2l); k points (k, m+1) with k seeds give
    (k, n, 2l), where origin, interior and boundary rows may be mixed and
    fiber j equals the single call with seeds[j] bit for bit.
    """
    v, seeds, single = _seeded_rows(v, seeds, system.m + 1)
    with np.errstate(over="ignore"):  # a huge row's norm is inf and fails the check below
        r = row_norms(v)
    if not np.all(r <= 1.0 + 1e-12):
        raise ValueError("disk point has norm > 1 or is not finite")
    edge = r >= 1.0 - 1e-12
    if np.any(edge) and not np.all(edge):
        # boundary rows and the others, each kind in one call of its own
        out = np.empty((len(v), n, system.dim))
        for rows in (np.flatnonzero(edge), np.flatnonzero(~edge)):
            out[rows] = fiber_sample(system, v[rows], n, [seeds[j] for j in rows])
        return out
    if np.all(edge):
        out = _boundary_rows(system, v / r[:, None], n, seeds)
        return out[0] if single else out
    _check_focal(system)
    u, w = _mplus_rows(system, n, seeds)
    mid = r > 1e-12
    if np.any(mid):
        # interior rows turn in place; in the usual call that is every row
        a, b = (u, w) if np.all(mid) else (u[mid], w[mid])
        t = (np.arcsin(r[mid]) / 2.0)[:, None, None]
        # cos(t) x + sin(t) Q x in E_+-(P_0) coefficients, added in that order
        qa, qb = system.p0_span_apply(v[mid] / r[mid, None], a, b)
        for x, qx in ((a, qa), (b, qb)):
            qx *= np.sin(t)
            x *= np.cos(t)
            x += qx
        if a is not u:
            u[mid], w[mid] = a, b
    out = system.p0_assemble(u, w)
    return out[0] if single else out


# --------------------------------------------------------------------------- #
# Differential of pi_C and the quartic form
# --------------------------------------------------------------------------- #

def _pi_state(system: CliffordSystem, x: np.ndarray):
    """pi_C at float x, unchecked, and the :func:`pi_jacobian_rows`, from one image stack.

    The rows 2 P_i x - 2 v_i x are formed in the image stack, in place.
    """
    px = system.generator_images(x)
    v = _quadratic_values(px, x)
    px *= 2.0
    px -= (2.0 * v)[..., None] * x[..., None, :]
    return v, px


def pi_jacobian_rows(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """Rows X_{P_i}(x) = 2 P_i x - 2 <P_i x, x> x of the differential of pi_C.

    Shape x.shape[:-1] + (m+1, 2l): (m+1, 2l) for a single point.
    """
    return _pi_state(system, np.asarray(x, dtype=float))[1]


def fkm_f0(system: CliffordSystem, x: np.ndarray):
    """The quartic isoparametric form on the sphere, computed two ways.

    Returns (direct, factored) where direct = <x,x>^2 - 2 sum <P_i x, x>^2 and
    factored = 1 - 2 |pi_C(x)|^2; on the unit sphere the two agree to roundoff.
    """
    v = pi_c(system, x)
    sq = np.sum(np.square(x), axis=-1)
    direct = sq * sq - 2.0 * np.sum(v * v, axis=-1)
    factored = 1.0 - 2.0 * np.sum(v * v, axis=-1)
    return direct, factored


# --------------------------------------------------------------------------- #
# Horizontal geodesics
# --------------------------------------------------------------------------- #

@dataclass
class HorizontalGeodesic:
    """Great circle cos(t) x_minus + sin(t) x_plus with x_+- in E_+-(P); k of them as rows."""

    p_coords: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray


def random_horizontal_geodesic(system: CliffordSystem, seeds) -> HorizontalGeodesic:
    """Geodesic over a uniform unit span element P with uniform x_+- in E_+-(P).

    E_-(P) is E_+(-P), so both endpoints are boundary-fiber samples over +-P,
    drawn with seeds from the geodesic's own generator.  An int seed gives
    one geodesic; a (k,) seed array gives one geodesic of k rows, row j
    equal bit for bit to the geodesic of seeds[j], with all 2k endpoints
    drawn in one sampler call.
    """
    seeds, single = seed_ints(seeds)
    k = len(seeds)
    rngs = rng_streams(seeds)
    p = sample_unit_vectors(rngs, system.m + 1, 1)[:, 0]
    ends = np.empty((2, k), dtype=np.int64)
    for j, rng in enumerate(rngs):
        ends[:, j] = rng.integers(2**62), rng.integers(2**62)
    x = boundary_fiber_sample(system, np.concatenate([p, -p]), 1, ends.ravel())[:, 0]
    rows = (p, x[:k], x[k:])
    return HorizontalGeodesic(*(a[0] if single else a for a in rows))


def geodesic_eval(g: HorizontalGeodesic, t) -> np.ndarray:
    """gamma(t) = cos(t) x_minus + sin(t) x_plus, of shape t.shape + x_minus.shape."""
    t = np.asarray(t, dtype=float)
    return np.multiply.outer(np.cos(t), g.x_minus) + np.multiply.outer(np.sin(t), g.x_plus)


def project_geodesic_params(system: CliffordSystem, g: HorizontalGeodesic):
    """(P, Q) with Q_i = <P_i x_plus, x_minus>, so pi_C(gamma(t)) = -cos(2t) P + sin(2t) Q."""
    # one BLAS dot per Q_i, on the (1, 2l) products a single geodesic takes: rows equal singles
    images = system.generator_images(g.x_plus[..., None, :])[..., 0, :, :]
    q = row_dots(images, g.x_minus[..., None, :])
    return np.array(g.p_coords, dtype=float), q


# --------------------------------------------------------------------------- #
# Quotient metric via the hemisphere lift
# --------------------------------------------------------------------------- #

def quotient_lift(v: np.ndarray) -> np.ndarray:
    """Lift of a disk point to the radius-1/2 upper hemisphere in R^(m+2).

    lambda(v) = (v, sqrt(1 - |v|^2)) / 2; the curvature-4 quotient metric on
    the disk is the round metric of this hemisphere.  Radicands within 1e-13
    of zero snap to the boundary, so points that are boundary points up to
    accumulated roundoff lift with height exactly zero.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # a huge row's r2 is inf and fails the check below
        r2 = np.sum(v * v, axis=-1)
    if not np.all(r2 <= 1.0 + 2e-12):
        raise ValueError("disk point has norm > 1 or is not finite")
    height = snapped_sqrt(1.0 - r2)
    return 0.5 * np.concatenate([v, np.expand_dims(height, -1)], axis=-1)


def quotient_distance(v: np.ndarray, w: np.ndarray):
    """Distance in the curvature-4 disk: half the lifted great-circle angle.

    The angle uses the chord formulas 2 arcsin(|a-b|/2) / pi - 2 arcsin(|a+b|/2)
    (by the sign of the inner product), which stay fully accurate where an
    arccos of the inner product would lose half the working precision.
    """
    a = 2.0 * quotient_lift(v)
    b = 2.0 * quotient_lift(w)
    dot = np.sum(a * b, axis=-1)
    near = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(a - b, axis=-1), 0.0, 1.0))
    far = np.pi - 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(a + b, axis=-1), 0.0, 1.0))
    theta = np.where(dot >= 0.0, near, far)
    return 0.5 * theta if theta.ndim else float(0.5 * theta)


# --------------------------------------------------------------------------- #
# Symmetries
# --------------------------------------------------------------------------- #

def reflect_symmetry(system: CliffordSystem, p_coords: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """Apply the boundary element P = sum p_i P_i to x (an isometry of the sphere).

    Downstairs this is the reflection of the disk along the axis through P:
    pi_C(Px) = -pi_C(x) + 2 <pi_C(x), P> P.  A unit p (m+1,) acts on x (..., 2l);
    unit rows p (k, m+1) act with row j on x[j] of x (k, n, 2l), as k single calls.
    """
    return system.span_apply(check_unit(p_coords, "span element"), x)


def reflected_disk_point(v: np.ndarray, p_coords: np.ndarray) -> np.ndarray:
    """Reflection -v + 2 <v, p> p of the disk along the axis through p."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p_coords, dtype=float)
    return -v + 2.0 * np.sum(v * p, axis=-1, keepdims=True) * p


def spin_rotate(system: CliffordSystem, p_coords: np.ndarray, q_coords: np.ndarray,
                theta, x: np.ndarray) -> np.ndarray:
    """g . x = cos(theta) x + sin(theta) P(Qx) for g = cos(theta) Id + sin(theta) P Q.

    Needs orthonormal span elements P, Q; then (PQ)^2 = -Id makes g orthogonal.
    Downstairs g rotates the disk by the angle -2 theta in the oriented
    (P, Q) plane and fixes the orthogonal complement; see
    :func:`rotated_disk_point` for the predicted image.  Unit p, q (m+1,)
    and one angle act on x (..., 2l); rows p, q (k, m+1) with angles (k,)
    or one angle act with row j on x[j] of x (k, n, 2l), as k single calls.
    """
    p, q = (check_unit(c, "span element") for c in (p_coords, q_coords))
    if p.shape != q.shape or np.any(np.abs(row_dots(p, q)) > 1e-12):
        raise ValueError("span elements must be orthonormal")
    x = np.asarray(x, dtype=float)
    out = system.span_apply(p, system.span_apply(q, x))
    theta = np.broadcast_to(theta, p.shape[:-1])
    theta = theta.reshape(theta.shape + (1,) * (x.ndim - theta.ndim))
    out *= np.sin(theta)
    out += np.cos(theta) * x
    return out


def rotated_disk_point(v: np.ndarray, p_coords: np.ndarray, q_coords: np.ndarray,
                       theta: float) -> np.ndarray:
    """Predicted disk image of pi_C under the spin symmetry at angle theta.

    Rotation by -2 theta in the oriented (P, Q) plane: the component pair
    (a, b) = (<v,P>, <v,Q>) maps to (cos(2t) a + sin(2t) b, -sin(2t) a + cos(2t) b).
    The sign is calibrated on the multiplicity-2 rank-2 system, where the
    point over (1, 0) moves to (cos 2t, -sin 2t).
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p_coords, dtype=float)
    q = np.asarray(q_coords, dtype=float)
    a = np.sum(v * p, axis=-1, keepdims=True)
    b = np.sum(v * q, axis=-1, keepdims=True)
    rest = v - a * p - b * q
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return rest + (c * a + s * b) * p + (-s * a + c * b) * q
