"""Geometry of the quotient map pi_C and its fibers.

For a Clifford system C = (P_0, ..., P_m) on R^(2l), the map

    pi_C(x) = (<P_0 x, x>, ..., <P_m x, x>)

sends the unit sphere S^(2l-1) into the closed unit disk of R^(m+1); its
fibers are the leaves of the Clifford foliation.  This module evaluates
pi_C, samples its fibers (the focal manifold M+ over the origin, every other
fiber through the cos(t) x + sin(t) Qx turn of M+, and boundary fibers as
unit spheres of E_+(P)), exposes the quartic form that factors through pi_C,
horizontal geodesics and their projections, the curvature-4 metric on the
quotient disk realized by a radius-1/2 hemisphere lift, and the reflection /
spin symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (_blocks, _count, check_unit, eig_split, gaussian_rows, redraw_short_rows,
                      rng_streams, row_dots, row_norms, sample_unit_vectors, seed_ints,
                      snapped_sqrt, unit_angle)
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


def _quadratic_values(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """pi_C(x) = (|u|^2 - |w|^2, 2 <u R_1^T, w>, ..., 2 <u R_m^T, w>) for points x (..., 2l).

    (u, w) are the E_+-(P_0) coefficients of x and R_i the blocks of
    :meth:`~CliffordSystem.p0_images`: P_0 x = (u, -w) and P_i x = (w R_i, u R_i^T) for
    i >= 1.  v_0 sums u_a^2 - w_a^2, u squared C-ordered (a gathered u has its coordinate
    axis outermost); the (..., m, l) images of u are multiplied by 2w in place and summed
    along their last axis.  The sums run row by row, so where every step is a gather (an
    exact system whose P_0 is a +-1 diagonal) a row's values are the same in any batch.
    An m = 0 system gives v_0 alone.  :mod:`~clifford_foliations.homogeneity`'s pi_C(u, v)
    = (|u|^2 - |v|^2, 2 sum_i u_i conj(v_i)) on F^k, for m in {1, 2, 4}, is this formula's case.
    """
    u, w = system.p0_coefficients(x)
    out = np.empty(x.shape[:-1] + (system.m + 1,))
    squares = np.multiply(u, u, order="C")
    squares -= w * w
    np.add.reduce(squares, axis=-1, out=out[..., 0])
    if system.m:
        images = system.p0_images(u)
        images *= (w + w)[..., None, :]
        np.add.reduce(images, axis=-1, out=out[..., 1:])
    return out


def _check_width(system: CliffordSystem, x: np.ndarray) -> None:
    """Raise unless x holds points of R^(2l) along its last axis."""
    if x.shape[-1:] != (system.dim,):
        raise ValueError(f"points must have shape (..., {system.dim}) = (..., 2l), got {x.shape}")


def _in_blocks(system: CliffordSystem, x: np.ndarray, values, size: int) -> np.ndarray:
    """values(rows) of the points x (..., 2l), shape x.shape[:-1] + (m+1,), by :func:`_blocks`.

    size is the entries of a row's working stack, so a large batch never builds it whole.
    """
    flat = x.reshape(-1, system.dim)
    out = np.empty((len(flat), system.m + 1))
    for rows in _blocks(len(flat), size):
        out[rows] = values(flat[rows])
    return out.reshape(x.shape[:-1] + (system.m + 1,))


def pi_c(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """Quotient-map coordinates (<P_i x, x>)_i along the last axis of x.

    Accepts a single point of shape (2l,) or a batch (..., 2l); the input must
    be unit-norm, and another width raises ValueError.  In the E_+-(P_0)
    coefficients (u, w) of x the map is (|u|^2 - |w|^2, 2 <u R_1^T, w>, ...,
    2 <u R_m^T, w>) with the blocks R_i of P_1..P_m, evaluated by
    :func:`_quadratic_values`; :mod:`~clifford_foliations.homogeneity`'s
    pi_C(u, v) for m in {1, 2, 4} is its case.  Batches run in blocks
    (:func:`_blocks`), so the (rows, m, l) image stack of a large batch is
    never built whole, and each row's values are the same in any block.
    """
    x = np.asarray(x, dtype=float)
    _check_width(system, x)
    x = check_unit(x)
    return _in_blocks(system, x, lambda rows: _quadratic_values(system, rows), system.m * system.l)


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
    n = _count(n, "n", 0)
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


def _project_out(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows g[j] less their components along the orthonormal rows of w[j].

    Where the rows leave only a line (one more column than rows, l = m+1), most of g
    cancels and the first pass keeps its roundoff in the span, so a second pass follows.
    """
    for _ in range(2 if w.shape[-1] - w.shape[-2] == 1 else 1):
        g = g - np.einsum("nmd,nm->nd", w, np.einsum("nmd,nd->nm", w, g))
    return g


def _mplus_rows(system: CliffordSystem, n: int, seeds):
    """n samples of M+ per seed as E_+-(P_0) coefficients (u, w), each (k, n, l).

    The sample is u B_plus^T + w B_minus^T; each seed draws in the single call's order.
    """
    n = _count(n, "n", 0)
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
    complement has dimension l - m: for l = m M+ is empty and the call
    raises EmptyFocalError, and for l = m+1 the complement spheres are
    0-spheres, so fibers are disconnected (the ``factorization_m_plus_1``
    suite witnesses it).  An int seed gives (n, 2l); a (k,) seed array gives
    (k, n, 2l), batch j equal bit for bit to the call with seeds[j].
    """
    seeds, single = seed_ints(seeds)
    if system.l <= system.m:
        raise EmptyFocalError("the quotient is the boundary sphere; M+ is empty")
    x = system.p0_assemble(*_mplus_rows(system, n, seeds))
    return x[0] if single else x


def fiber_sample(system: CliffordSystem, v: np.ndarray, n: int, seeds) -> np.ndarray:
    """n samples of the fiber over a disk point v.

    On a system with M+ (l > m) every fiber, origin and boundary included,
    is the turn (:func:`_turn`) of M+ samples, as :func:`mplus_sample` draws
    them, onto the fiber over v.  A boundary point, one whose lift height
    (:func:`_lift_height`) is 0, is first snapped to v/|v|, so its samples
    lie on the fiber the cone metric puts it on.  On a system without M+
    (l = m) every fiber is a boundary fiber, drawn as
    :func:`boundary_fiber_sample` draws it, and any other point raises
    EmptyFocalError.  A point (m+1,) with an int seed gives (n, 2l); k points
    (k, m+1) with k seeds give (k, n, 2l), fiber j equal bit for bit to the
    single call with seeds[j].
    """
    v, seeds, single = _seeded_rows(v, seeds, system.m + 1)
    with np.errstate(over="ignore"):  # a huge row's norm is inf and fails the check below
        r = row_norms(v)
    if not np.all(r <= 1.0 + 1e-12):
        raise ValueError("disk point has norm > 1 or is not finite")
    edge = _lift_height(r) == 0.0
    unit = v / np.where(edge, r, 1.0)[:, None]  # boundary rows snapped to v/|v|
    if system.l > system.m:
        x = _turn(system, unit, system.p0_assemble(*_mplus_rows(system, n, seeds)))
    elif np.all(edge):
        x = _boundary_rows(system, unit, n, seeds)
    else:
        raise EmptyFocalError("the quotient is the boundary sphere; M+ is empty")
    return x[0] if single else x


def _turn(system: CliffordSystem, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x turned in place to cos(t) x + sin(t) Qx, Q = v / |v| and t = arcsin(|v|) / 2 per row.

    Row j of v (k, m+1) turns x[j] (k, n, 2l) by one span action.  The turn
    takes M+ onto the fiber over sin(2t) Q = v (Ferus, Karcher and Muenzner),
    at t = pi/4 onto the boundary fiber over Q; |v| is clipped to 1 in the
    arcsine, so rows a rounding above 1 turn by pi/4.  Rows with
    |v| <= 1e-12 stay, and only the others reach the span action.
    """
    r = row_norms(v)
    mid = np.flatnonzero(r > 1e-12)
    if len(mid) < len(r):
        if len(mid):
            x[mid] = _turn(system, v[mid], x[mid])
        return x
    t = (np.arcsin(np.minimum(r, 1.0)) / 2.0)[:, None, None]
    qx = system.span_apply(v / r[:, None], x)
    qx *= np.sin(t)
    x *= np.cos(t)
    x += qx
    return x


# --------------------------------------------------------------------------- #
# Differential of pi_C and the quartic form
# --------------------------------------------------------------------------- #

def _pi_rows(system: CliffordSystem, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The :func:`pi_jacobian_rows` at float x, unchecked, given v = pi_C(x).

    v is :func:`_quadratic_values` of x, as :func:`pi_c` gives it; the rows
    2 (P_i x - v_i x) are formed in the (..., m+1, 2l) image stack, in place,
    where doubling is exact.
    """
    px = system.generator_images(x)
    px -= v[..., None] * x[..., None, :]
    px *= 2.0
    return px


def pi_jacobian_rows(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """Rows X_{P_i}(x) = 2 P_i x - 2 <P_i x, x> x of the differential of pi_C.

    Shape x.shape[:-1] + (m+1, 2l): (m+1, 2l) for a single point.
    """
    x = np.asarray(x, dtype=float)
    _check_width(system, x)
    return _pi_rows(system, x, _quadratic_values(system, x))


def fkm_f0(system: CliffordSystem, x: np.ndarray):
    """The quartic isoparametric form on the sphere, computed two ways.

    Returns (direct, factored) where direct = <x,x>^2 - 2 sum <P_i x, x>^2 and
    factored = 1 - 2 |pi_C(x)|^2; on the unit sphere the two agree to roundoff.
    direct takes each <P_i x, x> as the row dot of x with its full-width
    :meth:`~CliffordSystem.generator_images`, in :func:`_blocks` slices, and
    factored takes :func:`pi_c`'s E_+-(P_0) kernel, so they share no arithmetic.
    """
    v = pi_c(system, x)
    x = np.asarray(x, dtype=float)
    q = _in_blocks(system, x, lambda y: row_dots(system.generator_images(y), y[:, None, :]),
                   (system.m + 1) * system.dim)
    sq = np.sum(np.square(x), axis=-1)
    direct = sq * sq - 2.0 * np.sum(q * q, axis=-1)
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
    # generator images and one BLAS dot per Q_i, both row by row: rows equal singles
    q = row_dots(system.generator_images(g.x_plus), g.x_minus[..., None, :])
    return np.array(g.p_coords, dtype=float), q


# --------------------------------------------------------------------------- #
# Quotient metric via the hemisphere lift
# --------------------------------------------------------------------------- #

def _lift_height(r) -> np.ndarray:
    """Lift height sqrt(1 - r^2) over radii r, snapped: r is on the boundary iff it is 0."""
    return snapped_sqrt(1.0 - r * r)


def quotient_lift(v: np.ndarray) -> np.ndarray:
    """Lift of a disk point to the radius-1/2 upper hemisphere in R^(m+2).

    lambda(v) = (v, sqrt(1 - |v|^2)) / 2; the curvature-4 quotient metric on
    the disk is the round metric of this hemisphere.  The height snaps as
    :func:`_lift_height` snaps it, from |v|^2 summed here, so boundary points
    up to accumulated roundoff lift with height exactly zero.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # a huge row's r2 is inf and fails the check below
        r2 = np.sum(v * v, axis=-1)
    if not np.all(r2 <= 1.0 + 2e-12):
        raise ValueError("disk point has norm > 1 or is not finite")
    height = snapped_sqrt(1.0 - r2)
    return 0.5 * np.concatenate([v, np.expand_dims(height, -1)], axis=-1)


def quotient_distance(v: np.ndarray, w: np.ndarray):
    """Distance in the curvature-4 disk: half the angle between the lifted points.

    Half the :func:`~clifford_foliations.algebra.unit_angle` of the unit lifts
    2 :func:`quotient_lift`; a pair of points gives a float, paired rows an array.
    """
    theta = unit_angle(2.0 * quotient_lift(v), 2.0 * quotient_lift(w))
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
