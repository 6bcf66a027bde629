"""Geometry of the quotient map pi_C and its fibers.

For a Clifford system C = (P_0, ..., P_m) on R^(2l), the map

    pi_C(x) = (<P_0 x, x>, ..., <P_m x, x>)

sends the unit sphere S^(2l-1) into the closed unit disk of R^(m+1); its
fibers are the leaves of the Clifford foliation.  This module evaluates
pi_C, samples its fibers with one sampler, :func:`fiber_sample` (boundary
fibers as unit spheres of E_+(P), every other fiber through the
cos(t) x + sin(t) Qx turn of the focal manifold M+ over the origin), exposes
the quartic form that factors through pi_C, horizontal geodesics and their
projections, the curvature-4 metric on the quotient disk realized by a
radius-1/2 hemisphere lift, and the reflection / spin symmetries.
"""

from __future__ import annotations

import numpy as np

from .algebra import (_blocks, _count, check_unit, eig_split, gaussian_rows, redraw_short_rows,
                      rng_streams, row_dots, row_norms, sample_unit_vectors, snapped_sqrt,
                      unit_angle)
from .clifford import CliffordSystem

__all__ = [
    "pi_c",
    "eig_split",
    "boundary_fiber_sample",
    "mplus_sample",
    "fiber_sample",
    "pi_jacobian_rows",
    "fkm_f0",
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
    :mod:`~clifford_foliations.homogeneity`'s pi_C(u, v) = (|u|^2 - |v|^2,
    2 sum_i u_i conj(v_i)) on F^k, for m in {1, 2, 4}, is this formula's case.
    """
    u, w = system.p0_coefficients(x)
    out = np.empty(x.shape[:-1] + (system.m + 1,))
    squares = np.multiply(u, u, order="C")
    squares -= w * w
    np.add.reduce(squares, axis=-1, out=out[..., 0])
    images = system.p0_images(u)
    images *= (w + w)[..., None, :]
    np.add.reduce(images, axis=-1, out=out[..., 1:])
    return out


def _unit_points(system: CliffordSystem, x) -> np.ndarray:
    """x as floats, after checking it holds unit points of R^(2l) along its last axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (system.dim,):
        raise ValueError(f"points must have shape (..., {system.dim}) = (..., 2l), got {x.shape}")
    return check_unit(x)


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
    x = _unit_points(system, x)
    return _in_blocks(system, x, lambda rows: _quadratic_values(system, rows), system.m * system.l)


# --------------------------------------------------------------------------- #
# Fiber samplers
# --------------------------------------------------------------------------- #

def _seeded_rows(points, seeds, width: int):
    """Rows of points as (k, width) floats, their k generators, and whether the call was single.

    A 1-D point takes one int seed and is a batch of one; k rows take k seeds, which
    :func:`rng_streams` reads.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != width:
        raise ValueError(f"points must have shape ({width},) or (k, {width})")
    rngs, single, rows = rng_streams(seeds), np.ndim(seeds) == 0, points.reshape(-1, width)
    if single != (points.ndim == 1) or len(rngs) != len(rows):
        raise ValueError("pass one seed per point: an int for a single point, "
                         "a (k,) array for k rows")
    return rows, rngs, single


def _boundary_rows(system: CliffordSystem, p: np.ndarray, n: int, rngs: list) -> np.ndarray:
    """n samples of each boundary fiber over the unit rows of p, (k, n, 2l), fiber j by rngs[j]."""
    z = gaussian_rows(rngs, (n, system.dim))
    z += system.span_apply(p, z)

    def draw(j, bad):
        fresh = rngs[j].standard_normal((int(np.sum(bad)), system.dim))
        return fresh + system.span_apply(p[j], fresh)

    return z / redraw_short_rows(z, draw)[..., None]


def _project_out(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows g[j] less their components along the orthonormal rows of w[j].

    Where the rows leave only a line (one more column than rows, l = m+1), most of g
    cancels and the first pass keeps its roundoff in the span, so a second pass follows.
    """
    for _ in range(2 if w.shape[-1] - w.shape[-2] == 1 else 1):
        g = g - np.einsum("nmd,nm->nd", w, np.einsum("nmd,nd->nm", w, g))
    return g


def _mplus_rows(system: CliffordSystem, n: int, rngs: list):
    """n samples of M+ per generator as E_+-(P_0) coefficients (u, w), each (k, n, l).

    The sample is u B_plus^T + w B_minus^T; each generator draws in the single call's order.
    """
    m, l = system.m, system.l
    u = sample_unit_vectors(rngs, l, n)
    g = gaussian_rows(rngs, (n, l))
    # P_1 x+, ..., P_m x+ are orthonormal vectors of E_-(P_0) at each
    # sample; their (rows, m, l) coefficients are built block by block
    for rows in _blocks(len(rngs), n * m * l):
        w = system.p0_images(u[rows]).reshape(-1, m, l)
        g[rows] = _project_out(w, g[rows].reshape(-1, l)).reshape(g[rows].shape)

    def draw(j, bad):
        fresh = rngs[j].standard_normal((int(np.sum(bad)), l))
        return _project_out(system.p0_images(u[j][bad]), fresh)

    # the halves of (x_plus + g / |g|) / sqrt(2), in place
    g /= redraw_short_rows(g, draw)[..., None]
    u /= np.sqrt(2.0)
    g /= np.sqrt(2.0)
    return u, g


def _fiber_rows(system: CliffordSystem, v: np.ndarray, r: np.ndarray, n: int,
                rngs: list) -> np.ndarray:
    """n samples of the fibers over the rows of v (k, m+1), of norms r, (k, n, 2l), by rngs.

    Boundary rows take :func:`_boundary_rows` at v/|v|, the others a :func:`_turn` of M+;
    a mixed batch draws each kind as a batch of its own, from its rows' generators.
    """
    edge = _lift_height(r) == 0.0
    if edge.all():
        return _boundary_rows(system, v / r[:, None], n, rngs)
    if system.l <= system.m:
        raise EmptyFocalError("the quotient is the boundary sphere; M+ is empty")
    if not edge.any():
        return _turn(system, v, system.p0_assemble(*_mplus_rows(system, n, rngs)))
    x = np.empty((len(v), n, system.dim))
    for rows in (np.flatnonzero(edge), np.flatnonzero(~edge)):
        x[rows] = _fiber_rows(system, v[rows], r[rows], n, [rngs[j] for j in rows])
    return x


def boundary_fiber_sample(system: CliffordSystem, p_coords: np.ndarray,
                          n: int, seeds) -> np.ndarray:
    """:func:`fiber_sample` over the unit rows p of p_coords, each snapped to p/|p|.

    p is checked to be a unit vector to 1e-9, and P = sum p_i P_i an involution to 1e-10:
    P^2 = |p|^2 Id on a Clifford system, so that is |p|^2 - 1, with no P @ P formed.
    """
    p = check_unit(p_coords, "span element")
    r = row_norms(p)
    if not np.all(np.abs(r * r - 1.0) <= 1e-10):
        raise ValueError("span element is not an involution to 1e-10")
    return fiber_sample(system, p / r[..., None], n, seeds)


def mplus_sample(system: CliffordSystem, n: int, seeds) -> np.ndarray:
    """n samples of the focal manifold M+: :func:`fiber_sample` at the disk origin."""
    return fiber_sample(system, np.zeros(np.shape(seeds) + (system.m + 1,)), n, seeds)


def fiber_sample(system: CliffordSystem, v: np.ndarray, n: int, seeds) -> np.ndarray:
    """n samples of the fiber over a disk point v: the one sampler of every fiber.

    A point whose lift height (:func:`_lift_height`) is 0 is on the boundary: it is snapped
    to v/|v|, the fiber the cone metric puts it on, the unit sphere of E_+(P) for P =
    sum v_i P_i.  A Gaussian y in R^(2l) maps to y + Py, twice its projection onto E_+(P),
    which normalised is uniform there, with no eigenbasis.  Every other fiber is the
    :func:`_turn` of M+ = pi_C^(-1)(0), whose samples are (x_plus + x_minus)/sqrt(2): x_plus
    uniform on the unit sphere of E_+(P_0), x_minus on that of the complement of
    span(P_1 x_plus, ..., P_m x_plus) in E_-(P_0), of dimension l - m.  So for l = m M+ is
    empty and a point off the boundary raises EmptyFocalError; for l = m+1 the fibers are
    disconnected (the ``factorization_m_plus_1`` suite's witness).  Gaussian rows shorter
    than 1e-8 are redrawn.  A point (m+1,) with an int seed gives (n, 2l); k points (k, m+1)
    with k seeds give (k, n, 2l), fiber j bit for bit the single call with seeds[j].
    """
    v, rngs, single = _seeded_rows(v, seeds, system.m + 1)
    n = _count(n, "n", 0)
    x = _fiber_rows(system, v, _disk_radii(v), n, rngs)
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
    mid = r > 1e-12
    if not mid.all():
        if mid.any():
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

    Shape x.shape[:-1] + (m+1, 2l): (m+1, 2l) for a single point; x is checked
    as :func:`pi_c` checks it.
    """
    x = _unit_points(system, x)
    return _pi_rows(system, x, _quadratic_values(system, x))


def fkm_f0(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """The quartic isoparametric form <x,x>^2 - 2 sum <P_i x, x>^2 on the unit sphere.

    x is checked as :func:`pi_c` checks it: points of width 2l, each a unit vector.
    Each <P_i x, x> is the row dot of x with its full-width
    :meth:`~CliffordSystem.generator_images`, in :func:`_blocks` slices, so the form
    shares no arithmetic with pi_c's E_+-(P_0) kernel and 1 - 2 |pi_C(x)|^2, its
    factorization through the quotient map, is an independent second evaluation.
    """
    x = _unit_points(system, x)
    q = _in_blocks(system, x, lambda y: row_dots(system.generator_images(y), y[:, None, :]),
                   (system.m + 1) * system.dim)
    sq = row_dots(x, x)
    return sq * sq - 2.0 * row_dots(q, q)


# --------------------------------------------------------------------------- #
# Horizontal geodesics
# --------------------------------------------------------------------------- #

def random_horizontal_geodesic(system: CliffordSystem, seeds) -> tuple:
    """(p, x_plus, x_minus): a uniform unit span element P and uniform unit x_+- in E_+-(P).

    E_-(P) is E_+(-P), so both endpoints are boundary-fiber samples over +-P, drawn with
    seeds from the geodesic's own generator.  An int seed gives one geodesic; a (k,) seed
    array gives k geodesics as rows, row j equal bit for bit to the geodesic of seeds[j],
    with all 2k endpoints drawn in one sampler call.
    """
    rngs = rng_streams(seeds)
    k = len(rngs)
    p = sample_unit_vectors(rngs, system.m + 1, 1)[:, 0]
    ends = np.empty((2, k), dtype=np.int64)
    for j, rng in enumerate(rngs):
        ends[:, j] = rng.integers(2**62), rng.integers(2**62)
    x = fiber_sample(system, np.concatenate([p, -p]), 1, ends.ravel())[:, 0]
    rows = (p, x[:k], x[k:])
    return tuple(a[0] if np.ndim(seeds) == 0 else a for a in rows)


def geodesic_eval(x_plus: np.ndarray, x_minus: np.ndarray, t) -> np.ndarray:
    """gamma(t) = cos(t) x_minus + sin(t) x_plus, of shape t.shape + x_minus.shape."""
    t = np.asarray(t, dtype=float)
    return np.multiply.outer(np.cos(t), x_minus) + np.multiply.outer(np.sin(t), x_plus)


def project_geodesic_params(system: CliffordSystem, x_plus, x_minus) -> np.ndarray:
    """Q_i = <P_i x_plus, x_minus> row by row, so pi_C(gamma(t)) = -cos(2t) P + sin(2t) Q.

    Both endpoints are checked as :func:`pi_c` checks its points.
    """
    x_plus, x_minus = _unit_points(system, x_plus), _unit_points(system, x_minus)
    # generator images and one row dot per Q_i, both row by row: rows equal singles
    return row_dots(system.generator_images(x_plus), x_minus[..., None, :])


# --------------------------------------------------------------------------- #
# Quotient metric via the hemisphere lift
# --------------------------------------------------------------------------- #

def _lift_height(r) -> np.ndarray:
    """Lift height sqrt(1 - r^2) over radii r, snapped: r is on the boundary iff it is 0."""
    return snapped_sqrt(1.0 - r * r)


def _disk_radii(v: np.ndarray) -> np.ndarray:
    """:func:`row_norms` of disk points v, after checking each is finite and at most 1 + 1e-12."""
    with np.errstate(over="ignore"):  # a huge row's norm is inf and fails the check below
        r = row_norms(v)
    if not (r <= 1.0 + 1e-12).all():
        raise ValueError("disk point has norm > 1 or is not finite")
    return r


def quotient_lift(v: np.ndarray) -> np.ndarray:
    """Lift of a disk point to the radius-1/2 upper hemisphere in R^(m+2).

    lambda(v) = (v, sqrt(1 - |v|^2)) / 2; the curvature-4 quotient metric on
    the disk is the round metric of this hemisphere.  The height is
    :func:`_lift_height` of |v|, the one boundary rule of the sampler, the cone
    metric and the estimator, so boundary points up to accumulated roundoff lift
    with height exactly zero.
    """
    v = np.asarray(v, dtype=float)
    height = _lift_height(_disk_radii(v))
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
    return -v + 2.0 * row_dots(v, p)[..., None] * p


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
    a = row_dots(v, p)[..., None]
    b = row_dots(v, q)[..., None]
    rest = v - a * p - b * q
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return rest + (c * a + s * b) * p + (-s * a + c * b) * q
