"""Explicit group actions on the fibers and the homogeneity decision table.

For the standard-layout systems with m in {1, 2, 4}, the sphere S^(2l-1)
sits inside F^k x F^k for F = R, C, H (dim_R F = m), and

    pi_C(u, v) = (|u|^2 - |v|^2, 2 sum_i u_i conj(v_i))  in  R + F.

The classical groups SO(k) / SU(k) / Sp(k) act on F^k by unitary matrices;
here the action is in the row-vector convention u -> u g (scalars multiply
vector components on the right).  That convention leaves sum_i u_i conj(v_i)
invariant over the quaternions too, so the diagonal action on F^k x F^k
preserves every component of pi_C and the orbits fill out the fibers.  The
fibers themselves are pinned down by a normal form (u1, v1, v2) computed from
pi_C alone.

Homogeneity of a whole Clifford foliation is a function of the equivalence
profile only; :func:`classify_homogeneity` is that decision table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (_count, _index, cd_mul, cd_units, check_unit, gaussian_rows, rng_streams,
                      row_dots, row_norms, sign_fixed_q, sign_fixed_rotation, snapped_sqrt)
from .clifford import EquivalenceProfile, delta

__all__ = [
    "ORBIT_RANKS",
    "sample_group_element",
    "diagonal_act",
    "normal_form",
    "HomogeneityVerdict",
    "classify_homogeneity",
]

ORBIT_RANKS = (1, 2, 4)  # m = dim_R F for F = R, C, H


def _orbit_rank(m) -> int:
    """m as an int: a TypeError off the integers, a ValueError off :data:`ORBIT_RANKS`."""
    m = _index(m, "m")
    if m not in ORBIT_RANKS:
        raise ValueError(f"m must be one of ORBIT_RANKS = {ORBIT_RANKS}, got {m}")
    return m


# --------------------------------------------------------------------------- #
# Scalar arithmetic on component arrays
# --------------------------------------------------------------------------- #

def _f_conj(a: np.ndarray) -> np.ndarray:
    """Conjugates of scalars of F given as component arrays (..., dim F)."""
    out = -np.asarray(a, dtype=float)
    out[..., 0] = -out[..., 0]
    return out


def _right_mult_matrices(q: np.ndarray) -> np.ndarray:
    """Real d x d matrices of x -> x * q on F, for q of shape (..., d).

    Column s is e_s q = sum_j signs[s, j] q_j e_rows[s, j], a signed copy of
    q placed by the unit table.
    """
    d = q.shape[-1]
    rows, signs = cd_units(d)
    out = np.empty(q.shape + (d,))
    out[..., rows, np.arange(d)[:, None]] = signs * q[..., None, :]
    return out


# --------------------------------------------------------------------------- #
# Group elements
# --------------------------------------------------------------------------- #

def _quaternionic_unitary(g: np.ndarray) -> np.ndarray:
    """Gram-Schmidt over H on a stack g (n, k, k, 4) of Gaussian draws.

    Columns come out orthonormal for <a, b> = sum conj(a_i) b_i, each
    matrix bit for bit as alone.
    """
    n, k = g.shape[:2]
    for j in range(k):
        for _ in range(2):  # re-orthogonalize once for full precision
            for a in range(j):
                # <col_a, col_j> in H, then col_j -= col_a * overlap
                ov = np.cumsum(cd_mul(_f_conj(g[:, :, a]), g[:, :, j]), axis=-2)[:, -1]
                g[:, :, j] -= cd_mul(g[:, :, a], ov[:, None])
        g[:, :, j] /= row_norms(g[:, :, j].reshape(n, 4 * k))[:, None, None]
    return g


def sample_group_element(m: int, k: int, seeds) -> np.ndarray:
    """Haar-style sample from SO(k), SU(k), or Sp(k) (m = 1, 2, 4), as its action matrix.

    QR of a Gaussian with the usual sign / phase normalization; for C the determinant is
    brought to 1 by a global phase, for R by flipping the last column when needed.  The
    element g is returned as the orthogonal real matrix of u -> u g on F^k (components of
    u stored consecutively), of size L = k m: in block (i, j), column m j and rows m i to
    m i + m - 1 hold g_ji.  An int seed gives one (L, L) matrix; a seed array (n,) gives a
    stack (n, L, L), element j drawn from its own ``rng_from(seeds[j])`` stream and equal
    bit for bit to the element of that seed alone.  Fixed seed gives a bit-identical element.
    """
    m, k = _orbit_rank(m), _count(k, "k", 1)
    # each element's Gaussians, drawn as its single call draws them
    shape = {1: (k, k), 2: (2, k, k), 4: (k, k, 4)}[m]
    draws = gaussian_rows(rng_streams(seeds), shape)
    if m == 1:
        entries = sign_fixed_rotation(draws)[..., None]
    elif m == 2:
        q = sign_fixed_q(draws[:, 0] + 1j * draws[:, 1])
        # one scalar exp per element: the array form differs in the last bit
        phase = [np.exp(-1j * angle / k) for angle in np.angle(np.linalg.det(q))]
        q = q * np.array(phase)[:, None, None]
        entries = np.stack([q.real, q.imag], axis=-1)
    else:
        entries = _quaternionic_unitary(draws)
    # block (i, j) is the matrix of x -> x * entries[j, i]
    blocks = _right_mult_matrices(np.swapaxes(entries, -3, -2))
    mats = blocks.swapaxes(-3, -2).reshape(len(entries), k * m, k * m)
    return mats[0] if np.ndim(seeds) == 0 else mats


def diagonal_act(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Diagonal action on F^k x F^k: both halves of x transform by the action matrix mat.

    mat is a :func:`sample_group_element` matrix (L, L) and x has shape
    (..., 2L) in the standard (u, v) layout.  A stack (n, L, L) acts with
    matrix j on row j of x (n, 2L), as n single calls.
    """
    x = np.asarray(x, dtype=float)
    l = x.shape[-1] // 2
    if mat.shape[-1] != l:
        raise ValueError("group element does not match the point dimension")
    stacked = mat.ndim == 3
    if stacked:
        if x.shape != (len(mat), 2 * l):
            raise ValueError("a stack of n group elements acts on rows x of shape (n, 2l)")
        x = x[:, None]  # each row a batch of one for its own element
    mat_t = np.swapaxes(mat, -1, -2)
    out = np.concatenate([x[..., :l] @ mat_t, x[..., l:] @ mat_t], axis=-1)
    return out[:, 0] if stacked else out


# --------------------------------------------------------------------------- #
# Normal form
# --------------------------------------------------------------------------- #

def normal_form(x: np.ndarray, m: int) -> np.ndarray:
    """Normal form [u1, v1, v2] of a unit point of F^k x F^k under the diagonal group.

    It is the fiber representative (u1 e1, v1 e1 + v2 e2) with u1, v2 >= 0 and v1
    in F.  Its entries are functions of pi_C alone, so it is constant on fibers and
    two points have (numerically) equal normal forms exactly when their pi_C values
    agree.  x of shape (2l,) gives the array (m + 2,); rows (n, 2l) give
    (n, m + 2) in one evaluation, row j equal bit for bit to the form of x[j]
    alone.  m = dim F is one of :data:`ORBIT_RANKS`.
    """
    d = _orbit_rank(m)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("normal_form expects a point (2l,) or rows (n, 2l)")
    rows = check_unit(np.atleast_2d(x))
    l = rows.shape[-1] // 2
    if l % d:
        raise ValueError("point dimension is not a multiple of dim F")
    u = rows[:, :l].reshape(len(rows), l // d, d)
    v = rows[:, l:].reshape(len(rows), l // d, d)
    uu = row_dots(rows[:, :l], rows[:, :l])
    r0 = uu - row_dots(rows[:, l:], rows[:, l:])
    w_conj = _f_conj(np.cumsum(cd_mul(u, _f_conj(v)), axis=-2)[:, -1])
    u1 = snapped_sqrt((1.0 + r0) / 2.0)
    off = u1 > 1e-8
    v1 = np.zeros((len(rows), d))
    v2 = np.zeros(len(rows))
    v1[off] = w_conj[off] / u1[off, None]
    # v2 is the norm of v's component off the line F u, the residual
    # v - (conj(w) / |u|^2) u; sqrt(|v|^2 - |v1|^2) would cancel to
    # sqrt(eps / |u|^2)-sized noise where v2 vanishes
    resid = v[off] - cd_mul((w_conj[off] / uu[off, None])[:, None, :], u[off])
    v2[off] = row_norms(resid.reshape(len(resid), l))
    # u = 0: the group is transitive on the v-sphere, so v moves to e1
    v1[~off, 0] = snapped_sqrt((1.0 - r0[~off]) / 2.0)
    forms = np.concatenate([u1[:, None], v1, v2[:, None]], axis=-1)
    return forms[0] if x.ndim == 1 else forms


# --------------------------------------------------------------------------- #
# Decision table
# --------------------------------------------------------------------------- #

@dataclass
class HomogeneityVerdict:
    """Whether the foliation of a given profile is a group-orbit decomposition."""

    status: str  # "homogeneous" | "non_homogeneous" | "conditionally"
    group: Optional[str] = None
    condition: Optional[str] = None

    def __str__(self) -> str:
        detail = self.group or self.condition
        return self.status if detail is None else f"{self.status} ({detail})"


def classify_homogeneity(profile: EquivalenceProfile) -> HomogeneityVerdict:
    """Decision table over equivalence profiles, each one that some system has.

    l = m: the fibers are the Hopf fibrations, orbits of U(1) on S^3 and of Sp(1)
    on S^7; the fibration of S^15 over S^8 has no transitive fiber group.  m = 1,
    m = 2, and m = 4 with kappa = k (the generator product is +-Id): the diagonal
    SO(k), SU(k) or Sp(k) action on F^k x F^k fills the fibers (:func:`diagonal_act`).
    l = m+1: the fibers are antipodal sphere pairs, homogeneous at most per component.
    Every other profile is called non-homogeneous, after the source paper
    (arXiv:1401.2546) and Ferus, Karcher and Muenzner (Math. Z. 177, 1981); no
    check here computes these verdicts.
    """
    m, k, kappa = profile.m, profile.k, profile.kappa
    l = k * delta(m)
    group = None
    if l == m:
        group = {2: "U(1)", 4: "Sp(1)"}.get(m)
    elif m in (1, 2) or (m == 4 and kappa == k):
        group = {1: "SO", 2: "SU", 4: "Sp"}[m] + f"({k}) diagonal"
    elif l == m + 1:
        return HomogeneityVerdict("conditionally", condition="fibers disconnected (l = m+1)")
    return HomogeneityVerdict("homogeneous" if group else "non_homogeneous", group)
