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

from .algebra import (_count, cd_mul, cd_units, check_unit, gaussian_rows, rng_streams, row_dots,
                      row_norms, sign_fixed_q, sign_fixed_rotation, snapped_sqrt)
from .clifford import EquivalenceProfile, delta

__all__ = [
    "FIELD_DIM",
    "FIELD_FOR_M",
    "GroupElement",
    "sample_group_element",
    "diagonal_act",
    "NormalForm",
    "normal_form",
    "HomogeneityVerdict",
    "classify_homogeneity",
]

FIELD_DIM = {"R": 1, "C": 2, "H": 4}
FIELD_FOR_M = {1: "R", 2: "C", 4: "H"}


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

@dataclass
class GroupElement:
    """Unitary k x k matrix over F = R, C, or H, stored componentwise.

    ``entries`` has shape (k, k, dim F), or (n, k, k, dim F) for a stack of
    n elements.  ``action_matrix`` is the real representation of u -> u g on
    F^k (components of u stored consecutively), an orthogonal L x L matrix
    for L = k dim F, and (n, L, L) for a stack.
    """

    field: str
    k: int
    entries: np.ndarray

    def action_matrix(self) -> np.ndarray:
        n = self.k * FIELD_DIM[self.field]
        # block (i, j) is the matrix of x -> x * entries[j, i]
        blocks = _right_mult_matrices(np.swapaxes(self.entries, -3, -2))
        return blocks.swapaxes(-3, -2).reshape(self.entries.shape[:-3] + (n, n))


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


def sample_group_element(field: str, k: int, seeds) -> GroupElement:
    """Haar-style sample from SO(k), SU(k), or Sp(k) (field R, C, H).

    QR of a Gaussian with the usual sign / phase normalization; for C the
    determinant is brought to 1 by a global phase, for R by flipping the last
    column when needed.  An int seed gives one element, ``entries`` (k, k,
    dim F); a seed array (n,) gives a stack, ``entries`` (n, k, k, dim F),
    element j drawn from its own ``rng_from(seeds[j])`` stream and equal bit
    for bit to the element of that seed alone.  Fixed seed gives a
    bit-identical element.
    """
    k = _count(k, "k", 1)
    if field not in FIELD_DIM:
        raise ValueError(f"unknown field {field!r}")
    # each element's Gaussians, drawn as its single call draws them
    shape = {"R": (k, k), "C": (2, k, k), "H": (k, k, 4)}[field]
    draws = gaussian_rows(rng_streams(seeds), shape)
    if field == "R":
        entries = sign_fixed_rotation(draws)[..., None]
    elif field == "C":
        q = sign_fixed_q(draws[:, 0] + 1j * draws[:, 1])
        # one scalar exp per element: the array form differs in the last bit
        phase = [np.exp(-1j * angle / k) for angle in np.angle(np.linalg.det(q))]
        q = q * np.array(phase)[:, None, None]
        entries = np.stack([q.real, q.imag], axis=-1)
    else:
        entries = _quaternionic_unitary(draws)
    return GroupElement(field, k, entries[0] if np.ndim(seeds) == 0 else entries)


def diagonal_act(g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Diagonal action on F^k x F^k: both halves of x transform by g.

    x has shape (..., 2l) with l = k dim F in the standard (u, v) layout.  A
    stack of n elements acts with element j on row j of x (n, 2l), as n
    single calls.
    """
    x = np.asarray(x, dtype=float)
    l = x.shape[-1] // 2
    mat = g.action_matrix()
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

@dataclass
class NormalForm:
    """Fiber representative (u1 e1, v1 e1 + v2 e2) with u1, v2 >= 0, v1 in F.

    Its entries are functions of pi_C alone, so it is constant on fibers and
    two points have (numerically) equal normal forms exactly when their pi_C
    values agree.  The forms of n rows hold u1 and v2 as (n,) arrays and v1
    as (n, dim F).
    """

    u1: float | np.ndarray
    v1: np.ndarray
    v2: float | np.ndarray

    def as_array(self) -> np.ndarray:
        """(u1, v1, v2) along the last axis: (dim F + 2,), or (n, dim F + 2) for rows."""
        return np.concatenate([np.expand_dims(self.u1, -1), self.v1,
                               np.expand_dims(self.v2, -1)], axis=-1)


def normal_form(x: np.ndarray, field: str) -> NormalForm:
    """Normal form of a unit point of F^k x F^k under the diagonal group.

    x of shape (2l,) gives one form with float u1 and v2; rows (n, 2l) give
    the forms of all rows in one evaluation, row j equal bit for bit to the
    form of x[j] alone.
    """
    if field not in FIELD_DIM:
        raise ValueError(f"unknown field {field!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("normal_form expects a point (2l,) or rows (n, 2l)")
    rows = check_unit(np.atleast_2d(x))
    d = FIELD_DIM[field]
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
    if x.ndim == 1:
        return NormalForm(float(u1[0]), v1[0], float(v2[0]))
    return NormalForm(u1, v1, v2)


# --------------------------------------------------------------------------- #
# Decision table
# --------------------------------------------------------------------------- #

@dataclass
class HomogeneityVerdict:
    """Whether the foliation of a given profile is a group-orbit decomposition."""

    status: str  # "homogeneous" | "non_homogeneous" | "conditionally"
    group: Optional[str] = None
    condition: Optional[str] = None
    source: str = ""

    def __str__(self) -> str:
        if self.status == "homogeneous":
            return f"homogeneous ({self.group}) -- {self.source}"
        if self.status == "conditionally":
            return f"conditionally ({self.condition}) -- {self.source}"
        return f"non_homogeneous -- {self.source}"


def classify_homogeneity(profile: EquivalenceProfile) -> HomogeneityVerdict:
    """Decision table over equivalence profiles.

    Constructive cases carry the acting group; everything else is settled by
    the known classification of these foliations, quoted as plain statements.
    """
    m, k, kappa = profile.m, profile.k, profile.kappa
    if m < 1 or k < 1 or (m, k) == (1, 1):
        raise ValueError(f"unsupported profile {profile}")
    l = k * delta(m)
    if l == m:
        # quotient is the boundary sphere: the three Hopf projections
        if m == 2:
            return HomogeneityVerdict(
                "homogeneous", group="U(1)",
                source="quotient-sphere case: circle fibration of the 3-sphere over the 2-sphere")
        if m == 4:
            return HomogeneityVerdict(
                "homogeneous", group="Sp(1)",
                source="quotient-sphere case: unit-quaternion fibration of the 7-sphere over the 4-sphere")
        return HomogeneityVerdict(
            "non_homogeneous",
            source="quotient-sphere case: the 15-sphere fibration over the 8-sphere "
                   "is the unique regular foliation with no transitive fiber group")
    if m == 1 and k >= 2:
        return HomogeneityVerdict(
            "homogeneous", group=f"SO({k}) diagonal",
            source="orbits of the diagonal rotation action on R^k x R^k fill the fibers")
    if m == 2:
        return HomogeneityVerdict(
            "homogeneous", group=f"SU({k}) diagonal",
            source="orbits of the diagonal special-unitary action on C^k x C^k fill the fibers")
    if m == 4:
        if kappa == k:
            return HomogeneityVerdict(
                "homogeneous", group=f"Sp({k}) diagonal",
                source="generator product is +-Id (trace invariant at maximum), so the "
                       "diagonal symplectic action on H^k x H^k fills the fibers")
        return HomogeneityVerdict(
            "non_homogeneous",
            source="trace invariant below maximum: the generator product is not +-Id, "
                   "which rules out every transitive candidate action")
    if l == m + 1:
        return HomogeneityVerdict(
            "conditionally", condition="fibers disconnected (l = m+1)",
            source="the fibers split into antipodal sphere pairs, so leafwise "
                   "homogeneity is not defined for the fiber partition itself")
    if (m, k) == (9, 1):
        return HomogeneityVerdict(
            "non_homogeneous",
            source="rank-10 system on R^32: no isometry group of the required "
                   "dimension acts transitively on its 15-sphere leaves")
    return HomogeneityVerdict(
        "non_homogeneous",
        source="the codimension-one family of this system is already inhomogeneous, "
               "so the finer fiber foliation is too")
