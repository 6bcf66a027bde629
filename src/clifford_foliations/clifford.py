"""Construction, combination, and classification of Clifford systems.

A Clifford system here is a family P_0, ..., P_m of symmetric matrices on
R^(2l) with P_i^2 = Id and P_i P_j = -P_j P_i for i != j.  Systems built by
this module are assembled from signed-permutation blocks, so the defining
relations hold in integer arithmetic and can be verified exactly.

The irreducible building block on R^(2 delta(m)) uses m-1 pairwise
anticommuting complex structures J_1, ..., J_{m-1} on R^(delta(m)):

    P_0(u, v) = (u, -v),   P_1(u, v) = (v, u),   P_{r+1}(u, v) = (J_r v, -J_r u)

A rank-(m+1) system of multiplicity k is the same pattern with J_r acting
blockwise on k copies, which keeps the coordinates in the (u, v) layout used
by the explicit group actions in :mod:`clifford_foliations.homogeneity`.
Flipping the sign of P_0 on j of the k blocks realizes the inequivalent
combinations that the trace invariant |tr(P_0 ... P_m)| tells apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .algebra import _blocks, _cd_gather, _identity, _kron, _mul, _transpose, eig_split, max_abs
from .reports import CheckResult, VerificationReport

__all__ = [
    "delta",
    "build_complex_structures",
    "build_system",
    "CliffordSystem",
    "Provenance",
    "EquivalenceProfile",
    "verify_relations",
    "trace_invariant",
    "equivalence_profile",
    "conjugate_system",
    "sub_system",
    "system_to_dict",
    "system_from_dict",
    "dimension_cap",
    "DEFAULT_DIM_CAP",
    "MalformedSystemError",
]

# Irreducible module dimension by rank - 1; periodic with factor 16 beyond 8.
_DELTA_SMALL = (1, 2, 4, 4, 8, 8, 8, 8)

DEFAULT_DIM_CAP = 512


class MalformedSystemError(ValueError):
    """A system whose dimensions are inconsistent with its rank, or a payload
    that does not describe a system."""


def delta(m: int) -> int:
    """Dimension of the irreducible module for m+1 generators."""
    if m < 1:
        raise ValueError("delta is defined for m >= 1")
    if m <= 8:
        return _DELTA_SMALL[m - 1]
    return 16 * delta(m - 8)


def dimension_cap() -> int:
    """Matrix size cap on 2l; overridable through CFL_MAX_DIM, a positive integer."""
    raw = os.environ.get("CFL_MAX_DIM")
    if raw and not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"CFL_MAX_DIM must be a positive integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_DIM_CAP


# --------------------------------------------------------------------------- #
# Anticommuting complex structures
# --------------------------------------------------------------------------- #

def _minimal_structures(n: int):
    """n pairwise anticommuting complex structures on R^(delta(n+1)), stacked.

    Up to n = 7 these are left multiplications by the imaginary units
    e_1..e_n of C, H or O (dimension delta(n+1)).
    """
    if n <= 7:
        cols, signs = _cd_gather(delta(n + 1))
        return cols[1:n + 1], signs[1:n + 1].astype(np.int64)
    if n == 8:
        cols, signs = _minimal_structures(7)
        # blockwise diag(J, -J), then the swap (u, v) -> (-v, u)
        swap = np.concatenate([np.arange(8, 16), np.arange(8)])
        flip = np.repeat([-1, 1], 8)
        return (np.vstack([np.hstack([cols, cols + 8]), swap]),
                np.vstack([np.hstack([signs, -signs]), flip]))
    # Periodicity: tensor the (n-8)-structure set against the volume element
    # of the 16-dimensional set, and keep the 16-dimensional set blockwise.
    sixteen = _minimal_structures(8)
    omega = reduce(_mul, zip(*sixteen))
    lower = _kron(_minimal_structures(n - 8), omega)
    upper = _kron(_identity(delta(n - 7)), sixteen)
    return np.vstack([lower[0], upper[0]]), np.vstack([lower[1], upper[1]])


def build_complex_structures(n: int, target_dim: int):
    """n anticommuting complex structures J_r on R^target_dim, as one gather pair.

    Returns ``(cols, signs)``, int arrays of shape (n, target_dim): entry i
    of J_r x is ``signs[r, i] * x[cols[r, i]]``.  ``target_dim`` must be
    delta(n+1) or an integer multiple of it; multiples act blockwise (one
    minimal block per copy), which is the layout of k components of a
    division-algebra column vector.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    minimal = delta(n + 1)
    if target_dim < minimal or target_dim % minimal:
        raise ValueError(
            f"target_dim {target_dim} is not a multiple of the minimal dimension {minimal}"
        )
    return _kron(_identity(target_dim // minimal), _minimal_structures(n))


# --------------------------------------------------------------------------- #
# Systems
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Provenance:
    """Construction record: multiplicity k and count of sign-flipped blocks."""

    k: int
    flips: int


@dataclass
class EquivalenceProfile:
    """(m, k, kappa): the data deciding geometric equivalence.

    kappa is the normalized trace invariant, defined only when m is a
    multiple of 4; otherwise the rank and multiplicity already pin the class
    down.  Two systems are geometrically equivalent iff their profiles agree.
    """

    m: int
    k: int
    kappa: Optional[int] = None

    def as_tuple(self):
        return (self.m, self.k, self.kappa)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "kappa": self.kappa}

    def __str__(self) -> str:
        kappa = "-" if self.kappa is None else str(self.kappa)
        return f"(m={self.m}, k={self.k}, kappa={kappa})"


@dataclass
class CliffordSystem:
    """A rank-(m+1) Clifford system on R^(2l).

    Exact systems (from :func:`build_system` or a signed_perm payload) hold
    their generators as signed permutations in one gather pair
    ``(cols, signs)``, int arrays of shape (m+1, 2l): entry r of P_i x is
    ``signs[i, r] * x[cols[i, r]]``.  Other systems (conjugated or loaded
    dense) hold one (m+1, 2l, 2l) float stack.  Treat instances as
    immutable: :attr:`p0_eigenbases`, the blocks of P_1..P_m between them
    and the indices derived from the generators are cached on first use.
    """

    m: int
    l: int
    generators: tuple
    provenance: Optional[Provenance] = None

    @property
    def dim(self) -> int:
        return 2 * self.l

    @property
    def exact(self) -> bool:
        return isinstance(self.generators, tuple)

    def dense_generator(self, i: int) -> np.ndarray:
        """P_i as a dense matrix: the stored one, or a fresh one for exact P_i."""
        if not self.exact:
            return self.generators[i]
        cols, signs = self.generators
        out = np.zeros((self.dim, self.dim))
        out[np.arange(self.dim), cols[i]] = signs[i]
        return out

    @cached_property
    def _signed_cols(self) -> np.ndarray:
        """cols + 2l [signs < 0]: where entry r of P_i x sits in the stack [x, -x]."""
        cols, signs = self.generators
        return cols + self.dim * (signs < 0)

    def generator_images(self, x: np.ndarray) -> np.ndarray:
        """P_i x for every generator, stacked: shape x.shape[:-1] + (m+1, 2l).

        Exact systems take one ``np.take`` from [x, -x] with the signed index
        :attr:`_signed_cols`, which returns a new C-contiguous stack whatever
        the batch size; a negation rounds nothing, so this equals gathering x
        and multiplying by the signs.  Dense systems take one stacked matmul
        against the transposed generators.
        """
        if self.exact:
            return np.take(np.concatenate((x, -x), axis=-1), self._signed_cols, axis=-1)
        gens_t = np.swapaxes(self.generators, -1, -2)
        if x.ndim == 1:
            return x @ gens_t
        return np.moveaxis(x[..., None, :, :] @ gens_t, -3, -2)

    @cached_property
    def p0_eigenbases(self):
        """Orthonormal bases (B_plus, B_minus) of E_+(P_0) and E_-(P_0).

        Computed once by :func:`~clifford_foliations.algebra.eig_split`, whose
        involution check runs on that first use.
        """
        return eig_split(self.dense_generator(0))

    @cached_property
    def _p0_coords(self):
        """The coordinates B_plus and B_minus select, one basis after the other, or None.

        Bases whose columns are distinct standard unit vectors (on every built
        system, in the SVD's column order, which need not ascend) select
        coordinates; any other pair of bases gives None.
        """
        coords = [_selected_coords(b) for b in self.p0_eigenbases]
        return None if any(c is None for c in coords) else np.concatenate(coords)

    @cached_property
    def _p0_order(self):
        """The slot of each coordinate of R^(2l) in [u, w], where the bases select coordinates."""
        return None if self._p0_coords is None else np.argsort(self._p0_coords)

    @cached_property
    def _p0_blocks(self):
        """The blocks R_i = B_minus^T P_i B_plus of P_1..P_m, from E_+(P_0) to E_-(P_0).

        Each P_i with i >= 1 anticommutes with P_0, so it maps E_+(P_0) onto
        E_-(P_0) as the l x l block R_i (and back as R_i^T).  An exact system
        whose bases select coordinates keeps them as one gather pair
        ``(cols, signs)`` of shape (m, l): entry r of u R_i^T is
        ``signs[i, r] * u[cols[i, r]]``, read off the rows of P_i at the
        coordinates of E_-(P_0), whose columns lie in E_+(P_0).  Other systems
        keep one (m, l, l) stack.
        """
        if self.exact and self._p0_coords is not None:
            cols, signs = self.generators
            c_minus = self._p0_coords[self.l:]
            return self._p0_order[cols[1:, c_minus]], signs[1:, c_minus]
        b_plus, b_minus = self.p0_eigenbases
        gens = np.array([self.dense_generator(i) for i in range(1, self.m + 1)])
        return b_minus.T @ gens.reshape(self.m, self.dim, self.dim) @ b_plus

    @cached_property
    def _p0_signed_cols(self) -> np.ndarray:
        """cols + l [signs < 0] of the gather pair :attr:`_p0_blocks`: indices into [u, -u]."""
        cols, signs = self._p0_blocks
        return cols + self.l * (signs < 0)

    def p0_images(self, u: np.ndarray) -> np.ndarray:
        """P_1 x, ..., P_m x in E_-(P_0) coefficients, for x = u B_plus^T in E_+(P_0).

        u holds rows (..., n, l); the result has shape (..., n, m, l), entry i
        u R_{i+1}^T.  A gather pair takes one ``np.take`` from [u, -u]; a stack
        takes one (n, l) @ (l, l) product per generator and batch of n rows,
        the product a single batch takes.
        """
        blocks = self._p0_blocks
        if isinstance(blocks, tuple):
            return np.take(np.concatenate((u, -u), axis=-1), self._p0_signed_cols, axis=-1)
        return np.moveaxis(u[..., None, :, :] @ np.swapaxes(blocks, -1, -2), -3, -2)

    def p0_span_apply(self, q: np.ndarray, u: np.ndarray, w: np.ndarray):
        """E_+-(P_0) coefficients of sum_i q_i P_i x for x = u B_plus^T + w B_minus^T.

        Rows q (k, m+1) act with row j on u[j] and w[j], both (k, n, l), and
        give (q_0 u + w B_q, u B_q^T - q_0 w) with B_q = sum_{i>=1} q_i R_i.
        B_q is built l x l one ``_blocks`` slice of rows at a time, and each
        product is the (n, l) @ (l, l) one a single row takes.
        """
        out_u, out_w = np.empty(u.shape), np.empty(w.shape)
        for rows in _blocks(len(q), self.l ** 2):
            b_q = _span_sum(q[rows, 1:], self._p0_blocks, self.l)
            np.matmul(w[rows], b_q, out=out_u[rows])
            np.matmul(u[rows], np.swapaxes(b_q, -1, -2), out=out_w[rows])
        q0 = q[:, 0, None, None]
        out_u += q0 * u
        out_w -= q0 * w
        return out_u, out_w

    def p0_assemble(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """u B_plus^T + w B_minus^T: the point of R^(2l) with E_+-(P_0) coefficients u, w.

        Where both bases select coordinates, [u, w] is permuted into place by
        one ``np.take``: the products' other terms are exact zeros, so the bits
        are the products'.  Other bases take the products.
        """
        if self._p0_order is None:
            b_plus, b_minus = self.p0_eigenbases
            out = u @ b_plus.T
            out += w @ b_minus.T
            return out
        return np.take(np.concatenate((u, w), axis=-1), self._p0_order, axis=-1)

    def span_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Dense matrix of sum_i coords[i] * P_i; rows of coords give a stack.

        coords of shape (m+1,) gives a (2l, 2l) matrix, (k, m+1) a (k, 2l, 2l)
        stack, summed by :func:`_span_sum`.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim not in (1, 2) or coords.shape[-1] != self.m + 1:
            raise ValueError("span coordinates must have length m+1")
        out = _span_sum(coords.reshape(-1, self.m + 1), self.generators, self.dim)
        return out.reshape(coords.shape[:-1] + (self.dim, self.dim))

    def span_trace(self, p: np.ndarray) -> float:
        """tr(sum_i p_i P_i) = sum_i p_i tr(P_i), without forming the matrix.

        An exact system reads each integer trace from its gather pair; a dense
        one takes ``np.trace`` of each generator.
        """
        if self.exact:
            traces = _gather_traces(*self.generators)
        else:
            traces = np.trace(self.generators, axis1=-2, axis2=-1)
        return float(np.asarray(p, dtype=float) @ traces)

    def span_apply(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x[j] @ P_j^T for span coordinate rows p (k, m+1) and x (k, n, 2l).

        A single p (m+1,) acts on x (..., 2l) as a batch of one.  P_j comes
        from :meth:`span_matrix` one ``_blocks`` slice of rows at a time;
        each product is the (n, 2l) @ (2l, 2l) one a single call makes.
        """
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p.ndim == 1:
            return self.span_apply(p[None], x.reshape(1, -1, self.dim)).reshape(x.shape)
        if x.ndim != 3 or len(p) != len(x):
            raise ValueError("pass one frame per row of x, with x of shape (k, n, 2l)")
        out = np.empty(x.shape)
        for rows in _blocks(len(x), self.dim ** 2):
            np.matmul(x[rows], np.swapaxes(self.span_matrix(p[rows]), -1, -2), out=out[rows])
        return out


def _selected_coords(basis: np.ndarray):
    """Row of the 1 in each column of an orthonormal basis of 0/1 entries, else None."""
    coords = np.argmax(basis, axis=0)
    if (np.count_nonzero(basis) == len(coords)
            and np.all(basis[coords, np.arange(len(coords))] == 1.0)):
        return coords
    return None


def _span_sum(rows: np.ndarray, blocks, width: int) -> np.ndarray:
    """sum_i rows[j, i] * A_i for each row j, shape (k, width, width).

    ``blocks`` holds the A_i as one gather pair or as one stack.  A gather
    pair is scattered into a zero stack for every nonzero coefficient: two
    anticommuting signed permutations (or blocks R_i, R_j with
    R_i R_j^T + R_j R_i^T = 0) never share a nonzero entry, since a shared
    entry at (r, c) would put +-2 on the diagonal of that sum, so the scatter
    equals the dense sum bit for bit.
    """
    out = np.zeros((len(rows), width, width))
    if isinstance(blocks, tuple):
        cols, signs = blocks
        j, i = np.nonzero(rows)
        # flat index of entry (j, r, cols[i, r]) of the stack
        at = (cols + np.arange(0, width ** 2, width))[i] + (j * width ** 2)[:, None]
        out.reshape(-1)[at] = rows[j, i, None] * signs[i]
        return out
    # zero coefficients add only zeros, which leave every entry's bits alone
    for i in np.flatnonzero(np.any(rows, axis=0)):
        out += rows[:, i, None, None] * blocks[i]
    return out


def _gather_traces(cols: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Traces of signed permutations given as gathers: the signs of the fixed rows."""
    return np.sum(np.where(cols == np.arange(cols.shape[-1]), signs, 0), axis=-1)


def build_system(m: int, k: int, flips: int = 0) -> CliffordSystem:
    """Rank-(m+1) system of multiplicity k on R^(2 k delta(m)), built exactly.

    ``flips`` of the k irreducible blocks carry -P_0 instead of P_0.  The
    degenerate pair (m, k) = (1, 1) is rejected: its boundary fibers are
    antipodal point pairs, which none of the geometry downstream supports.
    2l may not exceed :func:`dimension_cap`.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= flips <= k):
        raise ValueError("flips must lie in [0, k]")
    if (m, k) == (1, 1):
        raise ValueError("(m, k) = (1, 1) is degenerate (fibers are point pairs) and not supported")
    d = delta(m)
    l = k * d
    cap = dimension_cap()
    if 2 * l > cap:
        raise ValueError(f"system dimension 2l = {2 * l} exceeds the cap {cap}"
                         " (override with CFL_MAX_DIM)")

    j_cols, j_signs = build_complex_structures(m - 1, l)
    idx = np.arange(2 * l)

    # block sign pattern for P_0: flipped blocks first
    eps = np.ones(l, dtype=np.int64)
    eps[:flips * d] = -1
    # P_0 (u, v) = (u, -v), P_1 (u, v) = (v, u), P_(r+1) (u, v) = (J_r v, -J_r u)
    cols = np.vstack([idx, np.roll(idx, l), np.hstack([j_cols + l, j_cols])])
    signs = np.vstack([np.concatenate([eps, -eps]), np.ones(2 * l, dtype=np.int64),
                       np.hstack([j_signs, -j_signs])])
    return CliffordSystem(m, l, (cols, signs), Provenance(k, flips))


# --------------------------------------------------------------------------- #
# Relations, invariants, equivalence
# --------------------------------------------------------------------------- #

def _gather_gap(cols_a, signs_a, cols_b, signs_b, sign: int) -> float:
    """max |A + sign B| for signed permutations given as gathers, over all leading axes.

    Row r of A x is signs_a[r] x[cols_a[r]].  A row whose columns differ
    contributes 1, any other row |signs_a[r] + sign signs_b[r]|.
    """
    rowwise = np.where(cols_a == cols_b, np.abs(signs_a + sign * signs_b), 1)
    return float(np.max(rowwise, initial=0))


def _relation_violations(system: CliffordSystem):
    """Largest entries of P_i^T - P_i, P_i^2 - Id and P_i P_j + P_j P_i (i < j).

    Exact systems compare gather forms: P_i P_j gathers cols_j[cols_i] with
    signs s_i s_j[cols_i].  Dense systems multiply out.
    """
    if system.exact:
        cols, signs = system.generators
        gens = np.arange(system.m + 1)
        pair_cols = cols[gens[None, :, None], cols[:, None, :]]  # [i, j] = P_i P_j
        pair_signs = signs[:, None, :] * signs[gens[None, :, None], cols[:, None, :]]
        t_cols, t_signs = _transpose(system.generators)
        diag_cols, diag_signs = pair_cols[gens, gens], pair_signs[gens, gens]
        i, j = np.triu_indices(system.m + 1, 1)
        sym = _gather_gap(t_cols, t_signs, cols, signs, -1)
        invol = _gather_gap(diag_cols, diag_signs, np.arange(system.dim), 1, -1)
        anti = _gather_gap(pair_cols[i, j], pair_signs[i, j], pair_cols[j, i], pair_signs[j, i], 1)
        return sym, invol, anti
    eye = np.eye(system.dim)
    sym = invol = anti = 0.0
    dense = system.generators
    # np.maximum keeps a NaN violation, where max() would drop it
    for i, p in enumerate(dense):
        sym = np.maximum(sym, max_abs(p.T - p))
        invol = np.maximum(invol, max_abs(p @ p - eye))
        for q in dense[i + 1:]:
            anti = np.maximum(anti, max_abs(p @ q + q @ p))
    return float(sym), float(invol), float(anti)


def verify_relations(system: CliffordSystem) -> VerificationReport:
    """Check symmetry, involutivity, and pairwise anticommutation.

    The tolerance is 0 for exact (signed-permutation) systems and 1e-12 for
    dense ones.
    """
    tol = 0.0 if system.exact else 1e-12
    sym, invol, anti = _relation_violations(system)
    checks = [
        CheckResult.from_violation("symmetry", "each generator equals its transpose", sym, tol),
        CheckResult.from_violation("involution", "each generator squares to the identity", invol, tol),
        CheckResult.from_violation("anticommutation", "distinct generators anticommute", anti, tol),
    ]
    return VerificationReport.from_checks("relations", 0, 0, checks)


def trace_invariant(system: CliffordSystem) -> float:
    """|tr(P_0 P_1 ... P_m)| / (2 delta(m)).

    Normalized so built systems of multiplicity k with j flipped blocks give
    |k - 2j| when m is a multiple of 4; for other m the product is traceless
    and the value is 0.
    """
    if system.exact:
        tr = float(_gather_traces(*reduce(_mul, zip(*system.generators))))
    else:
        tr = float(np.trace(reduce(np.matmul, system.generators)))
    return abs(tr) / (2.0 * delta(system.m))


def equivalence_profile(system: CliffordSystem) -> EquivalenceProfile:
    """Profile (m, k, kappa) deciding the geometric equivalence class."""
    d = delta(system.m)
    if system.provenance is not None:
        k = system.provenance.k
        if system.l != k * d:
            raise MalformedSystemError(f"l = {system.l} does not equal k*delta(m) = {k * d}")
    else:
        if system.l % d:
            raise MalformedSystemError(f"l = {system.l} is not divisible by delta({system.m}) = {d}")
        k = system.l // d
    kappa = int(round(trace_invariant(system))) if system.m % 4 == 0 else None
    return EquivalenceProfile(system.m, k, kappa)


def conjugate_system(system: CliffordSystem, a: np.ndarray) -> CliffordSystem:
    """System with generators A^T P_i A for orthogonal A (dense result)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (system.dim, system.dim):
        raise ValueError("conjugating matrix has the wrong shape")
    if max_abs(a.T @ a - np.eye(system.dim)) > 1e-12:
        raise ValueError("conjugating matrix is not orthogonal to 1e-12")
    gens = np.stack([a.T @ system.dense_generator(i) @ a for i in range(system.m + 1)])
    return CliffordSystem(system.m, system.l, gens, system.provenance)


def sub_system(system: CliffordSystem, indices: Sequence[int]) -> CliffordSystem:
    """Restriction to a nonempty subsequence of the generators."""
    indices = list(indices)
    if not indices:
        raise ValueError("sub_system needs at least one generator index")
    if any(i < 0 or i > system.m for i in indices):
        raise ValueError("generator index out of range")
    gens = system.generators
    gens = (gens[0][indices], gens[1][indices]) if system.exact else gens[indices]
    return CliffordSystem(len(indices) - 1, system.l, gens, None)


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #

def system_to_dict(system: CliffordSystem, encoding: Optional[str] = None) -> dict:
    """JSON-ready form; signed_perm encoding round-trips losslessly."""
    if encoding is None:
        encoding = "signed_perm" if system.exact else "dense"
    if encoding == "signed_perm" and not system.exact:
        raise ValueError("system has dense generators; use dense encoding")
    if encoding == "signed_perm":
        # column j of P_i holds signs[i, j] at row rows[i, j]: P_i^T's gather pair
        rows, signs = _transpose(system.generators)
        payload = np.stack([rows, signs], axis=-1).tolist()
    elif encoding == "dense":
        payload = [system.dense_generator(i).ravel().tolist()
                   for i in range(system.m + 1)]
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    prov = None
    if system.provenance is not None:
        prov = {"k": system.provenance.k, "flips": system.provenance.flips}
    return {
        "m": system.m,
        "l": system.l,
        "provenance": prov,
        "encoding": encoding,
        "generators": payload,
    }


def system_from_dict(data: dict) -> CliffordSystem:
    """Inverse of :func:`system_to_dict`.

    Any payload that does not describe a system (not a JSON object, a missing
    key, a field of the wrong type or shape) raises :class:`MalformedSystemError`.
    """
    if not isinstance(data, dict):
        raise MalformedSystemError("system payload must be a JSON object")
    missing = [key for key in ("m", "l", "encoding", "generators") if key not in data]
    if missing:
        raise MalformedSystemError(f"system payload lacks {', '.join(missing)}")
    try:
        return _system_from_fields(data)
    except MalformedSystemError:
        raise
    except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
        raise MalformedSystemError(f"malformed system payload: {exc}") from exc


def _require_types(values, kinds: set, message: str) -> None:
    """Raise MalformedSystemError(message) unless each value's type is in kinds.

    Types are compared exactly: a bool is an int to Python but not to JSON,
    and a float or string would otherwise cast silently.
    """
    if not set(map(type, values)) <= kinds:
        raise MalformedSystemError(message)


def _system_from_fields(data: dict) -> CliffordSystem:
    m, l = data["m"], data["l"]
    prov = data.get("provenance")
    _require_types([m, l] + ([prov["k"], prov["flips"]] if prov else []), {int},
                   "m, l and the provenance's k and flips must be integers")
    if m < 1 or l < 1:
        raise MalformedSystemError("m and l must be at least 1")
    encoding = data["encoding"]
    payload = data["generators"]
    if len(payload) != m + 1:
        raise MalformedSystemError("generator count does not match rank")
    if encoding == "signed_perm":
        if any(len(pairs) != 2 * l for pairs in payload):
            raise MalformedSystemError("each signed_perm generator must list 2l columns")
        scatter = np.array(payload, dtype=object)
        if scatter.shape != (m + 1, 2 * l, 2):
            raise MalformedSystemError("signed_perm columns must be [row, sign] pairs")
        _require_types(scatter.flat, {int}, "signed_perm rows and signs must be integers")
        scatter = scatter.astype(np.int64)
        rows, signs = scatter[..., 0], scatter[..., 1]
        if np.any(np.sort(rows, axis=1) != np.arange(2 * l)):
            raise MalformedSystemError("signed_perm row targets must form a permutation")
        if np.any(np.abs(signs) != 1):
            raise MalformedSystemError("signed_perm signs must be +-1")
        gens = _transpose((rows, signs))
    elif encoding == "dense":
        _require_types(chain.from_iterable(payload), {int, float}, "dense entries must be numbers")
        gens = np.stack([np.array(cols, dtype=float).reshape(2 * l, 2 * l)
                         for cols in payload])
    else:
        raise MalformedSystemError(f"unknown encoding {encoding!r}")
    provenance = Provenance(prov["k"], prov["flips"]) if prov else None
    system = CliffordSystem(m, l, gens, provenance)
    # inf/NaN entries fail the checks; numpy need not warn about them first
    with np.errstate(invalid="ignore", over="ignore"):
        _check_loaded(system)
    return system


def _check_loaded(system: CliffordSystem) -> None:
    """Reject a loaded system that breaks the relations or its provenance.

    Relations are checked exactly for signed permutations and to 1e-12 for
    dense generators; a provenance must match l = k delta(m), have
    0 <= flips <= k and, when m is a multiple of 4, give kappa = |k - 2 flips|.
    """
    report = verify_relations(system)
    for check in report.checks:
        if not check.passed:
            raise MalformedSystemError(
                f"generators fail the {check.name} relation: violation {check.violation:.3g}"
                f" exceeds {check.tol:.3g}")
    prov = system.provenance
    if prov is None:
        return
    if not 0 <= prov.flips <= prov.k:
        raise MalformedSystemError(f"provenance flips = {prov.flips} is outside [0, k = {prov.k}]")
    kappa = equivalence_profile(system).kappa
    if kappa is not None and kappa != abs(prov.k - 2 * prov.flips):
        raise MalformedSystemError(
            f"provenance gives |k - 2 flips| = {abs(prov.k - 2 * prov.flips)}"
            f" but the trace invariant is {kappa}")
