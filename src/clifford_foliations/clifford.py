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

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .algebra import (_blocks, _cd_gather, _count, _identity, _index, _kron, _mul, _transpose,
                      eig_split, max_abs)
from .reports import CheckResult

__all__ = [
    "delta",
    "build_complex_structures",
    "build_system",
    "CliffordSystem",
    "EquivalenceProfile",
    "verify_relations",
    "trace_invariant",
    "equivalence_profile",
    "conjugate_system",
    "sub_system",
    "system_to_dict",
    "system_from_dict",
    "MalformedSystemError",
]

# Irreducible module dimension by rank - 1; periodic with factor 16 beyond 8.
_DELTA_SMALL = (1, 2, 4, 4, 8, 8, 8, 8)

# the largest 2l build_system makes: the widest system of the default plan, 2 * 4 delta(12)
_DIM_CAP = 512


class MalformedSystemError(ValueError):
    """A system whose dimensions are inconsistent with its rank, or a payload
    that does not describe a system."""


def delta(m: int) -> int:
    """Dimension of the irreducible module for m+1 generators, m >= 1."""
    m = _count(m, "m", 1)
    return 16 ** ((m - 1) // 8) * _DELTA_SMALL[(m - 1) % 8]


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
    n, target_dim = _count(n, "n", 0), _index(target_dim, "target_dim")
    minimal = delta(n + 1)
    if target_dim < minimal or target_dim % minimal:
        raise ValueError(
            f"target_dim {target_dim} is not a multiple of the minimal dimension {minimal}"
        )
    return _kron(_identity(target_dim // minimal), _minimal_structures(n))


# --------------------------------------------------------------------------- #
# Systems
# --------------------------------------------------------------------------- #

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

    def __post_init__(self):
        """Refuse a profile no system has: m, k or a kappa not an integer (TypeError), m or
        k below 1 or a kappa below 0, (m, k) = (1, 1), a kappa where 4 does not divide m,
        none where it does, or one off {k, k-2, ..., k mod 2}."""
        self.m, self.k = _count(self.m, "m", 1), _count(self.k, "k", 1)
        if self.kappa is not None:
            self.kappa = _count(self.kappa, "kappa", 0)
        kappas = range(self.k % 2, self.k + 1, 2) if self.m % 4 == 0 else (None,)
        if (self.m, self.k) == (1, 1) or self.kappa not in kappas:
            raise ValueError(f"no system has the profile {self}")

    def to_json_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "kappa": self.kappa}

    def __str__(self) -> str:
        kappa = "-" if self.kappa is None else str(self.kappa)
        return f"(m={self.m}, k={self.k}, kappa={kappa})"


@dataclass
class CliffordSystem:
    """A rank-(m+1) Clifford system on R^(2l): its generators P_0..P_m, and nothing else.

    Exact systems (from :func:`build_system` or a signed_perm payload) hold their
    generators as signed permutations in one gather pair ``(cols, signs)``, int arrays
    of shape (m+1, 2l): entry r of P_i x is ``signs[i, r] * x[cols[i, r]]``.  Other
    systems (conjugated or loaded dense) hold one (m+1, 2l, 2l) float stack.  The rank
    m+1, the width 2l, the multiplicity k and whether the generators are the
    construction's (:attr:`standard_layout`) are read off them, in either form.  Treat
    instances as immutable: m, l, k, that predicate, the diagonals of the generators, the
    E_+-(P_0) split (an index pair where P_0 is a +-1 diagonal) or :attr:`p0_eigenbases`,
    the blocks of P_1..P_m between them, their copy count and the signed indices are cached
    lazily.
    """

    generators: tuple

    def __post_init__(self):
        """Refuse a shape no system has, with a ValueError (on ``dataclasses.replace`` too):
        m below 1, l not a positive multiple of delta(m), and (m, k) = (1, 1)."""
        d = delta(self.m)
        if _count(self.l, "l", 1) % d:
            raise ValueError(f"l = {self.l} is not a multiple of delta(m) = "
                             f"2^{d.bit_length() - 1}")
        if (self.m, self.k) == (1, 1):
            raise ValueError("(m, k) = (1, 1) is degenerate (fibers are point pairs) and not"
                             " supported")

    @cached_property
    def m(self) -> int:
        """The generator count less one, read off :attr:`_diagonals`' shape (m+1, 2l)."""
        return len(self._diagonals) - 1

    @cached_property
    def l(self) -> int:
        """Half the generators' width, read off :attr:`_diagonals`' shape (m+1, 2l)."""
        return self._diagonals.shape[1] // 2

    @cached_property
    def k(self) -> int:
        """The multiplicity l / delta(m): the count of irreducible modules on R^(2l)."""
        return self.l // delta(self.m)

    @property
    def dim(self) -> int:
        return 2 * self.l

    @property
    def exact(self) -> bool:
        return isinstance(self.generators, tuple)

    def dense_generator(self, i: int) -> np.ndarray:
        """P_i as a dense matrix: the stored one, or :meth:`span_matrix` of e_i for exact P_i."""
        i = _count(i, "i", 0)
        if i > self.m:
            raise ValueError("generator index out of range")
        if not self.exact:
            return self.generators[i]
        return self.span_matrix(np.eye(self.m + 1)[i])

    @cached_property
    def standard_layout(self) -> bool:
        """Whether the generators are the unflipped ``build_system(m, k)``'s.

        The construction is built without the dimension cap and compared with the gather
        pair or the dense stack, entry for entry.  A sub-system keeping every generator, the
        identity conjugate and a dense copy of an unflipped built system read True; a flipped
        system, a conjugate that moves an entry and a coordinate-permuted file read False.
        """
        built = _construction(self.m, self.k, 0)
        if not self.exact:
            built = _span_sum(np.eye(self.m + 1), _scatter_index(built), self.dim)
        return all(map(np.array_equal, self.generators, built))

    @cached_property
    def _signed_cols(self):
        """The :func:`_signed_index` of the generators."""
        return _signed_index(self.generators)

    def generator_images(self, x: np.ndarray) -> np.ndarray:
        """P_i x for every generator by :func:`_images`: shape x.shape[:-1] + (m+1, 2l)."""
        return _images(self.generators, self._signed_cols, x)

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """The diagonals of P_0..P_m, shape (m+1, 2l): read off the gather pair, or the stack's."""
        if self.exact:
            return _gather_diagonal(*self.generators)
        return np.diagonal(self.generators, axis1=-2, axis2=-1)

    @cached_property
    def p0_eigenbases(self):
        """Orthonormal bases (B_plus, B_minus) of E_+(P_0) and E_-(P_0).

        Where P_0 is a +-1 diagonal, the unit columns at :attr:`_p0_split`;
        any other P_0 takes :func:`~clifford_foliations.algebra.eig_split`,
        whose involution check runs on that first use.
        """
        if self._p0_split is None:
            return eig_split(self.dense_generator(0))
        return tuple(np.eye(self.dim)[:, at] for at in self._p0_split)

    @cached_property
    def _p0_split(self):
        """The indices (plus, minus) of E_+(P_0) and E_-(P_0) in R^(2l), or None.

        Read off row 0 of :attr:`_diagonals` where P_0 has 2l nonzeros (a signed permutation
        always does), all +-1 on the diagonal and l of each sign (every built system, its
        sub-systems and its dense copy), which squares to Id exactly.  Each index lists its
        coordinates ascending: a slice where they form one run, so x[..., plus] is a view,
        else an int array.  Any other P_0 gives None.
        """
        diag = self._diagonals[0]
        nonzeros = self.dim if self.exact else np.count_nonzero(self.generators[0])
        if nonzeros != self.dim or np.any(np.abs(diag) != 1) or diag.sum():
            return None
        return tuple(slice(int(c[0]), int(c[-1]) + 1) if c[-1] - c[0] == self.l - 1 else c
                     for c in map(np.flatnonzero, (diag > 0, diag < 0)))

    @cached_property
    def _p0_blocks(self):
        """The blocks R_i = B_minus^T P_i B_plus of P_1..P_m, from E_+(P_0) to E_-(P_0).

        Each P_i with i >= 1 anticommutes with P_0, so it maps E_+(P_0) onto
        E_-(P_0) as the l x l block R_i (and back as R_i^T).  An exact system whose P_0
        is a +-1 diagonal reads R_i off its gather pair: P_i at rows E_-(P_0), a gather
        pair (m, l) with columns renumbered to slots of E_+(P_0).  Every other system
        multiplies out the stack (m, l, l) on :attr:`p0_eigenbases`; where those are unit
        columns every product term but one is an exact zero, so R_i holds P_i's entries
        bit for bit.
        """
        if not self.exact or self._p0_split is None:
            b_plus, b_minus = self.p0_eigenbases
            return b_minus.T @ self.span_matrix(np.eye(self.m + 1)[1:]) @ b_plus
        plus, minus = self._p0_split
        slot = np.zeros(self.dim, dtype=np.intp)
        slot[plus] = np.arange(self.l)
        return slot[self.generators[0][1:, minus]], self.generators[1][1:, minus]

    @cached_property
    def _p0_signed_cols(self):
        """The :func:`_signed_index` of the E_+-(P_0) blocks."""
        return _signed_index(self._p0_blocks)

    @cached_property
    def _p0_copies(self) -> int:
        """The largest count c of equal diagonal copies that the E_+-(P_0) blocks are, else 1.

        The gather pair of :attr:`_p0_blocks` is c copies where shifting its columns by one
        copy width d = l / c adds d to the indices and keeps the signs; each R_i, and so
        each B_p of :meth:`span_apply`, is then c equal d x d diagonal blocks.  The smallest
        such d dividing l gives c.  Built systems with no or every copy flipped, their
        signed_perm files and sub-systems are k copies of the irreducible module; a partial
        flip (its flipped copies' blocks differ) and a stack give 1.
        """
        if not isinstance(self._p0_blocks, tuple):
            return 1
        cols, signs = self._p0_blocks
        for d in range(1, self.l):
            if (not self.l % d and np.array_equal(cols[:, d:], cols[:, :-d] + d)
                    and np.array_equal(signs[:, d:], signs[:, :-d])):
                return self.l // d
        return 1

    @cached_property
    def _p0_scatter(self):
        """The :func:`_scatter_index` of the first of the :attr:`_p0_copies` of the E_+-(P_0)
        blocks (all of them where there is one), which :meth:`span_apply` sums."""
        c = self._p0_copies
        return _scatter_index(self._p0_blocks if c == 1
                              else tuple(a[:, :self.l // c] for a in self._p0_blocks))

    def p0_images(self, u: np.ndarray) -> np.ndarray:
        """P_1 x, ..., P_m x in E_-(P_0) coefficients, for x = u B_plus^T in E_+(P_0).

        u holds rows (..., n, l); the result has shape (..., n, m, l), entry i
        u R_{i+1}^T, by :func:`_images` on :attr:`_p0_blocks`.
        """
        return _images(self._p0_blocks, self._p0_signed_cols, u)

    def p0_assemble(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """u B_plus^T + w B_minus^T: the point of R^(2l) with E_+-(P_0) coefficients u, w.

        Where P_0 is a +-1 diagonal, u and w are written at :attr:`_p0_split`: the products'
        other terms are exact zeros, so the bits are the products'.  Other bases take the
        products, one (1, l) row at a time, so a row's bits do not depend on its batch.
        """
        if self._p0_split is None:
            b_plus, b_minus = self.p0_eigenbases
            out = (u[..., None, :] @ b_plus.T)[..., 0, :]
            out += (w[..., None, :] @ b_minus.T)[..., 0, :]
            return out
        plus, minus = self._p0_split
        out = np.empty(u.shape[:-1] + (self.dim,))
        out[..., plus], out[..., minus] = u, w
        return out

    def p0_coefficients(self, x: np.ndarray):
        """(u, w) = (x B_plus, x B_minus): the E_+-(P_0) coefficients, undoing :meth:`p0_assemble`.

        x holds points (..., 2l); u and w have shape (..., l).  Where P_0 is a +-1 diagonal
        they are the products' bits, read off x (made C-contiguous) at :attr:`_p0_split`: a
        view where the index is a slice, which callers only read, else a gather, which numpy
        lays out coordinate axis outermost.  Other bases take the products, one (1, 2l) row
        at a time as :meth:`p0_assemble` does.
        """
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"points must have shape (..., {self.dim}), got {x.shape}")
        if self._p0_split is None:
            b_plus, b_minus = self.p0_eigenbases
            return (x[..., None, :] @ b_plus)[..., 0, :], (x[..., None, :] @ b_minus)[..., 0, :]
        plus, minus = self._p0_split
        x = np.ascontiguousarray(x)
        return x[..., plus], x[..., minus]

    def span_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Dense matrix of sum_i coords[i] * P_i; rows of coords give a stack.

        coords of shape (m+1,) gives a (2l, 2l) matrix, (k, m+1) a (k, 2l, 2l)
        stack, summed by :func:`_span_sum`.  Only dense generators need it:
        :meth:`span_apply` acts through the blocks R_i (one copy wide) instead.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim not in (1, 2) or coords.shape[-1] != self.m + 1:
            raise ValueError("span coordinates must have length m+1")
        out = _span_sum(coords.reshape(-1, self.m + 1), _scatter_index(self.generators), self.dim)
        return out.reshape(coords.shape[:-1] + (self.dim, self.dim))

    def span_trace(self, p: np.ndarray) -> float:
        """tr(sum_i p_i P_i) = sum_i p_i tr(P_i), summed off :attr:`_diagonals`."""
        return float(np.asarray(p, dtype=float) @ self._diagonals.sum(axis=-1))

    def span_apply(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x[j] @ P_j^T with P_j = sum_i p[j, i] P_i, for rows p (k, m+1) and x (k, n, 2l).

        P_j is p_0 P_0 plus the l x l block B_p = sum_{i>=1} p_i R_i, so x
        with E_+-(P_0) coefficients (u, w) goes to the point with coefficients
        (p_0 u + w B_p, u B_p^T - p_0 w), read by :meth:`p0_coefficients`.
        The blocks are c :attr:`_p0_copies`, so B_p is c equal diagonal blocks of
        width d = l / c: one d x d block is summed and the n rows of u and w act as
        n c rows of width d (copied where they are views); c = 1 is the l x l block.
        B_p is summed one ``_blocks`` slice of frames at a time, and each product
        is the (n c, d) @ (d, d) one a single frame takes.  A single p (m+1,)
        acts on x (..., 2l) as a batch of one.
        """
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p.shape[-1:] != (self.m + 1,) or x.shape[-1:] != (self.dim,):
            raise ValueError(f"span coordinates need width m+1 = {self.m + 1}"
                             f" and points width 2l = {self.dim}")
        if p.ndim == 1:
            return self.span_apply(p[None], x.reshape(1, -1, self.dim)).reshape(x.shape)
        if p.ndim != 2 or x.ndim != 3 or len(p) != len(x):
            raise ValueError("pass one frame per row of x, with x of shape (k, n, 2l)")
        c = self._p0_copies
        width = self.l // c
        u, w = (a.reshape(len(p), x.shape[1] * c, width) for a in self.p0_coefficients(x))
        out_u, out_w = np.empty(u.shape), np.empty(w.shape)
        for rows in _blocks(len(p), width ** 2):
            b_p = _span_sum(p[rows, 1:], self._p0_scatter, width)
            np.matmul(w[rows], b_p, out=out_u[rows])
            np.matmul(u[rows], np.swapaxes(b_p, -1, -2), out=out_w[rows])
        p0 = p[:, 0, None, None]
        out_u += p0 * u
        out_w -= p0 * w
        shape = x.shape[:-1] + (self.l,)
        return self.p0_assemble(out_u.reshape(shape), out_w.reshape(shape))


def _span_sum(rows: np.ndarray, blocks, width: int) -> np.ndarray:
    """sum_i rows[j, i] * A_i for each row j, shape (k, width, width).

    ``blocks`` holds the A_i (the generators, or the first of the c equal diagonal
    copies of the blocks R_i that :meth:`CliffordSystem.span_apply` sums, all of R_i
    where c = 1) as the :func:`_scatter_index` of a gather pair or as one stack.  A
    gather pair is scattered into a zero stack in one write of every row's signed
    coefficients: two anticommuting signed permutations (or blocks R_i, R_j with
    R_i R_j^T + R_j R_i^T = 0) never share a nonzero entry, since a shared entry at
    (r, c) would put +-2 on the diagonal of that sum, so each entry is written once and
    the scatter equals the dense sum bit for bit.  A zero coefficient, 0 or -0.0, leaves +0.0 on its entries, as the
    dense sum's zero terms leave the zero stack; a NaN one marks only its own entries.
    A stack is that dense sum, each A_i added to every row from zero: a zero term adds
    +-0.0, which leaves every entry's bits alone.
    """
    out = np.zeros((len(rows), width, width))
    if isinstance(blocks, tuple):
        offsets, signs = blocks
        values = rows[:, :, None] * signs
        values += 0.0  # -0.0 + 0.0 is +0.0, and every other value stays as it is
        out.reshape(len(rows), width * width)[:, offsets] = values
        return out
    for i in range(rows.shape[1]):
        out += rows[:, i, None, None] * blocks[i]
    return out


def _signed_index(blocks):
    """cols + width [signs < 0]: where entry r of A_i x sits in [x, -x]; None for a stack."""
    if not isinstance(blocks, tuple):
        return None
    cols, signs = blocks
    return cols + cols.shape[-1] * (signs < 0)


def _scatter_index(blocks):
    """(cols + width r, signs): where entry (r, cols[i, r]) of A_i sits in a flat block.

    A stack is returned as it is.
    """
    if not isinstance(blocks, tuple):
        return blocks
    cols, signs = blocks
    width = cols.shape[-1]
    return cols + np.arange(0, width ** 2, width), signs


def _images(blocks, signed, x: np.ndarray) -> np.ndarray:
    """x A_i^T for every A_i in blocks, stacked: shape x.shape[:-1] + (len(A), width).

    A gather pair takes one ``np.take`` from [x, -x] with its
    :func:`_signed_index`, which returns a new C-contiguous stack whatever
    the batch size; a negation rounds nothing, so this equals gathering x
    and multiplying by the signs.  A stack takes one (1, width) product per
    row and block, so a row's bits do not depend on its batch.  Rows of another width raise.
    """
    if x.shape[-1:] != blocks[0].shape[-1:]:
        raise ValueError(f"points must have shape (..., {blocks[0].shape[-1]}), got {x.shape}")
    if isinstance(blocks, tuple):
        return np.concatenate((x, -x), axis=-1).take(signed, axis=-1)
    return (x[..., None, None, :] @ np.swapaxes(blocks, -1, -2))[..., 0, :]


def _gather_diagonal(cols: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Diagonals of signed permutations given as gathers: the sign of each fixed row, else 0."""
    return np.where(cols == np.arange(cols.shape[-1]), signs, 0)


def build_system(m: int, k: int, flips: int = 0) -> CliffordSystem:
    """Rank-(m+1) system of multiplicity k on R^(2 k delta(m)), built exactly.

    ``flips`` of the k irreducible blocks carry -P_0 instead of P_0; with none flipped the
    system is in the :attr:`~CliffordSystem.standard_layout`.  :class:`CliffordSystem`
    refuses the degenerate pair (m, k) = (1, 1).  2l may not exceed 512, the widest system
    of the default plan, which bounds what a command-line argument can allocate.  The
    arguments are read as Python ints (numpy integers too); a bool raises TypeError.
    """
    m, k, flips = _count(m, "m", 1), _count(k, "k", 1), _index(flips, "flips")
    if not (0 <= flips <= k):
        raise ValueError("flips must lie in [0, k]")
    # delta(m) >= 16^((m - 1) // 8): a large m is over the cap before delta(m) is formed
    if 4 * ((m - 1) // 8) >= _DIM_CAP.bit_length() or 2 * k * delta(m) > _DIM_CAP:
        raise ValueError(f"system dimension 2l = 2k delta(m) at m = {m}, k = {k} exceeds the"
                         f" cap {_DIM_CAP}")
    return CliffordSystem(_construction(m, k, flips))


def _construction(m: int, k: int, flips: int):
    """The gather pair of ``build_system(m, k, flips)``, without its cap;
    :attr:`CliffordSystem.standard_layout` compares the generators with the unflipped one."""
    d = delta(m)
    l = k * d
    j_cols, j_signs = build_complex_structures(m - 1, l)
    idx = np.arange(2 * l)

    # block sign pattern for P_0: flipped blocks first
    eps = np.ones(l, dtype=np.int64)
    eps[:flips * d] = -1
    # P_0 (u, v) = (u, -v), P_1 (u, v) = (v, u), P_(r+1) (u, v) = (J_r v, -J_r u)
    cols = np.vstack([idx, np.roll(idx, l), np.hstack([j_cols + l, j_cols])])
    signs = np.vstack([np.concatenate([eps, -eps]), np.ones(2 * l, dtype=np.int64),
                       np.hstack([j_signs, -j_signs])])
    return cols, signs


# --------------------------------------------------------------------------- #
# Relations, invariants, equivalence
# --------------------------------------------------------------------------- #

def _gather_gap(cols_a, signs_a, cols_b, signs_b, sign: int) -> np.ndarray:
    """Row r's largest entry of |A + sign B| for signed permutations given as gathers.

    Row r of A x is signs_a[r] x[cols_a[r]].  A row whose columns differ
    reads 1, any other row |signs_a[r] + sign signs_b[r]|.
    """
    return np.where(cols_a == cols_b, np.abs(signs_a + sign * signs_b), 1)


def _relation_violations(system: CliffordSystem):
    """The rows of P_i^T - P_i, P_i^2 - Id and P_i P_j + P_j P_i (i < j), for CheckResult.

    Exact systems compare gather forms, one row per generator row: P_i P_j gathers
    cols_j[cols_i] with signs s_i s_j[cols_i].  Dense systems multiply out one
    :func:`_blocks` slice of generators at a time, and every generator before the slice's
    end against the slice's generators after it, so no product stack outgrows a slice;
    a row is one product's largest entry, NaN if any entry is NaN.
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
    gens, eye = system.generators, np.eye(system.dim)
    sym, invol, anti = [], [], []
    for rows in _blocks(system.m + 1, system.dim ** 2):
        g = gens[rows]
        sym.append(max_abs(g - np.swapaxes(g, -1, -2)))
        invol.append(max_abs(g @ g - eye))
        for i in range(rows.stop):  # P_i against the generators after it in this slice
            q = gens[max(i + 1, rows.start):rows.stop]
            anti.append(max_abs(gens[i] @ q + q @ gens[i]))
    return sym, invol, anti


def verify_relations(system: CliffordSystem) -> list:
    """The symmetry, involution and anticommutation checks, as a list of three CheckResults.

    The tolerance is 0 for exact (signed-permutation) systems and 1e-12 for
    dense ones.
    """
    tol = 0.0 if system.exact else 1e-12
    sym, invol, anti = _relation_violations(system)
    return [
        CheckResult("symmetry", "each generator equals its transpose", sym, tol),
        CheckResult("involution", "each generator squares to the identity", invol, tol),
        CheckResult("anticommutation", "distinct generators anticommute", anti, tol),
    ]


def trace_invariant(system: CliffordSystem) -> float:
    """|tr(P_0 P_1 ... P_m)| / (2 delta(m)).

    Normalized so built systems of multiplicity k with j flipped blocks give
    |k - 2j| when m is a multiple of 4; for other m the product is traceless
    and the value is 0.
    """
    if system.exact:
        tr = float(np.sum(_gather_diagonal(*reduce(_mul, zip(*system.generators)))))
    else:
        tr = float(np.trace(reduce(np.matmul, system.generators)))
    return abs(tr) / (2.0 * delta(system.m))


def equivalence_profile(system: CliffordSystem) -> EquivalenceProfile:
    """Profile (m, k, kappa) deciding the geometric equivalence class, read off the generators:
    the system's m and k, and kappa, the rounded trace invariant where 4 divides m."""
    kappa = int(round(trace_invariant(system))) if system.m % 4 == 0 else None
    return EquivalenceProfile(system.m, system.k, kappa)


def conjugate_system(system: CliffordSystem, a: np.ndarray) -> CliffordSystem:
    """System with generators A^T P_i A for a finite A orthogonal to 1e-12, as a dense stack;
    it is in the standard layout where its entries are the construction's, as at A = Id."""
    a = np.asarray(a, dtype=float)
    if a.shape != (system.dim, system.dim):
        raise ValueError("conjugating matrix has the wrong shape")
    if not np.isfinite(a).all() or max_abs(a.T @ a - np.eye(system.dim)) > 1e-12:
        raise ValueError("conjugating matrix is not orthogonal to 1e-12")
    gens = np.empty((system.m + 1, system.dim, system.dim))
    for rows in _blocks(system.m + 1, system.dim ** 2):  # a slice's products stay in cache
        np.matmul(a.T @ system.span_matrix(np.eye(system.m + 1)[rows]), a, out=gens[rows])
    return CliffordSystem(gens)


def sub_system(system: CliffordSystem, indices: Sequence[int]) -> CliffordSystem:
    """Restriction to a subsequence of distinct generators, given by integer indices; fewer
    than two leave m below 1, which :class:`CliffordSystem` refuses.  Keeping every index in
    order keeps an unflipped built system's standard layout."""
    indices = [_index(i, "generator index") for i in indices]
    if any(i < 0 or i > system.m for i in indices):
        raise ValueError("generator index out of range")
    if len(set(indices)) < len(indices):
        raise ValueError("sub_system takes each generator index at most once")
    gens = system.generators
    gens = (gens[0][indices], gens[1][indices]) if system.exact else gens[indices]
    return CliffordSystem(gens)


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
    return {
        "m": system.m,
        "l": system.l,
        "encoding": encoding,
        "generators": payload,
    }


def system_from_dict(data: dict) -> CliffordSystem:
    """Inverse of :func:`system_to_dict`.

    Any payload that does not describe a system (not a JSON object, a missing
    key, a field of the wrong type or shape, generators failing
    :func:`verify_relations`) raises :class:`MalformedSystemError`, and so do generators
    :class:`CliffordSystem` refuses, before their relations are checked: l off a multiple
    of delta(m) and (m, l) = (1, 1).  No dimension cap applies.  The ``provenance`` key of
    files written by older versions is ignored.
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
    _require_types([m, l], {int}, "m and l must be integers")
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
    system = CliffordSystem(gens)  # refuses a shape no system has, as a ValueError
    # relations hold exactly for signed permutations and to 1e-12 for dense generators;
    # inf/NaN entries fail them, and numpy need not warn about them first
    with np.errstate(invalid="ignore", over="ignore"):
        checks = verify_relations(system)
    for check in checks:
        if not check.passed:
            raise MalformedSystemError(
                f"generators fail the {check.name} relation: violation {check.violation:.3g}"
                f" exceeds {check.tol:.3g}")
    return system
