"""Arithmetic and linear-algebra primitives shared by the whole package.

One Cayley-Dickson product for R, C, H and O, the gather-pair helpers for
signed permutations, projector and QR helpers, and the seeded sampling
utilities every higher module builds on.  Everything here is pure and
deterministic; random draws always go through an explicitly seeded generator.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "cd_units",
    "cd_mul",
    "max_abs",
    "row_dots",
    "row_norms",
    "unit_angle",
    "check_unit",
    "snapped_sqrt",
    "projector_colspace_basis",
    "eig_split",
    "seed_ints",
    "rng_from",
    "rng_streams",
    "redraw_short_rows",
    "gaussian_rows",
    "sample_unit_vectors",
    "sign_fixed_q",
    "sign_fixed_rotation",
]


# --------------------------------------------------------------------------- #
# Signed permutations and division algebras
# --------------------------------------------------------------------------- #

def _mul(a, b):
    """Product AB of gather pairs (cols, signs), where (A x)[r] = signs[r] * x[cols[r]]."""
    (ca, sa), (cb, sb) = a, b
    return cb[ca], sa * sb[ca]


def _kron(a, b):
    """Kronecker product of gather pairs, in np.kron's index layout.

    Leading axes broadcast, so either factor may be a stack of pairs.
    """
    (ca, sa), (cb, sb) = a, b
    q = cb.shape[-1]
    cols = ca[..., :, None] * q + cb[..., None, :]
    shape = cols.shape[:-2] + (ca.shape[-1] * q,)
    return cols.reshape(shape), (sa[..., :, None] * sb[..., None, :]).reshape(shape)


def _identity(n: int):
    return np.arange(n), np.ones(n, dtype=np.int64)


def _transpose(a):
    """Transpose (the inverse) of gather pairs; it turns a scatter pair into a gather pair."""
    cols, signs = a
    t_cols = np.argsort(cols, axis=-1)
    return t_cols, np.take_along_axis(signs, t_cols, axis=-1)


@lru_cache(maxsize=None)
def cd_units(d: int):
    """Unit table of R, C, H or O (d = 1, 2, 4, 8) by Cayley-Dickson doubling.

    Returns integer arrays ``(rows, signs)`` of shape (d, d) with
    e_i e_j = signs[i, j] e_{rows[i, j]}.  Row i is left multiplication by e_i
    as a signed permutation.  Each doubling step applies
    (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)) to unit pairs, so in the
    basis e_0..e_(n-1) = (e_., 0), e_n..e_(2n-1) = (0, e_.) the table of
    H is Hamilton's (1, i, j, k) and no product is typed by hand.
    """
    if d not in (1, 2, 4, 8):
        raise ValueError("Cayley-Dickson units exist here for d in {1, 2, 4, 8}")
    rows = np.zeros((1, 1), dtype=np.int64)
    signs = np.ones((1, 1), dtype=np.int64)
    while len(rows) < d:
        n = len(rows)
        conj = np.where(np.arange(n) == 0, 1, -1)  # conj(e_q) = conj[q] e_q
        rows = np.block([[rows, rows.T + n],      # (e_p, 0)(e_q, 0), (e_p, 0)(0, e_q)
                         [rows + n, rows.T]])     # (0, e_p)(e_q, 0), (0, e_p)(0, e_q)
        signs = np.block([[signs, signs.T],
                          [signs * conj, -conj * signs.T]])
    rows.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return rows, signs


@lru_cache(maxsize=None)
def _cd_gather(d: int):
    """The unit table as gathers: component k of e_i b is signs[i, k] b[cols[i, k]]."""
    cols, signs = _transpose(cd_units(d))
    signs = signs.astype(float)
    cols.flags.writeable = signs.flags.writeable = False
    return cols, signs


def cd_mul(a, b) -> np.ndarray:
    """Product a b of component arrays (..., d) in R, C, H or O.

    out[k] = sum_i s(i, k) a_i b_j(i, k), summed over the left index i in order
    and seeded with the i = 0 term, so for d <= 4 the bits equal those of the
    written-out closed forms (Hamilton's product for d = 4).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cols, signs = _cd_gather(a.shape[-1])
    terms = signs * a[..., :, None] * b[..., cols]  # terms[..., i, k] = s(i, k) a_i b_j(i, k)
    # cumsum adds strictly in order of i, unlike sum's pairwise reduction
    return np.cumsum(terms, axis=-2)[..., -1, :]


# --------------------------------------------------------------------------- #
# Dense helpers
# --------------------------------------------------------------------------- #

# Entries per block of the stacks a batch builds (generator images, span matrices):
# a 512 KB block, so a large batch holds about what one small call holds.
_BLOCK = 1 << 16


def _blocks(count: int, size: int) -> list:
    """Equal slices of count rows of size entries each, at most _BLOCK entries a slice.

    A slice is whole rows, at least one, and no two slices differ by more than one row.
    """
    rows = max(1, _BLOCK // max(size, 1))
    parts = max(1, -(-count // rows))
    return [slice(count * c // parts, count * (c + 1) // parts) for c in range(parts)]


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_j, b_j> along the last axis, each the one BLAS dot a 1-D ``np.dot`` takes.

    So a row's product does not depend on its batch; ``np.sum(a * b, axis=-1)``
    sums pairwise instead and differs from it in the last bit on some rows.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a, as the 1-D ``np.linalg.norm`` takes it."""
    return np.sqrt(row_dots(a, a))


def unit_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit rows a_j and b_j, exact at 0 and pi, each row as its single call.

    2 arcsin(|a - b|/2) where <a, b> >= 0, else pi - 2 arcsin(|a + b|/2), by :func:`row_norms`
    and :func:`row_dots`; an arccos of <a, b> would lose half the precision at both ends.
    """
    near = 2.0 * np.arcsin(np.clip(0.5 * row_norms(a - b), 0.0, 1.0))
    far = np.pi - 2.0 * np.arcsin(np.clip(0.5 * row_norms(a + b), 0.0, 1.0))
    return np.where(row_dots(a, b) >= 0.0, near, far)


def check_unit(x, what: str = "point") -> np.ndarray:
    """x as floats, after checking every row along the last axis is a unit vector to 1e-9."""
    x = np.asarray(x, dtype=float)
    # a finite coordinate past ~1e154 squares to inf, which fails the check quietly
    with np.errstate(over="ignore"):
        norms = row_norms(x)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise ValueError(f"{what} must be a finite unit vector")
    return x


def snapped_sqrt(rad) -> np.ndarray:
    """sqrt with radicands below 1e-13, accumulated roundoff of 0, snapped to 0.

    Quantities that vanish identically (the lift height of a boundary point,
    a normal-form component on a whole fiber) would otherwise come back as
    sqrt(eps)-sized noise.
    """
    rad = np.asarray(rad, dtype=float)
    return np.sqrt(np.where(rad < 1e-13, 0.0, rad))


def projector_colspace_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of an orthogonal projector.

    Singular values of a projector are 0 or 1; columns of U above 1/2 span
    the image.
    """
    u, s, _ = np.linalg.svd(p)
    return u[:, s > 0.5]


def eig_split(p: np.ndarray):
    """Orthonormal bases (B_plus, B_minus) of the +-1 eigenspaces of an involution.

    Bases come from the projectors (Id +- P)/2; each has l columns.  Raises
    ``ValueError`` when P^2 differs from Id by more than 1e-10.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if max_abs(p @ p - np.eye(n)) > 1e-10:
        raise ValueError("matrix is not an involution to 1e-10")
    b_plus = projector_colspace_basis((np.eye(n) + p) / 2.0)
    b_minus = projector_colspace_basis((np.eye(n) - p) / 2.0)
    return b_plus, b_minus


# --------------------------------------------------------------------------- #
# Seeded sampling
# --------------------------------------------------------------------------- #

def seed_ints(seeds):
    """The seeds as a list of non-negative ints, and whether a single int was given.

    Takes an int or a 1-D array or sequence of ints.  A non-integer seed
    raises ``TypeError``, as ``rng_from`` does, rather than being truncated;
    a negative one raises ``ValueError``.
    """
    arr = seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object)
    if arr.ndim > 1:
        raise ValueError("seeds must be an int or a 1-D array")
    ints = arr.ravel().tolist()
    if arr.dtype.kind not in "iu":
        try:
            ints = [operator.index(s) for s in ints]
        except TypeError:
            raise TypeError(f"seeds must be integers, got {seeds!r}") from None
    if ints and min(ints) < 0:
        raise ValueError(f"seeds must be non-negative, got {seeds!r}")
    return ints, arr.ndim == 0


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """Generator for a seed plus a derivation path.

    Child streams for sample index / suite stage are derived by extending the
    path, so fan-out order never affects the draws.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


# numpy's SeedSequence hash (NEP 19 keeps it stable): pool mixing, state output, word mixing
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# Cross-mixing hashes pool word src into the other three in order, from hash step 4 + 3 src;
# row src gives each destination word its step (its own slot an unused one)
_CROSS_STEPS = np.array([[4 + 3 * src + (d - (d > src)) % 3 for d in range(4)] for src in range(4)])
# Below this many streams, rng_from per stream builds them faster (at 5 the two tie)
_STREAMS_CROSSOVER = 5


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int):
    """The (xor, multiplier) uint32 pairs of count successive hash steps from init."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    c = np.array(c, dtype=np.uint32)
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mult
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _XSHIFT
    return out


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the four uint64 words it was built with."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg64_words(seeds: np.ndarray, path: np.ndarray) -> np.ndarray:
    """The (k, 4) uint64 words SeedSequence(seeds[j], spawn_key=path[j]) gives PCG64.

    seeds (k,) are below 2^64 and path (k, p) below 2^32, so each seed is
    two words, zero-padded to the pool size of 4, and each path entry one.
    A spawn key pads the seed so, and without one the hash of a missing word
    equals that of a zero word, so the words match for every path length.
    """
    k, p = path.shape
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * p)
    words = np.zeros((k, 4), dtype=np.uint32)
    words[:, 0] = seeds & 0xFFFFFFFF
    words[:, 1] = seeds >> 32
    pool = _hashmix(words, xor[:4], mult[:4])
    for src in range(4):
        # the hash of word src into each other word, one step each; slot src is kept
        steps = _CROSS_STEPS[src]
        keep = pool[:, src].copy()
        pool = _mix(pool, _hashmix(pool[:, src, None], xor[steps], mult[steps]))
        pool[:, src] = keep
    if p:
        tail = _hashmix(path[:, :, None], xor[16:].reshape(p, 4), mult[16:].reshape(p, 4))
        for i in range(p):
            pool = _mix(pool, tail[:, i])
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.concatenate((pool, pool), axis=1), xor, mult)
    # eight little-endian uint32 words per row are its four uint64 words
    return state.view("<u8").astype(np.uint64, copy=False)


def rng_streams(seeds, *path) -> list:
    """Generators for k seeds plus a derivation path, from one vectorised hash.

    seeds is an int or a (k,) array, and each path entry an int or a (k,)
    array broadcast against them.  Generator j has exactly the state of
    ``rng_from(seeds[j], *path_j)``: the SeedSequence pool hash runs once on
    all k word rows.  Below five streams, where that is no faster, and for
    seeds of 2^64 or more or path entries of 2^32 or more, the streams come
    from ``rng_from``.
    """
    columns = [seed_ints(seeds)[0]] + [seed_ints(entry)[0] for entry in path]
    sizes = {len(c) for c in columns} - {1}
    if len(sizes) > 1:
        raise ValueError("path entries must broadcast against the seeds")
    k = sizes.pop() if sizes else 1
    columns = [c * k if len(c) == 1 else c for c in columns]
    if (k < _STREAMS_CROSSOVER or max(columns[0]) >= 2**64
            or any(max(c) >= 2**32 for c in columns[1:])):
        return [rng_from(seed, *entries) for seed, *entries in zip(*columns)]
    words = _pcg64_words(np.array(columns[0], dtype=np.uint64),
                         np.array(columns[1:], dtype=np.uint32).reshape(len(path), k).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


def _pairwise_norms(x: np.ndarray) -> np.ndarray:
    """Norms along the last axis, the pairwise sums ``np.linalg.norm(x, axis=-1)`` takes."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def redraw_short_rows(z: np.ndarray, draw) -> np.ndarray:
    """Row norms of z (k, n, d), after redrawing in place the rows with norm below 1e-8.

    ``draw(j, bad)`` returns fresh rows for the rows of batch j that the
    mask bad picks, from batch j's own stream; each batch redraws until no
    row is short, in the order a single call of its own would.
    """
    norms = _pairwise_norms(z)
    if norms.min(initial=np.inf) >= 1e-8:  # the usual case, one reduction
        return norms
    for j in np.flatnonzero(np.any(norms < 1e-8, axis=-1)):
        while np.any(norms[j] < 1e-8):
            bad = norms[j] < 1e-8
            z[j, bad] = draw(j, bad)
            norms[j] = _pairwise_norms(z[j])
    return norms


def gaussian_rows(rngs: list, shape) -> np.ndarray:
    """Standard normals of shape (k,) + shape, row j drawn from rngs[j] as one call of its own."""
    out = np.empty((len(rngs),) + tuple(shape))
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return out


def sample_unit_vectors(rng, dim: int, count: int) -> np.ndarray:
    """Uniform samples on the unit sphere of R^dim, shape (count, dim).

    Gaussian draws normalized; rows with norm below 1e-8 are redrawn.  A
    list of k generators gives (k, count, dim), stream j drawing its rows
    in the order a single call with it does, so batch j equals that call
    bit for bit.
    """
    rngs = rng if isinstance(rng, list) else [rng]
    x = gaussian_rows(rngs, (count, dim))
    norms = redraw_short_rows(x, lambda j, bad: rngs[j].standard_normal((int(np.sum(bad)), dim)))
    x /= norms[..., None]
    return x if isinstance(rng, list) else x[0]


def sign_fixed_q(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with column j scaled by d_j/|d_j| for d_j = R_jj (0 -> 1).

    The scaling makes Q unique (real or complex); for a Gaussian a it is
    Haar distributed.  A stack (..., n, n) is factored in one QR call, each
    matrix bit for bit as alone.
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def sign_fixed_rotation(a: np.ndarray) -> np.ndarray:
    """:func:`sign_fixed_q` of a with the last column negated where det Q < 0.

    For a Gaussian a it is Haar distributed on SO(n).  A stack (..., n, n)
    is fixed per matrix, each bit for bit as alone.
    """
    q = sign_fixed_q(a)
    q[..., -1] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q

