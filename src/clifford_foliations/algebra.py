"""Arithmetic and linear-algebra primitives shared by the whole package.

Division-algebra values (quaternions, octonions via Cayley-Dickson doubling),
exact signed-permutation matrices, orthonormalization helpers, and the seeded
sampling utilities every higher module builds on.  Everything here is pure and
deterministic; random draws always go through an explicitly seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "Octonion",
    "quat_mul",
    "oct_mul",
    "left_mult_matrix",
    "SignedPermMatrix",
    "signed_perm_kron",
    "max_abs",
    "orthonormal_columns",
    "projector_colspace_basis",
    "eig_split",
    "rng_from",
    "sample_unit_vectors",
    "haar_orthogonal",
    "haar_rotation",
]


# --------------------------------------------------------------------------- #
# Division algebras
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x*i + y*j + z*k."""

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def unit(index: int) -> "Quaternion":
        """Basis unit: 0 -> 1, 1 -> i, 2 -> j, 3 -> k."""
        c = [0.0, 0.0, 0.0, 0.0]
        c[index] = 1.0
        return Quaternion(*c)

    @staticmethod
    def from_array(a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return Quaternion(w, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return quat_mul(self, other)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


@dataclass(frozen=True)
class Octonion:
    """Octonion as a Cayley-Dickson pair of quaternions.

    The basis is e0 = (1, 0), e1..e3 = (i, 0), (j, 0), (k, 0) and
    e4..e7 = (0, 1), (0, i), (0, j), (0, k).  Multiplication is the doubling
    rule (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)); products of basis
    units therefore come out exact, with no hand-typed multiplication table.
    """

    a: Quaternion
    b: Quaternion

    @staticmethod
    def unit(index: int) -> "Octonion":
        c = [0.0] * 8
        c[index] = 1.0
        return Octonion.from_array(c)

    @staticmethod
    def from_array(c) -> "Octonion":
        c = [float(v) for v in c]
        return Octonion(Quaternion(*c[:4]), Quaternion(*c[4:]))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.a.as_array(), self.b.as_array()])

    def conjugate(self) -> "Octonion":
        return Octonion(self.a.conjugate(), -self.b)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.a, -self.b)

    def __mul__(self, other: "Octonion") -> "Octonion":
        return oct_mul(self, other)


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    """Cayley-Dickson product (a,b)(c,d) = (ac - conj(d) b, da + b conj(c))."""
    a, b, c, d = x.a, x.b, y.a, y.b
    return Octonion(a * c - d.conjugate() * b, d * a + b * c.conjugate())


def _signed_unit_index(c: np.ndarray, tol: float = 1e-12):
    """Return (index, sign) if c is a signed standard basis vector, else None."""
    idx = int(np.argmax(np.abs(c)))
    sign = 1.0 if c[idx] > 0 else -1.0
    rest = c.copy()
    rest[idx] = 0.0
    if abs(abs(c[idx]) - 1.0) > tol or np.max(np.abs(rest)) > tol:
        return None
    return idx, sign


def left_mult_matrix(u: Octonion) -> np.ndarray:
    """8x8 matrix of x -> u*x for a signed imaginary basis unit u.

    Restricted to units +-e1..+-e7 so the result is an exact signed
    permutation: skew-symmetric, squaring to -Id, entries in {-1, 0, +1}.
    """
    comp = u.as_array()
    hit = _signed_unit_index(comp)
    if hit is None or hit[0] == 0:
        raise ValueError("left_mult_matrix expects a signed imaginary basis unit")
    cols = [oct_mul(u, Octonion.unit(j)).as_array() for j in range(8)]
    return np.stack(cols, axis=1)


# --------------------------------------------------------------------------- #
# Exact signed-permutation matrices
# --------------------------------------------------------------------------- #

@dataclass
class SignedPermMatrix:
    """Matrix with exactly one entry +-1 per row and column.

    Column j holds sign ``signs[j]`` at row ``rows[j]``.  All operations stay
    in integer arithmetic, so identities between constructed matrices can be
    checked exactly rather than to a tolerance.
    """

    rows: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.int64)
        n = self.rows.shape[0]
        if self.signs.shape != (n,):
            raise ValueError("rows and signs must have equal length")
        if not np.all(np.sort(self.rows) == np.arange(n)):
            raise ValueError("row targets must form a permutation")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be +-1")
        # column feeding each row, for vectorized apply
        self._col_at_row = np.argsort(self.rows)
        self._sign_at_row = self.signs[self._col_at_row]

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SignedPermMatrix":
        return cls(np.arange(n), np.ones(n, dtype=np.int64))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product along the last axis of x."""
        return self._sign_at_row * np.take(x, self._col_at_row, axis=-1)

    def __matmul__(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SignedPermMatrix(self.rows[other.rows], self.signs[other.rows] * other.signs)

    def transpose(self) -> "SignedPermMatrix":
        rows = np.empty(self.n, dtype=np.int64)
        signs = np.empty(self.n, dtype=np.int64)
        rows[self.rows] = np.arange(self.n)
        signs[self.rows] = self.signs
        return SignedPermMatrix(rows, signs)

    def neg(self) -> "SignedPermMatrix":
        return SignedPermMatrix(self.rows, -self.signs)

    def equals(self, other: "SignedPermMatrix") -> bool:
        return self.n == other.n and np.array_equal(self.rows, other.rows) \
            and np.array_equal(self.signs, other.signs)

    def is_symmetric(self) -> bool:
        return self.equals(self.transpose())

    def is_involution(self) -> bool:
        return (self @ self).equals(SignedPermMatrix.identity(self.n))

    def anticommutes_with(self, other: "SignedPermMatrix") -> bool:
        return (self @ other).equals((other @ self).neg())

    def trace(self) -> int:
        fixed = self.rows == np.arange(self.n)
        return int(np.sum(self.signs[fixed]))

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[self.rows, np.arange(self.n)] = self.signs
        return m


def signed_perm_kron(a: SignedPermMatrix, b: SignedPermMatrix) -> SignedPermMatrix:
    """Kronecker product, matching np.kron's index layout."""
    q = b.n
    rows = (a.rows[:, None] * q + b.rows[None, :]).ravel()
    signs = (a.signs[:, None] * b.signs[None, :]).ravel()
    return SignedPermMatrix(rows, signs)


# --------------------------------------------------------------------------- #
# Dense helpers
# --------------------------------------------------------------------------- #

def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a full-column-rank matrix.

    Householder QR, so ``max_abs(Q.T @ Q - I)`` stays below 1e-12 even for
    inputs with condition number up to 1e6.  Column signs are fixed by the
    diagonal of R to make the result deterministic.
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * np.sign(d)


def projector_colspace_basis(p: np.ndarray, cutoff: float = 0.5) -> np.ndarray:
    """Orthonormal basis of the column space of an orthogonal projector.

    Singular values of a projector are 0 or 1; columns of U above ``cutoff``
    span the image.
    """
    u, s, _ = np.linalg.svd(p)
    return u[:, s > cutoff]


def eig_split(p: np.ndarray, tol: float = 1e-10):
    """Orthonormal bases (B_plus, B_minus) of the +-1 eigenspaces of an involution.

    Bases come from the projectors (Id +- P)/2; each has l columns.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if max_abs(p @ p - np.eye(n)) > tol:
        raise ValueError("matrix is not an involution to the requested tolerance")
    b_plus = projector_colspace_basis((np.eye(n) + p) / 2.0)
    b_minus = projector_colspace_basis((np.eye(n) - p) / 2.0)
    return b_plus, b_minus


# --------------------------------------------------------------------------- #
# Seeded sampling
# --------------------------------------------------------------------------- #

def rng_from(seed: int, *path: int) -> np.random.Generator:
    """Generator for a seed plus a derivation path.

    Child streams for sample index / suite stage are derived by extending the
    path, so fan-out order never affects the draws.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def sample_unit_vectors(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform samples on the unit sphere of R^dim, shape (count, dim).

    Gaussian draws normalized; rows with norm below 1e-8 are redrawn.
    """
    x = rng.standard_normal((count, dim))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms < 1e-8):
        bad = norms < 1e-8
        x[bad] = rng.standard_normal((int(np.sum(bad)), dim))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed matrix from O(n): QR of a Gaussian with R-diagonal sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * np.sign(d)


def haar_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed rotation from SO(n)."""
    q = haar_orthogonal(rng, n)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q
