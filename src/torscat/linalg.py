"""Exact dense linear algebra over a prime field F_p.

Matrices are immutable wrappers around uint8 numpy arrays with entries in
{0, ..., p-1}; all arithmetic is mod p.  Subspaces are stored by their
reduced-row-echelon basis, which is canonical: two subspaces are equal iff
their stored bases are identical.
"""

from __future__ import annotations

import numpy as np

from ._kernels import backend_name, rref as _rref

__all__ = [
    "Matrix",
    "Subspace",
    "NoSolution",
    "solve",
    "hstack",
    "vstack",
    "backend_name",
    "MAX_PRIME",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_PRIME = 255  # entries are stored as uint8


def _check_prime(p):
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field characteristic must be prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"field characteristic must be at most {MAX_PRIME} (uint8 entries), got {p}")


class NoSolution(Exception):
    """Raised by solve() when the linear system is inconsistent."""


class Matrix:
    __slots__ = ("a", "p")

    def __init__(self, data, p=2):
        if p not in _SMALL_PRIMES:
            _check_prime(p)
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("Matrix data must be 2-dimensional")
        arr = np.mod(arr.astype(np.int64, copy=False), p).astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows, cols, p=2):
        return cls(np.zeros((rows, cols), dtype=np.uint8), p)

    @classmethod
    def identity(cls, n, p=2):
        return cls(np.eye(n, dtype=np.uint8), p)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def T(self):
        return Matrix(self.a.T, self.p)

    def is_zero(self):
        return not self.a.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.p == other.p and self.a.shape == other.a.shape and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.a.tolist()!r}, p={self.p})"

    def _coerce(self, other):
        if not isinstance(other, Matrix) or other.p != self.p:
            raise ValueError("field mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return Matrix((self.a.astype(np.int64) + other.a) % self.p, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return Matrix((self.a.astype(np.int64) - other.a) % self.p, self.p)

    def __neg__(self):
        return Matrix((-self.a.astype(np.int64)) % self.p, self.p)

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        prod = self.a.astype(np.int64) @ other.a.astype(np.int64)
        return Matrix(prod % self.p, self.p)

    def scale(self, c):
        return Matrix((self.a.astype(np.int64) * int(c)) % self.p, self.p)

    def rref(self):
        """(reduced row echelon form, rank)."""
        r, pivots = _rref(self.a, self.p)
        return Matrix(r, self.p), len(pivots)

    def rank(self):
        return len(_rref(self.a, self.p)[1])

    def kernel(self):
        """Right null space {x : M x = 0} as a Subspace of F_p^cols."""
        r, pivots = _rref(self.a, self.p)
        n = self.cols
        free = [c for c in range(n) if c not in set(pivots)]
        vecs = np.zeros((len(free), n), dtype=np.int64)
        for k, f in enumerate(free):
            vecs[k, f] = 1
            for row, c in enumerate(pivots):
                vecs[k, c] = -int(r[row, f])
        return Subspace.from_rows(vecs % self.p, n, self.p)

    def image(self):
        """Column space as a Subspace of F_p^rows."""
        return Subspace.from_rows(self.a.T, self.rows, self.p)

    def row_space(self):
        return Subspace.from_rows(self.a, self.cols, self.p)


def hstack(mats):
    mats = list(mats)
    p = mats[0].p
    return Matrix(np.hstack([m.a for m in mats]), p)


def vstack(mats):
    mats = list(mats)
    p = mats[0].p
    return Matrix(np.vstack([m.a for m in mats]), p)


def solve(A, B):
    """Solve A @ X = B; raises NoSolution when inconsistent.

    Free variables are set to zero, so the returned X is one particular
    solution.
    """
    if A.p != B.p:
        raise ValueError("field mismatch")
    if A.rows != B.rows:
        raise ValueError("A and B must have the same number of rows")
    n = A.cols
    aug = np.hstack([A.a, B.a])
    r, pivots = _rref(aug, A.p)
    if any(c >= n for c in pivots):
        raise NoSolution("inconsistent linear system")
    X = np.zeros((n, B.cols), dtype=np.uint8)
    for row, c in enumerate(pivots):
        X[c] = r[row, n:]
    return Matrix(X, A.p)


class Subspace:
    """A subspace of F_p^ambient with a canonical (RREF) basis."""

    __slots__ = ("ambient", "p", "basis", "pivots")

    def __init__(self, basis, ambient, p, pivots):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, rows, ambient, p=2):
        arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape((0, ambient))
        if arr.shape[1] != ambient:
            raise ValueError("row length does not match ambient dimension")
        r, pivots = _rref(np.mod(arr, p).astype(np.uint8), p)
        r = r[: len(pivots)]
        r.setflags(write=False)
        return cls(r, ambient, p, tuple(pivots))

    @classmethod
    def zero(cls, ambient, p=2):
        return cls.from_rows(np.zeros((0, ambient)), ambient, p)

    @classmethod
    def full(cls, ambient, p=2):
        return cls.from_rows(np.eye(ambient), ambient, p)

    @property
    def dim(self):
        return self.basis.shape[0]

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ambient

    def reduce_vector(self, v):
        """Residue of v after eliminating all pivot coordinates."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        for row, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.basis[row].astype(np.int64)) % self.p
        return v

    def contains_vector(self, v):
        return not self.reduce_vector(v).any()

    def __le__(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        return all(other.contains_vector(row) for row in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.p})"

    def __add__(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        rows = np.vstack([self.basis, other.basis])
        return Subspace.from_rows(rows, self.ambient, self.p)

    def intersection(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient, self.p)
        # x = a . B1 = b . B2; kernel of [B1^T | -B2^T] gives the (a, b).
        stacked = np.hstack([self.basis.T.astype(np.int64), -other.basis.T.astype(np.int64)])
        ker = Matrix(stacked % self.p, self.p).kernel()
        coeffs = ker.basis[:, : self.dim]
        rows = coeffs.astype(np.int64) @ self.basis.astype(np.int64)
        return Subspace.from_rows(rows % self.p, self.ambient, self.p)

    def free_coords(self):
        """Coordinates not used as pivots; standard vectors there span a complement."""
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in pivset)
