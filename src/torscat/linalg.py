"""Exact dense linear algebra over a prime field F_p.

Matrices are immutable tuples of int rows with entries in {0, ..., p-1}
and an explicit ``shape``, so a matrix with no rows still knows its
columns; all arithmetic is mod p.  Subspaces are stored by their
reduced-row-echelon basis, which is canonical: two subspaces are equal iff
their stored bases are identical.
"""

from __future__ import annotations

from operator import mul

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
MAX_PRIME = 255


def _check_prime(p):
    if p in _SMALL_PRIMES:
        return
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field characteristic must be prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"field characteristic must be at most {MAX_PRIME}, got {p}")


class NoSolution(Exception):
    """Raised by solve() when the linear system is inconsistent."""


class Matrix:
    """A matrix over F_p: ``a`` is a tuple of rows, each a tuple of ints in [0, p).

    ``data`` is a sequence of rows; entries are reduced mod p.  ``cols``
    fixes the row length, which matters only when there are no rows.
    ``_checked=True`` skips the reduction and the checks: ``data`` is then
    already a tuple of int rows in [0, p), each of length ``cols``, which
    must be given.
    """

    __slots__ = ("a", "p", "shape")

    def __init__(self, data, p=2, cols=None, _checked=False):
        if not _checked:
            _check_prime(p)
            try:
                data = tuple(tuple(int(x) % p for x in row) for row in data)
            except TypeError:
                raise ValueError("Matrix data must be 2-dimensional") from None
            if cols is None:
                cols = len(data[0]) if data else 0
            if any(len(row) != cols for row in data):
                raise ValueError(f"Matrix rows must all have length {cols}")
        object.__setattr__(self, "a", data)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "shape", (len(data), cols))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows, cols, p=2):
        _check_prime(p)
        return cls(((0,) * cols,) * rows, p, cols, _checked=True)

    @classmethod
    def identity(cls, n, p=2):
        _check_prime(p)
        return cls(tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), p, n, _checked=True)

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def columns(self):
        """The columns, as a tuple of int tuples."""
        return tuple(zip(*self.a)) if self.a else ((),) * self.shape[1]

    @property
    def T(self):
        return Matrix(self.columns(), self.p, self.shape[0], _checked=True)

    def is_zero(self):
        return not any(map(any, self.a))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and self.a == other.a

    def __hash__(self):
        return hash((self.p, self.shape, self.a))

    def __repr__(self):
        return f"Matrix({[list(row) for row in self.a]!r}, p={self.p})"

    def _coerce(self, other):
        if not isinstance(other, Matrix) or other.p != self.p:
            raise ValueError("field mismatch")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} and {other.shape}")
        return other

    def __add__(self, other):
        p = self._coerce(other).p
        rows = tuple(tuple((x + y) % p for x, y in zip(r, s)) for r, s in zip(self.a, other.a))
        return Matrix(rows, p, self.shape[1], _checked=True)

    def __sub__(self, other):
        p = self._coerce(other).p
        rows = tuple(tuple((x - y) % p for x, y in zip(r, s)) for r, s in zip(self.a, other.a))
        return Matrix(rows, p, self.shape[1], _checked=True)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if not isinstance(other, Matrix) or other.p != self.p:
            raise ValueError("field mismatch")
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p, cols = self.p, other.columns()
        rows = tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in self.a)
        return Matrix(rows, p, other.shape[1], _checked=True)

    def apply(self, v):
        """M v for a vector v of length cols, as a tuple."""
        p = self.p
        return tuple(sum(map(mul, r, v)) % p for r in self.a)

    def scale(self, c):
        p = self.p
        c = int(c) % p
        return Matrix(tuple(tuple(x * c % p for x in r) for r in self.a), p, self.shape[1], _checked=True)

    def rref(self):
        """(reduced row echelon form, rank)."""
        r, pivots = _rref(self)
        return Matrix(r, self.p, self.shape[1], _checked=True), len(pivots)

    def rank(self):
        return len(_rref(self)[1])

    def kernel(self):
        """Right null space {x : M x = 0} as a Subspace of F_p^cols."""
        r, pivots = _rref(self)
        p, n = self.p, self.shape[1]
        pivset = set(pivots)
        vecs = []
        for f in range(n):
            if f in pivset:
                continue
            vec = [0] * n
            vec[f] = 1
            for row, c in zip(r, pivots):
                vec[c] = -row[f] % p
            vecs.append(vec)
        return Subspace.from_rows(vecs, n, p)

    def image(self):
        """Column space as a Subspace of F_p^rows."""
        return Subspace.from_rows(self.columns(), self.shape[0], self.p)

    def row_space(self):
        return Subspace.from_rows(self.a, self.shape[1], self.p)


def hstack(mats):
    mats = list(mats)
    if len({m.rows for m in mats}) != 1:
        raise ValueError("hstack needs matrices with equal row counts")
    rows = tuple(sum(parts, ()) for parts in zip(*(m.a for m in mats)))
    return Matrix(rows, mats[0].p, sum(m.cols for m in mats), _checked=True)


def vstack(mats):
    mats = list(mats)
    if len({m.cols for m in mats}) != 1:
        raise ValueError("vstack needs matrices with equal column counts")
    return Matrix(sum((m.a for m in mats), ()), mats[0].p, mats[0].cols, _checked=True)


def solve(A, B):
    """Solve A @ X = B; raises NoSolution when inconsistent.

    Free variables are set to zero, so the returned X is one particular
    solution.
    """
    if A.p != B.p:
        raise ValueError("field mismatch")
    if A.rows != B.rows:
        raise ValueError("A and B must have the same number of rows")
    n, k = A.cols, B.cols
    aug = Matrix(tuple(a + b for a, b in zip(A.a, B.a)), A.p, n + k, _checked=True)
    r, pivots = _rref(aug)
    if pivots and pivots[-1] >= n:
        raise NoSolution("inconsistent linear system")
    X = [(0,) * k] * n
    for row, c in zip(r, pivots):
        X[c] = row[n:]
    return Matrix(tuple(X), A.p, k, _checked=True)


class Subspace:
    """A subspace of F_p^ambient with a canonical (RREF) basis, a tuple of int rows."""

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
        r, pivots = _rref(Matrix(rows, p, ambient))
        return cls(r[: len(pivots)], ambient, p, pivots)

    @classmethod
    def zero(cls, ambient, p=2):
        return cls.from_rows((), ambient, p)

    @classmethod
    def full(cls, ambient, p=2):
        return cls.from_rows(Matrix.identity(ambient, p).a, ambient, p)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        """The basis as the rows of a Matrix."""
        return Matrix(self.basis, self.p, self.ambient, _checked=True)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return len(self.basis) == self.ambient

    def reduce_vector(self, v):
        """Residue of v after eliminating all pivot coordinates, as a list."""
        p = self.p
        v = [int(x) % p for x in v]
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def contains_vector(self, v):
        return not any(self.reduce_vector(v))

    def __le__(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        return all(other.contains_vector(row) for row in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.p == other.p and self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.p})"

    def __add__(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        return Subspace.from_rows(self.basis + other.basis, self.ambient, self.p)

    def intersection(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("ambient mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient, self.p)
        # x = a . B1 = b . B2; kernel of [B1^T | -B2^T] gives the (a, b).
        p, d = self.p, self.dim
        stacked = Matrix(self.basis + tuple(tuple(-x % p for x in row) for row in other.basis), p, self.ambient)
        ker = stacked.T.kernel()
        coeffs = Matrix(tuple(row[:d] for row in ker.basis), p, d, _checked=True)
        rows = coeffs @ self.matrix()
        return Subspace.from_rows(rows.a, self.ambient, p)

    def free_coords(self):
        """Coordinates not used as pivots; standard vectors there span a complement."""
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in pivset)
