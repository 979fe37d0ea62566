import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torscat import backend_name
from torscat._kernels import rref
from torscat.linalg import Matrix, NoSolution, Subspace, hstack, solve, vstack


def test_matrix_rejects_prime_above_uint8():
    with pytest.raises(ValueError, match="at most 255"):
        Matrix([[256, 1]], 257)
    assert Matrix([[256, 1]], 251).a.tolist() == [[5, 1]]


def test_rref_identity():
    M = Matrix.identity(3, 2)
    R, rank = M.rref()
    assert rank == 3 and R == M


def test_rref_zero():
    M = Matrix.zeros(2, 4, 2)
    R, rank = M.rref()
    assert rank == 0 and R == M


def test_rref_f2_hand():
    R, rank = Matrix([[1, 1], [1, 1]], 2).rref()
    assert rank == 1
    assert R.a.tolist() == [[1, 1], [0, 0]]


def test_solve_identity():
    B = Matrix([[1, 0], [1, 1], [0, 1]], 2)
    assert solve(Matrix.identity(3, 2), B) == B


def test_solve_zero_cases():
    assert solve(Matrix.zeros(2, 2, 2), Matrix.zeros(2, 1, 2)).is_zero()
    with pytest.raises(NoSolution):
        solve(Matrix.zeros(2, 2, 2), Matrix([[1], [0]], 2))


def test_kernel_image_hand():
    M = Matrix([[1, 1]], 2)
    k = M.kernel()
    assert k.dim == 1 and k.basis.tolist() == [[1, 1]]
    assert M.image().is_full()
    Z = Matrix.zeros(3, 4, 2)
    assert Z.kernel().is_full() and Z.image().is_zero()
    I = Matrix.identity(4, 3)
    assert I.kernel().is_zero() and I.image().is_full()


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Matrix([[1]], 2) @ Matrix([[1]], 3)
    with pytest.raises(ValueError):
        Matrix([[1]], 4)


def test_stack_helpers():
    a = Matrix([[1, 0]], 2)
    b = Matrix([[0, 1]], 2)
    assert vstack([a, b]) == Matrix.identity(2, 2)
    assert hstack([a.T, b.T]) == Matrix.identity(2, 2)


@st.composite
def random_matrix(draw, max_dim=6, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return Matrix(np.array(data, dtype=np.int64).reshape(r, c), p)


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(M):
    assert M.kernel().dim + M.rank() == M.cols


@given(random_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_roundtrip(A, data):
    k = data.draw(st.integers(1, 3))
    X = data.draw(
        st.lists(
            st.lists(st.integers(0, A.p - 1), min_size=k, max_size=k),
            min_size=A.cols,
            max_size=A.cols,
        )
    )
    X = Matrix(np.array(X, dtype=np.int64).reshape(A.cols, k), A.p)
    B = A @ X
    Y = solve(A, B)
    assert A @ Y == B


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_subspace_canonical_form(M):
    # any generating set of the same row space yields the same canonical basis
    sp = M.row_space()
    doubled = np.vstack([M.a, M.a])
    assert Subspace.from_rows(doubled, M.cols, M.p) == sp
    if M.rows > 1:
        mixed = M.a.astype(np.int64).copy()
        mixed[0] = (mixed[0] + mixed[-1]) % M.p
        assert Subspace.from_rows(mixed, M.cols, M.p) == sp


def reference_rref(rows, p):
    """Textbook elimination on lists of Python ints: echelon form top-down,
    then back substitution and scaling of each pivot row."""
    a = [[x % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        src = next((i for i in range(r, m) if a[i][c]), None)
        if src is None:
            continue
        a[r], a[src] = a[src], a[r]
        for i in range(r + 1, m):
            f = a[i][c] * pow(a[r][c], -1, p)
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        inv = pow(a[k][c], -1, p)
        a[k] = [x * inv % p for x in a[k]]
        for i in range(k):
            f = a[i][c]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return a, tuple(pivots)


def assert_reduced_echelon(a, pivots, p):
    rank = len(pivots)
    assert ((a >= 0) & (a < p)).all()
    assert not a[rank:].any()
    assert list(pivots) == sorted(set(pivots))
    for k, c in enumerate(pivots):
        assert not a[k, :c].any()
        assert a[k, c] == 1
        assert np.count_nonzero(a[:, c]) == 1


@given(random_matrix(max_dim=8, primes=(2, 3, 5, 7)))
@settings(max_examples=300, deadline=None)
def test_rref_matches_reference_elimination(M):
    out, pivots = rref(M.a, M.p)
    ref, ref_pivots = reference_rref(M.a.tolist(), M.p)
    assert out.dtype == np.uint8 and out.shape == M.a.shape
    assert pivots == ref_pivots
    assert out.tolist() == ref
    assert_reduced_echelon(out, pivots, M.p)


def test_backend_selected():
    assert backend_name() == "pure"


def test_subspace_sum_intersection():
    s1 = Subspace.from_rows([[1, 0, 1]], 3, 2)
    s2 = Subspace.from_rows([[0, 1, 1]], 3, 2)
    assert (s1 + s2).dim == 2
    assert s1.intersection(s2).is_zero()
    both = Subspace.from_rows([[1, 0, 1], [0, 1, 1]], 3, 2)
    assert both.intersection(s1) == s1
