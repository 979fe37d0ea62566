import pytest
from hypothesis import example, given, settings, strategies as st

from torscat import backend_name
from torscat._kernels import rref
from torscat.linalg import Matrix, NoSolution, Subspace, hstack, solve, vstack


def test_matrix_rejects_prime_above_uint8():
    with pytest.raises(ValueError, match="at most 255"):
        Matrix([[256, 1]], 257)
    assert Matrix([[256, 1]], 251).a == ((5, 1),)


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
    assert R.a == ((1, 1), (0, 0))


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
    assert k.dim == 1 and k.basis == ((1, 1),)
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


PRIMES = (2, 3, 5, 251)


def entries(draw, p, r, c):
    return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c), min_size=r, max_size=r))


@st.composite
def random_matrix(draw, max_dim=6, primes=PRIMES):
    p = draw(st.sampled_from(primes))
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    return Matrix(entries(draw, p, r, c), p, c)


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(M):
    K = M.kernel()
    assert K.dim + M.rank() == M.cols
    assert all(not any(M.apply(x)) for x in K.basis)


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
    X = Matrix(X, A.p, k)
    B = A @ X
    Y = solve(A, B)
    assert A @ Y == B


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_subspace_canonical_form(M):
    # any generating set of the same row space yields the same canonical basis
    sp = M.row_space()
    assert Subspace.from_rows(M.a + M.a, M.cols, M.p) == sp
    if M.rows > 1:
        mixed = [list(row) for row in M.a]
        mixed[0] = [x + y for x, y in zip(mixed[0], mixed[-1])]
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
    assert not any(map(any, a[rank:]))
    assert list(pivots) == sorted(set(pivots))
    for k, c in enumerate(pivots):
        assert not any(a[k][:c])
        assert a[k][c] == 1
        assert sum(1 for row in a if row[c]) == 1


@given(random_matrix(max_dim=8, primes=(2, 3, 5, 7, 251)))
@example(Matrix((), 251, 5))
@example(Matrix(((),) * 4, 251, 0))
@example(Matrix((), 2, 0))
@settings(max_examples=300, deadline=None)
def test_rref_matches_reference_elimination(M):
    out, pivots = rref(M)
    ref, ref_pivots = reference_rref([list(row) for row in M.a], M.p)
    assert len(out) == M.rows and all(len(row) == M.cols for row in out)
    assert all(type(x) is int and 0 <= x < M.p for row in out for x in row)
    assert pivots == ref_pivots
    assert [list(row) for row in out] == ref
    assert_reduced_echelon(out, pivots, M.p)


@st.composite
def system(draw, max_dim=5):
    """(A, B) over one field with the same number of rows."""
    p = draw(st.sampled_from(PRIMES))
    r, c, k = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)), draw(st.integers(0, 3))
    return Matrix(entries(draw, p, r, c), p, c), Matrix(entries(draw, p, r, k), p, k)


@given(system())
@settings(max_examples=200, deadline=None)
def test_solve_matches_ranks(AB):
    A, B = AB
    consistent = hstack([A, B]).rank() == A.rank()
    try:
        X = solve(A, B)
    except NoSolution:
        assert not consistent
    else:
        assert consistent and A @ X == B


@st.composite
def subspace_pair(draw, max_dim=5):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, max_dim))
    U, W = (Subspace.from_rows(entries(draw, p, draw(st.integers(0, n)), n), n, p) for _ in range(2))
    return U, W


@given(subspace_pair())
@settings(max_examples=200, deadline=None)
def test_sum_and_intersection_dimensions(UW):
    U, W = UW
    meet = U.intersection(W)
    assert (U + W).dim + meet.dim == U.dim + W.dim
    assert meet <= U and meet <= W and U <= U + W and W <= U + W


def test_backend_selected():
    assert backend_name() == "pure"


def test_subspace_sum_intersection():
    s1 = Subspace.from_rows([[1, 0, 1]], 3, 2)
    s2 = Subspace.from_rows([[0, 1, 1]], 3, 2)
    assert (s1 + s2).dim == 2
    assert s1.intersection(s2).is_zero()
    both = Subspace.from_rows([[1, 0, 1], [0, 1, 1]], 3, 2)
    assert both.intersection(s1) == s1
