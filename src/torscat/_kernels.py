"""The field-arithmetic hot kernel: Gaussian elimination over F_p on int rows.

``rref`` is the one elimination routine every ``linalg`` operation goes
through.  The matrices it sees are small (a few cells on average, tens of
rows at most on the paper's algebras), so lists of Python ints beat any
array library's per-call overhead.
"""

from __future__ import annotations


def rref(m):
    """Reduced row echelon form mod p of a ``Matrix`` m.

    Returns (rows, pivot columns): ``rows`` is a tuple of ``m.shape[0]``
    tuples of ints in [0, p), the nonzero ones first.
    """
    nrows, ncols = m.shape
    p = m.p
    a = [list(row) for row in m.a]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if a[i][c]:
                break
        else:
            continue
        piv = a[i]
        if i != r:
            a[i] = a[r]
        x = piv[c]
        if x != 1:
            inv = pow(x, p - 2, p)
            piv = [y * inv % p for y in piv]
        a[r] = piv
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [(y - f * z) % p for y, z in zip(row, piv)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, a)), tuple(pivots)


def backend_name():
    """The kernel's name, always ``"pure"``.

    Benchmark records are stamped with it, and records whose backends
    differ are not compared, so the name must stay stable.
    """
    return "pure"
