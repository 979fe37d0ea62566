"""The field-arithmetic hot kernel: Gaussian elimination over F_p in numpy.

``rref`` is the one elimination routine every ``linalg`` operation goes
through.
"""

from __future__ import annotations

import numpy as np


def rref(a_in, p):
    """Reduced row echelon form mod p.  Returns (uint8 array, pivot columns)."""
    a = np.array(a_in, dtype=np.int32, order="C", copy=True)
    m, n = a.shape
    if m == 0 or n == 0:
        return a.astype(np.uint8), ()
    row = 0
    pivots = []
    for col in range(n):
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        if inv != 1:
            a[row] = (a[row] * inv) % p
        hits = np.nonzero(a[:, col])[0]
        hits = hits[hits != row]
        if hits.size:
            a[hits] = (a[hits] - np.outer(a[hits, col], a[row])) % p
        pivots.append(col)
        row += 1
        if row == m:
            break
    return a.astype(np.uint8), tuple(pivots)


def backend_name():
    """The kernel's name, always ``"pure"``.

    Benchmark records are stamped with it, and records whose backends
    differ are not compared, so the name must stay stable.
    """
    return "pure"
