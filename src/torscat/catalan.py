"""The Catalan-family lattices.

Dyck paths under pointwise height dominance, the Tamari lattice of binary
trees under rotation, and a symbolic model of the torsion classes of the
linearly oriented type-A path algebra on interval supports, enumerated as
their prefix-run vectors, which are the Tamari bracket vectors with a
trailing 0 dropped.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import FinLattice, VerificationFailed, check_size
from .poset import Poset, bits, interval_poset

__all__ = [
    "dyck_paths",
    "dyck_lattice",
    "dyck_to_ideal",
    "binary_trees",
    "tree_to_parens",
    "tamari_lattice",
    "typeA_torsion_classes",
    "typeA_torsion_lattice",
    "typeA_tamari_map",
]


def _heights(steps):
    h = 0
    out = [0]
    for s in steps:
        h += 1 if s == "U" else -1
        out.append(h)
    return tuple(out)


def dyck_paths(n):
    """All Dyck paths with n up-steps, in a fixed deterministic order."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = []

    def build(prefix, ups, downs):
        if ups == n and downs == n:
            out.append("".join(prefix))
            return
        if ups < n:
            prefix.append("U")
            build(prefix, ups + 1, downs)
            prefix.pop()
        if downs < ups:
            prefix.append("D")
            build(prefix, ups, downs + 1)
            prefix.pop()

    build([], 0, 0)
    return sorted(out, key=_heights)


def dyck_lattice(n):
    """Dyck paths with n up-steps under pointwise height dominance.

    Each path is encoded by its height profile in unary (bit i*(n+1)+h is
    set for 1 <= h <= heights[i]), so dominance is inclusion and the
    pointwise min/max of two profiles is their AND/OR; ``from_ring``
    certifies that the profiles are closed under both.
    """
    paths = dyck_paths(n)
    masks = []
    for s in paths:
        m = 0
        for i, h in enumerate(_heights(s)):
            m |= ((1 << h) - 1) << (i * (n + 1) + 1)
        masks.append(m)
    return FinLattice.from_ring(masks, paths)


def dyck_to_ideal(path, target=None):
    """Order ideal of interval_poset(n-1), as a bitmask, formed by the boxes
    under the U/D path with n up-steps.

    The box [i, j] (1 <= i <= j <= n-1) lies strictly between the zigzag
    and the path exactly when the height at step i+j is at least j-i+2.
    This is a bijection onto the ideals, and an order isomorphism from the
    dominance order (checked exhaustively in the tests).  A word that is
    not a Dyck path, or a target that is not interval_poset(n-1), raises
    ValueError.
    """
    h = _heights(path)
    if set(path) - {"U", "D"} or min(h) < 0 or h[-1] != 0:
        raise ValueError(f"not a Dyck path: {path!r}")
    n = len(path) // 2
    if target is None:
        target = interval_poset(n - 1) if n >= 2 else Poset.antichain(0)
    try:
        ivs = [tuple(map(int, lab.strip("[]").split(","))) for lab in target.labels]
        fits = len(ivs) == n * (n - 1) // 2 and all(1 <= i <= j < n for i, j in ivs)
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"target is not interval_poset({n - 1}), the poset of the path {path!r}")
    return sum(1 << k for k, (i, j) in enumerate(ivs) if h[i + j] >= j - i + 2)


# -- binary trees and the Tamari lattice -------------------------------------


@lru_cache(maxsize=None)
def binary_trees(n):
    """All binary trees with n internal nodes (leaf = None, node = (l, r))."""
    if n == 0:
        return (None,)
    out = []
    for k in range(n):
        for l in binary_trees(k):
            for r in binary_trees(n - 1 - k):
                out.append((l, r))
    return tuple(out)


def tree_to_parens(t):
    """The classical bijection onto balanced strings: (l, r) -> '(' l ')' r."""
    return "" if t is None else "(" + tree_to_parens(t[0]) + ")" + tree_to_parens(t[1])


def _rotations_up(t):
    """All trees obtained by one rotation ((A,B),C) -> (A,(B,C)) somewhere."""
    out = []
    if t is None:
        return out
    l, r = t
    if l is not None:
        a, b = l
        out.append((a, (b, r)))
    for l2 in _rotations_up(l):
        out.append((l2, r))
    for r2 in _rotations_up(r):
        out.append((l, r2))
    return out


def _bracket_vector(t):
    """The bracket vector of a binary tree: the size of the right subtree
    of each node, nodes in in-order (Huang-Tamari)."""
    if t is None:
        return ()
    right = _bracket_vector(t[1])
    return _bracket_vector(t[0]) + (len(right),) + right


def _rotation_graph(n):
    """The binary trees with n nodes sorted by ``tree_to_parens``, their
    bracket vectors, and their rotation covers as bitmask rows."""
    trees = sorted(binary_trees(n), key=tree_to_parens)
    check_size(len(trees))
    index = {t: i for i, t in enumerate(trees)}
    rot = [sum(1 << index[t2] for t2 in _rotations_up(t)) for t in trees]
    return trees, [_bracket_vector(t) for t in trees], rot


def tamari_lattice(n):
    """Binary trees with n internal nodes; covers are single rotations.

    T <= T' iff the bracket vector of T is at most that of T' in every
    coordinate, and meets are componentwise minima (Huang-Tamari, J.
    Combin. Theory A 13, 1972).  Each tree is encoded by its bracket
    vector r in unary (bits i*n ... i*n + r_i - 1), so that order is
    inclusion, and ``from_sets`` certifies the lattice in n |M| lookups.
    Its Hasse covers must be the rotations, an O(covers) check: a finite
    order is the transitive closure of its covers, so the order is then
    the rotation order.  A mismatch raises VerificationFailed.  More than
    ``PAIRWISE_CAP`` trees raise LimitExceeded before any set is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    trees, vectors, rot = _rotation_graph(n)
    masks = [sum(((1 << r) - 1) << (i * n) for i, r in enumerate(v)) for v in vectors]
    L = FinLattice.from_sets(masks, [tree_to_parens(t) for t in trees])
    if L.covers() != tuple(rot):
        x = next(x for x, c in enumerate(L.covers()) if c != rot[x])
        raise VerificationFailed("the bracket-vector covers are not the rotations", {"tree": L.labels[x]})
    return L


# -- symbolic type-A torsion classes ------------------------------------------


def _prefix_runs(n):
    """The symbolic type-A torsion classes as (mask, r) pairs, in
    ``typeA_torsion_classes`` order, r = (r_1, ..., r_n) the prefix runs.

    Quotients of the interval [i,j] are the prefixes [i,k], k <= j, and
    the extension of [i,j] by [j+1,l] has middle term [i,l].  A class c
    closed under quotients is the union of its prefix runs [i,i] ...
    [i,i+r_i-1], r_i the longest: were [i,j] in c with j >= i + r_i, so
    would be its quotient [i,i+r_i].  Such a union holds [i,j] iff
    j < i + r_i, so it is closed under extensions iff, for i <= j <
    min(i + r_i, n), every l <= j + r_(j+1) has l < i + r_i, that is

        r_(j+1) + (j+1-i) <= r_i,

    which holds anyway when r_(j+1) = 0.  So the classes are exactly the
    vectors with 0 <= r_i <= n - i + 1 that satisfy it, and as it bounds
    r_i by r_(i+1) ... r_n alone, they are built from r_n back to r_1,
    each run prepended to the mask as one block of n - i + 1 bits.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    runs = [(0, ())]
    for i in range(n, 0, -1):
        runs = [(m << (n - i + 1) | (1 << ri) - 1, (ri, *t)) for m, t in runs for ri in range(n - i + 2)
                if all(t[j - i] + (j + 1 - i) <= ri for j in range(i, min(i + ri, n)))]
    return sorted(runs, key=lambda mr: (sum(mr[1]), mr[0]))


def typeA_torsion_classes(n):
    """Subsets of the interval modules closed under quotients and extensions,
    as bitmasks over the intervals in lexicographic order, sorted by
    (size, mask); ``_prefix_runs`` enumerates them."""
    return [m for m, _ in _prefix_runs(n)]


def typeA_torsion_lattice(n):
    """The lattice of symbolic type-A torsion classes, ordered by inclusion,
    certified isomorphic to ``tamari_lattice(n + 1)`` by ``typeA_tamari_map``."""
    return typeA_tamari_map(n)[0]


def typeA_tamari_map(n):
    """The lattice L of symbolic type-A torsion classes and its isomorphism
    onto ``tamari_lattice(n + 1)``, as the index of each class's tree there.

    The class with prefix runs r goes to the tree with bracket vector
    (r_1, ..., r_n, 0).  The map is certified, with no search, by two
    checks: it is a bijection onto the trees with n + 1 nodes, and it
    sends the covers of L exactly onto the rotation covers.  A bijection
    that maps covers onto covers is an order isomorphism, as each order
    is the transitive closure of its covers.  A failed check raises
    VerificationFailed.
    """
    runs = _prefix_runs(n)
    _, vectors, rot = _rotation_graph(n + 1)
    with_vector = {v: i for i, v in enumerate(vectors)}
    img = [with_vector.get((*r, 0)) for _, r in runs]
    if len(vectors) != len(img) or None in img or len(set(img)) != len(img):
        raise VerificationFailed("the prefix runs are not a bijection onto the bracket vectors", {"n": n})
    labels = ["{" + ",".join(f"M[{i},{j}]" for i, ri in enumerate(r, 1) for j in range(i, i + ri)) + "}"
              for _, r in runs]
    L = FinLattice.from_sets([m for m, _ in runs], labels)
    cov = L.covers()
    for x, y in enumerate(img):
        if sum(1 << img[z] for z in bits(cov[x])) != rot[y]:
            raise VerificationFailed("a type-A cover is not a rotation", {"class": runs[x][0]})
    return L, img
