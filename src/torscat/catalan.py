"""The Catalan-family lattices.

Dyck paths under pointwise height dominance, the Tamari lattice of binary
trees under rotation, and a symbolic model of the torsion classes of the
linearly oriented type-A path algebra on interval supports.
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


def _interval_index(n):
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return ivs, {iv: k for k, iv in enumerate(ivs)}


def typeA_torsion_classes(n):
    """Subsets of the interval modules closed under quotients and extensions.

    Quotients of the interval [i,j] are the prefixes [i,k]; the extension of
    adjacent intervals [i,j], [j+1,l] has middle term [i,l].  Returned as
    bitmasks over the intervals in lexicographic order.
    """
    if not 1 <= n <= 6:
        raise ValueError("symbolic type-A model limited to 1 <= n <= 6")
    ivs, idx = _interval_index(n)
    k = len(ivs)
    quot_mask = []
    for (i, j) in ivs:
        m = 0
        for kk in range(i, j + 1):
            m |= 1 << idx[(i, kk)]
        quot_mask.append(m)
    ext_with = [[] for _ in range(k)]  # t -> (other input, middle term) of each rule t enters
    for (i, j) in ivs:
        for l in range(j + 1, n + 1):
            a, b, c = idx[(i, j)], idx[(j + 1, l)], idx[(i, l)]
            ext_with[a].append((b, c))
            ext_with[b].append((a, c))

    def closure(mask, todo):
        """The closure of mask, whose consequences are all in it except
        those of the members in todo: each member is processed once, when
        new, against the rules it enters with a member already present."""
        while todo:
            t = todo & -todo
            todo ^= t
            t = t.bit_length() - 1
            new = quot_mask[t]
            for b, c in ext_with[t]:
                if mask >> b & 1:
                    new |= 1 << c
            new &= ~mask
            mask |= new
            todo |= new
        return mask

    gens = [closure(1 << t, 1 << t) for t in range(k)]
    found = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            j = closure(cur | g, g & ~cur)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


def typeA_torsion_lattice(n):
    """The lattice of symbolic type-A torsion classes, ordered by inclusion,
    certified isomorphic to ``tamari_lattice(n + 1)`` by ``typeA_tamari_map``."""
    return typeA_tamari_map(n)[0]


def typeA_tamari_map(n):
    """The lattice L of symbolic type-A torsion classes and its isomorphism
    onto ``tamari_lattice(n + 1)``, as the index of each class's tree there.

    A class c is closed under quotients, so with [i,i] ... [i,i+r_i-1]
    its prefix run at i, it holds those runs; c goes to the tree with
    bracket vector (r_1, ..., r_n, 0).  The map is certified, with no
    search, by three checks: c is exactly the union of its runs, the map
    is a bijection onto the trees with n + 1 nodes, and it sends the
    covers of L exactly onto the rotation covers.  A bijection that maps
    covers onto covers is an order isomorphism, as each order is the
    transitive closure of its covers.  A failed check raises
    VerificationFailed.
    """
    classes = typeA_torsion_classes(n)
    ivs, _ = _interval_index(n)
    labels = []
    for c in classes:
        mem = [f"M[{ivs[t][0]},{ivs[t][1]}]" for t in range(len(ivs)) if (c >> t) & 1]
        labels.append("{" + ",".join(mem) + "}")
    L = FinLattice.from_sets(classes, labels)
    _, vectors, rot = _rotation_graph(n + 1)
    with_vector = {v: i for i, v in enumerate(vectors)}
    img = []
    for c in classes:
        runs, vec, start = 0, [], 0
        for i in range(n):
            block = c >> start & (1 << n - i) - 1
            r = (~block & block + 1).bit_length() - 1
            runs |= ((1 << r) - 1) << start
            vec.append(r)
            start += n - i
        if runs != c:
            raise VerificationFailed("a type-A class is not the union of its prefix runs", {"class": c})
        img.append(with_vector.get((*vec, 0)))
    if len(vectors) != L.n or None in img or len(set(img)) != L.n:
        raise VerificationFailed("the prefix runs are not a bijection onto the bracket vectors", {"n": n})
    cov = L.covers()
    for x, y in enumerate(img):
        if sum(1 << img[z] for z in bits(cov[x])) != rot[y]:
            raise VerificationFailed("a type-A cover is not a rotation", {"class": classes[x]})
    return L, img
