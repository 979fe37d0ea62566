"""Finite lattice structure theory.

Lattice axioms, (semi)distributivity, join-irreducibles, congruences, the
congruence lattice and the forcing poset of join-irreducible congruences.
A lattice is a ``Poset`` whose meets and joins exist; they are looked up
from its bitmask rows.  The two failures every layer above raises live
here: ``VerificationFailed`` (a certificate failed) and ``LimitExceeded``
(a cap was hit).
"""

from __future__ import annotations

import json
import struct

from .poset import Poset, _containing, bits, covers_from_up, pair_rows, poset_isos, transitive_closure, transpose, unions

__all__ = [
    "LimitExceeded",
    "NotALattice",
    "VerificationFailed",
    "FinLattice",
    "check_size",
    "downset_lattice",
    "ideal_lattice",
    "Congruence",
    "principal_congruence",
    "all_congruences",
    "congruence_lattice",
    "forcing_poset",
    "is_congruence_uniform",
    "lattice_isomorphic",
]


# from_sets builds n inclusion rows of n bits and certifies meets in n |M| lookups,
# M a subset of the members: at most n^2 = 67M lookups at this cap.
PAIRWISE_CAP = 8192


class LimitExceeded(Exception):
    """A search or table cap was hit; the input itself is well formed."""


def check_size(n):
    """Raise LimitExceeded for a lattice of more than ``PAIRWISE_CAP`` elements."""
    if n > PAIRWISE_CAP:
        raise LimitExceeded(f"lattice of {n} elements exceeds the cap of {PAIRWISE_CAP} elements")


class NotALattice(Exception):
    def __init__(self, a, b, kind):
        super().__init__(f"elements {a} and {b} have no {kind}")
        self.pair = (a, b)
        self.kind = kind


class VerificationFailed(Exception):
    """A computed structure failed one of the checks that certify it."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data or {}


class FinLattice(Poset):
    """A poset in which every two elements have a meet and a join.

    The order is the ``Poset`` one; meets and joins are looked up from it.
    """

    __slots__ = ("_up_index", "_down_index")

    def __init__(self, labels, up):
        # up is inclusion on a family of sets (from_sets, from_ring) or its dual, a partial order already
        super().__init__(labels, up, _checked=True)
        object.__setattr__(self, "_up_index", None)
        object.__setattr__(self, "_down_index", None)

    @classmethod
    def from_sets(cls, masks, labels):
        """The lattice of a family of sets (bitmasks) ordered by inclusion.

        Element i is ``masks[i]``.  A family closed under intersection with
        one greatest member is a lattice: the meet of two members is their
        intersection, and the join is the intersection of the members
        containing their union.  Raises NotALattice otherwise, and
        LimitExceeded on more than ``PAIRWISE_CAP`` members.

        Closure under intersection is certified in n |M| lookups, with M
        the members that are not the intersection of their upper covers
        (a maximal member has none, so it is in M).  Every member x is the
        intersection of the members of M containing it, by downward
        induction: if x is not in M, it is the intersection of its upper
        covers, and each of them the intersection of the members of M
        containing it, all of which contain x.  So if m & g is a member for
        every member m and every g in M, then m & m' = m & g_1 & ... & g_r
        for the g_i in M containing m', and each step stays in the family.
        The inclusion order and its covers, which find M, are kept as
        ``up`` and the ``covers()`` cache.
        """
        masks, index, column = _family(masks)
        up = _containing(masks, column)
        cov = covers_from_up(up)
        for g, c in enumerate(cov):
            above = -1
            for x in bits(c):
                above &= masks[x]
            mg = masks[g]
            if above != mg and not index.keys() >= {m & mg for m in masks}:
                a = next(a for a, m in enumerate(masks) if m & mg not in index)
                raise NotALattice(labels[a], labels[g], "meet")
        tops = [i for i, c in enumerate(cov) if not c]
        if len(tops) > 1:
            raise NotALattice(labels[tops[0]], labels[tops[1]], "join")
        L = cls(labels, up)
        object.__setattr__(L, "_covers", tuple(cov))
        return L

    @classmethod
    def from_ring(cls, masks, labels, rows=None):
        """The lattice of a ring of sets (bitmasks closed under union and
        intersection) ordered by inclusion, certified in O(n k) lookups for
        n members over k points.

        Let B be the intersection of all members and r_t the intersection
        of the members holding the point t.  The certificate checks that B
        is a member, that every r_t is a member, and that m | r_t is a
        member for every member m and every point t.  Every member m' is B
        together with the r_t over t in m': t lies in r_t, and B and r_t
        lie in m', a member holding t.  So the family is closed under
        union: m | m' is reached from m, which contains B, by adding those
        r_t one at a time, and each step stays in the family.  It is closed
        under intersection: by the same argument m & m' is B together with
        the r_t over t in m & m' (each r_t lies in both), a union of
        members.  So meets are intersections and joins are unions, and the
        lattice is distributive.

        With ``rows`` (one bitmask per point) the family must moreover be
        the down-sets of the preorder whose principal down-sets are the
        rows: r_t is then the least down-set holding t, so the check is
        B == 0 and r_t == rows[t] for every point t.  Each member, the
        union of its r_t, is then a union of rows, and each union of rows
        is a member, reached from B = 0 by adding rows.  A failed check raises
        VerificationFailed; more than ``PAIRWISE_CAP`` members raise
        LimitExceeded, as from_sets does.
        """
        masks, index, column = _family(masks)
        least = {}  # point -> r_t
        for t, col in enumerate(column):
            if col:
                r = -1
                for i in bits(col):
                    r &= masks[i]
                least[t] = r
        B = masks[0]
        for m in masks:
            B &= m
        if B not in index:
            raise VerificationFailed("the members have no least member", {"meet": B})
        for t, r in least.items():
            if r not in index:
                raise VerificationFailed("the members holding a point meet outside the family", {"point": t})
        if rows is not None:
            wrong = [t for t, row in enumerate(rows) if least.get(t) != row]
            if B or wrong or len(least) != len(rows):
                raise VerificationFailed("the family is not the down-sets of the rows", {"points": wrong})
        points = sum(1 << t for t in least)
        for a, m in enumerate(masks):
            if not index.keys() >= {m | least[t] for t in bits(points & ~m)}:
                t = next(t for t in bits(points & ~m) if m | least[t] not in index)
                raise VerificationFailed("join is not the union", {"a": labels[a], "point": t})
        return cls(labels, _containing(masks, column))

    @classmethod
    def from_order(cls, up, labels=None):
        """Build a lattice from a partial order; raises NotALattice, and
        ValueError for a relation that is not a partial order.

        ``up`` may be a Poset or a sequence of up-set bitmasks.  In a
        lattice the principal down-sets meet in the down-set of the meet,
        so the lattice is the family of principal down-sets.  Their
        inclusion order is ``up`` iff ``up`` is a partial order (see
        ``Poset._validate``), so ``up`` is checked on its own only on failure.
        """
        if labels is None:
            labels = up.labels if isinstance(up, Poset) else [str(i) for i in range(len(up))]
        if isinstance(up, Poset):
            up = up.up
        try:
            down = transpose(up, len(up))
            L = cls.from_sets(down, labels)
            if L.up != tuple(up):
                raise ValueError("the principal down-sets are ordered otherwise")
        except (NotALattice, ValueError, OverflowError):  # OverflowError: a row out of range
            Poset(labels, up)  # a relation that is no partial order raises here, naming the element at fault
            raise
        object.__setattr__(L, "_down", tuple(down))
        return L

    # -- lattice operations ------------------------------------------------

    def bottom(self):
        """The element whose up-set is everything."""
        return self._with_up()[(1 << self.n) - 1]

    def top(self):
        """The element whose down-set is everything."""
        return self._with_down()[(1 << self.n) - 1]

    def _with_up(self):
        """The element of each up-set, as a dict."""
        if self._up_index is None:
            object.__setattr__(self, "_up_index", {u: i for i, u in enumerate(self.up)})
        return self._up_index

    def _with_down(self):
        """The element of each down-set, as a dict."""
        if self._down_index is None:
            object.__setattr__(self, "_down_index", {d: i for i, d in enumerate(self.down())})
        return self._down_index

    def join(self, a, b):
        """The least upper bound: the element whose up-set is up[a] & up[b]."""
        return self._with_up()[self.up[a] & self.up[b]]

    def meet(self, a, b):
        """The greatest lower bound: the element whose down-set is down[a] & down[b]."""
        dn = self.down()
        return self._with_down()[dn[a] & dn[b]]

    def opposite(self):
        """The order-dual lattice: meets and joins exchanged, and the
        element indices of up- and down-sets with them."""
        op = FinLattice(self.labels, self.down())
        object.__setattr__(op, "_down", self.up)
        object.__setattr__(op, "_up_index", self._down_index)
        object.__setattr__(op, "_down_index", self._up_index)
        return op

    # -- structural predicates ----------------------------------------------

    def is_distributive(self):
        """Every join-irreducible j is join-prime: {x : not j <= x} has a greatest element."""
        full, dn = (1 << self.n) - 1, self.down()
        return all(_has_extreme(full & ~self.up[j], dn) for j, _ in self.join_irreducibles())

    def is_semidistributive(self):
        """Meet- and join-semidistributive, decided through the irreducibles.

        The lattice is meet-semidistributive iff, for every join-irreducible
        j with lower cover j_*, the set {x : j_* <= x, not j <= x} has a
        greatest element kappa(j) (Freese-Jezek-Nation, Free Lattices,
        ch. 2); join-semidistributivity is the dual statement for the
        meet-irreducibles.
        """
        up, dn = self.up, self.down()
        return all(
            _has_extreme(up[low] & ~up[j], dn) for j, low in self.join_irreducibles()
        ) and all(_has_extreme(dn[upp] & ~dn[m], up) for m, upp in self.meet_irreducibles())

    def join_irreducibles(self):
        """Elements with exactly one lower cover, as (element, its cover).

        x has exactly one lower cover iff the elements strictly below x
        have a greatest one, and then that is the cover: every element
        below x lies below some lower cover.  So it is the element whose
        down-set is down[x] without x.
        """
        index = self._with_down()
        return [(x, index[d ^ 1 << x]) for x, d in enumerate(self.down()) if d ^ 1 << x in index]

    def meet_irreducibles(self):
        """Elements with exactly one upper cover, as (element, its cover):
        the element whose up-set is up[x] without x, dually."""
        index = self._with_up()
        return [(x, index[u ^ 1 << x]) for x, u in enumerate(self.up) if u ^ 1 << x in index]

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"size": self.n, "leq": self.leq_pairs()}

    @classmethod
    def from_json(cls, data, labels=None):
        if isinstance(data, str):
            data = json.loads(data)
        if not (isinstance(data, dict) and type(data.get("size")) is int and isinstance(data.get("leq"), list)):
            raise ValueError('a lattice is an object with an integer "size" and a "leq" list')
        return cls.from_order(pair_rows(data["size"], data["leq"]), labels=labels)


def _family(masks):
    """The members as ints, checked non-empty, distinct and within
    ``PAIRWISE_CAP``, with their index and the point columns: column[t]
    holds the members that contain t."""
    masks = [int(m) for m in masks]
    check_size(len(masks))
    if not masks:
        raise NotALattice(None, None, "bottom (empty order)")
    index = {m: i for i, m in enumerate(masks)}
    if len(index) != len(masks):
        raise ValueError("the sets of a lattice must be distinct")
    return masks, index, transpose(masks, max(masks).bit_length())


def _has_extreme(S, beyond):
    """Whether the set S (a bitmask) has a member x with S inside beyond[x].

    With down-sets for ``beyond`` that is a greatest element of S, with
    up-sets a least one.
    """
    return any(S & ~beyond[x] == 0 for x in bits(S))


def downset_lattice(rows, labels):
    """The lattice of the down-sets of a preorder, given by its principal
    down-sets ``rows``, bitmasks over points named by ``labels``, ordered
    by inclusion.

    The members are the unions of the rows; ``from_ring`` certifies that
    they are closed under union and intersection and are exactly the
    down-sets of the rows, a distributive lattice whose joins are unions
    (Birkhoff).  Elements are sorted by (size, mask) and labelled "{a,b}".
    """
    masks = sorted(unions(rows), key=lambda m: (bin(m).count("1"), m))
    labels = ["{" + ",".join(labels[i] for i in bits(m)) + "}" for m in masks]
    return FinLattice.from_ring(masks, labels, rows)


def ideal_lattice(P):
    """The distributive lattice of order ideals of P (meet/join = intersection/union)."""
    return downset_lattice(P.down(), P.labels)


# -- congruences -------------------------------------------------------------


class Congruence:
    """A lattice congruence stored as a canonical partition.

    ``block[i]`` is the least element of i's block, so equality of
    congruences is equality of tuples.
    """

    __slots__ = ("block",)

    def __init__(self, block):
        object.__setattr__(self, "block", tuple(int(b) for b in block))

    def __setattr__(self, name, value):
        raise AttributeError("Congruence is immutable")

    @property
    def n(self):
        return len(self.block)

    def collapses(self, a, b):
        return self.block[a] == self.block[b]

    def num_blocks(self):
        return len(set(self.block))

    def blocks(self):
        out = {}
        for i, b in enumerate(self.block):
            out.setdefault(b, []).append(i)
        return [out[k] for k in sorted(out)]

    def refines(self, other):
        """self <= other in the congruence lattice (every block within a block)."""
        ob = other.block
        return all(ob[i] == ob[self.block[i]] for i in range(len(ob)))

    def is_discrete(self):
        return self.block == tuple(range(len(self.block)))

    def is_full(self):
        return all(b == 0 for b in self.block)

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.block == other.block

    def __hash__(self):
        return hash(self.block)

    def __repr__(self):
        return "Congruence(" + "|".join(",".join(map(str, blk)) for blk in self.blocks()) + ")"


def _congruence_key(sig, S):
    """The congruence collapsing exactly the join-irreducibles in S onto
    their lower covers, as its block list, with the key of its place in the
    order ``all_congruences`` lists them, finest first.

    x and y share a block iff the same join-irreducibles outside S lie
    below both, and block[x] is the least element of x's block.  The key
    is (-#blocks, block), with the block packed as big-endian 16-bit
    integers, bytes that compare as the tuple does (``PAIRWISE_CAP`` <
    2^16 bounds the elements of a lattice).  Returns (key, block).
    """
    first, keep = {}, ~S
    block = [first.setdefault(m & keep, x) for x, m in enumerate(sig)]
    return (-len(first), struct.pack(f">{len(block)}H", *block)), block


def _signatures(L):
    """The join-irreducibles j_t of L (``L.join_irreducibles()``) and each
    element's signature sig[x] = {t : j_t <= x}; an element is the join of
    the j_t below it, so signatures are distinct."""
    ji = L.join_irreducibles()
    return ji, transpose([L.up[j] for j, _ in ji], L.n)


def _dependency(L):
    """The D* order on the join-irreducibles of L, as bitmask rows.

    j D k iff some x has j <= k v x but not j <= k_* v x (k_* the lower
    cover of k), and con(j_*, j) <= con(k_*, k) iff j D* k, the
    reflexive-transitive closure (Freese-Jezek-Nation, Free Lattices,
    Lemma 2.36 and Thm 2.35).  The x can be taken meet-irreducible and
    above k_*: k_* v x is a meet of such m, one of them not above j, and
    k v m is above k v x.  With t indexing L.join_irreducibles(), returns
    (below, sig): below[s] holds the t with j_t D* j_s, and sig[x] the t
    with j_t <= x.  |J| |M| joins and operations on |J|-bit masks.
    """
    ji, sig = _signatures(L)
    mi = sum(1 << m for m, _ in L.meet_irreducibles())
    dep = [0] * len(ji)
    for s, (k, low) in enumerate(ji):
        for m in bits(L.up[low] & ~L.up[k] & mi):
            dep[s] |= sig[L.join(k, m)] & ~sig[m]
    return transitive_closure(dep), sig


def _generated(below, sig, x, y):
    """The join-irreducibles that con(x, y) collapses, for x <= y.

    con(x, y) is the join of the con(j_*, j) over the j <= y with j not
    <= x, so it collapses their D*-down-closure.
    """
    S = 0
    for t in bits(sig[y] & ~sig[x]):
        S |= below[t]
    return S


def principal_congruence(L, a, b):
    """Smallest congruence of L identifying a and b: con(a ^ b, a v b), read off D*."""
    below, sig = _dependency(L)
    return Congruence(_congruence_key(sig, _generated(below, sig, L.meet(a, b), L.join(a, b)))[1])


def all_congruences(L):
    """Every congruence of L: one per D*-down-set of join-irreducibles (FJN Thm 2.35)."""
    below, sig = _dependency(L)
    return [Congruence(block) for _, block in sorted(_congruence_key(sig, S) for S in unions(below))]


def congruence_lattice(L):
    """The lattice of all congruences of L, presented in the coarsening order.

    The elements are the congruences of all_congruences(L), in its order;
    x <= y here means y refines x, so the full congruence sits at the
    bottom and the discrete one at the top.  This dual presentation is the
    one under which the congruence lattice of the Tamari lattice matches
    the dominance order on Dyck paths; the refinement-ordered lattice is
    its opposite, the ideal lattice of the forcing poset.  Each element is
    labelled by its blocks, "0,1|2".

    A congruence collapsing exactly the D*-down-set S keeps the other
    join-irreducibles j apart from j_*, so it is the D*-up-set full & ~S,
    and Con(L) is the ring of D*-up-sets ordered by inclusion (FJN
    Thm 2.35).  One pass per S gives the sort key and the label, and
    ``FinLattice.from_ring`` certifies the up-sets against the rows of
    D* transposed, the principal up-sets.
    """
    below, sig = _dependency(L)
    downs = list(unions(below))
    check_size(len(downs))
    names = [str(x) for x in range(L.n)]
    keys, labels = [], []
    for S in downs:
        key, block = _congruence_key(sig, S)
        blocks = {b: [] for b in dict.fromkeys(block)}
        for b, name in zip(block, names):
            blocks[b].append(name)
        keys.append(key)
        labels.append("|".join(map(",".join, blocks.values())))
    order = sorted(range(len(downs)), key=keys.__getitem__)
    del keys  # 2n bytes a congruence, freed before the certificate
    k, full = len(below), (1 << len(below)) - 1
    return FinLattice.from_ring([full & ~downs[i] for i in order], [labels[i] for i in order], rows=transpose(below, k))


def forcing_poset(L):
    """Join-irreducible congruences of L ordered by refinement.

    They are the con(j_*, j), one per D*-class, each labelled by the first
    cover a < b generating it; con(a, b) collapses the D*-down-closure of
    the join-irreducibles below b and not below a.  Con(L) is the lattice
    of order ideals of this poset (Birkhoff); for congruence-uniform
    lattices the elements biject with both the join-irreducible elements
    and the cover classes of L.
    """
    below, sig = _dependency(L)
    gen = {}
    for a, b in L.cover_pairs():
        gen.setdefault(_generated(below, sig, a, b), (a, b))
    ji = sorted(set(below), key=lambda S: _congruence_key(sig, S)[0])
    up = [sum(1 << j for j, T in enumerate(ji) if S & ~T == 0) for S in ji]
    labels = ["cg({},{})".format(*gen[S]) for S in ji]
    return Poset(labels, up)


def is_congruence_uniform(L):
    """D is acyclic on J(L) and dually on M(L) (Day): no two rows of D* agree."""
    return all(len(set(below)) == len(below) for below, _ in map(_dependency, (L, L.opposite())))


def lattice_isomorphic(L, M):
    """A lattice isomorphism L -> M as a list, or None.

    For each order isomorphism phi between the join-irreducible subposets
    (the transposes of the signatures), x goes to the element of M whose
    signature is phi(sig x), one dict lookup per element.  The first such
    lift defined at every x that maps the covers of L exactly onto those of
    M is a bijection and an order isomorphism, and is returned.  It is the
    list that lifting by joins, x to the join of the j'_phi(t) over t in
    sig x, returns: an accepted lift of either kind is a lattice isomorphism
    g with g(j_t) = j'_phi(t), the join-irreducible whose down-set in J(M)
    is phi(down-set of t), so g(x) is that join and sig g(x) = phi(sig x).
    For each phi both lifts thus accept or reject together, and agree.
    """
    if L.n != M.n:
        return None
    (jiL, sigL), (jiM, sigM) = _signatures(L), _signatures(M)
    k = len(jiL)
    if len(jiM) != k:
        return None
    PL, PM = (Poset(range(k), transpose([sig[j] for j, _ in ji], k), _checked=True)
              for ji, sig in ((jiL, sigL), (jiM, sigM)))
    with_sig = {s: y for y, s in enumerate(sigM)}
    rows, covL, covM = [L.up[j] for j, _ in jiL], L.covers(), M.covers()
    for phi in poset_isos(PL, PM):
        # row phi(t) of moved is up[j_t], so its column x is phi(sig x)
        moved = [rows[t] for t in sorted(range(k), key=phi.__getitem__)]
        img = [with_sig.get(s) for s in transpose(moved, L.n)]
        if None not in img and all(sum(1 << img[y] for y in bits(covL[x])) == covM[img[x]] for x in range(L.n)):
            return img
    return None
