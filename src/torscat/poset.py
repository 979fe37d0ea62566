"""Finite posets, interval posets of total orders and their order ideals.

Elements are indexed 0..n-1 with display labels; the order relation is
stored as one bitmask per element (``up[i]`` has bit j set iff i <= j).
Everything is immutable after construction.
"""

from __future__ import annotations

import json

__all__ = [
    "Poset",
    "Ideal",
    "interval_poset",
    "order_ideals",
    "ideal_lattice",
    "poset_isomorphic",
    "poset_isos",
]


def bits(mask):
    """Iterate over set bit positions of an int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(masks):
    """Reflexive-transitive closure of adjacency bitmasks: row i holds every
    vertex reachable from i, found breadth-first one frontier mask at a time."""
    out = []
    for i in range(len(masks)):
        reach = frontier = 1 << i
        while frontier:
            step = 0
            for j in bits(frontier):
                step |= masks[j]
            frontier = step & ~reach
            reach |= step
        out.append(reach)
    return out


def unions(rows):
    """Every union of a subfamily of ``rows`` (bitmasks), the empty union 0 included, as a set.

    With reachability rows these are the successor-closed sets of a digraph,
    with the principal down-sets of a preorder its down-sets.
    """
    rows = set(rows)
    found = {0}
    frontier = [0]
    while frontier:
        S = frontier.pop()
        for r in rows:
            T = S | r
            if T not in found:
                found.add(T)
                frontier.append(T)
    return found


def covers_from_up(up):
    """Hasse cover masks: cover[i] = {j : i < j, nothing strictly between}.

    The j above i that are dominated (above some other j' above i) are
    skipped once seen: everything above them is above j' already.
    """
    strict = [u & ~(1 << i) for i, u in enumerate(up)]
    cov = []
    for s in strict:
        dominated, rest = 0, s
        while rest:
            low = rest & -rest
            dominated |= strict[low.bit_length() - 1]
            rest &= ~(dominated | low)
        cov.append(s & ~dominated)
    return cov


class Poset:
    __slots__ = ("n", "labels", "up", "_down", "_covers")

    def __init__(self, labels, up, _checked=False):
        labels = tuple(str(x) for x in labels)
        up = tuple(int(m) for m in up)
        if len(labels) != len(up):
            raise ValueError("labels/up length mismatch")
        object.__setattr__(self, "n", len(up))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "_down", None)
        object.__setattr__(self, "_covers", None)
        if not _checked:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def _validate(self):
        n, up = self.n, self.up
        universe = (1 << n) - 1
        for i in range(n):
            if up[i] & ~universe:
                raise ValueError("relation mentions unknown element")
            if not (up[i] >> i) & 1:
                raise ValueError(f"relation not reflexive at {i}")
            for j in bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise ValueError(f"antisymmetry fails on {i},{j}")
                if up[j] & ~up[i]:
                    raise ValueError(f"transitivity fails at {i} <= {j}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_leq_pairs(cls, labels, pairs, close=True):
        n = len(labels)
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            up[i] |= 1 << j
        if close:
            up = transitive_closure(up)
        return cls(labels, up)

    @classmethod
    def chain(cls, n):
        return cls([str(i + 1) for i in range(n)], [((1 << n) - 1) >> i << i for i in range(n)])

    @classmethod
    def antichain(cls, n):
        return cls([str(i + 1) for i in range(n)], [1 << i for i in range(n)])

    # -- basic queries -----------------------------------------------------

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def down(self):
        if self._down is None:
            dn = [1 << i for i in range(self.n)]
            for i in range(self.n):
                for j in bits(self.up[i]):
                    dn[j] |= 1 << i
            object.__setattr__(self, "_down", tuple(dn))
        return self._down

    def covers(self):
        if self._covers is None:
            object.__setattr__(self, "_covers", tuple(covers_from_up(self.up)))
        return self._covers

    def cover_pairs(self):
        return [(i, j) for i in range(self.n) for j in bits(self.covers()[i])]

    def minimals(self):
        dn = self.down()
        return [i for i in range(self.n) if dn[i] == 1 << i]

    def maximals(self):
        return [i for i in range(self.n) if self.up[i] == 1 << i]

    def linear_extension(self):
        dn = self.down()
        return sorted(range(self.n), key=lambda i: (bin(dn[i]).count("1"), i))

    def opposite(self):
        return Poset(self.labels, self.down(), _checked=True)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        pairs = [[i, j] for i in range(self.n) for j in bits(self.up[i])]
        return {"elements": list(self.labels), "leq": pairs}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        labels = data["elements"]
        return cls.from_leq_pairs(labels, [tuple(x) for x in data["leq"]], close=True)

    def to_dot(self, name="poset"):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.cover_pairs():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def interval_poset(n):
    """Intervals [i,j], 1 <= i <= j <= n, ordered by containment."""
    if n < 1:
        raise ValueError("interval_poset requires n >= 1")
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    idx = {iv: k for k, iv in enumerate(ivs)}
    up = []
    for (i, j) in ivs:
        m = 0
        for (k, l) in ivs:
            if k <= i and j <= l:
                m |= 1 << idx[(k, l)]
        up.append(m)
    labels = [f"[{i},{j}]" for (i, j) in ivs]
    return Poset(labels, up, _checked=True)


class Ideal:
    """A downward-closed subset of a poset, stored as a bitmask."""

    __slots__ = ("poset", "mask")

    def __init__(self, poset, mask, _checked=False):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "mask", int(mask))
        if not _checked:
            dn = poset.down()
            for j in bits(self.mask):
                if dn[j] & ~self.mask:
                    raise ValueError("subset is not downward closed")

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def members(self):
        return [self.poset.labels[i] for i in bits(self.mask)]

    def __contains__(self, i):
        return bool((self.mask >> i) & 1)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.poset == other.poset and self.mask == other.mask

    def __hash__(self):
        return hash((self.poset, self.mask))

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"Ideal({sorted(bits(self.mask))})"


def iter_ideal_masks(P):
    """All order ideals of P as bitmasks, iteratively (no recursion depth limit).

    Each ideal is produced exactly once: elements are added in increasing
    position along a fixed linear extension, so an ideal's build sequence is
    unique.
    """
    order = P.linear_extension()
    dn = P.down()
    strict = [dn[e] & ~(1 << e) for e in order]
    ebit = [1 << e for e in order]
    n = P.n
    stack = [(0, 0)]
    while stack:
        mask, start = stack.pop()
        yield mask
        for idx in range(start, n):
            if not mask & ebit[idx] and strict[idx] & ~mask == 0:
                stack.append((mask | ebit[idx], idx + 1))


def order_ideals(P):
    """All order ideals of P, sorted by (size, mask)."""
    masks = sorted(iter_ideal_masks(P), key=lambda m: (bin(m).count("1"), m))
    return [Ideal(P, m, _checked=True) for m in masks]


def ideal_lattice(P):
    """The distributive lattice of order ideals of P (meet/join = intersection/union)."""
    from .lattice import downset_lattice

    return downset_lattice(P.down(), P.labels)


# -- isomorphism search ----------------------------------------------------


def _joint_colors(P, Q):
    """Iteratively refined vertex colors, canonicalized across both posets."""

    def initial(X):
        cov_up = X.covers()
        cov_dn = covers_from_up(X.down())
        dn = X.down()
        return (
            [
                (
                    bin(dn[i]).count("1"),
                    bin(X.up[i]).count("1"),
                    bin(cov_up[i]).count("1"),
                    bin(cov_dn[i]).count("1"),
                )
                for i in range(X.n)
            ],
            cov_up,
            cov_dn,
        )

    cp, cup_p, cdn_p = initial(P)
    cq, cup_q, cdn_q = initial(Q)
    canon = {}
    cp = [canon.setdefault(c, len(canon)) for c in cp]
    cq = [canon.setdefault(c, len(canon)) for c in cq]
    while True:
        def sig(X, colors, cup, cdn):
            return [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in bits(cup[i]))),
                    tuple(sorted(colors[j] for j in bits(cdn[i]))),
                )
                for i in range(X.n)
            ]

        sp = sig(P, cp, cup_p, cdn_p)
        sq = sig(Q, cq, cup_q, cdn_q)
        canon = {}
        np_ = [canon.setdefault(s, len(canon)) for s in sp]
        nq = [canon.setdefault(s, len(canon)) for s in sq]
        if len(set(np_) | set(nq)) == len(set(cp) | set(cq)):
            return np_, nq
        cp, cq = np_, nq


def poset_isos(P, Q):
    """Yield all order isomorphisms P -> Q as lists (image of element i at i)."""
    if P.n != Q.n:
        return
    n = P.n
    cp, cq = _joint_colors(P, Q)
    if sorted(cp) != sorted(cq):
        return
    by_color = {}
    for j, c in enumerate(cq):
        by_color.setdefault(c, []).append(j)
    # map most-constrained (rarest color) elements first
    order = sorted(range(n), key=lambda i: (len(by_color[cp[i]]), i))
    mapping = [-1] * n
    used = [False] * n

    def backtrack(k):
        if k == n:
            yield list(mapping)
            return
        i = order[k]
        for j in by_color[cp[i]]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = mapping[i2]
                if P.leq(i, i2) != Q.leq(j, j2) or P.leq(i2, i) != Q.leq(j2, j):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                yield from backtrack(k + 1)
                mapping[i] = -1
                used[j] = False

    yield from backtrack(0)


def poset_isomorphic(P, Q):
    """An order isomorphism P -> Q as a list, or None."""
    for m in poset_isos(P, Q):
        return m
    return None
