"""Finite posets, interval posets of total orders and bit-matrix kernels.

Elements are indexed 0..n-1 with display labels; the order relation is
stored as one bitmask per element (``up[i]`` has bit j set iff i <= j).
Everything is immutable after construction.
"""

from __future__ import annotations

import json
import struct
from itertools import chain

__all__ = [
    "Poset",
    "interval_poset",
    "poset_isomorphic",
    "poset_isos",
]


def bits(mask):
    """Iterate over set bit positions of an int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


TILE = 128  # bits per side of the square tiles transpose works on


def _swap_masks(T):
    """The delta swaps that transpose a T x T bit tile stored row-major
    (bit r*T + c is row r, column c), as (shift, mask bytes) pairs.

    The swap for s exchanges bit s of the row and column indices, moving
    (r, c) with r & s clear and c & s set to (r + s, c - s), which is
    s*(T-1) bits higher; applying it for every s in T/2, ..., 1 maps (r, c)
    to (c, r).
    """
    out = []
    s = T // 2
    while s:
        row = sum(1 << c for c in range(T) if c & s).to_bytes(T // 8, "little")
        out.append((s * (T - 1), b"".join(bytes(T // 8) if r & s else row for r in range(T))))
        s //= 2
    return out


_SWAPS = _swap_masks(TILE)


def transpose(rows, k):
    """The transpose of a bit matrix: ``rows`` are n bitmasks below 2**k,
    and row j of the result holds bit i iff bit j of rows[i] is set.

    Each band of TILE rows is packed into one int as a row of TILE x TILE
    tiles, every tile stored row-major, and all its tiles are transposed at
    once by log2(TILE) delta swaps.  Row j of the result is then the j-th
    TILE-bit piece of every band, joined, one column of tiles at a time.
    The work is whole-int operations and byte slicing in C, not one step
    per set bit, and no more than one band or one column of tiles is held
    as pieces.
    """
    if not rows:
        return [0] * k
    w, nc = TILE // 8, -(-k // TILE)
    swaps = [(shift, int.from_bytes(mask * nc, "little")) for shift, mask in _SWAPS]
    split = struct.Struct(f"{w}s" * nc).unpack
    tile = struct.Struct(f"{w}s" * TILE).unpack_from
    bands = []
    for r0 in range(0, len(rows), TILE):
        cells = [split(r.to_bytes(nc * w, "little")) for r in rows[r0 : r0 + TILE]]
        cells += [(bytes(w),) * nc] * (TILE - len(cells))
        x = int.from_bytes(b"".join(chain.from_iterable(zip(*cells))), "little")
        for shift, mask in swaps:
            t = (x ^ x >> shift) & mask
            x ^= t ^ t << shift
        bands.append(x.to_bytes(nc * TILE * w, "little"))
    out = []
    for c0 in range(0, nc * TILE * w, TILE * w):
        out += [int.from_bytes(b"".join(col), "little") for col in zip(*(tile(b, c0) for b in bands))]
    return out[:k]


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


def pair_rows(n, pairs):
    """Rows of the reflexive relation on range(n) holding the pairs (i, j); a
    pair that is not two ints (not bools) in range(n) raises ValueError."""
    up = [1 << i for i in range(n)]
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(v) is int and 0 <= v < n for v in pair)):
            raise ValueError(f"order pair {pair!r} is not two element indices in range({n})")
        up[pair[0]] |= 1 << pair[1]
    return up


def _containing(masks, column):
    """up[i], the members containing masks[i]: the AND of the columns of its
    points, where column[t] holds the members that contain t."""
    full, up = (1 << len(masks)) - 1, []
    for m in masks:
        u = full
        for t in bits(m):
            u &= column[t]
        up.append(u)
    return up


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
        """A reflexive relation is a partial order iff it meets its transpose
        only on the diagonal and is the inclusion order of its down-sets:
        inclusion is transitive, and in a partial order down[i] lies inside
        down[j] iff i <= j."""
        n, up = self.n, self.up
        for i, u in enumerate(up):
            if u >> n:
                raise ValueError("relation mentions unknown element")
            if not (u >> i) & 1:
                raise ValueError(f"relation not reflexive at {i}")
        down = transpose(up, n)
        for i, (u, d, c) in enumerate(zip(up, down, _containing(down, up))):
            if u & d != 1 << i:
                raise ValueError(f"antisymmetry fails on {i},{(u & d ^ 1 << i).bit_length() - 1}")
            if u != c:
                j = (u & ~c).bit_length() - 1
                raise ValueError(f"transitivity fails at {(d & ~down[j]).bit_length() - 1} <= {i} <= {j}")
        object.__setattr__(self, "_down", tuple(down))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_leq_pairs(cls, labels, pairs):
        """The order generated by the pairs (i, j), i <= j: their reflexive-transitive closure."""
        return cls(labels, transitive_closure(pair_rows(len(labels), pairs)))

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
        """down[i] has bit j set iff j <= i: the transpose of ``up``."""
        if self._down is None:
            object.__setattr__(self, "_down", tuple(transpose(self.up, self.n)))
        return self._down

    def covers(self):
        if self._covers is None:
            object.__setattr__(self, "_covers", tuple(covers_from_up(self.up)))
        return self._covers

    def cover_pairs(self):
        return [(i, j) for i in range(self.n) for j in bits(self.covers()[i])]

    def opposite(self):
        op = Poset(self.labels, self.down(), _checked=True)
        object.__setattr__(op, "_down", self.up)  # the dual's down-sets, with no walk
        return op

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    # -- serialization -----------------------------------------------------

    def leq_pairs(self):
        """The order as the JSON list of its pairs [i, j], i <= j, by i then j."""
        return [[i, j] for i in range(self.n) for j in bits(self.up[i])]

    def to_json(self):
        return {"elements": list(self.labels), "leq": self.leq_pairs()}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        if not (isinstance(data, dict) and isinstance(data.get("elements"), list) and isinstance(data.get("leq"), list)):
            raise ValueError('a poset is an object with an "elements" list and a "leq" list')
        return cls.from_leq_pairs(data["elements"], data["leq"])

    def to_dot(self, name="poset"):
        return dot_digraph(name, self.labels, self.cover_pairs())


def dot_digraph(name, labels, edges):
    """DOT text of a Hasse diagram drawn bottom-up: node n<i> labelled labels[i], one arrow per edge."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{lab}"];' for i, lab in enumerate(labels)]
    lines += [f"  n{i} -> n{j};" for i, j in edges]
    return "\n".join(lines + ["}"])


def interval_poset(n):
    """Intervals [i,j], 1 <= i <= j <= n, ordered by containment."""
    if n < 1:
        raise ValueError("interval_poset requires n >= 1")
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    up = [sum(1 << t for t, (k, l) in enumerate(ivs) if k <= i and j <= l) for i, j in ivs]
    labels = [f"[{i},{j}]" for (i, j) in ivs]
    return Poset(labels, up, _checked=True)


# -- isomorphism search ----------------------------------------------------


def _joint_colors(P, Q):
    """Iteratively refined vertex colors, canonicalized across both posets."""

    def initial(X):
        cov_up = X.covers()
        cov_dn = transpose(cov_up, X.n)  # i covers j in the dual iff j covers i
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
