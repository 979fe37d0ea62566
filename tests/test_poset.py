import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import is_partial_order

from torscat.catalan import dyck_lattice, tamari_lattice
from torscat.lattice import ideal_lattice
from torscat.poset import (
    Poset,
    bits,
    covers_from_up,
    interval_poset,
    poset_isomorphic,
    poset_isos,
    transpose,
    unions,
)


def minimals(P):
    return [i for i, d in enumerate(P.down()) if d == 1 << i]


def maximals(P):
    return [i for i, u in enumerate(P.up) if u == 1 << i]


def test_interval_poset_smallest():
    P = interval_poset(1)
    assert P.n == 1 and P.cover_pairs() == []
    with pytest.raises(ValueError):
        interval_poset(0)


def test_interval_poset_2_matches_diagram():
    # three intervals, two covers into the long one
    P = interval_poset(2)
    assert P.n == 3
    covers = P.cover_pairs()
    assert len(covers) == 2
    tops = {j for _, j in covers}
    assert len(tops) == 1
    assert P.labels[tops.pop()] == "[1,2]"


def test_interval_poset_3_shape():
    P = interval_poset(3)
    assert P.n == 6
    assert len(P.cover_pairs()) == 6
    assert len(minimals(P)) == 3 and len(maximals(P)) == 1


def test_opposite_involution():
    P = interval_poset(3)
    assert P.opposite().opposite() == P
    A = Poset.antichain(4)
    assert A.opposite() == A
    # the unique maximal element becomes the unique minimal
    Q = interval_poset(2).opposite()
    assert len(minimals(Q)) == 1 and len(maximals(Q)) == 2


def test_validation_rejects_bad_relations():
    with pytest.raises(ValueError, match="antisymmetry fails on 0,1"):
        Poset(["a", "b"], [0b11, 0b11])
    with pytest.raises(ValueError, match="relation not reflexive at 1"):
        Poset(["a", "b"], [0b01, 0b01])
    with pytest.raises(ValueError, match="transitivity fails at 0 <= 1 <= 2"):
        Poset(["a", "b", "c"], [0b011, 0b110, 0b100])  # a<=b<=c but not a<=c
    with pytest.raises(ValueError, match="relation mentions unknown element"):
        Poset(["a", "b"], [0b101, 0b10])


# labelled partial orders on 0..4 points number 1, 1, 3, 19, 219
@pytest.mark.parametrize("n, orders", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219)])
def test_poset_accepts_exactly_the_partial_orders(n, orders):
    # every relation on n points, row i holding the j with i <= j
    accepted = 0
    for rel in range(1 << n * n):
        up = [rel >> n * i & (1 << n) - 1 for i in range(n)]
        try:
            P = Poset(range(n), up)
        except ValueError:
            assert not is_partial_order(n, up), up
            continue
        assert is_partial_order(n, up), up
        assert P.down() == tuple(transpose(up, n))
        accepted += 1
    assert accepted == orders


def test_order_ideal_counts():
    assert ideal_lattice(Poset.antichain(3)).n == 8
    assert [ideal_lattice(interval_poset(n)).n for n in (2, 3, 4)] == [5, 14, 42]


def test_ideal_invariant_checked():
    P = interval_poset(2)
    top = maximals(P)[0]
    # {top} is not downward closed; its principal down-set is
    assert 1 << top not in unions(P.down())
    assert P.down()[top] in unions(P.down())


def test_ideal_count_self_duality():
    for P in (interval_poset(3), Poset.chain(4), Poset.antichain(3)):
        assert ideal_lattice(P).n == ideal_lattice(P.opposite()).n


def test_ideal_lattice_distributive():
    for P in (interval_poset(2), interval_poset(3), Poset.chain(3), Poset.antichain(2)):
        L = ideal_lattice(P)
        assert L.is_distributive()
    assert ideal_lattice(Poset.chain(1)).n == 2
    assert ideal_lattice(Poset.antichain(2)).n == 4


def test_poset_isomorphism():
    P = interval_poset(3)
    assert poset_isomorphic(P, P) is not None
    assert poset_isomorphic(Poset.chain(2), Poset.antichain(2)) is None
    assert poset_isomorphic(interval_poset(2), interval_poset(2).opposite()) is None
    # relabelled copy
    Q = Poset(["x"] * P.n, P.up, _checked=True)
    m = poset_isomorphic(P, Q)
    assert m is not None
    for i in range(P.n):
        for j in range(P.n):
            assert P.leq(i, j) == Q.leq(m[i], m[j])


def test_poset_isos_count_on_antichain():
    assert len(list(poset_isos(Poset.antichain(3), Poset.antichain(3)))) == 6


def test_json_roundtrip():
    P = interval_poset(3)
    blob = json.dumps(P.to_json())
    Q = Poset.from_json(blob)
    assert Q.up == P.up and Q.labels == P.labels


def test_json_accepts_cover_lists():
    data = {"elements": ["a", "b", "c"], "leq": [[0, 1], [1, 2]]}
    P = Poset.from_json(data)
    assert P.leq(0, 2)


def test_dot_export():
    dot = interval_poset(2).to_dot()
    assert dot.startswith("digraph") and "->" in dot and "[1,2]" in dot


@given(st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_random_poset_ideal_duality(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=8,
        )
    )
    P = Poset.from_leq_pairs([str(i) for i in range(n)], pairs)
    assert ideal_lattice(P).n == ideal_lattice(P.opposite()).n
    # transitive closure of covers equals the stored relation
    from torscat.poset import transitive_closure

    assert tuple(transitive_closure(list(P.covers()))) == P.up


def transpose_by_walk(rows, k):
    out = [0] * k
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


EDGES = [0, 1, 127, 128, 129, 257]  # around the 128-bit tile


@pytest.mark.parametrize("n", EDGES)
def test_transpose_matches_the_bit_walk(n):
    rng = random.Random(n)
    for k in EDGES:
        for density in (1, 2, 5):  # one bit in 2, 4 or 32 set
            rows = [(1 << k) - 1] * n
            for _ in range(density):
                rows = [r & rng.getrandbits(k) if k else 0 for r in rows]
            assert transpose(rows, k) == transpose_by_walk(rows, k), (n, k, density)
        full = [(1 << k) - 1] * n
        assert transpose(full, k) == [(1 << n) - 1] * k


@pytest.mark.parametrize("covers_first", [False, True])
def test_opposite_fills_down_and_covers_from_the_transpose(covers_first):
    posets = [interval_poset(4), Poset.chain(5), Poset.antichain(3), Poset.chain(0)]
    posets += [dyck_lattice(5), tamari_lattice(5), ideal_lattice(interval_poset(3))]
    known = []
    for P in posets:
        if covers_first:
            P.covers()  # the dual computes its own covers on first use either way
        known.append(P._covers is not None)  # from_sets (tamari_lattice) fills them when it builds
        Q = P.opposite()
        assert type(Q) is type(P)
        assert Q.up == P.down() and Q.down() == P.up
        assert Q.down() == tuple(transpose_by_walk(Q.up, Q.n))
        assert Q.covers() == tuple(covers_from_up(P.down()))
        assert Q.opposite() == P and Q.opposite().covers() == P.covers()
    assert all(known) == covers_first
