import json
import random
import time

import numpy as np
import oracles
import pytest
from oracles import (
    brute_force_congruences,
    check_joins_are_unions,
    check_meets_are_intersections,
    congruence_join,
    cover_pair_all_congruences,
    cover_pair_congruence_lattice,
    cover_pair_forcing_poset,
    cover_pair_is_congruence_uniform,
    is_partial_order,
    join_lift_isomorphic,
    pairwise_from_sets,
    sweep_is_distributive,
    sweep_is_semidistributive,
    tables,
)

from torscat import catalan, lattice, torsion
from torscat.algebra import incidence_algebra
from torscat.catalan import dyck_lattice, tamari_lattice, typeA_torsion_lattice
from torscat.cli import main
from torscat.lattice import (
    Congruence,
    FinLattice,
    LimitExceeded,
    NotALattice,
    VerificationFailed,
    all_congruences,
    congruence_lattice,
    forcing_poset,
    ideal_lattice,
    is_congruence_uniform,
    lattice_isomorphic,
    principal_congruence,
)
from torscat.poset import Poset, bits, interval_poset, poset_isomorphic, transpose, unions


def pentagon():
    # 0 < a < b < 1 on the long side, 0 < c < 1 on the short one
    return FinLattice.from_order(
        Poset.from_leq_pairs(["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    )


def diamond():
    return FinLattice.from_order(
        Poset.from_leq_pairs(["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    )


def boolean2():
    return FinLattice.from_order(
        Poset.from_leq_pairs(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    )


def chain(n):
    return FinLattice.from_order(Poset.chain(n))


CORPUS = None


def corpus():
    global CORPUS
    if CORPUS is None:
        small = [chain(k) for k in range(1, 6)]
        small += [boolean2(), pentagon(), diamond()]
        # a 6-element and a 7-element lattice with less symmetry
        small.append(
            FinLattice.from_order(
                Poset.from_leq_pairs(
                    list("012345"), [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 4)]
                )
            )
        )
        small.append(
            FinLattice.from_order(
                Poset.from_leq_pairs(
                    list("0123456"),
                    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5), (5, 6)],
                )
            )
        )
        CORPUS = small
    return CORPUS


def test_from_order_chain():
    L = chain(2)
    assert L.meet(0, 1) == 0 and L.join(0, 1) == 1


def test_from_order_rejects_non_lattice():
    with pytest.raises(NotALattice):
        FinLattice.from_order(Poset.antichain(2))
    # bowtie: two maximal, two minimal elements below both
    with pytest.raises(NotALattice):
        FinLattice.from_order(
            Poset.from_leq_pairs("abcd", [(0, 2), (0, 3), (1, 2), (1, 3)])
        )


def brute_tables(n, leq):
    """glb/lub tables of an n-element order by searching all bounds (None if missing)."""
    down = [sum(1 << c for c in range(n) if leq(c, a)) for a in range(n)]
    up = [sum(1 << c for c in range(n) if leq(a, c)) for a in range(n)]

    def extreme(bounds, beyond):
        # the bound c with every other bound in beyond[c]
        return next((c for c in range(n) if bounds >> c & 1 and bounds & ~beyond[c] == 0), None)

    meet = [[extreme(down[a] & down[b], down) for b in range(n)] for a in range(n)]
    join = [[extreme(up[a] & up[b], up) for b in range(n)] for a in range(n)]
    return meet, join


def moore_families(ground):
    """Every family of subsets of range(ground) closed under intersection and with a top."""
    subsets = range(1 << ground)
    for fam in range(1, 1 << (1 << ground)):
        members = [m for m in subsets if (fam >> m) & 1]
        top = 0
        for m in members:
            top |= m
        if (fam >> top) & 1 and all((fam >> (a & b)) & 1 for a in members for b in members):
            yield members


# Moore families on a k-set number 1, 2, 7, 61, 2480 for k = 0..4
@pytest.mark.parametrize(
    "ground, families", [(3, 1 + 3 * 2 + 3 * 7 + 61), (4, 1 + 4 * 2 + 6 * 7 + 4 * 61 + 2480)]
)
def test_from_sets_exhaustive_small_ground(ground, families):
    count = 0
    for members in moore_families(ground):
        count += 1
        masks = members[::-1]  # not a linear extension: from_sets must keep this order
        n = len(masks)
        L = FinLattice.from_sets(masks, [str(m) for m in masks])
        leq = lambda a, b: masks[a] & ~masks[b] == 0
        assert L.up == tuple(sum(1 << b for b in range(n) if leq(a, b)) for a in range(n))
        # b covers a iff the interval [a, b] is {a, b}
        down = [sum(1 << c for c in range(n) if leq(c, b)) for b in range(n)]
        assert L.covers() == tuple(
            sum(1 << b for b in range(n) if b != a and L.up[a] & down[b] == 1 << a | 1 << b) for a in range(n)
        )
        meet, join = brute_tables(n, leq)
        assert [t.tolist() for t in tables(L)] == [meet, join]
        assert all(masks[meet[a][b]] == masks[a] & masks[b] for a in range(n) for b in range(n))
        # the irreducibles are the elements with exactly one lower (upper) cover
        single = lambda m: m and not m & (m - 1)
        lower = [sum(1 << a for a in range(n) if L.covers()[a] >> b & 1) for b in range(n)]
        assert L.join_irreducibles() == [(b, low.bit_length() - 1) for b, low in enumerate(lower) if single(low)]
        assert L.meet_irreducibles() == [(a, c.bit_length() - 1) for a, c in enumerate(L.covers()) if single(c)]
    assert count == families


def test_from_order_matches_brute_force_tables():
    for L in corpus():
        meet, join = brute_tables(L.n, L.leq)
        assert [t.tolist() for t in tables(L)] == [meet, join]


def test_from_sets_rejects_non_lattices():
    # a lattice as an order ({2} is missing, so the glb of {1,2} and {2,3} is
    # the empty set), but its meets are not intersections
    with pytest.raises(NotALattice) as err:
        FinLattice.from_sets([0b000, 0b011, 0b110, 0b111], "0abt")
    assert err.value.kind == "meet" and set(err.value.pair) == {"a", "b"}
    # no top: {1} and {2} have no upper bound
    with pytest.raises(NotALattice) as err:
        FinLattice.from_sets([0b00, 0b01, 0b10], "0ab")
    assert err.value.kind == "join" and set(err.value.pair) == {"a", "b"}
    with pytest.raises(NotALattice):
        FinLattice.from_sets([], [])


def assert_from_sets_matches_the_pairwise_pass(masks):
    """from_sets and the pairwise oracle agree: the same up rows and covers,
    or NotALattice of the same kind."""
    labels = [str(m) for m in masks]
    try:
        expected = pairwise_from_sets(masks, labels)
    except NotALattice as err:
        with pytest.raises(NotALattice) as got:
            FinLattice.from_sets(masks, labels)
        assert got.value.kind == err.kind, masks
        return False
    L = FinLattice.from_sets(masks, labels)
    assert L.up == expected.up and L.covers() == expected.covers(), masks
    return True


def test_from_sets_matches_the_pairwise_pass_on_every_family_over_three_points():
    families = [[m for m in range(8) if fam >> m & 1] for fam in range(1, 256)]
    lattices = sum(assert_from_sets_matches_the_pairwise_pass(masks[::-1]) for masks in families)
    assert lattices == 1 + 3 * 2 + 3 * 7 + 61  # the Moore families, whose top need not be the whole set


def test_from_sets_matches_the_pairwise_pass_on_moore_families_over_four_points():
    assert all(assert_from_sets_matches_the_pairwise_pass(masks[::-1]) for masks in moore_families(4))


def test_from_sets_matches_the_pairwise_pass_on_random_families():
    rng = random.Random(26)
    kinds = [0, 0]
    for _ in range(3000):
        ground = rng.randint(1, 6)
        masks = rng.sample(range(1 << ground), rng.randint(1, min(12, 1 << ground)))
        closed = [m & x for m in masks for x in masks]
        masks = list(dict.fromkeys(masks + closed[: rng.randint(0, len(closed))]))  # some closed, most not
        kinds[assert_from_sets_matches_the_pairwise_pass(masks)] += 1
    assert min(kinds) > 100


def test_from_sets_matches_the_pairwise_pass_on_corpus():
    for L in corpus():
        assert_from_sets_matches_the_pairwise_pass(list(L.down()))
        assert_from_sets_matches_the_pairwise_pass(list(L.up))


def test_check_joins_are_unions():
    masks = [0b00, 0b01, 0b10, 0b11]
    check_joins_are_unions(FinLattice.from_sets(masks, "0abt"), masks)
    # the join of {1} and {2} is {1,2,3}, not their union
    masks = [0b000, 0b001, 0b010, 0b111]
    with pytest.raises(VerificationFailed, match="join is not the union") as err:
        check_joins_are_unions(FinLattice.from_sets(masks, "0abt"), masks)
    assert err.value.data == {"a": "a", "b": "b"}


def test_check_meets_are_intersections():
    masks = [0b00, 0b01, 0b10, 0b11]
    check_meets_are_intersections(FinLattice.from_sets(masks, "0abt"), masks)
    # {1,2} and {2,3} meet in {2}, which is not a member
    masks = [0b000, 0b011, 0b110, 0b111]
    square = FinLattice.from_order(Poset.from_leq_pairs("0abt", [(0, 1), (0, 2), (1, 3), (2, 3)]))
    with pytest.raises(VerificationFailed, match="meet is not the intersection") as err:
        check_meets_are_intersections(square, masks)
    assert err.value.data == {"a": "a", "b": "b"}


def downsets(P):
    return sorted(unions(P.down()), key=lambda m: (bin(m).count("1"), m))


def ring(masks, rows=None):
    return FinLattice.from_ring(masks, [str(m) for m in masks], rows)


def test_ring_certificate_accepts_rings_as_from_sets_does():
    for masks in ([0], [0b0, 0b1], [0b00, 0b01, 0b10, 0b11], [0b011, 0b111], [0b10, 0b11, 0b110, 0b111]):
        assert ring(masks).up == FinLattice.from_sets(masks, [str(m) for m in masks]).up
    # the four subsets of {0, 1} are a ring, but not the down-sets of the chain 0 < 1
    assert ring([0b00, 0b01, 0b10, 0b11]).n == 4
    with pytest.raises(VerificationFailed, match="not the down-sets of the rows"):
        ring([0b00, 0b01, 0b10, 0b11], rows=Poset.chain(2).down())


@pytest.mark.parametrize(
    "masks, message",
    [
        ([0b000, 0b001, 0b011, 0b111, 0b100], "join is not the union"),  # {0} | {2} is missing
        ([0b00, 0b01, 0b10], "join is not the union"),
        ([0b01, 0b10, 0b11], "no least member"),
        ([0b000, 0b011, 0b110, 0b111], "meet outside the family"),  # the members holding 1 meet in {1}
    ],
)
def test_ring_certificate_refuses_non_rings(masks, message):
    with pytest.raises(VerificationFailed, match=message):
        ring(masks)


def test_ring_certificate_refuses_a_missing_or_an_extra_set():
    P = interval_poset(3)
    rows, family = P.down(), downsets(P)
    assert ring(family, rows).up == FinLattice.from_sets(family, [str(m) for m in family]).up
    for missing in family:
        with pytest.raises(VerificationFailed):
            ring([m for m in family if m != missing], rows)
    for extra in set(range(1 << P.n)) - set(family):
        with pytest.raises(VerificationFailed):
            ring(family + [extra], rows)


def dyck_profile(path, n):
    """The unary height profile dyck_lattice orders Dyck paths by."""
    m, h = 0, 0
    for i, step in enumerate(path, 1):
        h += 1 if step == "U" else -1
        m |= ((1 << h) - 1) << (i * (n + 1) + 1)
    return m


def ring_lattice(kind, m):
    """A lattice that tier-1 builds through from_ring, with its members."""
    if kind == "dyck":
        L = dyck_lattice(m)
        return L, [dyck_profile(path, m) for path in L.labels]
    if kind == "ideals":
        P = corpus()[m]
        return ideal_lattice(P), downsets(P)
    A = incidence_algebra(interval_poset(m))
    reach = Poset.from_leq_pairs(A.vlabels, [(u, v) for u, v, _ in A.ext_quiver()])
    masks = sorted(unions(reach.up), key=lambda x: (bin(x).count("1"), x))
    L = torsion.omega_lattice_via_simples(A)
    assert L.labels == tuple("{" + ",".join(A.vlabels[i] for i in bits(x)) + "}" for x in masks)
    return L, masks


RINGS = [("dyck", n) for n in range(1, 8)] + [("ideals", k) for k in range(10)] + [("omega", m) for m in range(2, 7)]


@pytest.mark.parametrize("kind, m", RINGS)
def test_ring_lattices_pass_the_pairwise_oracles(kind, m):
    L, masks = ring_lattice(kind, m)
    check_meets_are_intersections(L, masks)
    check_joins_are_unions(L, masks)
    assert FinLattice.from_sets(masks, L.labels).up == L.up
    for a in range(L.n):
        assert [masks[L.meet(a, b)] for b in range(L.n)] == [masks[a] & x for x in masks]
        assert [masks[L.join(a, b)] for b in range(L.n)] == [masks[a] | x for x in masks]


def assert_predicates_match_sweeps(L):
    assert L.is_distributive() == sweep_is_distributive(L)
    assert L.is_semidistributive() == sweep_is_semidistributive(L)


@pytest.mark.parametrize("ground, distributive, semidistributive", [(3, 76, 82), (4, 861, 1257)])
def test_predicates_match_sweeps_on_moore_families(ground, distributive, semidistributive):
    counts = [0, 0]
    for members in moore_families(ground):
        L = FinLattice.from_sets(members[::-1], [str(m) for m in members[::-1]])
        d, sd = L.is_distributive(), L.is_semidistributive()
        assert (d, sd) == (sweep_is_distributive(L), sweep_is_semidistributive(L)), members
        counts[0] += d
        counts[1] += sd
    assert counts == [distributive, semidistributive]


def test_predicates_match_sweeps_on_corpus():
    for L in corpus():
        assert_predicates_match_sweeps(L)
        assert_predicates_match_sweeps(L.opposite())


@pytest.mark.parametrize("build", [dyck_lattice, tamari_lattice, typeA_torsion_lattice])
def test_predicates_match_sweeps_on_catalan_lattices(build):
    for n in range(1, 7):
        assert_predicates_match_sweeps(build(n))


@pytest.mark.extended
@pytest.mark.parametrize("kind, distributive", [("dyck", True), ("tamari", False)])
def test_catalan_predicates_at_n8(capsys, kind, distributive):
    assert main(["--json", "catalan", kind, "8"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["size"] == 1430
    assert rep["distributive"] is distributive and rep["semidistributive"] is True
    assert rep.get("congruence_uniform") is {"dyck": None, "tamari": True}[kind]


def test_pentagon_structure():
    n5 = pentagon()
    assert not n5.is_distributive()
    assert n5.is_semidistributive()
    assert len(n5.join_irreducibles()) == 3


def test_diamond_structure():
    m3 = diamond()
    assert not m3.is_distributive()
    assert not m3.is_semidistributive()


def test_boolean_distributive():
    assert boolean2().is_distributive()
    assert [x for x, _ in boolean2().join_irreducibles()] == [1, 2]


def test_join_irreducibles_chain():
    L = chain(2)
    assert L.join_irreducibles() == [(1, 0)]


def test_principal_congruence_trivial():
    L = pentagon()
    assert principal_congruence(L, 2, 2).is_discrete()
    two = chain(2)
    assert principal_congruence(two, 0, 1).is_full()


def test_principal_congruence_pentagon_oracle():
    # least compatible partition containing the given pair, by brute force
    n5 = pentagon()
    allc = brute_force_congruences(n5)
    for a, b in n5.cover_pairs():
        cg = principal_congruence(n5, a, b)
        best = None
        for c in allc:
            if c.collapses(a, b) and (best is None or c.refines(best)):
                best = c
        assert cg == best


def assert_principal_congruences_match_union_find(L):
    # every ordered pair: comparable, incomparable and equal
    for a in range(L.n):
        for b in range(L.n):
            assert principal_congruence(L, a, b) == oracles.principal_congruence(L, a, b), (a, b)


def test_principal_congruence_matches_union_find_on_corpus():
    for L in corpus():
        assert_principal_congruences_match_union_find(L)
        assert_principal_congruences_match_union_find(L.opposite())


@pytest.mark.parametrize("ground", [3, pytest.param(4, marks=pytest.mark.extended)])
def test_principal_congruence_matches_union_find_on_moore_families(ground):
    for members in moore_families(ground):
        L = FinLattice.from_sets(members[::-1], [str(m) for m in members[::-1]])
        assert_principal_congruences_match_union_find(L)
        assert_principal_congruences_match_union_find(L.opposite())


def test_congruence_lattice_sizes():
    assert congruence_lattice(chain(2)).n == 2
    assert congruence_lattice(tamari_lattice(3)).n == 5
    assert congruence_lattice(tamari_lattice(4)).n == 14


def test_congruence_lattices_distributive():
    for L in corpus():
        assert congruence_lattice(L).is_distributive()


def test_congruence_compatibility_invariant():
    for L in corpus()[:8]:
        for c in all_congruences(L):
            for x in range(L.n):
                for y in range(L.n):
                    if not c.collapses(x, y):
                        continue
                    for z in range(L.n):
                        assert c.collapses(L.meet(x, z), L.meet(y, z))
                        assert c.collapses(L.join(x, z), L.join(y, z))


def test_brute_force_oracle_matches_fixpoint():
    for L in corpus():
        if L.n > 7:
            continue
        assert [c.block for c in all_congruences(L)] == [
            c.block for c in brute_force_congruences(L)
        ]


def test_congruence_join_is_partition_join():
    c1 = Congruence([0, 0, 2, 3])
    c2 = Congruence([0, 1, 2, 2])
    j = congruence_join(c1, c2)
    assert j.block == (0, 0, 2, 2)


def test_forcing_poset_trivial():
    assert forcing_poset(chain(2)).n == 1


def test_forcing_poset_tamari():
    fp3 = forcing_poset(tamari_lattice(3))
    assert fp3.n == 3
    assert ideal_lattice(fp3).n == 5
    assert poset_isomorphic(fp3, interval_poset(2).opposite()) is not None
    fp4 = forcing_poset(tamari_lattice(4))
    assert poset_isomorphic(fp4, interval_poset(3).opposite()) is not None


def test_congruence_lattice_vs_forcing_ideals():
    # the refinement-ordered congruence lattice is the ideal lattice of the
    # forcing poset; the exported coarsening order is its opposite
    for L in corpus():
        if not is_congruence_uniform(L):
            continue
        C = congruence_lattice(L)
        assert lattice_isomorphic(C, ideal_lattice(forcing_poset(L).opposite())) is not None
        assert lattice_isomorphic(C.opposite(), ideal_lattice(forcing_poset(L))) is not None


def test_congruence_uniformity():
    assert is_congruence_uniform(boolean2())
    assert is_congruence_uniform(pentagon())
    assert not is_congruence_uniform(diamond())
    for n in (2, 3, 4, 5):
        assert is_congruence_uniform(tamari_lattice(n))


# -- the D* congruence route against the cover-pair oracles


def assert_congruences_match_cover_pairs(L):
    assert [c.block for c in all_congruences(L)] == [c.block for c in cover_pair_all_congruences(L)]
    F, G = forcing_poset(L), cover_pair_forcing_poset(L)
    assert F.up == G.up and F.labels == G.labels
    assert is_congruence_uniform(L) == cover_pair_is_congruence_uniform(L)


# on these small grounds the congruence-uniform lattices are the semidistributive ones
@pytest.mark.parametrize("ground, uniform", [(3, 82), (4, 1257)])
def test_congruences_match_cover_pairs_on_moore_families(ground, uniform):
    count = 0
    for members in moore_families(ground):
        L = FinLattice.from_sets(members[::-1], [str(m) for m in members[::-1]])
        for K in (L, L.opposite()):
            assert_congruences_match_cover_pairs(K)
        count += is_congruence_uniform(L)
    assert count == uniform


def test_congruences_match_cover_pairs_on_corpus():
    for L in corpus():
        assert_congruences_match_cover_pairs(L)
        assert_congruences_match_cover_pairs(L.opposite())


# Dyck_n has 2^|J| congruences (32,768 at n = 6); typeA_n is Tamari_{n+1}
@pytest.mark.parametrize("build, ns", [
    (tamari_lattice, range(1, 7)),
    (dyck_lattice, range(1, 6)),
    (typeA_torsion_lattice, range(1, 6)),
    pytest.param(dyck_lattice, [6], marks=pytest.mark.extended),
    pytest.param(typeA_torsion_lattice, [6], marks=pytest.mark.extended),
])
def test_congruences_match_cover_pairs_on_catalan_lattices(build, ns):
    for n in ns:
        assert_congruences_match_cover_pairs(build(n))


def test_congruence_lattice_of_dyck6_hits_size_cap():
    # Dyck_6 has 2^15 congruences, past the cap on the pairwise intersection check
    L = dyck_lattice(6)
    t0 = time.monotonic()
    with pytest.raises(LimitExceeded, match="lattice of 32768 elements exceeds the cap of 8192 elements"):
        congruence_lattice(L)
    assert time.monotonic() - t0 < 30


def test_congruence_lattice_matches_refinement_order():
    moore = [FinLattice.from_sets(m[::-1], [str(x) for x in m[::-1]]) for m in moore_families(3)]
    lattices = moore + corpus() + [tamari_lattice(n) for n in range(1, 7)]
    for L in lattices + [L.opposite() for L in lattices]:
        C, oracle = congruence_lattice(L), cover_pair_congruence_lattice(L)
        assert C.up == oracle.up and C.labels == oracle.labels


def assert_congruence_lattice_matches_partition_route(L):
    for K in (L, L.opposite()):
        C, oracle = congruence_lattice(K), oracles.partition_congruence_lattice(K)
        assert C.up == oracle.up and C.labels == oracle.labels


@pytest.mark.parametrize("build, ns", [
    (lambda build: build(), [diamond, pentagon]),
    (chain, range(1, 6)),
    (tamari_lattice, range(1, 8)),
    (dyck_lattice, range(1, 6)),
    (typeA_torsion_lattice, range(1, 6)),
    pytest.param(tamari_lattice, [8], marks=pytest.mark.extended),
])
def test_congruence_lattice_matches_partition_route(build, ns):
    for n in ns:
        assert_congruence_lattice_matches_partition_route(build(n))


@pytest.mark.extended
def test_partition_route_hits_the_same_cap_on_dyck6():
    with pytest.raises(LimitExceeded, match="lattice of 32768 elements exceeds the cap of 8192 elements"):
        oracles.partition_congruence_lattice(dyck_lattice(6))


def test_corrupted_dependency_row_fails_the_ring_certificate(capsys, monkeypatch):
    # a row of D* without its own join-irreducible is no preorder's
    # principal down-set, so the up-sets are not the down-sets of the
    # transposed rows
    dependency = lattice._dependency

    def corrupted(L):
        below, sig = dependency(L)
        return [below[0] & ~1] + list(below[1:]), sig

    monkeypatch.setattr(lattice, "_dependency", corrupted)
    with pytest.raises(VerificationFailed, match="not the down-sets of the rows"):
        congruence_lattice(tamari_lattice(4))
    assert main(["verify", "thm2", "--n", "4"]) == 1
    assert "verification FAILED: the family is not the down-sets of the rows" in capsys.readouterr().err


def test_verify_thm2_json_matches_cover_pair_route(capsys, monkeypatch):
    # iso and forcing_iso depend on the order of the congruences and of the
    # forcing poset, so this pins both
    def thm2_json(n):
        assert main(["--json", "verify", "thm2", "--n", str(n)]) == 0
        return capsys.readouterr().out

    fast = [thm2_json(n) for n in range(2, 7)]
    monkeypatch.setattr(catalan, "congruence_lattice", cover_pair_congruence_lattice)
    monkeypatch.setattr(catalan, "forcing_poset", cover_pair_forcing_poset)
    assert fast == [thm2_json(n) for n in range(2, 7)]


@pytest.mark.extended
@pytest.mark.parametrize("n, congruences", [(7, 429), (8, 1430)])
def test_verify_thm2_at_scale(capsys, n, congruences):
    assert main(["--json", "verify", "thm2", "--n", str(n)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS" and rep["con_size"] == rep["dyck_size"] == congruences


def test_from_order_on_every_relation_over_three_points():
    n = 3
    for rel in range(1 << n * n):
        up = [rel >> n * i & (1 << n) - 1 for i in range(n)]
        if not is_partial_order(n, up):
            with pytest.raises(ValueError):
                FinLattice.from_order(up)
        elif any(None in row for table in brute_tables(n, lambda a, b: up[a] >> b & 1) for row in table):
            with pytest.raises(NotALattice):
                FinLattice.from_order(up)
        else:
            assert FinLattice.from_order(up).down() == tuple(transpose(up, n))


def relabelled(L, seed):
    """L with its elements renumbered by a seeded shuffle."""
    perm = list(range(L.n))
    random.Random(seed).shuffle(perm)
    up = [0] * L.n
    for i, u in enumerate(L.up):
        up[perm[i]] = sum(1 << perm[j] for j in bits(u))
    return FinLattice.from_order(up)


def assert_isomorphism_matches_the_join_lift(L, M):
    found = lattice_isomorphic(L, M)
    assert found == join_lift_isomorphic(L, M)
    return found


def test_lattice_isomorphic_matches_the_join_lift_on_shuffled_corpus():
    for seed, L in enumerate(corpus()):
        assert assert_isomorphism_matches_the_join_lift(L, relabelled(L, seed)) is not None


def test_lattice_isomorphic_matches_the_join_lift_on_moore_families():
    by_size = {}
    for members in moore_families(3):
        by_size.setdefault(len(members), []).append(FinLattice.from_sets(members, [str(m) for m in members]))
    found = [
        assert_isomorphism_matches_the_join_lift(L, M) for family in by_size.values() for L in family for M in family
    ]
    assert None in found and found.count(None) < len(found)


@pytest.mark.parametrize("n", range(2, 7))
def test_lattice_isomorphic_matches_the_join_lift_on_catalan_lattices(n):
    D = dyck_lattice(n)
    omega = torsion.omega_lattice_via_simples(incidence_algebra(interval_poset(n - 1).opposite()))
    assert assert_isomorphism_matches_the_join_lift(D, omega) is not None
    assert assert_isomorphism_matches_the_join_lift(congruence_lattice(tamari_lattice(n)), D) is not None
    assert assert_isomorphism_matches_the_join_lift(typeA_torsion_lattice(n - 1), tamari_lattice(n)) is not None


def test_lattice_isomorphic_basics():
    n5 = pentagon()
    assert lattice_isomorphic(n5, n5) == [0, 1, 2, 3, 4]
    assert lattice_isomorphic(chain(2), boolean2()) is None
    assert lattice_isomorphic(chain(4), boolean2()) is None
    assert lattice_isomorphic(pentagon(), diamond()) is None


def test_lattice_isomorphic_rejects_a_bijective_lift_that_is_no_isomorphism():
    # both have 7 elements and the four atoms as join-irreducibles; the lift
    # of a bijection of the atoms that keeps a and b inside {a, b, c} sends
    # L's a v b = {a, b} to M's a v b = {a, b, c} and is a bijection, but a v b
    # covers two atoms in L and three in M
    atoms = [0b0001, 0b0010, 0b0100, 0b1000]
    L = FinLattice.from_sets([0, *atoms, 0b0011, 0b1111], "0abcdxt")
    M = FinLattice.from_sets([0, *atoms, 0b0111, 0b1111], "0abcdxt")
    assert lattice_isomorphic(L, M) is None
    assert lattice_isomorphic(M, M) is not None


def test_lattice_isomorphic_verified_map():
    L = ideal_lattice(interval_poset(2))
    C = congruence_lattice(tamari_lattice(3))
    m = lattice_isomorphic(L, C)
    assert m is not None
    for a in range(L.n):
        for b in range(L.n):
            assert C.meet(m[a], m[b]) == m[L.meet(a, b)]
            assert C.join(m[a], m[b]) == m[L.join(a, b)]


def test_opposite_lattice():
    n5 = pentagon()
    op = n5.opposite()
    assert op.bottom() == n5.top() and op.top() == n5.bottom()
    assert lattice_isomorphic(op.opposite(), n5) is not None


@pytest.mark.parametrize(
    "data", [[], {"size": "2", "leq": []}, {"size": 2, "leq": [[-1, 0]]}, {"size": 2, "leq": [[0, 2]]},
             {"size": 2, "leq": [[True, 1]]}, {"size": 2, "leq": [[0.0, 1]]}, {"size": 2, "leq": [[0, 1, 1]]}],
)
def test_json_refuses_what_is_not_an_order_pair(data):
    with pytest.raises(ValueError):
        FinLattice.from_json(data)


def test_json_roundtrip():
    L = pentagon()
    blob = json.dumps(L.to_json())
    M = FinLattice.from_json(blob, labels=L.labels)
    assert M.up == L.up and all(map(np.array_equal, tables(M), tables(L)))


def test_dot_export():
    dot = pentagon().to_dot()
    assert dot.count("->") == 5
