import itertools

import numpy as np
import pytest

from torscat.algebra import incidence_algebra, modules_isomorphic, path_algebra_An, two_cycle_algebra
from torscat.catalan import _interval_index, tamari_lattice, typeA_torsion_classes, typeA_torsion_lattice
from torscat.lattice import lattice_isomorphic
from torscat.poset import Poset, bits, interval_poset
from torscat.torsion import (
    BudgetExceeded,
    ModuleContext,
    Subcat,
    TorsionPair,
    VerificationFailed,
    _unrank_pairs,
    enumerate_torsion_pairs,
    extension_middles,
    free_closure,
    is_cohereditary,
    is_hereditary,
    is_omega_n,
    is_serre,
    is_split,
    left_perp,
    omega_lattice_from_digraph,
    omega_lattice_via_simples,
    perp,
    torsion_closure,
    torsion_lattice_report,
    torsion_lattice_to_dot,
    verify_dyck_omega_iso,
    verify_tamari_congruence_iso,
    verify_two_cycle_example,
)


def name_index(ctx):
    return {n: i for i, n in enumerate(ctx.names())}


def names_of(ctx, mask):
    nm = ctx.names()
    return {nm[i] for i in bits(mask)}


# -- closures -------------------------------------------------------------------


def test_closure_trivial_cases(example_ctx):
    empty = Subcat(example_ctx, 0)
    assert torsion_closure(empty).mask == 0
    everything = Subcat(example_ctx, example_ctx.all_mask)
    assert torsion_closure(everything).mask == example_ctx.all_mask


def test_closure_of_injective(example_ctx):
    idx = name_index(example_ctx)
    cl = torsion_closure(Subcat(example_ctx, 1 << idx["I1"]))
    assert names_of(example_ctx, cl.mask) == {"I1", "S2", "P2"}


def test_free_closure(example_ctx):
    idx = name_index(example_ctx)
    fc = free_closure(Subcat(example_ctx, 1 << idx["P1"]))
    # P1 has submodule S2, so the smallest sub+ext closed class adds it
    assert "S2" in names_of(example_ctx, fc.mask)


def test_perp_examples(example_ctx):
    idx = name_index(example_ctx)
    assert perp(Subcat(example_ctx, 0)).mask == example_ctx.all_mask
    assert perp(Subcat(example_ctx, example_ctx.all_mask)).mask == 0
    pp = perp(Subcat(example_ctx, (1 << idx["S1"]) | (1 << idx["P1"])))
    assert names_of(example_ctx, pp.mask) == {"S2"}
    assert names_of(example_ctx, left_perp(pp).mask) == {"S1", "P1"}


def test_perp_duality(example_lattice):
    for pr in example_lattice.pairs:
        ctx = pr.context
        assert ctx.perp_mask(pr.tors_mask) == pr.free_mask
        assert ctx.left_perp_mask(pr.free_mask) == pr.tors_mask


def test_torsion_pair_invariants(example_ctx):
    with pytest.raises(VerificationFailed):
        # a subcategory that is not a torsion class
        idx = name_index(example_ctx)
        TorsionPair(example_ctx, 1 << idx["P1"])


# -- enumeration -------------------------------------------------------------------


def test_enumeration_boolean_for_semisimple():
    TL = enumerate_torsion_pairs(incidence_algebra(Poset.antichain(3)))
    assert TL.n == 8
    assert TL.is_distributive()


def test_enumeration_example_counts(example_lattice):
    assert example_lattice.n == 6


def test_enumeration_int2(int2_lattice):
    assert int2_lattice.n == 14


def test_enumeration_matches_all_subset_oracle(example_ctx, int2_ctx, example_lattice, int2_lattice):
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        oracle = set()
        for mask in range(1 << ctx.k):
            try:
                ctx.certify_torsion_class(mask)
                oracle.add(mask)
            except VerificationFailed:
                pass
        assert oracle == {pr.tors_mask for pr in TL.pairs}


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_torsion_pairs(incidence_algebra(interval_poset(2)), class_cap=5)


def test_unrank_pairs_is_combinations_order():
    for n in range(62):
        a, b = _unrank_pairs(np.arange(n * (n - 1) // 2), n)
        assert list(zip(a, b)) == list(itertools.combinations(range(n), 2))


def test_sampled_join_audit(int2_ctx, int2_lattice):
    TL = enumerate_torsion_pairs(int2_ctx, join_audit=5)
    assert TL.labels == int2_lattice.labels and np.array_equal(TL.join, int2_lattice.join)


def test_closure_quotient_audit_triple_sums(example_ctx, example_lattice):
    # indecomposable summands of quotients of triple direct sums stay inside
    ctx = example_ctx
    rng = np.random.default_rng(0)
    for pr in example_lattice.pairs:
        members = [ctx.indecs[i] for i in bits(pr.tors_mask)]
        if not members:
            continue
        for _ in range(4):
            picks = [members[rng.integers(len(members))] for _ in range(3)]
            X = picks[0].direct_sum(*picks[1:])
            for v in range(ctx.algebra.n_vertices):
                if X.dims[v] == 0:
                    continue
                vec = rng.integers(0, ctx.algebra.p, size=X.dims[v]).astype(np.uint8)
                if not vec.any():
                    continue
                U = X.spanned_submodule(v, vec)
                Q, _ = X.quotient(U)
                assert ctx.identify_mask(Q) & ~pr.tors_mask == 0


def test_closure_extension_audit(example_ctx, example_lattice, int2_ctx, int2_lattice):
    # middle terms of every nonzero extension class between members stay inside
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        for pr in TL.pairs:
            for i in bits(pr.tors_mask):
                for j in bits(pr.tors_mask):
                    for E in extension_middles(ctx.indecs[i], ctx.indecs[j]):
                        assert ctx.identify_mask(E) & ~pr.tors_mask == 0


def test_extension_middles_example(example_ctx):
    idx = name_index(example_ctx)
    S1, S2 = example_ctx.indecs[idx["S1"]], example_ctx.indecs[idx["S2"]]
    P1 = example_ctx.indecs[idx["P1"]]
    mids = extension_middles(S1, S2)
    assert len(mids) == 1 and modules_isomorphic(mids[0], P1) is not None
    assert extension_middles(S1, S1) == []


# -- predicates ----------------------------------------------------------------------


def test_three_omega_routes_agree(example_lattice, int2_lattice):
    for TL in (example_lattice, int2_lattice):
        for pr in TL.pairs:
            for n in (1, 2):
                answers = {is_omega_n(pr, n, route) for route in ("ext", "syzygy", "cosyzygy")}
                assert len(answers) == 1


def test_omega_lemma_equivalences(example_ctx, example_lattice, int2_ctx, int2_lattice):
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        for pr in TL.pairs:
            w = is_omega_n(pr, 1)
            assert w == (is_hereditary(pr) and is_cohereditary(pr))
            assert w == (is_serre(ctx, pr.tors_mask) and is_serre(ctx, pr.free_mask))


def test_hereditary_cross_route(example_lattice, int2_lattice):
    for TL in (example_lattice, int2_lattice):
        for pr in TL.pairs:
            assert is_hereditary(pr) == is_hereditary(pr, via="envelopes")
            assert is_cohereditary(pr) == is_cohereditary(pr, via="covers")


def test_trivial_pair_predicates(example_lattice):
    bottom = example_lattice.pairs[0]
    assert bottom.tors_mask == 0
    assert is_hereditary(bottom) and is_cohereditary(bottom) and is_split(bottom)
    for n in (1, 2, 3):
        assert is_omega_n(bottom, n)


def test_example_predicate_classes(example_ctx, example_lattice):
    hered = {
        frozenset(names_of(example_ctx, pr.tors_mask))
        for pr in example_lattice.pairs
        if is_hereditary(pr)
    }
    assert hered == {
        frozenset(),
        frozenset({"S1"}),
        frozenset({"S2"}),
        frozenset({"S1", "S2", "P1", "P2", "I1"}),
    }
    cohered = {
        frozenset(names_of(example_ctx, pr.tors_mask))
        for pr in example_lattice.pairs
        if is_cohereditary(pr)
    }
    assert cohered == {
        frozenset(),
        frozenset({"S1", "P1"}),
        frozenset({"S2", "P2", "I1"}),
        frozenset({"S1", "S2", "P1", "P2", "I1"}),
    }


def test_omega_sets_sublattice(example_lattice, int2_lattice):
    for TL in (example_lattice, int2_lattice):
        for n in (1, 2):
            keep = {i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, n)}
            for a in keep:
                for b in keep:
                    assert int(TL.meet[a, b]) in keep
                    assert int(TL.join[a, b]) in keep


def test_omega_divisibility(example_lattice):
    for pr in example_lattice.pairs:
        if is_omega_n(pr, 1):
            assert is_omega_n(pr, 2)


def test_torsion_lattices_semidistributive(example_lattice, int2_lattice):
    assert example_lattice.is_semidistributive()
    assert int2_lattice.is_semidistributive()


# -- omega lattice via simples ----------------------------------------------------------


def test_omega_via_simples_semisimple():
    L = omega_lattice_via_simples(incidence_algebra(Poset.antichain(3)))
    assert L.n == 8 and L.is_distributive()


def test_omega_via_simples_example():
    L = omega_lattice_via_simples(two_cycle_algebra())
    assert L.n == 2


@pytest.mark.parametrize("n,count", [(2, 5), (3, 14), (4, 42)])
def test_omega_via_simples_interval_counts(n, count):
    L = omega_lattice_via_simples(incidence_algebra(interval_poset(n).opposite()))
    assert L.n == count
    assert L.is_distributive()


def test_omega_counts_orientation_independent():
    # sizes agree for both orientations of the poset
    for n in (2, 3):
        a = omega_lattice_via_simples(incidence_algebra(interval_poset(n))).n
        b = omega_lattice_via_simples(incidence_algebra(interval_poset(n).opposite())).n
        assert a == b


def test_presentation_independence(example_ctx):
    # the omega lattice only depends on the quiver, not on the relations
    A = example_ctx.algebra
    L1 = omega_lattice_via_simples(A)
    L2 = omega_lattice_from_digraph(2, [(0, 1), (1, 0)])
    assert lattice_isomorphic(L1, L2) is not None


def test_omega_engine_vs_simples(example_ctx, example_lattice, int2_ctx, int2_lattice):
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        L1 = omega_lattice_via_simples(ctx.algebra)
        keep = [i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, 1)]
        assert L1.n == len(keep)


def assert_irreducibles_are_bricks(TL, bricks):
    # Demonet-Iyama-Jasso (arXiv:1503.00285): join-irreducible torsion classes
    # biject with bricks, and so do the meet-irreducible ones
    hom = TL.context.hom_table()
    assert sum(1 for i in range(TL.context.k) if hom[i, i] == 1) == bricks
    assert len(TL.join_irreducibles()) == len(TL.meet_irreducibles()) == bricks


def test_irreducible_torsion_classes_are_bricks(example_lattice, int2_lattice):
    assert_irreducibles_are_bricks(example_lattice, 4)
    assert_irreducibles_are_bricks(int2_lattice, 6)
    assert_irreducibles_are_bricks(enumerate_torsion_pairs(path_algebra_An(4)), 10)


# -- theorem-level verification -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_verify_dyck_omega(n):
    rep = verify_dyck_omega_iso(n)
    assert rep["dyck_size"] == rep["omega_size"]
    assert rep["distributive"]


def test_verify_dyck_omega_engine_route():
    rep = verify_dyck_omega_iso(3, via="engine")
    assert rep["engine_size"] == 5
    assert rep["torsion_pairs"] == 14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_tamari_congruences(n):
    rep = verify_tamari_congruence_iso(n)
    assert rep["con_size"] == rep["dyck_size"]


def test_verify_example_full():
    rep = verify_two_cycle_example()
    assert rep["indecomposables"] == 5
    assert rep["torsion_pairs"] == 6
    assert rep["global_dimension"] == 2


# -- typeA cross-module oracle ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_typeA_symbolic_matches_engine(n):
    A = path_algebra_An(n)
    ctx = ModuleContext.for_algebra(A, 2)
    iv_of = {}
    for t, m in enumerate(ctx.indecs):
        supp = [v for v, d in enumerate(m.dims) if d]
        iv_of[t] = (supp[0] + 1, supp[-1] + 1)
    ivs, _ = _interval_index(n)
    TL = enumerate_torsion_pairs(ctx)
    engine = {frozenset(iv_of[t] for t in bits(pr.tors_mask)) for pr in TL.pairs}
    symbolic = {frozenset(ivs[t] for t in bits(mask)) for mask in typeA_torsion_classes(n)}
    assert engine == symbolic
    assert lattice_isomorphic(TL, typeA_torsion_lattice(n)) is not None
    assert lattice_isomorphic(TL, tamari_lattice(n + 1)) is not None


# -- reports ----------------------------------------------------------------------------


def test_report_roundtrip(example_lattice):
    import json

    from torscat.lattice import FinLattice

    rep = torsion_lattice_report(example_lattice)
    assert rep["size"] == 6
    blob = json.loads(json.dumps(rep))
    L = FinLattice.from_json({"size": blob["size"], "leq": blob["leq"]})
    assert L.up == example_lattice.up
    assert sorted(map(tuple, blob["hasse"])) == sorted(example_lattice.cover_pairs())


def test_report_counts_match_predicates(int2_lattice):
    rep = torsion_lattice_report(int2_lattice)
    assert sum(1 for c in rep["classes"] if c["omega1"]) == 5
    assert sum(1 for c in rep["classes"] if c["omega2"]) == 14  # hereditary algebra


def test_dot_annotations(example_lattice):
    dot = torsion_lattice_to_dot(example_lattice)
    assert dot.count("->") == 6
    assert "[whcs]" in dot or "w" in dot


def test_commutative_square_pipeline():
    # a poset whose incidence algebra has a genuine commutativity relation
    D = Poset.from_leq_pairs(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    A = incidence_algebra(D)
    ctx = ModuleContext.for_algebra(A, 2)
    assert ctx.k == 11
    TL = enumerate_torsion_pairs(ctx)
    assert TL.is_semidistributive()
    oracle = set()
    for mask in range(1 << ctx.k):
        try:
            ctx.certify_torsion_class(mask)
            oracle.add(mask)
        except VerificationFailed:
            pass
    assert oracle == {pr.tors_mask for pr in TL.pairs}
    for pr in TL.pairs:
        for n in (1, 2):
            assert len({is_omega_n(pr, n, r) for r in ("ext", "syzygy", "cosyzygy")}) == 1


# -- the extended full-scale computation ---------------------------------------------------


@pytest.mark.extended
def test_extended_int3_counts():
    A3 = incidence_algebra(interval_poset(3))
    ctx = ModuleContext.for_algebra(A3, 2)
    assert ctx.k == 35
    TL = enumerate_torsion_pairs(ctx, class_cap=2000, time_budget=600)
    assert TL.n == 808
    n_omega = sum(1 for pr in TL.pairs if is_omega_n(pr, 1))
    n_omega2 = sum(1 for pr in TL.pairs if is_omega_n(pr, 2))
    assert n_omega == 14
    assert n_omega2 == 239
    assert_irreducibles_are_bricks(TL, 35)
