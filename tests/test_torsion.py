import functools
import itertools
import json
import os
import random

import numpy as np
import pytest
from oracles import RrefTorsion, extension_middles, has_splitter, typeA_intervals
from test_algebra import truncated_polynomials

from torscat import torsion
from torscat.algebra import (
    Algebra,
    _local_radical,
    ar_quiver,
    ext,
    hom,
    incidence_algebra,
    indecomposables,
    injective_envelope,
    mesh_hom_dims,
    modules_isomorphic,
    path_algebra_An,
    projective_cover,
    two_cycle_algebra,
)
from torscat.catalan import tamari_lattice, typeA_torsion_classes, typeA_torsion_lattice
from torscat.lattice import lattice_isomorphic
from torscat.poset import Poset, bits, interval_poset
from torscat.torsion import (
    BudgetExceeded,
    ModuleContext,
    TorsionPair,
    VerificationFailed,
    enumerate_torsion_pairs,
    is_cohereditary,
    is_hereditary,
    is_omega_n,
    is_serre,
    is_split,
    omega_lattice_from_digraph,
    omega_lattice_via_simples,
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
    assert example_ctx.torsion_closure_mask(0) == 0
    assert example_ctx.torsion_closure_mask(example_ctx.all_mask) == example_ctx.all_mask


def test_closure_of_injective(example_ctx):
    idx = name_index(example_ctx)
    cl = example_ctx.torsion_closure_mask(1 << idx["I1"])
    assert names_of(example_ctx, cl) == {"I1", "S2", "P2"}


def test_free_closure(example_ctx):
    idx = name_index(example_ctx)
    fc = example_ctx.free_closure_mask(1 << idx["P1"])
    # P1 has submodule S2, so the smallest sub+ext closed class adds it
    assert "S2" in names_of(example_ctx, fc)


CLOSURE_ALGEBRAS = {
    "example-F2": two_cycle_algebra,
    "example-F3": lambda: two_cycle_algebra(p=3),
    "An:4": lambda: path_algebra_An(4),
    "int:2": lambda: incidence_algebra(interval_poset(2)),
}


@functools.cache
def closure_lattice(name):
    return enumerate_torsion_pairs(ModuleContext.for_algebra(CLOSURE_ALGEBRAS[name](), 2))


def small_subsets(k):
    """Every mask over range(k) with at most three members."""
    return [sum(1 << i for i in c) for r in range(4) for c in itertools.combinations(range(k), r)]


@pytest.mark.parametrize("name", sorted(CLOSURE_ALGEBRAS))
def test_free_closure_is_least_enumerated_free_class(name):
    TL = closure_lattice(name)
    ctx = TL.context
    for S in small_subsets(ctx.k):
        least = ctx.all_mask
        for pr in TL.pairs:
            if S & ~pr.free_mask == 0:
                least &= pr.free_mask
        assert ctx.free_closure_mask(S) == least, S


@pytest.mark.parametrize("name", sorted(CLOSURE_ALGEBRAS))
def test_torsion_closure_is_left_perp_of_perp(name):
    # generation and filtration reach T(S) = left perp of (S perp), which Hom alone decides
    ctx = closure_lattice(name).context
    for S in small_subsets(ctx.k):
        assert ctx.torsion_closure_mask(S) == ctx.left_perp_mask(ctx.perp_mask(S)), S


def test_perp_examples(example_ctx):
    idx = name_index(example_ctx)
    assert example_ctx.perp_mask(0) == example_ctx.all_mask
    assert example_ctx.perp_mask(example_ctx.all_mask) == 0
    pp = example_ctx.perp_mask((1 << idx["S1"]) | (1 << idx["P1"]))
    assert names_of(example_ctx, pp) == {"S2"}
    assert names_of(example_ctx, example_ctx.left_perp_mask(pp)) == {"S1", "P1"}


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
    TL = enumerate_torsion_pairs(ModuleContext.for_algebra(incidence_algebra(Poset.antichain(3))))
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
        enumerate_torsion_pairs(ModuleContext.for_algebra(incidence_algebra(interval_poset(2))), class_cap=5)


ORACLE_CASES = {
    "example": (two_cycle_algebra, 2, 2),
    "antichain3": (lambda p: incidence_algebra(Poset.antichain(3), p=p), 2, 2),
    "An4": (lambda p: path_algebra_An(4, p=p), 2, 2),
    "An5": (lambda p: path_algebra_An(5, p=p), 2, 2),
    "int2": (lambda p: incidence_algebra(interval_poset(2), p=p), 2, 2),
    "int2-F3": (lambda p: incidence_algebra(interval_poset(2), p=p), 3, 2),
    # dimension bound 1 is complete for A_n, whose indecomposables are thin
    "An6-F3": (lambda p: path_algebra_An(6, p=p), 3, 1),
}


@functools.cache
def oracle_case(case):
    build, p, dim_bound = ORACLE_CASES[case]
    ctx = ModuleContext.for_algebra(build(p), dim_bound)
    return enumerate_torsion_pairs(ctx), RrefTorsion(ctx)


LOCAL_RING_CASES = [*ORACLE_CASES, *(f"x^4/F{p}" for p in (2, 3, 5))]


@pytest.mark.parametrize("case", LOCAL_RING_CASES)
def test_local_radical_decides_indecomposability(case):
    # End(M) is local iff no endomorphism is a Fitting splitter, on every
    # indecomposable and every direct sum of two of them
    if case in ORACLE_CASES:
        indecs = oracle_case(case)[0].context.indecs
    else:
        indecs = indecomposables(truncated_polynomials(4, int(case.split("/F")[1])), 4)
    sums = [X.direct_sum(Y) for X, Y in itertools.combinations_with_replacement(indecs, 2)]
    for M in [*indecs, *sums]:
        assert (_local_radical(M, hom(M, M)) is not None) == (not has_splitter(M)), (case, M.dims)
    assert all(not has_splitter(M) for M in indecs)


TABLE_CASES = [*LOCAL_RING_CASES, "int3", "rad2-two-cycle"]


@functools.cache
def table_context(case):
    """The context of an oracle case, of F_p[x]/(x^4) (not directed, End not
    a field, det Cartan = 4), of int:3, or of the two-cycle with rad^2 = 0
    (det Cartan = 0)."""
    if case in ORACLE_CASES:
        return oracle_case(case)[0].context
    if case == "int3":
        return ModuleContext.for_algebra(incidence_algebra(interval_poset(3)), 2)
    if case == "rad2-two-cycle":
        with open(os.path.join(os.path.dirname(__file__), "data", "two_cycle_rad2.json")) as fh:
            return ModuleContext.for_algebra(Algebra.from_json(json.load(fh)), 2)
    return ModuleContext.for_algebra(truncated_polynomials(4, int(case.split("/F")[1])), 4)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_mesh_hom_table_matches_hom(case):
    ctx = table_context(case)
    # the mesh system is singular exactly when the Cartan matrix is; then Hom is solved pair by pair
    assert (mesh_hom_dims(ctx.indecs, ctx.ar) is None) == (case == "rad2-two-cycle")
    assert list(map(list, ctx.hom_table())) == [[len(hom(X, Y)) for Y in ctx.indecs] for X in ctx.indecs]


@pytest.mark.parametrize("case", TABLE_CASES)
def test_ext_tables_match_resolutions(case):
    ctx = table_context(case)
    for n in (1, 2):
        assert list(map(list, ctx.ext_table(n))) == [[ext(X, Y, n) for Y in ctx.indecs] for X in ctx.indecs], n


@pytest.mark.parametrize("case", TABLE_CASES)
def test_cover_and_envelope_types_match_their_modules(case):
    ctx = table_context(case)
    assert ctx.cover_types() == [ctx.identify_mask(projective_cover(M)[0].module) for M in ctx.indecs]
    assert ctx.envelope_types() == [ctx.identify_mask(injective_envelope(M)[0]) for M in ctx.indecs]


def test_mesh_certificate_catches_a_dropped_middle_summand():
    # each arrow of the AR quiver of int:2 left out of its mesh in turn, or
    # doubled (which only the h(X, I(v)) = (dim X)_v identity notices): the
    # table is refused, never returned wrong
    A = incidence_algebra(interval_poset(2))
    indecs, ar = indecomposables(A, 2), ar_quiver(A, 2)
    arrows = [(z, e) for z, middle in enumerate(ar.middle) for e in middle]
    assert len(arrows) == 4
    for (z, e), extra in itertools.product(arrows, (-1, 1)):
        middle = list(ar.middle)
        middle[z] = {**middle[z], e: middle[z][e] + extra}
        ctx = ModuleContext(A, indecs, ar._replace(middle=tuple(middle)))
        with pytest.raises(VerificationFailed, match="mesh certificate fails"):
            ctx.hom_table()


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_semibrick_classes_match_bfs_oracle(case):
    TL, oracle = oracle_case(case)
    assert {pr.tors_mask for pr in TL.pairs} == oracle.classes()
    # every class has its canonical sequence 0 -> tX -> X -> X/tX -> 0, with
    # tX in the class and X/tX in its perp; the oracle's traces are warm
    for pr in TL.pairs:
        for j in bits(TL.context.all_mask & ~pr.tors_mask & ~pr.free_mask):
            tmask, qmask = oracle.canonical_sequence(j, pr.tors_mask)
            assert tmask & ~pr.tors_mask == 0 and qmask & ~pr.free_mask == 0, (pr, j)


@pytest.mark.parametrize("build", [
    lambda: incidence_algebra(interval_poset(2)),
    lambda: path_algebra_An(4),
], ids=["int2", "An4"])
def test_trace_index_matches_rref_trace(build):
    ctx = ModuleContext.for_algebra(build(), 2)
    oracle = RrefTorsion(ctx)
    for mask in range(1 << ctx.k):
        for j in range(ctx.k):
            assert ctx.trace_subspaces(j, mask) == oracle.trace_subspaces(j, mask)
            assert ctx.gen_test(j, mask) == oracle.generated(j, mask)


@pytest.mark.extended  # 16-22 s, most of it in the breadth-first oracle
def test_int3_classes_and_traces_match_rref_oracle():
    ctx = ModuleContext.for_algebra(incidence_algebra(interval_poset(3)), 2)
    TL = enumerate_torsion_pairs(ctx)
    oracle = RrefTorsion(ctx)
    assert {pr.tors_mask for pr in TL.pairs} == oracle.classes()
    for pr in TL.pairs:
        for j in range(ctx.k):
            assert ctx.trace_subspaces(j, pr.tors_mask) == oracle.trace_subspaces(j, pr.tors_mask)


def test_certificate_catches_dropped_class(int2_ctx, int2_lattice, monkeypatch):
    # T({S[1,2], S[1,1]}) = {S[1,2], S[1,1], P[1,1]} is meet-irreducible, so
    # the other 13 classes are still a lattice with the right brick labels;
    # only the cover count notices the gap
    assert any(names_of(int2_ctx, pr.tors_mask) == {"S[1,2]", "S[1,1]", "P[1,1]"} for pr in int2_lattice.pairs)
    index = name_index(int2_ctx)
    drop = (1 << index["S[1,2]"]) | (1 << index["S[1,1]"])
    search = torsion._semibricks
    monkeypatch.setattr(torsion, "_semibricks", lambda hom, bricks: (
        (S, b) for S, b in search(hom, bricks) if S | 1 << b != drop))
    with pytest.raises(VerificationFailed, match="class has 2 covers, not 3"):
        enumerate_torsion_pairs(int2_ctx)


def test_certificate_catches_duplicate_class(int2_ctx, monkeypatch):
    search = torsion._semibricks
    monkeypatch.setattr(torsion, "_semibricks", lambda hom, bricks: itertools.chain(
        itertools.islice(search(hom, bricks), 1), search(hom, bricks)))
    with pytest.raises(VerificationFailed, match="two semibricks give the same torsion class"):
        enumerate_torsion_pairs(int2_ctx)


def test_certificate_catches_hidden_brick(monkeypatch):
    # without the brick I1 the five classes left form a pentagon, which is
    # 2-regular and closed under meets; the cover {S2} < top then has S1 and
    # I1 in the top and the perp of {S2}, and I1 is not filtered by S1
    ctx = ModuleContext.for_algebra(two_cycle_algebra(), 2)
    bricks = ctx.bricks()
    monkeypatch.setattr(ctx, "bricks", lambda: bricks & ~(1 << name_index(ctx)["I1"]))
    with pytest.raises(VerificationFailed, match="cover is not labelled by a single brick"):
        enumerate_torsion_pairs(ctx)


def test_label_beyond_the_brick_is_its_filtration(monkeypatch):
    # over F_2[x]/(x^2), T(S1) and F(S1) both hold P1, so the label {S1, P1}
    # of 0 < top is checked against the extension closure of S1
    ctx = ModuleContext.for_algebra(truncated_polynomials(2), 2)
    TL = enumerate_torsion_pairs(ctx)
    assert TL.n == 2 and TL.labels[1] == "{S1,P1}"
    monkeypatch.setattr(ctx, "filt_mask", lambda mask: mask)
    with pytest.raises(VerificationFailed, match="cover is not labelled by a single brick"):
        enumerate_torsion_pairs(ctx)


def test_filt_mask(example_ctx):
    idx = name_index(example_ctx)
    assert names_of(example_ctx, example_ctx.filt_mask(1 << idx["S1"])) == {"S1"}
    assert names_of(example_ctx, example_ctx.filt_mask((1 << idx["S1"]) | (1 << idx["S2"]))) == {
        "S1", "S2", "P1", "P2", "I1"}


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
    assert len(mids) == 1 and modules_isomorphic(mids[0], P1)
    assert extension_middles(S1, S1) == []


# -- predicates ----------------------------------------------------------------------


def test_three_omega_routes_agree(example_lattice, int2_lattice):
    for TL in (example_lattice, int2_lattice):
        for pr in TL.pairs:
            for n in (1, 2):
                answers = {is_omega_n(pr, n, route) for route in ("ext", "syzygy", "cosyzygy")}
                assert len(answers) == 1


def test_omega_lemma_equivalences():
    for case in ORACLE_CASES:
        TL, oracle = oracle_case(case)
        for pr in TL.pairs:
            w = is_omega_n(pr, 1)
            assert w == (is_hereditary(pr) and is_cohereditary(pr))
            serre = [is_serre(TL.context, mask) for mask in (pr.tors_mask, pr.free_mask)]
            assert serre == [oracle.is_serre(mask) for mask in (pr.tors_mask, pr.free_mask)]
            assert w == all(serre)


def test_hereditary_cross_route():
    # envelopes and covers against the types of all submodules and quotients
    for case in ORACLE_CASES:
        TL, oracle = oracle_case(case)
        for pr in TL.pairs:
            assert is_hereditary(pr) == oracle.is_hereditary(pr)
            assert is_cohereditary(pr) == oracle.is_cohereditary(pr)


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
                    assert TL.meet(a, b) in keep
                    assert TL.join(a, b) in keep


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


def test_successor_closed_masks_match_brute_force():
    # random digraphs, cycles and loops included, against every vertex subset
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        closed = [S for S in range(1 << n) if all(S >> v & 1 for u, v in edges if S >> u & 1)]
        closed.sort(key=lambda m: (bin(m).count("1"), m))
        labels = ["{" + ",".join(str(v + 1) for v in bits(S)) + "}" for S in closed]
        assert omega_lattice_from_digraph(n, edges).labels == tuple(labels)


def test_omega_engine_vs_simples(example_ctx, example_lattice, int2_ctx, int2_lattice):
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        L1 = omega_lattice_via_simples(ctx.algebra)
        keep = [i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, 1)]
        assert L1.n == len(keep)


def assert_irreducibles_are_bricks(TL, bricks):
    # Demonet-Iyama-Jasso (arXiv:1503.00285): join-irreducible torsion classes
    # biject with bricks, and so do the meet-irreducible ones
    hom = TL.context.hom_table()
    assert sum(1 for i in range(TL.context.k) if hom[i][i] == 1) == bricks
    assert len(TL.join_irreducibles()) == len(TL.meet_irreducibles()) == bricks


def test_irreducible_torsion_classes_are_bricks(example_lattice, int2_lattice):
    assert_irreducibles_are_bricks(example_lattice, 4)
    assert_irreducibles_are_bricks(int2_lattice, 6)
    assert_irreducibles_are_bricks(enumerate_torsion_pairs(ModuleContext.for_algebra(path_algebra_An(4))), 10)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_typeA_symbolic_matches_engine(n):
    A = path_algebra_An(n)
    ctx = ModuleContext.for_algebra(A, 2)
    iv_of = {}
    for t, m in enumerate(ctx.indecs):
        supp = [v for v, d in enumerate(m.dims) if d]
        iv_of[t] = (supp[0] + 1, supp[-1] + 1)
    ivs = typeA_intervals(n)
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
    dot = torsion_lattice_to_dot(torsion_lattice_report(example_lattice, order=False), example_lattice.cover_pairs())
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
