"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 8 is the full-scale run and only executes when TORSCAT_EXTENDED=1.
"""

import time

import pytest
from oracles import brute_force_congruences, typeA_intervals

from torscat.algebra import incidence_algebra, path_algebra_An
from torscat.catalan import (
    dyck_lattice,
    tamari_lattice,
    typeA_torsion_classes,
    typeA_torsion_lattice,
)
from torscat.lattice import (
    FinLattice,
    all_congruences,
    forcing_poset,
    lattice_isomorphic,
)
from torscat.poset import Poset, bits, interval_poset, poset_isomorphic
from torscat.torsion import (
    ModuleContext,
    enumerate_torsion_pairs,
    is_cohereditary,
    is_hereditary,
    is_omega_n,
    is_serre,
    omega_lattice_via_simples,
    verify_dyck_omega_iso,
    verify_tamari_congruence_iso,
    verify_two_cycle_example,
)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.t0 = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.budget, f"{label} took {elapsed:.1f}s, budget {self.budget}s"
        return elapsed


def test_criterion_1_example_exact():
    sw = Stopwatch(1.0)
    rep = verify_two_cycle_example()
    assert rep["indecomposables"] == 5
    assert rep["torsion_pairs"] == 6
    assert rep["omega"] == [[], ["I1", "P1", "P2", "S1", "S2"]]
    assert rep["omega2"] == [[], ["I1", "P1", "P2", "S1", "S2"], ["P1", "S1"], ["S2"]]
    assert rep["hereditary"] == [[], ["I1", "P1", "P2", "S1", "S2"], ["S1"], ["S2"]]
    assert rep["cohereditary"] == [
        [],
        ["I1", "P1", "P2", "S1", "S2"],
        ["I1", "P2", "S2"],
        ["P1", "S1"],
    ]
    assert rep["global_dimension"] == 2
    t = sw.done("criterion 1")
    print(f"\nACCEPTANCE 1 PASS example algebra reproduced exactly ({t:.2f}s)")


def test_criterion_2_catalan_counts():
    for n, want in ((2, 5), (3, 14), (4, 42)):
        sw = Stopwatch(1.0)
        L = omega_lattice_via_simples(incidence_algebra(interval_poset(n).opposite()))
        assert L.n == want
        assert dyck_lattice(n + 1).n == want
        sw.done(f"criterion 2 (n={n})")
    print("\nACCEPTANCE 2 PASS omega-lattice sizes 5/14/42 match the Dyck lattices")


def test_criterion_3_dyck_omega_isomorphism():
    sw = Stopwatch(10.0)
    for n in range(2, 7):
        rep = verify_dyck_omega_iso(n)
        assert len(rep["iso"]) == rep["dyck_size"]
    t = sw.done("criterion 3")
    print(f"\nACCEPTANCE 3 PASS Dyck_n isomorphic to the omega lattice for n=2..6 ({t:.2f}s)")


def test_criterion_4_tamari_congruences():
    sw = Stopwatch(60.0)
    for n in (2, 3, 4):
        rep = verify_tamari_congruence_iso(n)
        assert rep["con_size"] == dyck_lattice(n).n
    for n in (2, 3):
        FP = forcing_poset(tamari_lattice(n + 1))
        assert poset_isomorphic(FP, interval_poset(n).opposite()) is not None
    t = sw.done("criterion 4")
    print(f"\nACCEPTANCE 4 PASS Con(Tamari_n) matches Dyck_n (n=2,3,4) and forcing posets match ({t:.2f}s)")


def test_criterion_5_equivalence_suites(example_ctx, example_lattice, int2_ctx, int2_lattice):
    sw = Stopwatch(120.0)
    for ctx, TL in ((example_ctx, example_lattice), (int2_ctx, int2_lattice)):
        assert TL.is_semidistributive()
        keep = {1: set(), 2: set()}
        for i, pr in enumerate(TL.pairs):
            for n in (1, 2):
                answers = {is_omega_n(pr, n, r) for r in ("ext", "syzygy", "cosyzygy")}
                assert len(answers) == 1, "routes disagree"
                if answers.pop():
                    keep[n].add(i)
            w = is_omega_n(pr, 1)
            assert w == (is_hereditary(pr) and is_cohereditary(pr))
            assert w == (is_serre(ctx, pr.tors_mask) and is_serre(ctx, pr.free_mask))
        for n in (1, 2):
            for a in keep[n]:
                for b in keep[n]:
                    assert TL.meet(a, b) in keep[n]
                    assert TL.join(a, b) in keep[n]
        OL = omega_lattice_via_simples(ctx.algebra)
        assert OL.is_distributive()
        assert OL.n == len(keep[1])
    t = sw.done("criterion 5")
    print(f"\nACCEPTANCE 5 PASS route equivalences, sublattice closure, (semi)distributivity ({t:.2f}s)")


def test_criterion_6_hereditary_count():
    sw = Stopwatch(30.0)
    TL = enumerate_torsion_pairs(ModuleContext.for_algebra(incidence_algebra(interval_poset(2))))
    assert TL.n == 14
    t = sw.done("criterion 6")
    print(f"\nACCEPTANCE 6 PASS interval incidence algebra has 14 torsion pairs ({t:.2f}s)")


def test_criterion_7_oracle_equivalences():
    sw = Stopwatch(60.0)
    corpus = [FinLattice.from_order(Poset.chain(k)) for k in (1, 2, 3, 4, 5, 6, 7)]
    corpus.append(FinLattice.from_order(Poset.from_leq_pairs("0ab1", [(0, 1), (0, 2), (1, 3), (2, 3)])))
    corpus.append(
        FinLattice.from_order(
            Poset.from_leq_pairs("0abc1", [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        )
    )
    corpus.append(
        FinLattice.from_order(
            Poset.from_leq_pairs("0abc1", [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        )
    )
    corpus.append(tamari_lattice(3))
    corpus.append(
        FinLattice.from_order(
            Poset.from_leq_pairs(
                list("0123456"), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5), (5, 6)]
            )
        )
    )
    for L in corpus:
        if L.n <= 7:
            assert [c.block for c in all_congruences(L)] == [
                c.block for c in brute_force_congruences(L)
            ]
    for n in range(1, 7):
        A = path_algebra_An(n)
        ctx = ModuleContext.for_algebra(A, 2)
        iv_of = {}
        for t_, m in enumerate(ctx.indecs):
            supp = [v for v, d in enumerate(m.dims) if d]
            iv_of[t_] = (supp[0] + 1, supp[-1] + 1)
        ivs = typeA_intervals(n)
        TL = enumerate_torsion_pairs(ctx)
        engine = {frozenset(iv_of[t_] for t_ in bits(pr.tors_mask)) for pr in TL.pairs}
        symbolic = {frozenset(ivs[t_] for t_ in bits(mask)) for mask in typeA_torsion_classes(n)}
        assert engine == symbolic
        assert lattice_isomorphic(TL, typeA_torsion_lattice(n)) is not None
    t = sw.done("criterion 7")
    print(f"\nACCEPTANCE 7 PASS congruence and type-A oracles agree with the fast algorithms ({t:.2f}s)")


@pytest.mark.extended
def test_criterion_8_extended_full_scale(capsys):
    sw = Stopwatch(600.0)
    from torscat.cli import main

    code = main(["--budget", "590", "tors", "int:3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "35 indecomposables, 808 torsion pairs" in out
    assert "omega: 14   omega_2: 239" in out
    t = sw.done("criterion 8")
    print(f"\nACCEPTANCE 8 PASS full-scale run: 35 indecomposables, 808 torsion pairs, 239 omega_2, 14 omega ({t:.1f}s)")
