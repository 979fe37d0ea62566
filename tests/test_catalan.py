import pytest
from oracles import rotation_closure_tamari, typeA_fixed_point_classes

from torscat import catalan
from torscat.catalan import (
    binary_trees,
    dyck_lattice,
    dyck_paths,
    dyck_to_ideal,
    tamari_lattice,
    tree_to_parens,
    typeA_tamari_map,
    typeA_torsion_classes,
    typeA_torsion_lattice,
)
from torscat.cli import main
from torscat.lattice import (
    FinLattice,
    VerificationFailed,
    congruence_lattice,
    ideal_lattice,
    is_congruence_uniform,
    lattice_isomorphic,
)
from torscat.poset import Poset, interval_poset, unions

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_dyck_path_validation():
    # heights 0,1,2,1,2,1,0: the boxes [1,1] and [2,2] of interval_poset(2) lie under the path
    assert dyck_to_ideal("UUDUDD") == 0b101
    with pytest.raises(ValueError):
        dyck_to_ideal("UDD")
    with pytest.raises(ValueError):
        dyck_to_ideal("DU")
    with pytest.raises(ValueError):
        dyck_to_ideal("UX")
    # the boxes under a path with n up-steps are the elements of interval_poset(n - 1)
    with pytest.raises(ValueError, match=r"target is not interval_poset\(0\)"):
        dyck_to_ideal("UD", target=interval_poset(3))
    with pytest.raises(ValueError, match=r"target is not interval_poset\(3\)"):
        dyck_to_ideal("UUUUDDDD", target=interval_poset(2))
    with pytest.raises(ValueError, match=r"target is not interval_poset\(2\)"):
        dyck_to_ideal("UUDUDD", target=Poset.antichain(3))
    assert dyck_to_ideal("UUDUDD", target=interval_poset(2)) == 0b101


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dyck_counts(n):
    assert len(dyck_paths(n)) == CATALAN[n]
    assert dyck_lattice(n).n == CATALAN[n]


def test_dyck_lattice_structure():
    L = dyck_lattice(1)
    assert L.n == 1
    for n in (2, 3, 4, 5):
        L = dyck_lattice(n)
        assert L.is_distributive()
        # zigzag is the bottom element
        assert L.labels[L.bottom()] == "UD" * n
        assert L.labels[L.top()] == "U" * n + "D" * n


def test_dyck_meet_is_pointwise_min():
    L = dyck_lattice(3)
    zig = L.labels.index("UDUDUD")
    for x in range(L.n):
        assert L.meet(zig, x) == zig


def test_dyck_to_ideal_extremes():
    for n in (2, 3, 4):
        P = interval_poset(n - 1)
        assert dyck_to_ideal("UD" * n, target=P) == 0
        full = dyck_to_ideal("U" * n + "D" * n, target=P)
        assert bin(full).count("1") == P.n == n * (n - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dyck_to_ideal_order_isomorphism(n):
    P = interval_poset(n - 1)
    D = dyck_lattice(n)  # D.leq(i, j): path j dominates path i
    ideals = [dyck_to_ideal(q, target=P) for q in D.labels]
    assert len(set(ideals)) == D.n
    assert set(ideals) == unions(P.down())
    for i in range(D.n):
        for j in range(D.n):
            assert D.leq(i, j) == (ideals[i] & ~ideals[j] == 0)


def test_tree_serialization_roundtrip():
    for n in range(5):
        strings = [tree_to_parens(t) for t in binary_trees(n)]
        assert len(set(strings)) == len(strings)
        for s in strings:
            assert len(s) == 2 * n
            dyck_to_ideal(s.replace("(", "U").replace(")", "D"))  # raises unless balanced
    strings = {tree_to_parens(t) for t in binary_trees(4)}
    assert len(strings) == CATALAN[4]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tamari_counts(n):
    assert tamari_lattice(n).n == CATALAN[n]


def test_tamari_small_structures():
    assert tamari_lattice(1).n == 1
    t2 = tamari_lattice(2)
    assert t2.n == 2 and t2.cover_pairs() == [(0, 1)] or len(t2.cover_pairs()) == 1
    n5 = FinLattice.from_order(
        Poset.from_leq_pairs("0abc1", [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    )
    assert lattice_isomorphic(tamari_lattice(3), n5) is not None


def test_tamari_semidistributive_not_distributive():
    for n in (3, 4, 5):
        t = tamari_lattice(n)
        assert t.is_semidistributive()
        assert not t.is_distributive()
        assert is_congruence_uniform(t)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_typeA_counts(n, count):
    assert len(typeA_torsion_classes(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_typeA_classes_match_the_fixed_point(n):
    assert typeA_torsion_classes(n) == typeA_fixed_point_classes(n)


def test_typeA_bounds():
    with pytest.raises(ValueError):
        typeA_torsion_classes(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_typeA_isomorphic_to_tamari(n):
    # the explicit map is the isomorphism the search finds
    L, img = typeA_tamari_map(n)
    assert img == lattice_isomorphic(L, tamari_lattice(n + 1))


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.extended)])
def test_bracket_vector_tamari_matches_the_rotation_closure(n):
    L, oracle = tamari_lattice(n), rotation_closure_tamari(n)
    assert (L.labels, L.up, L.covers()) == (oracle.labels, oracle.up, oracle.covers())


def test_bracket_vector_tamari_is_certified_by_the_rotations(monkeypatch):
    # one rotation fewer: the bracket-vector order keeps that cover, so the check must refuse it
    rotations_up = catalan._rotations_up
    monkeypatch.setattr(catalan, "_rotations_up", lambda t: rotations_up(t)[1:])
    with pytest.raises(VerificationFailed, match="bracket-vector covers are not the rotations"):
        tamari_lattice(3)


def test_typeA_map_refuses_classes_that_are_not_typeA(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(catalan, "_prefix_runs", lambda n: [(0b000, (0, 0)), (0b001, (1, 0))])  # a chain of 2, not 5 classes
        with pytest.raises(VerificationFailed, match="not a bijection"):
            typeA_tamari_map(2)
    # one rotation fewer: the type-A covers keep that cover, so the check must refuse it
    rotations_up = catalan._rotations_up
    monkeypatch.setattr(catalan, "_rotations_up", lambda t: rotations_up(t)[1:])
    with pytest.raises(VerificationFailed, match="type-A cover is not a rotation"):
        typeA_torsion_lattice(3)
    assert main(["catalan", "typeA", "3"]) == 1
    assert capsys.readouterr().err.startswith("verification FAILED: a type-A cover is not a rotation")


def test_brick_forcing_poset():
    # intervals of [n] under reverse containment; composing with the ideal lattice gives the dual Dyck lattice; the
    # straight Dyck lattice arises from the opposite orientation
    for n in (2, 3, 4):
        assert (
            lattice_isomorphic(
                ideal_lattice(interval_poset(n)), dyck_lattice(n + 1)
            )
            is not None
        )
        assert (
            lattice_isomorphic(
                ideal_lattice(interval_poset(n).opposite()), dyck_lattice(n + 1).opposite()
            )
            is not None
        )


def test_congruence_lattice_of_tamari_is_dyck():
    for n in (2, 3, 4):
        assert lattice_isomorphic(congruence_lattice(tamari_lattice(n)), dyck_lattice(n)) is not None
