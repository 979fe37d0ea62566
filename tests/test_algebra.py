import numpy as np
import pytest

from torscat import algebra
from torscat.algebra import (
    Algebra,
    AlgebraError,
    AtLeast,
    LimitExceeded,
    Module,
    ZeroModule,
    cosyzygy,
    decompose,
    ext,
    ext_via_injectives,
    global_dimension,
    hom,
    hom_dim,
    incidence_algebra,
    indecomposables,
    injective_envelope,
    min_resolution,
    modules_isomorphic,
    path_algebra_An,
    projective_cover,
    syzygy,
    two_cycle_algebra,
    _OrbitTables,
)
from torscat.linalg import Matrix
from torscat.poset import Poset, interval_poset


@pytest.fixture(scope="module")
def A():
    return two_cycle_algebra()


@pytest.fixture(scope="module")
def mods(A):
    return {
        "S1": A.simple(0),
        "S2": A.simple(1),
        "P1": A.projective(0),
        "P2": A.projective(1),
        "I1": A.injective(0),
        "I2": A.injective(1),
    }


# -- construction -------------------------------------------------------------


def test_example_algebra_basis(A):
    assert A.dim == 5
    assert sorted(A.blabels) == sorted(["e_1", "e_2", "a", "b", "b*a"])


def test_example_injectives(A, mods):
    assert mods["P2"].dims == (1, 2)
    assert mods["I1"].dims == (1, 1)
    assert modules_isomorphic(mods["P2"], mods["I2"]) is not None


def test_from_quiver_rejects_infinite_dimensional():
    with pytest.raises(AlgebraError):
        Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 1, 0)], [], max_path_cap=8)


def test_from_quiver_rejects_short_relations():
    with pytest.raises(AlgebraError):
        Algebra.from_quiver(["1", "2"], [("a", 0, 1)], [[(1, ("a",))]])


def test_incidence_algebra_dimensions():
    A2 = incidence_algebra(interval_poset(2))
    assert A2.dim == 5  # 3 reflexive pairs + 2 covers
    assert incidence_algebra(Poset.antichain(3)).dim == 3
    assert incidence_algebra(Poset.chain(2)).dim == 3
    A3 = incidence_algebra(interval_poset(3))
    assert A3.dim == 15


def test_opposite_is_involution(A):
    op = A.opposite()
    assert op.opposite() is A
    assert op.dim == A.dim


def test_algebra_json_roundtrip(A):
    B = Algebra.from_json(A.to_json())
    assert B.dim == A.dim
    assert B.blabels == A.blabels
    assert np.array_equal(B.mult, A.mult)


# -- hom ----------------------------------------------------------------------


def test_hom_identity_and_simples(A, mods):
    for m in mods.values():
        assert hom_dim(m, m) >= 1
    assert hom_dim(mods["S1"], mods["S2"]) == 0
    assert hom_dim(mods["P1"], mods["I1"]) == 1
    ends = hom(mods["S1"], mods["S1"])
    assert len(ends) == 1 and ends[0].mats[0] == Matrix([[1]], 2)


def test_hom_maps_commute(A, mods):
    for X in mods.values():
        for Y in mods.values():
            for f in hom(X, Y):
                f.check_commutes()


# -- covers, syzygies, envelopes ------------------------------------------------


def test_projective_cover_of_projective_is_identity(A, mods):
    F, pi = projective_cover(mods["P2"])
    assert F.module.dims == mods["P2"].dims
    assert pi.is_iso()


def test_projective_cover_of_simples(A, mods):
    F, _ = projective_cover(mods["S1"])
    assert F.module.dims == (1, 1)  # P1
    F, _ = projective_cover(mods["S2"])
    assert F.module.dims == (1, 2)  # P2


def test_cover_kernel_superfluous(A, mods):
    # kernel of a projective cover sits inside the radical
    for m in mods.values():
        F, pi = projective_cover(m)
        rad = F.module.radical()
        for v, sp in enumerate(pi.kernel_subspaces()):
            for row in sp.basis:
                assert rad[v].contains_vector(row)


def test_zero_module_errors(A):
    Z = Module.zero(A)
    with pytest.raises(ZeroModule):
        projective_cover(Z)
    with pytest.raises(ZeroModule):
        injective_envelope(Z)
    assert syzygy(Z).is_zero()


def test_syzygies(A, mods):
    assert syzygy(mods["P1"]).is_zero()
    assert modules_isomorphic(syzygy(mods["S1"]), mods["S2"]) is not None
    O2 = syzygy(mods["S1"], 2)
    assert modules_isomorphic(O2, mods["P1"]) is not None  # projective, gl.dim 2
    assert syzygy(mods["S1"], 3).is_zero()


def test_injective_envelope_and_cosyzygy(A, mods):
    I, emb = injective_envelope(mods["S1"])
    assert modules_isomorphic(I, mods["I1"]) is not None
    assert emb.is_injective()
    assert cosyzygy(mods["I1"]).is_zero()
    assert modules_isomorphic(cosyzygy(mods["S1"]), mods["S2"]) is not None


def test_duality_involutive(A, mods):
    for m in mods.values():
        dd = m.dual().dual()
        assert dd.algebra is A
        assert modules_isomorphic(dd, m) is not None


# -- resolutions -----------------------------------------------------------------


def test_resolution_of_projective(A, mods):
    res = min_resolution(mods["P1"], 2)
    assert res.frees[0].module.dims == mods["P1"].dims
    assert res.frees[1].is_zero() and res.frees[2].is_zero()


def test_resolution_terminates_at_two(A, mods):
    res = min_resolution(mods["S1"], 4)
    dims = [F.module.total_dim for F in res.frees]
    assert dims[3] == 0 and dims[4] == 0
    assert res.is_exact()


def test_resolution_minimality_via_hom_to_simples(A, mods):
    # the differentials of Hom(P_*, S) vanish for every simple S
    for m in mods.values():
        res = min_resolution(m, 3)
        assert res.is_minimal()
        for v in range(A.n_vertices):
            S = A.simple(v)
            for i, d in enumerate(res.diffs):
                for f in hom(d.target, S):
                    assert f.compose(d).is_zero(), (m.dims, v, i)


# -- ext ---------------------------------------------------------------------------


def test_ext_projective_vanishes(A, mods):
    for n in (1, 2, 3):
        for m in mods.values():
            assert ext(mods["P1"], m, n) == 0
            assert ext(mods["P2"], m, n) == 0


def test_ext_hand_values(A, mods):
    assert ext(mods["S1"], mods["S2"], 1) == 1
    assert ext(mods["S2"], mods["S1"], 1) == 1
    assert ext(mods["S1"], mods["S1"], 1) == 0
    assert ext(mods["S1"], mods["S2"], 0) == 0
    assert ext(mods["S1"], mods["S1"], 0) == 1


def test_ext_vanishes_beyond_global_dimension(A):
    ind = indecomposables(A, 2)
    for M in ind:
        for N in ind:
            for k in (3, 4):
                assert ext(M, N, k) == 0


def test_ext_agrees_with_injective_route(A):
    ind = indecomposables(A, 2)
    for M in ind:
        for N in ind:
            for k in range(4):
                assert ext(M, N, k) == ext_via_injectives(M, N, k)


def test_ext_quiver_matches_ext(A):
    eq = {(u, v): m for u, v, m in A.ext_quiver()}
    for u in range(A.n_vertices):
        for v in range(A.n_vertices):
            assert eq.get((u, v), 0) == ext(A.simple(u), A.simple(v), 1)


# -- global dimension -----------------------------------------------------------


def test_global_dimensions():
    assert global_dimension(incidence_algebra(Poset.antichain(2))) == 0
    assert global_dimension(two_cycle_algebra()) == 2
    assert global_dimension(incidence_algebra(interval_poset(2))) == 1
    assert global_dimension(incidence_algebra(interval_poset(3))) == 2


def test_global_dimension_probe_bound():
    # self-injective Nakayama algebra: infinite global dimension
    A = Algebra.from_quiver(
        ["1", "2"], [("a", 0, 1), ("b", 1, 0)], [[(1, ("a", "b", "a"))], [(1, ("b", "a", "b"))]]
    )
    assert global_dimension(A, probe_bound=6) == AtLeast(6)


# -- decomposition -----------------------------------------------------------------


def test_decompose_simple_and_sums(A, mods):
    assert decompose(mods["S1"]) == [(mods["S1"], 1)]
    two = mods["S1"].direct_sum(mods["S1"])
    assert decompose(two) == [(mods["S1"], 2)]
    mix = mods["S1"].direct_sum(mods["P2"], mods["S1"])
    got = sorted((m.dims, k) for m, k in decompose(mix))
    assert got == [((1, 0), 2), ((1, 2), 1)]


def test_decompose_indecomposables(A):
    for m in indecomposables(A, 2):
        assert decompose(m) == [(m, 1)]


def test_decompose_summands_rebuild(A, mods):
    M = mods["P1"].direct_sum(mods["I1"], mods["S2"])
    parts = decompose(M)
    rebuilt = None
    for rep, mult in parts:
        for _ in range(mult):
            rebuilt = rep if rebuilt is None else rebuilt.direct_sum(rep)
    assert modules_isomorphic(rebuilt, M) is not None


def test_module_relation_validation(A):
    # a representation violating the zero relation is rejected
    with pytest.raises(AlgebraError):
        Module(A, (1, 1), [Matrix([[1]], 2), Matrix([[1]], 2)])


def test_module_json_roundtrip(A, mods):
    blob = mods["P2"].to_json()
    back = Module.from_json(A, blob)
    assert back == mods["P2"]


# -- indecomposable enumeration -------------------------------------------------------


def test_indecomposables_semisimple():
    A = incidence_algebra(Poset.antichain(2))
    ind = indecomposables(A, 2)
    assert [m.dims for m in ind] == [(0, 1), (1, 0)]


def test_indecomposables_example_count(A):
    ind = indecomposables(A, 2)
    assert len(ind) == 5
    assert sorted(m.dims for m in ind) == [(0, 1), (1, 0), (1, 1), (1, 1), (1, 2)]


def test_indecomposables_An():
    # interval modules only: one per interval
    for n in (2, 3):
        ind = indecomposables(path_algebra_An(n), 2)
        assert len(ind) == n * (n + 1) // 2
        for m in ind:
            assert all(d <= 1 for d in m.dims)


def test_indecomposables_int2():
    ind = indecomposables(incidence_algebra(interval_poset(2)), 2)
    assert len(ind) == 6


@pytest.mark.extended
def test_indecomposables_int3_count():
    # both orientations: the counts agree under duality
    ind = indecomposables(incidence_algebra(interval_poset(3)), 2)
    assert len(ind) == 35
    ind_op = indecomposables(incidence_algebra(interval_poset(3).opposite()), 2)
    assert len(ind_op) == 35


def test_indecomposables_field_three():
    ind = indecomposables(two_cycle_algebra(p=3), 2)
    assert len(ind) == 5


def test_search_caps_raise(A, mods):
    from torscat.algebra import EndTooLarge

    big = mods["S1"].direct_sum(mods["S1"])
    with pytest.raises(EndTooLarge):
        modules_isomorphic(big, big, search_cap=2)


def test_submodule_cap_raises_limit(mods):
    big = mods["S1"].direct_sum(mods["S1"])  # 0, three lines, the whole
    assert len(big.all_submodules(cap=5)) == 5
    with pytest.raises(LimitExceeded, match="cap of 4 submodules"):
        big.all_submodules(cap=4)


def test_orbit_table_cap_raises_limit(monkeypatch):
    monkeypatch.setattr(algebra, "ORBIT_TABLE_CAP", 576)  # |GL_2(F_2)| * 2^4 * |GL_2(F_2)|
    assert _OrbitTables(2).act_of(2, 2).shape == (6, 16, 6)
    monkeypatch.setattr(algebra, "ORBIT_TABLE_CAP", 575)
    with pytest.raises(LimitExceeded, match="576 entries exceeds the cap of 575"):
        _OrbitTables(2).act_of(2, 2)


def test_group_cap_raises_limit():
    # dimension vector (2, 2) has the base-change group GL_2(F_2)^2 of size 36
    assert len(indecomposables(path_algebra_An(2), 2, group_cap=36)) == 3
    with pytest.raises(LimitExceeded, match="size 36 exceeds the search cap of 35"):
        indecomposables(path_algebra_An(2), 2, group_cap=35)
