import functools
import itertools
import operator
import pathlib
from collections import Counter

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from torscat.algebra import (
    Algebra,
    AlgebraError,
    AtLeast,
    LimitExceeded,
    Module,
    ZeroModule,
    _almost_split_middle,
    ar_quiver,
    cosyzygy,
    decompose,
    ext,
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
    tau,
    tau_inverse,
    two_cycle_algebra,
)
from torscat.linalg import Matrix, Subspace
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
    assert modules_isomorphic(mods["P2"], mods["I2"])


def test_from_quiver_rejects_infinite_dimensional():
    with pytest.raises(AlgebraError):
        Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 1, 0)], [], max_path_cap=8)


def test_from_quiver_rejects_short_relations():
    with pytest.raises(AlgebraError):
        Algebra.from_quiver(["1", "2"], [("a", 0, 1)], [[(1, ("a",))]])


@pytest.mark.parametrize("path", [(0, 1.0), ("a", "c"), (0, 2), (True, 1)])
def test_from_quiver_refuses_a_path_entry_that_is_no_arrow(path):
    with pytest.raises(AlgebraError, match="is not an arrow name or arrow index"):
        Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 1, 0)], [[(1, path)]])


def test_radical_is_the_sum_of_the_arrow_images():
    indecs = indecomposables(incidence_algebra(interval_poset(3)), 2)
    assert len(indecs) == 35
    for M in indecs:
        A = M.algebra
        images = [
            functools.reduce(operator.add, [M.mats[ai].image() for ai, a in enumerate(A.arrows) if a.tgt == v],
                             Subspace.zero(M.dims[v], A.p))
            for v in range(A.n_vertices)
        ]
        assert M.radical() == images


def test_incidence_algebra_dimensions():
    A2 = incidence_algebra(interval_poset(2))
    assert A2.dim == 5  # 3 reflexive pairs + 2 covers
    assert incidence_algebra(Poset.antichain(3)).dim == 3
    assert incidence_algebra(Poset.chain(2)).dim == 3
    A3 = incidence_algebra(interval_poset(3))
    assert A3.dim == 15


# -- associativity certificate -----------------------------------------------


def dense_mult(alg):
    """The structure constants as a dense d^3 tensor: b_i b_j = sum_m t[i, j, m] b_m."""
    mult = np.zeros((alg.dim,) * 3, dtype=np.int64)
    for (i, j), terms in alg.mult.items():
        for m, c in terms:
            mult[i, j, m] = c
    return mult


def sparse_mult(mult):
    """The sparse table of a dense tensor: {(i, j): ((m, c), ...)} over nonzero c."""
    return {(i, j): tuple((int(m), int(mult[i, j, m])) for m in np.flatnonzero(mult[i, j]))
            for i, j in zip(*np.nonzero(mult.any(axis=2)))}


def dense_is_associative(alg):
    """Oracle: both bracketings of every triple, as two dense d^4 tensors."""
    p = alg.p
    mult = dense_mult(alg)
    lhs = np.tensordot(mult, mult, axes=([2], [0])) % p  # (i,j,k,m)
    rhs = np.tensordot(mult, mult, axes=([2], [1])).transpose(2, 0, 1, 3) % p
    return np.array_equal(lhs, rhs)


def with_mult(alg, mult):
    return Algebra(alg.p, alg.vlabels, alg.arrows, alg.relations, alg.src, alg.tgt, alg.paths,
                   alg.blabels, mult, alg.e_idx, alg.arrow_idx)


def associativity_rejected(alg):
    try:
        alg.validate()
    except AlgebraError as err:
        return "not associative" in str(err)
    return False


SMALL_TABLES = {
    "int:3": lambda p: incidence_algebra(interval_poset(3), p=p),
    "An:5": lambda p: path_algebra_An(5, p=p),
    "example": lambda p: two_cycle_algebra(p=p),
}


@functools.cache
def small_table(name, p):
    return SMALL_TABLES[name](p)


@given(st.sampled_from(sorted(SMALL_TABLES)), st.sampled_from([2, 3]), st.data())
@settings(max_examples=300, deadline=None)
def test_validate_matches_dense_oracle_on_one_entry_changes(name, p, data):
    alg = small_table(name, p)
    d = alg.dim
    assert d <= 48 and dense_is_associative(alg)
    i, j, m = (data.draw(st.integers(0, d - 1)) for _ in range(3))
    mult = dense_mult(alg)
    mult[i, j, m] = (mult[i, j, m] + data.draw(st.integers(1, p - 1))) % p
    bad = with_mult(alg, sparse_mult(mult))
    assert associativity_rejected(bad) == (not dense_is_associative(bad))


def test_validate_rejects_one_changed_constant_above_dimension_48():
    alg = incidence_algebra(interval_poset(6))
    assert alg.dim > 48
    alg.validate()
    # arrows a, b, c in a row: zeroing the constant of b_a b_b = b_ab kills
    # (b_a b_b) b_c, while b_a (b_b b_c) = b_abc stays nonzero
    arrows = alg.arrows
    a, b = next(
        (alg.arrow_idx[x], alg.arrow_idx[y])
        for x, y, z in itertools.product(range(len(arrows)), repeat=3)
        if arrows[x].tgt == arrows[y].src and arrows[y].tgt == arrows[z].src
    )
    ((ab, _),) = alg.mult[a, b]
    mult = {**alg.mult, (a, b): ((ab, 0),)}
    assert associativity_rejected(with_mult(alg, mult))


def test_opposite_is_involution(A):
    op = A.opposite()
    assert op.opposite() is A
    assert op.dim == A.dim


def test_algebra_json_roundtrip(A):
    B = Algebra.from_json(A.to_json())
    assert B.dim == A.dim
    assert B.blabels == A.blabels
    assert B.mult == A.mult


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
    assert modules_isomorphic(syzygy(mods["S1"]), mods["S2"])
    O2 = syzygy(mods["S1"], 2)
    assert modules_isomorphic(O2, mods["P1"])  # projective, gl.dim 2
    assert syzygy(mods["S1"], 3).is_zero()


def test_injective_envelope_and_cosyzygy(A, mods):
    I, emb = injective_envelope(mods["S1"])
    assert modules_isomorphic(I, mods["I1"])
    assert emb.is_injective()
    assert cosyzygy(mods["I1"]).is_zero()
    assert modules_isomorphic(cosyzygy(mods["S1"]), mods["S2"])


def test_duality_involutive(A, mods):
    for m in mods.values():
        dd = m.dual().dual()
        assert dd.algebra is A
        assert modules_isomorphic(dd, m)


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
                assert ext(M, N, k) == oracles.ext_via_injectives(M, N, k)


def test_ext_quiver_matches_ext(A):
    eq = {(u, v): m for u, v, m in A.ext_quiver()}
    for u in range(A.n_vertices):
        for v in range(A.n_vertices):
            assert eq.get((u, v), 0) == ext(A.simple(u), A.simple(v), 1)


RAD2_JSON = pathlib.Path(__file__).parent / "data" / "two_cycle_rad2.json"


def ext_quiver_corpus():
    """Algebras with the names they are reported under: int:2-6 and An:2-8
    over F_2, the two-cycle algebras over F_2, F_3 and F_5, int:3 over F_3
    and F_5, and the Kronecker algebra; each with its opposite."""
    algebras = [(f"int:{n}", incidence_algebra(interval_poset(n))) for n in range(2, 7)]
    algebras += [(f"An:{n}", path_algebra_An(n)) for n in range(2, 9)]
    for p in (2, 3, 5):
        algebras += [(f"two-cycle F_{p}", two_cycle_algebra(p)), (f"rad2 F_{p}", Algebra.from_json(RAD2_JSON.read_text(), p=p))]
    algebras += [(f"int:3 F_{p}", incidence_algebra(interval_poset(3), p=p)) for p in (3, 5)]
    algebras.append(("kronecker", Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 0, 1)], [])))
    return algebras + [(name + " op", A.opposite()) for name, A in algebras]


def test_ext_quiver_matches_radical_route_and_arrows():
    # every algebra here is a path algebra modulo an admissible ideal
    # (relations of length >= 2), so its Ext quiver is its quiver
    for name, A in ext_quiver_corpus():
        eq = A.ext_quiver()
        assert eq == oracles.ext_quiver_via_radicals(A), name
        arrows = Counter((a.src, a.tgt) for a in A.arrows)
        assert eq == sorted((u, v, m) for (u, v), m in arrows.items()), name


# -- global dimension -----------------------------------------------------------


def test_global_dimensions():
    assert global_dimension(incidence_algebra(Poset.antichain(2))) == 0
    assert global_dimension(two_cycle_algebra()) == 2
    assert global_dimension(incidence_algebra(interval_poset(2))) == 1
    assert global_dimension(incidence_algebra(interval_poset(3))) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_two_cycle_algebra_is_the_target_algebra(p):
    # the one relation a then b gives every fact the paper's example needs
    A = two_cycle_algebra(p=p)
    assert A.dim == 5 and global_dimension(A) == 2
    assert modules_isomorphic(A.projective(1), A.injective(1))
    assert len(indecomposables(A, 2)) == 5


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


def test_decompose_reaches_the_splitter_search_on_a_residue_field_past_f_p(monkeypatch):
    # over the Kronecker quiver a, b: 1 -> 2, M = (I, B) with B = [[0,1],[1,1]]
    # has End(M) = F_2[B] = F_4: local, so no endomorphism splits M, but its
    # residue field is not F_2, so the local-ring certificate does not apply
    # and the decision falls through to the search over all of End(M)
    from torscat import algebra

    K = Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 0, 1)], [], p=2)
    M = Module(K, (2, 2), [Matrix.identity(2, 2), Matrix([[0, 1], [1, 1]], 2)])
    assert hom_dim(M, M) == 2 and not oracles.has_splitter(M)
    tries = []

    def counted(X, mats):
        tries.append(X.dims)
        return try_split(X, mats)

    try_split = algebra._try_split
    monkeypatch.setattr(algebra, "_try_split", counted)
    assert decompose(M) == [(M, 1)]
    # two basis elements, one pairwise sum, then the one remaining element of F_2^2
    assert tries == [(2, 2)] * 4
    [(X, mult)] = decompose(M.direct_sum(M))
    assert mult == 2 and oracles.search_isomorphism(X, M) is not None


def test_decompose_summands_rebuild(A, mods):
    M = mods["P1"].direct_sum(mods["I1"], mods["S2"])
    parts = decompose(M)
    rebuilt = None
    for rep, mult in parts:
        for _ in range(mult):
            rebuilt = rep if rebuilt is None else rebuilt.direct_sum(rep)
    assert modules_isomorphic(rebuilt, M)


def test_modules_isomorphic_is_a_bool(A, mods):
    # P1 and I1 share the dimension vector (1, 1), and so do S1 + S2 and P1
    assert modules_isomorphic(mods["P1"], mods["I1"]) is False
    assert modules_isomorphic(mods["S1"].direct_sum(mods["S2"]), mods["P1"]) is False
    assert modules_isomorphic(mods["P1"].direct_sum(mods["S1"]), mods["I1"].direct_sum(mods["S1"])) is False
    M = mods["P1"].direct_sum(mods["S2"], mods["I1"], mods["S2"])
    assert modules_isomorphic(M, mods["S2"].direct_sum(mods["I1"], mods["S2"], mods["P1"])) is True
    assert modules_isomorphic(M, mods["S2"].direct_sum(mods["I1"], mods["P1"], mods["P1"])) is False


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
        oracles.search_isomorphism(big, big, search_cap=2)


def test_submodule_cap_raises_limit(mods):
    big = mods["S1"].direct_sum(mods["S1"])  # 0, three lines, the whole
    assert len(big.all_submodules(cap=5)) == 5
    with pytest.raises(LimitExceeded, match="cap of 4 submodules"):
        big.all_submodules(cap=4)


def test_submodules_match_subspace_search():
    # every family of per-vertex subspaces closed under the arrows, by brute force
    for A in (two_cycle_algebra(p=3), incidence_algebra(interval_poset(2))):
        for M in indecomposables(A, 2) + [A.projective(0).direct_sum(A.simple(0))]:
            per_vertex = [
                {Subspace.from_rows(rows, d, A.p) for k in range(d + 1)
                 for rows in itertools.combinations(itertools.product(range(A.p), repeat=d), k)}
                for d in M.dims
            ]
            closed = {
                subs for subs in itertools.product(*per_vertex)
                if all(all(subs[a.tgt].contains_vector(oracles.as_array(m) @ row % A.p)
                           for row in subs[a.src].basis) for a, m in zip(A.arrows, M.mats))
            }
            got = M.all_submodules()
            assert len(got) == len(set(got)) and set(got) == closed


# -- the orbit-search oracle ------------------------------------------------------


def test_orbit_table_cap_raises_limit(monkeypatch):
    monkeypatch.setattr(oracles, "ORBIT_TABLE_CAP", 576)  # |GL_2(F_2)| * 2^4 * |GL_2(F_2)|
    assert oracles._OrbitTables(2).act_of(2, 2).shape == (6, 16, 6)
    monkeypatch.setattr(oracles, "ORBIT_TABLE_CAP", 575)
    with pytest.raises(LimitExceeded, match="576 entries exceeds the cap of 575"):
        oracles._OrbitTables(2).act_of(2, 2)


def test_group_cap_raises_limit():
    # dimension vector (2, 2) has the base-change group GL_2(F_2)^2 of size 36
    assert len(oracles.orbit_indecomposables(path_algebra_An(2), 2, group_cap=36)) == 3
    with pytest.raises(LimitExceeded, match="size 36 exceeds the search cap of 35"):
        oracles.orbit_indecomposables(path_algebra_An(2), 2, group_cap=35)


def test_group_cap_is_checked_before_any_table():
    # |GL_2(F_3)|^2 = 2304 comes from the closed form; no GL table is built
    tables = oracles._OrbitTables(3)
    with pytest.raises(LimitExceeded, match="size 2304 exceeds the search cap of 100"):
        oracles._indecs_for_dimvec(path_algebra_An(2, p=3), (2, 2), tables, 100)
    assert tables.gl == {} and tables.act == {}


@pytest.mark.parametrize("d, p", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 5), (2, 5)])
def test_gl_tables(d, p):
    gl, inv, mats = oracles._gl_data(d, p)
    assert len(gl) == oracles._gl_order(d, p)
    assert all(Matrix(mats[enc], p).rank() == d for enc in gl)
    for i, enc in enumerate(gl):
        assert np.array_equal(mats[enc].astype(np.int64) @ mats[gl[inv[i]]] % p, np.eye(d))


@pytest.mark.parametrize("p, dv, du", [(2, 2, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (5, 1, 1)])
def test_action_table_matches_loop(p, dv, du):
    tables = oracles._OrbitTables(p)
    glv, _, matsv = tables.gl_of(dv)
    glu, _, matsu = tables.gl_of(du)
    act = tables.act_of(dv, du)
    for gi, genc in enumerate(glv):
        for ci, c in enumerate(oracles._all_mats(dv, du, p)):
            for hi, henc in enumerate(glu):
                prod = (matsv[genc].astype(np.int64) @ c @ matsu[henc]) % p
                assert act[gi, ci, hi] == oracles._encode(prod, p)


# -- Auslander-Reiten knitting ------------------------------------------------------


KNIT_CASES = {
    "example/F2": lambda: two_cycle_algebra(p=2),
    "example/F3": lambda: two_cycle_algebra(p=3),
    "An:4": lambda: path_algebra_An(4),
    "An:5": lambda: path_algebra_An(5),
    "An:6": lambda: path_algebra_An(6),
    "int:2/F2": lambda: incidence_algebra(interval_poset(2)),
    "int:2/F3": lambda: incidence_algebra(interval_poset(2), p=3),
    "antichain:2": lambda: incidence_algebra(Poset.antichain(2)),
    "int:3": lambda: incidence_algebra(interval_poset(3)),
    "int:3 op": lambda: incidence_algebra(interval_poset(3)).opposite(),
}


def truncated_polynomials(n, p=2):
    """F_p[x]/(x^n) on one loop: its indecomposables F_p[x]/(x^i) have End of dimension i."""
    return Algebra.from_quiver(["1"], [("x", 0, 0)], [[(1, ("x",) * n)]], p=p)


@pytest.mark.parametrize("name", sorted(KNIT_CASES))
def test_knitting_matches_orbit_search(name):
    A = KNIT_CASES[name]()
    knitted, orbits = indecomposables(A, 2), oracles.orbit_indecomposables(A, 2)
    assert len(knitted) == len(orbits)
    for M in knitted:
        assert sum(N.dims == M.dims and oracles.search_isomorphism(M, N) is not None for N in orbits) == 1


def coxeter_matrix(A):
    """Phi = -C^T C^-1, where column v of the Cartan matrix C is dim P(v)."""
    C = np.array([A.projective(v).dims for v in range(A.n_vertices)], dtype=float).T
    return np.rint(-C.T @ np.linalg.inv(C)).astype(int)


def is_isomorphic_to_any(M, modules):
    return any(M.dims == N.dims and modules_isomorphic(M, N) for N in modules)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tau_follows_the_coxeter_transformation(n):
    A = path_algebra_An(n)
    phi = coxeter_matrix(A)
    injectives = [A.injective(v) for v in range(n)]
    projectives = [A.projective(v) for v in range(n)]
    for X in indecomposables(A, 2):
        Z, Y = tau_inverse(X), tau(X)
        if is_isomorphic_to_any(X, injectives):
            assert Z.is_zero()
        else:
            assert np.array_equal(phi @ np.array(Z.dims), X.dims)
        if is_isomorphic_to_any(X, projectives):
            assert Y.is_zero()
        else:
            assert np.array_equal(phi @ np.array(X.dims), Y.dims)


@pytest.mark.parametrize("name", ["example/F2", "example/F3", "An:5", "int:3"])
def test_tau_inverts_tau_inverse(name):
    A = KNIT_CASES[name]()
    for X in indecomposables(A, 2):
        Z = tau_inverse(X)
        if not Z.is_zero():
            assert modules_isomorphic(tau(Z), X)
            assert modules_isomorphic(tau_inverse(tau(Z)), Z)


def assert_almost_split(indecs):
    """0 -> X -> E -> Z -> 0 is almost split iff Hom(W, E) -> Hom(W, Z) has the
    image rad(W, Z) for every indecomposable W: dim Hom(W, E) = dim Hom(W, X)
    + dim Hom(W, Z) - [W = Z], End(Z) being local with residue field F_p."""
    count = 0
    for X in indecs:
        Z = tau_inverse(X)
        if Z.is_zero():  # X is injective
            continue
        E = _almost_split_middle(X, Z)
        count += 1
        assert E.dims == tuple(x + z for x, z in zip(X.dims, Z.dims))
        for W in indecs:
            same = W.dims == Z.dims and modules_isomorphic(W, Z)
            assert hom_dim(W, E) == hom_dim(W, X) + hom_dim(W, Z) - same, (X.dims, W.dims)
    return count


@pytest.mark.parametrize("name", ["example/F2", "example/F3", "int:3"])
def test_almost_split_sequences(name):
    A = KNIT_CASES[name]()
    indecs = indecomposables(A, 2)
    injective = sum(is_isomorphic_to_any(M, [A.injective(v) for v in range(A.n_vertices)]) for M in indecs)
    assert assert_almost_split(indecs) == len(indecs) - injective


@pytest.mark.parametrize("p", [2, 3])
def test_almost_split_sequences_of_non_bricks(p):
    # over F_p[x]/(x^4), Ext^1(M_2, M_2) has dimension 2: M_4 is the middle term
    # of a class outside the socle, M_1 + M_3 that of the almost split sequence
    A = truncated_polynomials(4, p)
    indecs = indecomposables(A, 4)
    assert [M.dims for M in indecs] == [(1,), (2,), (3,), (4,)]
    assert [hom_dim(M, M) for M in indecs] == [1, 2, 3, 4]
    assert assert_almost_split(indecs) == 3
    E = _almost_split_middle(indecs[1], tau_inverse(indecs[1]))
    assert sorted(M.dims for M, _ in decompose(E)) == [(1,), (3,)]


AR_CASES = {
    "example/F2": (KNIT_CASES["example/F2"], 2),
    "An:5": (KNIT_CASES["An:5"], 2),
    "int:2/F3": (KNIT_CASES["int:2/F3"], 2),
    "x^4/F3": (lambda: truncated_polynomials(4, 3), 4),
}


@pytest.mark.parametrize("name", sorted(AR_CASES))
def test_ar_quiver_records_translates_and_middle_terms(name):
    build, dim_bound = AR_CASES[name]
    A = build()
    indecs, ar = indecomposables(A, dim_bound), ar_quiver(A, dim_bound)
    for v in range(A.n_vertices):
        assert modules_isomorphic(indecs[ar.projectives[v]], A.projective(v))
        assert modules_isomorphic(indecs[ar.injectives[v]], A.injective(v))
    for i, X in enumerate(indecs):
        assert (ar.tau[i] is None) == (i in ar.projectives)
        assert (ar.tau_inverse[i] is None) == (i in ar.injectives)
        if ar.tau[i] is None:
            assert ar.middle[i] == {}
            continue
        assert ar.tau_inverse[ar.tau[i]] == i
        assert modules_isomorphic(tau(X), indecs[ar.tau[i]])
        # 0 -> tau X -> E -> X -> 0 is exact on dimension vectors
        E = sum(mult * np.array(indecs[e].dims) for e, mult in ar.middle[i].items())
        assert E.tolist() == [x + y for x, y in zip(X.dims, indecs[ar.tau[i]].dims)]


def test_dimension_bound_stops_the_knitting():
    A = incidence_algebra(interval_poset(3))
    with pytest.raises(LimitExceeded, match=r"dimension vector \[.*\] exceeds the dimension bound 1"):
        indecomposables(A, 1)
    # the Kronecker quiver is representation-infinite: no bound makes its list complete
    kronecker = Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 0, 1)], [])
    with pytest.raises(LimitExceeded, match="exceeds the dimension bound 5"):
        indecomposables(kronecker, 5)
