"""Torsion pairs over a fixed finite list of indecomposables.

A subcategory is a bitmask over the indecomposable list of an algebra
(additive closure is implicit).  Over a complete list, a torsion class is
exactly a set T with T = left perp of (perp of T) (Dickson), so the
smallest one containing S is the left perp of the perp of S, and the
smallest torsion-free class containing S is the perp of its left perp:
two bitmask passes over the Hom table.  The enumeration takes the closure
of each semibrick once and certifies that the classes found are all of
them (see ``enumerate_torsion_pairs``).  The hereditary, cohereditary and
Serre predicates read the injective envelopes, the projective covers and
the supports of the dimension vectors.  Submodule lists are built only
where a brick label needs a filtration test (``filt_mask``).
"""

from __future__ import annotations

import time

from .algebra import (
    _isomorphic_indecomposables,
    ar_quiver,
    decompose,
    hom,
    hom_dim,
    mesh_hom_dims,
    syzygy,
    cosyzygy,
    indecomposables,
    incidence_algebra,
    two_cycle_algebra,
    global_dimension,
)
from .catalan import dyck_lattice, tamari_lattice
from .lattice import (
    FinLattice,
    NotALattice,
    VerificationFailed,
    congruence_lattice,
    downset_lattice,
    forcing_poset,
    lattice_isomorphic,
)
from .linalg import Subspace
from .poset import bits, dot_digraph, interval_poset, pair_rows, poset_isomorphic, transitive_closure

__all__ = [
    "TorsionError",
    "BudgetExceeded",
    "VerificationFailed",
    "UnknownIndecomposable",
    "ModuleContext",
    "TorsionPair",
    "TorsionLattice",
    "enumerate_torsion_pairs",
    "is_omega_n",
    "is_hereditary",
    "is_cohereditary",
    "is_split",
    "is_serre",
    "omega_lattice_via_simples",
    "omega_lattice_from_digraph",
    "verify_dyck_omega_iso",
    "verify_tamari_congruence_iso",
    "verify_two_cycle_example",
    "torsion_lattice_report",
    "torsion_lattice_to_dot",
]


class TorsionError(Exception):
    pass


class BudgetExceeded(TorsionError):
    def __init__(self, count, reason):
        super().__init__(f"budget exceeded after {count} classes ({reason})")
        self.count = count
        self.reason = reason


class UnknownIndecomposable(TorsionError):
    pass


class ModuleContext:
    """An algebra with its full indecomposable list and cached invariant tables.

    ``ar`` is the list's ``ARQuiver``, which ``for_algebra`` takes from the
    knitting.  The Hom table is read off its mesh relations, and the cover,
    envelope and Ext tables off the Hom table, the dimension vectors and
    one syzygy per module; a context built from a list of its own, with no
    ``ar``, solves one Hom system per pair instead.  All tables are derived
    lazily and cached; the context is effectively immutable and safe for
    concurrent read use once warmed.
    """

    def __init__(self, algebra, indecs, ar=None):
        self.algebra = algebra
        self.indecs = tuple(indecs)
        self.ar = ar
        self.k = len(self.indecs)
        self.all_mask = (1 << self.k) - 1
        self._t = {}
        self._index = {m.key(): i for i, m in enumerate(self.indecs)}

    @classmethod
    def for_algebra(cls, algebra, dim_bound=2):
        return cls(algebra, indecomposables(algebra, dim_bound), ar_quiver(algebra, dim_bound))

    # -- naming --------------------------------------------------------------

    def vertex_types(self):
        """{"S": ..., "P": ..., "I": ...}: the index of S(v), P(v) and I(v) for each vertex v."""
        if "vt" not in self._t:
            A = self.algebra
            self._t["vt"] = {
                prefix: tuple(self.index_of(module(v)) for v in range(A.n_vertices))
                for prefix, module in (("S", A.simple), ("P", A.projective), ("I", A.injective))
            }
        return self._t["vt"]

    def names(self):
        if "names" not in self._t:
            A = self.algebra
            names = ["M" + "".join(str(d) for d in m.dims) for m in self.indecs]
            # written in reverse, so S wins over P and I, and a lower vertex over a higher
            for prefix, types in reversed(self.vertex_types().items()):
                for v in reversed(range(A.n_vertices)):
                    names[types[v]] = f"{prefix}{A.vlabels[v]}"
            # disambiguate duplicates deterministically
            seen = {}
            out = []
            for nm in names:
                seen[nm] = seen.get(nm, 0) + 1
                out.append(nm if names.count(nm) == 1 else f"{nm}#{seen[nm]}")
            self._t["names"] = tuple(out)
        return self._t["names"]

    def mask_label(self, mask):
        nm = self.names()
        return "{" + ",".join(nm[i] for i in bits(mask)) + "}"

    # -- basic tables ----------------------------------------------------------

    def hom_table(self):
        """dim Hom(M_i, M_j), from ``mesh_hom_dims`` on the AR quiver.

        Without AR data, or when the Cartan matrix of the algebra is
        singular and the mesh system with it (see ``mesh_hom_dims``), each
        entry is the dimension of a solved Hom system.
        """
        if "hom" not in self._t:
            tab = mesh_hom_dims(self.indecs, self.ar) if self.ar is not None else None
            if tab is None:
                tab = [[hom_dim(X, Y) for Y in self.indecs] for X in self.indecs]
            self._t["hom"] = tuple(map(tuple, tab))
        return self._t["hom"]

    def hom_out(self, i):
        if "hom_out" not in self._t:
            tab = self.hom_table()
            self._t["hom_out"] = [
                sum(1 << j for j in range(self.k) if tab[a][j]) for a in range(self.k)
            ]
            self._t["hom_in"] = [
                sum(1 << a for a in range(self.k) if tab[a][j]) for j in range(self.k)
            ]
        return self._t["hom_out"][i]

    def hom_in(self, j):
        self.hom_out(0)
        return self._t["hom_in"][j]

    def bricks(self):
        """The M_i with End(M_i) = F_p, as a mask (the End-dimension test)."""
        if "bricks" not in self._t:
            tab = self.hom_table()
            self._t["bricks"] = sum(1 << i for i in range(self.k) if tab[i][i] == 1)
        return self._t["bricks"]

    def trace_subspaces(self, j, mask):
        """The trace of add(mask) in M_j, the sum of the images of all maps
        into it: per vertex, the row space of the images of a Hom basis."""
        key = ("trace", j, mask & self.hom_in(j))
        if key not in self._t:
            H = [f for i in bits(key[2]) for f in self._hom_basis(i, j)]
            p = self.algebra.p
            self._t[key] = tuple(
                Subspace.from_rows([col for f in H for col in f.mats[v].columns()], d, p)
                for v, d in enumerate(self.indecs[j].dims)
            )
        return self._t[key]

    def _hom_basis(self, i, j):
        key = ("hom_basis", i, j)
        if key not in self._t:
            self._t[key] = hom(self.indecs[i], self.indecs[j])
        return self._t[key]

    def gen_test(self, j, mask):
        """Is M_j a quotient of a finite direct sum of members of mask?"""
        return all(sp.dim == d for sp, d in zip(self.trace_subspaces(j, mask), self.indecs[j].dims))

    # -- identification ---------------------------------------------------------

    def identify(self, module):
        """Iso types of the indecomposable summands, as ((index, mult), ...)."""
        if module.is_zero():
            return ()
        key = ("id", module.key())
        if key not in self._t:
            self._t[key] = tuple(sorted((self.index_of(rep), mult) for rep, mult in decompose(module)))
        return self._t[key]

    def index_of(self, rep):
        """The index of the listed module isomorphic to the indecomposable rep.

        Raises UnknownIndecomposable if there is none, which can happen only
        for a list not made by ``indecomposables``.
        """
        idx = self._index.get(rep.key())
        if idx is None:
            idx = next((i for i, cand in enumerate(self.indecs) if _isomorphic_indecomposables(rep, cand)), None)
        if idx is None:
            raise UnknownIndecomposable(f"summand with dimension vector {rep.dims} is not in the indecomposable list")
        return idx

    def identify_mask(self, module):
        return sum(1 << i for i, _ in self.identify(module))

    # -- submodule/quotient type pairs ----------------------------------------

    def subquot_pairs(self, j):
        """All (types of U, types of M_j/U) over submodules U of M_j."""
        key = ("sq", j)
        if key not in self._t:
            X = self.indecs[j]
            self._t[key] = tuple(sorted({
                (self.identify_mask(X.sub(s)[0]), self.identify_mask(X.quotient(s)[0]))
                for s in X.all_submodules()
            }))
        return self._t[key]

    # -- homological tables -----------------------------------------------------

    def ext_table(self, n):
        """dim Ext^n(M_i, M_j), from the Hom table (n >= 1).

        0 -> Hom(X, Y) -> Hom(P_X, Y) -> Hom(Omega X, Y) -> Ext^1(X, Y) -> 0
        is exact for the projective cover P_X, which holds P(v) as often as
        Hom(X, S(v)) has dimensions.  So dim Ext^1(X, Y) = h(Omega X, Y) -
        sum_v h(X, S(v)) (dim Y)_v + h(X, Y), and Ext^n(X, Y) is
        Ext^(n-1)(Omega X, Y), summed over the summands of Omega X.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        key = ("ext", n)
        if key not in self._t:
            if "omega" not in self._t:
                self._t["omega"] = [self.identify(syzygy(m, 1)) for m in self.indecs]
            if n == 1:
                h = self.hom_table()
                simples = self.vertex_types()["S"]
                tab = [
                    [h[i][j] - sum(h[i][S] * d for S, d in zip(simples, M.dims)) for j, M in enumerate(self.indecs)]
                    for i in range(self.k)
                ]
            else:
                h = self.ext_table(n - 1)
                tab = [[0] * self.k for _ in range(self.k)]
            for i, summands in enumerate(self._t["omega"]):
                for w, mult in summands:
                    tab[i] = [x + mult * y for x, y in zip(tab[i], h[w])]
            self._t[key] = tuple(map(tuple, tab))
        return self._t[key]

    def ext_bad(self, n):
        key = ("extbad", n)
        if key not in self._t:
            tab = self.ext_table(n)
            self._t[key] = [
                sum(1 << j for j in range(self.k) if tab[i][j]) for i in range(self.k)
            ]
        return self._t[key]

    def syzygy_masks(self, n):
        key = ("syz", n)
        if key not in self._t:
            self._t[key] = [self.identify_mask(syzygy(m, n)) for m in self.indecs]
        return self._t[key]

    def cosyzygy_masks(self, n):
        key = ("cosyz", n)
        if key not in self._t:
            self._t[key] = [self.identify_mask(cosyzygy(m, n)) for m in self.indecs]
        return self._t[key]

    def cover_types(self):
        """The types of each projective cover: P(v) for each v with Hom(M_i, S(v)) != 0."""
        if "pc" not in self._t:
            vt, h = self.vertex_types(), self.hom_table()
            self._t["pc"] = [
                sum(1 << P for S, P in zip(vt["S"], vt["P"]) if h[i][S]) for i in range(self.k)
            ]
        return self._t["pc"]

    def envelope_types(self):
        """The types of each injective envelope: I(v) for each v with Hom(S(v), M_i) != 0."""
        if "ie" not in self._t:
            vt, h = self.vertex_types(), self.hom_table()
            self._t["ie"] = [
                sum(1 << I for S, I in zip(vt["S"], vt["I"]) if h[S][i]) for i in range(self.k)
            ]
        return self._t["ie"]

    # -- perpendicular categories ------------------------------------------------

    def perp_mask(self, mask):
        self.hom_table()
        blocked = 0
        for i in bits(mask):
            blocked |= self.hom_out(i)
        return self.all_mask & ~blocked

    def left_perp_mask(self, mask):
        self.hom_table()
        blocked = 0
        for j in bits(mask):
            blocked |= self.hom_in(j)
        return self.all_mask & ~blocked

    # -- closures -----------------------------------------------------------------

    def torsion_closure_mask(self, mask):
        """The smallest torsion class containing mask: the left perp of its perp."""
        return self.left_perp_mask(self.perp_mask(mask))

    def free_closure_mask(self, mask):
        """The smallest torsion-free class containing mask: the perp of its left perp."""
        return self.perp_mask(self.left_perp_mask(mask))

    def filt_mask(self, mask):
        """The M_j filtered by members of mask: its closure under extensions.

        The closure lies in the smallest torsion class and the smallest
        torsion-free class containing mask, as both are closed under
        extensions.  Only their common members are tried, so where they
        meet in mask alone no submodule list is built.
        """
        tried = self.left_perp_mask(self.perp_mask(mask)) & self.free_closure_mask(mask)
        cur = mask
        while True:
            new = cur
            for j in bits(tried & ~cur):
                if any(mu & ~new == 0 and mq & ~new == 0 for mu, mq in self.subquot_pairs(j)):
                    new |= 1 << j
            if new == cur:
                return cur
            cur = new

    # -- exact torsion-class certificate ------------------------------------------

    def certify_torsion_class(self, mask):
        """Exact check that (add mask, its perp) is a torsion pair; returns the perp.

        Over a complete indecomposable list this is Dickson's definition:
        T = left perp of F and F = perp of T.  The canonical sequence
        0 -> tX -> X -> X/tX -> 0 follows from it.  Raises VerificationFailed.
        """
        F = self.perp_mask(mask)
        if self.left_perp_mask(F) != mask:
            raise VerificationFailed(
                "perp biduality fails", {"mask": mask, "perp": F, "biperp": self.left_perp_mask(F)}
            )
        return F


class TorsionPair:
    """A certified torsion pair: its free class is the perp of ``tors_mask``,
    and ``certify_torsion_class`` raises unless that is a torsion class."""

    __slots__ = ("context", "tors_mask", "free_mask")

    def __init__(self, context, tors_mask):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "free_mask", context.certify_torsion_class(tors_mask))
        object.__setattr__(self, "tors_mask", int(tors_mask))

    def __setattr__(self, name, value):
        raise AttributeError("TorsionPair is immutable")

    def __eq__(self, other):
        if not isinstance(other, TorsionPair):
            return NotImplemented
        return self.context is other.context and self.tors_mask == other.tors_mask

    def __hash__(self):
        return hash((id(self.context), self.tors_mask))

    def __repr__(self):
        return f"TorsionPair({self.context.mask_label(self.tors_mask)} | {self.context.mask_label(self.free_mask)})"


class TorsionLattice(FinLattice):
    __slots__ = ("pairs", "context")

    def __init__(self, labels, up, pairs, context):
        super().__init__(labels, up)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "context", context)


# On a complete indecomposable list the completeness certificates cannot
# fail, so a failure points at the list.  ``indecomposables`` returns only
# complete lists; a context built from a list of its own may not be.
_INCOMPLETE = " (the indecomposable list may be incomplete)"


def _semibricks(hom, bricks):
    """Every nonempty semibrick, as (S, b): the semibrick S | b grows S, an
    earlier answer or the empty one, by a brick b above every brick of S."""
    orth = {b: sum(1 << c for c in bits(bricks) if not hom[b][c] and not hom[c][b]) for b in bits(bricks)}
    stack = [(0, bricks)]  # (S, the bricks above max S orthogonal to all of S)
    while stack:
        S, grow = stack.pop()
        for b in bits(grow):
            yield S, b
            stack.append((S | 1 << b, grow & orth[b] & ~((2 << b) - 1)))


def enumerate_torsion_pairs(ctx, class_cap=2000, time_budget=None):
    """The lattice of all torsion pairs of a ``ModuleContext``, ordered by
    inclusion of torsion classes.

    One torsion class per semibrick.  A brick is an M_i with End(M_i) = F_p
    (the End-dimension test), a semibrick a set of pairwise Hom-orthogonal
    bricks, and for a tau-tilting finite algebra S -> T(S), the smallest
    torsion class containing S, is a bijection from semibricks onto torsion
    classes (Asai, arXiv:1610.05860).  The semibricks are the cliques of the
    orthogonality graph on bricks; each grows a smaller one S by a brick b,
    and T(S | b) is the left perp of the perp of S | b.  Two semibricks
    with one class raise VerificationFailed, and every class is certified
    by perp biduality, the torsion-pair definition.

    The bijection is a proof only if the brick list is complete, so the
    family found is checked against two theorems on tau-tilting finite
    algebras with n simples:

    - every T < T' in tors A has a brick B in T' and in the perp of T, and
      if T' covers T, then T' and the perp of T meet in exactly Filt(B)
      (Demonet-Iyama-Reading-Reiten-Thomas, arXiv:1711.01785);
    - every class has exactly n covers, upper and lower together
      (Adachi-Iyama-Reiten, arXiv:1210.1036).

    The first is checked on every cover of the family: its labels, the
    members of T' in the perp of T, must be Filt(B) for the one brick B
    among them.  Then each cover of the family is a cover in tors A: a class
    strictly between would give two bricks in the labels (one below it, one
    in its perp), and a second brick is never filtered by B, whether or not
    the End-dimension test found it.  Filt(B) lies in T(B) and in F(B), the
    smallest torsion-free class containing B, so ``filt_mask`` compares the
    label with B alone when the two meet only in B, and otherwise reads
    submodule lists of their common members.  The second is checked as a
    count, so each class found has all of its covers in tors A in the
    family, and as the Hasse diagram of tors A is connected and 0 is in the
    family, no class is missing.  Meets are then intersections (``from_sets`` checks
    that each is a member) and the join of two classes is the closure of
    their union, the least member containing it, so joins need no
    certificate of their own.  All of this takes the indecomposable list
    as complete, which ``indecomposables`` certifies.

    Raises BudgetExceeded if more than ``class_cap`` classes appear or the
    time budget (seconds) runs out.
    """
    t0 = time.monotonic()
    bricks = ctx.bricks()
    found = {0: 0}  # T(semibrick) -> semibrick
    for S, b in _semibricks(ctx.hom_table(), bricks):
        T = ctx.torsion_closure_mask(S | 1 << b)
        if T in found:
            raise VerificationFailed(
                "two semibricks give the same torsion class",
                {"class": T, "semibricks": [found[T], S | 1 << b]},
            )
        found[T] = S | 1 << b
        if len(found) > class_cap:
            raise BudgetExceeded(len(found), "class cap")
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            raise BudgetExceeded(len(found), "time budget")
    masks = sorted(found, key=lambda m: (bin(m).count("1"), m))
    pairs = [TorsionPair(ctx, m) for m in masks]

    labels = [ctx.mask_label(m) for m in masks]
    try:
        L = FinLattice.from_sets(masks, labels)
    except NotALattice as err:
        a, b = (masks[labels.index(x)] for x in err.pair)
        what = "meet is not the intersection" if err.kind == "meet" else "no class contains the union"
        raise VerificationFailed(what, {"a": a, "b": b}) from err
    n, cov, filt = ctx.algebra.n_vertices, L.covers(), {}
    degree = [bin(c).count("1") for c in cov]
    for a, b in L.cover_pairs():
        degree[b] += 1
        label = masks[b] & pairs[a].free_mask
        brick = label & bricks
        if brick not in filt:
            filt[brick] = ctx.filt_mask(brick) if brick and not brick & (brick - 1) else None
        if label != filt[brick]:
            raise VerificationFailed(
                "cover is not labelled by a single brick" + _INCOMPLETE, {"a": masks[a], "b": masks[b]}
            )
    for a, d in enumerate(degree):
        if d != n:
            raise VerificationFailed(f"class has {d} covers, not {n}" + _INCOMPLETE, {"class": masks[a]})
    return TorsionLattice(labels, L.up, pairs, ctx)


# -- predicates ----------------------------------------------------------------


def is_omega_n(pair, n, route="ext"):
    """Vanishing of the n-th extension group from the torsion to the free class.

    route='ext' checks Ext^n(T, F) = 0 directly; route='syzygy' checks that
    the torsion class is closed under n-th syzygies; route='cosyzygy' dually.
    The three routes agree (that equivalence is part of the test suite).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ctx = pair.context
    T, F = pair.tors_mask, pair.free_mask
    if route == "ext":
        bad = ctx.ext_bad(n)
        return all(bad[i] & F == 0 for i in bits(T))
    if route == "syzygy":
        syz = ctx.syzygy_masks(n)
        return all(syz[i] & ~T == 0 for i in bits(T))
    if route == "cosyzygy":
        cos = ctx.cosyzygy_masks(n)
        return all(cos[j] & ~F == 0 for j in bits(F))
    raise ValueError(f"unknown route {route!r}")


def is_hereditary(pair):
    """Torsion class closed under submodules: the free class is closed under
    injective envelopes."""
    ie = pair.context.envelope_types()
    return all(ie[j] & ~pair.free_mask == 0 for j in bits(pair.free_mask))


def is_cohereditary(pair):
    """Free class closed under quotients: the torsion class is closed under
    projective covers."""
    pc = pair.context.cover_types()
    return all(pc[i] & ~pair.tors_mask == 0 for i in bits(pair.tors_mask))


def is_split(pair):
    """Ext^1(F, T) = 0: every module is the direct sum of its two parts."""
    ctx = pair.context
    bad = ctx.ext_bad(1)
    return all(bad[j] & pair.tors_mask == 0 for j in bits(pair.free_mask))


def is_serre(ctx, mask):
    """Closed under submodules, quotients and extensions.

    A Serre subcategory of a length category is fixed by the simples it
    holds: it is every module whose composition factors are among them, so
    mask must be every M_j supported on the vertices of its simples.
    """
    dims = [m.dims for m in ctx.indecs]
    simple = {v for i in bits(mask) if sum(dims[i]) == 1 for v, d in enumerate(dims[i]) if d}
    return mask == sum(1 << j for j, dv in enumerate(dims) if all(v in simple for v, d in enumerate(dv) if d))


# -- the omega lattice via simples ---------------------------------------------


def omega_lattice_from_digraph(n, edges, labels=None):
    """Lattice of successor-closed vertex subsets ordered by inclusion: the
    down-sets of the preorder whose row v holds the vertices reachable from v."""
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    return downset_lattice(transitive_closure(pair_rows(n, edges)), labels)


def omega_lattice_via_simples(A):
    """The lattice of hereditary-and-cohereditary torsion pairs of A.

    Computed without enumerating indecomposables: the classes correspond to
    the subsets of simples closed under Ext^1-successors, ordered by
    inclusion.  The result is always a finite distributive lattice.
    """
    edges = [(u, v) for u, v, _ in A.ext_quiver()]
    return omega_lattice_from_digraph(A.n_vertices, edges, labels=list(A.vlabels))


# -- theorem-level verifications -------------------------------------------------


def verify_dyck_omega_iso(n, via="simples", dim_bound=2):
    """Dyck paths with n up-steps against the omega-lattice of the matching
    incidence algebra (intervals of a total order with n-1 elements,
    opposite orientation); returns the verified isomorphism data."""
    if n < 2:
        raise ValueError("need n >= 2")
    D = dyck_lattice(n)
    P = interval_poset(n - 1).opposite()
    A = incidence_algebra(P)
    M = omega_lattice_via_simples(A)
    phi = lattice_isomorphic(D, M)
    if phi is None:
        raise VerificationFailed(
            "Dyck lattice and omega lattice are not isomorphic",
            {"n": n, "dyck_size": D.n, "omega_size": M.n},
        )
    report = {
        "n": n,
        "dyck_size": D.n,
        "omega_size": M.n,
        "iso": phi,
        "distributive": bool(M.is_distributive() and D.is_distributive()),
    }
    if via == "engine":
        TL = enumerate_torsion_pairs(ModuleContext.for_algebra(A, dim_bound))
        omega_idx = [i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, 1)]
        sub = {i: k for k, i in enumerate(omega_idx)}
        # the omega pairs must be closed under the ambient meet and join
        for a in omega_idx:
            for b in omega_idx:
                if TL.meet(a, b) not in sub or TL.join(a, b) not in sub:
                    raise VerificationFailed("omega pairs not a sublattice", {"n": n})
        OL = FinLattice.from_sets(
            [TL.pairs[i].tors_mask for i in omega_idx], [TL.labels[i] for i in omega_idx]
        )
        phi2 = lattice_isomorphic(D, OL)
        if phi2 is None:
            raise VerificationFailed("engine route disagrees with Dyck lattice", {"n": n})
        report["engine_size"] = OL.n
        report["engine_iso"] = phi2
        report["torsion_pairs"] = TL.n
    return report


def verify_tamari_congruence_iso(n):
    """Congruence lattice of the Tamari lattice against the Dyck lattice, plus
    the forcing poset against the reverse-containment interval poset."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = tamari_lattice(n)
    C = congruence_lattice(T)
    D = dyck_lattice(n)
    phi = lattice_isomorphic(C, D)
    if phi is None:
        raise VerificationFailed(
            "congruence lattice of the Tamari lattice does not match the Dyck lattice",
            {"n": n, "con_size": C.n, "dyck_size": D.n},
        )
    FP = forcing_poset(T)
    psi = poset_isomorphic(FP, interval_poset(n - 1).opposite()) if n >= 2 else []
    if psi is None:
        raise VerificationFailed("forcing poset does not match reverse interval containment", {"n": n})
    return {
        "n": n,
        "tamari_size": T.n,
        "con_size": C.n,
        "dyck_size": D.n,
        "iso": phi,
        "forcing_size": FP.n,
        "forcing_iso": psi,
    }


def verify_two_cycle_example(p=2):
    """Full reproduction of the two-vertex cyclic example: indecomposables,
    torsion pairs and their Hasse diagram, the named predicate classes, the
    omega and omega_2 pairs, and the global dimension."""
    A = two_cycle_algebra(p=p)
    ctx = ModuleContext.for_algebra(A, 2)
    if ctx.k != 5:
        raise VerificationFailed("expected 5 indecomposables", {"got": ctx.k})
    TL = enumerate_torsion_pairs(ctx)
    if TL.n != 6:
        raise VerificationFailed("expected 6 torsion pairs", {"got": TL.n})
    names = ctx.names()

    def class_names(mask):
        return frozenset(names[i] for i in bits(mask))

    by_name = {class_names(pr.tors_mask): i for i, pr in enumerate(TL.pairs)}
    want = {
        frozenset(): [],
        frozenset({"S1"}): [],
        frozenset({"S2"}): [],
        frozenset({"S1", "P1"}): [],
        frozenset({"S2", "P2", "I1"}): [],
        frozenset({"S1", "S2", "P1", "P2", "I1"}): [],
    }
    if set(by_name) != set(want):
        raise VerificationFailed("torsion classes differ", {"got": sorted(map(sorted, by_name))})
    hasse = {
        (class_names(TL.pairs[a].tors_mask), class_names(TL.pairs[b].tors_mask))
        for a, b in TL.cover_pairs()
    }
    bot, top = frozenset(), frozenset({"S1", "S2", "P1", "P2", "I1"})
    expected_hasse = {
        (bot, frozenset({"S1"})),
        (bot, frozenset({"S2"})),
        (frozenset({"S1"}), frozenset({"S1", "P1"})),
        (frozenset({"S2"}), frozenset({"S2", "P2", "I1"})),
        (frozenset({"S1", "P1"}), top),
        (frozenset({"S2", "P2", "I1"}), top),
    }
    if hasse != expected_hasse:
        raise VerificationFailed("Hasse diagram differs", {"got": sorted(map(str, hasse))})

    def mask_set(pred):
        return {class_names(pr.tors_mask) for pr in TL.pairs if pred(pr)}

    hered = mask_set(is_hereditary)
    cohered = mask_set(is_cohereditary)
    omega1 = mask_set(lambda pr: is_omega_n(pr, 1))
    omega2 = mask_set(lambda pr: is_omega_n(pr, 2))
    checks = {
        "hereditary": (hered, {bot, frozenset({"S1"}), frozenset({"S2"}), top}),
        "cohereditary": (
            cohered,
            {bot, frozenset({"S1", "P1"}), frozenset({"S2", "P2", "I1"}), top},
        ),
        "omega1": (omega1, {bot, top}),
        "omega2": (omega2, {bot, frozenset({"S2"}), frozenset({"S1", "P1"}), top}),
    }
    for what, (got, expect) in checks.items():
        if got != expect:
            raise VerificationFailed(
                f"{what} classes differ", {"got": sorted(map(sorted, got))}
            )
    gd = global_dimension(A)
    if gd != 2:
        raise VerificationFailed("global dimension differs", {"got": repr(gd)})
    return {
        "indecomposables": ctx.k,
        "torsion_pairs": TL.n,
        "hereditary": sorted(sorted(s) for s in hered),
        "cohereditary": sorted(sorted(s) for s in cohered),
        "omega": sorted(sorted(s) for s in omega1),
        "omega2": sorted(sorted(s) for s in omega2),
        "global_dimension": 2,
    }


# -- reports ---------------------------------------------------------------------


def torsion_lattice_report(TL, order=True):
    """JSON-ready description of a torsion lattice with predicate annotations.

    ``order=False`` leaves out the Hasse diagram and the full order.
    """
    ctx = TL.context
    names = ctx.names()
    classes = [
        {
            "tors": [[i, list(ctx.indecs[i].dims)] for i in bits(pr.tors_mask)],
            "free": [[i, list(ctx.indecs[i].dims)] for i in bits(pr.free_mask)],
            "tors_names": [names[i] for i in bits(pr.tors_mask)],
            "omega1": is_omega_n(pr, 1),
            "omega2": is_omega_n(pr, 2),
            "hereditary": is_hereditary(pr),
            "cohereditary": is_cohereditary(pr),
            "split": is_split(pr),
        }
        for pr in TL.pairs
    ]
    rep = {"field": ctx.algebra.p, "size": TL.n, "classes": classes}
    if order:
        rep["hasse"] = [[a, b] for a, b in TL.cover_pairs()]
        rep["leq"] = [[i, j] for i in range(TL.n) for j in bits(TL.up[i])]
    return rep


def torsion_lattice_to_dot(rep, hasse, name="torsion"):
    """The DOT Hasse diagram of a torsion lattice, from the classes of its
    ``torsion_lattice_report`` and its cover pairs ``hasse``."""
    tags = (("w", "omega1"), ("v", "omega2"), ("h", "hereditary"), ("c", "cohereditary"), ("s", "split"))
    labels = []
    for entry in rep["classes"]:
        flags = "".join(tag for tag, key in tags if entry[key])
        labels.append("{" + ",".join(entry["tors_names"]) + "}" + (f" [{flags}]" if flags else ""))
    return dot_digraph(name, labels, hasse)
