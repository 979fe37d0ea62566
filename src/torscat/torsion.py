"""Torsion pairs over a fixed finite list of indecomposables.

A subcategory is a bitmask over the indecomposable list of an algebra
(additive closure is implicit).  The torsion closure is computed as the
closure of a generation step (trace = quotients of finite sums) and a
filtration step (X joins when it has a submodule U with U and X/U already
in the class); every class produced by the enumeration is then certified
against the exact torsion-pair definition, so a closure shortfall surfaces
as a hard error instead of a wrong lattice.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .algebra import (
    ModuleMap,
    decompose,
    ext,
    hom,
    injective_envelope,
    min_resolution,
    modules_isomorphic,
    projective_cover,
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
    congruence_lattice,
    forcing_poset,
    joins_are_unions,
    lattice_isomorphic,
)
from .linalg import Matrix, Subspace
from .poset import Poset, bits, interval_poset, iter_ideal_masks, poset_isomorphic

__all__ = [
    "TorsionError",
    "BudgetExceeded",
    "VerificationFailed",
    "UnknownIndecomposable",
    "ModuleContext",
    "Subcat",
    "TorsionPair",
    "TorsionLattice",
    "torsion_closure",
    "free_closure",
    "perp",
    "left_perp",
    "enumerate_torsion_pairs",
    "is_omega_n",
    "is_hereditary",
    "is_cohereditary",
    "is_split",
    "is_serre",
    "extension_middles",
    "omega_lattice_via_simples",
    "omega_lattice_from_digraph",
    "verify_dyck_omega_iso",
    "verify_tamari_congruence_iso",
    "verify_two_cycle_example",
    "torsion_lattice_report",
    "torsion_lattice_to_dot",
    "successor_closed_masks",
]


class TorsionError(Exception):
    pass


class BudgetExceeded(TorsionError):
    def __init__(self, count, reason):
        super().__init__(f"budget exceeded after {count} classes ({reason})")
        self.count = count
        self.reason = reason


class VerificationFailed(TorsionError):
    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data or {}


class UnknownIndecomposable(TorsionError):
    pass


class ModuleContext:
    """An algebra with its full indecomposable list and cached invariant tables.

    All tables are derived lazily and cached; the context is effectively
    immutable and safe for concurrent read use once warmed.
    """

    def __init__(self, algebra, indecs):
        self.algebra = algebra
        self.indecs = tuple(indecs)
        self.k = len(self.indecs)
        self.all_mask = (1 << self.k) - 1
        self._t = {}
        self._index = {m.key(): i for i, m in enumerate(self.indecs)}

    @classmethod
    def for_algebra(cls, algebra, dim_bound=2):
        return cls(algebra, indecomposables(algebra, dim_bound))

    # -- naming --------------------------------------------------------------

    def names(self):
        if "names" not in self._t:
            A = self.algebra
            kinds = (("S", A.simple), ("P", A.projective), ("I", A.injective))

            def name_of(m):
                for prefix, module in kinds:
                    for v in range(A.n_vertices):
                        if m.dims == module(v).dims and modules_isomorphic(m, module(v)):
                            return f"{prefix}{A.vlabels[v]}"
                return "M" + "".join(str(d) for d in m.dims)

            names = [name_of(m) for m in self.indecs]
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
        if "hom" not in self._t:
            k = self.k
            tab = np.zeros((k, k), dtype=np.int16)
            basis = {}
            for i in range(k):
                for j in range(k):
                    H = hom(self.indecs[i], self.indecs[j])
                    tab[i, j] = len(H)
                    if H:
                        basis[(i, j)] = H
            self._t["hom"] = tab
            self._t["hom_basis"] = basis
        return self._t["hom"]

    def hom_out(self, i):
        if "hom_out" not in self._t:
            tab = self.hom_table()
            self._t["hom_out"] = [
                sum(1 << j for j in range(self.k) if tab[a, j]) for a in range(self.k)
            ]
            self._t["hom_in"] = [
                sum(1 << a for a in range(self.k) if tab[a, j]) for j in range(self.k)
            ]
        return self._t["hom_out"][i]

    def hom_in(self, j):
        self.hom_out(0)
        return self._t["hom_in"][j]

    def _trace_rows(self, i, j):
        """Per-vertex stacked image rows of all maps M_i -> M_j."""
        key = ("tr", i, j)
        if key not in self._t:
            self.hom_table()
            H = self._t["hom_basis"].get((i, j), [])
            nv = self.algebra.n_vertices
            rows = []
            for v in range(nv):
                mats = [f.mats[v].a.T for f in H]
                rows.append(
                    np.vstack(mats) if mats else np.zeros((0, self.indecs[j].dims[v]), dtype=np.uint8)
                )
            self._t[key] = rows
        return self._t[key]

    def trace_subspaces(self, j, mask):
        """The trace submodule of add(mask) in M_j, as per-vertex subspaces."""
        M = self.indecs[j]
        p = self.algebra.p
        relevant = mask & self.hom_in(j)
        nv = self.algebra.n_vertices
        stacked = [[] for _ in range(nv)]
        for i in bits(relevant):
            rows = self._trace_rows(i, j)
            for v in range(nv):
                if rows[v].shape[0]:
                    stacked[v].append(rows[v])
        out = []
        for v in range(nv):
            if stacked[v]:
                out.append(Subspace.from_rows(np.vstack(stacked[v]), M.dims[v], p))
            else:
                out.append(Subspace.zero(M.dims[v], p))
        return tuple(out)

    def gen_test(self, j, mask):
        """Is M_j a quotient of a finite direct sum of members of mask?"""
        key = ("gen", j, mask & self.hom_in(j))
        if key not in self._t:
            tr = self.trace_subspaces(j, mask)
            self._t[key] = all(sp.dim == d for sp, d in zip(tr, self.indecs[j].dims))
        return self._t[key]

    def _cotrace_rows(self, j, i):
        """Per-vertex stacked kernel constraints of all maps M_j -> M_i."""
        key = ("cotr", j, i)
        if key not in self._t:
            self.hom_table()
            H = self._t["hom_basis"].get((j, i), [])
            nv = self.algebra.n_vertices
            rows = []
            for v in range(nv):
                mats = [f.mats[v].a for f in H]
                rows.append(
                    np.vstack(mats) if mats else np.zeros((0, self.indecs[j].dims[v]), dtype=np.uint8)
                )
            self._t[key] = rows
        return self._t[key]

    def cogen_test(self, j, mask):
        """Does M_j embed into a finite direct sum of members of mask?"""
        key = ("cogen", j, mask & self.hom_out(j))
        if key not in self._t:
            relevant = mask & self.hom_out(j)
            M = self.indecs[j]
            p = self.algebra.p
            nv = self.algebra.n_vertices
            ok = True
            for v in range(nv):
                if M.dims[v] == 0:
                    continue
                mats = []
                for i in bits(relevant):
                    rows = self._cotrace_rows(j, i)
                    if rows[v].shape[0]:
                        mats.append(rows[v])
                if not mats:
                    ok = False
                    break
                if Matrix(np.vstack(mats), p).kernel().dim != 0:
                    ok = False
                    break
            self._t[key] = ok
        return self._t[key]

    # -- identification ---------------------------------------------------------

    def identify(self, module):
        """Iso types of the indecomposable summands, as ((index, mult), ...).

        Raises UnknownIndecomposable if a summand is not in the stored list;
        that means the list was not closed under the requested construction
        (dimension bound too small or representation-infinite input).
        """
        if module.is_zero():
            return ()
        key = ("id", module.key())
        if key not in self._t:
            out = []
            for rep, mult in decompose(module):
                idx = self._index.get(rep.key())
                if idx is None:
                    for cand in range(self.k):
                        if self.indecs[cand].dims == rep.dims and modules_isomorphic(
                            rep, self.indecs[cand]
                        ):
                            idx = cand
                            break
                if idx is None:
                    raise UnknownIndecomposable(
                        f"summand with dimension vector {rep.dims} is not in the indecomposable list"
                    )
                out.append((idx, mult))
            self._t[key] = tuple(sorted(out))
        return self._t[key]

    def identify_mask(self, module):
        return sum(1 << i for i, _ in self.identify(module))

    # -- submodule/quotient type pairs ----------------------------------------

    def subquot_pairs(self, j):
        """All (types of U, types of X/U) over submodules U of X = M_j."""
        key = ("sq", j)
        if key not in self._t:
            X = self.indecs[j]
            pairs = set()
            for subs in X.all_submodules():
                U, _ = X.sub(subs)
                Q, _ = X.quotient(subs)
                pairs.add((self.identify_mask(U), self.identify_mask(Q)))
            self._t[key] = tuple(sorted(pairs))
        return self._t[key]

    def sub_types(self, j):
        """Types of indecomposable summands of submodules of M_j."""
        key = ("subty", j)
        if key not in self._t:
            acc = 0
            for mu, _ in self.subquot_pairs(j):
                acc |= mu
            self._t[key] = acc
        return self._t[key]

    def quot_types(self, j):
        key = ("quotty", j)
        if key not in self._t:
            acc = 0
            for _, mq in self.subquot_pairs(j):
                acc |= mq
            self._t[key] = acc
        return self._t[key]

    # -- homological tables -----------------------------------------------------

    def ext_table(self, n):
        key = ("ext", n)
        if key not in self._t:
            k = self.k
            tab = np.zeros((k, k), dtype=np.int16)
            for i in range(k):
                for j in range(k):
                    tab[i, j] = ext(self.indecs[i], self.indecs[j], n)
            self._t[key] = tab
        return self._t[key]

    def ext_bad(self, n):
        key = ("extbad", n)
        if key not in self._t:
            tab = self.ext_table(n)
            self._t[key] = [
                sum(1 << j for j in range(self.k) if tab[i, j]) for i in range(self.k)
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
        if "pc" not in self._t:
            self._t["pc"] = [
                self.identify_mask(projective_cover(m)[0].module) for m in self.indecs
            ]
        return self._t["pc"]

    def envelope_types(self):
        if "ie" not in self._t:
            self._t["ie"] = [self.identify_mask(injective_envelope(m)[0]) for m in self.indecs]
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
        return self._closure_mask(mask, self.gen_test)

    def free_closure_mask(self, mask):
        return self._closure_mask(mask, self.cogen_test)

    def _closure_mask(self, mask, test):
        """Grow ``mask`` until no M_j outside it passes ``test`` (generated
        or cogenerated by the mask) or is an extension of two of its members."""
        cur = mask
        while True:
            new = cur
            for j in range(self.k):
                if (new >> j) & 1:
                    continue
                if test(j, new):
                    new |= 1 << j
                    continue
                for mu, mq in self.subquot_pairs(j):
                    if mu & ~new == 0 and mq & ~new == 0:
                        new |= 1 << j
                        break
            if new == cur:
                return cur
            cur = new

    # -- exact torsion-class certificate ------------------------------------------

    def certify_torsion_class(self, mask):
        """Exact check that (add mask, its perp) is a torsion pair.

        Needs: perp biduality, and for every indecomposable X the canonical
        sequence 0 -> t(X) -> X -> X/t(X) -> 0 with t(X) in the class and
        the quotient in the perp (t = trace).  Raises VerificationFailed.
        """
        F = self.perp_mask(mask)
        if self.left_perp_mask(F) != mask:
            raise VerificationFailed(
                "perp biduality fails", {"mask": mask, "perp": F, "biperp": self.left_perp_mask(F)}
            )
        for j in range(self.k):
            if (mask >> j) & 1 or (F >> j) & 1:
                continue
            key = ("cert", j, mask & self.hom_in(j))
            if key in self._t:
                tmask, qmask = self._t[key]
            else:
                X = self.indecs[j]
                tr = self.trace_subspaces(j, mask)
                T, _ = X.sub(tr)
                Q, _ = X.quotient(tr)
                tmask, qmask = self.identify_mask(T), self.identify_mask(Q)
                self._t[key] = (tmask, qmask)
            if tmask & ~mask:
                raise VerificationFailed(
                    "trace submodule leaves the class", {"mask": mask, "at": j, "trace": tmask}
                )
            if qmask & ~F:
                raise VerificationFailed(
                    "torsion-free quotient leaves the perp", {"mask": mask, "at": j, "quot": qmask}
                )
        return F


class Subcat:
    """A subcategory given by its set of indecomposable members."""

    __slots__ = ("context", "mask")

    def __init__(self, context, mask):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "mask", int(mask))

    def __setattr__(self, name, value):
        raise AttributeError("Subcat is immutable")

    def members(self):
        return [self.context.indecs[i] for i in bits(self.mask)]

    def label(self):
        return self.context.mask_label(self.mask)

    def __contains__(self, module):
        for i, _ in self.context.identify(module):
            if not (self.mask >> i) & 1:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Subcat):
            return NotImplemented
        return self.context is other.context and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.context), self.mask))

    def __repr__(self):
        return f"Subcat({self.label()})"


def torsion_closure(S):
    """Smallest torsion class containing the subcategory S."""
    return Subcat(S.context, S.context.torsion_closure_mask(S.mask))


def free_closure(S):
    """Smallest torsion-free class containing the subcategory S."""
    return Subcat(S.context, S.context.free_closure_mask(S.mask))


def perp(S):
    """Right hom-orthogonal: modules receiving no maps from S."""
    return Subcat(S.context, S.context.perp_mask(S.mask))


def left_perp(S):
    return Subcat(S.context, S.context.left_perp_mask(S.mask))


class TorsionPair:
    __slots__ = ("context", "tors_mask", "free_mask")

    def __init__(self, context, tors_mask, free_mask=None, check=True):
        if free_mask is None:
            free_mask = context.perp_mask(tors_mask)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "tors_mask", int(tors_mask))
        object.__setattr__(self, "free_mask", int(free_mask))
        if check:
            if context.perp_mask(tors_mask) != free_mask:
                raise VerificationFailed("free class is not the perp of the torsion class")
            context.certify_torsion_class(tors_mask)

    def __setattr__(self, name, value):
        raise AttributeError("TorsionPair is immutable")

    @property
    def tors(self):
        return Subcat(self.context, self.tors_mask)

    @property
    def free(self):
        return Subcat(self.context, self.free_mask)

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

    def __init__(self, up, meet, join, labels, pairs, context):
        super().__init__(up, meet, join, labels)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "context", context)

    def mask_index(self):
        return {pr.tors_mask: i for i, pr in enumerate(self.pairs)}


def _unrank_pairs(ranks, n):
    """The pairs (a, b), a < b < n, at ``ranks`` in the row-major order of
    ``itertools.combinations(range(n), 2)``, as two int lists."""
    row = np.arange(n)
    starts = row * (2 * n - row - 1) // 2  # rank of (a, a + 1)
    ranks = np.asarray(ranks, dtype=np.int64)
    a = np.searchsorted(starts, ranks, side="right") - 1
    return a.tolist(), (ranks - starts[a] + a + 1).tolist()


def enumerate_torsion_pairs(
    algebra_or_context,
    dim_bound=2,
    class_cap=2000,
    time_budget=None,
    join_audit=4000,
):
    """The lattice of all torsion pairs, ordered by inclusion of torsion classes.

    Breadth-first join closure from the principal torsion classes; every
    class found is certified against the exact torsion-pair definition.
    Meets are verified to be intersections; joins are audited against the
    closure of the union on ``join_audit`` pairs (all pairs when small).
    Raises BudgetExceeded if more than ``class_cap`` classes appear or the
    time budget (seconds) runs out.
    """
    ctx = (
        algebra_or_context
        if isinstance(algebra_or_context, ModuleContext)
        else ModuleContext.for_algebra(algebra_or_context, dim_bound)
    )
    t0 = time.monotonic()
    principal = [ctx.torsion_closure_mask(1 << i) for i in range(ctx.k)]
    found = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for i in range(ctx.k):
            if (cur >> i) & 1:
                continue
            j = ctx.torsion_closure_mask(cur | principal[i])
            if j not in found:
                found.add(j)
                frontier.append(j)
                if len(found) > class_cap:
                    raise BudgetExceeded(len(found), "class cap")
                if time_budget is not None and time.monotonic() - t0 > time_budget:
                    raise BudgetExceeded(len(found), "time budget")
    masks = sorted(found, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    pairs = [TorsionPair(ctx, m) for m in masks]

    n = len(masks)
    labels = [ctx.mask_label(m) for m in masks]
    try:
        L = FinLattice.from_sets(masks, labels)
    except NotALattice as err:
        if err.kind != "meet":
            raise
        a, b = (masks[labels.index(x)] for x in err.pair)
        raise VerificationFailed("meet is not the intersection", {"a": a, "b": b}) from err
    # join = closure of the union, audited
    n_pairs = n * (n - 1) // 2
    if n_pairs > join_audit:
        rng = np.random.default_rng(0)
        audit_pairs = zip(*_unrank_pairs(rng.choice(n_pairs, size=join_audit, replace=False), n))
    else:
        audit_pairs = itertools.combinations(range(n), 2)
    for a, b in audit_pairs:
        j = ctx.torsion_closure_mask(masks[a] | masks[b])
        if index.get(j) != L.join[a, b]:
            raise VerificationFailed(
                "join is not the closure of the union", {"a": masks[a], "b": masks[b]}
            )
    return TorsionLattice(L.up, L.meet, L.join, labels, pairs, ctx)


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


def is_hereditary(pair, via="submodules"):
    """Torsion class closed under submodules (equivalently, free class under envelopes)."""
    ctx = pair.context
    if via == "submodules":
        return all(ctx.sub_types(i) & ~pair.tors_mask == 0 for i in bits(pair.tors_mask))
    if via == "envelopes":
        ie = ctx.envelope_types()
        return all(ie[j] & ~pair.free_mask == 0 for j in bits(pair.free_mask))
    raise ValueError(f"unknown route {via!r}")


def is_cohereditary(pair, via="quotients"):
    """Free class closed under quotients (equivalently, torsion class under covers)."""
    ctx = pair.context
    if via == "quotients":
        return all(ctx.quot_types(j) & ~pair.free_mask == 0 for j in bits(pair.free_mask))
    if via == "covers":
        pc = ctx.cover_types()
        return all(pc[i] & ~pair.tors_mask == 0 for i in bits(pair.tors_mask))
    raise ValueError(f"unknown route {via!r}")


def is_split(pair):
    """Ext^1(F, T) = 0: every module is the direct sum of its two parts."""
    ctx = pair.context
    bad = ctx.ext_bad(1)
    return all(bad[j] & pair.tors_mask == 0 for j in bits(pair.free_mask))


def is_serre(ctx, mask):
    """Closed under submodules, quotients and extensions."""
    for i in bits(mask):
        if ctx.sub_types(i) & ~mask or ctx.quot_types(i) & ~mask:
            return False
    for j in range(ctx.k):
        if (mask >> j) & 1:
            continue
        for mu, mq in ctx.subquot_pairs(j):
            if mu and mq and mu & ~mask == 0 and mq & ~mask == 0:
                return False
    return True


def extension_middles(X, Y):
    """Middle terms of all nonzero classes in Ext^1(X, Y), built from cocycles.

    Each class gives the pushout (Y + F0)/{(g(z), -d1(z))} of the start of a
    minimal projective resolution of X along the cocycle g.
    """
    from .algebra import _delta_matrix

    p = X.algebra.p
    res = min_resolution(X, 2)
    F0, F1, F2 = res.frees
    d1, d2 = res.diffs
    if F1.is_zero() or Y.is_zero():
        return []
    dim1 = F1.hom_space_dim(Y)
    # delta matrices act on generator coordinates: cocycles = ker(. composed with d2)
    D2 = _delta_matrix(F2, F1, d2, Y) if not F2.is_zero() else Matrix.zeros(0, dim1, p)
    cocycles = D2.kernel() if D2.rows else Subspace.full(dim1, p)
    D1 = _delta_matrix(F1, F0, d1, Y)
    boundaries = D1.image() if D1.cols else Subspace.zero(dim1, p)
    # coset representatives of cocycles modulo boundaries
    reps = []
    span = boundaries
    for row in cocycles.basis:
        if not span.contains_vector(row):
            reps.append(row)
            span = span + Subspace.from_rows([row], dim1, p)
    middles = []
    if not reps:
        return middles
    Ysum = Y.direct_sum(F0.module)
    nv = X.algebra.n_vertices
    for coeffs in itertools.product(range(p), repeat=len(reps)):
        if not any(coeffs):
            continue
        vec = np.zeros(dim1, dtype=np.int64)
        for c, row in zip(coeffs, reps):
            vec += c * row.astype(np.int64)
        vec %= p
        # unpack generator coordinates into images
        sizes = [Y.dims[v] for v in F1.verts]
        offs = np.cumsum([0] + sizes)
        gen_images = [vec[offs[s] : offs[s + 1]].astype(np.uint8) for s in range(len(F1.verts))]
        g = F1.map_from_generators(Y, gen_images)
        phi_mats = []
        for v in range(nv):
            top = g.mats[v].a.astype(np.int64)
            bot = (-d1.mats[v].a.astype(np.int64)) % p
            phi_mats.append(Matrix(np.vstack([top, bot]), p))
        phi = ModuleMap(F1.module, Ysum, phi_mats, check=False)
        E, _ = Ysum.quotient(phi.image_subspaces())
        middles.append(E)
    return middles


# -- the omega lattice via simples ---------------------------------------------


def _scc(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            if pi < len(adj[v]):
                work[-1] = (v, pi + 1)
                w = adj[v][pi]
                if index[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
    return comps


def successor_closed_masks(n, edges):
    """All vertex subsets closed under out-edges, via the condensation poset."""
    comps = _scc(n, edges)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    k = len(comps)
    creach = [1 << c for c in range(k)]
    cadj = [set() for _ in range(k)]
    for u, v in edges:
        if comp_of[u] != comp_of[v]:
            cadj[comp_of[u]].add(comp_of[v])
    # reachability closure over the condensation DAG
    order = list(range(k))
    changed = True
    while changed:
        changed = False
        for c in order:
            acc = creach[c]
            for d in cadj[c]:
                acc |= creach[d]
            if acc != creach[c]:
                creach[c] = acc
                changed = True
    cond = Poset([",".join(map(str, comp)) for comp in comps], creach, _checked=True)
    comp_mask = [sum(1 << v for v in comp) for comp in comps]
    out = []
    for ideal in iter_ideal_masks(cond.opposite()):
        vm = 0
        for c in bits(ideal):
            vm |= comp_mask[c]
        out.append(vm)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def omega_lattice_from_digraph(n, edges, labels=None):
    """Lattice of successor-closed vertex subsets ordered by inclusion."""
    masks = successor_closed_masks(n, edges)
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    lab = ["{" + ",".join(labels[v] for v in bits(m)) + "}" for m in masks]
    L = FinLattice.from_sets(masks, lab)
    assert joins_are_unions(L, masks)
    return L


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
        TL = enumerate_torsion_pairs(A, dim_bound=dim_bound)
        omega_idx = [i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, 1)]
        sub = {i: k for k, i in enumerate(omega_idx)}
        # the omega pairs must be closed under the ambient meet and join
        for a in omega_idx:
            for b in omega_idx:
                if TL.meet[a, b] not in sub or TL.join[a, b] not in sub:
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


def torsion_lattice_report(TL, predicates=True):
    """JSON-ready description of a torsion lattice with predicate annotations."""
    ctx = TL.context
    names = ctx.names()
    classes = []
    for pr in TL.pairs:
        entry = {
            "tors": [[i, list(ctx.indecs[i].dims)] for i in bits(pr.tors_mask)],
            "free": [[i, list(ctx.indecs[i].dims)] for i in bits(pr.free_mask)],
            "tors_names": [names[i] for i in bits(pr.tors_mask)],
        }
        if predicates:
            entry.update(
                {
                    "omega1": is_omega_n(pr, 1),
                    "omega2": is_omega_n(pr, 2),
                    "hereditary": is_hereditary(pr),
                    "cohereditary": is_cohereditary(pr),
                    "split": is_split(pr),
                }
            )
        classes.append(entry)
    return {
        "field": ctx.algebra.p,
        "size": TL.n,
        "classes": classes,
        "hasse": [[a, b] for a, b in TL.cover_pairs()],
        "leq": [[i, j] for i in range(TL.n) for j in bits(TL.up[i])],
    }


def torsion_lattice_to_dot(TL, name="torsion"):
    rep = torsion_lattice_report(TL)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, entry in enumerate(rep["classes"]):
        flags = "".join(
            tag
            for tag, on in [
                ("w", entry["omega1"]),
                ("v", entry["omega2"]),
                ("h", entry["hereditary"]),
                ("c", entry["cohereditary"]),
                ("s", entry["split"]),
            ]
            if on
        )
        label = "{" + ",".join(entry["tors_names"]) + "}" + (f" [{flags}]" if flags else "")
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in rep["hasse"]:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
