"""Reference routes that the fast code is checked against.

``RrefTorsion`` computes torsion classes the way the package did before it
enumerated semibricks: a trace is row-reduced from the stacked images of a
Hom basis for every new mask, the closure alternates that generation test
with the extension test over freshly identified submodule/quotient types,
and the classes are found by breadth-first joins from the principal ones.
It also keeps the routes the package used before it read everything off
the Hom table: the canonical sequence 0 -> tX -> X -> X/tX -> 0 of each
class, and the hereditary, cohereditary and Serre tests over the types of
all submodules and quotients.  It shares no trace, submodule or closure
code with ``ModuleContext``; it uses only ``hom``,
``Module.all_submodules``/``sub``/``quotient`` and the context's
``identify_mask``.  ``extension_middles`` builds the middle term of every
nonzero class in Ext^1(X, Y), for the audit that torsion classes are closed
under extensions.  ``ext_via_injectives`` computes Ext from an injective
coresolution of the second argument rather than a projective resolution of
the first.
``ext_quiver_via_radicals`` reads the Ext quiver off the radicals of the
projective modules, where the package reads it off J/J^2 in the
multiplication table.

``orbit_indecomposables`` lists the indecomposables the way the package did
before it knitted the Auslander-Reiten quiver: per dimension vector up to a
bound, an orbit search over the base-change groups GL_d(F_p), keeping the
representatives that pass the Fitting test ``is_indecomposable``.  Its cost
grows like p^(d^2), so it is capped, and its list is complete only up to
the bound.

``search_isomorphism`` finds an isomorphism by trying every element of a
Hom basis's span, the way the package did before it matched indecomposable
summands; ``has_splitter`` tries every endomorphism for a Fitting split,
and ``is_indecomposable`` is its negation behind two cheap filters.  They
are exponential in the Hom dimension and share no code with the local-ring
certificate the package decides indecomposability with.

The lattice oracles compute congruences on partitions, not on the D*
order of the join-irreducibles the package reads them from:
``principal_congruence`` is a union-find fixpoint over meets and joins,
``congruence_join`` the transitive closure of two partitions, and
``brute_force_congruences`` filters every set partition of a small lattice.
The ``cover_pair_*`` routes build the congruences, the congruence lattice,
the forcing poset and congruence uniformity from the principal congruences
of the cover pairs.  ``sweep_is_distributive`` and
``sweep_is_semidistributive`` test the laws on every triple of the dense
meet and join tables.

``check_joins_are_unions`` and ``check_meets_are_intersections`` check a
family of sets pair by pair, the n^2/2 passes that the ring-of-sets
certificate of ``FinLattice.from_ring`` replaces; ``pairwise_from_sets``
builds a lattice of sets behind the pairwise meet pass, as
``FinLattice.from_sets`` did before it checked meets against the members
that are not the intersection of their upper covers.
``rotation_closure_tamari`` builds the Tamari lattice as the transitive
closure of its rotations, with ``rotations`` of its own.
``is_partial_order`` checks the three axioms pair by pair and triple by
triple.  ``join_lift_isomorphic`` lifts each order isomorphism of the
join-irreducibles through |J| joins per element, as ``lattice_isomorphic``
did before it looked each element up by signature.
``typeA_fixed_point_classes`` closes each set of type-A intervals
(``typeA_intervals``, in lexicographic order) by rescanning every rule
until nothing changes, a route independent of the prefix-run vectors that
``typeA_torsion_classes`` enumerates.

Nothing here imports a private name of ``torscat``.
"""

import functools
import itertools
import math
import operator

import numpy as np

from torscat.algebra import (
    EndTooLarge,
    Module,
    ModuleMap,
    ext1_space,
    ext,
    extension_middle,
    hom,
    hom_dim,
)
from torscat.catalan import binary_trees, tree_to_parens
from torscat.lattice import Congruence, FinLattice, LimitExceeded, NotALattice, VerificationFailed, all_congruences
from torscat.linalg import Matrix, Subspace, solve
from torscat.poset import Poset, bits, poset_isos, transitive_closure


def as_array(m):
    """A Matrix as an int64 array of its shape."""
    return np.array(m.a, dtype=np.int64).reshape(m.shape)


def from_array(arr, p):
    """A 2-d integer array as a Matrix over F_p."""
    return Matrix(arr.tolist(), p, arr.shape[1])


class RrefTorsion:
    def __init__(self, ctx):
        self.ctx = ctx
        self._hom = {}
        self._trace = {}
        self._pairs = {}
        self._sequence = {}

    def homs(self, i, j):
        if (i, j) not in self._hom:
            self._hom[i, j] = hom(self.ctx.indecs[i], self.ctx.indecs[j])
        return self._hom[i, j]

    def _relevant(self, j, mask):
        return j, sum(1 << i for i in bits(mask) if self.homs(i, j))

    def trace_subspaces(self, j, mask):
        """Per-vertex row space of the images of all maps from mask into M_j."""
        key = self._relevant(j, mask)
        relevant = key[1]
        if key not in self._trace:
            M, p = self.ctx.indecs[j], self.ctx.algebra.p
            out = []
            for v, d in enumerate(M.dims):
                rows = [as_array(f.mats[v]).T for i in bits(relevant) for f in self.homs(i, j)]
                out.append(Subspace.from_rows(np.vstack(rows), d, p) if rows else Subspace.zero(d, p))
            self._trace[key] = tuple(out)
        return self._trace[key]

    def generated(self, j, mask):
        return all(sp.dim == d for sp, d in zip(self.trace_subspaces(j, mask), self.ctx.indecs[j].dims))

    def canonical_sequence(self, j, mask):
        """(types of tX, types of X/tX) for X = M_j, with tX the trace of mask."""
        key = self._relevant(j, mask)
        if key not in self._sequence:
            X, ident, tr = self.ctx.indecs[j], self.ctx.identify_mask, self.trace_subspaces(j, mask)
            self._sequence[key] = ident(X.sub(tr)[0]), ident(X.quotient(tr)[0])
        return self._sequence[key]

    def subquot_pairs(self, j):
        if j not in self._pairs:
            X, ident = self.ctx.indecs[j], self.ctx.identify_mask
            self._pairs[j] = {(ident(X.sub(s)[0]), ident(X.quotient(s)[0])) for s in X.all_submodules()}
        return self._pairs[j]

    def sub_types(self, j):
        return functools.reduce(operator.or_, (mu for mu, _ in self.subquot_pairs(j)))

    def quot_types(self, j):
        return functools.reduce(operator.or_, (mq for _, mq in self.subquot_pairs(j)))

    def is_hereditary(self, pair):
        """The torsion class is closed under submodules."""
        return all(self.sub_types(i) & ~pair.tors_mask == 0 for i in bits(pair.tors_mask))

    def is_cohereditary(self, pair):
        """The free class is closed under quotients."""
        return all(self.quot_types(j) & ~pair.free_mask == 0 for j in bits(pair.free_mask))

    def is_serre(self, mask):
        """Closed under submodules, quotients and extensions."""
        if any((self.sub_types(i) | self.quot_types(i)) & ~mask for i in bits(mask)):
            return False
        return not any(
            mu and mq and mu & ~mask == 0 and mq & ~mask == 0
            for j in bits(self.ctx.all_mask & ~mask)
            for mu, mq in self.subquot_pairs(j)
        )

    def closure(self, mask):
        cur = mask
        while True:
            new = cur
            for j in range(self.ctx.k):
                if (new >> j) & 1:
                    continue
                if self.generated(j, new) or any(
                    mu & ~new == 0 and mq & ~new == 0 for mu, mq in self.subquot_pairs(j)
                ):
                    new |= 1 << j
            if new == cur:
                return cur
            cur = new

    def classes(self):
        """Every torsion class reached by joins from the principal classes."""
        principal = [self.closure(1 << i) for i in range(self.ctx.k)]
        found = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for i in bits(self.ctx.all_mask & ~cur):
                j = self.closure(cur | principal[i])
                if j not in found:
                    found.add(j)
                    frontier.append(j)
        return found


def extension_middles(X, Y):
    """Middle terms of all nonzero classes in Ext^1(X, Y), built from cocycles.

    Each class is a nonzero combination of coset representatives of the
    cocycles modulo the boundaries (``ext1_space``); ``extension_middle``
    builds its pushout.
    """
    cocycles, boundaries = ext1_space(X, Y)
    p = X.algebra.p
    reps = []
    span = boundaries
    for row in cocycles.basis:
        if not span.contains_vector(row):
            reps.append(np.array(row, dtype=np.int64))
            span = span + Subspace.from_rows([row], cocycles.ambient, p)
    return [
        extension_middle(X, Y, sum(c * row for c, row in zip(coeffs, reps)) % p)
        for coeffs in itertools.product(range(p), repeat=len(reps))
        if any(coeffs)
    ]


def ext_via_injectives(M, N, n):
    """dim Ext^n(M, N) from an injective coresolution of N: by duality it is
    dim Ext^n(DN, DM) over the opposite algebra."""
    return ext(N.dual(), M.dual(), n)


def ext_quiver_via_radicals(A):
    """The Ext quiver the way ``Algebra.ext_quiver`` read it before it used
    J/J^2: rad P_u built as a submodule of the projective P_u, and the
    dimension of its top at each vertex v, dim rad P_u - dim rad^2 P_u."""
    out = []
    for u in range(A.n_vertices):
        P = A.projective(u)
        radP, _ = P.sub(P.radical())
        rad2 = radP.radical()
        for v in range(A.n_vertices):
            m = radP.dims[v] - rad2[v].dim
            if m:
                out.append((u, v, m))
    return out


# -- indecomposables by orbit search ---------------------------------------------


def _all_mats(rows, cols, p):
    """All rows x cols matrices over F_p as uint8 arrays, indexed row-major base p."""
    count = p ** (rows * cols)
    out = []
    for enc in range(count):
        digits = []
        x = enc
        for _ in range(rows * cols):
            digits.append(x % p)
            x //= p
        out.append(np.array(digits, dtype=np.uint8).reshape(rows, cols))
    return out


def _gl_order(d, p):
    """|GL_d(F_p)| = prod_{i<d} (p^d - p^i), known before any table is built."""
    return math.prod(p**d - p**i for i in range(d))


def _gl_data(d, p):
    """(indices of invertible matrices, inverse-index array) for d x d over F_p."""
    mats = _all_mats(d, d, p)
    gl = [enc for enc, m in enumerate(mats) if from_array(m, p).rank() == d]
    pos = {enc: i for i, enc in enumerate(gl)}
    eye = Matrix.identity(d, p)
    inv_idx = [pos[_encode(as_array(solve(from_array(mats[enc], p), eye)), p)] for enc in gl]
    return gl, np.array(inv_idx, dtype=np.int32), mats


def _encode(mat, p):
    flat = mat.reshape(-1)
    enc = 0
    for x in reversed(flat.tolist()):
        enc = enc * p + int(x)
    return enc


ORBIT_TABLE_CAP = 4_000_000  # entries of one int32 action table, 16 MB


class _OrbitTables:
    """Cached GL lists and action tables g_v * C * g_u^{-1} per (d_v, d_u)."""

    def __init__(self, p):
        self.p = p
        self.gl = {}
        self.act = {}

    def gl_of(self, d):
        if d not in self.gl:
            self.gl[d] = _gl_data(d, self.p)
        return self.gl[d]

    def act_of(self, dv, du):
        key = (dv, du)
        if key not in self.act:
            glv, _, matsv = self.gl_of(dv)
            glu, _, matsu = self.gl_of(du)
            cands = _all_mats(dv, du, self.p)
            size = len(glv) * len(cands) * len(glu)
            if size > ORBIT_TABLE_CAP:
                raise LimitExceeded(
                    f"orbit table of {size} entries exceeds the cap of {ORBIT_TABLE_CAP}; "
                    "lower the dimension bound or the field size"
                )
            # index hi plays the role of g_u^{-1}: tables are consulted with
            # the inverse index so the action is g_v C g_u^{-1}
            C = np.array(cands, dtype=np.int64)
            H = np.array([matsu[henc] for henc in glu], dtype=np.int64)
            digits = self.p ** np.arange(dv * du, dtype=np.int64)  # the base-p code of _encode
            table = np.zeros((len(glv), len(cands), len(glu)), dtype=np.int32)
            for gi, genc in enumerate(glv):
                gc = (matsv[genc].astype(np.int64) @ C) % self.p
                prod = (gc[:, None] @ H[None]) % self.p
                table[gi] = prod.reshape(len(cands), len(glu), -1) @ digits
            self.act[key] = table
        return self.act[key]


def _connected_support(dvec, adj):
    support = [v for v, d in enumerate(dvec) if d > 0]
    if not support:
        return False
    seen = {support[0]}
    stack = [support[0]]
    sup = set(support)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in sup and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == sup


def _coordinate_connected(dims, raw_mats, arrows):
    """Connectivity of the coordinate graph linked by nonzero matrix entries.

    Disconnected coordinates split the representation into a direct sum, so
    False certifies decomposability (the converse does not hold).
    """
    offs = np.cumsum([0] + list(dims))
    total = int(offs[-1])
    if total == 0:
        return False
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m, a in zip(raw_mats, arrows):
        for r, row in enumerate(m):
            for c in (c for c, x in enumerate(row) if x):
                ra, rb = find(int(offs[a.tgt]) + r), find(int(offs[a.src]) + c)
                if ra != rb:
                    parent[rb] = ra
    root = find(0)
    return all(find(x) == root for x in range(total))


def is_indecomposable(M):
    """Fitting's test: M is indecomposable iff it is nonzero and no endomorphism splits it."""
    if M.is_zero():
        return False
    if M.total_dim == 1:
        return True
    if not _coordinate_connected(M.dims, [m.a for m in M.mats], M.algebra.arrows):
        return False
    return not has_splitter(M)


def orbit_indecomposables(A, dim_bound=2, group_cap=2_000_000):
    """All indecomposable modules with per-vertex dimension <= dim_bound.

    Per dimension vector, representation tuples are enumerated one arrow at
    a time up to simultaneous base change: candidates for each arrow are
    reduced to orbit representatives under the stabiliser of the partial
    assignment, so each isomorphism class appears exactly once; the
    indecomposable ones are kept (Fitting test).
    """
    p = A.p
    nv = A.n_vertices
    tables = _OrbitTables(p)
    adj = [set() for _ in range(nv)]
    for a in A.arrows:
        adj[a.src].add(a.tgt)
        adj[a.tgt].add(a.src)

    found = []
    for dvec in itertools.product(range(dim_bound + 1), repeat=nv):
        if not _connected_support(dvec, adj):
            continue
        found.extend(_indecs_for_dimvec(A, dvec, tables, group_cap))
    found.sort(key=lambda m: (m.total_dim, m.dims, m.key()))
    return found


def _indecs_for_dimvec(A, dvec, tables, group_cap):
    p = A.p
    nv = A.n_vertices
    arrows = list(enumerate(A.arrows))
    # big matrix spaces first: stabilisers shrink fastest
    arrows.sort(key=lambda ia: (-(dvec[ia[1].src] * dvec[ia[1].tgt]), ia[0]))
    order = [ia[0] for ia in arrows]

    # relations become checkable once all their arrows are placed
    place_of = {ai: pos for pos, ai in enumerate(order)}
    rel_ready = [[] for _ in range(len(order) + 1)]
    for rel in A.relations:
        used = {ai for _, path in rel for ai in path}
        live = {ai for ai in used if dvec[A.arrows[ai].src] and dvec[A.arrows[ai].tgt]}
        when = max((place_of[ai] + 1 for ai in live), default=0)
        rel_ready[when].append(rel)

    gl_sizes = [_gl_order(d, p) for d in dvec]
    total = math.prod(gl_sizes)
    if total > group_cap:
        raise LimitExceeded(
            f"base-change group of size {total} exceeds the search cap of {group_cap}; "
            "lower the dimension bound or the field size"
        )
    grid = np.indices(gl_sizes).reshape(nv, -1).T.astype(np.int32)  # (|G|, nv)

    all_mats_cache = {}

    def mats_for(dv, du):
        if (dv, du) not in all_mats_cache:
            all_mats_cache[(dv, du)] = _all_mats(dv, du, p)
        return all_mats_cache[(dv, du)]

    results = []

    def check_relations(assigned, upto):
        for rel in rel_ready[upto]:
            s = A.arrows[rel[0][1][0]].src
            t = A.arrows[rel[0][1][-1]].tgt
            acc = np.zeros((dvec[t], dvec[s]), dtype=np.int64)
            for coeff, path in rel:
                cur = np.eye(dvec[s], dtype=np.int64)
                for ai in path:
                    arr = A.arrows[ai]
                    m = assigned.get(ai)
                    if m is None:
                        m = np.zeros((dvec[arr.tgt], dvec[arr.src]), dtype=np.int64)
                    cur = (m @ cur) % p
                acc += coeff * cur
            if (acc % p).any():
                return False
        return True

    def rec(pos, assigned, H):
        if pos == len(order):
            mats = []
            for ai, a in enumerate(A.arrows):
                m = assigned.get(ai)
                if m is None:
                    m = np.zeros((dvec[a.tgt], dvec[a.src]), dtype=np.uint8)
                mats.append(from_array(m, p))
            M = Module(A, dvec, mats, check=False)
            if is_indecomposable(M):
                results.append(M)
            return
        ai = order[pos]
        a = A.arrows[ai]
        du, dv = dvec[a.src], dvec[a.tgt]
        if du == 0 or dv == 0:
            if check_relations(assigned, pos + 1):
                rec(pos + 1, assigned, H)
            return
        act = tables.act_of(dv, du)
        _, inv_u, _ = tables.gl_of(du)
        gv_col = H[:, a.tgt]
        gu_col = inv_u[H[:, a.src]]
        cands = mats_for(dv, du)
        seen = np.zeros(len(cands), dtype=bool)
        for c in range(len(cands)):
            if seen[c]:
                continue
            images = act[gv_col, c, gu_col]
            seen[np.unique(images)] = True
            assigned[ai] = cands[c].astype(np.int64)
            if check_relations(assigned, pos + 1):
                rec(pos + 1, assigned, H[images == c])
            del assigned[ai]

    rec(0, {}, grid)
    return results


# -- isomorphism and splitting by exhaustive search ------------------------------


def search_isomorphism(M, N, search_cap=4096):
    """An isomorphism M -> N, or None.

    Filters by dimension vector, then searches hom(M, N) for an invertible
    element by enumerating coefficient tuples (small spaces only).
    """
    if M.algebra is not N.algebra:
        return None
    if M.dims != N.dims:
        return None
    if M.is_zero():
        return ModuleMap(M, N, [Matrix.zeros(0, 0, M.algebra.p) for _ in M.dims], check=False)
    H = hom(M, N)
    if not H:
        return None
    p = M.algebra.p
    if hom_dim(M, M) != hom_dim(N, N) or hom_dim(N, M) != len(H):
        return None
    if p ** len(H) > search_cap:
        raise EndTooLarge(f"iso search space {p}^{len(H)} exceeds bound {search_cap}")
    nv = M.algebra.n_vertices
    for coeffs in itertools.product(range(p), repeat=len(H)):
        if not any(coeffs):
            continue
        mats = [
            from_array(sum(int(c) * as_array(h.mats[v]) for c, h in zip(coeffs, H)), p)
            for v in range(nv)
        ]
        if all(m.rank() == M.dims[v] for v, m in enumerate(mats)):
            return ModuleMap(M, N, mats, check=False)
    return None


def has_splitter(M):
    """Whether some endomorphism of M is neither nilpotent nor invertible.

    By Fitting's lemma that holds iff M is decomposable.  Every element of
    End(M) up to a scalar is tried, those with fewer nonzero coordinates in
    the Hom basis first, by the rank of its power f^dim(M).
    """
    ends, p, n = hom(M, M), M.algebra.p, M.total_dim
    for k in range(1, len(ends) + 1):
        for support in itertools.combinations(ends, k):
            for coeffs in itertools.product(range(1, p), repeat=k - 1):
                rank = 0
                for v, d in enumerate(M.dims):
                    f = sum(c * as_array(g.mats[v]) for c, g in zip((1, *coeffs), support)) % p
                    power = np.eye(d, dtype=np.int64)
                    for _ in range(n):
                        power = (power @ f) % p
                    rank += from_array(power, p).rank()
                if 0 < rank < n:
                    return True
    return False


# -- lattice congruences on partitions -------------------------------------------


def sort_key(c):
    """The order ``all_congruences`` lists congruences in: finest first."""
    return (-c.num_blocks(), c.block)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def to_congruence(self):
        first = {}
        return Congruence([first.setdefault(self.find(i), i) for i in range(len(self.parent))])


def principal_congruence(L, a, b):
    """Smallest congruence of L identifying a and b.

    Union-find fixpoint: whenever x ~ y is merged, (x^c, y^c) and
    (x v c, y v c) are merged for every c.
    """
    n = L.n
    uf = _UnionFind(n)
    queue = []
    if uf.union(a, b):
        queue.append((a, b))
    while queue:
        x, y = queue.pop()
        for op in (L.meet, L.join):
            for c in range(n):
                u, v = op(x, c), op(y, c)
                if uf.find(u) != uf.find(v):
                    uf.union(u, v)
                    queue.append((u, v))
    return uf.to_congruence()


def congruence_join(c1, c2):
    """Join in the congruence lattice = transitive closure of the union."""
    n = c1.n
    uf = _UnionFind(n)
    for i in range(n):
        uf.union(i, c1.block[i])
        uf.union(i, c2.block[i])
    return uf.to_congruence()


def _set_partitions(n):
    """Restricted-growth strings: every partition of {0..n-1} as a block-id list."""
    if n == 0:
        yield []
        return
    a = [0] * n
    while True:
        yield list(a)
        j = n - 1
        while j > 0 and a[j] > max(a[:j]):
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for k in range(j + 1, n):
            a[k] = 0


def brute_force_congruences(L):
    """Oracle: filter all set partitions for meet/join compatibility.

    Only sensible for small lattices (|L| <= 9 or so).
    """
    if L.n > 10:
        raise ValueError("brute force congruence oracle limited to |L| <= 10")
    n = L.n
    M = [[L.meet(x, c) for c in range(n)] for x in range(n)]
    J = [[L.join(x, c) for c in range(n)] for x in range(n)]
    out = []
    for rgs in _set_partitions(n):
        ok = True
        for x in range(n):
            for y in range(x + 1, n):
                if rgs[x] != rgs[y]:
                    continue
                for c in range(n):
                    if rgs[M[x][c]] != rgs[M[y][c]] or rgs[J[x][c]] != rgs[J[y][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            first = {}
            canon = []
            for i, b in enumerate(rgs):
                first.setdefault(b, i)
                canon.append(first[b])
            out.append(Congruence(canon))
    return sorted(set(out), key=sort_key)


# -- the cover-pair congruence route ---------------------------------------------

# memoised: the cover-pair routes ask for the same principal congruences
# several times, and several tests build the same lattices
_cover_principal = functools.cache(principal_congruence)


def cover_pair_all_congruences(L):
    """Every congruence of L, via join-closure of cover principal congruences."""
    principals = set()
    for a, b in L.cover_pairs():
        principals.add(_cover_principal(L, a, b))
    discrete = Congruence(range(L.n))
    found = {discrete} | principals
    frontier = list(found)
    while frontier:
        theta = frontier.pop()
        for g in principals:
            j = congruence_join(theta, g)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=sort_key)


def cover_pair_congruence_lattice(L):
    congs = cover_pair_all_congruences(L)
    k = len(congs)
    up = [0] * k
    for i, ci in enumerate(congs):
        for j, cj in enumerate(congs):
            if cj.refines(ci):
                up[i] |= 1 << j
    labels = ["|".join(",".join(map(str, blk)) for blk in c.blocks()) for c in congs]
    return FinLattice.from_order(up, labels=labels)


def cover_pair_join_irreducible_principals(L):
    """Join-irreducible congruences with a generating cover for labelling."""
    gen = {}
    for a, b in L.cover_pairs():
        c = _cover_principal(L, a, b)
        gen.setdefault(c, (a, b))
    cands = sorted(gen, key=sort_key)
    discrete = Congruence(range(L.n))
    ji = []
    for theta in cands:
        acc = discrete
        for sigma in cands:
            if sigma != theta and sigma.refines(theta):
                acc = congruence_join(acc, sigma)
        if acc != theta:
            ji.append(theta)
    return ji, gen


def cover_pair_forcing_poset(L):
    ji, gen = cover_pair_join_irreducible_principals(L)
    up = [0] * len(ji)
    for i, ci in enumerate(ji):
        for j, cj in enumerate(ji):
            if ci.refines(cj):
                up[i] |= 1 << j
    labels = ["cg({},{})".format(*gen[c]) for c in ji]
    return Poset(labels, up)


def cover_pair_is_congruence_uniform(L):
    """Both irreducible-element maps j -> cg(j*, j) biject onto JI congruences."""
    ji_congs, _ = cover_pair_join_irreducible_principals(L)
    ji_set = set(ji_congs)

    for pairs in (
        [(low, x) for x, low in L.join_irreducibles()],
        [(x, upp) for x, upp in L.meet_irreducibles()],
    ):
        images = [_cover_principal(L, a, b) for a, b in pairs]
        if len(set(images)) != len(images):
            return False
        if set(images) != ji_set:
            return False
    return True


def partition_congruence_lattice(L):
    """The congruence lattice the way ``congruence_lattice`` built it before
    it read the D*-up-sets as a ring: one partition per congruence, each
    join-irreducible j tested against its lower cover j_*, the apart sets
    certified by ``FinLattice.from_sets`` and the labels read off the
    partitions' blocks."""
    congs = sorted(all_congruences(L), key=sort_key)
    ji = L.join_irreducibles()
    apart = [sum(1 << t for t, (j, low) in enumerate(ji) if not c.collapses(j, low)) for c in congs]
    labels = ["|".join(",".join(map(str, blk)) for blk in c.blocks()) for c in congs]
    return FinLattice.from_sets(apart, labels)


# -- lattice predicates by sweeps over the tables --------------------------------


def tables(L):
    """Dense meet and join tables of L, read off its methods, for the sweep oracles."""
    meet = np.array([[L.meet(a, b) for b in range(L.n)] for a in range(L.n)], dtype=np.int32)
    join = np.array([[L.join(a, b) for b in range(L.n)] for a in range(L.n)], dtype=np.int32)
    return meet, join


def sweep_is_distributive(L):
    """Oracle: a ^ (b v c) == (a ^ b) v (a ^ c) over every triple of the tables."""
    M, J = tables(L)
    for a in range(L.n):
        lhs = M[a][J]
        ma = M[a]
        rhs = J[ma[:, None], ma[None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def sweep_is_semidistributive(L):
    """Oracle: a v b == a v c implies a v (b ^ c) == a v b, and dually, over every triple."""
    M, J = tables(L)
    for a in range(L.n):
        ja = J[a]
        eq = ja[:, None] == ja[None, :]
        if not (~eq | (ja[M] == ja[:, None])).all():
            return False
        ma = M[a]
        eq = ma[:, None] == ma[None, :]
        if not (~eq | (ma[J] == ma[:, None])).all():
            return False
    return True


# -- rings of sets by pairwise passes ---------------------------------------------


def check_joins_are_unions(L, masks):
    """Raise VerificationFailed unless every join in L, built from masks, is
    the union of its operands: the family is closed under union, so the
    least member above a union is the union."""
    members = set(masks)
    for a, ma in enumerate(masks):
        if not members >= {ma | mb for mb in masks[a + 1 :]}:
            b = next(b for b in range(a + 1, len(masks)) if ma | masks[b] not in members)
            raise VerificationFailed("join is not the union", {"a": L.labels[a], "b": L.labels[b]})


def check_meets_are_intersections(L, masks):
    """Raise VerificationFailed unless every meet in L, built from masks, is
    the intersection of its operands: the family is closed under
    intersection, so the greatest member below an intersection is the
    intersection."""
    members = set(masks)
    for a, ma in enumerate(masks):
        if not members >= {ma & mb for mb in masks[a + 1 :]}:
            b = next(b for b in range(a + 1, len(masks)) if ma & masks[b] not in members)
            raise VerificationFailed("meet is not the intersection", {"a": L.labels[a], "b": L.labels[b]})


def pairwise_from_sets(masks, labels):
    """The lattice of a family of sets ordered by inclusion, as
    ``FinLattice.from_sets`` built it before its meet certificate: the
    n^2/2 pairwise intersections first (NotALattice "meet" at the first
    pair whose intersection is missing), then one maximal member (else
    NotALattice "join"), and the inclusion order pair by pair."""
    masks = [int(m) for m in masks]
    if not masks:
        raise NotALattice(None, None, "bottom (empty order)")
    members = set(masks)
    if len(members) != len(masks):
        raise ValueError("the sets of a lattice must be distinct")
    for a, ma in enumerate(masks):
        for b in range(a + 1, len(masks)):
            if ma & masks[b] not in members:
                raise NotALattice(labels[a], labels[b], "meet")
    up = [sum(1 << b for b, mb in enumerate(masks) if ma & ~mb == 0) for ma in masks]
    tops = [i for i, u in enumerate(up) if u == 1 << i]
    if len(tops) > 1:
        raise NotALattice(labels[tops[0]], labels[tops[1]], "join")
    return FinLattice(labels, up)


# -- the Tamari lattice by rotation closure --------------------------------------------


def rotations(t):
    """The trees one rotation ((A, B), C) -> (A, (B, C)) above t, at any node."""
    if t is None:
        return []
    l, r = t
    out = [(l[0], (l[1], r))] if l is not None else []
    return out + [(x, r) for x in rotations(l)] + [(l, x) for x in rotations(r)]


def rotation_closure_tamari(n):
    """The Tamari lattice on ``binary_trees(n)`` sorted by ``tree_to_parens``,
    as ``tamari_lattice`` built it before bracket vectors: the transitive
    closure of the rotations, handed to ``FinLattice.from_order``."""
    trees = sorted(binary_trees(n), key=tree_to_parens)
    index = {t: i for i, t in enumerate(trees)}
    up = transitive_closure([sum(1 << index[x] for x in rotations(t)) for t in trees])
    return FinLattice.from_order(up, [tree_to_parens(t) for t in trees])


# -- partial orders by definition ---------------------------------------------------


def is_partial_order(n, up):
    """Whether the relation on range(n) with up-set rows ``up`` (bit j of up[i]
    set iff i <= j) is reflexive, antisymmetric and transitive."""
    leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
    return (
        all(leq[i][i] for i in range(n))
        and not any(leq[i][j] and leq[j][i] for i in range(n) for j in range(n) if i != j)
        and all(leq[i][k] for i in range(n) for j in range(n) for k in range(n) if leq[i][j] and leq[j][k])
    )


# -- lattice isomorphisms lifted by joins -------------------------------------------


def join_lift_isomorphic(L, M):
    """A lattice isomorphism L -> M as a list, or None, found the way
    ``lattice_isomorphic`` did before it lifted by signature.

    Restricts both orders to the join-irreducibles by |J|^2 ``leq`` calls,
    searches order isomorphisms between them, and lifts each through |J|
    joins per element, x to the join of the images of the join-irreducibles
    below x; a lift is kept when it is a bijection mapping the covers of L
    exactly onto the covers of M.
    """
    if L.n != M.n:
        return None
    if L.n == 1:
        return [0]
    jiL = [x for x, _ in L.join_irreducibles()]
    jiM = [x for x, _ in M.join_irreducibles()]
    if len(jiL) != len(jiM):
        return None

    def restrict(lat, elems):
        pos = {e: k for k, e in enumerate(elems)}
        up = []
        for e in elems:
            m = 0
            for f in elems:
                if lat.leq(e, f):
                    m |= 1 << pos[f]
            up.append(m)
        return Poset([lat.labels[e] for e in elems], up)

    PL, PM = restrict(L, jiL), restrict(M, jiM)
    dnL, covL, covM = L.down(), L.covers(), M.covers()
    bottom = M.bottom()
    for phi in poset_isos(PL, PM):
        img = [0] * L.n
        ok = True
        seen = set()
        for x in range(L.n):
            y = bottom
            for k, j in enumerate(jiL):
                if (dnL[x] >> j) & 1:
                    y = M.join(y, jiM[phi[k]])
            if y in seen:
                ok = False
                break
            seen.add(y)
            img[x] = y
        if ok and all(sum(1 << img[y] for y in bits(covL[x])) == covM[img[x]] for x in range(L.n)):
            return img
    return None


# -- symbolic type-A torsion classes by fixed-point closure -----------------------


def typeA_intervals(n):
    """The intervals [i,j], 1 <= i <= j <= n, in lexicographic order: the
    bits of a symbolic type-A class."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def typeA_fixed_point_classes(n):
    """The symbolic type-A torsion classes as ``typeA_torsion_classes``
    lists them, each closure a fixed-point iteration that rescans every
    interval and every extension rule until nothing changes."""
    ivs = typeA_intervals(n)
    idx = {iv: k for k, iv in enumerate(ivs)}
    k = len(ivs)
    quot_mask = [sum(1 << idx[(i, kk)] for kk in range(i, j + 1)) for (i, j) in ivs]
    ext_rule = [(idx[(i, j)], idx[(j + 1, l)], idx[(i, l)]) for (i, j) in ivs for l in range(j + 1, n + 1)]

    def closure(mask):
        while True:
            new = mask
            for t in range(k):
                if (new >> t) & 1:
                    new |= quot_mask[t]
            for a, b, c in ext_rule:
                if (new >> a) & 1 and (new >> b) & 1:
                    new |= 1 << c
            if new == mask:
                return mask
            mask = new

    gens = [closure(1 << t) for t in range(k)]
    found = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            j = closure(cur | g)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda m: (bin(m).count("1"), m))
