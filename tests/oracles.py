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
``identify_mask``.

``orbit_indecomposables`` lists the indecomposables the way the package did
before it knitted the Auslander-Reiten quiver: per dimension vector up to a
bound, an orbit search over the base-change groups GL_d(F_p), keeping the
representatives that pass the Fitting test.  Its cost grows like p^(d^2),
so it is capped, and its list is complete only up to the bound.

``search_isomorphism`` finds an isomorphism by trying every element of a
Hom basis's span, the way the package did before it matched indecomposable
summands; ``has_splitter`` tries every endomorphism for a Fitting split.
Both are exponential in the Hom dimension and share no code with the
local-ring certificate the package decides indecomposability with.
"""

import functools
import itertools
import math
import operator

import numpy as np

from torscat.algebra import EndTooLarge, LimitExceeded, Module, ModuleMap, hom, hom_dim, is_indecomposable
from torscat.linalg import Matrix, Subspace, solve
from torscat.poset import bits


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
                rows = [f.mats[v].a.T for i in bits(relevant) for f in self.homs(i, j)]
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
    gl = [enc for enc, m in enumerate(mats) if Matrix(m, p).rank() == d]
    pos = {enc: i for i, enc in enumerate(gl)}
    eye = Matrix.identity(d, p)
    inv_idx = [pos[_encode(solve(Matrix(mats[enc], p), eye).a, p)] for enc in gl]
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
                mats.append(Matrix(m, p))
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
            Matrix(sum(int(c) * h.mats[v].a.astype(np.int64) for c, h in zip(coeffs, H)) % p, p)
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
                    f = sum(c * g.mats[v].a.astype(np.int64) for c, g in zip((1, *coeffs), support)) % p
                    power = np.eye(d, dtype=np.int64)
                    for _ in range(n):
                        power = (power @ f) % p
                    rank += Matrix(power, p).rank()
                if 0 < rank < n:
                    return True
    return False
