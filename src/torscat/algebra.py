"""Finite-dimensional algebras presented by quivers with relations over F_p.

An Algebra carries an explicit basis with a full multiplication table, so
modules, Hom spaces, projective covers, (co)syzygies, Ext groups and
Krull-Schmidt decompositions are all exact finite linear algebra.

Conventions
-----------
Paths compose left to right: the path (a, b) means "a then b", and it is
nonzero only when tgt(a) = src(b).  Modules are representations with one
matrix per arrow in column-vector convention, so the matrix of an arrow
u -> v has shape (dim_v, dim_u), and the action of a path (a1, ..., ak) is
``mats[ak] @ ... @ mats[a1]``.  These are the right modules of the algebra:
the projective at v has basis the algebra elements starting at v.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple

import numpy as np

from .linalg import Matrix, NoSolution, Subspace, solve
from .poset import Poset, bits

__all__ = [
    "AlgebraError",
    "ZeroModule",
    "LimitExceeded",
    "EndTooLarge",
    "AtLeast",
    "Arrow",
    "Algebra",
    "Module",
    "ModuleMap",
    "Resolution",
    "incidence_algebra",
    "two_cycle_algebra",
    "path_algebra_An",
    "hom",
    "hom_dim",
    "projective_cover",
    "injective_envelope",
    "syzygy",
    "cosyzygy",
    "min_resolution",
    "ext",
    "ext_via_injectives",
    "decompose",
    "modules_isomorphic",
    "indecomposables",
    "global_dimension",
]


class AlgebraError(Exception):
    pass


class ZeroModule(AlgebraError):
    pass


class LimitExceeded(AlgebraError):
    """A search or table cap was hit; the input itself is well formed."""


class EndTooLarge(LimitExceeded):
    pass


class AtLeast:
    """Lower-bound result of a probe-limited computation."""

    __slots__ = ("bound",)

    def __init__(self, bound):
        object.__setattr__(self, "bound", int(bound))

    def __setattr__(self, name, value):
        raise AttributeError("AtLeast is immutable")

    def __eq__(self, other):
        return isinstance(other, AtLeast) and self.bound == other.bound

    def __hash__(self):
        return hash(("AtLeast", self.bound))

    def __repr__(self):
        return f"AtLeast({self.bound})"


Arrow = namedtuple("Arrow", ["name", "src", "tgt"])


def _normalize_relations(relations, arrows):
    """Relations as lists of (coeff, arrow-index tuple); validates admissibility."""
    by_name = {a.name: i for i, a in enumerate(arrows)}
    out = []
    for rel in relations:
        terms = []
        for coeff, path in rel:
            path = tuple(by_name[x] if isinstance(x, str) else int(x) for x in path)
            if len(path) < 2:
                raise AlgebraError("relations must involve paths of length >= 2")
            for x, y in zip(path, path[1:]):
                if arrows[x].tgt != arrows[y].src:
                    raise AlgebraError(f"path {path} is not composable")
            terms.append((int(coeff), path))
        srcs = {arrows[path[0]].src for _, path in terms}
        tgts = {arrows[path[-1]].tgt for _, path in terms}
        if len(srcs) != 1 or len(tgts) != 1:
            raise AlgebraError("relation terms must be parallel paths")
        out.append(tuple(terms))
    return tuple(out)


class Algebra:
    __slots__ = (
        "p",
        "vlabels",
        "arrows",
        "relations",
        "src",
        "tgt",
        "paths",
        "blabels",
        "mult",
        "e_idx",
        "arrow_idx",
        "_cache",
    )

    def __init__(self, p, vlabels, arrows, relations, src, tgt, paths, blabels, mult, e_idx, arrow_idx):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "vlabels", tuple(vlabels))
        object.__setattr__(self, "arrows", tuple(arrows))
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "src", tuple(src))
        object.__setattr__(self, "tgt", tuple(tgt))
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "blabels", tuple(blabels))
        mult = np.asarray(mult, dtype=np.uint8)
        mult.setflags(write=False)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "e_idx", tuple(e_idx))
        object.__setattr__(self, "arrow_idx", tuple(arrow_idx))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    @property
    def n_vertices(self):
        return len(self.vlabels)

    @property
    def dim(self):
        return len(self.src)

    def basis_at(self, v):
        """Basis indices of elements starting at vertex v (ascending)."""
        return [k for k in range(self.dim) if self.src[k] == v]

    def __repr__(self):
        return f"Algebra(dim={self.dim}, vertices={self.n_vertices}, p={self.p})"

    # -- construction --------------------------------------------------------

    @classmethod
    def from_quiver(cls, vertex_labels, arrow_defs, relations, p=2, max_path_cap=20):
        """Quotient of the path algebra by the admissible ideal the relations generate.

        The basis is computed by truncating at increasing path lengths until
        the dimension stabilises: once the dimension at cutoff N equals the
        one at N+1, rad^N = 0 and the quotient is exact.  Raises when the
        quotient is not finite-dimensional within ``max_path_cap``.
        """
        vlabels = [str(x) for x in vertex_labels]
        nv = len(vlabels)
        arrows = []
        for name, s, t in arrow_defs:
            s, t = int(s), int(t)
            if not (0 <= s < nv and 0 <= t < nv):
                raise AlgebraError("arrow endpoint out of range")
            arrows.append(Arrow(str(name), s, t))
        if len({a.name for a in arrows}) != len(arrows):
            raise AlgebraError("arrow names must be distinct")
        rels = _normalize_relations(relations, arrows)

        out_arrows = [[] for _ in range(nv)]
        for i, a in enumerate(arrows):
            out_arrows[a.src].append(i)

        def paths_up_to(maxlen):
            # (arrow tuple, src, tgt), by increasing length
            level = [((), v, v) for v in range(nv)]
            allp = list(level)
            for _ in range(maxlen):
                nxt = []
                for pth, s, t in level:
                    for ai in out_arrows[t]:
                        nxt.append((pth + (ai,), s, arrows[ai].tgt))
                allp.extend(nxt)
                level = nxt
                if len(allp) > 500_000:
                    raise AlgebraError("path explosion; algebra not finite-dimensional?")
            return allp

        def quotient_at(N):
            # a path is keyed by (source vertex, arrow tuple): the trivial
            # paths at distinct vertices share the empty tuple
            plist = paths_up_to(N - 1)
            order = sorted(range(len(plist)), key=lambda i: (-len(plist[i][0]), plist[i][0]))
            col_of = {(plist[i][1], plist[i][0]): c for c, i in enumerate(order)}
            cols = len(plist)
            by_tgt = {}
            by_src = {}
            for pth, s, t in plist:
                by_tgt.setdefault(t, []).append((pth, s))
                by_src.setdefault(s, []).append((pth, t))
            gens = []
            for rel in rels:
                minlen = min(len(path) for _, path in rel)
                rsrc = arrows[rel[0][1][0]].src
                rtgt = arrows[rel[0][1][-1]].tgt
                for p1, p1src in by_tgt.get(rsrc, []):
                    for p2, _ in by_src.get(rtgt, []):
                        if len(p1) + minlen + len(p2) > N - 1:
                            continue
                        vec = np.zeros(cols, dtype=np.int64)
                        nonzero = False
                        for coeff, path in rel:
                            full = p1 + path + p2
                            if len(full) <= N - 1:
                                vec[col_of[(p1src, full)]] += coeff
                                nonzero = True
                        if nonzero and (vec % p).any():
                            gens.append(vec % p)
            if gens:
                R, rank = Matrix(np.array(gens), p).rref()
                rr = R.a[:rank]
                pivots = []
                for row in rr:
                    pivots.append(int(np.nonzero(row)[0][0]))
            else:
                rr = np.zeros((0, cols), dtype=np.uint8)
                pivots = []
            pivset = set(pivots)
            basis_cols = [c for c in range(cols) if c not in pivset]
            return plist, order, col_of, rr, pivots, basis_cols

        N = max([2] + [len(path) for rel in rels for _, path in rel])
        prev = None
        while True:
            info = quotient_at(N)
            dim_now = len(info[5])
            if prev is not None and prev == dim_now:
                break
            if N > max_path_cap:
                raise AlgebraError(
                    f"dimension did not stabilise below path length {max_path_cap}; "
                    "the relations do not define a finite-dimensional algebra"
                )
            prev_info, prev = info, dim_now
            N += 1
        # use the stabilised cutoff (N-1): paths of length >= N-1 are zero
        plist, order, col_of, rr, pivots, basis_cols = prev_info
        N -= 1

        col_to_path = [None] * len(plist)
        for c, i in enumerate(order):
            col_to_path[c] = plist[i]
        # final basis ordering: by (length, arrow tuple, source)
        basis_cols.sort(key=lambda c: (len(col_to_path[c][0]), col_to_path[c][0], col_to_path[c][1]))
        bpaths = [col_to_path[c][0] for c in basis_cols]
        bsrc = [col_to_path[c][1] for c in basis_cols]
        btgt = [col_to_path[c][2] for c in basis_cols]
        bpos = {(s, pth): i for i, (pth, s) in enumerate(zip(bpaths, bsrc))}
        d = len(bpaths)

        # normal form of every path of length <= N-1 as a vector over the basis
        piv_row = {c: r for r, c in enumerate(pivots)}
        nf = {}
        for c, (pth, s, t) in enumerate(col_to_path):
            vec = np.zeros(d, dtype=np.uint8)
            if c in piv_row:
                row = rr[piv_row[c]]
                for cc in np.nonzero(row)[0]:
                    cc = int(cc)
                    if cc == c:
                        continue
                    p2, s2, _ = col_to_path[cc]
                    vec[bpos[(s2, p2)]] = (p - int(row[cc])) % p
            else:
                vec[bpos[(s, pth)]] = 1
            nf[(s, pth)] = vec

        mult = np.zeros((d, d, d), dtype=np.uint8)
        for i in range(d):
            for j in range(d):
                if btgt[i] != bsrc[j]:
                    continue
                full = bpaths[i] + bpaths[j]
                if len(full) <= N - 1:
                    mult[i, j] = nf[(bsrc[i], full)]
        e_idx = []
        for v in range(nv):
            matches = [k for k in range(d) if bpaths[k] == () and bsrc[k] == v]
            if len(matches) != 1:
                raise AlgebraError("vertex idempotent missing from basis")
            e_idx.append(matches[0])
        arrow_idx = []
        for ai in range(len(arrows)):
            key = (arrows[ai].src, (ai,))
            if key not in bpos:
                raise AlgebraError(f"arrow {arrows[ai].name} vanishes; ideal not admissible")
            arrow_idx.append(bpos[key])
        blabels = []
        for k in range(d):
            if not bpaths[k]:
                blabels.append(f"e_{vlabels[bsrc[k]]}")
            else:
                blabels.append("*".join(arrows[ai].name for ai in bpaths[k]))
        A = cls(p, vlabels, arrows, rels, bsrc, btgt, bpaths, blabels, mult, e_idx, arrow_idx)
        A.validate()
        return A

    def validate(self):
        """Associativity and unit checks on the multiplication table."""
        d, p = self.dim, self.p
        mult = self.mult.astype(np.int64)
        if d <= 48:
            lhs = np.tensordot(mult, mult, axes=([2], [0])) % p  # (i,j,k,m)
            rhs = np.tensordot(mult, mult, axes=([2], [1])).transpose(2, 0, 1, 3) % p
            if not np.array_equal(lhs, rhs):
                raise AlgebraError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            for _ in range(20000):
                i, j, k = rng.integers(0, d, size=3)
                ij = mult[i, j]
                jk = mult[j, k]
                l = (ij @ mult[:, k, :]) % p
                r = (jk @ mult[i]) % p
                if not np.array_equal(l, r):
                    raise AlgebraError("multiplication table is not associative")
        for k in range(d):
            ev = self.e_idx[self.src[k]]
            ew = self.e_idx[self.tgt[k]]
            unit = np.zeros(d, dtype=np.uint8)
            unit[k] = 1
            if not np.array_equal(self.mult[ev, k], unit) or not np.array_equal(self.mult[k, ew], unit):
                raise AlgebraError("vertex idempotents do not act as units")

    # -- distinguished modules ----------------------------------------------

    def simple(self, v):
        key = ("simple", v)
        if key not in self._cache:
            dims = [1 if w == v else 0 for w in range(self.n_vertices)]
            mats = [Matrix.zeros(dims[a.tgt], dims[a.src], self.p) for a in self.arrows]
            self._cache[key] = Module(self, dims, mats, check=False)
        return self._cache[key]

    def projective(self, v):
        return self.free_module([v]).module

    def injective(self, v):
        key = ("injective", v)
        if key not in self._cache:
            self._cache[key] = self.opposite().projective(v).dual()
        return self._cache[key]

    def free_module(self, verts):
        """Direct sum of the projectives at ``verts``, with generator layout."""
        key = ("free", tuple(verts))
        if key not in self._cache:
            self._cache[key] = FreeModule(self, tuple(verts))
        return self._cache[key]

    def opposite(self):
        """The opposite algebra: arrows reversed, products transposed."""
        if "op" not in self._cache:
            arrows = [Arrow(a.name, a.tgt, a.src) for a in self.arrows]
            rels = tuple(
                tuple((coeff, tuple(reversed(path))) for coeff, path in rel) for rel in self.relations
            )
            paths = [tuple(reversed(pth)) for pth in self.paths]
            mult = np.ascontiguousarray(self.mult.transpose(1, 0, 2))
            op = Algebra(
                self.p,
                self.vlabels,
                arrows,
                rels,
                self.tgt,
                self.src,
                paths,
                self.blabels,
                mult,
                self.e_idx,
                self.arrow_idx,
            )
            op._cache["op"] = self
            self._cache["op"] = op
        return self._cache["op"]

    def ext_quiver(self):
        """Arrows (u, v, multiplicity) of the Ext-quiver on the simples.

        For a minimal projective resolution of S_u the multiplicity of the
        projective at v in the first step equals dim Ext^1(S_u, S_v); that
        is the dimension of top(rad P_u) at v.
        """
        out = []
        for u in range(self.n_vertices):
            P = self.projective(u)
            radP, _ = P.sub(P.radical())
            tops = radP.top_multiplicities()
            for v, m in enumerate(tops):
                if m:
                    out.append((u, v, m))
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "field": self.p,
            "vertices": list(self.vlabels),
            "arrows": [{"name": a.name, "src": a.src, "tgt": a.tgt} for a in self.arrows],
            "relations": [
                [[coeff, [self.arrows[ai].name for ai in path]] for coeff, path in rel]
                for rel in self.relations
            ],
        }

    @classmethod
    def from_json(cls, data, p=None):
        if isinstance(data, str):
            data = json.loads(data)
        return cls.from_quiver(
            data["vertices"],
            [(a["name"], a["src"], a["tgt"]) for a in data["arrows"]],
            data.get("relations", []),
            p=p if p is not None else data.get("field", 2),
        )


def incidence_algebra(P, p=2):
    """Incidence algebra of a finite poset over F_p.

    Basis: the related pairs (x, y), x <= y, with (x,y)(y,z) = (x,z).
    Realized on the quiver with one arrow per Hasse cover; all parallel
    paths between two elements are identified, which the stored relations
    record as differences of parallel cover-paths.
    """
    n = P.n
    cover_pairs = P.cover_pairs()
    arrows = [Arrow(f"{P.labels[x]}<{P.labels[y]}", x, y) for x, y in cover_pairs]
    arrow_of = {(x, y): i for i, (x, y) in enumerate(cover_pairs)}
    out_cov = [[] for _ in range(n)]
    for x, y in cover_pairs:
        out_cov[x].append(y)

    pairs = [(x, y) for x in range(n) for y in bits(P.up[x])]
    pairs.sort()
    idx = {pr: k for k, pr in enumerate(pairs)}
    d = len(pairs)

    def cover_path(x, y):
        # one path of covers from x up to y
        if x == y:
            return ()
        for z in out_cov[x]:
            if P.leq(z, y):
                return (arrow_of[(x, z)],) + cover_path(z, y)
        raise AssertionError("no cover path inside an interval")

    def all_cover_paths(x, y):
        if x == y:
            return [()]
        out = []
        for z in out_cov[x]:
            if P.leq(z, y):
                out.extend([(arrow_of[(x, z)],) + rest for rest in all_cover_paths(z, y)])
        return out

    mult = np.zeros((d, d, d), dtype=np.uint8)
    for i, (x, y) in enumerate(pairs):
        for j, (u, v) in enumerate(pairs):
            if y == u:
                mult[i, j, idx[(x, v)]] = 1
    relations = []
    for (x, y) in pairs:
        ps = all_cover_paths(x, y)
        if len(ps) > 1:
            for other in ps[1:]:
                relations.append(((1, ps[0]), (p - 1, other)))
    A = Algebra(
        p,
        P.labels,
        arrows,
        tuple(relations),
        [x for x, _ in pairs],
        [y for _, y in pairs],
        [cover_path(x, y) for x, y in pairs],
        [f"({P.labels[x]}<={P.labels[y]})" for x, y in pairs],
        mult,
        [idx[(v, v)] for v in range(n)],
        [idx[pr] for pr in cover_pairs],
    )
    A.validate()
    return A


def path_algebra_An(n, p=2):
    """Path algebra of the linearly oriented type-A quiver 1 -> 2 -> ... -> n."""
    return incidence_algebra(Poset.chain(n), p=p)


def two_cycle_algebra(p=2):
    """The 5-dimensional algebra on the quiver 1 <-> 2 with one length-2 cycle killed.

    The relation direction is pinned by the structure it must produce: a
    global dimension 2 algebra whose projective cover of the second simple
    is also its injective envelope, with exactly five indecomposables.
    """
    vlabels = ["1", "2"]
    arrow_defs = [("a", 0, 1), ("b", 1, 0)]
    last_err = None
    for rel_path in [("a", "b"), ("b", "a")]:
        A = Algebra.from_quiver(vlabels, arrow_defs, [[(1, rel_path)]], p=p)
        try:
            _check_two_cycle_facts(A)
            return A
        except AssertionError as err:
            last_err = err
    raise AlgebraError(f"no relation orientation reproduces the target algebra: {last_err}")


def _check_two_cycle_facts(A):
    assert A.dim == 5, "dimension must be 5"
    gd = global_dimension(A, probe_bound=6)
    assert gd == 2, f"global dimension must be 2, got {gd}"
    P2, I2 = A.projective(1), A.injective(1)
    assert modules_isomorphic(P2, I2) is not None, "P_2 must be injective"
    assert len(indecomposables(A, dim_bound=2)) == 5, "must have 5 indecomposables"


# -- modules -----------------------------------------------------------------


class Module:
    __slots__ = ("algebra", "dims", "mats", "_pa_cache", "_key")

    def __init__(self, algebra, dims, mats, check=True):
        dims = tuple(int(x) for x in dims)
        if len(dims) != algebra.n_vertices:
            raise AlgebraError("dimension vector length mismatch")
        mats = tuple(
            m if isinstance(m, Matrix) else Matrix(m, algebra.p) for m in mats
        )
        if len(mats) != len(algebra.arrows):
            raise AlgebraError("need one matrix per arrow")
        for m, a in zip(mats, algebra.arrows):
            if m.a.shape != (dims[a.tgt], dims[a.src]):
                raise AlgebraError(
                    f"matrix for arrow {a.name} has shape {m.a.shape}, expected {(dims[a.tgt], dims[a.src])}"
                )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "_pa_cache", {})
        object.__setattr__(self, "_key", None)
        if check:
            self.check_relations()

    def __setattr__(self, name, value):
        raise AttributeError("Module is immutable")

    def check_relations(self):
        for rel in self.algebra.relations:
            s = self.algebra.arrows[rel[0][1][0]].src
            t = self.algebra.arrows[rel[0][1][-1]].tgt
            acc = np.zeros((self.dims[t], self.dims[s]), dtype=np.int64)
            for coeff, path in rel:
                acc += coeff * self.path_action(path, s).a.astype(np.int64)
            if (acc % self.algebra.p).any():
                raise AlgebraError("module does not satisfy the relations")

    @classmethod
    def zero(cls, algebra):
        dims = [0] * algebra.n_vertices
        mats = [Matrix.zeros(0, 0, algebra.p) for _ in algebra.arrows]
        return cls(algebra, dims, mats, check=False)

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        if self._key is None:
            blob = (self.dims, tuple(m.a.tobytes() for m in self.mats))
            object.__setattr__(self, "_key", blob)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Module):
            return NotImplemented
        return self.algebra is other.algebra and self.key() == other.key()

    def __hash__(self):
        return hash((id(self.algebra), self.key()))

    def __repr__(self):
        return f"Module(dims={list(self.dims)})"

    def path_action(self, path, src_vertex):
        """Matrix of the right action of a path: M_{src} -> M_{tgt}."""
        path = tuple(path)
        got = self._pa_cache.get((path, src_vertex))
        if got is not None:
            return got
        if not path:
            out = Matrix.identity(self.dims[src_vertex], self.algebra.p)
        else:
            out = self.mats[path[0]]
            for ai in path[1:]:
                out = self.mats[ai] @ out
        self._pa_cache[(path, src_vertex)] = out
        return out

    def direct_sum(self, *others):
        mods = (self,) + others
        A = self.algebra
        dims = [sum(m.dims[v] for m in mods) for v in range(A.n_vertices)]
        mats = []
        for ai, a in enumerate(A.arrows):
            blocks = [m.mats[ai].a for m in mods]
            big = np.zeros((dims[a.tgt], dims[a.src]), dtype=np.uint8)
            r = c = 0
            for m, b in zip(mods, blocks):
                big[r : r + b.shape[0], c : c + b.shape[1]] = b
                r += b.shape[0]
                c += b.shape[1]
            mats.append(Matrix(big, A.p))
        return Module(A, dims, mats, check=False)

    def dual(self):
        """The dual module over the opposite algebra (transpose all actions)."""
        op = self.algebra.opposite()
        return Module(op, self.dims, [m.T for m in self.mats], check=False)

    def radical(self):
        """rad M = sum of the images of all arrow actions, per vertex."""
        A = self.algebra
        out = []
        for v in range(A.n_vertices):
            sp = Subspace.zero(self.dims[v], A.p)
            for ai, a in enumerate(A.arrows):
                if a.tgt == v:
                    sp = sp + self.mats[ai].image()
            out.append(sp)
        return out

    def top_multiplicities(self):
        rad = self.radical()
        return [self.dims[v] - rad[v].dim for v in range(self.algebra.n_vertices)]

    def sub(self, subspaces):
        """Submodule on the given arrow-stable subspaces, with its inclusion."""
        A = self.algebra
        dims = [sp.dim for sp in subspaces]
        incl = [Matrix(sp.basis.T, A.p) for sp in subspaces]
        mats = []
        for ai, a in enumerate(A.arrows):
            img = self.mats[ai] @ incl[a.src]
            try:
                mats.append(solve(incl[a.tgt], img))
            except NoSolution:
                raise AlgebraError("subspaces are not arrow-stable") from None
        S = Module(A, dims, mats, check=False)
        return S, ModuleMap(S, self, incl, check=False)

    def quotient(self, subspaces):
        """Quotient by an arrow-stable family of subspaces, with its projection."""
        A = self.algebra
        projs = []
        sections = []
        for v, sp in enumerate(subspaces):
            free = sp.free_coords()
            pi = np.zeros((len(free), self.dims[v]), dtype=np.int64)
            for r, f in enumerate(free):
                pi[r, f] = 1
            for r_idx, c in enumerate(sp.pivots):
                pi[:, c] = -sp.basis[r_idx, list(free)].astype(np.int64)
            projs.append(Matrix(pi % A.p, A.p))
            sec = np.zeros((self.dims[v], len(free)), dtype=np.uint8)
            for r, f in enumerate(free):
                sec[f, r] = 1
            sections.append(Matrix(sec, A.p))
        mats = []
        for ai, a in enumerate(A.arrows):
            stability = projs[a.tgt] @ self.mats[ai] @ Matrix(subspaces[a.src].basis.T, A.p)
            if not stability.is_zero():
                raise AlgebraError("subspaces are not arrow-stable")
            mats.append(projs[a.tgt] @ self.mats[ai] @ sections[a.src])
        Q = Module(A, [m.rows for m in projs], mats, check=False)
        return Q, ModuleMap(self, Q, projs, check=False)

    def spanned_submodule(self, vertex, vec):
        """Smallest submodule containing the given vector at a vertex."""
        A = self.algebra
        spans = [Subspace.zero(self.dims[v], A.p) for v in range(A.n_vertices)]
        spans[vertex] = Subspace.from_rows([vec], self.dims[vertex], A.p)
        frontier = [(vertex, np.asarray(vec, dtype=np.uint8))]
        while frontier:
            v, x = frontier.pop()
            for ai, a in enumerate(A.arrows):
                if a.src == v:
                    y = (self.mats[ai].a.astype(np.int64) @ x) % A.p
                    if y.any() and not spans[a.tgt].contains_vector(y):
                        spans[a.tgt] = spans[a.tgt] + Subspace.from_rows([y], self.dims[a.tgt], A.p)
                        frontier.append((a.tgt, y.astype(np.uint8)))
        return tuple(spans)

    def all_submodules(self, cap=200_000):
        """Every submodule, as tuples of per-vertex subspaces.

        Cyclic submodules are generated from single-vertex vectors (enough,
        since the vertex idempotents split any generator) and then closed
        under sums.
        """
        A = self.algebra
        p = A.p
        zero = tuple(Subspace.zero(self.dims[v], p) for v in range(A.n_vertices))
        cyclics = set()
        for v in range(A.n_vertices):
            for coeffs in itertools.product(range(p), repeat=self.dims[v]):
                if not any(coeffs):
                    continue
                cyclics.add(self.spanned_submodule(v, np.array(coeffs, dtype=np.uint8)))
        found = {zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for cyc in cyclics:
                new = tuple(a + b for a, b in zip(cur, cyc))
                if new not in found:
                    if len(found) >= cap:
                        raise LimitExceeded(f"submodule lattice exceeds the cap of {cap} submodules")
                    found.add(new)
                    frontier.append(new)
        return sorted(
            found,
            key=lambda subs: (sum(s.dim for s in subs), tuple(s.basis.tobytes() for s in subs)),
        )

    def to_json(self):
        return {
            "dims": list(self.dims),
            "arrows": {a.name: m.a.tolist() for a, m in zip(self.algebra.arrows, self.mats)},
        }

    @classmethod
    def from_json(cls, algebra, data):
        if isinstance(data, str):
            data = json.loads(data)
        dims = data["dims"]
        mats = []
        for a in algebra.arrows:
            raw = data["arrows"].get(a.name)
            if raw is None:
                mats.append(Matrix.zeros(dims[a.tgt], dims[a.src], algebra.p))
            else:
                mats.append(Matrix(raw, algebra.p))
        return cls(algebra, dims, mats)


class ModuleMap:
    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats, check=True):
        if source.algebra is not target.algebra:
            raise AlgebraError("maps need a common algebra")
        mats = tuple(m if isinstance(m, Matrix) else Matrix(m, source.algebra.p) for m in mats)
        for v, m in enumerate(mats):
            if m.a.shape != (target.dims[v], source.dims[v]):
                raise AlgebraError("map component has wrong shape")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mats", mats)
        if check:
            self.check_commutes()

    def __setattr__(self, name, value):
        raise AttributeError("ModuleMap is immutable")

    def check_commutes(self):
        for ai, a in enumerate(self.source.algebra.arrows):
            lhs = self.mats[a.tgt] @ self.source.mats[ai]
            rhs = self.target.mats[ai] @ self.mats[a.src]
            if lhs != rhs:
                raise AlgebraError(f"map does not commute with arrow {a.name}")

    def compose(self, other):
        """self after other (other: X -> Y, self: Y -> Z)."""
        if other.target is not self.source and other.target != self.source:
            raise AlgebraError("composition mismatch")
        return ModuleMap(
            other.source,
            self.target,
            [m1 @ m2 for m1, m2 in zip(self.mats, other.mats)],
            check=False,
        )

    def rank(self):
        return sum(m.rank() for m in self.mats)

    def is_surjective(self):
        return all(m.rank() == self.target.dims[v] for v, m in enumerate(self.mats))

    def is_injective(self):
        return all(m.rank() == self.source.dims[v] for v, m in enumerate(self.mats))

    def is_iso(self):
        return self.source.dims == self.target.dims and self.is_injective()

    def kernel_subspaces(self):
        return tuple(m.kernel() for m in self.mats)

    def image_subspaces(self):
        return tuple(m.image() for m in self.mats)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def dual(self):
        return ModuleMap(self.target.dual(), self.source.dual(), [m.T for m in self.mats], check=False)

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.mats == other.mats

    def __hash__(self):
        return hash((self.source, self.target, self.mats))


class FreeModule:
    """A finite direct sum of indecomposable projectives with generator layout.

    ``layout[w]`` lists (summand, basis element) pairs giving the coordinate
    order of the underlying module at vertex w; ``gen_coord[s]`` is the
    coordinate of summand s's generator (the idempotent) at its vertex.
    """

    __slots__ = ("algebra", "verts", "module", "layout", "gen_coord")

    def __init__(self, algebra, verts):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "verts", tuple(verts))
        nv = algebra.n_vertices
        layout = [[] for _ in range(nv)]
        for s, v in enumerate(verts):
            for k in algebra.basis_at(v):
                layout[algebra.tgt[k]].append((s, k))
        dims = [len(l) for l in layout]
        pos = [{sk: i for i, sk in enumerate(l)} for l in layout]
        mats = []
        for a_i, a in enumerate(algebra.arrows):
            arr = np.zeros((dims[a.tgt], dims[a.src]), dtype=np.uint8)
            ab = algebra.arrow_idx[a_i]
            for col, (s, k) in enumerate(layout[a.src]):
                prod = algebra.mult[k, ab]
                for k2 in np.nonzero(prod)[0]:
                    k2 = int(k2)
                    arr[pos[a.tgt][(s, k2)], col] = prod[k2]
            mats.append(Matrix(arr, algebra.p))
        module = Module(algebra, dims, mats, check=False)
        gen_coord = [pos[v][(s, algebra.e_idx[v])] for s, v in enumerate(verts)]
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "layout", tuple(tuple(l) for l in layout))
        object.__setattr__(self, "gen_coord", tuple(gen_coord))

    def __setattr__(self, name, value):
        raise AttributeError("FreeModule is immutable")

    def is_zero(self):
        return not self.verts

    def map_from_generators(self, N, gen_images):
        """The module map F -> N sending summand s's generator to gen_images[s]."""
        A = self.algebra
        mats = []
        for w in range(A.n_vertices):
            arr = np.zeros((N.dims[w], self.module.dims[w]), dtype=np.uint8)
            for col, (s, k) in enumerate(self.layout[w]):
                pa = N.path_action(A.paths[k], A.src[k])
                arr[:, col] = (pa.a.astype(np.int64) @ gen_images[s]) % A.p
            mats.append(Matrix(arr, A.p))
        return ModuleMap(self.module, N, mats, check=False)

    def hom_space_dim(self, N):
        return sum(N.dims[v] for v in self.verts)


# -- hom and homological operations -------------------------------------------


def _hom_constraints(M, N):
    """Constraint matrix whose kernel is Hom(M, N), in per-vertex column-major blocks."""
    A = M.algebra
    p = A.p
    sizes = [N.dims[v] * M.dims[v] for v in range(A.n_vertices)]
    offs = np.cumsum([0] + sizes)
    total = int(offs[-1])
    rows = []
    for ai, a in enumerate(A.arrows):
        u, v = a.src, a.tgt
        r = N.dims[v] * M.dims[u]
        if r == 0:
            continue
        block = np.zeros((r, total), dtype=np.int64)
        # f_v @ M_a  -> (M_a^T kron I_{N_v}) vec(f_v), column-major vec
        ka = np.kron(M.mats[ai].a.T.astype(np.int64), np.eye(N.dims[v], dtype=np.int64))
        block[:, offs[v] : offs[v + 1]] += ka
        # N_a @ f_u  -> (I_{M_u} kron N_a) vec(f_u)
        kb = np.kron(np.eye(M.dims[u], dtype=np.int64), N.mats[ai].a.astype(np.int64))
        block[:, offs[u] : offs[u + 1]] -= kb
        rows.append(block % p)
    if rows:
        big = np.vstack(rows)
    else:
        big = np.zeros((0, total), dtype=np.int64)
    return Matrix(big, p), offs


def _unflatten(vec, M, N, offs):
    mats = []
    for v in range(M.algebra.n_vertices):
        part = vec[offs[v] : offs[v + 1]]
        mats.append(Matrix(np.asarray(part).reshape((N.dims[v], M.dims[v]), order="F"), M.algebra.p))
    return ModuleMap(M, N, mats, check=False)


def hom(M, N):
    """A basis of Hom(M, N), as ModuleMaps."""
    if M.algebra is not N.algebra:
        raise AlgebraError("modules over different algebras")
    if M.is_zero() or N.is_zero():
        return []
    C, offs = _hom_constraints(M, N)
    ker = C.kernel()
    return [_unflatten(row, M, N, offs) for row in ker.basis]


def hom_dim(M, N):
    if M.is_zero() or N.is_zero():
        return 0
    C, _ = _hom_constraints(M, N)
    return C.cols - C.rank()


def projective_cover(M):
    """(F, pi): F the projective cover as a FreeModule, pi the cover map."""
    if M.is_zero():
        raise ZeroModule("zero module has no projective cover")
    A = M.algebra
    rad = M.radical()
    verts = []
    gens = []
    for v in range(A.n_vertices):
        for c in rad[v].free_coords():
            vec = np.zeros(M.dims[v], dtype=np.uint8)
            vec[c] = 1
            verts.append(v)
            gens.append(vec)
    F = A.free_module(verts)
    pi = F.map_from_generators(M, gens)
    if not pi.is_surjective():
        raise AlgebraError("projective cover construction failed to surject")
    return F, pi


def syzygy(M, n=1):
    """The n-th syzygy: iterated kernels of projective covers (zero stays zero)."""
    if n < 0:
        raise ValueError("need n >= 0")
    cur = M
    for _ in range(n):
        if cur.is_zero():
            return cur
        _, pi = projective_cover(cur)
        cur, _ = pi.source.sub(pi.kernel_subspaces())
    return cur


def injective_envelope(M):
    """(I, iota): the injective envelope and the embedding M -> I."""
    if M.is_zero():
        raise ZeroModule("zero module has no injective envelope")
    _, pi = projective_cover(M.dual())
    iota = pi.dual()
    return iota.target, iota


def cosyzygy(M, n=1):
    """The n-th cosyzygy: cokernels of injective envelopes, via duality."""
    return syzygy(M.dual(), n).dual()


class Resolution:
    """A minimal projective resolution F_len -> ... -> F_0 -> M -> 0."""

    __slots__ = ("module", "frees", "diffs", "augmentation")

    def __init__(self, module, frees, diffs, augmentation):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "frees", tuple(frees))
        object.__setattr__(self, "diffs", tuple(diffs))
        object.__setattr__(self, "augmentation", augmentation)

    def __setattr__(self, name, value):
        raise AttributeError("Resolution is immutable")

    @property
    def length(self):
        return len(self.frees) - 1

    def modules(self):
        return [F.module for F in self.frees]

    def is_exact(self):
        prev = self.augmentation
        for d in self.diffs:
            if not prev.compose(d).is_zero():
                return False
            if d.rank() != d.target.total_dim - prev.rank():
                return False
            prev = d
        return True

    def is_minimal(self):
        """Every differential lands in the radical of its target."""
        return all(_radical_columns(d) for d in self.diffs)


def _radical_columns(d):
    """Every column of the map lands in the radical of the target."""
    rad = d.target.radical()
    for v, m in enumerate(d.mats):
        for col in m.a.T:
            if not rad[v].contains_vector(col):
                return False
    return True


def _resolution_stages(M, length):
    cache = M.algebra._cache.setdefault("resolutions", {})
    stages = cache.get(M.key())
    if stages is None:
        stages = []
        cache[M.key()] = stages
    while len(stages) <= length:
        if not stages:
            F, pi = projective_cover(M) if not M.is_zero() else (M.algebra.free_module([]), None)
            if pi is None:
                pi = M.algebra.free_module([]).map_from_generators(M, [])
            K, incl = F.module.sub(pi.kernel_subspaces())
            stages.append((F, pi, K, incl))
        else:
            _, _, K, incl = stages[-1]
            if K.is_zero():
                F = M.algebra.free_module([])
                d = F.map_from_generators(stages[-1][0].module, [])
                K2, incl2 = F.module.sub(d.kernel_subspaces())
                stages.append((F, d, K2, incl2))
            else:
                F, pi = projective_cover(K)
                d = incl.compose(pi)
                if not _radical_columns(d):
                    raise AlgebraError("resolution differential escapes the radical")
                K2, incl2 = F.module.sub(pi.kernel_subspaces())
                stages.append((F, d, K2, incl2))
    return stages


def min_resolution(M, length):
    """Minimal projective resolution of M out to homological degree ``length``."""
    if length < 0:
        raise ValueError("need length >= 0")
    stages = _resolution_stages(M, length)
    frees = [st[0] for st in stages[: length + 1]]
    aug = stages[0][1]
    diffs = [st[1] for st in stages[1 : length + 1]]
    return Resolution(M, frees, diffs, aug)


def _delta_matrix(F_hi, F_lo, d, N):
    """Matrix of g -> g . d from Hom(F_lo, N) to Hom(F_hi, N) in generator coordinates."""
    A = N.algebra
    p = A.p
    hi_sizes = [N.dims[v] for v in F_hi.verts]
    lo_sizes = [N.dims[v] for v in F_lo.verts]
    hi_off = np.cumsum([0] + hi_sizes)
    lo_off = np.cumsum([0] + lo_sizes)
    out = np.zeros((int(hi_off[-1]), int(lo_off[-1])), dtype=np.int64)
    for s2, v2 in enumerate(F_hi.verts):
        col = d.mats[v2].a[:, F_hi.gen_coord[s2]]
        for pos, (s1, k) in enumerate(F_lo.layout[v2]):
            c = int(col[pos])
            if c:
                pa = N.path_action(A.paths[k], A.src[k]).a.astype(np.int64)
                out[hi_off[s2] : hi_off[s2 + 1], lo_off[s1] : lo_off[s1 + 1]] += c * pa
    return Matrix(out % p, p)


def ext(M, N, n):
    """dim Ext^n(M, N), from a minimal projective resolution of M."""
    if n < 0:
        raise ValueError("need n >= 0")
    if M.is_zero() or N.is_zero():
        return 0
    if n == 0:
        return hom_dim(M, N)
    stages = _resolution_stages(M, n + 1)
    F_nm1, F_n, F_np1 = stages[n - 1][0], stages[n][0], stages[n + 1][0]
    d_n, d_np1 = stages[n][1], stages[n + 1][1]
    dim_hom = F_n.hom_space_dim(N)
    rank_in = _delta_matrix(F_n, F_nm1, d_n, N).rank() if not (F_n.is_zero() or F_nm1.is_zero()) else 0
    rank_out = (
        _delta_matrix(F_np1, F_n, d_np1, N).rank() if not (F_np1.is_zero() or F_n.is_zero()) else 0
    )
    return dim_hom - rank_in - rank_out


def ext_via_injectives(M, N, n):
    """dim Ext^n(M, N) computed from an injective coresolution of N, by duality."""
    return ext(N.dual(), M.dual(), n)


def global_dimension(A, probe_bound=12):
    """Max projective dimension over the simples, probing up to probe_bound."""
    best = 0
    for v in range(A.n_vertices):
        S = A.simple(v)
        pd = None
        cur = S
        for i in range(probe_bound + 1):
            if cur.is_zero():
                pd = max(0, i - 1)
                break
            cur = syzygy(cur)
        if pd is None:
            return AtLeast(probe_bound)
        best = max(best, pd)
    return best


# -- decomposition ------------------------------------------------------------


def _endo_power(mats, total_dim, p):
    e = [m.a.astype(np.int64) for m in mats]
    steps = max(1, total_dim.bit_length())
    for _ in range(steps):
        e = [(m @ m) % p for m in e]
    return e


def _try_split(M, mats):
    """Fitting split along an endomorphism, or None if it is nilpotent/invertible."""
    p = M.algebra.p
    e = _endo_power(mats, M.total_dim, p)
    ranks = [Matrix(m, p).rank() for m in e]
    if sum(ranks) == 0 or sum(ranks) == M.total_dim:
        return None
    ims = tuple(Matrix(m, p).image() for m in e)
    kers = tuple(Matrix(m, p).kernel() for m in e)
    M1, _ = M.sub(ims)
    M2, _ = M.sub(kers)
    if M1.total_dim + M2.total_dim != M.total_dim:
        raise AlgebraError("Fitting decomposition dimensions inconsistent")
    return M1, M2


def _find_splitter(M, ends, search_cap):
    p = M.algebra.p
    d = len(ends)
    for phi in ends:
        split = _try_split(M, phi.mats)
        if split:
            return split
    for i in range(d):
        for j in range(i + 1, d):
            mats = [a + b for a, b in zip(ends[i].mats, ends[j].mats)]
            split = _try_split(M, mats)
            if split:
                return split
    if p**d > search_cap:
        raise EndTooLarge(
            f"endomorphism ring has {p}^{d} elements, beyond the search bound {search_cap}"
        )
    nv = M.algebra.n_vertices
    for coeffs in itertools.product(range(p), repeat=d):
        if sum(c != 0 for c in coeffs) < 2:
            continue
        mats = [
            Matrix(
                sum(int(c) * e.mats[v].a.astype(np.int64) for c, e in zip(coeffs, ends)) % p,
                p,
            )
            for v in range(nv)
        ]
        split = _try_split(M, mats)
        if split:
            return split
    return None


def decompose(M, search_cap=None):
    """Krull-Schmidt decomposition [(indecomposable, multiplicity), ...].

    Searches End(M) for an element that is neither nilpotent nor invertible
    and splits along its stable image/kernel (Fitting), recursing.  Raises
    EndTooLarge when certifying indecomposability would need more than
    ``search_cap`` (default p^12) endomorphisms.
    """
    if search_cap is None:
        search_cap = M.algebra.p ** 12
    if M.is_zero():
        return []
    parts = []

    def rec(X):
        ends = hom(X, X)
        if len(ends) == 1:
            parts.append(X)
            return
        split = _find_splitter(X, ends, search_cap)
        if split is None:
            parts.append(X)
            return
        rec(split[0])
        rec(split[1])

    rec(M)
    grouped = []
    for X in parts:
        for k, (rep, mult) in enumerate(grouped):
            if X.dims == rep.dims and modules_isomorphic(X, rep) is not None:
                grouped[k] = (rep, mult + 1)
                break
        else:
            grouped.append((X, 1))
    grouped.sort(key=lambda rm: (rm[0].total_dim, rm[0].dims, rm[0].key()))
    return grouped


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
        for r, c in zip(*np.nonzero(m)):
            ra, rb = find(int(offs[a.tgt]) + int(r)), find(int(offs[a.src]) + int(c))
            if ra != rb:
                parent[rb] = ra
    root = find(0)
    return all(find(x) == root for x in range(total))


def is_indecomposable(M, search_cap=None):
    if M.is_zero():
        return False
    if M.total_dim == 1:
        return True
    if not _coordinate_connected(M.dims, [m.a for m in M.mats], M.algebra.arrows):
        return False
    if search_cap is None:
        search_cap = M.algebra.p ** 12
    ends = hom(M, M)
    if len(ends) == 1:
        return True
    return _find_splitter(M, ends, search_cap) is None


def modules_isomorphic(M, N, search_cap=4096):
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


# -- enumeration of indecomposables -------------------------------------------


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


def _gl_data(d, p):
    """(indices of invertible matrices, inverse-index array) for d x d over F_p."""
    mats = _all_mats(d, d, p)
    gl = [enc for enc, m in enumerate(mats) if Matrix(m, p).rank() == d]
    pos = {enc: i for i, enc in enumerate(gl)}
    inv_idx = []
    for enc in gl:
        m = mats[enc]
        inv = None
        for enc2 in gl:
            prod = (m.astype(np.int64) @ mats[enc2]) % p
            if np.array_equal(prod, np.eye(d, dtype=np.int64) % p):
                inv = pos[enc2]
                break
        inv_idx.append(inv)
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
            glu, inv_u, matsu = self.gl_of(du)
            cands = _all_mats(dv, du, self.p)
            size = len(glv) * len(cands) * len(glu)
            if size > ORBIT_TABLE_CAP:
                raise LimitExceeded(
                    f"orbit table of {size} entries exceeds the cap of {ORBIT_TABLE_CAP}; "
                    "lower the dimension bound or the field size"
                )
            table = np.zeros((len(glv), len(cands), len(glu)), dtype=np.int32)
            for gi, genc in enumerate(glv):
                gv = matsv[genc].astype(np.int64)
                for ci, c in enumerate(cands):
                    gc = (gv @ c) % self.p
                    for hi, henc in enumerate(glu):
                        # index hi plays the role of g_u^{-1}: tables are consulted
                        # with the inverse index so the action is g_v C g_u^{-1}
                        prod = (gc @ matsu[henc]) % self.p
                        table[gi, ci, hi] = _encode(prod, self.p)
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


def indecomposables(A, dim_bound=2, group_cap=2_000_000):
    """All indecomposable modules with per-vertex dimension <= dim_bound.

    Per dimension vector, representation tuples are enumerated one arrow at
    a time up to simultaneous base change: candidates for each arrow are
    reduced to orbit representatives under the stabiliser of the partial
    assignment, so each isomorphism class appears exactly once; the
    indecomposable ones are kept (Fitting test).
    """
    key = ("indecs", dim_bound)
    if key in A._cache:
        return A._cache[key]
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
    A._cache[key] = found
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

    gl_sizes = []
    for v in range(nv):
        if dvec[v] == 0:
            gl_sizes.append(1)
        else:
            gl_sizes.append(len(tables.gl_of(dvec[v])[0]))
    total = 1
    for s in gl_sizes:
        total *= s
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
