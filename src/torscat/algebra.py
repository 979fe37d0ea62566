"""Finite-dimensional algebras presented by quivers with relations over F_p.

An Algebra carries an explicit basis with its structure constants, so
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
from collections import deque, namedtuple

from .linalg import Matrix, NoSolution, Subspace, solve, vstack
from .poset import Poset, bits

__all__ = [
    "AlgebraError",
    "CertificateFailed",
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
    "ext1_space",
    "extension_middle",
    "tau",
    "tau_inverse",
    "decompose",
    "modules_isomorphic",
    "indecomposables",
    "ARQuiver",
    "ar_quiver",
    "mesh_hom_dims",
    "global_dimension",
]


class AlgebraError(Exception):
    pass


class CertificateFailed(AlgebraError):
    """A computed result failed the check that certifies it; the input itself is well formed."""


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


def _offsets(sizes):
    """The running sums [0, s_0, s_0 + s_1, ...] of sizes."""
    return list(itertools.accumulate(sizes, initial=0))


def _normalize_relations(relations, arrows):
    """Relations as lists of (coeff, arrow-index tuple); validates admissibility."""
    by_name = {a.name: i for i, a in enumerate(arrows)}
    out = []
    for rel in relations:
        terms = []
        for coeff, path in rel:
            if type(coeff) is not int:
                raise AlgebraError(f"relations: coefficient {coeff!r} is not an integer")
            if not all(x in by_name if isinstance(x, str) else type(x) is int and 0 <= x < len(arrows) for x in path):
                raise AlgebraError(f"relations: path {path!r} has an entry that is not an arrow name or arrow index")
            path = tuple(by_name[x] if isinstance(x, str) else x for x in path)
            if len(path) < 2:
                raise AlgebraError("relations must involve paths of length >= 2")
            for x, y in zip(path, path[1:]):
                if arrows[x].tgt != arrows[y].src:
                    raise AlgebraError(f"path {path} is not composable")
            terms.append((coeff, path))
        srcs = {arrows[path[0]].src for _, path in terms}
        tgts = {arrows[path[-1]].tgt for _, path in terms}
        if len(srcs) != 1 or len(tgts) != 1:
            raise AlgebraError("relation terms must be parallel paths")
        out.append(tuple(terms))
    return tuple(out)


class Algebra:
    """A basis b_0, ..., b_(d-1) of paths and its structure constants.

    ``mult`` is sparse: ``mult[i, j]`` holds the nonzero terms (m, c) of
    b_i b_j = sum c b_m, and a pair whose product is 0 has no entry.
    """

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
        mult = {ij: tuple((m, c % p) for m, c in terms if c % p) for ij, terms in mult.items()}
        object.__setattr__(self, "mult", {ij: terms for ij, terms in mult.items() if terms})
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
                        vec = [0] * cols
                        for coeff, path in rel:
                            full = p1 + path + p2
                            if len(full) <= N - 1:
                                vec[col_of[(p1src, full)]] += coeff
                        if any(x % p for x in vec):
                            gens.append(vec)
            rr, pivots = (), []
            if gens:
                R, rank = Matrix(gens, p).rref()
                rr = R.a[:rank]
                pivots = [next(c for c, x in enumerate(row) if x) for row in rr]
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
            if c in piv_row:
                row = rr[piv_row[c]]
                terms = []
                for cc, x in enumerate(row):
                    if x and cc != c:
                        p2, s2, _ = col_to_path[cc]
                        terms.append((bpos[(s2, p2)], (p - x) % p))
                nf[(s, pth)] = tuple(sorted(terms))
            else:
                nf[(s, pth)] = ((bpos[(s, pth)], 1),)

        mult = {}
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
        """Associativity and unit checks on the multiplication table.

        Associativity is checked on every triple: joining the nonzero
        constants c of b_i b_j = sum c b_m with those of b_m b_k gives the
        terms of (b_i b_j) b_k, and with those of b_h b_m the terms of
        b_h (b_i b_j).  A triple with both sides zero has no terms.
        """
        d, p = self.dim, self.p
        left, right = {}, {}  # m -> [(k, terms of b_m b_k)] and [(h, terms of b_h b_m)]
        for (i, j), terms in self.mult.items():
            left.setdefault(i, []).append((j, terms))
            right.setdefault(j, []).append((i, terms))
        sums = {}
        for (i, j), terms in self.mult.items():
            ij = (i * d + j) * d
            for m, c in terms:
                for k, terms2 in left.get(m, ()):
                    key = (ij + k) * d
                    for n, c2 in terms2:
                        sums[key + n] = sums.get(key + n, 0) + c * c2
                for h, terms2 in right.get(m, ()):
                    key = ((h * d + i) * d + j) * d
                    for n, c2 in terms2:
                        sums[key + n] = sums.get(key + n, 0) - c * c2
        if any(x % p for x in sums.values()):
            raise AlgebraError("multiplication table is not associative")
        for k in range(d):
            unit, ev, ew = ((k, 1),), self.e_idx[self.src[k]], self.e_idx[self.tgt[k]]
            if self.mult.get((ev, k)) != unit or self.mult.get((k, ew)) != unit:
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
            mult = {(j, i): terms for (i, j), terms in self.mult.items()}
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
        is the dimension of top(rad P_u) at v.  P_u is spanned by the basis
        paths from u and rad P_u by those of positive length, e_u J with J
        the span of all such paths; its radical is e_u J^2.  So the
        multiplicity is dim e_u (J/J^2) e_v (Assem-Simson-Skowronski,
        Elements I, III.2.12): the number of basis paths of positive length
        from u to v, less the rank of the products of two of them that run
        from u to v, read off ``mult`` with no module built.
        """
        col, count = {}, {}  # basis path -> its column within its (src, tgt) block; block -> size
        for k, pth in enumerate(self.paths):
            if pth:
                key = (self.src[k], self.tgt[k])
                col[k] = count.get(key, 0)
                count[key] = col[k] + 1
        squares = {}  # (src, tgt) -> rows of the products of two paths of positive length
        for (i, j), terms in self.mult.items():
            if i in col and j in col and terms:
                key = (self.src[i], self.tgt[j])
                row = [0] * count[key]
                for m, c in terms:
                    row[col[m]] = c
                squares.setdefault(key, []).append(row)
        out = []
        for (u, v), n in sorted(count.items()):
            rows = squares.get((u, v))
            m = n - (Subspace.from_rows(rows, n, self.p).dim if rows else 0)
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
        for a in data["arrows"]:
            if type(a["src"]) is not int or type(a["tgt"]) is not int:
                raise AlgebraError(f"arrow {a['name']}: src and tgt must be vertex indices, got {a['src']!r}, {a['tgt']!r}")
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

    mult = {}
    for i, (x, y) in enumerate(pairs):
        for v in bits(P.up[y]):
            mult[i, idx[(y, v)]] = ((idx[(x, v)], 1),)
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
    """The 5-dimensional algebra on the quiver a: 1 -> 2, b: 2 -> 1 with the path a then b killed.

    It has global dimension 2, five indecomposables, and the projective
    cover of the second simple is also its injective envelope; killing b
    then a instead would leave P(2) not injective.
    """
    return Algebra.from_quiver(["1", "2"], [("a", 0, 1), ("b", 1, 0)], [[(1, ("a", "b"))]], p=p)


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
            if m.shape != (dims[a.tgt], dims[a.src]):
                raise AlgebraError(
                    f"matrix for arrow {a.name} has shape {m.shape}, expected {(dims[a.tgt], dims[a.src])}"
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
            acc = Matrix.zeros(self.dims[t], self.dims[s], self.algebra.p)
            for coeff, path in rel:
                acc = acc + self.path_action(path, s).scale(coeff)
            if not acc.is_zero():
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
            blob = (self.dims, tuple(m.a for m in self.mats))
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
            rows, c, cols = [], 0, dims[a.src]
            for m in mods:
                b = m.mats[ai]
                rows.extend((0,) * c + row + (0,) * (cols - c - b.cols) for row in b.a)
                c += b.cols
            mats.append(Matrix(tuple(rows), A.p, cols, _checked=True))
        return Module(A, dims, mats, check=False)

    def dual(self):
        """The dual module over the opposite algebra (transpose all actions)."""
        op = self.algebra.opposite()
        return Module(op, self.dims, [m.T for m in self.mats], check=False)

    def radical(self):
        """rad M = sum of the images of all arrow actions, per vertex."""
        A = self.algebra
        return [
            Subspace.from_rows([c for ai, a in enumerate(A.arrows) if a.tgt == v for c in self.mats[ai].columns()],
                               self.dims[v], A.p)
            for v in range(A.n_vertices)
        ]

    def sub(self, subspaces):
        """Submodule on the given arrow-stable subspaces, with its inclusion."""
        A = self.algebra
        dims = [sp.dim for sp in subspaces]
        incl = [sp.matrix().T for sp in subspaces]
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
            pi = []
            for f in free:
                row = [0] * self.dims[v]
                row[f] = 1
                for brow, c in zip(sp.basis, sp.pivots):
                    row[c] = -brow[f]
                pi.append(row)
            projs.append(Matrix(pi, A.p, self.dims[v]))
            unit = tuple(tuple(int(i == f) for f in free) for i in range(self.dims[v]))
            sections.append(Matrix(unit, A.p, len(free), _checked=True))
        mats = []
        for ai, a in enumerate(A.arrows):
            stability = projs[a.tgt] @ self.mats[ai] @ subspaces[a.src].matrix().T
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
        frontier = [(vertex, [int(x) % A.p for x in vec])]
        while frontier:
            v, x = frontier.pop()
            for ai, a in enumerate(A.arrows):
                if a.src == v:
                    y = self.mats[ai].apply(x)
                    if any(y) and not spans[a.tgt].contains_vector(y):
                        spans[a.tgt] = spans[a.tgt] + Subspace.from_rows([y], self.dims[a.tgt], A.p)
                        frontier.append((a.tgt, y))
        return tuple(spans)

    def all_submodules(self, cap=200_000):
        """Every submodule, as tuples of per-vertex subspaces.

        Cyclic submodules are generated from single-vertex vectors (enough,
        since the vertex idempotents split any generator), one per line
        through the origin: the vectors whose first nonzero coordinate is 1.
        They are then closed under sums.
        """
        A = self.algebra
        p = A.p
        zero = tuple(Subspace.zero(self.dims[v], p) for v in range(A.n_vertices))
        cyclics = set()
        for v, d in enumerate(self.dims):
            for lead in range(d):
                for tail in itertools.product(range(p), repeat=d - lead - 1):
                    vec = (0,) * lead + (1,) + tail
                    cyclics.add(self.spanned_submodule(v, vec))
        found = {zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for cyc in cyclics:
                if all(b <= a for a, b in zip(cur, cyc)):
                    continue
                new = tuple(b if a.is_zero() else a if b.is_zero() else a + b for a, b in zip(cur, cyc))
                if new not in found:
                    if len(found) >= cap:
                        raise LimitExceeded(f"submodule lattice exceeds the cap of {cap} submodules")
                    found.add(new)
                    frontier.append(new)
        return sorted(
            found,
            key=lambda subs: (sum(s.dim for s in subs), tuple(s.basis for s in subs)),
        )

    def to_json(self):
        return {
            "dims": list(self.dims),
            "arrows": {a.name: [list(row) for row in m.a] for a, m in zip(self.algebra.arrows, self.mats)},
        }

    @classmethod
    def from_json(cls, algebra, data):
        if isinstance(data, str):
            data = json.loads(data)
        dims, arrows = data["dims"], data["arrows"]
        if not (isinstance(dims, list) and len(dims) == algebra.n_vertices and all(type(d) is int and d >= 0 for d in dims)):
            raise AlgebraError(f"dims must list {algebra.n_vertices} non-negative integers, got {dims!r}")
        if not isinstance(arrows, dict) or arrows.keys() - {a.name for a in algebra.arrows}:
            raise AlgebraError(f"arrows must map arrow names of the algebra to matrices, got {arrows!r}")
        mats = []
        for a in algebra.arrows:
            raw = arrows.get(a.name, [[0] * dims[a.src]] * dims[a.tgt])
            if not (isinstance(raw, list) and all(isinstance(row, list) and all(type(x) is int for x in row) for row in raw)):
                raise AlgebraError(f"arrows: the matrix of {a.name} must be rows of integers, got {raw!r}")
            mats.append(Matrix(raw, algebra.p, dims[a.src]))
        return cls(algebra, dims, mats)


class ModuleMap:
    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats, check=True):
        if source.algebra is not target.algebra:
            raise AlgebraError("maps need a common algebra")
        mats = tuple(m if isinstance(m, Matrix) else Matrix(m, source.algebra.p) for m in mats)
        for v, m in enumerate(mats):
            if m.shape != (target.dims[v], source.dims[v]):
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
            arr = [[0] * dims[a.src] for _ in range(dims[a.tgt])]
            ab = algebra.arrow_idx[a_i]
            for col, (s, k) in enumerate(layout[a.src]):
                for k2, c in algebra.mult.get((k, ab), ()):
                    arr[pos[a.tgt][(s, k2)]][col] = c
            mats.append(Matrix(arr, algebra.p, dims[a.src]))
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
            cols = tuple(N.path_action(A.paths[k], A.src[k]).apply(gen_images[s]) for s, k in self.layout[w])
            mats.append(Matrix(cols, A.p, N.dims[w], _checked=True).T)
        return ModuleMap(self.module, N, mats, check=False)

    def hom_space_dim(self, N):
        return sum(N.dims[v] for v in self.verts)


# -- hom and homological operations -------------------------------------------


def _hom_constraints(M, N):
    """Constraint matrix whose kernel is Hom(M, N), in per-vertex column-major blocks."""
    A = M.algebra
    p = A.p
    offs = _offsets(N.dims[v] * M.dims[v] for v in range(A.n_vertices))
    rows = []
    for ai, a in enumerate(A.arrows):
        u, v = a.src, a.tgt
        Ma, Na = M.mats[ai].a, N.mats[ai].a
        nu, nv = N.dims[u], N.dims[v]
        # one row per entry (i, j) of f_v M_a - N_a f_u, in column-major order;
        # f_v[i, k] is unknown offs[v] + k nv + i
        for j in range(M.dims[u]):
            for i in range(nv):
                row = [0] * offs[-1]
                for k, Ma_row in enumerate(Ma):
                    row[offs[v] + k * nv + i] += Ma_row[j]
                for l, x in enumerate(Na[i]):
                    row[offs[u] + j * nu + l] -= x
                rows.append(row)
    return Matrix(rows, p, offs[-1]), offs


def _unflatten(vec, M, N, offs):
    mats = []
    for v in range(M.algebra.n_vertices):
        part, n = vec[offs[v] : offs[v + 1]], N.dims[v]
        mats.append(Matrix(tuple(part[i::n] for i in range(n)), M.algebra.p, M.dims[v], _checked=True))
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
            vec = (0,) * c + (1,) + (0,) * (M.dims[v] - c - 1)
            verts.append(v)
            gens.append(vec)
    F = A.free_module(verts)
    pi = F.map_from_generators(M, gens)
    if not pi.is_surjective():
        raise CertificateFailed("projective cover construction failed to surject")
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
        for col in m.columns():
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
                    raise CertificateFailed("resolution differential escapes the radical")
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
    hi_off = _offsets(N.dims[v] for v in F_hi.verts)
    lo_off = _offsets(N.dims[v] for v in F_lo.verts)
    out = [[0] * lo_off[-1] for _ in range(hi_off[-1])]
    for s2, v2 in enumerate(F_hi.verts):
        gen = F_hi.gen_coord[s2]
        for (s1, k), row in zip(F_lo.layout[v2], d.mats[v2].a):
            c = row[gen]
            if c:
                base = lo_off[s1]
                for r, pa_row in enumerate(N.path_action(A.paths[k], A.src[k]).a, hi_off[s2]):
                    out_row = out[r]
                    for x, y in enumerate(pa_row, base):
                        out_row[x] += c * y
    return Matrix(out, p, lo_off[-1])


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


def _endo_power(mats, total_dim):
    e = list(mats)
    for _ in range(max(1, total_dim.bit_length())):
        e = [m @ m for m in e]
    return e


def _try_split(M, mats):
    """Fitting split along an endomorphism, or None if it is nilpotent/invertible."""
    e = _endo_power(mats, M.total_dim)
    ranks = [m.rank() for m in e]
    if sum(ranks) == 0 or sum(ranks) == M.total_dim:
        return None
    ims = tuple(m.image() for m in e)
    kers = tuple(m.kernel() for m in e)
    M1, _ = M.sub(ims)
    M2, _ = M.sub(kers)
    if M1.total_dim + M2.total_dim != M.total_dim:
        raise CertificateFailed("Fitting decomposition dimensions inconsistent")
    return M1, M2


_SPLIT_SEARCH_DIM = 12  # the last-resort splitter search enumerates End(M) only up to this dimension


def _find_splitter(M, ends):
    """A Fitting split of M along some endomorphism, or None if M is indecomposable.

    A local End(M) has no splitting element, so only a non-local one that no
    basis element or pairwise sum splits falls through to the full search.
    """
    for phi in ends:
        split = _try_split(M, phi.mats)
        if split:
            return split
    if _local_radical(M, ends) is not None:
        return None
    d = len(ends)
    for i in range(d):
        for j in range(i + 1, d):
            mats = [a + b for a, b in zip(ends[i].mats, ends[j].mats)]
            split = _try_split(M, mats)
            if split:
                return split
    p = M.algebra.p
    if d > _SPLIT_SEARCH_DIM:
        raise EndTooLarge(
            f"endomorphism ring has {p}^{d} elements, beyond the search bound {p}^{_SPLIT_SEARCH_DIM}"
        )
    nv = M.algebra.n_vertices
    for coeffs in itertools.product(range(p), repeat=d):
        if sum(c != 0 for c in coeffs) < 2:
            continue
        mats = [
            sum((e.mats[v].scale(c) for c, e in zip(coeffs, ends)), Matrix.zeros(*ends[0].mats[v].shape, p))
            for v in range(nv)
        ]
        split = _try_split(M, mats)
        if split:
            return split
    return None


def decompose(M):
    """Krull-Schmidt decomposition [(indecomposable, multiplicity), ...].

    Splits M along the stable image/kernel of an endomorphism that is
    neither nilpotent nor invertible (Fitting), recursing, and stops at a
    summand whose endomorphism ring ``_local_radical`` certifies local.
    """
    if M.is_zero():
        return []
    parts = []

    def rec(X):
        ends = hom(X, X)
        if len(ends) == 1:
            parts.append(X)
            return
        split = _find_splitter(X, ends)
        if split is None:
            parts.append(X)
            return
        rec(split[0])
        rec(split[1])

    rec(M)
    grouped = []
    for X in parts:
        for k, (rep, mult) in enumerate(grouped):
            if _isomorphic_indecomposables(X, rep):
                grouped[k] = (rep, mult + 1)
                break
        else:
            grouped.append((X, 1))
    grouped.sort(key=lambda rm: (rm[0].total_dim, rm[0].dims, rm[0].key()))
    return grouped


def modules_isomorphic(M, N):
    """Whether M and N are isomorphic.

    By Krull-Schmidt they are iff their indecomposable summands match with
    multiplicities.  ``decompose`` lists pairwise non-isomorphic summands,
    so a match of each summand of M is a bijection, and
    ``_isomorphic_indecomposables`` decides each match without a search.
    """
    if M.algebra is not N.algebra or M.dims != N.dims:
        return False
    left, right = decompose(M), decompose(N)
    return len(left) == len(right) and all(
        any(m == n and _isomorphic_indecomposables(X, Y) for Y, n in right) for X, m in left
    )


# -- extensions and the Auslander-Reiten translate -------------------------------


def ext1_space(X, Y):
    """(cocycles, boundaries) whose quotient is Ext^1(X, Y).

    Both are subspaces of Hom(F_1, Y) in generator coordinates, for the
    minimal projective resolution F_2 -> F_1 -> F_0 -> X.
    """
    p = X.algebra.p
    (F0, _, _, _), (F1, d1, _, _), (F2, d2, _, _) = _resolution_stages(X, 2)[:3]
    dim1 = F1.hom_space_dim(Y)
    if F1.is_zero() or Y.is_zero():
        return Subspace.zero(dim1, p), Subspace.zero(dim1, p)
    D2 = _delta_matrix(F2, F1, d2, Y) if not F2.is_zero() else Matrix.zeros(0, dim1, p)
    cocycles = D2.kernel() if D2.rows else Subspace.full(dim1, p)
    D1 = _delta_matrix(F1, F0, d1, Y)
    boundaries = D1.image() if D1.cols else Subspace.zero(dim1, p)
    return cocycles, boundaries


def extension_middle(X, Y, cocycle):
    """The middle term E of the extension 0 -> Y -> E -> X -> 0 of a cocycle.

    ``cocycle`` is a vector of ``ext1_space(X, Y)``; E is the pushout
    (Y + F_0)/{(g(z), -d_1(z))} of F_1 -> F_0 along the map g it defines.
    """
    p = X.algebra.p
    (F0, _, _, _), (F1, d1, _, _) = _resolution_stages(X, 1)[:2]
    offs = _offsets(Y.dims[v] for v in F1.verts)
    cocycle = [int(x) % p for x in cocycle]
    g = F1.map_from_generators(Y, [cocycle[offs[s] : offs[s + 1]] for s in range(len(F1.verts))])
    relations = [vstack([g.mats[v], -d1.mats[v]]).image() for v in range(X.algebra.n_vertices)]
    return Y.direct_sum(F0.module).quotient(relations)[0]


def _transpose(M):
    """The Auslander-Bridger transpose Tr M, a module over the opposite algebra.

    A minimal presentation F_1 -> F_0 -> M -> 0 is a matrix of algebra
    elements: generator s of F_1 goes to a sum of c * k, k a basis element
    in summand t of F_0.  Hom(-, A) turns it into F_0* -> F_1*, the same
    entries read in the opposite algebra with s and t swapped, and Tr M is
    its cokernel.  Tr M is zero exactly when M is projective.
    """
    (F0, _, _, _), (F1, d1, _, _) = _resolution_stages(M, 1)[:2]
    op = M.algebra.opposite()
    P0, P1 = op.free_module(F0.verts), op.free_module(F1.verts)
    pos = [{sk: i for i, sk in enumerate(layout)} for layout in P1.layout]
    gen_images = [[0] * P1.module.dims[v] for v in F0.verts]
    for s, v in enumerate(F1.verts):
        for row, (t, k) in zip(d1.mats[v].a, F0.layout[v]):
            gen_images[t][pos[F0.verts[t]][(s, k)]] = row[F1.gen_coord[s]]
    image = P0.map_from_generators(P1.module, gen_images).image_subspaces()
    return P1.module.quotient(image)[0]


def tau(M):
    """The Auslander-Reiten translate D Tr M (zero when M is projective)."""
    return _transpose(M).dual()


def tau_inverse(M):
    """The inverse translate Tr D M (zero when M is injective)."""
    return _transpose(M.dual())


def _scalar_power(f, q):
    """The c with f^q = c * id on every vertex, or None."""
    p = f.source.algebra.p
    c = None
    for m in f.mats:
        if not m.rows:
            continue
        one = Matrix.identity(m.rows, p)
        r, base, e = one, m, q
        while e:
            if e & 1:
                r = r @ base
            base = base @ base
            e >>= 1
        c = r.a[0][0] if c is None else c
        if r != one.scale(c):
            return None
    return c


def _local_radical(X, ends):
    """rad End(X) as a spanning list of per-vertex matrices, or None.

    ``ends`` is a basis of End(X) and q = p^s >= dim X.  Every f in it must
    have f^q = c id; the f - c id then span a subspace R with End(X) =
    F_p id + R.  R must also be closed under products, with R^m = 0 for
    some m: each power R^(k+1) = R R^k lies strictly inside R^k until it
    is 0.  Then R is a nilpotent ideal, so R lies in the radical J, and
    End(X)/R = F_p is a field, so R = J and End(X) is local.  Conversely,
    if End(X) is local with residue field F_p, each f is c id + j with j in
    J, and as c id and j commute, f^q = c^q id + j^q = c id; so the f - c id
    lie in J, span it with id, and pass.  By Fitting's lemma and
    Krull-Schmidt, None thus means X is decomposable or its residue field
    is larger than F_p.
    """
    p = X.algebra.p
    q = p
    while q < X.total_dim:
        q *= p
    rad = []
    for f in ends:
        c = _scalar_power(f, q)
        if c is None:
            return None
        rad.append([m - Matrix.identity(m.rows, p).scale(c) for m in f.mats])
    offs = _offsets(d * d for d in X.dims)

    def flat(mats):
        return tuple(x for m in mats for row in m.a for x in row)

    def unflat(row):
        return [
            Matrix(tuple(row[o + i * d : o + (i + 1) * d] for i in range(d)), p, d, _checked=True)
            for o, d in zip(offs, X.dims)
        ]

    power = Subspace.from_rows([flat(r) for r in rad], offs[-1], p)
    while power.dim:
        rows = [unflat(row) for row in power.basis]
        nxt = Subspace.from_rows([flat([a @ b for a, b in zip(r, s)]) for r in rad for s in rows], power.ambient, p)
        if nxt.dim == power.dim or not nxt <= power:
            return None
        power = nxt
    return rad


def _almost_split_middle(X, Z):
    """The middle term E of the almost split sequence 0 -> X -> E -> Z -> 0.

    X is indecomposable and not injective, and Z = tau^{-1} X.  The
    sequence is the class of Ext^1(Z, X) in the socle of Ext^1 as an
    End(X)-module (postcomposition), cut out by ``_local_radical``; when X
    is a brick every nonzero class is in the socle.  An End(X) that is not
    local with residue field F_p fails the certificate the knitting (and
    ``mesh_hom_dims``) relies on, and raises CertificateFailed.
    """
    p = X.algebra.p
    cocycles, boundaries = ext1_space(Z, X)
    C = cocycles.matrix()
    ends = hom(X, X)
    if len(ends) > 1:
        rad = _local_radical(X, ends)
        if rad is None:
            raise CertificateFailed(f"End of the module with dimension vector {X.dims} is not local over F_p")
        F1 = _resolution_stages(Z, 1)[1][0]
        offs = _offsets(X.dims[v] for v in F1.verts)
        Q = boundaries.matrix().kernel().matrix()  # Q x = 0 iff x is a boundary
        blocks = [
            Matrix(tuple(row[offs[s] : offs[s + 1]] for row in C.a), p, X.dims[v], _checked=True).T
            for s, v in enumerate(F1.verts)
        ]
        # r in rad End(X) postcomposes each generator's image of a cocycle
        conds = [Q @ vstack([r[v] @ b for b, v in zip(blocks, F1.verts)]) for r in rad]
        C = vstack(conds).kernel().matrix() @ C
    for xi in C.a:
        if not boundaries.contains_vector(xi):
            return extension_middle(Z, X, xi)
    raise CertificateFailed(f"Ext^1(tau^-1 X, X) has no socle class for X of dimension vector {X.dims}")


# -- enumeration of indecomposables -------------------------------------------


def _isomorphic_indecomposables(X, Y):
    """Whether indecomposables X and Y are isomorphic, without a search.

    If phi: X -> Y is an isomorphism, phi^-1 f lies in the local ring End(X)
    for every f in Hom(X, Y); were no basis element f bijective, all of
    phi^-1 Hom(X, Y) would lie in rad End(X), yet it holds the identity.
    """
    if X.dims != Y.dims:
        return False
    return any(all(m.rank() == d for m, d in zip(f.mats, X.dims)) for f in hom(X, Y))


def _radical_summands(P):
    return [M for M, _ in decompose(P.sub(P.radical())[0])]


ARQuiver = namedtuple("ARQuiver", ["tau", "tau_inverse", "middle", "projectives", "injectives"])
ARQuiver.__doc__ = """The Auslander-Reiten data of an indecomposable list, by list index.

``tau[i]`` and ``tau_inverse[i]`` are indices, or None for a projective and
an injective; ``middle[i]`` maps each summand of the middle term of the
almost split sequence ending at M_i to its multiplicity (empty when M_i is
projective); ``projectives[v]`` and ``injectives[v]`` are P(v) and I(v).
"""


def indecomposables(A, dim_bound=2):
    """Every indecomposable module, by knitting the Auslander-Reiten quiver.

    The seeds are every P(v) and I(v) and the summands of every rad P(v)
    and I(v)/soc I(v).  The list is closed under tau^-1 = Tr D of each
    non-injective X, tau = D Tr of each non-projective Y, and the summands
    of the middle term of each almost split sequence 0 -> X -> E ->
    tau^-1 X -> 0.  It therefore holds both ends of every irreducible map
    M -> N with one end in it.  If N is in it, M is a summand of the middle
    term starting at tau N, or of rad N when N is projective.  If M is in
    it, N is a summand of the middle term starting at M; if M is injective,
    N is projective (a seed) or tau^-1 of tau N, a summand of the middle
    term ending at M or of rad M.  So the list, a finite set, is a union of
    components of the Auslander-Reiten quiver holding every projective.  By
    Auslander's theorem (1974) a finite component of the AR quiver of a
    connected algebra is the whole quiver, so the list holds every
    indecomposable of every block.

    The first indecomposable with more than ``dim_bound`` dimensions at a
    vertex raises LimitExceeded, so a returned list is certified complete;
    for a representation-infinite algebra the closure passes every bound.
    Modules of one dimension vector are told apart by
    ``_isomorphic_indecomposables``, a test that needs no search.  The list
    is sorted by total dimension, dimension vector and the ranks of the
    arrow matrices, none of which depends on a basis.  The translates and
    middle terms found on the way are kept as an ``ARQuiver`` over the
    list's indices (see ``ar_quiver``).
    """
    key = ("indecs", dim_bound)
    if key in A._cache:
        return A._cache[key]
    op = A.opposite()
    # dimension vector -> an entry [M, tau M, tau^-1 M, middle term] per module found; a
    # translate is an entry (``zero`` for the zero module) or None until known, and the
    # middle term of the almost split sequence ending at M is [(entry, multiplicity), ...],
    # one entry per summand as ``decompose`` groups isomorphic summands
    found = {}
    zero = [Module.zero(A), None, None, None]
    queue = deque()

    def push(M, tau_M=None, tau_inverse_M=None):
        if max(M.dims) > dim_bound:
            raise LimitExceeded(
                f"an indecomposable with dimension vector {list(M.dims)} exceeds the dimension bound {dim_bound}"
            )
        same = found.setdefault(M.dims, [])
        entry = next((e for e in same if _isomorphic_indecomposables(M, e[0])), None)
        if entry is None:
            entry = [M, None, None, None]
            same.append(entry)
            queue.append(entry)
        entry[1] = tau_M if entry[1] is None else entry[1]
        entry[2] = tau_inverse_M if entry[2] is None else entry[2]
        return entry

    projectives = [push(A.projective(v), tau_M=zero) for v in range(A.n_vertices)]
    injectives = [push(A.injective(v), tau_inverse_M=zero) for v in range(A.n_vertices)]
    for v in range(A.n_vertices):
        for M in _radical_summands(A.projective(v)):
            push(M)
        for M in _radical_summands(op.projective(v)):  # I(v)/soc I(v) = D rad P_op(v)
            push(M.dual())
    while queue:
        entry = queue.popleft()
        X = entry[0]
        if entry[2] is None:
            Z = tau_inverse(X)
            entry[2] = zero if Z.is_zero() else push(Z, tau_M=entry)
        if entry[2] is not zero:
            Z = entry[2]
            Z[3] = [(push(M), mult) for M, mult in decompose(_almost_split_middle(X, Z[0]))]
        if entry[1] is None:
            Y = tau(X)
            entry[1] = zero if Y.is_zero() else push(Y, tau_inverse_M=entry)
    entries = sorted(
        (entry for same in found.values() for entry in same),
        key=lambda e: (e[0].total_dim, e[0].dims, tuple(m.rank() for m in e[0].mats)),
    )
    index = {id(e): i for i, e in enumerate(entries)}
    A._cache[("ar", dim_bound)] = ARQuiver(
        tau=tuple(index.get(id(e[1])) for e in entries),
        tau_inverse=tuple(index.get(id(e[2])) for e in entries),
        middle=tuple({index[id(summand)]: mult for summand, mult in e[3] or ()} for e in entries),
        projectives=tuple(index[id(e)] for e in projectives),
        injectives=tuple(index[id(e)] for e in injectives),
    )
    out = [e[0] for e in entries]
    A._cache[key] = out
    return out


def ar_quiver(A, dim_bound=2):
    """The ``ARQuiver`` that ``indecomposables(A, dim_bound)`` knits, over its list."""
    indecomposables(A, dim_bound)
    return A._cache[("ar", dim_bound)]


def _fraction_free_solve(rows, rhs):
    """Solve rows @ X = rhs exactly over Q, by Gauss-Jordan elimination in Z.

    Each step replaces a row by an integer combination of itself and the
    pivot row, divided by its content, so no fraction arises.  Returns
    [(d, b), ...] with d * X[c] = b for each column c, or None if rows is
    singular.
    """
    from math import gcd

    n = len(rows)
    aug = [list(r) + list(b) for r, b in zip(rows, rhs)]
    pivots, free = [], set(range(n))
    for c in range(n):
        r = min((r for r in free if aug[r][c]), key=lambda r: abs(aug[r][c]), default=None)
        if r is None:
            return None
        free.remove(r)
        pivots.append(r)
        pivot, pc = aug[r], aug[r][c]
        for j, row in enumerate(aug):
            a = row[c]
            if j == r or not a:
                continue
            g = gcd(pc, a)
            s, t = pc // g, a // g
            row = [s * x - t * y for x, y in zip(row, pivot)]
            if s not in (1, -1):
                g = gcd(*row)
                row = [x // g for x in row] if g > 1 else row
            aug[j] = row
    return [(aug[r][c], aug[r][n:]) for c, r in enumerate(pivots)]


def mesh_hom_dims(indecs, ar):
    """dim Hom(M_i, M_j) over a knitted list, from its AR quiver; None when
    the Cartan matrix of the algebra is singular.

    dim Hom(P(v), Y) = (dim Y)_v.  For a non-projective Z with almost split
    sequence 0 -> X -> E -> Z -> 0, Hom(-, Y) is exact on 0 -> Hom(Z, Y) ->
    Hom(E, Y) -> Hom(X, Y), and the last map has image rad(X, Y), so its
    cokernel is 0 unless Y = X, and End(X)/rad End(X) = F_p then, which
    the knitting certifies.  Hence h(Z, -) = sum mult h(E_i, -) - h(X, -)
    + [- = X]: one k x k integer system, solved exactly over Q.

    Its determinant is +-det Cartan(A).  The system reads M H = B, where H,
    the table itself, is the Cartan matrix of the Auslander algebra, which
    has finite global dimension and so det H = +-1.  B has the unit row
    at tau Z for each non-projective Z, and h(P(v), -) for each v;
    expanding det B along the unit rows, which miss exactly the columns of
    the injectives, leaves h(P(v), I(w)), the Cartan matrix of A.  So the
    system need not be unimodular (F_p[x]/(x^4) gives 4), and it is
    singular exactly when Cartan(A) is, as for the two-cycle with rad^2 =
    0 (rank 3 of 4).  Then None is returned and Hom has to be solved pair
    by pair.

    The solution is certified: every entry is an integer >= 0, h(X, X) >= 1,
    and h(X, I(v)) = (dim X)_v for every X and v, an identity on columns
    that no row states.  A failure raises CertificateFailed.
    """
    k, dims = len(indecs), [M.dims for M in indecs]
    cartan = [list(dims[i]) for i in ar.projectives]
    if _fraction_free_solve(cartan, [[] for _ in cartan]) is None:
        return None
    vertex_of = {i: v for v, i in enumerate(ar.projectives)}
    rows, rhs = [], []
    for z in range(k):
        row, b = [0] * k, [0] * k
        row[z] = 1
        if z in vertex_of:
            b = [d[vertex_of[z]] for d in dims]
        elif ar.tau[z] is None or not ar.middle[z]:
            raise CertificateFailed(f"mesh certificate fails: no almost split sequence ends at M_{z}")
        else:
            for e, mult in ar.middle[z].items():
                row[e] -= mult
            row[ar.tau[z]] += 1
            b[ar.tau[z]] = 1
        rows.append(row)
        rhs.append(b)
    solved = _fraction_free_solve(rows, rhs)
    if solved is None:
        raise CertificateFailed("mesh certificate fails: the mesh system is singular but the Cartan matrix is not")
    table = []
    for i, (d, b) in enumerate(solved):
        if any(x % d for x in b):
            raise CertificateFailed(f"mesh certificate fails: a Hom dimension out of M_{i} is not an integer")
        row = [x // d for x in b]
        if min(row) < 0 or row[i] < 1:
            raise CertificateFailed(f"mesh certificate fails: Hom dimensions out of M_{i} are {row}")
        if [row[j] for j in ar.injectives] != list(dims[i]):
            raise CertificateFailed(f"mesh certificate fails: Hom(M_{i}, I(v)) is not (dim M_{i})_v")
        table.append(row)
    return table
