"""Reference routes that the fast torsion code is checked against.

``RrefTorsion`` computes torsion classes the way the package did before it
enumerated semibricks: a trace is row-reduced from the stacked images of a
Hom basis for every new mask, the closure alternates that generation test
with the extension test over freshly identified submodule/quotient types,
and the classes are found by breadth-first joins from the principal ones.
It shares no trace, submodule or closure code with ``ModuleContext``; it
uses only ``hom``, ``Module.all_submodules``/``sub``/``quotient`` and the
context's ``identify_mask``.
"""

import numpy as np

from torscat.algebra import hom
from torscat.linalg import Subspace
from torscat.poset import bits


class RrefTorsion:
    def __init__(self, ctx):
        self.ctx = ctx
        self._hom = {}
        self._trace = {}
        self._pairs = {}

    def homs(self, i, j):
        if (i, j) not in self._hom:
            self._hom[i, j] = hom(self.ctx.indecs[i], self.ctx.indecs[j])
        return self._hom[i, j]

    def trace_subspaces(self, j, mask):
        """Per-vertex row space of the images of all maps from mask into M_j."""
        relevant = sum(1 << i for i in bits(mask) if self.homs(i, j))
        key = (j, relevant)
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

    def subquot_pairs(self, j):
        if j not in self._pairs:
            X, ident = self.ctx.indecs[j], self.ctx.identify_mask
            self._pairs[j] = {(ident(X.sub(s)[0]), ident(X.quotient(s)[0])) for s in X.all_submodules()}
        return self._pairs[j]

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
