"""Outside-in tracing of torscat's layers for the benchmark's traced pass.

The program is not instrumented.  ``Tracer.install`` wraps public functions
and methods of the ``torscat`` modules after import: a module-level function
is replaced in every ``torscat.*`` namespace that holds the same object
(``from .x import y`` and ``_rref = rref`` make copies of the name), and a
method is replaced on its class.

A span wrapper times each call.  Spans nest on a stack; when one closes, its
duration minus the time its child spans covered is added to its group's
self time, and the call is recorded on the (parent, child) edge.  Functions
called hundreds of thousands of times per run get count-only wrappers.

A target that is missing from the code (renamed or removed by a later
commit) is skipped and listed in ``absent``; metrics that depend only on
missing targets are left out, and the run carries on.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``name`` gets the call count; ``group`` (default ``name``) gets the self
    time, and so does the layer, the group's first component.  ``watch``
    counts the calls during which some ``marks`` target ran, as misses of
    this target's cache.  ``tally`` names a metric and a function of
    (args, result) whose values are summed over calls.
    """

    module: str
    attr: str
    name: str
    group: str = ""
    count_only: bool = False
    count: str = "calls"
    watch: bool = False
    marks: str = ""
    tally: tuple = ()


def _rref_ops(args, result):
    rows, cols = args[0].shape[:2]
    return rows * cols * min(rows, cols)


def _order_elements(args, result):
    return len(args[1])  # from_order(cls, up, ...)


def _classes(args, result):
    return result.n


def _targets():
    T = Target
    la, al, to, lt = "torscat.linalg", "torscat.algebra", "torscat.torsion", "torscat.lattice"
    out = [
        T("torscat._kernels", "rref", "linalg.rref", tally=("linalg.rref.ops", _rref_ops)),
        T(la, "Matrix.__init__", "linalg.matrix", count_only=True, count="constructions"),
        *(T(la, a, "linalg.space") for a in ("Subspace.from_rows", "solve", "Matrix.kernel", "Matrix.image")),
        T(al, "indecomposables", "algebra.indecomposables"),
        T(al, "hom", "algebra.hom"),
        T(al, "decompose", "algebra.decompose", marks="torsion.identify"),
        *(T(al, a, "algebra.submodules") for a in ("Module.all_submodules", "Module.sub", "Module.quotient")),
        *(T(al, a, "algebra.homological") for a in (
            "ext", "min_resolution", "syzygy", "cosyzygy", "projective_cover", "injective_envelope")),
        *(T(al, a, "algebra.build") for a in (
            "incidence_algebra", "path_algebra_An", "two_cycle_algebra", "Algebra.from_json")),
        T(al, "modules_isomorphic", "algebra.isomorphic"),
        T(to, "ModuleContext.torsion_closure_mask", "torsion.closure"),
        T(to, "ModuleContext.gen_test", "torsion.gen_test", count_only=True, watch=True),
        T(to, "ModuleContext.trace_subspaces", "torsion.trace", marks="torsion.gen_test"),
        T(to, "ModuleContext.identify", "torsion.identify", watch=True),
        T(to, "ModuleContext.subquot_pairs", "torsion.subquot_pairs", count_only=True),
        T(to, "ModuleContext.certify_torsion_class", "torsion.certify"),
        T(to, "enumerate_torsion_pairs", "torsion.enumerate", tally=("torsion.classes", _classes)),
        *(T(to, a, "torsion.predicates") for a in (
            "is_omega_n", "is_hereditary", "is_cohereditary", "is_split", "is_serre", "torsion_lattice_report")),
        *(T(to, a, "torsion.omega") for a in ("omega_lattice_via_simples", "omega_lattice_from_digraph")),
        *(T(to, a, "torsion.verify") for a in (
            "verify_tamari_congruence_iso", "verify_dyck_omega_iso", "verify_two_cycle_example")),
        T(lt, "FinLattice.from_order", "lattice.from_order",
          tally=("lattice.from_order.elements", _order_elements)),
        *(T(lt, a, "lattice.predicates") for a in ("FinLattice.is_distributive", "FinLattice.is_semidistributive")),
        T(lt, "principal_congruence", "lattice.principal_congruence", group="lattice.congruences"),
        *(T(lt, a, "lattice.congruences") for a in ("all_congruences", "congruence_lattice", "forcing_poset")),
        T(lt, "lattice_isomorphic", "lattice.iso"),
        T(lt, "FinLattice.to_json", "lattice.to_json"),
        T("torscat.catalan", "dyck_lattice", "catalan.dyck"),
        T("torscat.catalan", "tamari_lattice", "catalan.tamari"),
        T("torscat.catalan", "typeA_torsion_lattice", "catalan.typeA"),
        *(T("torscat.poset", a, "poset.build") for a in (
            "interval_poset", "Poset.from_leq_pairs", "Poset._validate", "transitive_closure")),
        T("torscat.poset", "poset_isomorphic", "poset.iso"),
    ]
    return out


TARGETS = _targets()
ROOT = "cli"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Wraps the targets, keeps the open spans and adds up what they measured."""

    def __init__(self):
        self.calls = Counter()
        self.misses = Counter()
        self.tallies = Counter()
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, seconds]
        self.installed = []
        self.absent = []
        self._stack = []  # open spans: [group, child seconds]
        self._missed = {}  # watched name -> whether the open call missed

    # -- installation ---------------------------------------------------------

    def install(self, targets=TARGETS):
        namespaces = [m for n, m in list(sys.modules.items()) if n == "torscat" or n.startswith("torscat.")]
        for t in targets:
            owner = sys.modules.get(t.module)
            *path, attr = t.attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if inspect.isgeneratorfunction(func) or not callable(func):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            wrapped = functools.wraps(func)(self._wrapper(func, t))
            if isinstance(owner, type):
                setattr(owner, attr, type(raw)(wrapped) if func is not raw else wrapped)
            else:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            setattr(ns, key, wrapped)
            self.installed.append(t)
            if t.watch:
                self._missed[t.name] = False

    def _wrapper(self, fn, t):
        calls, name = self.calls, t.name
        if t.count_only and not t.watch:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if t.count_only:
            missed, misses = self._missed, self.misses

            def watched(*args, **kwargs):
                calls[name] += 1
                outer = missed[name]
                missed[name] = False
                try:
                    return fn(*args, **kwargs)
                finally:
                    if missed[name]:
                        misses[name] += 1
                    missed[name] = outer

            return watched
        return self._span_wrapper(fn, t)

    def _span_wrapper(self, fn, t):
        calls, misses, missed, tallies = self.calls, self.misses, self._missed, self.tallies
        self_s, edges, stack = self.self_s, self.edges, self._stack
        name, group, marks, watch = t.name, t.group or t.name, t.marks, t.watch
        tally_name, tally_fn = t.tally or (None, None)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if watch:
                outer = missed[name]
                missed[name] = False
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[group] += dur - frame[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else None, group)]
                edge[0] += 1
                edge[1] += dur
                if parent:
                    parent[1] += dur
                if marks in missed:
                    missed[marks] = True
                if watch:
                    if missed[name]:
                        misses[name] += 1
                    missed[name] = outer
            if tally_fn:
                tallies[tally_name] += tally_fn(args, result)
            return result

        return span

    # -- the traced call --------------------------------------------------------

    def run(self, fn, *args):
        """Call fn as the root span; returns (result, inclusive seconds)."""
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            total = time.perf_counter() - start
            self._stack.pop()
            self.self_s[ROOT] += total - frame[1]
            self.calls[ROOT] += 1
        return result, total

    # -- results ----------------------------------------------------------------

    def snapshot(self, total):
        """Raw aggregates after one root call of ``total`` seconds.

        Snapshots of several commands are added with ``merge`` before
        ``layer_metrics`` derives ratios from the sums.
        """
        return {
            "total": total,
            "calls": dict(self.calls),
            "misses": dict(self.misses),
            "tallies": dict(self.tallies),
            "self_s": dict(self.self_s),
            "installed": sorted({f"{t.module}:{t.attr}" for t in self.installed}),
            "absent": self.absent,
        }

    def tree(self):
        """The (parent, child) edges with call counts and inclusive seconds."""
        return [
            {"parent": p or "", "child": c, "calls": n, "seconds": s}
            for (p, c), (n, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def merge(snapshots):
    out = {"total": 0.0, "calls": Counter(), "misses": Counter(), "tallies": Counter(),
           "self_s": Counter(), "installed": set(), "absent": set()}
    for snap in snapshots:
        out["total"] += snap["total"]
        for key in ("calls", "misses", "tallies", "self_s"):
            out[key].update(snap[key])
        out["installed"].update(snap["installed"])
        out["absent"].update(snap["absent"])
    return out


def layer_metrics(snap):
    """Per-layer metrics from a snapshot or a merge of snapshots."""
    calls, self_s = snap["calls"], snap["self_s"]
    installed = [t for t in TARGETS if f"{t.module}:{t.attr}" in snap["installed"]]
    names = {t.name for t in installed}
    out = {}
    for t in installed:
        out[f"{t.name}.{t.count}"] = calls.get(t.name, 0)
        if not t.count_only:
            out[f"{t.group or t.name}.self_s"] = self_s.get(t.group or t.name, 0.0)
        if t.tally:
            out[t.tally[0]] = snap["tallies"].get(t.tally[0], 0)
        if t.marks in names:
            n = calls.get(t.marks, 0)
            out[f"{t.marks}.hit_ratio"] = _ratio(n - snap["misses"].get(t.marks, 0), n)
    layers = defaultdict(float)
    for group in {t.group or t.name for t in installed if not t.count_only} | {ROOT}:
        layers[group.split(".")[0]] += self_s.get(group, 0.0)
    for layer, seconds in layers.items():
        out[f"{layer}.self_s"] = seconds
    if "torsion.closure" in names and "torsion.classes" in out:
        out["torsion.closure.useful_ratio"] = _ratio(out["torsion.classes"], calls.get("torsion.closure", 0))
    out["trace.covered_ratio"] = _ratio(snap["total"] - self_s.get(ROOT, 0.0), snap["total"])
    return out
