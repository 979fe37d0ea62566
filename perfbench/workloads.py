"""The benchmark's workloads: the torscat commands they run, the inputs the
seed generates for them, and the counts every answer must reproduce.

Seed 0 passes the built-in specs (``int:3``, ``An:6``, ...) exactly as a user
would type them.  Any other seed writes the same algebra or poset to a JSON
file with vertex/element order and arrow order shuffled by the seed, and the
command reads that file; the counts must not change.  Commands that take only
a size, or no input, run unchanged on every seed.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """A seeded command argument: an algebra or poset spec.

    ``field`` is the prime the algebra is written over; it fixes the
    relation coefficients in the JSON form (commutativity relations of an
    incidence algebra read ``path - other``, and -1 depends on p).
    """

    kind: str  # "algebra" or "poset"
    spec: str
    field: int = 2

    def resolve(self, seed, workdir):
        if seed == 0:
            return self.spec
        rng = random.Random(f"{self.kind}:{self.spec}:{self.field}:{seed}")
        if self.kind == "algebra":
            data = _shuffled_algebra(self.spec, self.field, rng)
        else:
            data = _shuffled_poset(self.spec, rng)
        name = f"{self.kind}-{self.spec.replace(':', '')}-p{self.field}-seed{seed}.json"
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def _builtin_poset(spec):
    from torscat.poset import interval_poset

    kind, n = spec.split(":")
    if kind != "int":
        raise ValueError(f"no seeded form for poset spec {spec!r}")
    return interval_poset(int(n))


def _builtin_algebra(spec, p):
    from torscat.algebra import incidence_algebra, path_algebra_An

    kind, n = spec.split(":")
    if kind == "An":
        return path_algebra_An(int(n), p=p)
    return incidence_algebra(_builtin_poset(spec), p=p)


def _permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm  # perm[old] = new


def _shuffled_algebra(spec, p, rng):
    data = _builtin_algebra(spec, p).to_json()
    perm = _permutation(len(data["vertices"]), rng)
    vertices = [None] * len(perm)
    for old, new in enumerate(perm):
        vertices[new] = data["vertices"][old]
    arrows = [{**a, "src": perm[a["src"]], "tgt": perm[a["tgt"]]} for a in data["arrows"]]
    rng.shuffle(arrows)
    return {**data, "vertices": vertices, "arrows": arrows}


def _shuffled_poset(spec, rng):
    data = _builtin_poset(spec).to_json()
    perm = _permutation(len(data["elements"]), rng)
    elements = [None] * len(perm)
    for old, new in enumerate(perm):
        elements[new] = data["elements"][old]
    leq = sorted([perm[i], perm[j]] for i, j in data["leq"])
    return {"elements": elements, "leq": leq}


# -- golden counts --------------------------------------------------------------
#
# Each pattern's first group is compared, as text, with the expected value.
# Counts are compared rather than raw lines because seeded runs echo the
# JSON path in the header.

TORS = {
    "indecomposables": r"(\d+) indecomposables",
    "pairs": r"(\d+) torsion pairs",
    "omega": r"\bomega: (\d+)",
    "omega_2": r"\bomega_2: (\d+)",
    "hereditary": r"\bhereditary: (\d+)",
    "cohereditary": r"\bcohereditary: (\d+)",
    "split": r"\bsplit: (\d+)",
    "semidistributive": r"\bsemidistributive: (\w+)",
}
CATALAN = {
    "size": r"size (\d+)",
    "distributive": r"\bdistributive: (\w+)",
    "semidistributive": r"\bsemidistributive: (\w+)",
}
TYPEA = {**CATALAN, "isomorphic_to_tamari_next": r"isomorphic to tamari next: (\w+)"}
OMEGA = {"size": r"size (\d+)", "distributive": r"\bdistributive: (\w+)"}
THM2 = {
    "status": r"thm2 n=\d+: (\w+)",
    "congruences": r"congruences of the Tamari lattice: (\d+)",
    "dyck": r"Dyck lattice size: (\d+)",
    "forcing": r"forcing poset size: (\d+)",
}
PROP_MAIN = {"status": r"prop-main: (\w+)"}


def _tors(ind, pairs, omega, omega2, her, coher, split, semi):
    values = (ind, pairs, omega, omega2, her, coher, split, semi)
    return dict(zip(TORS, map(str, values)))


@dataclass(frozen=True)
class Command:
    argv: tuple  # strings and Inputs
    patterns: dict
    expect: dict

    def label(self):
        return " ".join(a.spec if isinstance(a, Input) else a for a in self.argv)

    def resolve(self, seed, workdir):
        return [a.resolve(seed, workdir) if isinstance(a, Input) else a for a in self.argv]

    def counts(self, stdout):
        """The values the patterns find in stdout (None where one is missing)."""
        out = {}
        for key, pattern in self.patterns.items():
            m = re.search(pattern, stdout)
            out[key] = m.group(1) if m else None
        return out


# Workload name -> the commands one pass runs, in order.  Why each workload
# exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "tors-int3": (
        Command(("tors", Input("algebra", "int:3")), TORS, _tors(35, 808, 14, 239, 64, 64, 158, True)),
    ),
    "lattices": (
        Command(("catalan", "dyck", "7"), CATALAN,
                {"size": "429", "distributive": "True", "semidistributive": "True"}),
        Command(("catalan", "tamari", "7"), CATALAN,
                {"size": "429", "distributive": "False", "semidistributive": "True"}),
        Command(("catalan", "typeA", "6"), TYPEA,
                {"size": "429", "distributive": "False", "semidistributive": "True",
                 "isomorphic_to_tamari_next": "yes"}),
        Command(("omega", Input("poset", "int:6")), OMEGA, {"size": "429", "distributive": "True"}),
        Command(("verify", "thm2", "--n", "6"), THM2,
                {"status": "PASS", "congruences": "132", "dyck": "132", "forcing": "15"}),
    ),
    "modules-f3": (
        Command(("--field", "3", "verify", "prop-main"), PROP_MAIN, {"status": "PASS"}),
        Command(("--field", "3", "tors", Input("algebra", "int:2", 3)), TORS,
                _tors(6, 14, 5, 14, 8, 8, 9, True)),
        # --dim-bound 1 is complete for A_n (thin indecomposables), not for int:n.
        Command(("--field", "3", "--dim-bound", "1", "tors", Input("algebra", "An:6", 3)), TORS,
                _tors(21, 429, 7, 429, 64, 64, 64, True)),
    ),
}
