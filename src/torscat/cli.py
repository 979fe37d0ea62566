"""Command-line interface: every count and verification as a subcommand.

Exit codes: 0 all checks passed, 1 a verification or an internal
certificate failed, 2 usage error, 3 a budget or search limit was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    Algebra,
    AlgebraError,
    CertificateFailed,
    LimitExceeded,
    incidence_algebra,
    path_algebra_An,
    two_cycle_algebra,
)
from .catalan import dyck_lattice, tamari_lattice, typeA_torsion_lattice
from .lattice import FinLattice, is_congruence_uniform
from .linalg import MAX_PRIME
from .poset import Poset, interval_poset
from .torsion import (
    BudgetExceeded,
    ModuleContext,
    VerificationFailed,
    enumerate_torsion_pairs,
    is_cohereditary,
    is_hereditary,
    is_omega_n,
    is_serre,
    omega_lattice_via_simples,
    torsion_lattice_report,
    torsion_lattice_to_dot,
    verify_dyck_omega_iso,
    verify_tamari_congruence_iso,
    verify_two_cycle_example,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_KIND_BOUNDS = {"dyck": (1, 8), "tamari": (1, 8), "typeA": (1, 7)}


class UsageError(Exception):
    pass


def parse_poset_spec(spec, opposite=False):
    if spec.startswith("int:"):
        P = interval_poset(int(spec.split(":", 1)[1]))
    elif spec.startswith("chain:"):
        P = Poset.chain(int(spec.split(":", 1)[1]))
    elif spec.startswith("antichain:"):
        P = Poset.antichain(int(spec.split(":", 1)[1]))
    else:
        with open(spec) as fh:
            P = Poset.from_json(json.load(fh))
    return P.opposite() if opposite else P


def parse_algebra_spec(spec, p=2, opposite=False):
    if spec == "example":
        A = two_cycle_algebra(p=p)
    elif spec.startswith("An:"):
        A = path_algebra_An(int(spec.split(":", 1)[1]), p=p)
    elif spec.startswith(("int:", "chain:", "antichain:")):
        return incidence_algebra(parse_poset_spec(spec, opposite), p=p)
    else:
        with open(spec) as fh:
            A = Algebra.from_json(json.load(fh), p=p)
    return A.opposite() if opposite else A


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    if args.dot and payload.get("dot"):
        with open(args.dot, "w") as fh:
            fh.write(payload["dot"])
        if not args.json:
            print(f"wrote DOT to {args.dot}")


def cmd_catalan(args):
    n = args.n
    lo, hi = _KIND_BOUNDS[args.kind]
    if not lo <= n <= hi:
        raise UsageError(f"{args.kind} supports {lo} <= n <= {hi}, got {n}")
    if args.kind == "dyck":
        L = dyck_lattice(n)
        extra = {}
    elif args.kind == "tamari":
        L = tamari_lattice(n)
        extra = {"congruence_uniform": bool(is_congruence_uniform(L))}
    else:
        L = typeA_torsion_lattice(n)  # raises VerificationFailed unless it maps onto tamari_lattice(n + 1)
        extra = {"isomorphic_to_tamari_next": True}
    payload = {
        "kind": args.kind,
        "n": n,
        "size": L.n,
        "distributive": bool(L.is_distributive()),
        "semidistributive": bool(L.is_semidistributive()),
        "lattice": L.to_json() if args.json else None,
        "dot": L.to_dot(name=args.kind) if args.dot else None,
        **extra,
    }
    lines = [f"{args.kind} {n}: size {L.n}",
             f"  distributive: {payload['distributive']}",
             f"  semidistributive: {payload['semidistributive']}"]
    for k, v in extra.items():
        lines.append(f"  {k.replace('_', ' ')}: {'yes' if v is True else 'no' if v is False else v}")
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_omega(args):
    P = parse_poset_spec(args.poset, args.op)
    A = incidence_algebra(P, p=args.field)
    if args.n_pred == 1:
        L = omega_lattice_via_simples(A)
        route = "successor-closed subsets of simples"
    else:
        ctx = ModuleContext.for_algebra(A, args.dim_bound)
        TL = enumerate_torsion_pairs(ctx, class_cap=args.cap, time_budget=args.budget)
        keep = [i for i, pr in enumerate(TL.pairs) if is_omega_n(pr, args.n_pred)]
        L = FinLattice.from_sets([TL.pairs[i].tors_mask for i in keep], [TL.labels[i] for i in keep])
        route = f"full enumeration filtered by the omega_{args.n_pred} predicate"
    payload = {
        "poset_size": P.n,
        "n_pred": args.n_pred,
        "size": L.n,
        "distributive": bool(L.is_distributive()),
        "lattice": L.to_json() if args.json else None,
        "dot": L.to_dot(name="omega") if args.dot else None,
        "route": route,
    }
    lines = [f"omega_{args.n_pred} lattice: size {L.n} ({route})",
             f"  distributive: {payload['distributive']}"]
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_verify(args):
    target = args.target
    if target == "example":
        rep = verify_two_cycle_example(p=args.field)
        lines = [
            "example: PASS",
            f"  indecomposables: {rep['indecomposables']}",
            f"  torsion pairs: {rep['torsion_pairs']}",
            f"  omega pairs: {rep['omega']}",
            f"  omega_2 pairs: {rep['omega2']}",
            f"  global dimension: {rep['global_dimension']}",
        ]
        _emit(args, lines, {"target": "example", "status": "PASS", **rep})
        return EXIT_OK
    if target == "thm1":
        n = 3 if args.n is None else args.n
        rep = verify_dyck_omega_iso(n, via="engine" if n <= 4 else "simples", dim_bound=args.dim_bound)
        lines = [f"thm1 n={n}: PASS (both lattices have {rep['dyck_size']} elements)"]
        if "engine_size" in rep:
            lines.append(f"  engine route: {rep['engine_size']} omega pairs out of {rep['torsion_pairs']} torsion pairs")
        _emit(args, lines, {"target": "thm1", "status": "PASS", **rep})
        return EXIT_OK
    if target == "thm2":
        n = 3 if args.n is None else args.n
        rep = verify_tamari_congruence_iso(n)
        lines = [
            f"thm2 n={n}: PASS",
            f"  congruences of the Tamari lattice: {rep['con_size']}",
            f"  Dyck lattice size: {rep['dyck_size']}",
            f"  forcing poset size: {rep['forcing_size']}",
        ]
        _emit(args, lines, {"target": "thm2", "status": "PASS", **rep})
        return EXIT_OK
    if target in ("prop-main", "lemma-omega"):
        reports = []
        for name, A in (("example", two_cycle_algebra(p=args.field)),
                        ("int:2", incidence_algebra(interval_poset(2), p=args.field))):
            ctx = ModuleContext.for_algebra(A, args.dim_bound)
            TL = enumerate_torsion_pairs(ctx, class_cap=args.cap, time_budget=args.budget)
            for pr in TL.pairs:
                if target == "prop-main":
                    for k in (1, 2):
                        routes = {r: is_omega_n(pr, k, r) for r in ("ext", "syzygy", "cosyzygy")}
                        if len(set(routes.values())) != 1:
                            raise VerificationFailed(
                                "omega routes disagree",
                                {"algebra": name, "class": pr.tors_mask, "n": k, "routes": routes},
                            )
                else:
                    w = is_omega_n(pr, 1)
                    hc = is_hereditary(pr) and is_cohereditary(pr)
                    serre = is_serre(ctx, pr.tors_mask) and is_serre(ctx, pr.free_mask)
                    if not (w == hc == serre):
                        raise VerificationFailed(
                            "omega/hereditary/Serre equivalence fails",
                            {"algebra": name, "class": pr.tors_mask},
                        )
            reports.append({"algebra": name, "pairs": TL.n})
        what = "four syzygy/ext conditions" if target == "prop-main" else "n=1 equivalences"
        lines = [f"{target}: PASS ({what} on {' + '.join(r['algebra'] for r in reports)})"]
        _emit(args, lines, {"target": target, "status": "PASS", "checked": reports})
        return EXIT_OK
    raise AssertionError(f"unknown target {target}")


def cmd_module(args):
    A = parse_algebra_spec(args.algebra, p=args.field, opposite=args.op)
    from .algebra import Module, decompose

    with open(args.module) as fh:
        M = Module.from_json(A, json.load(fh))
    parts = decompose(M)
    ctx = ModuleContext.for_algebra(A, args.dim_bound)
    names = ctx.names()
    summands = [[names[ctx.index_of(rep)], list(rep.dims), mult] for rep, mult in parts]
    payload = {
        "dims": list(M.dims),
        "total_dim": M.total_dim,
        "indecomposable": len(parts) == 1 and parts[0][1] == 1,
        "summands": summands,
    }
    lines = [f"module with dimension vector {list(M.dims)} over {args.algebra}:"]
    for nm, dims, mult in summands:
        lines.append(f"  {nm} {dims} x{mult}")
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_tors(args):
    A = parse_algebra_spec(args.algebra, p=args.field, opposite=args.op)
    ctx = ModuleContext.for_algebra(A, args.dim_bound)
    TL = enumerate_torsion_pairs(ctx, class_cap=args.cap, time_budget=args.budget)
    rep = torsion_lattice_report(TL, order=args.json)
    counts = {
        "classes": TL.n,
        "indecomposables": ctx.k,
        "omega": sum(1 for c in rep["classes"] if c["omega1"]),
        "omega2": sum(1 for c in rep["classes"] if c["omega2"]),
        "hereditary": sum(1 for c in rep["classes"] if c["hereditary"]),
        "cohereditary": sum(1 for c in rep["classes"] if c["cohereditary"]),
        "split": sum(1 for c in rep["classes"] if c["split"]),
    }
    payload = {**counts, "report": rep, "dot": torsion_lattice_to_dot(rep, TL.cover_pairs()) if args.dot else None}
    lines = [
        f"algebra {args.algebra}: {ctx.k} indecomposables, {TL.n} torsion pairs",
        f"  omega: {counts['omega']}   omega_2: {counts['omega2']}",
        f"  hereditary: {counts['hereditary']}   cohereditary: {counts['cohereditary']}   split: {counts['split']}",
        f"  semidistributive: {TL.is_semidistributive()}",
    ]
    _emit(args, lines, payload)
    return EXIT_OK


def _add_common(parser, suppress):
    """Shared flags, accepted both before and after the subcommand."""
    d = argparse.SUPPRESS if suppress else None

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--field", type=int, default=default(2), metavar="P",
                        help="prime field characteristic (default 2)")
    parser.add_argument("--dim-bound", type=int, default=default(2), metavar="K",
                        help="per-vertex dimension bound for indecomposables; a larger "
                             "indecomposable stops the run with exit 3")
    parser.add_argument("--budget", type=float, default=default(None), metavar="S",
                        help="time budget in seconds for enumerations")
    parser.add_argument("--cap", type=int, default=default(2000), metavar="M",
                        help="maximum number of torsion classes")
    parser.add_argument("--json", action="store_true", default=default(False),
                        help="machine-readable output")
    parser.add_argument("--dot", metavar="FILE", default=d,
                        help="write a DOT Hasse diagram to FILE")
    parser.add_argument("--op", action="store_true", default=default(False),
                        help="use the opposite of the given poset or algebra")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="torscat",
        description="Torsion pairs of quiver algebras and the Catalan-family lattices: exact counts and verified isomorphisms.",
    )
    _add_common(ap, suppress=False)
    ap.set_defaults(dot=None)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    def subparser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    c = subparser("catalan", "Dyck, Tamari or symbolic type-A lattice")
    c.add_argument("kind", choices=["dyck", "tamari", "typeA"])
    c.add_argument("n", type=int)
    c.set_defaults(func=cmd_catalan)

    o = subparser("omega", "omega-torsion lattice of an incidence algebra")
    o.add_argument("poset", help="int:n | chain:n | antichain:n | poset JSON file")
    o.add_argument("--n-pred", type=int, default=1, metavar="N", help="check the omega_N predicate (default 1)")
    o.set_defaults(func=cmd_omega)

    v = subparser("verify", "run a named verification")
    v.add_argument("target", choices=["thm1", "thm2", "prop-main", "lemma-omega", "example"])
    v.add_argument("--n", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    t = subparser("tors", "full torsion-pair lattice of an algebra")
    t.add_argument("algebra", help="example | int:n | An:n | algebra JSON file")
    t.set_defaults(func=cmd_tors)

    m = subparser("module", "validate a module JSON file and decompose it")
    m.add_argument("algebra", help="example | int:n | An:n | algebra JSON file")
    m.add_argument("module", help="module JSON file")
    m.set_defaults(func=cmd_module)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.field < 2 or any(args.field % q == 0 for q in range(2, int(args.field**0.5) + 1)):
        ap.error("--field must be a prime >= 2")
    if args.field > MAX_PRIME:
        ap.error(f"--field must be at most {MAX_PRIME}")
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as err:
        print(f"limit exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificateFailed as err:
        print(f"verification FAILED: {err}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (json.JSONDecodeError, KeyError, ValueError, AlgebraError) as err:
        print(f"usage error: cannot parse input ({err})", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationFailed as err:
        print(f"verification FAILED: {err}", file=sys.stderr)
        if err.data:
            print(json.dumps(err.data, default=str), file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
