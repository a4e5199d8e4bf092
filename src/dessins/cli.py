"""Batch command-line frontend.

Exit codes: 0 success, 2 parse/validation error, 3 budget or enumeration
cap exceeded, 4 internal invariant violation.  Reports go to stdout,
diagnostics to stderr; for fixed flags the bytes on stdout are identical
whatever ``--threads`` says.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd

from .bgraph import (
    GraphParseError,
    GraphStructureError,
    automorphism_group,
    parse_bipartite,
    parse_plain,
)
from .classify import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    InternalInvariantError,
    canonical_form,
    classify,
    stabilizer,
    wilson_orbit_targets,
)
from .dessin import NonTransitiveError, face_permutation, invariants, mirror
from .graphgenus import DEFAULT_GENUS_BUDGET, GenusBudgetError, genus_histogram, genus_range
from .io import build_document, serialize_document
from .perm import CycleParseError, format_cycles, parse_cycles
from .permgroup import CapExceededError
from .rotation import RotationPair, membership_failure

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}") from exc


def _default_budget():
    env = os.environ.get("DESSIN_BUDGET")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise GraphParseError(f"DESSIN_BUDGET is not an integer: {env!r}")


def _budget(args, fallback):
    if args.budget is not None:
        return args.budget
    env = _default_budget()
    return env if env is not None else fallback


def cmd_classify(args, out, err):
    graph = parse_bipartite(_read(args.graph))
    if args.wilson:
        try:
            r, s = (int(x) for x in args.wilson.split(","))
        except ValueError:
            raise GraphParseError(f"--wilson expects 'r,s', got {args.wilson!r}")
        for x, side, labels in ((r, "black", graph.black_labels),
                                (s, "white", graph.white_labels)):
            if x < 1 or any(gcd(x, len(ls)) != 1 for ls in labels.values()):
                raise GraphParseError(f"--wilson {args.wilson}: {x} is not a "
                                      f"positive exponent prime to every {side} degree")
    threads = args.threads if args.threads else os.cpu_count() or 1
    report = classify(
        graph,
        threads=threads,
        budget=_budget(args, DEFAULT_BUDGET),
        duality_oracle=args.duality,
    )
    wilson_targets = (r, s, wilson_orbit_targets(report, r, s)) if args.wilson else None
    out.write(serialize_document(build_document(report, wilson_targets), args.emit))
    if args.duality:
        err.write(f"duality oracle agreed on {len(report.records)} records\n")
    return EXIT_OK


def cmd_genus_range(args, out, err):
    plain = parse_plain(_read(args.graph))
    budget = _budget(args, DEFAULT_GENUS_BUDGET)
    result = genus_range(plain, budget=budget)
    # a refused histogram leaves stdout empty, as a refused range does
    hist = genus_histogram(plain, budget=budget) if args.histogram else {}
    out.write(f"mu: {result.mu}\n")
    out.write(f"nu: {result.nu}\n")
    out.write(f"gamma_max: {result.gamma_max}\n")
    out.write(f"gamma_min: {result.gamma_min}\n")
    out.write(f"witness_min_genus: {format_cycles(result.witness_min)}\n")
    out.write(f"witness_max_genus: {format_cycles(result.witness_max)}\n")
    for genus, count in hist.items():
        out.write(f"genus[{genus}]: {count}\n")
    return EXIT_OK


def cmd_analyze(args, out, err):
    graph = parse_bipartite(_read(args.graph))
    try:
        sigma = parse_cycles(args.sigma, graph.e)
        tau = parse_cycles(args.tau, graph.e)
    except CycleParseError as exc:
        raise GraphParseError(f"bad permutation: {exc}") from exc
    offender = membership_failure(graph, sigma, tau)
    if offender is not None:
        raise GraphParseError(
            f"pair is not a rotation system of this graph (vertex {offender!r})"
        )
    pair = RotationPair(sigma, tau, graph)
    inv = invariants(pair)
    group = automorphism_group(graph)
    stab = stabilizer(pair, group)
    reflexive = canonical_form(pair, group) == canonical_form(mirror(pair), group)
    fp = inv.monodromy_fingerprint
    out.write(f"sigma: {format_cycles(sigma)}\n")
    out.write(f"tau: {format_cycles(tau)}\n")
    out.write(f"face_permutation: {format_cycles(face_permutation(pair))}\n")
    out.write(f"genus: {inv.genus}\n")
    out.write(f"face_count: {inv.face_count}\n")
    out.write(f"passport: {inv.passport}\n")
    out.write(f"monodromy_order: {inv.monodromy_order}\n")
    out.write(
        "fingerprint: order={} all_generators_even={} "
        "point_stabilizer_order={} odd_generators={}\n".format(
            fp.order,
            str(fp.all_generators_even).lower(),
            fp.point_stabilizer_order,
            fp.odd_generators,
        )
    )
    out.write(f"regular: {str(inv.regular).lower()}\n")
    out.write(f"uniform: {str(inv.uniform).lower()}\n")
    out.write(f"dualizable: {str(inv.dualizable).lower()}\n")
    out.write(f"aut_order: {stab.order()}\n")
    gens = "; ".join(format_cycles(g) for g in stab.generators) or "()"
    out.write(f"aut_generators: {gens}\n")
    out.write(f"mirror: {'reflexive' if reflexive else 'chiral'}\n")
    return EXIT_OK


def cmd_autgroup(args, out, err):
    graph = parse_bipartite(_read(args.graph))
    group = automorphism_group(graph)
    out.write(f"order: {group.theta.order()}\n")
    out.write("generators:\n")
    for g in group.theta.generators:
        out.write(f"{format_cycles(g)}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dessins",
        description="Classify the dessins d'enfants of a bipartite graph; "
        "exact embedding genus of multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="all dessins of a bipartite graph, up to isomorphism")
    p.add_argument("graph", help="bipartite graph file (.bg)")
    p.add_argument("--emit", choices=("json", "csv", "table"), default="table")
    p.add_argument("--threads", type=int, default=0, help="worker count (default: all cores)")
    p.add_argument("--duality", action="store_true", help="cross-check duality with the group-enumeration oracle")
    p.add_argument("--budget", type=int, default=None, help="refuse more candidate pairs than this")
    p.add_argument("--wilson", metavar="R,S", default=None, help="report the orbit hit by the (R,S) power operation")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("genus-range", help="minimum and maximum embedding genus of a plain graph")
    p.add_argument("graph", help="plain graph file (.g)")
    p.add_argument("--budget", type=int, default=None,
                   help="refuse a range search of more nodes, or a histogram of more systems, than this")
    p.add_argument("--histogram", action="store_true", help="also count rotation systems per genus")
    p.set_defaults(func=cmd_genus_range)

    p = sub.add_parser("analyze", help="invariants of one rotation pair on a graph")
    p.add_argument("graph", help="bipartite graph file (.bg)")
    p.add_argument("--sigma", required=True, help="black rotations in cycle notation")
    p.add_argument("--tau", required=True, help="white rotations in cycle notation")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("autgroup", help="edge action of the graph's automorphism group")
    p.add_argument("graph", help="bipartite graph file (.bg)")
    p.set_defaults(func=cmd_autgroup)

    return parser


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out, err)
    except (GraphParseError, GraphStructureError, NonTransitiveError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (BudgetExceededError, GenusBudgetError, CapExceededError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
