"""Command-line entry point.

Single-shot commands print one JSON object on stdout; suite commands print
JSON lines.  Exit codes: 0 when every check holds, 1 on usage errors and on
the engine's memo limit, 2 when some check fails, 3 when the only deviations
are inconclusive enclosures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds, repro
from .bounds import DEFAULT_TOL
from .graphs import Graph, generate, parse_graph6, read_edge_list
from .hardcore import HardCoreProfile, MemoLimitExceeded
from .intervals import _positive_tol, free_energy_interval
from .orderings import OrderingKind, compare
from .polynomials import Poly
from .sampler import estimate
from .verdict import FAILS, INCONCLUSIVE, format_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def resolve_graph(spec: str) -> Graph:
    """Generator spec, "g6:<graph6>", or "@<edge-list file>"."""
    if spec.startswith("g6:"):
        return parse_graph6(spec[3:])
    if spec.startswith("@"):
        # Read as UTF-8 so that read_edge_list, not the codec, refuses a
        # non-ASCII digit as a bad edge line.
        with open(spec[1:], "r", encoding="utf-8") as handle:
            return read_edge_list(handle.read()).with_label(spec)
    return generate(spec)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _report(objs) -> str:
    """A report's text, one JSON line per object, serialized whole before any
    of it is written: a value too long to print refuses all of it."""
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


def _emit(*objs) -> None:
    sys.stdout.write(_report(objs))


def _exit_code(statuses) -> int:
    statuses = set(statuses)
    if FAILS in statuses or repro.FAILED in statuses:
        return EXIT_FAILS
    if INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_poly(args) -> int:
    g = resolve_graph(args.graph)
    z = HardCoreProfile(g).z
    _emit({
        "graph": g.display_name(),
        "n": g.n,
        "edges": g.edge_count,
        "coefficients": z.to_text(),
    })
    return EXIT_OK


def cmd_quantities(args) -> int:
    lam = bounds._positive_lam(args.lam)
    tol = _positive_tol(args.tol)
    prof, g, lam = bounds._inputs(resolve_graph(args.graph), lam)
    z, e, v = prof.z, prof.expectation, prof.variance
    # The exact fields are formatted first: a Z(lam) too long to print is
    # refused before the enclosure of its logarithm is computed.
    out = {
        "graph": g.display_name(),
        "lambda": format_rational(lam),
        "partition": z.to_text(),
        "partition_at_lambda": format_rational(z.evaluate(lam)),
        "occupancy": {"num": e.num.to_text(), "den": e.den.to_text()},
        "occupancy_at_lambda": format_rational(prof.expectation_at(lam)),
        "variance": {"num": v.num.to_text(), "den": v.den.to_text()},
        "variance_at_lambda": format_rational(prof.variance_at(lam)),
    }
    out["free_energy_enclosure"] = free_energy_interval(z, g.n, lam, tol).to_json()
    _emit(out)
    return EXIT_OK


def cmd_order(args) -> int:
    try:
        kind = OrderingKind(args.kind.upper())
    except ValueError:
        print(f"error: unknown ordering kind {args.kind!r}", file=sys.stderr)
        return EXIT_USAGE
    p = Poly.from_text(args.p)
    q = Poly.from_text(args.q)
    verdict = compare(kind, p, q)
    out = {"kind": kind.value, "p": p.to_text(), "q": q.to_text()}
    out.update(verdict.to_json())
    _emit(out)
    return _exit_code([verdict.status])


# Each bound's check and the arguments it reads, passed in this order: a
# graph, --lambda and --tol.  An unset --tol is DEFAULT_TOL; an unset
# --lambda, read without a graph only by edge_counterexamples, is left to
# the check's own default.
BOUNDS = {
    "combined": (bounds.check_combined_chain, ("graph", "--lambda", "--tol")),
    "edge_counterexamples": (bounds.check_edge_occ_counterexamples, ("--lambda",)),
    "free_energy": (bounds.check_free_energy_bounds, ("graph", "--lambda")),
    "local_occupancy": (lambda g, lam: bounds.check_local_occupancy(g, 1 + 1 / lam, 1, lam),
                        ("graph", "--lambda")),
    "occupancy": (bounds.check_occupancy_bounds, ("graph", "--lambda")),
    "occupancy_tf": (bounds.check_occupancy_tf, ("graph", "--lambda", "--tol")),
    "p5_threshold": (bounds.check_p5_threshold, ()),
    "variance": (bounds.check_variance_bounds, ("graph", "--lambda")),
    "vertex_ceiling": (bounds.check_vertex_f_upper_counterexample, ("graph", "--lambda")),
    "weighted_marginals": (bounds.check_clique_weighted_marginals, ("graph", "--lambda")),
    "weighted_marginals_tf": (bounds.check_tf_weighted_marginals, ("graph", "--lambda", "--tol")),
}


def cmd_bound(args) -> int:
    if args.name not in BOUNDS:
        print(f"error: unknown bound {args.name!r} (known: {', '.join(sorted(BOUNDS))})",
              file=sys.stderr)
        return EXIT_USAGE
    check, reads = BOUNDS[args.name]
    given = {"graph": args.graph, "--lambda": args.lam, "--tol": args.tol}
    unread = [arg for arg, value in given.items() if value is not None and arg not in reads]
    if unread:
        print(f"error: bound {args.name} takes no {unread[0]}", file=sys.stderr)
        return EXIT_USAGE
    if "graph" in reads and (args.graph is None or args.lam is None):
        print("error: this bound needs a graph and --lambda", file=sys.stderr)
        return EXIT_USAGE
    if args.graph is not None:
        given["graph"] = resolve_graph(args.graph)
    if args.lam is not None:
        given["--lambda"] = bounds._positive_lam(args.lam)
    given["--tol"] = DEFAULT_TOL if args.tol is None else args.tol
    checks = check(*(given[arg] for arg in reads if given[arg] is not None))
    if isinstance(checks, bounds.BoundCheck):
        checks = [checks]
    _emit(*(c.to_json() for c in checks))
    return _exit_code(c.status for c in checks)


def cmd_sample(args) -> int:
    g = resolve_graph(args.graph)
    report = estimate(g, args.lam, args.steps, args.burn_in, seed=args.seed)
    _emit(report.to_json())
    return EXIT_OK


def cmd_repro(args) -> int:
    try:
        items = repro.run(None if args.ids == ["all"] else args.ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    text = _report(item.to_json() for item in items)
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(text)
    return _exit_code(item.status for item in items)


def build_parser() -> _Parser:
    parser = _Parser(prog="hardcore-lab",
                     description="Exact hard-core model laboratory for small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="independence polynomial of a graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("quantities",
                       help="partition function, occupancy and variance data")
    p.add_argument("graph")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.add_argument("--tol", type=_rational, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_quantities)

    p = sub.add_parser("order", help="decide one of the seven polynomial orderings")
    p.add_argument("kind", help="COUNT|PART|COEF|OCC|MAX|FV|VAR")
    p.add_argument("p", help="comma-separated coefficients, low degree first")
    p.add_argument("q")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("bound", help="run a named bound check")
    p.add_argument("name")
    p.add_argument("graph", nargs="?")
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.add_argument("--tol", type=_rational, default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sample", help="Glauber-dynamics estimate of nE and nV")
    p.add_argument("graph")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.add_argument("--steps", type=int, default=10**6)
    p.add_argument("--burn-in", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("repro", help="reproduce the verification suite")
    p.add_argument("ids", nargs="*", help="item ids, or 'all' (default)")
    p.add_argument("--out", default=None, help="write JSON lines to a file")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError, MemoLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
