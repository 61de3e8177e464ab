"""Command-line interface.

Emits compact JSON by default and aligned text with --pretty.  Exit
codes: 0 success, 2 malformed input, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .covers import covers_with_dilation, free_cover, free_covers, pullback, pushforward, verify_cover
from .divisors import equivalent, is_principal, reduce_at
from .errors import MalformedGraphError, PointError, TropcoverError
from .graphs import MetricGraph, Point
from .jacobian import abel_jacobi, period_lattice
from .prym import kernel_component_count, pairing_table, prym_contains
from .rationals import rat
from .theta import enumerate_theta


def _read_json(path):
    # JSON text is UTF-8 (RFC 8259), whatever the locale says
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedGraphError("%s: %s" % (path, exc))
    return serialize.loads(text)


def _read_graph(path) -> MetricGraph:
    return serialize.graph_from_obj(_read_json(path))


def _read_cover(path):
    """A cover file that passes verify_cover: one that fails is malformed
    input, named by its first problem (cover verify reports them all)."""
    cover = serialize.cover_from_obj(_read_json(path))
    problems = verify_cover(cover).problems
    if problems:
        raise MalformedGraphError("cover: %s" % problems[0])
    return cover


def _parse_point(graph: MetricGraph, spec: str) -> Point:
    """The vertex named spec if there is one, else the edge point "e@p/q".

    A spec that names no point of the graph is malformed input, as the
    same point in a divisor file is.
    """
    try:
        if spec in graph.vertex_ids or "@" not in spec:
            return graph.check_point(Point.at_vertex(spec))
        eid, off = spec.rsplit("@", 1)
        try:
            offset = rat(off)
        except (ValueError, ZeroDivisionError):
            raise PointError("bad offset %r" % off) from None
        return graph.point(eid, offset)
    except PointError as exc:
        raise MalformedGraphError("--at: %s" % exc) from None


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedGraphError("--out: %s" % exc) from None
    else:
        sys.stdout.write(text)


# -- command handlers (each returns the output string) --------------------


def cmd_validate(args):
    obj = _read_json(args.graph)
    graph = serialize.graph_from_obj(obj)
    if not graph.is_connected():
        raise MalformedGraphError("disconnected")
    if args.pretty:
        return "valid graph: %d vertices, %d edges, genus %d\n" % (
            len(graph.vertex_ids),
            len(graph.edge_ids),
            graph.genus(),
        )
    return serialize.dumps(
        {
            "ok": True,
            "vertices": len(graph.vertex_ids),
            "edges": len(graph.edge_ids),
            "genus": graph.genus(),
            "connected": graph.is_connected(),
        }
    )


def cmd_theta(args):
    graph = _read_graph(args.graph)
    chars = enumerate_theta(graph)
    records = [
        {
            "cycle": sorted(t.cycle),
            "divisor": serialize.divisor_to_obj(t.divisor),
            "effective": t.effective,
        }
        for t in chars
    ]
    if args.pretty:
        lines = []
        for rec in records:
            terms = " + ".join(
                "%d at %s"
                % (
                    e["coeff"],
                    e["at"]["vertex"]
                    if "vertex" in e["at"]
                    else "%s@%s" % (e["at"]["edge"], e["at"]["offset"]),
                )
                for e in rec["divisor"]
            )
            lines.append(
                "cycle {%s}: %s  [%s]"
                % (
                    ",".join(rec["cycle"]),
                    terms or "0",
                    "effective" if rec["effective"] else "non-effective",
                )
            )
        return "\n".join(lines) + "\n"
    return "".join(serialize.dumps(rec) for rec in records)


def cmd_divisor(args):
    graph = _read_graph(args.graph)
    if args.action == "equiv":
        d1 = serialize.divisor_from_obj(graph, _read_json(args.divisors[0]))
        d2 = serialize.divisor_from_obj(graph, _read_json(args.divisors[1]))
        return "true\n" if equivalent(d1, d2) else "false\n"
    if args.action == "principal":
        d = serialize.divisor_from_obj(graph, _read_json(args.divisors[0]))
        return "true\n" if is_principal(d) else "false\n"
    # reduce
    d = serialize.divisor_from_obj(graph, _read_json(args.divisors[0]))
    q = _parse_point(graph, args.at)
    red = reduce_at(d, q)
    return serialize.dumps(serialize.divisor_to_obj(red))


def cmd_jac(args):
    graph = _read_graph(args.graph)
    lat = period_lattice(graph)
    d = serialize.divisor_from_obj(graph, _read_json(args.divisor))
    coords = abel_jacobi(lat, d)
    return serialize.dumps(serialize.jacobian_point_to_obj(coords, lat.cycles.forest))


def cmd_cover(args):
    if args.action == "free":
        graph = _read_graph(args.graph)
        if args.bits is not None:
            cs = graph.cycle_space()
            if len(args.bits) != len(cs.nontree) or set(args.bits) - {"0", "1"}:
                raise MalformedGraphError(
                    "--bits needs %d binary digits (non-tree edges %s)"
                    % (len(cs.nontree), ",".join(cs.nontree))
                )
            bits = {e: int(b) for e, b in zip(cs.nontree, args.bits)}
            covers = [free_cover(graph, bits)]
        else:
            covers = free_covers(graph)
        return "".join(serialize.dumps(serialize.cover_to_obj(c)) for c in covers)
    if args.action == "dilated":
        graph = _read_graph(args.graph)
        cycle = frozenset(args.cycle.split(","))  # main rejects an empty --cycle
        # an edge the graph does not have is malformed input, as for --at;
        # known edges that are not an even subgraph are a domain error
        unknown = sorted(cycle.difference(graph.edge_ids))
        if unknown:
            raise MalformedGraphError("--cycle: unknown edge %r" % unknown[0])
        covers = covers_with_dilation(graph, cycle)
        return "".join(serialize.dumps(serialize.cover_to_obj(c)) for c in covers)
    if args.action == "verify":
        report = verify_cover(serialize.cover_from_obj(_read_json(args.graph)))
        return serialize.dumps(
            {
                "ok": report.ok,
                "dilation": sorted(report.dilation),
                "problems": report.problems,
            }
        )
    # pullback / pushforward
    cover = _read_cover(args.graph)
    if args.action == "pullback":
        d = serialize.divisor_from_obj(cover.target, _read_json(args.divisor))
        out = pullback(cover, d)
    else:
        d = serialize.divisor_from_obj(cover.source_sharp(), _read_json(args.divisor))
        out = pushforward(cover, d)
    return serialize.dumps(serialize.divisor_to_obj(out))


def cmd_prym(args):
    cover = _read_cover(args.cover)
    if args.action == "contains":
        d = serialize.divisor_from_obj(cover.source_sharp(), _read_json(args.divisor))
        return "true\n" if prym_contains(cover, d) else "false\n"
    return "%d\n" % kernel_component_count(cover)


def cmd_pair(args):
    graph = _read_graph(args.graph)
    evens, table = pairing_table(graph)
    cycles = [sorted(c) for c in evens]
    if args.pretty:
        labels = ["{%s}" % ",".join(c) for c in cycles]
        width = max(len(s) for s in labels)
        lines = [" " * width + "  " + " ".join(str(i) for i in range(len(table)))]
        for lab, row in zip(labels, zip(*table)):
            lines.append("%-*s  %s" % (width, lab, " ".join(str(b) for b in row)))
        return "\n".join(lines) + "\n"
    return serialize.dumps({"cycles": cycles, "table": table})


def cmd_export(args):
    graph = _read_graph(args.graph)
    divisor = None
    if args.divisor:
        divisor = serialize.divisor_from_obj(graph, _read_json(args.divisor))
    return serialize.to_dot(graph, divisor)


# -- argument parsing -----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropcover",
        description="Exact divisor theory on metric graphs: theta "
        "characteristics, double covers, Prym varieties, and the mod-2 pairing.",
    )
    parser.add_argument("--pretty", action="store_true", help="aligned text output")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    # the same flags are accepted after the verb; SUPPRESS keeps a
    # flag given before the verb from being clobbered by the default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_validate)

    p = add_parser("theta", help="enumerate theta characteristics")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_theta)

    p = add_parser("divisor", help="divisor decisions")
    p.add_argument("action", choices=["equiv", "principal", "reduce"])
    p.add_argument("graph")
    p.add_argument("divisors", nargs="+")
    p.add_argument("--at", help="reduction point: vertex id or edge@offset")
    p.set_defaults(handler=cmd_divisor)

    p = add_parser("jac", help="Abel-Jacobi coordinates of a divisor")
    p.add_argument("graph")
    p.add_argument("divisor")
    p.set_defaults(handler=cmd_jac)

    p = add_parser("cover", help="build or verify double covers")
    p.add_argument("action", choices=["free", "dilated", "verify", "pullback", "pushforward"])
    p.add_argument("graph", help="graph file (free/dilated) or cover file")
    p.add_argument("divisor", nargs="?", help="divisor file (pullback/pushforward)")
    p.add_argument("--bits", help="sheet-swap bits over the non-tree edges")
    p.add_argument("--cycle", help="comma-separated dilation edge ids")
    p.set_defaults(handler=cmd_cover)

    p = add_parser("prym", help="Prym membership and component count")
    p.add_argument("action", choices=["contains", "components"])
    p.add_argument("cover")
    p.add_argument("divisor", nargs="?")
    p.set_defaults(handler=cmd_prym)

    p = add_parser("pair", help="mod-2 pairing table of free covers vs cycles")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_pair)

    p = add_parser("export", help="emit a DOT rendering")
    p.add_argument("format", choices=["dot"])
    p.add_argument("graph")
    p.add_argument("divisor", nargs="?")
    p.set_defaults(handler=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "divisor":
        if args.action == "equiv" and len(args.divisors) != 2:
            parser.error("divisor equiv needs two divisor files")
        if args.action in ("principal", "reduce") and len(args.divisors) != 1:
            parser.error("divisor %s needs one divisor file" % args.action)
        if args.action == "reduce" and not args.at:
            parser.error("divisor reduce needs --at")
    if args.verb == "cover":
        if args.action in ("pullback", "pushforward") and not args.divisor:
            parser.error("cover %s needs a divisor file" % args.action)
        if args.action == "dilated" and not args.cycle:
            parser.error("cover dilated needs --cycle")
    if args.verb == "prym" and args.action == "contains" and not args.divisor:
        parser.error("prym contains needs a divisor file")
    # an action reads at most one optional argument; any other given is refused
    action = getattr(args, "action", None)
    reads = {"reduce": "at", "free": "bits", "dilated": "cycle", "contains": "divisor",
             "pullback": "divisor", "pushforward": "divisor"}.get(action)
    for name, label in (("at", "--at"), ("bits", "--bits"), ("cycle", "--cycle"),
                        ("divisor", "a divisor file")):
        if action and getattr(args, name, None) is not None and name != reads:
            parser.error("%s %s does not take %s" % (args.verb, action, label))
    try:
        _emit(args, args.handler(args))
    except MalformedGraphError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TropcoverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
