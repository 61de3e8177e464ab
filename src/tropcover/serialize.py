"""JSON (de)serialization and DOT export with deterministic ordering.

All rationals are written in lowest terms as "n" or "p/q"; vertices,
edges, and divisor entries are sorted by id (then offset) so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .covers import DoubleCover, cover_frame
from .divisors import Divisor
from .errors import CoverError, MalformedGraphError, PointError
from .graphs import MetricGraph, Point
from .rationals import rat, rat_str


def _expect(cond, msg):
    if not cond:
        raise MalformedGraphError(msg)


def _id(obj, key, where):
    """obj[key], which names a vertex or an edge: a JSON string, taken as
    it is, since str() would read 1 and "1" as one id."""
    x = obj[key]
    if type(x) is not str:
        raise MalformedGraphError("%s: %r must be a string" % (where, key))
    return x


def _parse_rat(x, where):
    try:
        v = rat(x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise MalformedGraphError("%s: bad rational %r" % (where, x))
    return v


# -- graphs ---------------------------------------------------------------


def graph_to_obj(graph: MetricGraph) -> dict:
    return {
        "vertices": [
            {"id": v, "genus": graph.genus_of(v)} for v in graph.vertex_ids
        ],
        "edges": [
            {
                "id": e,
                "tail": graph.ends(e)[0],
                "head": graph.ends(e)[1],
                "length": rat_str(graph.length(e)),
            }
            for e in graph.edge_ids
        ],
    }


def graph_from_obj(obj) -> MetricGraph:
    _expect(isinstance(obj, dict), "graph: expected an object")
    for key in ("vertices", "edges"):
        _expect(key in obj, "graph: missing %r" % key)
        _expect(isinstance(obj[key], list), "graph: %r must be a list" % key)
    # MetricGraph takes an empty graph; a graph file names a vertex
    _expect(obj["vertices"], "graph: 'vertices' is empty")
    vertices = []
    for i, v in enumerate(obj["vertices"]):
        where = "vertices[%d]" % i
        _expect(isinstance(v, dict) and "id" in v, "%s: missing 'id'" % where)
        vertices.append((_id(v, "id", where), v.get("genus", 0)))
    edges = []
    for i, e in enumerate(obj["edges"]):
        where = "edges[%d]" % i
        for key in ("id", "tail", "head", "length"):
            _expect(isinstance(e, dict) and key in e, "%s: missing %r" % (where, key))
        edges.append(
            (_id(e, "id", where), _id(e, "tail", where), _id(e, "head", where), e["length"])
        )
    # the genus and length rules are MetricGraph's
    return MetricGraph(vertices, edges)


# -- divisors -------------------------------------------------------------


def _point_key(p: Point):
    return (p.id, Fraction(-1) if p.is_vertex else p.offset)


def divisor_to_obj(D: Divisor) -> list:
    out = []
    for p in sorted(D.support(), key=_point_key):
        at = (
            {"vertex": p.id}
            if p.is_vertex
            else {"edge": p.id, "offset": rat_str(p.offset)}
        )
        out.append({"at": at, "coeff": D.coeff(p)})
    return out


def divisor_from_obj(graph: MetricGraph, obj) -> Divisor:
    _expect(isinstance(obj, list), "divisor: expected a list")
    coeffs = []
    for i, rec in enumerate(obj):
        where = "divisor[%d]" % i
        _expect(
            isinstance(rec, dict) and "at" in rec and "coeff" in rec,
            "%s: needs 'at' and 'coeff'" % where,
        )
        # type(x) is int: a JSON true is an int to Python, not a coefficient
        _expect(type(rec["coeff"]) is int, "%s: coeff must be an integer" % where)
        at = rec["at"]
        _expect(isinstance(at, dict), "%s: 'at' must be an object" % where)
        if "vertex" in at:
            _expect("edge" not in at, "%s: 'at' names both a vertex and an edge" % where)
            p = Point.at_vertex(_id(at, "vertex", where))
        elif "edge" in at:
            _expect("offset" in at, "%s: edge point needs 'offset'" % where)
            p = Point.on_edge(_id(at, "edge", where), _parse_rat(at["offset"], where))
        else:
            raise MalformedGraphError("%s: 'at' needs 'vertex' or 'edge'" % where)
        try:
            p = graph.check_point(p)
        except PointError:
            raise MalformedGraphError("%s: point is not on the graph" % where) from None
        coeffs.append((p, rec["coeff"]))
    return Divisor(graph, coeffs)


# -- covers ---------------------------------------------------------------


def cover_to_obj(cover: DoubleCover) -> dict:
    return {
        "target": graph_to_obj(cover.target),
        "source": graph_to_obj(cover.source),
        "vertex_map": {v: cover.vertex_map[v] for v in sorted(cover.vertex_map)},
        "edge_map": [
            {"src": e, "tgt": cover.edge_map[e][0], "degree": cover.edge_map[e][1]}
            for e in sorted(cover.edge_map)
        ],
        "involution": {
            v: cover.involution_v[v] for v in sorted(cover.involution_v)
        },
    }


def _cover_graph(obj, key) -> MetricGraph:
    """The cover's target or source graph; a fault in it names which."""
    try:
        return graph_from_obj(obj[key])
    except MalformedGraphError as exc:
        raise MalformedGraphError("cover: %s: %s" % (key, exc)) from None


def cover_from_obj(obj) -> DoubleCover:
    _expect(isinstance(obj, dict), "cover: expected an object")
    for key in ("target", "source", "vertex_map", "edge_map", "involution"):
        _expect(key in obj, "cover: missing %r" % key)
    for key in ("vertex_map", "involution"):
        _expect(isinstance(obj[key], dict), "cover: %r must be an object" % key)
    _expect(isinstance(obj["edge_map"], list), "cover: 'edge_map' must be a list")
    target, source = _cover_graph(obj, "target"), _cover_graph(obj, "source")
    emap = {}
    for i, rec in enumerate(obj["edge_map"]):
        where = "edge_map[%d]" % i
        for key in ("src", "tgt", "degree"):
            _expect(isinstance(rec, dict) and key in rec, "%s: missing %r" % (where, key))
        _expect(
            type(rec["degree"]) is int and rec["degree"] in (1, 2),
            "%s: degree must be 1 or 2" % where,
        )
        src = _id(rec, "src", where)
        _expect(src not in emap, "%s: duplicate src %r" % (where, src))
        emap[src] = (_id(rec, "tgt", where), rec["degree"])
    for key in ("vertex_map", "involution"):
        # the keys of a JSON object are strings already
        bad = next((k for k, v in obj[key].items() if type(v) is not str), None)
        if bad is not None:
            raise MalformedGraphError("%s: the image of %r must be a string" % (key, bad))
    vmap, inv = dict(obj["vertex_map"]), dict(obj["involution"])
    try:
        return DoubleCover(cover_frame(target, vmap, emap, inv), source)
    except CoverError as exc:
        raise MalformedGraphError("cover: %s" % exc) from None


# -- jacobian points ------------------------------------------------------


def jacobian_point_to_obj(coords, tree_edges) -> dict:
    return {
        "coords": [rat_str(c) for c in coords],
        "basis": "fundamental",
        "tree": sorted(tree_edges),
    }


# -- top-level helpers ----------------------------------------------------


def dumps(obj) -> str:
    """Compact JSON with sorted keys, one line."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedGraphError("invalid JSON: %s" % exc)


# -- DOT export -----------------------------------------------------------


def to_dot(graph: MetricGraph, divisor: Divisor = None) -> str:
    """Layout-free DOT with lengths as edge labels and optional divisor
    coefficients as vertex / edge-point annotations; json.dumps quotes ids."""
    vlabel = {}
    epoints = {}
    if divisor is not None:
        for p, a in divisor.items():
            if p.is_vertex:
                vlabel[p.id] = a
            else:
                epoints.setdefault(p.id, []).append((p.offset, a))
    lines = ["graph {"]
    for v in graph.vertex_ids:
        attrs = []
        if graph.genus_of(v):
            attrs.append("genus=%d" % graph.genus_of(v))
        if v in vlabel:
            attrs.append("label=%s" % json.dumps("%s (%+d)" % (v, vlabel[v])))
        lines.append(
            "  %s%s;" % (json.dumps(v), " [%s]" % ", ".join(attrs) if attrs else "")
        )
    for e in graph.edge_ids:
        t, h = graph.ends(e)
        attrs = ["label=%s" % json.dumps(e), 'len="%s"' % rat_str(graph.length(e))]
        if e in epoints:
            marks = ", ".join(
                "%+d@%s" % (a, rat_str(off)) for off, a in sorted(epoints[e])
            )
            attrs.append('points="%s"' % marks)
        lines.append(
            "  %s -- %s [%s];" % (json.dumps(t), json.dumps(h), ", ".join(attrs))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
