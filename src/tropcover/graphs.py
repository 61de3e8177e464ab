"""Metric graphs with exact rational edge lengths.

A graph is a finite model: vertices carrying a nonnegative genus, edges
carrying a positive rational length.  Loops and parallel edges are allowed.
Everything downstream (divisors, Jacobians, covers) works with points of the
underlying metric space, which are either vertices or interior edge positions
at a rational offset from the tail.
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Union

from .errors import (
    AugmentedGraphError,
    CycleError,
    MalformedGraphError,
    PointError,
    SlopeError,
)
from .rationals import rat

ZERO = Fraction(0)


class Point(namedtuple("Point", "kind id offset", defaults=(ZERO,))):
    """A point of the metric space: a vertex, or an edge interior position.

    kind is "vertex" or "edge"; offset is a Fraction from the edge's tail.
    Points compare as the tuple (kind, id, offset)."""

    __slots__ = ()

    @staticmethod
    def at_vertex(vid: str) -> "Point":
        return Point("vertex", vid)

    @staticmethod
    def on_edge(eid: str, offset) -> "Point":
        return Point("edge", eid, rat(offset))

    @property
    def is_vertex(self) -> bool:
        return self.kind == "vertex"

    def __hash__(self):
        # equal offsets share numerator and denominator; hashing those skips
        # the modular inverse that hashing a Fraction costs
        kind, vid, offset = self
        return hash((kind, vid, offset.numerator, offset.denominator))

    def __repr__(self):
        if self.is_vertex:
            return "Point(%s)" % self.id
        return "Point(%s@%s)" % (self.id, self.offset)


class MetricGraph:
    """Immutable (augmented) metric graph."""

    def __init__(self, vertices, edges):
        """vertices: iterable of id or (id, genus); edges: (id, tail, head, length)."""
        genus = {}
        for v in vertices:
            if isinstance(v, str):
                vid, g = v, 0
            else:
                vid, g = v
            if vid in genus:
                raise MalformedGraphError("duplicate vertex id %r" % vid)
            # a bool is an int to Python but not a genus
            if type(g) is not int or g < 0:
                raise MalformedGraphError("genus at %r is not a nonnegative integer" % vid)
            genus[vid] = g
        edict = {}
        for eid, tail, head, length in edges:
            if eid in edict:
                raise MalformedGraphError("duplicate edge id %r" % eid)
            if tail not in genus or head not in genus:
                raise MalformedGraphError("edge %r has unknown endpoint" % eid)
            try:
                ell = rat(length)
            except (TypeError, ValueError, ZeroDivisionError):
                raise MalformedGraphError("edge %r has unparseable length" % eid) from None
            # a Fraction's denominator is positive, so its sign is the numerator's
            if ell.numerator <= 0:
                raise MalformedGraphError("edge %r has nonpositive length" % eid)
            edict[eid] = (tail, head, ell)
        self._genus = genus
        self._edges = edict
        self.vertex_ids = tuple(sorted(genus))
        self.edge_ids = tuple(sorted(edict))
        # the package's one cache for this immutable graph, each entry built
        # on first read: the incidence, the integer metric, the cycle space,
        # the period lattice
        self._memo = {}

    # -- basic accessors -------------------------------------------------

    def genus_of(self, vid: str) -> int:
        return self._genus[vid]

    def ends(self, eid: str):
        """(tail, head) of an edge."""
        t, h, _ = self._edges[eid]
        return t, h

    def length(self, eid: str) -> Fraction:
        return self._edges[eid][2]

    def integer_metric(self):
        """(scale, {edge id: length * scale}), scale the lcm of the length
        denominators: the lengths as integer multiples of 1/scale."""
        metric = self._memo.get("integer_metric")
        if metric is None:
            scale = lcm(*(ell.denominator for _, _, ell in self._edges.values()))
            metric = self._memo["integer_metric"] = (
                scale,
                {
                    eid: ell.numerator * (scale // ell.denominator)
                    for eid, (_, _, ell) in self._edges.items()
                },
            )
        return metric

    def incidence(self):
        """{vertex id: its (edge id, end) pairs}, end 0=tail, 1=head, sorted by
        edge id; a loop contributes both of its ends.  Built on first read;
        a traversal reads the mapping once, not once per step."""
        adj = self._memo.get("incidence")
        if adj is None:
            ends = {v: [] for v in self._genus}
            for eid in self.edge_ids:
                tail, head, _ = self._edges[eid]
                ends[tail].append((eid, 0))
                ends[head].append((eid, 1))
            adj = self._memo["incidence"] = {v: tuple(es) for v, es in ends.items()}
        return adj

    def valence(self, vid: str) -> int:
        return len(self.incidence()[vid])

    def other_end(self, eid: str, vid_end: int) -> str:
        t, h, _ = self._edges[eid]
        return h if vid_end == 0 else t

    def is_augmented(self) -> bool:
        return any(g > 0 for g in self._genus.values())

    # -- connectivity and genus ------------------------------------------

    def cycle_space(self) -> "CycleSpace":
        """The graph's one spanning forest with its cycle basis, memoized:
        components, genus, even subgraphs, free-cover bits and the period
        lattice all read it, so they agree on the tree."""
        cs = self._memo.get("cycle_space")
        if cs is None:
            cs = self._memo["cycle_space"] = CycleSpace(self)
        return cs

    def components(self):
        """Vertex sets of connected components, each sorted, listed by min id."""
        return self.cycle_space().components

    def components_by_vertex(self) -> Dict[str, tuple]:
        """Each vertex id mapped to its component, as listed by components()."""
        return self.cycle_space().component_of

    def is_connected(self) -> bool:
        return len(self.vertex_ids) <= 1 or len(self.components()) == 1

    def genus(self) -> int:
        """First Betti number plus the total vertex genus."""
        return len(self.cycle_space().nontree) + sum(self._genus.values())

    # -- points ----------------------------------------------------------

    def point(self, eid: str, offset) -> Point:
        """Point on an edge, normalized to vertex form at the endpoints."""
        if eid not in self._edges:
            raise PointError("unknown edge %r" % eid)
        t = rat(offset)
        tail, head, ell = self._edges[eid]
        if _inside(t, ell):
            return Point("edge", eid, t)
        if t == 0:
            return Point.at_vertex(tail)
        if t == ell:
            return Point.at_vertex(head)
        raise PointError("offset %s outside edge %r of length %s" % (t, eid, ell))

    def basepoint(self) -> Point:
        """The first model vertex, the default basepoint."""
        if not self.vertex_ids:
            raise PointError("the graph has no vertices")
        return Point.at_vertex(self.vertex_ids[0])

    def vertex_point(self, vid: str) -> Point:
        if vid not in self._genus:
            raise PointError("unknown vertex %r" % vid)
        return Point.at_vertex(vid)

    def check_point(self, p: Point) -> Point:
        """p itself when it is a point of this graph in normal form, else
        its normal form (an edge end becomes the vertex)."""
        if p.is_vertex:
            if p.id not in self._genus:
                raise PointError("unknown vertex %r" % p.id)
            return p
        edge = self._edges.get(p.id)
        if edge is not None and isinstance(p.offset, Fraction) and _inside(p.offset, edge[2]):
            return p
        return self.point(p.id, p.offset)

    # -- equality (used by divisors to assert a common host) -------------

    def same_model(self, other: "MetricGraph") -> bool:
        return self is other or (
            self._genus == other._genus and self._edges == other._edges
        )


def _inside(t: Fraction, ell: Fraction) -> bool:
    """0 < t < ell, decided on integer cross products."""
    n = t.numerator
    return 0 < n and n * ell.denominator < ell.numerator * t.denominator


def validate(vertices, edges=None):
    """Diagnostics for graph data; empty list iff the data is a valid graph.

    Accepts either raw (vertices, edges) lists as MetricGraph takes them, or
    a MetricGraph instance.  Reports the first problem MetricGraph finds,
    else "disconnected" for a graph that is not connected.
    """
    graph = vertices
    if not isinstance(graph, MetricGraph):
        try:
            graph = MetricGraph(vertices, edges)
        except MalformedGraphError as exc:
            return [str(exc)]
    return [] if graph.is_connected() else ["disconnected"]


# -- cycle space ---------------------------------------------------------


class CycleSpace:
    """Spanning forest, components, fundamental cycle basis, and the 2^g
    even subgraphs.  Read a graph's through MetricGraph.cycle_space().

    One breadth-first search per component, rooted at its smallest vertex
    id, gives the forest; `components` lists each component's sorted
    vertex ids by root and `component_of` maps a vertex to its component.
    Basis cycles are integer edge vectors (dicts), oriented so the defining
    non-tree edge is traversed tail to head.
    """

    def __init__(self, graph: MetricGraph):
        # no reference to the graph is kept: the graph's memo holds its
        # cycle space, and a reference back would be a cycle
        parent = {}  # vid -> (edge id, end used to arrive, previous vid) or None
        forest = set()
        components = []
        adj = graph.incidence()
        for root in graph.vertex_ids:
            if root in parent:
                continue
            parent[root] = None
            queue = [root]
            for v in queue:  # the queue grows while it is read
                for eid, end in adj[v]:
                    w = graph.other_end(eid, end)
                    if w not in parent:
                        parent[w] = (eid, end, v)
                        forest.add(eid)
                        queue.append(w)
            components.append(tuple(sorted(queue)))
        self.parent = parent
        self.forest = frozenset(forest)
        self.components = tuple(components)
        self.component_of = {v: comp for comp in components for v in comp}
        self.nontree = tuple(e for e in graph.edge_ids if e not in forest)
        self.basis = [self._fundamental_cycle(graph, e) for e in self.nontree]

    def _root_chain(self, vid: str):
        """Edge chain from the component root down to vid, as {eid: +-1}."""
        chain = {}
        v = vid
        while self.parent[v] is not None:
            eid, end, v = self.parent[v]
            # arrived along the edge; +1 if traversed tail->head
            chain[eid] = chain.get(eid, 0) + (1 if end == 0 else -1)
        return chain

    def _fundamental_cycle(self, graph: MetricGraph, eid: str):
        tail, head = graph.ends(eid)
        cyc = {eid: 1}
        for e, c in self._root_chain(tail).items():
            cyc[e] = cyc.get(e, 0) + c
        for e, c in self._root_chain(head).items():
            cyc[e] = cyc.get(e, 0) - c
        return {e: c for e, c in cyc.items() if c}

    def even_subgraphs(self):
        """All 2^g even subgraphs, as frozensets of edge ids, in span order."""
        out = []
        g = len(self.nontree)
        supports = [frozenset(c) for c in self.basis]
        for mask in range(1 << g):
            acc = frozenset()
            for i in range(g):
                if mask >> i & 1:
                    acc = acc ^ supports[i]
            out.append(acc)
        return out


def is_even_subgraph(graph: MetricGraph, edge_set) -> bool:
    odd = set()  # vertices with an odd number of edge ends in the set so far
    for eid in frozenset(edge_set):
        if eid not in graph._edges:
            raise PointError("unknown edge %r" % eid)
        tail, head, _ = graph._edges[eid]
        odd ^= {tail}
        odd ^= {head}
    return not odd


def check_even_subgraph(graph: MetricGraph, edge_set) -> frozenset:
    es = frozenset(edge_set)
    if not is_even_subgraph(graph, es):
        raise CycleError("edge set %s is not an even subgraph" % sorted(es))
    return es


def require_unaugmented(graph: MetricGraph):
    if graph.is_augmented():
        raise AugmentedGraphError(
            "the graph carries vertex genus; virtualize it first"
        )


# -- refinement ----------------------------------------------------------


def _fresh(name: str, taken) -> str:
    """name, primed until taken does not hold it.

    A generated name ends in a number, so priming one never turns it into
    another generated name.
    """
    while name in taken:
        name += "'"
    return name


class Refinement:
    """A model refinement: new vertices at prescribed edge-interior points.

    Each refined edge covers an interval [a, b] of a base edge, oriented the
    same way.  Vertices of the base survive with their ids and genus.  A new
    vertex is named "e@t" and the k-th piece of a cut edge "e#k", primed
    when the base already uses the name; `origin` maps each new vertex to
    its base point and `seg` each refined edge to its interval, so ids are
    never parsed.
    """

    def __init__(self, base: MetricGraph, points: Iterable[Point]):
        by_edge = {}
        for p in points:
            p = base.check_point(p)
            if not p.is_vertex:
                by_edge.setdefault(p.id, {})[p.offset] = p
        vertices = [(v, base.genus_of(v)) for v in base.vertex_ids]
        edges = []
        origin = {}  # new vertex id -> base point
        seg = {}  # refined eid -> (base eid, a, b)
        pieces = {}  # base eid -> list of refined eids in offset order
        for eid in base.edge_ids:
            tail, head, ell = base._edges[eid]
            cuts = by_edge.get(eid)
            if not cuts:
                edges.append((eid, tail, head, ell))
                seg[eid] = (eid, ZERO, ell)
                pieces[eid] = [eid]
                continue
            stops = [ZERO]
            names = [tail]
            for t in sorted(cuts):
                vid = _fresh("%s@%s" % (eid, t), base._genus)
                vertices.append((vid, 0))
                origin[vid] = cuts[t]
                stops.append(t)
                names.append(vid)
            stops.append(ell)
            names.append(head)
            ids = []
            for k in range(len(stops) - 1):
                reid = _fresh("%s#%d" % (eid, k), base._edges)
                edges.append((reid, names[k], names[k + 1], stops[k + 1] - stops[k]))
                seg[reid] = (eid, stops[k], stops[k + 1])
                ids.append(reid)
            pieces[eid] = ids
        self.base = base
        self.graph = MetricGraph(vertices, edges)
        self.origin = origin
        self.seg = seg
        self.pieces = pieces

    def to_base_point(self, p: Point) -> Point:
        """Map a point of the refined model back to the base model."""
        if p.is_vertex:
            if p.id in self.origin:
                return self.origin[p.id]
            if p.id not in self.base._genus:
                raise PointError("unknown vertex %r" % p.id)
            return p
        beid, a, _ = self.seg[p.id]
        return self.base.point(beid, a + p.offset)

    def to_refined_point(self, p: Point) -> Point:
        """Map a base point into the refined model."""
        p = self.base.check_point(p)
        if p.is_vertex:
            return p
        for reid in self.pieces[p.id]:
            _, a, b = self.seg[reid]
            if a <= p.offset <= b:
                return self.graph.point(reid, p.offset - a)
        raise PointError("point %r not covered by refinement" % (p,))


def refine(graph: MetricGraph, points: Iterable[Point]) -> Refinement:
    return Refinement(graph, points)


# -- piecewise linear functions ------------------------------------------


class PLFunction:
    """Continuous piecewise linear function with values on a refinement."""

    def __init__(self, refinement: Refinement, values: Dict[str, Fraction]):
        self.refinement = refinement
        self.graph = refinement.base
        self.values = {v: rat(x) for v, x in values.items()}
        for v in refinement.graph.vertex_ids:
            if v not in self.values:
                raise PointError("missing value at refinement vertex %r" % v)

    def value(self, p: Point) -> Fraction:
        rp = self.refinement.to_refined_point(p)
        if rp.is_vertex:
            return self.values[rp.id]
        t, h = self.refinement.graph.ends(rp.id)
        ell = self.refinement.graph.length(rp.id)
        vt, vh = self.values[t], self.values[h]
        return vt + (vh - vt) * rp.offset / ell


# -- distance fields -----------------------------------------------------


class ShortestPaths:
    """Distances to a point or to a nonempty even subgraph from one
    certified Dijkstra run, and the orientation away from the source.

    The run is on `graph`: the given graph, or for a point inside an edge
    the model refined there, whose new vertex `origin` maps to the point.
    dist[v] is each model vertex's distance in the model's integer metric;
    `cycle` holds the source's edges (empty for a point).  indeg[v] counts
    the segments descending to v plus half of v's source ends (the source
    is oriented totally cyclically); `ridges` maps every other segment off
    the source, where the descent directions meet, to the meeting point
    as a point of the base graph.
    """

    def __init__(self, graph: MetricGraph, source: Union[Point, frozenset]):
        self.origin, self._seg = {}, {}  # model -> base, for a cut edge only
        if isinstance(source, Point):
            source = graph.check_point(source)
            self.cycle = frozenset()
            if source.is_vertex:
                self.seeds = (source.id,)
            else:
                ref = refine(graph, [source])
                graph, self.origin, self._seg = ref.graph, ref.origin, ref.seg
                self.seeds = tuple(ref.origin)  # the new vertex
        else:
            self.cycle = check_even_subgraph(graph, source)
            if not self.cycle:
                raise PointError("empty source cycle")
            self.seeds = tuple(sorted({v for e in self.cycle for v in graph.ends(e)}))
        self.graph = g = graph
        _, length = g.integer_metric()
        adj = g.incidence()
        dist = self.dist = {}
        heap = [(0, v) for v in self.seeds]  # sorted: a heap
        while heap:
            d, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for eid, end in adj[v]:
                w = g.other_end(eid, end)
                if w not in dist:
                    heapq.heappush(heap, (d + length[eid], w))
        for v in g.vertex_ids:
            if v not in dist:
                raise PointError("graph is disconnected: %r is not reachable from the source" % v)
        self._check()

    def base_point(self, v: str) -> Point:
        """The base graph's point at model vertex v."""
        return self.origin[v] if v in self.origin else Point.at_vertex(v)

    def _check(self):
        """Certify dist, orient the model and find the ridges: 0 at the
        seeds, a rise of at most the length on every segment off the
        source, and a segment descending by its full length to every other
        vertex.  A ridge lies on each segment off the source that descends
        to neither end."""
        g, dist = self.graph, self.dist
        scale, length = g.integer_metric()
        if any(dist[v] for v in self.seeds):
            raise SlopeError("nonzero distance at a source vertex")
        # an even subgraph gives each vertex an even number of source ends
        ends = Counter(v for e in self.cycle for v in g.ends(e))
        indeg = self.indeg = {v: ends[v] // 2 for v in g.vertex_ids}
        self.ridges = {}
        for reid in g.edge_ids:
            if reid in self.cycle:
                continue
            t, h = g.ends(reid)
            ell = length[reid]
            rise = dist[h] - dist[t]
            if rise == ell:
                indeg[h] += 1
            elif rise == -ell:
                indeg[t] += 1
            elif abs(rise) > ell:
                raise SlopeError("distances rise by more than the length of %r" % reid)
            else:
                # the descent directions meet at offset (ell + rise) / 2,
                # strictly inside the segment and so inside its base edge
                beid, a, _ = self._seg.get(reid, (reid, ZERO, None))
                self.ridges[reid] = Point.on_edge(beid, a + Fraction(ell + rise, 2 * scale))
        for v in g.vertex_ids:
            if not indeg[v] and v not in self.seeds:
                raise SlopeError("no segment descends from %r toward the source" % v)


class DistanceField(PLFunction):
    """Exact shortest-path distance to a point or to an even subgraph.

    Values are stored at the vertices of a refinement that includes the
    source and every interior ridge point, so each refined segment has slope
    +-1 (or 0 exactly on the source).  They come from one ShortestPaths
    pass: a vertex of its refinement keeps its distance, and a ridge on a
    segment of length l between distances d_t and d_h lies at (l + d_t +
    d_h) / 2.
    """

    def __init__(self, graph: MetricGraph, source: Union[Point, frozenset]):
        paths = ShortestPaths(graph, source)
        self.source_cycle = paths.cycle
        scale, length = paths.graph.integer_metric()
        at = {paths.base_point(v): Fraction(d, scale) for v, d in paths.dist.items()}
        for reid, p in paths.ridges.items():
            t, h = paths.graph.ends(reid)
            at[p] = Fraction(length[reid] + paths.dist[t] + paths.dist[h], 2 * scale)
        self.ridge_base_points = tuple(sorted(paths.ridges.values()))
        # the pass's new vertex, if any, is the source
        ref = refine(graph, [*paths.origin.values(), *self.ridge_base_points])
        super().__init__(
            ref, {v: at[ref.to_base_point(Point.at_vertex(v))] for v in ref.graph.vertex_ids}
        )
        self._check_slopes()

    def _check_slopes(self):
        """Slope +-1 off the source and 0 on it.  No ridge lies on the
        source, so its edges keep their ids in the refinement."""
        g = self.refinement.graph
        for reid in g.edge_ids:
            t, h = g.ends(reid)
            slope = (self.values[h] - self.values[t]) / g.length(reid)
            on_source = reid in self.source_cycle
            if abs(slope) != (0 if on_source else 1):
                raise SlopeError(
                    "distance field has slope %s on %r, not %s"
                    % (slope, reid, "0 on the source" if on_source else "+-1")
                )


def distance_field(graph: MetricGraph, source) -> DistanceField:
    if not isinstance(source, Point):
        source = frozenset(source)
    return DistanceField(graph, source)


# -- virtualization of vertex genus --------------------------------------


def virtual_loops(graph: MetricGraph):
    """The loops that virtualize(graph, eps) adds, the same for every eps:
    each vertex of positive genus mapped to the ids of its loops, named
    "v!k" and primed when the graph already uses the name."""
    registry = {}
    for v in graph.vertex_ids:
        loops = tuple(_fresh("%s!%d" % (v, k), graph._edges) for k in range(graph.genus_of(v)))
        if loops:
            registry[v] = loops
    return registry


def virtualize(graph: MetricGraph, eps=1) -> MetricGraph:
    """Replace vertex genus by the loops of virtual_loops, of length eps: a
    graph without vertex genus is its own virtualization."""
    eps = rat(eps)
    if eps <= 0:
        raise MalformedGraphError("loop length must be positive")
    registry = virtual_loops(graph)
    if not registry:
        return graph
    vertices = [(v, 0) for v in graph.vertex_ids]
    edges = [(e, *graph.ends(e), graph.length(e)) for e in graph.edge_ids]
    edges += [(lid, v, v, eps) for v, lids in registry.items() for lid in lids]
    return MetricGraph(vertices, edges)
