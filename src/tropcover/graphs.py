"""Metric graphs with exact rational edge lengths.

A graph is a finite model: vertices carrying a nonnegative genus, edges
carrying a positive rational length.  Loops and parallel edges are allowed.
Everything downstream (divisors, Jacobians, covers) works with points of the
underlying metric space, which are either vertices or interior edge positions
at a rational offset from the tail.  cut_at cuts the graph at points into a
numbered integer model, on which distances and PL functions are computed.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
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


def memoized(cache: dict, key, build, *args):
    """cache[key], built as build(*args) on the first read (no build returns
    None): the package's one way to cache.  Each owner's memo owns its
    entries, and no entry refers back to its owner.  A caller passes the
    class or the module global to call, so the name is read at call time."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build(*args)
    return value


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
        # this immutable graph's memo, read through memoized: the integer
        # metric, the incidence, the cycle space, the uncut model and the
        # period lattice, each built on first read
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
        return memoized(self._memo, "integer_metric", _integer_metric, self._edges)

    def incidence(self):
        """{vertex id: its (edge id, end) pairs}, end 0=tail, 1=head, sorted by
        edge id; a loop contributes both of its ends.  Built on first read;
        a traversal reads the mapping once, not once per step."""
        return memoized(self._memo, "incidence", _incidence, self)

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
        return memoized(self._memo, "cycle_space", CycleSpace, self)

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

    def same_model(self, other) -> bool:
        """Whether other, a graph or a model derived from one that keeps its
        genus and edge tables (a cut, a PeriodLattice), has this graph's tables."""
        # tuple equality tests each item for identity first: a model of this
        # very graph compares in constant time
        return (self._genus, self._edges) == (other._genus, other._edges)


def _integer_metric(edges):
    scale = lcm(*(ell.denominator for _, _, ell in edges.values()))
    return scale, {
        eid: ell.numerator * (scale // ell.denominator) for eid, (_, _, ell) in edges.items()
    }


def _incidence(graph: MetricGraph):
    ends = {v: [] for v in graph._genus}
    for eid in graph.edge_ids:
        tail, head, _ = graph._edges[eid]
        ends[tail].append((eid, 0))
        ends[head].append((eid, 1))
    return {v: tuple(es) for v, es in ends.items()}


def _inside(t: Fraction, ell: Fraction) -> bool:
    """0 < t < ell, decided on integer cross products."""
    n = t.numerator
    return 0 < n and n * ell.denominator < ell.numerator * t.denominator


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
        return span([frozenset(c) for c in self.basis], frozenset())


def span(generators, zero):
    """Every XOR sum of generators in span order: entry mask sums
    generators[i] over the bits i of mask, one XOR from the entry without
    its lowest bit."""
    out = [zero]
    for mask in range(1, 1 << len(generators)):
        low = mask & -mask
        out.append(out[mask ^ low] ^ generators[low.bit_length() - 1])
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


# -- cuts ----------------------------------------------------------------


# a piece of a base edge: its ends as vertex numbers, its length and its
# start on the edge as integers at the cut's scale, and the edge
Segment = namedtuple("Segment", "tail head length edge start")


class Refinement:
    """A graph cut at points as a numbered integer model, built by cut_at.

    Vertices are numbered as UnitSubdivision numbers them: the base
    vertices in vertex_ids order, then each edge's cut points in offset
    order, edges in edge_ids order; points[i] is vertex i's base point.
    scale is the lcm of the graph's scale and the cut offsets'
    denominators, and `segments` lists each edge's pieces from tail to
    head.  No graph, id or Fraction is built per segment, and no
    reference to the graph is kept: a caller that needs it passes it.  The
    cut keeps the graph's genus and edge tables, so that
    MetricGraph.same_model tells the graphs it is a cut of.
    """

    def __init__(self, graph: MetricGraph, points: Iterable[Point]):
        """points: points of graph in normal form, as cut_at checks them."""
        cuts = {}  # edge id -> {offset: point}
        for p in points:
            if not p.is_vertex:
                cuts.setdefault(p.id, {})[p.offset] = p
        graph_scale, length = graph.integer_metric()
        scale = lcm(graph_scale, *(t.denominator for at in cuts.values() for t in at))
        up = scale // graph_scale
        number = {v: i for i, v in enumerate(graph.vertex_ids)}
        pts = [Point.at_vertex(v) for v in graph.vertex_ids]
        segments = []
        self._first = {}  # edge id -> the index of its first segment
        for eid in graph.edge_ids:
            self._first[eid] = len(segments)
            tail, head = graph.ends(eid)
            t, a = number[tail], 0
            at = cuts.get(eid, ())
            for offset in sorted(at):
                x = offset.numerator * (scale // offset.denominator)
                segments.append(Segment(t, len(pts), x - a, eid, a))
                t, a = len(pts), x
                pts.append(at[offset])
            segments.append(Segment(t, number[head], length[eid] * up - a, eid, a))
        self._genus, self._edges = graph._genus, graph._edges
        self.scale = scale
        self.points = tuple(pts)
        self.segments = tuple(segments)
        self._number = {p: i for i, p in enumerate(pts)}
        # adjacency[i] lists vertex i's (neighbour, segment length) pairs; a
        # loop segment lists its vertex twice
        self.adjacency = [[] for _ in pts]
        for t, h, ell, _, _ in segments:
            self.adjacency[t].append((h, ell))
            self.adjacency[h].append((t, ell))

    def index(self, p: Point) -> int:
        """The number of the vertex at p, a base point in normal form."""
        i = self._number.get(p)
        if i is None:
            raise PointError("point %r is not a vertex of the cut" % (p,))
        return i

    def point(self, i: int) -> Point:
        """The base graph's point at vertex i."""
        return self.points[i]


def cut_at(graph: MetricGraph, points: Iterable[Point]) -> Refinement:
    """The cut of graph at points.  The uncut model, for points that cut no
    edge, is memoized in the graph's memo; no cut refers back to its graph."""
    points = [graph.check_point(p) for p in points]
    if any(not p.is_vertex for p in points):
        return Refinement(graph, points)
    return memoized(graph._memo, "refinement", Refinement, graph, ())


def refine(graph: MetricGraph, points: Iterable[Point]) -> MetricGraph:
    """The graph subdivided at points: vertex str(i) and edge str(k) are
    vertex i and segment k of cut_at(graph, points), base vertices keep
    their genus, and no generated id can collide with the graph's.  The
    library computes on the cut and never calls this."""
    model = cut_at(graph, points)
    genus = [graph.genus_of(v) for v in graph.vertex_ids] + [0] * len(model.points)
    edges = [
        (str(k), str(t), str(h), Fraction(ell, model.scale))
        for k, (t, h, ell, _, _) in enumerate(model.segments)
    ]
    return MetricGraph([(str(i), genus[i]) for i in range(len(model.points))], edges)


# -- piecewise linear functions ------------------------------------------


class PLFunction:
    """Continuous piecewise linear function on graph: values[i] at vertex i
    of refinement, a cut of graph, linear along each segment."""

    def __init__(self, graph: MetricGraph, refinement: Refinement, values):
        if not graph.same_model(refinement):
            raise PointError("the refinement is not a cut of the function's graph")
        self.graph = graph
        self.refinement = refinement
        self.values = [rat(x) for x in values]
        if len(self.values) != len(refinement.points):
            raise PointError("%d values for %d vertices" % (len(self.values), len(refinement.points)))

    def value(self, p: Point) -> Fraction:
        """f(p), interpolated on the first segment of p's edge that reaches p."""
        p = self.graph.check_point(p)
        cut = self.refinement
        if p.is_vertex:
            return self.values[cut.index(p)]
        x = p.offset * cut.scale
        k = cut._first[p.id]
        while cut.segments[k].start + cut.segments[k].length < x:
            k += 1
        t, h, ell, _, start = cut.segments[k]
        return self.values[t] + (self.values[h] - self.values[t]) * (x - start) / ell


# -- distance fields -----------------------------------------------------


class ShortestPaths:
    """Distances to a point or to a nonempty even subgraph from one
    certified Dijkstra run, and the orientation away from the source.

    The run is on `refinement`: the cut at the source for a point inside an
    edge, else the graph's memoized uncut model.  dist[i] is vertex i's
    distance in the cut's integer metric; `cycle` holds the source's edges
    (empty for a point).  indeg[i] counts the segments descending to vertex
    i plus half of its source ends (the source is oriented totally
    cyclically); `ridges` maps the index of each other segment off the
    source to the base point where its descent directions meet.
    """

    def __init__(self, graph: MetricGraph, source: Union[Point, frozenset]):
        if isinstance(source, Point):
            source = graph.check_point(source)
            self.cycle = frozenset()
            cut = cut_at(graph, [source])
            self.seeds = (cut.index(source),)
        else:
            self.cycle = check_even_subgraph(graph, source)
            if not self.cycle:
                raise PointError("empty source cycle")
            cut = cut_at(graph, ())
            seeds = {v for s in cut.segments if s.edge in self.cycle for v in (s.tail, s.head)}
            self.seeds = tuple(sorted(seeds))
        self.refinement = cut
        adj = cut.adjacency
        dist = self.dist = [None] * len(adj)
        heap = [(0, v) for v in self.seeds]  # sorted: a heap
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is not None:
                continue
            dist[v] = d
            for w, ell in adj[v]:
                if dist[w] is None:
                    heapq.heappush(heap, (d + ell, w))
        # a cut point is reached with the ends of its edge
        for v, d in zip(graph.vertex_ids, dist):
            if d is None:
                raise PointError("graph is disconnected: %r is not reachable from the source" % v)
        self._check()

    def _check(self):
        """Certify dist, orient the model and find the ridges: 0 at the
        seeds, a rise of at most the length on every segment off the
        source, and a segment descending by its full length to every other
        vertex.  A ridge lies on each segment off the source that descends
        to neither end."""
        cut, dist, cycle = self.refinement, self.dist, self.cycle
        if any(dist[v] for v in self.seeds):
            raise SlopeError("nonzero distance at a source vertex")
        # an even subgraph gives each vertex an even number of source ends
        ends = [0] * len(dist)
        for s in cut.segments:
            if s.edge in cycle:
                ends[s.tail] += 1
                ends[s.head] += 1
        indeg = self.indeg = [n // 2 for n in ends]
        self.ridges = {}
        for k, (t, h, ell, edge, start) in enumerate(cut.segments):
            if edge in cycle:
                continue
            rise = dist[h] - dist[t]
            if rise == ell:
                indeg[h] += 1
            elif rise == -ell:
                indeg[t] += 1
            elif abs(rise) > ell:
                raise SlopeError("distances rise by more than the length of a segment of %r" % edge)
            else:
                # the descent directions meet at (ell + rise) / 2 into the
                # segment, strictly inside it and so inside its edge
                self.ridges[k] = Point("edge", edge, Fraction(2 * start + ell + rise, 2 * cut.scale))
        for v, n in enumerate(indeg):
            if not n and v not in self.seeds:
                raise SlopeError("no segment descends from %r toward the source" % (cut.point(v),))


class DistanceField(PLFunction):
    """Exact shortest-path distance to a point or to an even subgraph.

    Values are stored at the vertices of the cut at the source and every
    ridge point, so each segment has slope +-1 (or 0 exactly on the
    source).  They come from one ShortestPaths pass: a vertex of its cut
    keeps its distance, and a ridge on a segment of length l between
    distances d_t and d_h lies at (l + d_t + d_h) / 2.
    """

    def __init__(self, graph: MetricGraph, source: Union[Point, frozenset]):
        paths = ShortestPaths(graph, source)
        self.source_cycle = paths.cycle
        first, dist = paths.refinement, paths.dist
        at = {p: Fraction(d, first.scale) for p, d in zip(first.points, dist)}
        for k, p in paths.ridges.items():
            t, h, ell, _, _ = first.segments[k]
            at[p] = Fraction(ell + dist[t] + dist[h], 2 * first.scale)
        self.ridge_base_points = tuple(sorted(paths.ridges.values()))
        cut = cut_at(graph, [*first.points, *self.ridge_base_points])
        super().__init__(graph, cut, [at[p] for p in cut.points])
        self._check_slopes()

    def _check_slopes(self):
        """Slope +-1 off the source and 0 on it.  No ridge lies on the
        source, so a segment lies on it exactly when its edge does."""
        cut, values = self.refinement, self.values
        for t, h, ell, edge, _ in cut.segments:
            slope = (values[h] - values[t]) * cut.scale / ell
            on_source = edge in self.source_cycle
            if abs(slope) != (0 if on_source else 1):
                want = "0 on the source" if on_source else "+-1"
                raise SlopeError("distance field has slope %s on %r, not %s" % (slope, edge, want))


def distance_field(graph: MetricGraph, source) -> DistanceField:
    if not isinstance(source, Point):
        source = frozenset(source)
    return DistanceField(graph, source)


# -- virtualization of vertex genus --------------------------------------


def _fresh(name: str, taken) -> str:
    """name, primed until taken does not hold it.

    A generated name ends in a number, so priming one never turns it into
    another generated name.
    """
    while name in taken:
        name += "'"
    return name


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
