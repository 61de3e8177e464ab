"""Unramified degree-2 harmonic morphisms of metric graphs.

Free covers (no dilation) are classified by sheet-swap bits on the non-tree
edges of a spanning tree: 2^g of them, including the disconnected trivial
one.  Covers dilated along a nonempty even subgraph c map c's preimage by a
factor-2 stretch, carry vertex genus (deg_c(v)/2 - 1) there, and restrict
to a free cover over the complement; there are 2^h of them, h the sum of
the complement components' genera.

Naming: lifts of a vertex v are "v^0"/"v^1", its dilated preimage "v~";
likewise for edges.  Every lifted edge maps to its base edge preserving
orientation, so offsets transport directly.

The covers over one dilation cycle differ only in their sheet-swap bits, so
the rest is built once per cycle: a CoverFrame, whose maps and fibers
every cover of the cycle holds, and the vertices and lifted names and
lengths that each source is assembled from.  A built
and a parsed cover get their frame from cover_frame alike, which derives
the dilation set from the edge map.  A built cover's source carries its
integer metric from the start, derived in integers from the target's
rather than from the source's Fractions.

Vertex genus appears only at the dilated vertices of a dilated cover, so
only there does source_sharp() virtualize it into a new graph: a free
cover's virtualized source is its source.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List

from .divisors import Divisor
from .errors import CoverError, CycleError, PointError
from .graphs import (
    MetricGraph,
    Point,
    check_even_subgraph,
    is_even_subgraph,
    memoized,
    require_unaugmented,
    virtual_loops,
    virtualize,
)
from .rationals import rat

HALF = Fraction(1, 2)


# The read-only half of a cover, which every cover over one target and
# dilation set shares: the maps (vertex_map: source vertex -> target
# vertex; edge_map: source edge -> (target edge, dilation degree);
# involution_v and involution_e on source vertices and edges), the dilation
# set and the fibers (target vertex -> [(source vertex, local degree)],
# target edge -> [(source edge, dilation degree)], each sorted by source
# id).  Build one with cover_frame.
CoverFrame = namedtuple(
    "CoverFrame",
    "target dilation vertex_map edge_map involution_v involution_e fibers",
)


def cover_frame(target, vertex_map, edge_map, involution_v) -> CoverFrame:
    """The frame of the covers of target with these maps, which it keeps
    without copying.  The edge involution swaps the two lifts of each
    target edge and fixes the single lift of a dilated one; the dilation
    set is the target edges with a degree-2 lift.  Raises CoverError for a
    target edge whose lifts cannot be paired."""
    over_e = {}
    for se, (te, d) in sorted(edge_map.items()):
        over_e.setdefault(te, []).append((se, d))
    involution_e = {}
    for te, lifts in over_e.items():
        if len(lifts) == 2:
            (a, _), (b, _) = lifts
            involution_e[a], involution_e[b] = b, a
        elif len(lifts) != 1:
            raise CoverError("edge %r has %d lifts" % (te, len(lifts)))
        elif lifts[0][1] != 2:
            raise CoverError("edge %r has a single undilated lift" % te)
        else:
            involution_e[lifts[0][0]] = lifts[0][0]
    over_v = {}
    for sv, tv in sorted(vertex_map.items()):
        d = 2 if involution_v.get(sv, sv) == sv else 1
        over_v.setdefault(tv, []).append((sv, d))
    dilation = frozenset(te for te, d in edge_map.values() if d == 2)
    return CoverFrame(
        target, dilation, vertex_map, edge_map, involution_v, involution_e,
        (over_v, over_e),
    )


class DoubleCover:
    """A degree-2 harmonic morphism onto an unaugmented target: a frame and
    a source graph (possibly augmented) with the sheet-swap bits that built
    it (None for a parsed cover)."""

    def __init__(self, frame: CoverFrame, source: MetricGraph, bits=None):
        self.frame = frame
        self.source = source
        self.bits = bits
        # this cover's memo, read through memoized: per eps, the virtualized
        # source and the homology action
        self._memo = {}

    # the frame's fields, shared with every cover of the frame: read-only
    target = property(lambda self: self.frame.target)
    dilation = property(lambda self: self.frame.dilation)
    vertex_map = property(lambda self: self.frame.vertex_map)
    edge_map = property(lambda self: self.frame.edge_map)
    involution_v = property(lambda self: self.frame.involution_v)
    involution_e = property(lambda self: self.frame.involution_e)

    # -- virtualized source ----------------------------------------------

    def source_sharp(self, eps=1) -> MetricGraph:
        """The source with its vertex genus virtualized by loops of length
        eps: the source itself when it has no genus, as a free cover's."""
        return memoized(self._memo, ("sharp", rat(eps)), virtualize, self.source, eps)

    def sharp_host(self, D: Divisor, eps=1) -> MetricGraph:
        """source_sharp(eps), which D must live on."""
        sharp = self.source_sharp(eps)
        if not D.graph.same_model(sharp):
            raise CoverError("divisor does not live on the virtualized source")
        return sharp

    def loop_vertex(self, eid: str) -> str:
        """The source vertex carrying a virtual loop of source_sharp()."""
        for v, lids in virtual_loops(self.source).items():
            if eid in lids:
                return v
        raise PointError("%r is neither a source edge nor a virtual loop" % eid)

    # -- point maps -------------------------------------------------------

    def project_point(self, p: Point) -> Point:
        """Image in the target of a point of a virtualized source."""
        if p.is_vertex:
            return Point.at_vertex(self.vertex_map[p.id])
        if p.id not in self.edge_map:
            return Point.at_vertex(self.vertex_map[self.loop_vertex(p.id)])
        te, d = self.edge_map[p.id]
        return self.target.point(te, p.offset * d)

    def involute_point(self, p: Point, eps=1) -> Point:
        sharp = self.source_sharp(eps)
        if p.is_vertex:
            return Point.at_vertex(self.involution_v.get(p.id, p.id))
        if p.id in self.edge_map:
            return sharp.point(self.involution_e[p.id], p.offset)
        self.loop_vertex(p.id)  # only a virtual loop lies outside edge_map
        return sharp.point(p.id, rat(eps) - p.offset)

    def lifts_of_point(self, p: Point):
        """[(source point, local degree)] over a target point."""
        p = self.target.check_point(p)
        over_v, over_e = self.frame.fibers
        if p.is_vertex:
            return [(Point.at_vertex(sv), d) for sv, d in over_v.get(p.id, ())]
        return [(Point.on_edge(se, p.offset / d), d) for se, d in over_e.get(p.id, ())]


# -- construction --------------------------------------------------------


def _interior(graph: MetricGraph, cycle: frozenset) -> MetricGraph:
    """The subgraph on off-cycle vertices with both-ends-off edges; off
    the empty cycle that subgraph is graph itself."""
    if cycle:
        on = set()
        for eid in cycle:
            on.update(graph.ends(eid))
        verts = [v for v in graph.vertex_ids if v not in on]
        edges = []
        for eid in graph.edge_ids:
            if eid in cycle:
                continue
            t, h = graph.ends(eid)
            if t not in on and h not in on:
                edges.append((eid, t, h, graph.length(eid)))
        graph = MetricGraph(verts, edges)
    return graph


# What building a cover reads besides its frame: all but the placement of
# each sheet's edges, which the sheet-swap bits decide.  vertices lists
# (source vertex, genus); dilated holds the source edges over the cycle as
# (id, tail, head, length); undilated holds, per edge off the cycle, (target
# edge, (lift ids), tail lifts, head lifts, length), the lifts of a vertex
# indexed by sheet; metric is the source's integer_metric().
_CoverLayout = namedtuple("_CoverLayout", "frame vertices dilated undilated metric")


def _cover_layout(graph: MetricGraph, cycle: frozenset) -> _CoverLayout:
    """The bit-independent half of the covers of graph dilated along cycle.

    The source's integer metric follows from the target's (scale s,
    lengths L) in integers: a dilated lift has length L / 2s, so the
    source's scale is 2s when some dilated L is odd and s otherwise, and
    with k that ratio, lifts measure L * k and dilated lifts L * k / 2.
    That is again the lcm of the source's length denominators.
    """
    scale, length = graph.integer_metric()
    k = 2 if any(length[eid] % 2 for eid in cycle) else 1
    on_deg = dict.fromkeys(graph.vertex_ids, 0)
    for eid in cycle:
        t, h = graph.ends(eid)
        on_deg[t] += 1
        on_deg[h] += 1

    vertices = []
    vmap = {}
    inv_v = {}
    lift = {}  # target vertex -> its lift on sheets 0 and 1
    for v in graph.vertex_ids:
        if on_deg[v]:
            dv = "%s~" % v
            vertices.append((dv, on_deg[v] // 2 - 1))
            vmap[dv] = v
            inv_v[dv] = dv
            lift[v] = (dv, dv)
        else:
            v0, v1 = lift[v] = ("%s^0" % v, "%s^1" % v)
            vertices += [(v0, 0), (v1, 0)]
            vmap[v0] = vmap[v1] = v
            inv_v[v0], inv_v[v1] = v1, v0

    emap = {}
    src_length = {}
    dilated = []
    undilated = []
    for eid in graph.edge_ids:
        t, h = graph.ends(eid)
        if eid in cycle:
            de = "%s~" % eid
            dilated.append((de, lift[t][0], lift[h][0], graph.length(eid) * HALF))
            emap[de] = (eid, 2)
            src_length[de] = length[eid] * k // 2
        else:
            lifts = ("%s^0" % eid, "%s^1" % eid)
            undilated.append((eid, lifts, lift[t], lift[h], graph.length(eid)))
            for se in lifts:
                emap[se] = (eid, 1)
                src_length[se] = length[eid] * k
    # the derived dilation set equals cycle; the covers keep the caller's
    # object, so whoever keeps the cycle and the covers' reports keeps one set
    frame = cover_frame(graph, vmap, emap, inv_v)._replace(dilation=cycle)
    return _CoverLayout(frame, vertices, dilated, undilated, (scale * k, src_length))


def _build_cover(layout: _CoverLayout, bits: Dict[str, int]) -> DoubleCover:
    """Assemble the cover for one sheet-swap bit assignment.

    bits maps off-cycle edges with both endpoints off the cycle to 0/1;
    missing edges default to 0.  Sheet s of edge e runs from the tail's
    lift on sheet s to the head's on sheet s ^ bit(e).
    """
    edges = list(layout.dilated)
    for eid, (se0, se1), tails, heads, ell in layout.undilated:
        b = bits.get(eid, 0)
        edges.append((se0, tails[0], heads[b], ell))
        edges.append((se1, tails[1], heads[1 ^ b], ell))
    source = MetricGraph(layout.vertices, edges)
    # the layout derived this metric from the target's; every cover of the
    # frame shares it, read-only like any memo entry
    source._memo["integer_metric"] = layout.metric
    return DoubleCover(layout.frame, source, bits)


def _covers_over(graph: MetricGraph, cycle: frozenset) -> List[DoubleCover]:
    """The 2^h covers dilated along cycle, in bit-vector order over the
    non-tree edges of the interior."""
    layout = _cover_layout(graph, cycle)
    nontree = _interior(graph, cycle).cycle_space().nontree
    return [
        _build_cover(layout, {e: mask >> i & 1 for i, e in enumerate(nontree)})
        for mask in range(1 << len(nontree))
    ]


def free_covers(graph: MetricGraph) -> List[DoubleCover]:
    """All 2^g degree-2 covering spaces, in bit-vector order over the
    non-tree edges (the all-zero vector is the disconnected trivial cover)."""
    require_unaugmented(graph)
    return _covers_over(graph, frozenset())


def free_cover(graph: MetricGraph, bits: Dict[str, int]) -> DoubleCover:
    """One covering space from sheet-swap bits (0 or 1) on the non-tree edges."""
    require_unaugmented(graph)
    layout = _cover_layout(graph, frozenset())
    unknown = set(bits) - set(graph.cycle_space().nontree)
    if unknown:
        raise CoverError("bits on tree edges or unknown edges: %s" % sorted(unknown))
    for eid, b in sorted(bits.items()):
        # type(), not isinstance: True and 1.0 compare equal to 1 too
        if type(b) is not int or b not in (0, 1):
            raise CoverError("bit on edge %r is %r, not 0 or 1" % (eid, b))
    return _build_cover(layout, dict(bits))


def covers_with_dilation(graph: MetricGraph, cycle) -> List[DoubleCover]:
    """The 2^h unramified double covers dilated exactly along the cycle."""
    require_unaugmented(graph)
    cycle = check_even_subgraph(graph, cycle)
    if not cycle:
        raise CycleError("dilation cycle must be nonempty; use free_covers")
    return _covers_over(graph, cycle)


# -- verification --------------------------------------------------------


# ok: a bool; dilation: a frozenset of target edges; problems: a list of
# messages, empty when ok
CoverReport = namedtuple("CoverReport", "ok dilation problems")


def verify_cover(cover: DoubleCover) -> CoverReport:
    """Check every double-cover invariant; diagnostic, never raises.

    Lengths are compared in the two graphs' integer metrics: l_src * d ==
    l_tgt is len_src * d * scale_tgt == len_tgt * scale_src.
    """
    problems = []
    complain = problems.append
    tgt, src = cover.target, cover.source
    vertex_map, edge_map = cover.vertex_map, cover.edge_map

    if tgt.is_augmented():
        complain("target is augmented")

    # structural maps
    src_genus, tgt_genus = src._genus, tgt._genus
    src_edges, tgt_edges = src._edges, tgt._edges
    src_scale, src_len = src.integer_metric()
    tgt_scale, tgt_len = tgt.integer_metric()
    for sv in src.vertex_ids:
        if sv not in vertex_map or vertex_map[sv] not in tgt_genus:
            complain("vertex %r unmapped" % sv)
    for sv in vertex_map:
        if sv not in src_genus:
            complain("vertex map names %r, which is not a source vertex" % sv)
    inv_v = cover.involution_v
    for sv in sorted({*inv_v, *inv_v.values()}.difference(src_genus)):
        complain("involution names %r, which is not a source vertex" % sv)
    for se in sorted(edge_map.keys() - src_edges.keys()):
        complain("edge map names %r, which is not a source edge" % se)
    for se in src.edge_ids:
        image = edge_map.get(se)
        if image is None:
            complain("edge %r unmapped" % se)
            continue
        te, d = image
        if te not in tgt_edges or d not in (1, 2):
            complain("edge %r has a bad image" % se)
            continue
        st, sh, _ = src_edges[se]
        tt, th, _ = tgt_edges[te]
        if vertex_map.get(st) != tt or vertex_map.get(sh) != th:
            complain("edge %r does not map ends to ends" % se)
        if src_len[se] * d * tgt_scale != tgt_len[te] * src_scale:
            complain("edge %r breaks metric compatibility" % se)
    if problems:
        return CoverReport(False, frozenset(), problems)

    # fibers carry total degree 2 over every edge
    deg_over = dict.fromkeys(tgt.edge_ids, 0)
    for te, d in edge_map.values():
        deg_over[te] += d
    for te, d in deg_over.items():
        if d != 2:
            complain("edge %r has fiber degree %d" % (te, d))

    # one pass over each source vertex's edge ends gives harmonicity, the
    # local degree and the ramification excess sum(d_end - 1)
    src_adj, tgt_adj = src.incidence(), tgt.incidence()
    local_degree = {}
    ramified = []
    for sv in src.vertex_ids:
        per_direction = dict.fromkeys(tgt_adj[vertex_map[sv]], 0)
        excess = 0
        for se, send in src_adj[sv]:
            te, d = edge_map[se]
            per_direction[te, send] += d
            excess += d - 1
        degs = set(per_direction.values())
        if len(degs) != 1:
            complain("vertex %r is not harmonic" % sv)
        local = local_degree[sv] = max(degs) if degs else 0
        # ramification: the excess must be 2g+2 at dilated points, 2g else
        if excess != 2 * src_genus[sv] + (2 if local == 2 else 0):
            ramified.append("vertex %r is ramified" % sv)

    # vertex fibers carry total degree 2
    fiber_deg = dict.fromkeys(tgt.vertex_ids, 0)
    for sv, tv in vertex_map.items():
        fiber_deg[tv] += local_degree.get(sv, 0)
    for tv, d in fiber_deg.items():
        if d != 2:
            complain("vertex %r has fiber degree %d" % (tv, d))
    problems.extend(ramified)

    # involution
    inv_e = cover.involution_e
    for sv in src.vertex_ids:
        isv = inv_v.get(sv)
        if isv is None or inv_v.get(isv) != sv:
            complain("involution is not involutive at %r" % sv)
        elif vertex_map[isv] != vertex_map[sv]:
            complain("involution does not commute with the cover at %r" % sv)
        elif isv == sv and local_degree[sv] != 2:
            complain("involution fixes the undilated vertex %r" % sv)
        elif isv != sv and local_degree[sv] == 2:
            complain("involution moves the dilated vertex %r" % sv)
    for se in src.edge_ids:
        ise = inv_e.get(se)
        if ise is None:
            continue
        st, sh, _ = src_edges[se]
        it, ih, _ = src_edges[ise]
        if inv_v.get(st) != it or inv_v.get(sh) != ih:
            complain("edge involution breaks incidence at %r" % se)
        if src_len[se] != src_len[ise]:
            complain("edge involution is not an isometry at %r" % se)

    dilation = frozenset(cover.dilation)
    if dilation != {te for te, d in edge_map.values() if d == 2}:
        complain("dilation set differs from the edges with a degree-2 lift")
    if not is_even_subgraph(tgt, dilation):
        complain("dilation set is not an even subgraph")

    return CoverReport(not problems, dilation, problems)


# -- divisor transport ---------------------------------------------------


def pullback(cover: DoubleCover, D: Divisor, eps=1) -> Divisor:
    """phi^* D on the virtualized source."""
    sharp = cover.source_sharp(eps)
    if not D.graph.same_model(cover.target):
        raise CoverError("divisor does not live on the cover target")
    out = []
    for p, a in D.items():
        for sp, d in cover.lifts_of_point(p):
            out.append((sp, d * a))
    return Divisor(sharp, out)


def pushforward(cover: DoubleCover, D: Divisor, eps=1) -> Divisor:
    """phi_* D for D on the virtualized source."""
    cover.sharp_host(D, eps)
    return Divisor(cover.target, [(cover.project_point(p), a) for p, a in D.items()])


def involution_divisor(cover: DoubleCover, D: Divisor, eps=1) -> Divisor:
    sharp = cover.sharp_host(D, eps)
    return Divisor(sharp, [(cover.involute_point(p, eps), a) for p, a in D.items()])

