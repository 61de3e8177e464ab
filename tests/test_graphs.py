"""Metric graph model, cuts, cycle space, and distance fields."""

import gc
import random
import weakref
from fractions import Fraction
from math import lcm

import pytest

from tropcover import (
    CycleSpace,
    Divisor,
    MalformedGraphError,
    MetricGraph,
    PLFunction,
    Point,
    PointError,
    abel_jacobi,
    covers_with_dilation,
    cut_at,
    distance_field,
    effective_representative,
    enumerate_theta,
    homology_action,
    is_even_subgraph,
    period_lattice,
    refine,
    serialize,
    verify_cover,
    virtualize,
)
from tropcover.graphs import ShortestPaths, virtual_loops
from conftest import random_divisor, random_graph
from oracles import StringIdRefinement, incidence


def floyd_warshall(graph):
    """All-pairs shortest vertex distances, as an independent oracle."""
    verts = graph.vertex_ids
    INF = None
    dist = {(u, v): (Fraction(0) if u == v else INF) for u in verts for v in verts}
    for e in graph.edge_ids:
        t, h = graph.ends(e)
        ell = graph.length(e)
        for a, b in ((t, h), (h, t)):
            if dist[(a, b)] is None or ell < dist[(a, b)]:
                dist[(a, b)] = ell
    for k in verts:
        for i in verts:
            if dist[(i, k)] is None:
                continue
            for j in verts:
                if dist[(k, j)] is None:
                    continue
                alt = dist[(i, k)] + dist[(k, j)]
                if dist[(i, j)] is None or alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def test_basic_accessors(k4):
    assert k4.genus() == 3
    assert k4.is_connected()
    assert k4.valence("A") == 3
    assert k4.ends("AB") == ("A", "B")
    assert not k4.is_augmented()


def test_loops_and_parallel_edges(dumbbell, theta_graph):
    assert dumbbell.genus() == 2
    assert dumbbell.valence("u") == 3  # loop counts twice
    assert theta_graph.genus() == 2


def test_validate_rejects_bad_data():
    assert MetricGraph([("a", 0)], []).is_connected()
    # the first problem is the one reported
    with pytest.raises(MalformedGraphError, match="^duplicate vertex id 'a'$"):
        MetricGraph([("a", 0), ("a", 0)], [("e", "a", "missing", Fraction(-1))])
    with pytest.raises(MalformedGraphError):
        MetricGraph(["a", "a"], [])
    with pytest.raises(MalformedGraphError):
        MetricGraph(["a"], [("e", "a", "a", 0)])


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["a", "a"], [], "duplicate vertex id 'a'"),
        (["a", "b"], [("e", "a", "b", 1), ("e", "b", "a", 1)], "duplicate edge id 'e'"),
        (["a"], [("e", "a", "zz", 1)], "edge 'e' has unknown endpoint"),
        (["a"], [("e", "a", "a", 0)], "edge 'e' has nonpositive length"),
        (["a"], [("e", "a", "a", Fraction(-1, 2))], "edge 'e' has nonpositive length"),
        (["a"], [("e", "a", "a", 1.5)], "edge 'e' has unparseable length"),
        (["a"], [("e", "a", "a", "x")], "edge 'e' has unparseable length"),
        (["a"], [("e", "a", "a", None)], "edge 'e' has unparseable length"),
        (["a"], [("e", "a", "a", "1/0")], "edge 'e' has unparseable length"),
        (["a"], [("e", "a", "a", True)], "edge 'e' has unparseable length"),
        ([("a", 0), ("b", -1)], [], "genus at 'b' is not a nonnegative integer"),
        ([("a", 0), ("b", 1.5)], [], "genus at 'b' is not a nonnegative integer"),
        ([("a", 0), ("b", "2")], [], "genus at 'b' is not a nonnegative integer"),
        ([("a", 0), ("b", True)], [], "genus at 'b' is not a nonnegative integer"),
    ],
    ids=[
        "duplicate-vertex",
        "duplicate-edge",
        "unknown-endpoint",
        "length-0",
        "length-negative",
        "length-float",
        "length-text",
        "length-none",
        "length-zero-denominator",
        "length-bool",
        "genus-negative",
        "genus-float",
        "genus-text",
        "genus-bool",
    ],
)
def test_malformed_graph_data(vertices, edges, message):
    # MetricGraph alone decides validity, and its message names the problem
    with pytest.raises(MalformedGraphError) as info:
        MetricGraph(vertices, edges)
    assert str(info.value) == message


def test_validate_reports_a_disconnected_graph():
    # a valid graph that is not connected is what `tropcover validate`
    # reports as "disconnected"
    assert not MetricGraph(["a", "b"], []).is_connected()
    assert MetricGraph(["a", "b"], [("e", "a", "b", "1/2")]).is_connected()


def test_point_normalization(k4):
    p = k4.point("AB", Fraction(0))
    assert p.is_vertex and p.id == "A"
    q = k4.point("AB", Fraction(1))
    assert q.is_vertex and q.id == "B"
    mid = k4.point("AB", Fraction(1, 2))
    assert mid == Point("edge", "AB", Fraction(1, 2)) and not mid.is_vertex


def test_offsets_off_the_edge_raise_and_its_ends_are_vertices():
    g = MetricGraph(["a", "b"], [("e", "a", "b", "3/2"), ("l", "b", "b", "1/3")])
    for eid, ell, tail, head in (("e", Fraction(3, 2), "a", "b"), ("l", Fraction(1, 3), "b", "b")):
        for t, vid in ((Fraction(0), tail), (ell, head), (0, tail)):
            assert g.point(eid, t) == Point.at_vertex(vid)
            assert g.check_point(Point("edge", eid, t)) == Point.at_vertex(vid)
        for t in (ell / 7, ell - Fraction(1, 10**9)):
            p = Point.on_edge(eid, t)
            assert g.point(eid, t) == p and g.check_point(p) is p
        for t in (-ell, Fraction(-1, 10**9), ell + Fraction(1, 10**9), 2 * ell, -1):
            with pytest.raises(PointError, match="offset .* outside edge %r" % eid):
                g.point(eid, t)
            with pytest.raises(PointError, match="offset .* outside edge %r" % eid):
                g.check_point(Point("edge", eid, t))
    # an int offset inside the edge comes back as a Fraction
    assert g.check_point(Point("edge", "e", 1)).offset == Fraction(1)
    with pytest.raises(PointError, match="unknown edge 'x'"):
        g.check_point(Point.on_edge("x", "1/2"))


def test_incidence_is_built_on_first_read_and_matches_the_edge_list():
    rng = random.Random(41)
    graphs = [random_graph(rng, max_genus=4) for _ in range(30)]
    loops = parallels = 0
    for g in graphs:
        assert "incidence" not in g._memo
        g.cycle_space()
        adj = g._memo["incidence"]
        assert adj == incidence(g) and g.incidence() is adj
        for v in g.vertex_ids:
            assert g.valence(v) == len(adj[v])
        ends = [frozenset(g.ends(e)) for e in g.edge_ids]
        loops += sum(len(e) == 1 for e in ends)
        parallels += len(ends) - len(set(ends))
    # the sample has loops and parallel edges
    assert loops and parallels


def test_reduction_and_serialization_read_no_incidence(k4):
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, max_genus=3, unit_lengths=True)
        # random_graph is connected, so this is its genus
        D = random_divisor(rng, g, len(g.edge_ids) - len(g.vertex_ids) + 1)
        assert effective_representative(D) is not None
        assert "incidence" not in D.graph._memo
    again = serialize.graph_from_obj(serialize.graph_to_obj(k4))
    assert "incidence" not in k4._memo and "incidence" not in again._memo


def test_point_is_an_immutable_kind_id_offset_triple(k4, cube_cover):
    a, b = Point.at_vertex("A"), Point.at_vertex("B")
    e1, e2 = Point.on_edge("AB", "1/3"), Point.on_edge("AB", "2/3")
    f = Point.on_edge("AC", "1/2")
    # order is lexicographic on (kind, id, offset): "edge" < "vertex"
    assert sorted([b, f, e2, a, e1]) == [e1, e2, f, a, b]
    assert a.offset == 0 and a == ("vertex", "A", 0)
    kind, vid, offset = e1
    assert (kind, vid, offset) == ("edge", "AB", Fraction(1, 3))
    # equal offsets hash equal, however they were written
    same = Point.on_edge("AB", Fraction(2, 6))
    assert same == e1 and hash(same) == hash(e1) and len({e1, same}) == 1
    with pytest.raises(AttributeError):
        e1.offset = Fraction(1, 2)
    with pytest.raises(AttributeError):
        e1.label = "x"
    assert repr(a) == "Point(A)" and repr(e1) == "Point(AB@1/3)"
    # the result records read by name
    t = enumerate_theta(k4)[0]
    assert t.cycle == frozenset() and not t.effective
    assert t.basepoint == a and t.divisor.degree() == 2
    report = verify_cover(cube_cover)
    assert report.ok and report.dilation == frozenset() and report.problems == []


def test_refine_preserves_genus_and_length():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng)
        pts = []
        for e in g.edge_ids[:2]:
            pts.append(Point.on_edge(e, g.length(e) / 3))
        h = refine(g, pts)
        assert h.genus() == g.genus()
        total = sum((g.length(e) for e in g.edge_ids), Fraction(0))
        assert sum((h.length(e) for e in h.edge_ids), Fraction(0)) == total
        ref = cut_at(g, pts)
        # each cut point adds a vertex and a segment, so V - E is kept
        cuts = len(ref.points) - len(g.vertex_ids)
        assert cuts == len(pts) and len(ref.segments) == len(g.edge_ids) + cuts
        assert ref.scale == lcm(g.integer_metric()[0], *(p.offset.denominator for p in pts))
        for e in g.edge_ids:
            pieces = [s for s in ref.segments if s.edge == e]
            assert sum(s.length for s in pieces) == g.length(e) * ref.scale
            # the pieces chain from the edge's tail to its head
            tail, head = (ref.index(Point.at_vertex(v)) for v in g.ends(e))
            assert pieces[0].tail == tail and pieces[-1].head == head
            assert pieces[0].start == 0
            for a, b in zip(pieces, pieces[1:]):
                assert a.head == b.tail and a.start + a.length == b.start


def test_refined_points_round_trip(k4):
    mid = Point.on_edge("AB", Fraction(1, 3))
    ref = cut_at(k4, [mid])
    # base vertices first, in vertex_ids order, then the cut points
    assert ref.points == tuple(Point.at_vertex(v) for v in k4.vertex_ids) + (mid,)
    assert ref.index(mid) == 4 and ref.point(4) == mid
    assert [ref.index(p) for p in ref.points] == list(range(5))
    with pytest.raises(PointError, match="not a vertex of the cut"):
        ref.index(Point.on_edge("AB", Fraction(1, 2)))
    # a cut at vertices only is the graph's one memoized uncut model
    uncut = cut_at(k4, [])
    assert cut_at(k4, [Point.at_vertex("C")]) is uncut and k4._memo["refinement"] is uncut
    assert len(uncut.segments) == 6 and uncut.scale == 1


def test_a_pl_function_interpolates_on_a_cut_inside_an_edge():
    g = MetricGraph(["a"], [("l", "a", "a", 2)])
    f = PLFunction(g, cut_at(g, [Point.on_edge("l", 1)]), [0, 1])
    assert f.graph is g and f.value(Point.on_edge("l", Fraction(1, 2))) == Fraction(1, 2)
    # the graph a function names is one its cut was made from
    other = MetricGraph(["a"], [("l", "a", "a", 4)])
    with pytest.raises(PointError, match="not a cut of the function's graph"):
        PLFunction(other, f.refinement, [0, 1])


def test_no_model_derived_from_a_graph_keeps_it_alive():
    # the graph's memo owns its uncut model, period lattice and cycle space,
    # and a cut inside an edge is the caller's: none refers back, so
    # reference counting frees the graph while every one of them lives on;
    # the lattice's memo and a cover's hold nothing that refers back either
    gc.collect()
    gc.disable()
    try:
        g = MetricGraph(["a", "b"], [("e", "a", "b", 1), ("f", "a", "b", 2), ("l", "a", "a", 1)])
        uncut, cut = cut_at(g, []), cut_at(g, [Point.on_edge("f", 1)])
        lat, cs = period_lattice(g), g.cycle_space()
        assert lat.inverse() is lat.inverse()
        ref = weakref.ref(g)
        del g
        assert ref() is None
        # a caller passes a graph with the same tables
        again = MetricGraph(["a", "b"], [("e", "a", "b", 1), ("f", "a", "b", 2), ("l", "a", "a", 1)])
        D = Divisor(again, [(Point.on_edge("f", 1), 1), (Point.at_vertex("a"), -1)])
        assert abel_jacobi(lat, D) == [Fraction(1), Fraction(0)]
        f = PLFunction(again, cut, range(len(cut.points)))
        assert f.value(Point.on_edge("f", Fraction(3, 2))) == Fraction(3, 2)
        assert len(uncut.segments) == 3 and len(cs.basis) == 2
        # a lattice whose inverse is built, and a cover whose virtualized
        # source and homology action are built
        cover = covers_with_dilation(again, frozenset(["e", "f"]))[0]
        act = homology_action(cover)
        assert act.lattice is period_lattice(cover.source_sharp())
        refs = [weakref.ref(x) for x in (lat, cover, act, cover.source_sharp())]
        del lat, cover, act
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_refine_avoids_user_ids_shaped_like_generated_ones():
    # refine names each vertex and edge of the subdivided graph by its
    # number in the cut, so no user id can collide with a generated one
    g = MetricGraph(
        [("A", 1), "B", "0", "f@3"],
        [("f", "A", "B", 4), ("e", "A", "B", 2), ("1", "A", "B", 3),
         ("e#0", "B", "f@3", 1), ("0", "0", "A", 1)],
    )
    cuts = [Point.on_edge("f", 3), Point.on_edge("e", 1)]
    ref, h = cut_at(g, cuts), refine(g, cuts)
    assert h.genus() == g.genus()
    assert h.vertex_ids == tuple(sorted(str(i) for i in range(len(ref.points))))
    for i, p in enumerate(ref.points):
        assert h.genus_of(str(i)) == (g.genus_of(p.id) if p.is_vertex else 0)
    for k, s in enumerate(ref.segments):
        assert h.ends(str(k)) == (str(s.tail), str(s.head))
        assert h.length(str(k)) == Fraction(s.length, ref.scale)
    for p in cuts:
        i = ref.index(p)
        assert i >= len(g.vertex_ids) and ref.point(i) == p


def test_even_subgraph_count_and_closure():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng, max_genus=3)
        cs = CycleSpace(g)
        evens = cs.even_subgraphs()
        assert len(evens) == 2 ** g.genus()
        assert len(set(evens)) == len(evens)
        for s in evens:
            assert is_even_subgraph(g, s)
        # closed under symmetric difference (spot check)
        for _ in range(5):
            a, b = rng.choice(evens), rng.choice(evens)
            assert a ^ b in evens


def test_one_cycle_space_per_graph():
    rng = random.Random(29)
    graphs = [random_graph(rng, max_genus=3) for _ in range(10)]
    graphs.append(MetricGraph(["a", "b", "c"], [("e", "a", "a", 1), ("f", "c", "b", 1)]))
    for g in graphs:
        cs = g.cycle_space()
        assert cs is g.cycle_space()
        # the components are the forest's trees, rooted at their smallest id
        assert g.components() is cs.components
        assert [c[0] for c in cs.components] == [v for v in g.vertex_ids if cs.parent[v] is None]
        assert sorted(v for c in cs.components for v in c) == list(g.vertex_ids)
        for comp in cs.components:
            assert all(g.components_by_vertex()[v] is comp for v in comp)
            # a tree edge joins two vertices of one component
            for e in cs.forest:
                t, h = g.ends(e)
                assert (t in comp) == (h in comp)
        assert len(cs.forest) == len(g.vertex_ids) - len(cs.components)
        assert g.genus() == len(cs.nontree) + sum(g.genus_of(v) for v in g.vertex_ids)
        # a fresh build finds the same forest
        fresh = CycleSpace(g)
        assert fresh.forest == cs.forest and fresh.basis == cs.basis
    assert graphs[-1].components() == (("a",), ("b", "c"))
    assert not graphs[-1].is_connected() and graphs[-1].genus() == 1


def test_k4_even_subgraphs(k4):
    evens = CycleSpace(k4).even_subgraphs()
    triangles = [s for s in evens if len(s) == 3]
    squares = [s for s in evens if len(s) == 4]
    assert len(evens) == 8
    assert len(triangles) == 4 and len(squares) == 3
    assert frozenset() in evens


def test_virtualize_genus_eps_independent():
    g = MetricGraph([("w", 2)], [])
    assert virtual_loops(g) == {"w": ("w!0", "w!1")}
    for eps in (1, Fraction(1, 2), 3):
        sharp = virtualize(g, eps)
        assert sharp.genus() == 2
        assert not sharp.is_augmented()
        assert sharp.edge_ids == ("w!0", "w!1")
        for lid in virtual_loops(g)["w"]:
            assert sharp.ends(lid) == ("w", "w") and sharp.length(lid) == Fraction(eps)


def test_a_graph_without_genus_is_its_own_virtualization(k4):
    for eps in (1, Fraction(1, 2), 3):
        assert virtualize(k4, eps) is k4
    assert virtual_loops(k4) == {}
    # the loop length is checked before the shortcut
    for eps in (0, -1):
        with pytest.raises(MalformedGraphError, match="loop length must be positive"):
            virtualize(k4, eps)
    with pytest.raises(TypeError):
        virtualize(k4, 0.5)


def test_virtualize_avoids_a_user_edge_named_like_a_loop():
    g = MetricGraph([("u", 1), "v"], [("u!0", "u", "v", 1)])
    sharp = virtualize(g, Fraction(1, 2))
    (lid,) = virtual_loops(g)["u"]
    assert lid != "u!0"
    assert sharp.ends(lid) == ("u", "u") and sharp.length(lid) == Fraction(1, 2)
    assert sharp.ends("u!0") == ("u", "v") and sharp.length("u!0") == 1
    assert sharp.genus() == 1


def test_distance_field_matches_vertex_oracle():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, max_genus=3)
        oracle = floyd_warshall(g)
        src = rng.choice(g.vertex_ids)
        field = distance_field(g, Point.at_vertex(src))
        for v in g.vertex_ids:
            assert field.value(Point.at_vertex(v)) == oracle[(src, v)]


def test_distance_field_from_cycle(k4):
    tri = frozenset(["BC", "BD", "CD"])
    field = distance_field(k4, tri)
    for v in "BCD":
        assert field.value(Point.at_vertex(v)) == 0
    assert field.value(Point.at_vertex("A")) == 1
    # ridge points of the triangle field sit at the midpoints of the star
    ridges = field.ridge_base_points
    assert Point.on_edge("AB", Fraction(1, 2)) not in ridges


def test_distance_field_slopes_are_unit(k4):
    field = distance_field(k4, Point.at_vertex("A"))
    # midpoints of the far triangle are at distance 3/2
    assert field.value(Point.on_edge("BC", Fraction(1, 2))) == Fraction(3, 2)


def test_integer_metric_is_the_lengths_over_the_lcm():
    rng = random.Random(4121)
    for _ in range(20):
        g = random_graph(rng, max_genus=5)
        # cuts at thirds and sevenths bring denominators the graph lacks
        cuts = [g.point(e, g.length(e) * Fraction(k, 21)) for e, k in zip(g.edge_ids, (7, 3))]
        for h in (g, StringIdRefinement(g, cuts).graph):
            scale, length = h.integer_metric()
            assert scale == lcm(*(h.length(e).denominator for e in h.edge_ids))
            assert set(length) == set(h.edge_ids)
            for e, n in length.items():
                assert type(n) is int and n == h.length(e) * scale
            assert h.integer_metric() is h.integer_metric()
    assert MetricGraph(["p"], []).integer_metric() == (1, {})


def test_shortest_paths_refuse_an_empty_cycle(k4):
    with pytest.raises(PointError, match="empty source cycle"):
        ShortestPaths(k4, frozenset())
