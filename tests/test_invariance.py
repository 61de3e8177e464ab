"""The Prym answers under subdivision, rescaling and relabelling of the
target graph.

Inserting a degree-2 vertex does not change a metric graph, scaling every
length by k scales every Abel-Jacobi coordinate and every lattice alike,
and renaming the ids changes nothing but the names.  So the pairing table,
the kernel component counts and the pullback kernels must agree through the
induced map on cycles, and under renaming the theta characteristics through
the induced map on points.  These checks need no second implementation, and
they hold at any genus: they test the numbered models (cuts, cover frames)
that the library builds on a graph which is the same up to the transform,
and that ids the caller chooses never collide with the ones it generates.
"""

import random
from collections import Counter
from fractions import Fraction

from tropcover import (
    Divisor,
    MetricGraph,
    Point,
    covers_with_dilation,
    enumerate_theta,
    equivalent,
    free_covers,
    kernel_component_count,
    pairing_table,
    pullback_kernel,
)
from conftest import random_graph


def seeded_graphs():
    rng = random.Random(1607)
    graphs = [random_graph(rng, max_genus=3, min_genus=1) for _ in range(40)]
    assert {g.genus() for g in graphs} == {1, 2, 3}
    assert any(len(set(g.ends(e))) == 1 for g in graphs for e in g.edge_ids)  # a loop
    assert any(g.length(e).denominator > 1 for g in graphs for e in g.edge_ids)
    return graphs, rng


def edges_of(graph, scale=1):
    return [(e, *graph.ends(e), scale * graph.length(e)) for e in graph.edge_ids]


def subdivide(graph, rng):
    """(graph with one random edge split at a random seventh of its length by
    a vertex with a new id, map from its cycles back to the original's)."""
    eid = rng.choice(graph.edge_ids)
    tail, head = graph.ends(eid)
    ell = graph.length(eid)
    t = ell * Fraction(rng.randint(1, 6), 7)
    mid, first, second = "mid", eid + "/0", eid + "/1"
    assert mid not in graph.vertex_ids and not {first, second} & set(graph.edge_ids)
    edges = [e for e in edges_of(graph) if e[0] != eid]
    edges += [(first, tail, mid, t), (second, mid, head, ell - t)]
    split = {first: eid, second: eid}
    sub = MetricGraph(list(graph.vertex_ids) + [mid], edges)
    return sub, lambda cycle: frozenset(split.get(e, e) for e in cycle)


# user ids that look like the ones the library generates for cut points
# (e@t), virtual loops (e#k, v!k) and primed names, or that sort first
NAMES = ["0", "f@3", "e#0", "l@1/2", "v!0", "t1@1/3'", "x0", "A", "e", "~", "x0#1", "v1!2"]


def rename(graph, rng):
    """(graph with every vertex and every edge id replaced by a name from
    NAMES, in an order that permutes the sorted order of each where it can,
    the map on vertex ids, the map on edge ids)."""
    maps = []
    for ids in (graph.vertex_ids, graph.edge_ids):
        names = rng.sample(NAMES, len(ids))
        if len(ids) > 1 and names == sorted(names):
            names.reverse()
        maps.append(dict(zip(ids, names)))
    vmap, emap = maps
    edges = [(emap[e], vmap[t], vmap[h], ell) for e, t, h, ell in edges_of(graph)]
    return MetricGraph([vmap[v] for v in graph.vertex_ids], edges), vmap, emap


def renamed_divisor(D, graph, vmap, emap):
    """D carried to graph, the renamed copy of its host."""
    return Divisor(
        graph,
        [
            (Point.at_vertex(vmap[p.id]) if p.is_vertex else Point.on_edge(emap[p.id], p.offset), a)
            for p, a in D.items()
        ],
    )


def prym_answers(graph, back):
    """The graph's even subgraphs, its pairing table as a multiset of rows
    (each row the set of cycles whose entry is 1), and per dilation cycle
    (empty for the free covers) the multiset of (kernel component count,
    pullback kernel) over its covers; every cycle read through back."""
    evens, table = pairing_table(graph)
    rows = Counter(frozenset(back(c) for c, bit in zip(evens, row) if bit) for row in table)
    per_cycle = {}
    for cyc in evens:
        covers = covers_with_dilation(graph, cyc) if cyc else free_covers(graph)
        per_cycle[back(cyc)] = Counter(
            (kernel_component_count(c), frozenset(map(back, pullback_kernel(c))))
            for c in covers
        )
    return frozenset(map(back, evens)), rows, per_cycle


def cover_answers(graph):
    """Per cover, in covers order, its component count and pullback kernel."""
    evens = graph.cycle_space().even_subgraphs()
    covers = free_covers(graph) + [c for cyc in evens if cyc for c in covers_with_dilation(graph, cyc)]
    return [(kernel_component_count(c), pullback_kernel(c)) for c in covers]


def test_rescaling_keeps_every_prym_answer():
    graphs, rng = seeded_graphs()
    for i, g in enumerate(graphs):
        k = Fraction(rng.choice([2, 3, 5, 7]), rng.choice([1, 4, 9]))
        scaled = MetricGraph(list(g.vertex_ids), edges_of(g, k))
        assert pairing_table(scaled) == pairing_table(g), i
        assert cover_answers(scaled) == cover_answers(g), i


def test_subdivision_keeps_the_prym_answers_up_to_the_cycle_map():
    graphs, rng = seeded_graphs()
    for i, g in enumerate(graphs):
        sub, back = subdivide(g, rng)
        assert sub.genus() == g.genus()
        assert prym_answers(sub, back) == prym_answers(g, lambda c: c), i


def test_relabelling_keeps_every_prym_answer_and_theta_characteristic():
    graphs, rng = seeded_graphs()
    moved = 0
    for i, g in enumerate(graphs):
        renamed, vmap, emap = rename(g, rng)
        undo = {new: old for old, new in emap.items()}
        moved += sorted(vmap.values())[0] != vmap[g.vertex_ids[0]]
        assert prym_answers(renamed, lambda c: frozenset(undo[e] for e in c)) == prym_answers(
            g, lambda c: c
        ), i
        theirs = {t.cycle: t.divisor for t in enumerate_theta(renamed)}
        for t in enumerate_theta(g):
            mapped = renamed_divisor(t.divisor, renamed, vmap, emap)
            other = theirs[frozenset(emap[e] for e in t.cycle)]
            if t.cycle:
                assert other == mapped, (i, t.cycle)
            else:
                # the basepoint is the first vertex id, which renaming moves
                assert equivalent(other, mapped), i
    assert moved >= 20  # the c = empty basepoint moved on most graphs
