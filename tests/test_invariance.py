"""The Prym answers under subdivision and rescaling of the target graph.

Inserting a degree-2 vertex does not change a metric graph, and scaling
every length by k scales every Abel-Jacobi coordinate and every lattice
alike.  So the pairing table, the kernel component counts and the pullback
kernels must agree through the induced map on cycles.  These checks need no
second implementation, and they hold at any genus: they test the numbered
models (cuts, cover frames) that the library builds on a graph which is the
same up to the transform.
"""

import random
from collections import Counter
from fractions import Fraction

from tropcover import (
    MetricGraph,
    covers_with_dilation,
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
