"""The Prym answers, theta characteristics, q-reduction and principality
under subdivision, rescaling and relabelling of the graph.

Inserting a degree-2 vertex does not change a metric graph, scaling every
length by k scales every Abel-Jacobi coordinate and every lattice alike,
and renaming the ids changes nothing but the names.  So the pairing table,
the kernel component counts and the pullback kernels must agree through the
induced map on cycles; the theta characteristics, the q-reduced divisors
and the principal and equivalent pairs through the induced map on points;
and Prym membership through the map on a cover's source points, when its
target and source are split, scaled or renamed together.
These checks need no second implementation, and they hold at any genus:
they test the numbered models (cuts, unit cuts, cover frames) that the
library builds on a graph which is the same up to the transform, and that
ids the caller chooses never collide with the ones it generates.
"""

import random
from collections import Counter
from fractions import Fraction

from tropcover import (
    Divisor,
    MetricGraph,
    Point,
    PrymError,
    covers_with_dilation,
    distance_field,
    divisor_of,
    enumerate_theta,
    equivalent,
    free_covers,
    involution_divisor,
    is_principal,
    kernel_component_count,
    pairing_table,
    prym_contains,
    pullback_kernel,
    reduce_at,
    verify_cover,
)
from tropcover.covers import DoubleCover, cover_frame
from tropcover.graphs import unit_cut, virtual_loops
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


def vertices_of(graph):
    return [(v, graph.genus_of(v)) for v in graph.vertex_ids]


def split(graph, eid, t, mid):
    """(graph with edge eid split at offset t by a vertex with the new id
    mid into eid/0 and eid/1, map from the original's points to its)."""
    tail, head = graph.ends(eid)
    first, second = eid + "/0", eid + "/1"
    assert mid not in graph.vertex_ids and not {first, second} & set(graph.edge_ids)
    edges = [e for e in edges_of(graph) if e[0] != eid]
    edges += [(first, tail, mid, t), (second, mid, head, graph.length(eid) - t)]

    def forward(p):
        if p.is_vertex or p.id != eid:
            return p
        if p.offset == t:
            return Point.at_vertex(mid)
        if p.offset < t:
            return Point.on_edge(first, p.offset)
        return Point.on_edge(second, p.offset - t)

    return MetricGraph(vertices_of(graph) + [mid], edges), forward


def subdivide(graph, rng, parts=7):
    """(graph with one random edge split at a random multiple of 1/parts of
    its length by a vertex with a new id, map from its cycles back to the
    original's, map from the original's points to its)."""
    eid = rng.choice(graph.edge_ids)
    t = graph.length(eid) * Fraction(rng.randint(1, parts - 1), parts)
    sub, forward = split(graph, eid, t, "mid")
    back = {eid + "/0": eid, eid + "/1": eid}
    return sub, lambda cycle: frozenset(back.get(e, e) for e in cycle), forward


def rescale(graph, k):
    """(graph with every length times k, map from the original's points to its)."""
    scaled = MetricGraph(list(graph.vertex_ids), edges_of(graph, k))
    return scaled, lambda p: p if p.is_vertex else Point.on_edge(p.id, k * p.offset)


def carry(D, graph, forward):
    """D carried to graph through a map on points."""
    return Divisor(graph, [(forward(p), a) for p, a in D.items()])


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


def relabel(vmap, emap):
    """The map on points that rename's maps on ids induce."""
    return lambda p: (
        Point.at_vertex(vmap[p.id]) if p.is_vertex else Point.on_edge(emap[p.id], p.offset)
    )


def random_point(rng, graph):
    """A vertex, or a point at a half or a third of an edge."""
    if rng.random() < 0.5:
        return Point.at_vertex(rng.choice(graph.vertex_ids))
    e = rng.choice(graph.edge_ids)
    d = rng.randint(2, 3)
    return graph.point(e, graph.length(e) * Fraction(rng.randint(1, d - 1), d))


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
        scaled, _ = rescale(g, k)
        assert pairing_table(scaled) == pairing_table(g), i
        assert cover_answers(scaled) == cover_answers(g), i


def test_subdivision_keeps_the_prym_answers_up_to_the_cycle_map():
    graphs, rng = seeded_graphs()
    for i, g in enumerate(graphs):
        sub, back, _ = subdivide(g, rng)
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
            mapped = carry(t.divisor, renamed, relabel(vmap, emap))
            other = theirs[frozenset(emap[e] for e in t.cycle)]
            if t.cycle:
                assert other == mapped, (i, t.cycle)
            else:
                # the basepoint is the first vertex id, which renaming moves
                assert equivalent(other, mapped), i
    assert moved >= 20  # the c = empty basepoint moved on most graphs


def test_theta_characteristics_under_subdivision_and_rescaling():
    # the basepoint of c = empty is passed, a vertex or a point inside an
    # edge, so that the first vertex id of the subdivided graph does not
    # move it
    graphs, rng = seeded_graphs()
    inside = 0
    for i, g in enumerate(graphs):
        p = random_point(rng, g)
        inside += not p.is_vertex
        sub, back, forward = subdivide(g, rng)
        scaled, scale = rescale(g, Fraction(rng.choice([2, 3, 5]), rng.choice([1, 4, 9])))
        for h, to_h, to_g in ((sub, forward, back), (scaled, scale, frozenset)):
            theirs = {to_g(t.cycle): t for t in enumerate_theta(h, to_h(p))}
            ours = enumerate_theta(g, p)
            assert len(theirs) == len(ours), i
            for t in ours:
                other = theirs[t.cycle]
                assert other.divisor == carry(t.divisor, h, to_h), (i, t.cycle)
                assert other.effective == t.effective
    assert inside >= 10


# reduce_at runs only where both unit cuts have at most this many vertices:
# Dhar's burning algorithm fires the unburnt set once per burn, and the
# number of burns grows exponentially with the size of the model (ROADMAP
# item 2)
REDUCE_MAX_SIZE = 24


def transforms(graph, rng):
    """(name, transformed graph, map on points) for a split at the midpoint
    of an edge (a seventh would multiply the unit cut's size by seven), a
    rescaling and a relabelling."""
    sub, _, forward = subdivide(graph, rng, parts=2)
    k = Fraction(*rng.choice([(2, 1), (1, 2), (3, 2), (2, 3), (1, 3)]))
    renamed, vmap, emap = rename(graph, rng)
    return [
        ("subdivision", sub, forward),
        ("rescaling", *rescale(graph, k)),
        ("relabelling", renamed, relabel(vmap, emap)),
    ]


def test_reduction_and_principality_under_subdivision_rescaling_and_relabelling():
    graphs, rng = seeded_graphs()
    reduced = Counter()
    outcomes = Counter()
    for _ in range(3):
        for i, g in enumerate(graphs):
            D = Divisor(g, [(random_point(rng, g), rng.randint(-2, 2)) for _ in range(3)])
            D = D + Divisor(g, [(random_point(rng, g), rng.randint(0, 2) - D.degree())])
            q = random_point(rng, g)
            # E is principal when its two points are joined through bridges
            E = Divisor(g, [(random_point(rng, g), 1), (random_point(rng, g), -1)])
            P = divisor_of(distance_field(g, random_point(rng, g)))
            principal = is_principal(E)
            outcomes[principal] += 1
            assert is_principal(P)
            small = unit_cut(g, [*D.support(), q]).size <= REDUCE_MAX_SIZE
            red = reduce_at(D, q) if small else None
            for name, h, forward in transforms(g, rng):
                Dh, qh = carry(D, h, forward), forward(q)
                assert is_principal(carry(E, h, forward)) == principal, (i, name)
                assert is_principal(carry(P, h, forward)), (i, name)
                assert equivalent(Dh, carry(D + P, h, forward)), (i, name)
                assert equivalent(Dh, carry(D + E, h, forward)) == principal, (i, name)
                if small and unit_cut(h, [*Dh.support(), qh]).size <= REDUCE_MAX_SIZE:
                    assert reduce_at(Dh, qh) == carry(red, h, forward), (i, name)
                    reduced[name] += 1
    assert min(outcomes.values()) >= 10
    assert len(reduced) == 3 and min(reduced.values()) >= 20


def subdivide_cover(cover, rng, parts=7):
    """(cover with one target edge split at a random multiple of 1/parts of
    its length and each lift of it at the matching offset, each by a vertex
    with a new id, map from the original source's points to its)."""
    target = cover.target
    eid = rng.choice(target.edge_ids)
    t = target.length(eid) * Fraction(rng.randint(1, parts - 1), parts)
    sub, _ = split(target, eid, t, "mid")
    source, forwards, mids = cover.source, [], []
    vmap, emap, inv = dict(cover.vertex_map), dict(cover.edge_map), dict(cover.involution_v)
    for se, d in cover.frame.fibers[1][eid]:
        mid = "mid" + se[len(eid) :]  # mid^0 and mid^1, or mid~ over a dilated edge
        source, forward = split(source, se, t / d, mid)
        forwards.append(forward)
        mids.append(mid)
        vmap[mid] = "mid"
        del emap[se]
        emap[se + "/0"], emap[se + "/1"] = (eid + "/0", d), (eid + "/1", d)
    inv.update(zip(mids, reversed(mids)))  # two lifts swap, a dilated one is fixed

    def forward(p):
        for lift in forwards:
            p = lift(p)
        return p

    return DoubleCover(cover_frame(sub, vmap, emap, inv), source), forward


def rescale_cover(cover, k):
    """(cover with every target and source length times k, map from the
    original source's points to its, virtual loops scaled alike)."""
    target, forward = rescale(cover.target, k)
    source = MetricGraph(vertices_of(cover.source), edges_of(cover.source, k))
    frame = cover_frame(target, cover.vertex_map, cover.edge_map, cover.involution_v)
    return DoubleCover(frame, source), forward


def rename_cover(cover, rng):
    """(cover with the target's ids renamed as rename does and the source's
    ids through the same maps, a lift keeping its suffix after its image's
    new name, map from the original virtualized source's points to its)."""
    target, vmap, emap = rename(cover.target, rng)
    src = cover.source
    sv = {v: vmap[tv] + v[len(tv) :] for v, tv in cover.vertex_map.items()}
    se = {e: emap[te] + e[len(te) :] for e, (te, _) in cover.edge_map.items()}
    edges = [(se[e], sv[t], sv[h], ell) for e, t, h, ell in edges_of(src)]
    source = MetricGraph([(sv[v], g) for v, g in vertices_of(src)], edges)
    frame = cover_frame(
        target,
        {sv[v]: vmap[tv] for v, tv in cover.vertex_map.items()},
        {se[e]: (emap[te], d) for e, (te, d) in cover.edge_map.items()},
        {sv[a]: sv[b] for a, b in cover.involution_v.items()},
    )
    theirs = virtual_loops(source)
    for v, loops in virtual_loops(src).items():
        se.update(zip(loops, theirs[sv[v]]))
    return DoubleCover(frame, source), relabel(sv, se)


def degree_zero_divisor(rng, graph):
    """A divisor of degree 0 on every component of graph."""
    D = Divisor(graph, [(random_point(rng, graph), rng.randint(-2, 2)) for _ in range(3)])
    for comp, d in D.component_degrees().items():
        D += Divisor(graph, [(Point.at_vertex(comp[0]), -d)])
    return D


def prym_outcome(cover, D, eps):
    """prym_contains(cover, D, eps), None where the pushforward is not principal."""
    try:
        return prym_contains(cover, D, eps)
    except PrymError:
        return None


def test_prym_contains_under_subdivision_rescaling_and_relabelling_of_the_cover():
    # on two covers per graph (free, trivial or dilated), each with virtual
    # loops of a random length: E, E - iota(E), the sum of two such, and
    # over a connected source E - iota(E) + v - iota(v), carried one
    # divisor at a time through each transformed cover's map on points
    graphs, rng = seeded_graphs()
    outcomes = Counter()
    for i, g in enumerate(graphs):
        evens = g.cycle_space().even_subgraphs()
        every = free_covers(g) + [c for cyc in evens if cyc for c in covers_with_dilation(g, cyc)]
        for cover in rng.sample(every, 2):
            eps = rng.choice([1, Fraction(1, 2), 3])
            k = Fraction(*rng.choice([(2, 1), (1, 2), (3, 2), (2, 3), (1, 3)]))
            sharp = cover.source_sharp(eps)
            inv = cover.involution_v
            v = next((v for v in sharp.vertex_ids if inv.get(v, v) != v), sharp.vertex_ids[0])
            v_iv = Divisor(sharp, [(Point.at_vertex(v), 1), (Point.at_vertex(inv.get(v, v)), -1)])
            E, F = (degree_zero_divisor(rng, sharp) for _ in range(2))
            E_iE, F_iF = (D - involution_divisor(cover, D, eps) for D in (E, F))
            classes = [E, E_iE, E_iE + F_iF] + ([E_iE + v_iv] if sharp.is_connected() else [])
            answers = [prym_outcome(cover, D, eps) for D in classes]
            outcomes.update(answers)
            for name, (other, forward), other_eps in (
                ("subdivision", subdivide_cover(cover, rng), eps),
                ("rescaling", rescale_cover(cover, k), k * eps),
                ("relabelling", rename_cover(cover, rng), eps),
            ):
                assert verify_cover(other).ok, (i, name)
                host = other.source_sharp(other_eps)
                for D, want in zip(classes, answers):
                    got = prym_outcome(other, carry(D, host, forward), other_eps)
                    assert got == want, (i, name)
    assert min(outcomes[True], outcomes[False], outcomes[None]) >= 10, outcomes
