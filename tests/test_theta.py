"""Theta characteristics and their two-torsion differences."""

import random
from fractions import Fraction

import pytest

from tropcover import (
    AugmentedGraphError,
    PointError,
    CycleError,
    CycleSpace,
    Divisor,
    MetricGraph,
    Point,
    abel_jacobi,
    canonical,
    canonical_divisor,
    distance_field,
    effective_representative,
    enumerate_theta,
    equivalent,
    pairing_table,
    period_lattice,
    theta_characteristic,
    torsion_points,
    two_torsion_divisor,
    virtualize,
)
from conftest import random_graph


def mid(eid):
    return Point.on_edge(eid, Fraction(1, 2))


def test_theta_beside_a_user_vertex_named_like_a_cut():
    """The basepoint field cuts f at offset 3, whose default name is taken."""
    g = MetricGraph(
        ["A", "B", "f@3"],
        [("e", "A", "B", 2), ("f", "A", "B", 4), ("x", "B", "f@3", 1)],
    )
    chars = enumerate_theta(g)
    assert len(chars) == 2 ** g.genus()
    assert sum(1 for t in chars if not t.effective) == 1
    assert distance_field(g, chars[0].basepoint).ridge_base_points == (Point.on_edge("f", 3),)


def test_k4_basepoint_characteristic(k4):
    t = theta_characteristic(k4, p=Point.at_vertex("A"))
    expected = Divisor(
        k4,
        [(Point.at_vertex("A"), -1), (mid("BC"), 1), (mid("BD"), 1), (mid("CD"), 1)],
    )
    assert t.divisor == expected
    assert not t.effective


def test_k4_triangle_characteristics(k4):
    for tri, opposite in [
        (("BC", "BD", "CD"), "A"),
        (("AC", "AD", "CD"), "B"),
        (("AB", "AD", "BD"), "C"),
        (("AB", "AC", "BC"), "D"),
    ]:
        t = theta_characteristic(k4, frozenset(tri))
        assert t.divisor == Divisor(k4, [(Point.at_vertex(opposite), 2)])
        assert t.effective


def test_k4_square_characteristics(k4):
    for square, chords in [
        (("AC", "AD", "BC", "BD"), ("AB", "CD")),
        (("AB", "AD", "BC", "CD"), ("AC", "BD")),
        (("AB", "AC", "BD", "CD"), ("AD", "BC")),
    ]:
        t = theta_characteristic(k4, frozenset(square))
        assert t.divisor == Divisor(k4, [(mid(chords[0]), 1), (mid(chords[1]), 1)])


def test_k4_census(k4):
    chars = enumerate_theta(k4)
    assert len(chars) == 8
    assert sum(1 for t in chars if not t.effective) == 1


def test_unit_loop_and_tree(unit_loop):
    chars = enumerate_theta(unit_loop)
    assert len(chars) == 2
    l0 = next(t for t in chars if t.cycle == frozenset())
    assert l0.divisor == Divisor(
        unit_loop, [(Point.at_vertex("p"), -1), (mid("loop"), 1)]
    )
    lloop = next(t for t in chars if t.cycle)
    assert lloop.divisor == Divisor.zero(unit_loop) and lloop.effective

    tree = MetricGraph(["r", "s"], [("e", "r", "s", 2)])
    chars = enumerate_theta(tree)
    assert len(chars) == 1
    assert chars[0].divisor.degree() == -1
    assert not chars[0].effective


def test_rejects_bad_inputs(k4):
    # the shortest-path pass checks the cycle: an odd set and an unknown
    # edge are still refused, each with its own error
    with pytest.raises(CycleError, match="is not an even subgraph"):
        theta_characteristic(k4, frozenset(["AB"]))
    with pytest.raises(CycleError, match="is not an even subgraph"):
        theta_characteristic(k4, ["AB", "AC"])
    with pytest.raises(PointError, match="unknown edge 'XX'"):
        theta_characteristic(k4, frozenset(["XX"]))
    aug = MetricGraph([("w", 1)], [("l", "w", "w", 1)])
    with pytest.raises(AugmentedGraphError):
        theta_characteristic(aug)


def test_degree_is_genus_minus_one():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, max_genus=3)
        for t in enumerate_theta(g):
            assert t.divisor.degree() == g.genus() - 1


def test_double_is_canonical():
    rng = random.Random(43)
    for _ in range(6):
        g = random_graph(rng, max_genus=3)
        K = canonical_divisor(g)
        for t in enumerate_theta(g):
            assert equivalent(2 * t.divisor, K)


def test_basepoint_independence():
    rng = random.Random(47)
    for _ in range(6):
        g = random_graph(rng, max_genus=3, min_genus=1)
        base = theta_characteristic(g).divisor
        for _ in range(3):
            e = rng.choice(g.edge_ids)
            p = g.point(e, g.length(e) * Fraction(rng.randint(0, 4), 4))
            assert equivalent(theta_characteristic(g, p=p).divisor, base)


def test_torsion_bijection():
    rng = random.Random(53)
    for _ in range(5):
        g = random_graph(rng, max_genus=3, min_genus=1)
        lat = period_lattice(g)
        cs = CycleSpace(g)
        classes = set()
        for c in cs.even_subgraphs():
            v = abel_jacobi(lat, two_torsion_divisor(g, c))
            classes.add(canonical(lat, v))
        assert classes == set(torsion_points(lat, 2))


def test_torsion_homomorphism(k4):
    lat = period_lattice(k4)
    cs = CycleSpace(k4)
    evens = cs.even_subgraphs()
    rng = random.Random(59)
    for _ in range(10):
        a, b = rng.choice(evens), rng.choice(evens)
        da = two_torsion_divisor(k4, a)
        db = two_torsion_divisor(k4, b)
        dab = two_torsion_divisor(k4, a ^ b)
        assert equivalent(dab, da + db)


def test_one_shortest_path_pass_per_characteristic_and_no_field(k4, monkeypatch):
    from tropcover import graphs, pairing_table
    from tropcover.theta import two_torsion_divisors

    built = {"passes": 0, "fields": 0}
    run_pass, build_field = graphs.ShortestPaths.__init__, graphs.DistanceField.__init__

    def counted_pass(self, *args):
        built["passes"] += 1
        run_pass(self, *args)

    def counted_field(self, *args):
        built["fields"] += 1
        build_field(self, *args)

    monkeypatch.setattr(graphs.ShortestPaths, "__init__", counted_pass)
    monkeypatch.setattr(graphs.DistanceField, "__init__", counted_field)
    n = 2 ** k4.genus()
    for call in (enumerate_theta, two_torsion_divisors, pairing_table):
        built["passes"] = 0
        call(k4)
        assert built == {"passes": n, "fields": 0}, call.__name__


def test_no_graph_or_lattice_is_built_at_a_point_inside_an_edge(k4, monkeypatch):
    # a cut is a numbered model of k4: theta at a basepoint inside an edge,
    # a distance field from one and a principal function through one build
    # no MetricGraph, and no PeriodLattice but k4's own
    from tropcover import graphs, jacobian, principal_function

    built = {"MetricGraph": 0, "PeriodLattice": 0}
    build_graph, build_lattice = graphs.MetricGraph.__init__, jacobian.PeriodLattice.__init__

    def counted_graph(self, *args):
        built["MetricGraph"] += 1
        build_graph(self, *args)

    def counted_lattice(self, graph):
        built["PeriodLattice"] += graph is not k4
        build_lattice(self, graph)

    monkeypatch.setattr(graphs.MetricGraph, "__init__", counted_graph)
    monkeypatch.setattr(jacobian.PeriodLattice, "__init__", counted_lattice)
    assert len(enumerate_theta(k4)) == 8
    t = theta_characteristic(k4, frozenset(), mid("AB"))
    assert t.basepoint == mid("AB") and t.divisor.coeff(mid("AB")) == -1
    field = distance_field(k4, mid("CD"))
    assert field.value(mid("CD")) == 0 and field.value(Point.at_vertex("A")) == Fraction(3, 2)
    D = 2 * (t.divisor - theta_characteristic(k4).divisor)
    assert principal_function(D) is not None
    assert built == {"MetricGraph": 0, "PeriodLattice": 0}
    # the counters are live
    MetricGraph(["a"], [])
    jacobian.PeriodLattice(virtualize(MetricGraph([("a", 1)], [])))
    assert built == {"MetricGraph": 3, "PeriodLattice": 1}


def test_an_empty_graph_has_no_default_basepoint():
    # MetricGraph takes an empty graph (covers build one for an interior
    # that meets every vertex); the default point is a typed error on it
    g = MetricGraph([], [])
    for call in (
        lambda: theta_characteristic(g),
        lambda: enumerate_theta(g),
        lambda: effective_representative(Divisor.zero(g)),
    ):
        with pytest.raises(PointError, match="the graph has no vertices"):
            call()


def test_a_disconnected_graph_gives_a_typed_error():
    # two vertices with a loop at each: the other component has no
    # distance from a point source
    g = MetricGraph(["a", "b"], [("e", "a", "a", 1), ("f", "b", "b", 1)])
    for call in (
        lambda: enumerate_theta(g),
        lambda: distance_field(g, Point.at_vertex("a")),
        lambda: theta_characteristic(g, frozenset(["e"])),
        lambda: pairing_table(g),
    ):
        with pytest.raises(PointError, match="graph is disconnected: 'b' is not reachable"):
            call()
    # a source that meets every component reaches every vertex
    field = distance_field(g, frozenset(["e", "f"]))
    assert set(field.values) == {0}
