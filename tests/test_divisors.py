"""Divisors, PL functions, reduction, and principality decisions."""

import random
from fractions import Fraction

import pytest

from tropcover import (
    DegreeError,
    Divisor,
    MetricGraph,
    Point,
    PointError,
    SlopeError,
    canonical_divisor,
    distance_field,
    divisor_of,
    effective_representative,
    equivalent,
    is_principal,
    principal_function,
    reduce_at,
    theta_characteristic,
)
from tropcover import divisors, graphs
from tropcover.divisors import PLFunction, UnitSubdivision, laplacian_image_contains
from conftest import random_divisor, random_graph
from oracles import pl_combine, refined_reduce_at


def mid(eid):
    return Point.on_edge(eid, Fraction(1, 2))


def test_divisor_arithmetic(k4):
    a = Divisor(k4, [(Point.at_vertex("A"), 2), (mid("BC"), -1)])
    b = Divisor(k4, [(Point.at_vertex("A"), -2), (mid("BC"), 1)])
    assert (a + b).is_zero()
    assert a.degree() == 1
    assert (-a) == b
    assert (2 * a).degree() == 2
    assert not a.is_effective()


def test_divisor_sums_repeated_points_and_drops_zeros(k4):
    a, b = Point.at_vertex("A"), Point.at_vertex("B")
    # an edge end is its vertex, so it adds to the vertex's coefficient
    D = Divisor(k4, [(a, 1), (Point("edge", "AB", Fraction(0)), 2), (b, 3), (mid("BC"), 0), (b, -3)])
    assert D.items() == ((a, 3),) and D.degree() == 3
    assert Divisor(k4, {a: 0, mid("CD"): 0}).is_zero()
    assert Divisor(k4, [(a, 2), (b, -1)]).items() == ((a, 2), (b, -1))


@pytest.mark.parametrize("coeff", [Fraction(3, 2), Fraction(2), 1.5, True, "1"])
def test_divisor_coefficients_are_ints(k4, coeff):
    # a coefficient is never truncated or coerced: 3/2 is not 1, True is not 1
    with pytest.raises(TypeError):
        Divisor(k4, [(Point.at_vertex("A"), coeff)])


def test_canonical_divisor(k4, unit_loop, dumbbell):
    K = canonical_divisor(k4)
    assert K.degree() == 2 * k4.genus() - 2
    assert all(a == 1 for _, a in K.items())
    assert canonical_divisor(unit_loop).degree() == 0
    assert canonical_divisor(dumbbell).degree() == 2


def test_divisor_of_constant_is_zero(k4):
    from tropcover import cut_at

    ref = cut_at(k4, [])
    f = PLFunction(k4, ref, [Fraction(3)] * len(ref.points))
    assert divisor_of(f).is_zero()


def test_divisor_of_loop_tent(unit_loop):
    """Rising with slope 1 to the antipode and back down."""
    d = divisor_of(distance_field(unit_loop, Point.at_vertex("p")))
    expected = Divisor(
        unit_loop, [(Point.at_vertex("p"), -2), (mid("loop"), 2)]
    )
    assert d == expected


def test_theta_field_identity(k4):
    """The two distance fields differ by a function cutting out the
    difference of the doubled theta divisors."""
    tri = frozenset(["BC", "BD", "CD"])
    f_gamma = distance_field(k4, tri)
    f_p = distance_field(k4, Point.at_vertex("A"))
    d = divisor_of(pl_combine(f_gamma, f_p, -1))
    L_gamma = theta_characteristic(k4, tri).divisor
    L_0 = theta_characteristic(k4).divisor
    assert d == 2 * L_gamma - 2 * L_0


def test_reduce_zero_and_idempotence(k4):
    z = Divisor.zero(k4)
    q = Point.at_vertex("B")
    assert reduce_at(z, q).is_zero()
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, max_genus=3, unit_lengths=True)
        D = random_divisor(rng, g, degree=rng.randint(-1, 2))
        q = Point.at_vertex(rng.choice(g.vertex_ids))
        red = reduce_at(D, q)
        assert reduce_at(red, q) == red
        assert equivalent(D, red)


def test_reduce_l0_fixed_point(k4):
    """The basepoint theta divisor is already reduced at its basepoint."""
    L0 = theta_characteristic(k4, p=Point.at_vertex("A")).divisor
    assert reduce_at(L0, Point.at_vertex("A")) == L0


def test_is_principal_basics(k4):
    assert is_principal(Divisor.zero(k4))
    with pytest.raises(DegreeError):
        is_principal(Divisor(k4, [(Point.at_vertex("A"), 1)]))
    tri = frozenset(["BC", "BD", "CD"])
    L_gamma = theta_characteristic(k4, tri).divisor
    L_0 = theta_characteristic(k4).divisor
    D = L_gamma - L_0
    assert not is_principal(D)
    assert is_principal(2 * D)


def test_principal_function_certificate(k4):
    tri = frozenset(["BC", "BD", "CD"])
    D = 2 * (
        theta_characteristic(k4, tri).divisor - theta_characteristic(k4).divisor
    )
    f = principal_function(D)
    assert f is not None
    assert divisor_of(f) == D
    assert principal_function(D + Divisor(k4, [(mid("BC"), 1), (Point.at_vertex("A"), -1)])) is None


def test_point_differences_on_circle():
    """On a circle, x - y is principal only when x = y; x - y is always
    2-torsion exactly for antipodal points."""
    from tropcover import MetricGraph

    circle = MetricGraph(["u"], [("c", "u", "u", 1)])
    u = Point.at_vertex("u")
    anti = Point.on_edge("c", Fraction(1, 2))
    third = Point.on_edge("c", Fraction(1, 3))
    assert not is_principal(Divisor(circle, [(u, 1), (anti, -1)]))
    assert not is_principal(Divisor(circle, [(u, 1), (third, -1)]))
    assert is_principal(2 * Divisor(circle, [(u, 1), (anti, -1)]))
    assert not is_principal(Divisor(circle, [(u, 2), (anti, -1), (third, -1)]))
    # both routes agree with the chip-firing oracle on the subdivision
    sixth = Point.on_edge("c", Fraction(5, 6))
    D = Divisor(circle, [(anti, 1), (third, 1), (sixth, -2)])
    assert is_principal(D) == laplacian_image_contains(circle, D)


def test_principal_matches_chip_firing_oracle():
    rng = random.Random(17)
    agree = 0
    for _ in range(60):
        g = random_graph(rng, max_genus=3, unit_lengths=True)
        D = random_divisor(rng, g, degree=0)
        assert is_principal(D) == laplacian_image_contains(g, D)
        agree += 1
    assert agree == 60


def test_equivalence_relation():
    rng = random.Random(29)
    for _ in range(5):
        g = random_graph(rng, max_genus=2, unit_lengths=True)
        a = random_divisor(rng, g, degree=1)
        b = random_divisor(rng, g, degree=1)
        c = random_divisor(rng, g, degree=1)
        assert equivalent(a, a)
        if equivalent(a, b):
            assert equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)


def test_effective_representative(k4):
    L0 = theta_characteristic(k4).divisor
    assert effective_representative(L0) is None
    tri = frozenset(["BC", "BD", "CD"])
    Ltri = theta_characteristic(k4, tri).divisor
    eff = effective_representative(Ltri)
    assert eff is not None and eff.is_effective()
    assert equivalent(eff, Ltri)
    E = Divisor(k4, [(Point.at_vertex("C"), 1)])
    assert effective_representative(E).is_effective()


def test_reduce_at_refuses_a_disconnected_host():
    two_loops = MetricGraph(["a", "b"], [("e", "a", "a", 1), ("f", "b", "b", 1)])
    D = Divisor(two_loops, [(Point.at_vertex("a"), 1)])
    with pytest.raises(PointError, match="disconnected"):
        reduce_at(D, Point.at_vertex("a"))


def test_unit_subdivision_numbers_the_lattice_points():
    # scale 4: e has one interior point (2), the loop l three (3, 4, 5), the
    # loop m of two segments one (6) with b twice as its neighbour, and the
    # loop n of one segment none
    g = MetricGraph(
        ["a", "b"],
        [
            ("e", "a", "b", Fraction(1, 2)),
            ("l", "a", "a", 1),
            ("m", "b", "b", Fraction(1, 2)),
            ("n", "a", "a", Fraction(1, 4)),
        ],
    )
    sub = UnitSubdivision(g, [Point.on_edge("e", Fraction(1, 4))])
    assert sub.scale == 4
    assert sub.nbr == [
        ((2, 1), (3, 1), (5, 1)),
        ((2, 1), (6, 2)),
        ((0, 1), (1, 1)),
        ((0, 1), (4, 1)),
        ((3, 1), (5, 1)),
        ((4, 1), (0, 1)),
        ((1, 2),),
    ]
    assert [sub.point(i) for i in (1, 2, 5, 6)] == [
        Point.at_vertex("b"),
        Point.on_edge("e", Fraction(1, 4)),
        Point.on_edge("l", Fraction(3, 4)),
        Point.on_edge("m", Fraction(1, 4)),
    ]
    assert [sub.index(sub.point(i)) for i in range(7)] == list(range(7))
    assert sub.index(Point("edge", "l", Fraction(0))) == 0
    with pytest.raises(PointError, match="not a lattice point"):
        sub.index(Point.on_edge("l", Fraction(1, 3)))
    D = Divisor(g, [(Point.on_edge("l", Fraction(1, 2)), 2), (Point.at_vertex("b"), -1)])
    assert sub.to_divisor([0, -1, 0, 0, 2, 0, 0]) == D


def test_reduction_builds_no_refined_graph(k4, monkeypatch):
    # the unit subdivision is a numbered integer model: reducing at a point
    # inside an edge and testing the Laplacian image construct no
    # MetricGraph and call no cut_at
    counts = {"MetricGraph": 0, "cut_at": 0}
    init = graphs.MetricGraph.__init__

    def counted_init(self, *args):
        counts["MetricGraph"] += 1
        init(self, *args)

    cut_at = graphs.cut_at

    def counted_cut_at(graph, points):
        counts["cut_at"] += 1
        return cut_at(graph, points)

    monkeypatch.setattr(graphs.MetricGraph, "__init__", counted_init)
    monkeypatch.setattr(graphs, "cut_at", counted_cut_at)
    monkeypatch.setattr(divisors, "cut_at", counted_cut_at)
    q = mid("BC")
    D = Divisor(k4, [(Point.at_vertex("A"), 3), (mid("CD"), -1)])
    red = reduce_at(D, q)
    assert laplacian_image_contains(k4, D - red)
    assert not laplacian_image_contains(k4, D - red + Divisor(k4, [(q, 1), (mid("AB"), -1)]))
    assert counts == {"MetricGraph": 0, "cut_at": 0}
    # the counters are live: the refined oracle builds a graph, and
    # principal_function cuts at the support
    assert refined_reduce_at(D, q) == red
    assert principal_function(D - red) is not None
    assert counts["MetricGraph"] > 0 and counts["cut_at"] == 1


def test_divisors_of_different_graphs_do_not_add(k4, unit_loop):
    with pytest.raises(PointError, match="^divisors live on different graphs$"):
        Divisor.zero(k4) + Divisor.zero(unit_loop)


def test_pl_functions_need_one_value_per_vertex_and_integer_slopes(k4):
    cut = graphs.cut_at(k4, [])
    with pytest.raises(PointError, match="^3 values for 4 vertices$"):
        PLFunction(k4, cut, [0, 0, 0])
    f = PLFunction(k4, cut, [0, Fraction(1, 2), 0, 0])
    with pytest.raises(SlopeError, match="^non-integer slope 1/2 on 'AB' from 0$"):
        divisor_of(f)


def test_decisions_on_divisors_whose_degrees_differ(k4):
    two_loops = MetricGraph(["a", "b"], [("e", "a", "a", 1), ("f", "b", "b", 1)])
    # total degree 0, but degree 1 and -1 on the two components
    D = Divisor(two_loops, [(Point.at_vertex("a"), 1), (Point.at_vertex("b"), -1)])
    assert not is_principal(D)
    A = Point.at_vertex("A")
    assert not equivalent(Divisor.zero(k4), Divisor(k4, [(A, 1)]))
    assert effective_representative(Divisor(k4, [(A, -1)])) is None
