"""Theta characteristics on a metric graph via distance orientations.

Given an even subgraph c (possibly empty, in which case a basepoint p is
used), orient the graph so the distance-to-source function increases away
from the source, and give the source itself a totally cyclic orientation.
The divisor sum((indeg - 1) x), plus one chip at each ridge where descent
directions meet, is a theta characteristic: twice it is equivalent to the
canonical class.  The empty cycle yields the unique non-effective one.
One ShortestPaths pass certifies the distances and counts the in-degrees
on the graph's numbered cut, which is cut only at a basepoint inside an edge.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .divisors import Divisor
from .errors import DegreeError
from .graphs import (
    MetricGraph,
    Point,
    ShortestPaths,
    require_unaugmented,
)


# cycle: the even subgraph label (empty for the non-effective one);
# divisor: a Divisor; effective: a bool; basepoint: the Point used when
# cycle is empty, else None
ThetaCharacteristic = namedtuple("ThetaCharacteristic", "cycle divisor effective basepoint")


def theta_characteristic(
    graph: MetricGraph, cycle=frozenset(), p: Optional[Point] = None
) -> ThetaCharacteristic:
    """The theta-characteristic divisor for one even subgraph (or the basepoint one).

    ShortestPaths checks that a nonempty cycle is an even subgraph."""
    require_unaugmented(graph)
    cycle = frozenset(cycle)
    basepoint = None if cycle else graph.check_point(p if p is not None else graph.basepoint())
    paths = ShortestPaths(graph, cycle or basepoint)
    # both ends of a ridge's segment are outgoing and both halves come in
    # at the ridge, so the ridge carries one chip
    coeffs = [(x, 1) for x in paths.ridges.values()]
    coeffs += [(p, n - 1) for p, n in zip(paths.refinement.points, paths.indeg) if n != 1]
    div = Divisor(graph, coeffs)
    if div.degree() != graph.genus() - 1:
        raise DegreeError(
            "theta divisor has degree %d, not g - 1 = %d"
            % (div.degree(), graph.genus() - 1)
        )
    return ThetaCharacteristic(
        cycle=cycle,
        divisor=div,
        effective=div.is_effective(),
        basepoint=basepoint,
    )


def two_torsion_divisor(graph: MetricGraph, cycle) -> Divisor:
    """D_c = L_c - L_0, a representative of a 2-torsion class, with L_0 at
    the default basepoint: the zero divisor for the empty cycle."""
    return theta_characteristic(graph, cycle).divisor - theta_characteristic(graph).divisor


def two_torsion_divisors(graph: MetricGraph):
    """(even subgraphs, [L_c - L_0 for each c]) in cycle-span order, from
    one enumerate_theta, so L_0 is built once."""
    chars = enumerate_theta(graph)
    base = chars[0].divisor
    return [t.cycle for t in chars], [t.divisor - base for t in chars]


def enumerate_theta(graph: MetricGraph, p: Optional[Point] = None):
    """All 2^g theta characteristics, in cycle-span order (empty one first,
    so an augmented graph raises from its first theta_characteristic)."""
    return [theta_characteristic(graph, c, p) for c in graph.cycle_space().even_subgraphs()]
