"""Theta characteristics on a metric graph via distance orientations.

Given an even subgraph c (possibly empty, in which case a basepoint p is
used), orient the graph so the distance-to-source function increases away
from the source, and give the source itself a totally cyclic orientation.
The divisor sum((indeg - 1) x) over the induced refinement is a theta
characteristic: twice it is equivalent to the canonical class.  The empty
cycle yields the unique non-effective one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .divisors import Divisor
from .errors import CycleError, DegreeError, SlopeError
from .graphs import (
    CycleSpace,
    DistanceField,
    MetricGraph,
    Point,
    check_even_subgraph,
    distance_field,
    require_unaugmented,
)


@dataclass
class ThetaCharacteristic:
    cycle: frozenset  # even subgraph label (empty for the non-effective one)
    divisor: Divisor
    effective: bool
    field: DistanceField
    basepoint: Optional[Point]  # used when cycle is empty


def theta_characteristic(
    graph: MetricGraph, cycle=frozenset(), p: Optional[Point] = None
) -> ThetaCharacteristic:
    """The theta-characteristic divisor for one even subgraph (or the basepoint one)."""
    require_unaugmented(graph)
    cycle = check_even_subgraph(graph, cycle)
    if cycle:
        field = distance_field(graph, cycle)
        basepoint = None
    else:
        basepoint = graph.check_point(p) if p is not None else Point.at_vertex(
            graph.vertex_ids[0]
        )
        field = distance_field(graph, basepoint)

    ref = field.refinement
    g = ref.graph
    # the field's distances and the refined lengths share one integer metric
    dist = field.scaled_values
    _, length = g.integer_metric()
    coeffs = []
    for v in g.vertex_ids:
        indeg = 0
        cyclic_ends = 0
        for reid, end in g.ends_at(v):
            base_eid = ref.seg[reid][0]
            if base_eid in cycle:
                cyclic_ends += 1
                continue
            other = g.other_end(reid, end)
            # incoming iff the distance decreases toward the far endpoint
            if dist[v] == dist[other] + length[reid]:
                indeg += 1
            elif v == other:
                # a loop surviving refinement: distances tie at both ends,
                # which cannot happen off the source after ridge insertion
                raise SlopeError("loop %r off the source has slope 0" % reid)
        if cyclic_ends % 2:
            raise CycleError(
                "vertex %r has an odd number (%d) of source ends" % (v, cyclic_ends)
            )
        indeg += cyclic_ends // 2  # totally cyclic: half the ends come in
        if indeg != 1:
            coeffs.append((ref.to_base_point(Point.at_vertex(v)), indeg - 1))
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
        field=field,
        basepoint=basepoint,
    )


def two_torsion_divisor(
    graph: MetricGraph, cycle, p: Optional[Point] = None
) -> Divisor:
    """D_c = L_c - L_0, a representative of a 2-torsion class."""
    cycle = check_even_subgraph(graph, cycle)
    base = theta_characteristic(graph, frozenset(), p)
    if not cycle:
        return Divisor.zero(graph)
    return theta_characteristic(graph, cycle).divisor - base.divisor


def two_torsion_divisors(graph: MetricGraph):
    """(even subgraphs, [L_c - L_0 for each c]) in cycle-span order, from
    one enumerate_theta, so L_0 is built once."""
    chars = enumerate_theta(graph)
    base = chars[0].divisor
    return [t.cycle for t in chars], [t.divisor - base for t in chars]


def enumerate_theta(graph: MetricGraph, p: Optional[Point] = None):
    """All 2^g theta characteristics, in cycle-span order (empty one first)."""
    require_unaugmented(graph)
    cs = CycleSpace(graph)
    return [theta_characteristic(graph, c, p) for c in cs.even_subgraphs()]
