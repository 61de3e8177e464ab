"""Period lattice and the tropical Abel-Jacobi map.

Coordinates of a degree-0 divisor are the edge-length inner products of a
path 1-chain against the fundamental cycle basis: each support point is
reached from its component's root along the fundamental tree of the cycle
basis, and a point inside an edge by the tree path to the edge's tail plus
the segment up to the point.  The class is taken modulo the lattice spanned
by the Gram matrix columns.  Everything is exact, so lattice membership is
a yes/no question, answered in integers.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from . import linalg
from .divisors import Divisor
from .errors import DegreeError, PointError

# refine is bound here as well as in graphs and divisors: the benchmark's
# tracer patches every module binding of it and checks this one
from .graphs import CycleSpace, MetricGraph, Point, refine  # noqa: F401


class PeriodLattice:
    """Cycle basis with its Gram matrix under the edge-length inner product,
    and the per-graph tables the Abel-Jacobi map reads.

    Integer tables are scaled by `scale`, that of the graph's integer
    metric (the lcm of the length denominators): col[e] holds the
    coefficient of edge e in each basis cycle, pot[v] the pairing of v's
    root path in the fundamental tree with each basis cycle (times scale),
    and scaled_gram the Gram matrix (times scale).

    The graph is held through a weak reference: its memo holds the
    lattice, and a strong reference back would leave both to the cyclic
    garbage collector.
    """

    def __init__(self, graph: MetricGraph):
        self._graph = weakref.ref(graph)
        self.cycles = cs = CycleSpace(graph)
        self.basis = cs.basis
        g = self.rank = len(self.basis)
        self.scale, width = graph.integer_metric()
        self.col = {e: tuple(cyc.get(e, 0) for cyc in self.basis) for e in graph.edge_ids}
        self.scaled_gram = [[0] * g for _ in range(g)]
        for e, col in self.col.items():
            for i, a in enumerate(col):
                if a:
                    row = self.scaled_gram[i]
                    for j, b in enumerate(col):
                        row[j] += width[e] * a * b
        self.gram = [[Fraction(x, self.scale) for x in row] for row in self.scaled_gram]
        self.pot = {}
        for v in graph.vertex_ids:
            acc = [0] * g
            for e, c in cs._root_chain(v).items():
                for j, x in enumerate(self.col[e]):
                    acc[j] += c * width[e] * x
            self.pot[v] = acc
        self._span = None  # gram_span(), built on first use
        self._inverse = None  # inverse(), likewise

    @property
    def graph(self) -> MetricGraph:
        graph = self._graph()
        if graph is None:
            raise ReferenceError(
                "the lattice's graph no longer exists: keep the graph while using its lattice"
            )
        return graph

    def gram_span(self) -> linalg.IntegerLattice:
        """The lattice spanned by the Gram matrix columns, built on first
        use: coordinates alone never need it."""
        if self._span is None:
            # the Gram matrix is symmetric, so its rows are its columns
            self._span = linalg.IntegerLattice(self.scaled_gram, self.rank, self.scale)
        return self._span

    def inverse(self) -> Tuple[List[List[int]], int]:
        """scaled_gram^-1 as (integer matrix, denominator), built on first use."""
        if self._inverse is None:
            self._inverse = linalg.integer_inverse(self.scaled_gram)
        return self._inverse


class Tables(NamedTuple):
    """What scaled_abel_jacobi reads, for tables that a PeriodLattice does
    not own: points of `graph`, coordinates in a basis of rank `rank`,
    pot[v] scaled by `scale` and col[e] as in PeriodLattice (the pullback
    of a cover's source tables to its target, see covers.pullback_tables)."""

    graph: MetricGraph
    scale: int
    rank: int
    pot: Dict[str, List[int]]
    col: Dict[str, Tuple[int, ...]]


def period_lattice(graph: MetricGraph) -> PeriodLattice:
    """Memoized on the (immutable) graph instance."""
    lat = graph._memo.get("period_lattice")
    if lat is None:
        lat = graph._memo["period_lattice"] = PeriodLattice(graph)
    return lat


def abel_jacobi(lat: PeriodLattice, D: Divisor, q: Point = None) -> List[Fraction]:
    """Coordinates of a component-wise degree-0 divisor.

    The path from the root to each support point lies in the fundamental
    tree, so the coordinates are the tree-path pairing for the tree that
    `lat.cycles` spans.  A basepoint q is checked to be a point of the
    graph, but with degree 0 on every component the basepoint's own path
    cancels, so q does not change the coordinates.
    """
    if q is not None:
        lat.graph.check_point(q)
    nums, den = scaled_abel_jacobi(lat, D)
    return [Fraction(x, den) for x in nums]


def scaled_abel_jacobi(lat, D: Divisor) -> Tuple[List[int], int]:
    """(integer numerators, common denominator) of abel_jacobi(lat, D).

    The sum of a * pot[v] over vertex points v, plus a * (pot[tail(e)] +
    t * col[e]) over points at offset t on an edge e.  lat is a
    PeriodLattice or Tables.
    """
    graph = lat.graph
    if not D.graph.same_model(graph):
        raise PointError("the divisor does not live on the lattice's graph")
    if any(d != 0 for d in D.component_degrees().values()):
        raise DegreeError("abel_jacobi needs degree 0 on every component")
    terms = D.items()
    den = lcm(lat.scale, *(p.offset.denominator for p, _ in terms))
    up = den // lat.scale
    acc = [0] * lat.rank
    for p, a in terms:
        if p.is_vertex:
            base = p.id
        else:
            base = graph.ends(p.id)[0]
            t = p.offset
            step = a * t.numerator * (den // t.denominator)
            for j, x in enumerate(lat.col[p.id]):
                if x:
                    acc[j] += step * x
        w = a * up
        for j, x in enumerate(lat.pot[base]):
            acc[j] += w * x
    return acc, den


def lattice_contains(lat: PeriodLattice, v) -> bool:
    """Whether v lies in the lattice spanned by the Gram matrix columns."""
    return lat.gram_span().contains(v)


def canonical(lat: PeriodLattice, v) -> Tuple[Fraction, ...]:
    """Representative with Gram^-1 v in [0,1)^g."""
    den = lcm(*(x.denominator for x in v))
    return _reduce(lat, [x.numerator * (den // x.denominator) for x in v], den)


def _reduce(lat: PeriodLattice, nums, den: int) -> Tuple[Fraction, ...]:
    """canonical() of nums / den, in integers: with Gram = S / scale and
    S^-1 = N / d, the coordinates x = Gram^-1 v are scale * N nums / (d *
    den), and Gram times their fractional parts is S r / (scale * d * den)
    for r = scale * N nums mod d * den."""
    if lat.rank == 0:
        return ()
    inv, d = lat.inverse()
    q = d * den
    r = [lat.scale * sum(map(mul, row, nums)) % q for row in inv]
    q *= lat.scale
    return tuple(Fraction(sum(map(mul, row, r)), q) for row in lat.scaled_gram)


def add_points(lat: PeriodLattice, v, w) -> Tuple[Fraction, ...]:
    return canonical(lat, [a + b for a, b in zip(v, w)])


def torsion_points(lat: PeriodLattice, m: int):
    """Canonical representatives of the m^g torsion classes."""
    if m < 2:
        raise ValueError("m must be at least 2")
    g = lat.rank
    out = []
    for mask in range(m**g):
        z = []
        k = mask
        for _ in range(g):
            z.append(k % m)
            k //= m
        # Gram z / m, over the denominator m * scale
        nums = [sum(map(mul, row, z)) for row in lat.scaled_gram]
        out.append(_reduce(lat, nums, m * lat.scale))
    return out
