"""Period lattice and the tropical Abel-Jacobi map.

Coordinates of a degree-0 divisor are the edge-length inner products of a
path 1-chain against the fundamental cycle basis: each support point is
reached from its component's root along the fundamental tree of the cycle
basis, and a point inside an edge by the tree path to the edge's tail plus
the segment up to the point.  The map takes no basepoint: on a divisor of
degree 0 on every component, a basepoint's own path cancels.  The class is
taken modulo the lattice spanned by the Gram matrix columns.  Everything is
exact: membership, reduction and principal_function's certificate all read
one integer division by the Gram matrix (PeriodLattice.divide) on the
graph's own lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import List, Tuple

from . import linalg
from .errors import DegreeError, PointError

# refine is unused here and in divisors; the benchmark's tracer patches both
from .graphs import MetricGraph, memoized, refine  # noqa: F401


class PeriodLattice:
    """Cycle basis with its Gram matrix under the edge-length inner product,
    and the per-graph tables the Abel-Jacobi map reads.

    Integer tables are scaled by `scale`, that of the graph's integer
    metric (the lcm of the length denominators): col[e] holds the
    coefficient of edge e in each basis cycle, pot[v] the pairing of v's
    root path in the fundamental tree with each basis cycle (times scale),
    and scaled_gram the Gram matrix (times scale).  The lattice itself is
    held as the integer inverse of scaled_gram, from which divide() reads
    every Jacobian question.

    No reference to the graph is kept: its memo holds the lattice, and a
    caller that needs the graph passes it.  The lattice keeps the graph's
    genus and edge tables, so that MetricGraph.same_model tells the
    divisors it accepts.  Its own memo holds the inverse, built on first
    use through memoized.
    """

    def __init__(self, graph: MetricGraph):
        self._genus, self._edges = graph._genus, graph._edges
        self.cycles = cs = graph.cycle_space()
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
        self.pot = {}
        for v in graph.vertex_ids:
            acc = [0] * g
            for e, c in cs._root_chain(v).items():
                for j, x in enumerate(self.col[e]):
                    acc[j] += c * width[e] * x
            self.pot[v] = acc
        self._memo = {}

    def inverse(self) -> Tuple[List[List[int]], int]:
        """scaled_gram^-1 as (integer matrix, denominator), built on first use."""
        return memoized(self._memo, "inverse", linalg.integer_inverse, self.scaled_gram)

    def divide(self, nums, den: int) -> Tuple[List[int], List[int], int]:
        """(z, r, q) with Gram^-1 (nums / den) = z + r / q, z and r integer
        vectors and 0 <= r < q.  With Gram = S / scale and S^-1 = N / d,
        Gram^-1 (nums / den) = scale N nums / (d den)."""
        if len(nums) != self.rank:
            raise ValueError("dimension mismatch")
        inv, d = self.inverse()
        q = d * den
        y = [self.scale * sum(map(mul, row, nums)) for row in inv]
        return [x // q for x in y], [x % q for x in y], q

    def contains(self, nums, den: int) -> bool:
        """Whether nums / den lies in the lattice: Gram^-1 of it is integral."""
        return not any(self.divide(nums, den)[1])


def period_lattice(graph: MetricGraph) -> PeriodLattice:
    """Memoized on the (immutable) graph instance."""
    return memoized(graph._memo, "period_lattice", PeriodLattice, graph)


def abel_jacobi(lat: PeriodLattice, D) -> List[Fraction]:
    """Coordinates of a component-wise degree-0 divisor D.

    The path from the root to each support point lies in the fundamental
    tree, so the coordinates are the tree-path pairing for the tree that
    `lat.cycles` spans; any basepoint would give the same coordinates.
    """
    nums, den = scaled_abel_jacobi(lat, D)
    return [Fraction(x, den) for x in nums]


def scaled_abel_jacobi(lat: PeriodLattice, D) -> Tuple[List[int], int]:
    """(integer numerators, common denominator) of abel_jacobi(lat, D).

    The sum of a * pot[v] over vertex points v, plus a * (pot[tail(e)] +
    t * col[e]) over points at offset t on an edge e.
    """
    graph = D.graph
    if not graph.same_model(lat):
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


def _over_common_denominator(v) -> Tuple[List[int], int]:
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def lattice_contains(lat: PeriodLattice, v) -> bool:
    """Whether v lies in the lattice spanned by the Gram matrix columns."""
    return lat.contains(*_over_common_denominator(v))


def canonical(lat: PeriodLattice, v) -> Tuple[Fraction, ...]:
    """Representative with Gram^-1 v in [0,1)^g."""
    return _reduce(lat, *_over_common_denominator(v))


def _reduce(lat: PeriodLattice, nums, den: int) -> Tuple[Fraction, ...]:
    """canonical() of nums / den, in integers: Gram times the fractional
    part r / q of Gram^-1 (nums / den) is S r / (scale q)."""
    _, r, q = lat.divide(nums, den)
    q *= lat.scale
    return tuple(Fraction(sum(map(mul, row, r)), q) for row in lat.scaled_gram)


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
