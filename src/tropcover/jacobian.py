"""Period lattice and the tropical Abel-Jacobi map.

Coordinates of a degree-0 divisor are the edge-length inner products of a
path 1-chain from a basepoint against the fundamental cycle basis; the
class is taken modulo the lattice spanned by the Gram matrix columns.
Everything is exact, so lattice membership is a yes/no question.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .divisors import Divisor
from .errors import DegreeError, PointError
from .graphs import CycleSpace, MetricGraph, Point, refine

ZERO = Fraction(0)


class PeriodLattice:
    """Cycle basis with its Gram matrix under the edge-length inner product."""

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self.cycles = CycleSpace(graph)
        self.basis = self.cycles.basis
        g = len(self.basis)
        self.rank = g
        self.gram = [
            [self._pair_cycles(self.basis[i], self.basis[j]) for j in range(g)]
            for i in range(g)
        ]

    def _pair_cycles(self, c1, c2) -> Fraction:
        total = ZERO
        for e, a in c1.items():
            b = c2.get(e, 0)
            if b:
                total += self.graph.length(e) * a * b
        return total

    def pair_chain(self, segments) -> List[Fraction]:
        """Inner products of a segment chain with every basis cycle.

        segments: iterable of (base edge id, a, b, coeff), a <= b offsets.
        """
        out = [ZERO] * self.rank
        for eid, a, b, coeff in segments:
            if not coeff:
                continue
            span = b - a
            for j, cyc in enumerate(self.basis):
                c = cyc.get(eid, 0)
                if c:
                    out[j] += span * coeff * c
        return out


def period_lattice(graph: MetricGraph) -> PeriodLattice:
    """Memoized on the (immutable) graph instance."""
    lat = graph._memo.get("period_lattice")
    if lat is None:
        lat = graph._memo["period_lattice"] = PeriodLattice(graph)
    return lat


def abel_jacobi(lat: PeriodLattice, D: Divisor, q: Point = None) -> List[Fraction]:
    """Coordinates of a component-wise degree-0 divisor.

    The path 1-chain runs from a basepoint per component (q's, where given,
    else the component's least vertex) to each support point.
    """
    graph = lat.graph
    if any(d != 0 for d in D.component_degrees().values()):
        raise DegreeError("abel_jacobi needs degree 0 on every component")
    pts = list(D.support())
    if q is not None:
        q = graph.check_point(q)
        pts.append(q)
    ref = refine(graph, pts)
    cs = CycleSpace(ref.graph)
    comp_of = ref.graph.components_by_vertex()
    bases = {comp: comp[0] for comp in ref.graph.components()}
    if q is not None:
        qv = ref.to_refined_point(q).id
        bases[comp_of[qv]] = qv

    chain: Dict[str, int] = {}  # refined edge id -> coefficient
    for p, a in D.items():
        rp = ref.to_refined_point(p)
        if not rp.is_vertex:
            raise PointError("support point %r is not a vertex of its refinement" % (p,))
        for e, c in cs.tree_chain(bases[comp_of[rp.id]], rp.id).items():
            chain[e] = chain.get(e, 0) + a * c

    segments = []
    for reid, c in chain.items():
        if c:
            beid, a, b = ref.seg[reid]
            segments.append((beid, a, b, c))
    return lat.pair_chain(segments)


def lattice_contains(lat: PeriodLattice, v) -> bool:
    """Whether v lies in the lattice spanned by the Gram matrix columns."""
    if len(v) != lat.rank:
        raise ValueError("dimension mismatch")
    if lat.rank == 0:
        return all(x == 0 for x in v)
    x = linalg.solve(lat.gram, list(v))
    return all(xi.denominator == 1 for xi in x)


def canonical(lat: PeriodLattice, v) -> Tuple[Fraction, ...]:
    """Representative with Gram^-1 v in [0,1)^g."""
    if lat.rank == 0:
        return ()
    x = linalg.solve(lat.gram, list(v))
    frac = [xi - (xi.numerator // xi.denominator) for xi in x]
    return tuple(linalg.mat_vec(lat.gram, frac))


def add_points(lat: PeriodLattice, v, w) -> Tuple[Fraction, ...]:
    return canonical(lat, [a + b for a, b in zip(v, w)])


def torsion_points(lat: PeriodLattice, m: int):
    """Canonical representatives of the m^g torsion classes."""
    if m < 2:
        raise ValueError("m must be at least 2")
    g = lat.rank
    cols = list(zip(*lat.gram)) if g else []
    out = []
    for mask in range(m**g):
        z = []
        k = mask
        for _ in range(g):
            z.append(k % m)
            k //= m
        v = [
            sum((Fraction(z[j], m) * cols[j][i] for j in range(g)), ZERO)
            for i in range(g)
        ]
        out.append(canonical(lat, v))
    return out
