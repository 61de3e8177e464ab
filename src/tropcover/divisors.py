"""Divisors and piecewise linear functions on metric graphs.

Linear equivalence is decided two ways: through the period lattice (the
default, see jacobian.py) and through chip-firing on a unit subdivision,
which also yields q-reduced representatives via Dhar's burning algorithm.
A PL function holds its values on the graph's numbered cut (cut_at).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Optional

from . import linalg
from .errors import DegreeError, PointError, SlopeError
from .graphs import MetricGraph, PLFunction, Point, cut_at, refine  # noqa: F401 (see jacobian)
from .jacobian import period_lattice, scaled_abel_jacobi


class Divisor:
    """Finite integer combination of points of a host graph."""

    def __init__(self, graph: MetricGraph, coeffs=()):
        self.graph = graph
        acc: Dict[Point, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for p, a in items:
            p = graph.check_point(p)
            if type(a) is not int:
                raise TypeError("coefficient at %r is not an int: %r" % (p, a))
            # Point.__hash__ runs in Python: a new point is hashed once,
            # by setdefault, and only a repeated one is looked up again
            n = len(acc)
            acc.setdefault(p, a)
            if len(acc) == n:
                acc[p] += a
        for p in [p for p, a in acc.items() if not a]:
            del acc[p]
        self._coeffs = acc

    @staticmethod
    def zero(graph: MetricGraph) -> "Divisor":
        return Divisor(graph)

    def coeff(self, p: Point) -> int:
        return self._coeffs.get(self.graph.check_point(p), 0)

    def support(self):
        return tuple(sorted(self._coeffs))

    def items(self):
        return tuple(sorted(self._coeffs.items()))

    def degree(self) -> int:
        return sum(self._coeffs.values())

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self._coeffs.values())

    def is_zero(self) -> bool:
        return not self._coeffs

    def _require_same_host(self, other: "Divisor"):
        if not self.graph.same_model(other.graph):
            raise PointError("divisors live on different graphs")

    def __add__(self, other: "Divisor") -> "Divisor":
        self._require_same_host(other)
        out = dict(self._coeffs)
        for p, a in other._coeffs.items():
            out[p] = out.get(p, 0) + a
        return Divisor(self.graph, out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __neg__(self) -> "Divisor":
        return Divisor(self.graph, {p: -a for p, a in self._coeffs.items()})

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor(self.graph, {p: k * a for p, a in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Divisor)
            and self.graph.same_model(other.graph)
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        if not self._coeffs:
            return "Divisor(0)"
        return "Divisor(%s)" % " + ".join(
            "%d*%r" % (a, p) for p, a in self.items()
        )

    def component_degrees(self):
        """Degree per connected component, keyed by the component tuple."""
        comp_of = self.graph.components_by_vertex()
        degs = dict.fromkeys(self.graph.components(), 0)
        for p, a in self._coeffs.items():
            vid = p.id if p.is_vertex else self.graph.ends(p.id)[0]
            degs[comp_of[vid]] += a
        return degs


def canonical_divisor(graph: MetricGraph) -> Divisor:
    """K with K(v) = valence(v) - 2 + 2 genus(v), supported on model vertices."""
    return Divisor(
        graph,
        [
            (Point.at_vertex(v), graph.valence(v) - 2 + 2 * graph.genus_of(v))
            for v in graph.vertex_ids
        ],
    )


# -- piecewise linear functions ------------------------------------------


def divisor_of(f: PLFunction) -> Divisor:
    """div(f): at each point, the sum of incoming slopes of f."""
    cut = f.refinement
    ords = [0] * len(cut.points)
    for t, h, ell, edge, start in cut.segments:
        slope = (f.values[h] - f.values[t]) * cut.scale / ell
        if slope.denominator != 1:
            raise SlopeError(
                "non-integer slope %s on %r from %s" % (slope, edge, Fraction(start, cut.scale))
            )
        # incoming slope at h is +slope (f rises toward h), at t -slope
        ords[h] += slope
        ords[t] -= slope
    # each segment adds +slope and -slope, so div(f) has degree 0
    return Divisor(f.graph, [(cut.point(i), int(a)) for i, a in enumerate(ords) if a])


# -- unit subdivision and chip-firing ------------------------------------


class UnitSubdivision:
    """Integer model: every edge split into segments of equal length 1/scale.

    scale is the lcm of the graph's scale and of the denominators of the
    offsets of the prescribed points, so all of those become vertices.
    Vertices are numbered: the base vertices in vertex_ids order, then each
    edge's interior lattice points from tail to head, edges in edge_ids
    order.  nbr[i] lists vertex i's (neighbour, multiplicity) pairs; loops
    are dropped (they never move chips), so a loop of one segment vanishes
    and a loop of several is a chain.  No refined graph is built.
    """

    def __init__(self, graph: MetricGraph, points: Iterable[Point] = ()):
        graph_scale, length = graph.integer_metric()
        denoms = []
        for p in points:
            p = graph.check_point(p)
            if not p.is_vertex:
                denoms.append(p.offset.denominator)
        self.scale = lcm(graph_scale, *denoms)
        up = self.scale // graph_scale
        self.graph = graph
        self._base = {v: i for i, v in enumerate(graph.vertex_ids)}
        base_nbr = [{} for _ in self._base]
        nbr = []
        self._first = {}  # edge id -> the number of its first interior point
        self._edge_of = []  # interior point's number - len(base) -> its edge id
        n = len(base_nbr)
        for eid in graph.edge_ids:
            t, h = (self._base[v] for v in graph.ends(eid))
            k = length[eid] * up  # segments
            if k == 1:
                if t != h:
                    base_nbr[t][h] = base_nbr[t].get(h, 0) + 1
                    base_nbr[h][t] = base_nbr[h].get(t, 0) + 1
                continue
            first, last = n, n + k - 2
            self._first[eid] = first
            self._edge_of += [eid] * (k - 1)
            base_nbr[t][first] = 1
            base_nbr[h][last] = base_nbr[h].get(last, 0) + 1
            if k == 2:
                nbr.append(((t, 2),) if t == h else ((t, 1), (h, 1)))
            else:
                nbr.append(((t, 1), (first + 1, 1)))
                nbr += [((i - 1, 1), (i + 1, 1)) for i in range(first + 1, last)]
                nbr.append(((last - 1, 1), (h, 1)))
            n = last + 1
        self.nbr = [tuple(d.items()) for d in base_nbr] + nbr

    def index(self, p: Point) -> int:
        """The number of the vertex at p."""
        p = self.graph.check_point(p)
        if p.is_vertex:
            return self._base[p.id]
        den = p.offset.denominator
        if self.scale % den:
            raise PointError("point %r is not a lattice point" % (p,))
        return self._first[p.id] + p.offset.numerator * (self.scale // den) - 1

    def point(self, i: int) -> Point:
        """The point of vertex i."""
        n = len(self._base)
        if i < n:
            return Point.at_vertex(self.graph.vertex_ids[i])
        eid = self._edge_of[i - n]
        return Point("edge", eid, Fraction(i - self._first[eid] + 1, self.scale))

    def to_divisor(self, chips) -> Divisor:
        """The divisor of a chip list, one entry per vertex."""
        return Divisor(self.graph, [(self.point(i), a) for i, a in enumerate(chips) if a])


def _bfs_order(nbr, q):
    order = [q]
    seen = [False] * len(nbr)
    seen[q] = True
    for v in order:  # the order grows while it is read
        for u, _ in nbr[v]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return order


def _fire_set(chips, nbr, fire, inside):
    """Fire each vertex of `fire`, the set whose members `inside` marks."""
    for v in fire:
        for u, m in nbr[v]:
            if not inside[u]:
                chips[v] -= m
                chips[u] += m


def reduce_at(D: Divisor, q: Point) -> Divisor:
    """The q-reduced representative of D on the unit subdivision."""
    graph = D.graph
    q = graph.check_point(q)
    sub = UnitSubdivision(graph, [*D.support(), q])
    nbr = sub.nbr
    n = len(nbr)
    chips = [0] * n
    for p, a in D.items():
        chips[sub.index(p)] += a
    qv = sub.index(q)
    order = _bfs_order(nbr, qv)
    if len(order) != n:
        raise PointError("graph is disconnected; reduce_at needs a connected host")

    # phase 1: make chips nonnegative away from q by firing prefix sets
    in_prefix = [True] * n
    for j in range(n - 1, 0, -1):
        target = order[j]
        in_prefix[target] = False
        if chips[target] < 0:
            prefix = order[:j]
            while chips[target] < 0:
                _fire_set(chips, nbr, prefix, in_prefix)

    # phase 2: Dhar's burning algorithm
    while True:
        burnt = [False] * n
        burnt[qv] = True
        hot = [qv]
        exposure = [0] * n
        left = n - 1
        while hot:
            v = hot.pop()
            for u, m in nbr[v]:
                if burnt[u]:
                    continue
                exposure[u] += m
                if exposure[u] > chips[u]:
                    burnt[u] = True
                    left -= 1
                    hot.append(u)
        if not left:
            break
        unburnt = [not b for b in burnt]
        _fire_set(chips, nbr, [v for v in range(n) if unburnt[v]], unburnt)

    return sub.to_divisor(chips)


# -- principality and equivalence ----------------------------------------


def is_principal(D: Divisor) -> bool:
    """Whether D = div(f) for some integer-slope PL function (lattice route)."""
    if any(d != 0 for d in D.component_degrees().values()):
        if D.degree() != 0:
            raise DegreeError("is_principal needs a degree-0 divisor")
        return False
    lat = period_lattice(D.graph)
    return lat.contains(*scaled_abel_jacobi(lat, D))


def principal_function(D: Divisor) -> Optional[PLFunction]:
    """A PL function f with div(f) = D, or None if D is not principal.

    is_principal's one division on the graph's period lattice gives Gram^-1
    of D's Abel-Jacobi coordinates as z + r / q, and D is principal exactly
    when r = 0.  Then, on the cut at supp(D), the integer flow c - sum of
    z_j cycle_j, c the chain sum of D(p) times p's root path, has boundary D
    and pairs to 0 with every cycle, so it is the slope field of f.  f(v)
    is the length-weighted pairing of v's root path with the flow: 0 at
    each component's root, its first base vertex.
    """
    if any(d != 0 for d in D.component_degrees().values()):
        return None
    graph = D.graph
    lat = period_lattice(graph)
    z, r, _ = lat.divide(*scaled_abel_jacobi(lat, D))
    if any(r):
        return None
    chain = lat.cycles._root_chain
    flow = dict.fromkeys(graph.edge_ids, 0)  # edge id -> the flow at its tail
    for zj, cyc in zip(z, lat.basis):
        for e, c in cyc.items():
            flow[e] -= zj * c
    cut = cut_at(graph, D.support())
    chips = [0] * len(cut.points)
    for p, a in D.items():
        chips[cut.index(p)] = a
        if not p.is_vertex:
            # p's root path runs along its edge from the tail up to p
            flow[p.id] += a
        for e, c in chain(p.id if p.is_vertex else graph.ends(p.id)[0]).items():
            flow[e] += a * c
    slopes = []
    rise = dict.fromkeys(graph.edge_ids, 0)  # edge id -> f(head) - f(tail)
    for s in cut.segments:
        # past a cut point, the root paths that end there drop out
        x = flow[s.edge] if s.start == 0 else x - chips[s.tail]
        slopes.append(x)
        rise[s.edge] += s.length * x
    n = len(graph.vertex_ids)
    values = [sum(c * rise[e] for e, c in chain(v).items()) for v in graph.vertex_ids]
    values += [0] * (len(cut.points) - n)
    for (t, h, ell, _, _), x in zip(cut.segments, slopes):
        if h >= n:  # a cut point, reached from its segment's tail
            values[h] = values[t] + ell * x
    return PLFunction(graph, cut, [Fraction(x, cut.scale) for x in values])


def equivalent(D1: Divisor, D2: Divisor) -> bool:
    D1._require_same_host(D2)
    if D1.degree() != D2.degree():
        return False
    return is_principal(D1 - D2)


def effective_representative(D: Divisor) -> Optional[Divisor]:
    """An effective divisor equivalent to D, or None if the class has none.

    The class is effective iff its q-reduced form is effective, q being the
    first model vertex.
    """
    if D.degree() < 0:
        return None
    red = reduce_at(D, D.graph.basepoint())
    return red if red.is_effective() else None


def laplacian_image_contains(graph: MetricGraph, D: Divisor) -> bool:
    """Discrete oracle: D lies in the integer image of the unit-subdivision
    Laplacian.  Independent of the period-lattice route."""
    sub = UnitSubdivision(graph, D.support())
    n = len(sub.nbr)
    chips = [0] * n
    for p, a in D.items():
        chips[sub.index(p)] += a
    cols = []
    for v, row in enumerate(sub.nbr):
        col = [0] * n
        col[v] = sum(m for _, m in row)
        for u, m in row:
            col[u] = -m
        cols.append(col)
    return linalg.in_lattice(cols, chips)
