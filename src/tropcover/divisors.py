"""Divisors and piecewise linear functions on metric graphs.

Linear equivalence is decided two ways: through the period lattice (the
default, see jacobian.py) and through chip-firing on the unit cut
(graphs.unit_cut), which also yields q-reduced representatives: prefixes
of a breadth-first order from q pay every debt away from q, then Dhar's
burning algorithm fires the unburnt set until everything burns, each set
as many times as it needs, or may, in one step.  A PL function holds its
values on the graph's numbered cut (cut_at); both models are
graphs.Refinement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from . import linalg
from .errors import DegreeError, PointError, SlopeError
from .graphs import MetricGraph, PLFunction, Point, cut_at, unit_cut
from .graphs import refine  # noqa: F401 (see jacobian)
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
    ords = [0] * cut.size
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


# -- chip-firing on the unit cut ----------------------------------------


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


def _fire(chips, nbr, outside, k):
    """Fire k times the set of vertices that `outside` does not mark: each
    marked vertex takes k chips per segment it shares with the set.  The
    loop runs over the marked side, the burnt one in Dhar's rounds, which
    is usually the smaller."""
    for v, row in enumerate(nbr):
        if outside[v]:
            for u, m in row:
                if not outside[u]:
                    m *= k
                    chips[u] -= m
                    chips[v] += m


def reduce_at(D: Divisor, q: Point) -> Divisor:
    """The q-reduced representative of D, by firing chips on the unit cut
    at supp(D) and q: every segment has length 1, so each adjacency entry
    moves one chip per firing, and a loop segment, whose vertex is its own
    neighbour, moves none."""
    graph = D.graph
    q = graph.check_point(q)
    cut = unit_cut(graph, [*D._coeffs, q])
    nbr = cut.adjacency
    n = cut.size
    chips = [0] * n
    for p, a in D._coeffs.items():
        chips[cut.index(p)] = a
    qv = cut.index(q)
    order = _bfs_order(nbr, qv)
    if len(order) != n:
        raise PointError("graph is disconnected; reduce_at needs a connected host")

    # phase 1: make chips nonnegative away from q by firing prefixes of the
    # order.  Each firing of the prefix before order[j] moves m chips to
    # order[j], one per segment between them (m >= 1: the order reached
    # order[j] from the prefix), so the prefix fires ceil(-chips / m) times
    past = [False] * n
    for j in range(n - 1, 0, -1):
        target = order[j]
        past[target] = True
        if chips[target] < 0:
            m = sum(ell for u, ell in nbr[target] if not past[u])
            _fire(chips, nbr, past, -(chips[target] // m))

    # phase 2: Dhar's burning algorithm.  room[v] is what v holds beyond
    # its exposure to the fire; v burns when it drops below 0.  The unburnt
    # set fires as often as each of its vertices can pay its exposure,
    # chips[v] - room[v]: at least once, unless everything burnt
    while True:
        room = chips[:]
        burnt = [False] * n
        burnt[qv] = True
        hot = [qv]
        while hot:
            for u, m in nbr[hot.pop()]:
                if not burnt[u]:
                    room[u] -= m
                    if room[u] < 0:
                        burnt[u] = True
                        hot.append(u)
        k = 0
        for c, r in zip(chips, room):
            if 0 <= r < c and (not k or c // (c - r) < k):
                k = c // (c - r)
        if not k:
            break
        _fire(chips, nbr, burnt, k)

    return Divisor(graph, [(cut.point(i), a) for i, a in enumerate(chips) if a])


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
    chips = [0] * cut.size
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
    values += [0] * (cut.size - n)
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
    """Discrete oracle: D lies in the integer image of the Laplacian of the
    unit cut at supp(D).  Independent of the period-lattice route."""
    cut = unit_cut(graph, D.support())
    n = cut.size
    chips = [0] * n
    for p, a in D.items():
        chips[cut.index(p)] += a
    cols = []
    for v, row in enumerate(cut.adjacency):
        col = [0] * n
        # a loop segment lists v twice, and the two entries cancel
        for u, m in row:
            col[v] += m
            col[u] -= m
        cols.append(col)
    return linalg.in_lattice(cols, chips)
