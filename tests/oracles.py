"""Independent implementations that the tests check the library against.

Each one takes a different route from the library code it checks:
Abel-Jacobi through a refinement at the support (the library reads
per-graph tables), Abel-Jacobi along an explicitly given spanning tree,
lattice membership by column echelon reduction redone on every call
(the library divides by the integer Gram inverse), canonical
representatives by a Fraction solve (the library solves in integers),
principal functions by a Fraction Laplacian solve (the library reads the
slope field off the same integer division), the homology action and Prym
membership in Fractions on the pulled-back and pushed-forward Divisors (the
library works in integers through the pullback matrix), distance fields and
theta characteristics by Dijkstra and slope tests in Fractions on the edge
lengths (the library works in its numbered cut's integer metric), the
Gram determinant by Kirchhoff's weighted matrix-tree theorem, double
covers assembled one at a time from the target's Fraction lengths (the
library shares one frame per dilation cycle and derives each source's
integer metric from the target's), and the pullback kernel by testing
every one of the 2^g pulled-back torsion classes (the library decides the
g basis cycles and adds their labels), and the unit subdivision and
q-reduction on a refined MetricGraph with string ids (the library numbers
the lattice points and fires chips on integer lists).  The oracles refine
through StringIdRefinement, a MetricGraph with generated string ids (the
library's cut numbers its vertices).  The incidence is rebuilt from the
edge list by scanning it once per vertex, and what no library caller needs
lives here: the sum of two PL functions on the cut at both sets of
breakpoints, Jacobian addition, the Gram matrix in Fractions, the
isomorphism test of two covers and the dimension of the Prym.
"""

import heapq
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from tropcover import (
    CoverError,
    CycleSpace,
    DegreeError,
    Divisor,
    DoubleCover,
    MetricGraph,
    PLFunction,
    Point,
    PointError,
    PrymError,
    SlopeError,
    abel_jacobi,
    canonical,
    cut_at,
    is_principal,
    linalg,
    period_lattice,
    pullback,
    pushforward,
)
from tropcover.covers import cover_class, cover_frame
from tropcover.graphs import _fresh
from tropcover.jacobian import scaled_abel_jacobi
from tropcover.theta import two_torsion_divisors


class StringIdRefinement:
    """A model refinement as a MetricGraph with string ids, the route the
    library took before it numbered its cuts: new vertices at prescribed
    edge-interior points.

    Each refined edge covers an interval [a, b] of a base edge, oriented the
    same way.  Vertices of the base survive with their ids and genus.  A new
    vertex is named "e@t" and the k-th piece of a cut edge "e#k", primed
    when the base already uses the name; `origin` maps each new vertex to
    its base point and `seg` each refined edge to its interval, so ids are
    never parsed.
    """

    def __init__(self, base, points):
        by_edge = {}
        for p in points:
            p = base.check_point(p)
            if not p.is_vertex:
                by_edge.setdefault(p.id, {})[p.offset] = p
        vertex_ids, edge_ids = set(base.vertex_ids), set(base.edge_ids)
        vertices = [(v, base.genus_of(v)) for v in base.vertex_ids]
        edges = []
        origin = {}  # new vertex id -> base point
        seg = {}  # refined eid -> (base eid, a, b)
        pieces = {}  # base eid -> list of refined eids in offset order
        for eid in base.edge_ids:
            tail, head = base.ends(eid)
            ell = base.length(eid)
            cuts = by_edge.get(eid)
            if not cuts:
                edges.append((eid, tail, head, ell))
                seg[eid] = (eid, Fraction(0), ell)
                pieces[eid] = [eid]
                continue
            stops = [Fraction(0)]
            names = [tail]
            for t in sorted(cuts):
                vid = _fresh("%s@%s" % (eid, t), vertex_ids)
                vertices.append((vid, 0))
                origin[vid] = cuts[t]
                stops.append(t)
                names.append(vid)
            stops.append(ell)
            names.append(head)
            ids = []
            for k in range(len(stops) - 1):
                reid = _fresh("%s#%d" % (eid, k), edge_ids)
                edges.append((reid, names[k], names[k + 1], stops[k + 1] - stops[k]))
                seg[reid] = (eid, stops[k], stops[k + 1])
                ids.append(reid)
            pieces[eid] = ids
        self.base = base
        self.graph = MetricGraph(vertices, edges)
        self.origin = origin
        self.seg = seg
        self.pieces = pieces

    def to_base(self, p):
        """Map a point of the refined model back to the base model."""
        if p.is_vertex:
            if p.id in self.origin:
                return self.origin[p.id]
            return self.base.check_point(Point.at_vertex(p.id))
        beid, a, _ = self.seg[p.id]
        return self.base.point(beid, a + p.offset)

    def to_refined_point(self, p):
        """Map a base point into the refined model."""
        p = self.base.check_point(p)
        if p.is_vertex:
            return p
        for reid in self.pieces[p.id]:
            _, a, b = self.seg[reid]
            if a <= p.offset <= b:
                return self.graph.point(reid, p.offset - a)
        raise PointError("point %r not covered by refinement" % (p,))

    def base_values(self, values):
        """{base point: value} of {refined vertex id: value}."""
        return {self.to_base(Point.at_vertex(v)): x for v, x in values.items()}


def refined_abel_jacobi(lat, D):
    """Abel-Jacobi coordinates from the refinement of the graph at supp(D).

    Each support point becomes a vertex; the chain runs from the root of
    each component along the refined graph's own spanning forest, and its
    pieces are paired with the lattice's basis cycles as segments of base
    edges.  The result agrees with abel_jacobi modulo the lattice, not
    necessarily as vectors.
    """
    ref = StringIdRefinement(D.graph, D.support())
    root_chain = _root_chains(ref.graph, CycleSpace(ref.graph).forest)
    chain = {}  # refined edge id -> coefficient
    for p, a in D.items():
        for e, c in root_chain[ref.to_refined_point(p).id].items():
            chain[e] = chain.get(e, 0) + a * c
    out = [Fraction(0)] * lat.rank
    for reid, c in chain.items():
        beid, a, b = ref.seg[reid]
        for j, cyc in enumerate(lat.basis):
            out[j] += (b - a) * c * cyc.get(beid, 0)
    return out


def tree_abel_jacobi(graph, D, tree):
    """Coordinates of a degree-0 divisor along the spanning tree `tree`.

    The length-weighted pairing of the chain sum a_p path(p) with the
    fundamental cycle of each non-tree edge (run tail to head), where
    path(p) is the tree path from the root to p, and for a point at offset
    t on an edge e the tree path to e's tail plus the segment [0, t] of e.
    """
    root_chain = _root_chains(graph, tree)
    walked = {}  # edge id -> signed length walked along it
    for p, a in D.items():
        if p.is_vertex:
            start = p.id
        else:
            start = graph.ends(p.id)[0]
            walked[p.id] = walked.get(p.id, 0) + a * p.offset
        for e, c in root_chain[start].items():
            walked[e] = walked.get(e, 0) + a * c * graph.length(e)
    coords = []
    for e in graph.edge_ids:
        if e in tree:
            continue
        t, h = graph.ends(e)
        cycle = {e: 1}
        for f, c in root_chain[t].items():
            cycle[f] = cycle.get(f, 0) + c
        for f, c in root_chain[h].items():
            cycle[f] = cycle.get(f, 0) - c
        coords.append(sum((c * walked.get(f, 0) for f, c in cycle.items()), Fraction(0)))
    return coords


def _root_chains(graph, tree):
    """Each vertex mapped to its path from its component's root in the
    spanning forest `tree`, as {edge id: +1 along the edge, -1 against}."""
    adj = {v: [] for v in graph.vertex_ids}
    for e in tree:
        t, h = graph.ends(e)
        adj[t].append((e, h, 1))
        adj[h].append((e, t, -1))
    root_chain = {}
    for root in graph.vertex_ids:
        if root in root_chain:
            continue
        root_chain[root] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            for e, w, sign in adj[v]:
                if w not in root_chain:
                    root_chain[w] = dict(root_chain[v])
                    root_chain[w][e] = sign
                    stack.append(w)
    return root_chain


class RefinedUnitSubdivision:
    """The unit subdivision as a refined MetricGraph: every edge cut at each
    multiple of 1/scale, one named vertex and one Point per lattice point,
    the route the library took before it numbered the lattice points.

    scale is the lcm of the denominators of the edge lengths and of the
    offsets of the prescribed points, so all of those become vertices.
    """

    def __init__(self, graph, points=()):
        graph_scale, length = graph.integer_metric()
        denoms = []
        for p in points:
            p = graph.check_point(p)
            if not p.is_vertex:
                denoms.append(p.offset.denominator)
        self.scale = lcm(graph_scale, *denoms)
        step = Fraction(1, self.scale)
        up = self.scale // graph_scale
        cuts = []
        for eid in graph.edge_ids:
            for k in range(1, length[eid] * up):
                cuts.append(graph.point(eid, k * step))
        self.refinement = StringIdRefinement(graph, cuts)
        self.graph = graph

    def vertex_of(self, p):
        rp = self.refinement.to_refined_point(p)
        if not rp.is_vertex:
            raise PointError("point %r is not a lattice point" % (p,))
        return rp.id

    def to_divisor(self, chips):
        return Divisor(
            self.graph,
            [
                (self.refinement.to_base(Point.at_vertex(v)), a)
                for v, a in chips.items()
                if a
            ],
        )

    def neighbors(self):
        """v -> {u: multiplicity}; loops are dropped (they never move chips)."""
        g = self.refinement.graph
        nbr = {v: {} for v in g.vertex_ids}
        for eid in g.edge_ids:
            t, h = g.ends(eid)
            if t == h:
                continue
            nbr[t][h] = nbr[t].get(h, 0) + 1
            nbr[h][t] = nbr[h].get(t, 0) + 1
        return nbr


def _refined_fire_set(chips, nbr, fire):
    for v in fire:
        for u, m in nbr[v].items():
            if u not in fire:
                chips[v] -= m
                chips[u] += m


def refined_reduce_at(D, q):
    """The q-reduced representative of D by firing on the refined unit
    subdivision with string ids: prefix sets of a breadth-first order whose
    neighbours are visited in id order, then Dhar's burning algorithm."""
    graph = D.graph
    q = graph.check_point(q)
    sub = RefinedUnitSubdivision(graph, list(D.support()) + [q])
    nbr = sub.neighbors()
    chips = {v: 0 for v in sub.refinement.graph.vertex_ids}
    for p, a in D.items():
        chips[sub.vertex_of(p)] += a
    qv = sub.vertex_of(q)
    order = [qv]
    seen = {qv}
    for v in order:  # the order grows while it is read
        for u in sorted(nbr[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    if len(order) != len(chips):
        raise PointError("graph is disconnected; reduce_at needs a connected host")
    for j in range(len(order) - 1, 0, -1):
        prefix = set(order[:j])
        target = order[j]
        while chips[target] < 0:
            _refined_fire_set(chips, nbr, prefix)
    while True:
        burnt = {qv}
        hot = [qv]
        exposure = {v: 0 for v in chips}
        while hot:
            v = hot.pop()
            for u, m in nbr[v].items():
                if u in burnt:
                    continue
                exposure[u] += m
                if exposure[u] > chips[u]:
                    burnt.add(u)
                    hot.append(u)
        if len(burnt) == len(chips):
            break
        _refined_fire_set(chips, nbr, set(chips) - burnt)
    return sub.to_divisor(chips)


def laplacian_columns(graph, D):
    """(columns of the unit-subdivision Laplacian, chip vector of D), read
    off the refined unit subdivision."""
    sub = RefinedUnitSubdivision(graph, list(D.support()))
    nbr = sub.neighbors()
    verts = sub.refinement.graph.vertex_ids
    idx = {v: i for i, v in enumerate(verts)}
    chips = [0] * len(verts)
    for p, a in D.items():
        chips[idx[sub.vertex_of(p)]] += a
    cols = []
    for v in verts:
        col = [0] * len(verts)
        col[idx[v]] = sum(nbr[v].values())
        for u, m in nbr[v].items():
            col[idx[u]] = -m
        cols.append(col)
    return cols, chips


def echelon_in_lattice(gens, v):
    """Whether v is an integer combination of the rational vectors gens.

    Scales generators and v together to integers, reduces the generators to
    column echelon form by extended-gcd steps, then substitutes forward,
    requiring divisibility at every pivot.
    """
    dim = len(v)
    if not gens:
        return all(Fraction(x) == 0 for x in v)
    rows = [list(g) for g in gens] + [list(v)]
    denom = 1
    for row in rows:
        for x in row:
            d = Fraction(x).denominator
            denom = denom * d // gcd(denom, d)
    scaled = [[int(Fraction(x) * denom) for x in row] for row in rows]
    cols = scaled[:-1]
    b = scaled[-1]
    used = []
    active = list(range(len(cols)))
    for i in range(dim):
        live = [c for c in active if cols[c][i] != 0]
        while len(live) > 1:
            c1, c2 = live[0], live[1]
            a, bb = cols[c1][i], cols[c2][i]
            x, y, g = _xgcd(a, bb)
            new1 = [x * cols[c1][k] + y * cols[c2][k] for k in range(dim)]
            new2 = [(-bb // g) * cols[c1][k] + (a // g) * cols[c2][k] for k in range(dim)]
            cols[c1], cols[c2] = new1, new2
            live = [c for c in active if cols[c][i] != 0]
        if live:
            used.append((i, live[0]))
            active.remove(live[0])
    for i, c in used:
        if b[i] % cols[c][i]:
            return False
        q = b[i] // cols[c][i]
        for k in range(dim):
            b[k] -= q * cols[c][k]
    return all(x == 0 for x in b)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def laplacian_principal_function(D):
    """{point: value} of a PL function f with div(f) = D at the vertices of
    the model refined at supp(D), or None: the length-weighted Laplacian
    solved in Fractions there, each component's first base vertex pinned to
    0, and accepted when its slopes are integers and its divisor is D."""
    if any(d != 0 for d in D.component_degrees().values()):
        return None
    ref = StringIdRefinement(D.graph, list(D.support()))
    g = ref.graph
    want = {v: 0 for v in g.vertex_ids}
    for p, a in D.items():
        want[ref.to_refined_point(p).id] = a
    values = {}
    for comp in g.components():
        root = min(v for v in comp if v in D.graph.vertex_ids)
        comp = [root] + [v for v in comp if v != root]
        idx = {v: i for i, v in enumerate(comp)}
        n = len(comp)
        lap = [[Fraction(0)] * n for _ in range(n)]
        for eid in g.edge_ids:
            t, h = g.ends(eid)
            if t not in idx or t == h:
                continue
            w = 1 / g.length(eid)
            lap[idx[t]][idx[t]] += w
            lap[idx[h]][idx[h]] += w
            lap[idx[t]][idx[h]] -= w
            lap[idx[h]][idx[t]] -= w
        # ord_v(f) = (L f)(v) under the incoming-slope convention
        values[root] = Fraction(0)
        if n > 1:
            sol = linalg.solve([row[1:] for row in lap[1:]], [Fraction(want[v]) for v in comp[1:]])
            for v in comp[1:]:
                values[v] = sol[idx[v] - 1]
    ords = {v: 0 for v in g.vertex_ids}
    for eid in g.edge_ids:
        t, h = g.ends(eid)
        slope = (values[h] - values[t]) / g.length(eid)
        if slope.denominator != 1:
            return None
        ords[h] += slope
        ords[t] -= slope
    got = Divisor(D.graph, [(ref.to_base(Point.at_vertex(v)), int(a)) for v, a in ords.items()])
    return ref.base_values(values) if got == D else None


def fraction_det(M):
    """Determinant by Fraction Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(len(A)):
        piv = next((i for i in range(col, len(A)) if A[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        p = A[col][col]
        det *= p
        for i in range(col + 1, len(A)):
            f = A[i][col] / p
            if f:
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    return det


def kirchhoff_tree_sum(graph):
    """Sum over the spanning trees T of a connected graph of the product of
    the lengths of the edges off T (the weighted matrix-tree theorem's
    value of det Gram)."""
    edges = graph.edge_ids
    n = len(graph.vertex_ids)
    total = Fraction(0)
    for tree in combinations(edges, n - 1):
        root = {v: v for v in graph.vertex_ids}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        acyclic = True
        for e in tree:
            a, b = (find(v) for v in graph.ends(e))
            if a == b:
                acyclic = False
                break
            root[a] = b
        if acyclic:
            off = Fraction(1)
            for e in set(edges) - set(tree):
                off *= graph.length(e)
            total += off
    return total


def solve_canonical(lat, v):
    """canonical() through a Fraction Gauss-Jordan solve against the Gram
    matrix: the representative with Gram^-1 v in [0,1)^g."""
    if lat.rank == 0:
        return ()
    x = linalg.solve(gram(lat), list(v))
    frac = [xi - (xi.numerator // xi.denominator) for xi in x]
    return tuple(mat_vec(gram(lat), frac))


def mat_vec(M, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in M]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def integer_row(row):
    """The row scaled by the lcm of its denominators, as ints."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def fraction_left_nullspace(M):
    """Basis rows y with y M = 0, from the Fraction rref of the transpose."""
    if not M:
        return []
    n = len(M)
    R, pivots = linalg.rref(linalg.transpose(M))
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        y = [Fraction(0)] * n
        y[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            y[pc] = -R[r][j]
        basis.append(y)
    return basis


class FractionHomologyAction:
    """The homology action built in Fractions: the involution matrix, the
    push matrix, the null space of Id - J by rref, and the Prym lattice over
    Fraction generators."""

    def __init__(self, cover, eps=1):
        self.sharp = cover.source_sharp(eps)
        self.lattice = lat = period_lattice(self.sharp)
        nontree = lat.cycles.nontree
        self.matrix = []
        for cyc in lat.basis:
            image = {}
            for eid, c in cyc.items():
                if eid not in cover.edge_map:  # a virtual loop, reversed
                    ie, sign = eid, -1
                elif cover.edge_map[eid][1] == 2:  # dilated, fixed
                    ie, sign = eid, 1
                else:
                    ie, sign = cover.involution_e[eid], 1
                image[ie] = image.get(ie, 0) + sign * c
            self.matrix.append([Fraction(image.get(nt, 0)) for nt in nontree])
        self.push_matrix = []
        for tcyc in period_lattice(cover.target).basis:
            lifted = {
                se: d * tcyc[te] for se, (te, d) in cover.edge_map.items() if te in tcyc
            }
            self.push_matrix.append([Fraction(lifted.get(nt, 0)) for nt in nontree])
        g = len(self.matrix)
        diff = [
            [Fraction(int(i == j)) - x for j, x in enumerate(row)]
            for i, row in enumerate(self.matrix)
        ]
        self.null = [integer_row(y) for y in fraction_left_nullspace(diff)]
        proj = [mat_vec(gram(lat), row) for row in self.null]
        self.gens = [[row[j] for row in proj] for j in range(g)]
        self.prym_lattice = linalg.IntegerLattice(self.gens, len(self.null))


def divisor_prym_contains(cover, D, eps=1):
    """Prym membership the Divisor way: the pushforward Divisor must be
    principal, then the Fraction coordinates of D are projected onto the
    Fraction null space and tested against the projected lattice."""
    sharp = cover.source_sharp(eps)
    if not D.graph.same_model(sharp):
        raise CoverError("divisor does not live on the virtualized source")
    if D.degree() != 0:
        raise DegreeError("prym membership needs a degree-0 divisor")
    if not is_principal(pushforward(cover, D, eps)):
        raise PrymError("the pushforward is not principal")
    if not sharp.is_connected():
        return all(d % 2 == 0 for d in D.component_degrees().values())
    act = FractionHomologyAction(cover, eps)
    if not act.null:
        return True
    v = abel_jacobi(act.lattice, D)
    proj = [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in act.null]
    return act.prym_lattice.contains(proj)


def fraction_distance_field(graph, source):
    """(sorted ridge base points, refinement, values at its vertices) of the
    distance to a point or to a nonempty even subgraph, in Fractions on the
    edge lengths: Dijkstra on the model refined at the source, a ridge
    where the two descent directions meet inside a segment, Dijkstra again
    on the model refined at the ridges too, and the slope check."""
    if isinstance(source, Point):
        seed_points, cycle = [graph.check_point(source)], frozenset()
    else:
        seed_points, cycle = [], frozenset(source)

    def zero_edges(ref):
        return {reid for eid in cycle for reid in ref.pieces[eid]}

    def dijkstra(ref):
        g = ref.graph
        if cycle:
            seeds = {v for reid in zero_edges(ref) for v in g.ends(reid)}
        else:
            seeds = {ref.to_refined_point(seed_points[0]).id}
        adj = g.incidence()
        dist = {}
        heap = [(Fraction(0), v) for v in sorted(seeds)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for eid, end in adj[v]:
                w = g.other_end(eid, end)
                if w not in dist:
                    heapq.heappush(heap, (d + g.length(eid), w))
        return dist

    first = StringIdRefinement(graph, seed_points)
    dist = dijkstra(first)
    zero = zero_edges(first)
    ridges = []
    for reid in first.graph.edge_ids:
        if reid in zero:
            continue
        t, h = first.graph.ends(reid)
        ell = first.graph.length(reid)
        tt = (ell + dist[h] - dist[t]) / 2
        if 0 < tt < ell:
            beid, a, _ = first.seg[reid]
            ridges.append(graph.point(beid, a + tt))
    ref = StringIdRefinement(graph, seed_points + ridges)
    values = dijkstra(ref)
    zero = zero_edges(ref)
    for reid in ref.graph.edge_ids:
        t, h = ref.graph.ends(reid)
        slope = (values[h] - values[t]) / ref.graph.length(reid)
        if abs(slope) != (0 if reid in zero else 1):
            raise SlopeError("slope %s on %r" % (slope, reid))
    return tuple(sorted(ridges)), ref, values


def fraction_theta_divisor(graph, cycle=frozenset(), p=None):
    """The theta characteristic of an even subgraph (or of the basepoint p,
    by default the first vertex, for the empty one) from
    fraction_distance_field: an end comes in where the distance drops by
    the segment's length toward its far end, and half the source's ends
    come in."""
    cycle = frozenset(cycle)
    if cycle:
        source = cycle
    else:
        source = p if p is not None else Point.at_vertex(graph.vertex_ids[0])
    _, ref, values = fraction_distance_field(graph, source)
    g = ref.graph
    adj = g.incidence()
    coeffs = []
    for v in g.vertex_ids:
        indeg = cyclic = 0
        for reid, end in adj[v]:
            if ref.seg[reid][0] in cycle:
                cyclic += 1
            elif values[v] == values[g.other_end(reid, end)] + g.length(reid):
                indeg += 1
        indeg += cyclic // 2
        if indeg != 1:
            coeffs.append((ref.to_base(Point.at_vertex(v)), indeg - 1))
    return Divisor(graph, coeffs)


def build_cover(graph, cycle, bits):
    """The cover dilated along cycle with sheet-swap bits, built from
    scratch: every vertex, map and lifted length is derived again, dilated
    lifts are halved in Fractions, and the frame (edge involution,
    dilation set, fibers) is derived from the maps, as for a parsed cover."""
    adj = graph.incidence()
    on_deg = {
        v: sum(1 for eid, _ in adj[v] if eid in cycle)
        for v in graph.vertex_ids
    }
    vertices = []
    vmap = {}
    inv_v = {}
    lift = {}  # target vertex -> its lift on sheets 0 and 1
    for v in graph.vertex_ids:
        if on_deg[v]:
            dv = "%s~" % v
            vertices.append((dv, on_deg[v] // 2 - 1))
            vmap[dv] = v
            inv_v[dv] = dv
            lift[v] = (dv, dv)
        else:
            v0, v1 = lift[v] = ("%s^0" % v, "%s^1" % v)
            vertices += [(v0, 0), (v1, 0)]
            vmap[v0] = vmap[v1] = v
            inv_v[v0], inv_v[v1] = v1, v0
    edges = []
    emap = {}
    for eid in graph.edge_ids:
        t, h = graph.ends(eid)
        ell = graph.length(eid)
        if eid in cycle:
            de = "%s~" % eid
            edges.append((de, "%s~" % t, "%s~" % h, ell / 2))
            emap[de] = (eid, 2)
        else:
            b = bits.get(eid, 0)
            for s in (0, 1):
                se = "%s^%d" % (eid, s)
                edges.append((se, lift[t][s], lift[h][s ^ b], ell))
                emap[se] = (eid, 1)
    source = MetricGraph(vertices, edges)
    return DoubleCover(cover_frame(graph, vmap, emap, inv_v), source, dict(bits))


def exhaustive_pullback_kernel(cover, eps=1):
    """Even subgraphs c with phi^* D_c principal, from all 2^g torsion
    divisors: each one pulled back as a Divisor on the virtualized source
    and its coordinates tested against the source's period lattice."""
    lat = period_lattice(cover.source_sharp(eps))
    evens, torsion = two_torsion_divisors(cover.target)
    return [
        c
        for c, D in zip(evens, torsion)
        if lat.contains(*scaled_abel_jacobi(lat, pullback(cover, D, eps)))
    ]


def incidence(graph):
    """{vertex id: its (edge id, end) pairs by edge id}, scanning every
    edge for each vertex: a loop at v puts both of its ends at v."""
    return {
        v: tuple(
            (eid, end)
            for eid in graph.edge_ids
            for end, w in enumerate(graph.ends(eid))
            if w == v
        )
        for v in graph.vertex_ids
    }


def pl_combine(f, g, sign=1):
    """f + sign * g on the cut at the breakpoints of both."""
    if not f.graph.same_model(g.graph):
        raise PointError("functions live on different graphs")
    cut = cut_at(f.graph, f.refinement.points + g.refinement.points)
    return PLFunction(f.graph, cut, [f.value(p) + sign * g.value(p) for p in cut.points])


def add_points(lat, v, w):
    """The canonical representative of v + w in the Jacobian."""
    return canonical(lat, [a + b for a, b in zip(v, w)])


def gram(lat):
    """The Gram matrix in Fractions: the library reads scaled_gram."""
    return [[Fraction(x, lat.scale) for x in row] for row in lat.scaled_gram]


def covers_isomorphic(c1, c2):
    """Isomorphism over a common target, commuting with the covering maps."""
    if not c1.target.same_model(c2.target):
        return False
    return cover_class(c1) == cover_class(c2)


def fixed_complement_rank(act):
    """rank(Id - involution) of a HomologyAction, the dimension of the Prym."""
    return len(act.matrix) - len(act.null)
