"""The table-driven Abel-Jacobi map, the integer lattices, the integer
Prym membership and the chip-firing on the numbered unit subdivision
against the independent implementations in oracles.py, on the acceptance
instances and on random graphs and covers."""

import random
from fractions import Fraction

import pytest

from tropcover import (
    CycleSpace,
    Divisor,
    MetricGraph,
    Point,
    PrymError,
    abel_jacobi,
    canonical,
    covers_with_dilation,
    distance_field,
    divisor_of,
    enumerate_theta,
    free_covers,
    homology_action,
    involution_divisor,
    is_principal,
    lattice_contains,
    linalg,
    period_lattice,
    principal_function,
    prym_contains,
    pullback,
    pullback_kernel,
    pushforward,
    reduce_at,
    theta_characteristic,
    torsion_points,
    virtualize,
)
from tropcover.divisors import UnitSubdivision, laplacian_image_contains
from tropcover.jacobian import scaled_abel_jacobi
from tropcover.theta import two_torsion_divisors
from conftest import build_k4, random_divisor, random_graph
from oracles import (
    FractionHomologyAction,
    divisor_prym_contains,
    echelon_in_lattice,
    exhaustive_pullback_kernel,
    fraction_det,
    fraction_distance_field,
    fraction_theta_divisor,
    gram,
    kirchhoff_tree_sum,
    laplacian_columns,
    laplacian_principal_function,
    mat_mul,
    mat_vec,
    refined_abel_jacobi,
    refined_reduce_at,
    solve_canonical,
    tree_abel_jacobi,
)


def fundamental_tree(lat):
    return lat.cycles.forest


def test_abel_jacobi_on_the_criterion_2_graphs():
    # the graphs and two-torsion divisors of acceptance criterion 2, drawn
    # from the same stream
    rng = random.Random(2024)
    edge_supported = 0
    for _ in range(200):
        g = random_graph(rng, max_genus=4)
        lat = period_lattice(g)
        tree = fundamental_tree(lat)
        chars = enumerate_theta(g)
        for t in chars:
            D = t.divisor - chars[0].divisor
            v = abel_jacobi(lat, D)
            assert v == tree_abel_jacobi(g, D, tree)
            assert canonical(lat, v) == canonical(lat, refined_abel_jacobi(lat, D))
            assert canonical(lat, v) == solve_canonical(lat, v)
            edge_supported += any(not p.is_vertex for p in D.support())
        for _ in range(5):  # criterion 2's basepoint draws
            rng.choice(g.edge_ids)
            rng.randint(0, 3)
    assert edge_supported > 200


def test_abel_jacobi_and_lattices_on_the_criterion_3_instances():
    rng = random.Random(3033)
    for _ in range(500):
        g = random_graph(rng, max_genus=4, unit_lengths=True)
        D = random_divisor(rng, g, degree=0)
        lat = period_lattice(g)
        v = abel_jacobi(lat, D)
        assert canonical(lat, v) == canonical(lat, refined_abel_jacobi(lat, D))
        cols, chips = laplacian_columns(g, D)
        principal = linalg.in_lattice(cols, chips)
        assert principal == echelon_in_lattice(cols, chips)
        assert principal == laplacian_image_contains(g, D) == is_principal(D)


def _reduce_instance(rng, max_points=16):
    """A random_graph (fractional lengths, loops, parallel edges) with genus
    at some vertices, a divisor of degree 0-2 on vertices and on points
    inside edges, and a q at a vertex or inside an edge.  Phase 1 of the
    reduction fires one unit step at a time, exponential in the size of
    the model, so an instance whose unit subdivision has more than
    max_points vertices is drawn again."""
    while True:
        g = random_graph(rng, max_genus=3)
        g = MetricGraph(
            [(v, rng.choice((0, 0, 1))) for v in g.vertex_ids],
            [(e, *g.ends(e), g.length(e)) for e in g.edge_ids],
        )

        def point():
            if rng.random() < 0.5:
                return Point.at_vertex(rng.choice(g.vertex_ids))
            e = rng.choice(g.edge_ids)
            d = rng.randint(2, 3)
            return g.point(e, g.length(e) * Fraction(rng.randint(1, d - 1), d))

        D = Divisor(g, [(point(), rng.randint(-2, 2)) for _ in range(3)])
        D = D + Divisor(g, [(point(), rng.randint(0, 2) - D.degree())])
        q = point()
        if len(UnitSubdivision(g, [*D.support(), q]).nbr) <= max_points:
            return g, D, q


def test_reduce_at_against_the_refined_model():
    # the numbered integer model gives the q-reduced divisor of the refined
    # MetricGraph route (it is unique, whatever the firing order), and the
    # same Laplacian image
    rng = random.Random(6151)
    seen = dict.fromkeys(
        ("loop", "parallel", "genus", "q inside", "D inside", "principal", "not principal"), 0
    )
    for _ in range(250):
        g, D, q = _reduce_instance(rng)
        assert reduce_at(D, q) == refined_reduce_at(D, q)
        if D.degree() == 0:
            cols, chips = laplacian_columns(g, D)
            principal = laplacian_image_contains(g, D)
            assert principal == linalg.in_lattice(cols, chips)
            seen["principal" if principal else "not principal"] += 1
        ends = [g.ends(e) for e in g.edge_ids]
        seen["loop"] += any(t == h for t, h in ends)
        seen["parallel"] += len(set(map(frozenset, ends))) < len(ends)
        seen["genus"] += g.is_augmented()
        seen["q inside"] += not q.is_vertex
        seen["D inside"] += any(not p.is_vertex for p in D.support())
    assert min(seen.values()) >= 20, seen


def test_integer_lattice_against_solve_integrality():
    rng = random.Random(4049)
    kinds = {"point": 0, "half": 0, "fraction": 0}
    inside = 0
    for _ in range(60):
        g = random_graph(rng, max_genus=4, min_genus=1)
        lat = period_lattice(g)
        G = gram(lat)
        for kind in kinds:
            for _ in range(4):
                z = [rng.randint(-3, 3) for _ in range(lat.rank)]
                v = mat_vec(G, z)
                if kind == "half":
                    v = [x / 2 for x in v]
                elif kind == "fraction":
                    v = [x + Fraction(rng.randint(-6, 6), rng.randint(2, 7)) for x in v]
                want = all(x.denominator == 1 for x in linalg.solve(G, v))
                assert lattice_contains(lat, v) == want
                assert canonical(lat, v) == solve_canonical(lat, v)
                assert linalg.in_lattice([list(col) for col in zip(*G)], v) == want
                kinds[kind] += 1
                inside += want
        # the two-torsion classes Gram z / 2, in torsion_points' order
        halves = [
            [Fraction(mask >> j & 1, 2) for j in range(lat.rank)] for mask in range(2**lat.rank)
        ]
        want = [solve_canonical(lat, mat_vec(G, z)) for z in halves]
        assert torsion_points(lat, 2) == want
    assert 0 < inside < sum(kinds.values())


def test_integer_lattice_is_in_hermite_normal_form():
    # the Prym lattices of the free covers of a genus-3 graph: each pivot is
    # positive and bounds the entries of the earlier columns in its row
    rng = random.Random(5051)
    g = random_graph(rng, max_genus=3, min_genus=3, unit_lengths=True)
    for cover in free_covers(g):
        if not cover.source_sharp().is_connected():
            continue
        lat = homology_action(cover).prym_lattice
        for k, (i, p) in enumerate(lat.pivots):
            assert p[i] > 0 and not any(p[:i])
            for _, c in lat.pivots[:k]:
                assert 0 <= c[i] < p[i]


def edge_point(rng, graph):
    """A random point strictly inside a random edge."""
    e = rng.choice(graph.edge_ids)
    return graph.point(e, graph.length(e) * Fraction(rng.randint(1, 5), 6))


def random_edge_divisor(rng, graph, terms=3):
    """A random degree-0 divisor with edge-interior points in its support."""
    pts = [edge_point(rng, graph) for _ in range(terms)]
    D = Divisor(graph, [(p, rng.randint(-2, 2)) for p in pts])
    return D + Divisor(graph, [(edge_point(rng, graph), -D.degree())])


def covers_of(rng, g):
    """Every free cover, and every cover dilated along one random nonempty
    even subgraph."""
    out = list(free_covers(g))
    evens = [c for c in CycleSpace(g).even_subgraphs() if c]
    if evens:
        out += covers_with_dilation(g, rng.choice(evens))
    return out


def pulled_back_coordinates(act, target_lat, D):
    """Source coordinates of the pullback of D, through the pullback matrix."""
    x, den = scaled_abel_jacobi(target_lat, D)
    return [sum(a * b for a, b in zip(row, x)) for row in act.pull], den


def test_pullback_matrix_and_the_integer_norm_check():
    # genus 3 and 4 with fractional lengths; every cover against every
    # two-torsion column and two random divisors with edge-interior points.
    # The pullback matrix carries the target's coordinates to the class of
    # the pulled-back Divisor: the two chains share a boundary, so their
    # coordinates differ by a source lattice vector
    rng = random.Random(6067)
    principal = entries = 0
    for _ in range(4):
        g = random_graph(rng, max_genus=4, min_genus=3)
        target_lat = period_lattice(g)
        _, torsion = two_torsion_divisors(g)
        extra = [random_edge_divisor(rng, g) for _ in range(2)]
        for cover in covers_of(rng, g):
            act = homology_action(cover)
            for D in torsion + extra:
                up = pullback(cover, D)
                nums, den = pulled_back_coordinates(act, target_lat, D)
                want_nums, want_den = scaled_abel_jacobi(act.lattice, up)
                diff = [a * want_den - b * den for a, b in zip(nums, want_nums)]
                assert act.lattice.contains(diff, den * want_den)
                norm = act.norm_vanishes(nums, den)
                assert norm == is_principal(pushforward(cover, up))
                principal += norm
                entries += 1
    assert 0 < principal < entries


def check_prym_contains(cover, D):
    try:
        want = divisor_prym_contains(cover, D)
    except PrymError:
        with pytest.raises(PrymError):
            prym_contains(cover, D)
        return None
    assert prym_contains(cover, D) == want
    return want


def test_prym_contains_against_the_divisor_route(cube_cover):
    rng = random.Random(7079)
    outcomes = []
    covers = [cube_cover]
    while len(covers) < 16:
        g = random_graph(rng, max_genus=4, min_genus=2)
        evens = [c for c in CycleSpace(g).even_subgraphs() if c]
        covers += covers_with_dilation(g, rng.choice(evens))
        covers.append(rng.choice(free_covers(g)[1:]))
    for cover in covers:
        sharp = cover.source_sharp()
        for k in range(4):
            E = random_edge_divisor(rng, sharp)
            outcomes.append(check_prym_contains(cover, E))  # rarely in ker Nm
            # E - iota(E) pushes forward to 0; for a free cover it leaves the
            # Prym when E has odd degree
            E += Divisor(sharp, [(edge_point(rng, sharp), k % 2)])
            outcomes.append(check_prym_contains(cover, E - involution_divisor(cover, E)))
    assert {True, False, None} <= set(outcomes)


def test_homology_action_matches_the_fraction_construction(k4):
    rng = random.Random(8081)
    graphs = [k4] + [random_graph(rng, max_genus=4, min_genus=1) for _ in range(6)]
    for g in graphs:
        for cover in covers_of(rng, g):
            act, old = homology_action(cover), FractionHomologyAction(cover)
            assert act.matrix == old.matrix and act.push_matrix == old.push_matrix
            assert act.null == old.null
            assert act.prym_lattice.den == old.prym_lattice.den
            assert act.prym_lattice.pivots == old.prym_lattice.pivots


def test_pullback_kernel_against_principal_pullbacks():
    # every free and dilated cover of a genus-3 and a genus-4 graph with
    # fractional lengths, at the virtual-loop lengths of criterion 9
    rng = random.Random(9091)
    sizes = set()
    graphs = []
    while {g.genus() for g in graphs} != {3, 4}:
        g = random_graph(rng, max_genus=4, min_genus=3)
        if g.genus() not in {h.genus() for h in graphs}:
            graphs.append(g)
    for g in graphs:
        evens, torsion = two_torsion_divisors(g)
        covers = free_covers(g) + [
            c for cyc in evens if cyc for c in covers_with_dilation(g, cyc)
        ]
        for cover in covers:
            for eps in (1, Fraction(1, 2), 3):
                want = [
                    c for c, D in zip(evens, torsion) if is_principal(pullback(cover, D, eps))
                ]
                assert pullback_kernel(cover, eps) == want
                sizes.add(len(want))
    assert len(sizes) > 2


def test_pullback_kernel_against_the_exhaustive_route():
    # the labels of the g basis cycles decide the kernel that testing all
    # 2^g pulled-back torsion classes finds, on free and dilated covers
    rng = random.Random(6007)
    sizes = set()
    dilated = 0
    for _ in range(4):
        g = random_graph(rng, max_genus=4, min_genus=2)
        covers = free_covers(g) + [
            c for cyc in CycleSpace(g).even_subgraphs() if cyc for c in covers_with_dilation(g, cyc)
        ]
        for cover in covers:
            for eps in (1, Fraction(1, 3)):
                want = exhaustive_pullback_kernel(cover, eps)
                assert pullback_kernel(cover, eps) == want
                sizes.add(len(want))
            dilated += bool(cover.dilation)
    assert dilated and len(sizes) > 2


def test_trivial_cover_action_against_the_divisor_route():
    # the trivial cover's source is two copies of the target; its action
    # decides pulled-back classes as the parity route on Divisors does
    rng = random.Random(10103)
    outcomes = []
    for _ in range(6):
        g = random_graph(rng, max_genus=4, min_genus=2)
        trivial = free_covers(g)[0]
        assert not trivial.source_sharp().is_connected()
        act = homology_action(trivial)
        target_lat = period_lattice(g)
        _, torsion = two_torsion_divisors(g)
        for D in torsion + [random_edge_divisor(rng, g) for _ in range(4)]:
            up = pullback(trivial, D)
            nums, den = pulled_back_coordinates(act, target_lat, D)
            try:
                want = divisor_prym_contains(trivial, up)
            except PrymError:
                with pytest.raises(PrymError):
                    act.contains(nums, den)
                outcomes.append(None)
                continue
            assert act.contains(nums, den) == want
            assert prym_contains(trivial, up) == want
            outcomes.append(want)
    assert {True, None} <= set(outcomes)


def random_nonsingular(rng, n):
    """P L U with L lower triangular, U upper unitriangular, P a row
    permutation, and every diagonal entry of L nonzero."""

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    L = [[entry() if j < i else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        L[i][i] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    U = [[entry() if j > i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    M = mat_mul(L, U)
    rng.shuffle(M)
    return M


def test_solve_satisfies_the_system():
    rng = random.Random(11113)
    for n in range(1, 7):
        for _ in range(10):
            M = random_nonsingular(rng, n)
            x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            b = mat_vec(M, x0)
            x = linalg.solve(M, b)
            assert x == x0 and mat_vec(M, x) == b
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    for b in ([1, 2, 3], [1, 2, 0]):  # consistent and inconsistent
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.solve(singular, b)


def test_distance_fields_and_theta_against_the_fraction_route():
    # random genus-3-6 graphs with fractional lengths; sources at every
    # vertex, at edge-interior points whose offsets bring a denominator 7,
    # and along every nonempty even subgraph
    rng = random.Random(7417)
    ridges_seen = rescaled = looped = 0
    for _ in range(8):
        g = random_graph(rng, max_genus=6, min_genus=3)
        looped += any(len(set(g.ends(e))) == 1 for e in g.edge_ids)
        interior = [
            g.point(e, g.length(e) * Fraction(rng.randint(1, 6), 7))
            for e in rng.sample(g.edge_ids, 3)
        ]
        evens = CycleSpace(g).even_subgraphs()
        sources = [Point.at_vertex(v) for v in g.vertex_ids] + interior
        for source in sources + [c for c in evens if c]:
            field = distance_field(g, source)
            ridges, ref, values = fraction_distance_field(g, source)
            assert field.ridge_base_points == ridges
            # the same cut, and the same value at each of its vertices
            assert dict(zip(field.refinement.points, field.values)) == ref.base_values(values)
            ridges_seen += len(ridges)
            rescaled += ref.graph.integer_metric()[0] != g.integer_metric()[0]
        for t in enumerate_theta(g):
            assert t.divisor == fraction_theta_divisor(g, t.cycle)
        for p in interior:
            got = theta_characteristic(g, frozenset(), p).divisor
            assert got == fraction_theta_divisor(g, frozenset(), p)
    assert ridges_seen and rescaled and looped


def test_principal_function_against_the_laplacian_route():
    # the criterion-3 instances, then graphs with fractional lengths whose
    # theta characteristics bring edge-interior points: 2 (L_gamma - L_0) is
    # principal and L_gamma - L_0 for gamma nonempty is not; the difference
    # of two edge-interior points may be either
    cases = []
    rng = random.Random(3033)
    for _ in range(500):
        g = random_graph(rng, max_genus=4, unit_lengths=True)
        cases.append(random_divisor(rng, g, degree=0))
    rng = random.Random(9091)
    for _ in range(25):
        g = random_graph(rng, max_genus=5, min_genus=2)
        chars = enumerate_theta(g)
        for t in chars[1:]:
            D = t.divisor - chars[0].divisor
            cases += [D, 2 * D]
        for _ in range(4):
            p, q = (
                g.point(e, g.length(e) * Fraction(rng.randint(1, 4), 5))
                for e in rng.sample(g.edge_ids, 2)
            )
            cases.append(Divisor(g, [(p, 2), (q, -2)]))
        cases.append(Divisor(g, [(p, 1)]))  # degree 1: None on both routes
    # two components: each is pinned at its first vertex, and degree 0 in
    # total but not on each component gives None
    g = MetricGraph(
        ["a", "b", "c", "d"],
        [
            ("e", "a", "b", Fraction(1, 2)),
            ("f", "a", "b", 1),
            ("h", "c", "d", Fraction(2, 3)),
            ("k", "c", "d", 1),
            ("l", "d", "d", 3),
        ],
    )
    a, b, c, d = (Point.at_vertex(v) for v in "abcd")
    cases += [
        Divisor(g, [(a, 3), (b, -3)]),
        Divisor(g, [(g.point("e", Fraction(1, 4)), 3), (b, -3), (c, 5), (d, -5)]),
        Divisor(g, [(a, 1), (b, -1), (c, 2), (d, -2)]),
        Divisor(g, [(a, 1), (c, -1)]),
    ]
    found = {True: 0, False: 0}
    interior = 0
    for D in cases:
        f = principal_function(D)
        want = laplacian_principal_function(D)
        assert (f is None) == (want is None)
        if f is not None:
            # both pin each component's first base vertex to 0
            assert dict(zip(f.refinement.points, f.values)) == want
            assert divisor_of(f) == D
            interior += any(not p.is_vertex for p in D.support())
        found[f is not None] += 1
    assert found[True] > 500 and found[False] > 500 and interior > 300


def test_the_numbered_cut_against_the_string_id_refinement():
    # seeded graphs with fractional lengths, loops and vertex genus, then
    # one whose user ids look like those the string-id refinement makes:
    # its cuts at f@3, e@1 and l@1/2 take primed names there
    rng = random.Random(2113)
    cases = []
    for _ in range(12):
        g = random_graph(rng, max_genus=4, min_genus=2)
        g = MetricGraph(
            [(v, rng.choice((0, 0, 1))) for v in g.vertex_ids],
            [(e, *g.ends(e), g.length(e)) for e in g.edge_ids],
        )
        interior = [
            g.point(e, g.length(e) * Fraction(rng.randint(1, 4), 5))
            for e in rng.sample(g.edge_ids, min(3, len(g.edge_ids)))
        ]
        cases.append((g, interior))
    g = MetricGraph(
        ["A", "B", "f@3", "l@1/2"],
        [
            ("e", "A", "B", 2),
            ("e#0", "A", "B", 3),
            ("f", "A", "B", 4),
            ("l", "f@3", "f@3", 1),
            ("x", "B", "f@3", 1),
            ("y", "f@3", "l@1/2", Fraction(1, 2)),
        ],
    )
    cases.append((g, [Point.on_edge("f", 3), Point.on_edge("e", 1), Point.on_edge("l", Fraction(1, 2))]))
    seen = {"augmented": 0, "looped": 0, "ridges": 0, True: 0, False: 0}
    for g, interior in cases:
        seen["augmented"] += g.is_augmented()
        seen["looped"] += any(len(set(g.ends(e))) == 1 for e in g.edge_ids)
        for p in interior:
            field = distance_field(g, p)
            ridges, ref, values = fraction_distance_field(g, p)
            assert field.ridge_base_points == ridges
            assert dict(zip(field.refinement.points, field.values)) == ref.base_values(values)
            seen["ridges"] += len(ridges)
        # theta needs no vertex genus: it runs on the virtualization
        sharp = virtualize(g)
        chars = []
        for p in interior:
            t = theta_characteristic(sharp, frozenset(), p)
            assert t.divisor == fraction_theta_divisor(sharp, frozenset(), p)
            chars.append(t.divisor)
        p, q = interior[:2]
        divisors = [2 * (chars[0] - chars[1]), chars[0] - chars[1]]
        divisors += [Divisor(g, [(p, k), (q, -k)]) for k in (1, 2, 3)]
        for D in divisors:
            f = principal_function(D)
            want = laplacian_principal_function(D)
            assert (f is None) == (want is None)
            if f is not None:
                assert divisor_of(f) == D
                # both pin each component's first base vertex to 0
                assert dict(zip(f.refinement.points, f.values)) == want
            seen[f is not None] += 1
    assert all(seen.values()), seen


def test_gram_determinant_is_the_kirchhoff_tree_sum():
    # det(scaled_gram) = scale^g * sum over spanning trees T of the product
    # of the lengths off T; K4 has 16 spanning trees
    k4 = build_k4()
    assert kirchhoff_tree_sum(k4) == 16
    assert fraction_det(period_lattice(k4).scaled_gram) == 16
    rng = random.Random(6067)
    genera = set()
    looped = rescaled = 0
    for _ in range(40):
        g = random_graph(rng, max_genus=5, min_genus=2)
        lat = period_lattice(g)
        assert fraction_det(lat.scaled_gram) == lat.scale**lat.rank * kirchhoff_tree_sum(g)
        genera.add(lat.rank)
        looped += any(len(set(g.ends(e))) == 1 for e in g.edge_ids)
        rescaled += lat.scale > 1
    assert genera == {2, 3, 4, 5} and looped and rescaled
