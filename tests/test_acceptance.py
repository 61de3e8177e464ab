"""Acceptance gate: one test and one printed pass/fail line per criterion.

All arithmetic is exact; every comparison is equality.  The random
instances are seeded, so the whole suite is deterministic.
"""

import contextlib
import io
import os
import random
from fractions import Fraction

from tropcover import (
    CycleSpace,
    Divisor,
    MetricGraph,
    Point,
    abel_jacobi,
    canonical,
    canonical_divisor,
    covers_with_dilation,
    enumerate_theta,
    equivalent,
    free_covers,
    is_principal,
    kernel_component_count,
    pairing_table,
    period_lattice,
    prym_contains,
    pullback,
    pullback_kernel,
    reduce_at,
    theta_characteristic,
    torsion_points,
    two_torsion_divisor,
    verify_cover,
    weil_pairing,
)
from tropcover.cli import main
from tropcover.divisors import laplacian_image_contains
from conftest import build_k4, random_3regular, random_divisor, random_graph

HERE = os.path.dirname(__file__)
TRIANGLES = [
    (("BC", "BD", "CD"), "A"),
    (("AC", "AD", "CD"), "B"),
    (("AB", "AD", "BD"), "C"),
    (("AB", "AC", "BC"), "D"),
]
SQUARES = [
    (("AC", "AD", "BC", "BD"), ("AB", "CD")),
    (("AB", "AD", "BC", "CD"), ("AC", "BD")),
    (("AB", "AC", "BD", "CD"), ("AD", "BC")),
]


def report(num, ok, desc):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def mid(graph, eid):
    return graph.point(eid, graph.length(eid) / 2)


def rose():
    """Two unit loops on one vertex; its full dilation has a genus vertex."""
    return MetricGraph(["w"], [("l1", "w", "w", 1), ("l2", "w", "w", 1)])


def graph_zoo():
    """Small graphs exercised by the exhaustive cover criteria."""
    zoo = [build_k4(), rose()]
    zoo.append(
        MetricGraph(
            ["u", "v"],
            [("lu", "u", "u", 1), ("bridge", "u", "v", 1), ("lv", "v", "v", 1)],
        )
    )
    zoo.append(
        MetricGraph(
            ["u", "v"],
            [("e1", "u", "v", 1), ("e2", "u", "v", 1), ("e3", "u", "v", 1)],
        )
    )
    return zoo


def all_covers(graph):
    covers = list(free_covers(graph))
    for cycle in CycleSpace(graph).even_subgraphs():
        if cycle:
            covers.extend(covers_with_dilation(graph, cycle))
    return covers


def test_criterion_1_k4_theta_census():
    k4 = build_k4()
    p = Point.at_vertex("A")
    chars = enumerate_theta(k4, p)
    ok = len(chars) == 8
    ok = ok and sum(1 for t in chars if not t.effective) == 1

    by_cycle = {t.cycle: t.divisor for t in chars}
    L0 = by_cycle[frozenset()]
    want_L0 = Divisor(
        k4,
        [(p, -1), (mid(k4, "BC"), 1), (mid(k4, "BD"), 1), (mid(k4, "CD"), 1)],
    )
    ok = ok and L0 == want_L0 and reduce_at(L0, p) == reduce_at(want_L0, p)
    for tri, opp in TRIANGLES:
        got = by_cycle[frozenset(tri)]
        want = Divisor(k4, [(Point.at_vertex(opp), 2)])
        ok = ok and got == want and reduce_at(got, p) == reduce_at(want, p)
    for sq, chords in SQUARES:
        got = by_cycle[frozenset(sq)]
        want = Divisor(k4, [(mid(k4, chords[0]), 1), (mid(k4, chords[1]), 1)])
        ok = ok and got == want and reduce_at(got, p) == reduce_at(want, p)
    report(1, ok, "K4 theta census matches all 8 divisors exactly")


def test_criterion_2_theta_identities():
    rng = random.Random(2024)
    failures = 0
    for _ in range(200):
        g = random_graph(rng, max_genus=4)
        K = canonical_divisor(g)
        lat = period_lattice(g)
        cs = CycleSpace(g)
        L0 = theta_characteristic(g).divisor
        classes = []
        for cycle in cs.even_subgraphs():
            L = theta_characteristic(g, cycle).divisor
            if L.degree() != g.genus() - 1:
                failures += 1
            if not equivalent(2 * L, K):
                failures += 1
            v = abel_jacobi(lat, L - L0)
            classes.append(canonical(lat, v))
        # injective homomorphism onto the 2-torsion points
        if len(set(classes)) != 2 ** g.genus():
            failures += 1
        if set(classes) != set(torsion_points(lat, 2)) and g.genus() >= 1:
            failures += 1
        for _ in range(5):
            e = rng.choice(g.edge_ids)
            p = g.point(e, g.length(e) * Fraction(rng.randint(0, 3), 3))
            if not equivalent(theta_characteristic(g, p=p).divisor, L0):
                failures += 1
    report(2, failures == 0, "theta characteristic identities on 200 random graphs (g <= 4)")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(3033)
    agree = 0
    for _ in range(500):
        g = random_graph(rng, max_genus=4, unit_lengths=True)
        D = random_divisor(rng, g, degree=0)
        if is_principal(D) == laplacian_image_contains(g, D):
            agree += 1
    report(3, agree == 500, "principality agrees with chip-firing oracle 500/500")


def test_criterion_4_cover_counts():
    ok = True
    for g in graph_zoo():
        frees = free_covers(g)
        ok = ok and len(frees) == 2 ** g.genus()
        for c in frees:
            rep = verify_cover(c)
            ok = ok and rep.ok and rep.dilation == frozenset()
        for cycle in CycleSpace(g).even_subgraphs():
            if not cycle:
                continue
            keep = [e for e in g.edge_ids if e not in cycle]
            on = {v for e in cycle for v in g.ends(e)}
            comp_edges = [
                (e, g.ends(e)[0], g.ends(e)[1], g.length(e))
                for e in keep
                if g.ends(e)[0] not in on and g.ends(e)[1] not in on
            ]
            interior = MetricGraph(
                [v for v in g.vertex_ids if v not in on], comp_edges
            )
            h = interior.genus()
            covers = covers_with_dilation(g, cycle)
            ok = ok and len(covers) == 2**h
            for c in covers:
                rep = verify_cover(c)
                ok = ok and rep.ok and rep.dilation == cycle
    k4 = build_k4()
    for cycle in [frozenset(t) for t, _ in TRIANGLES] + [
        frozenset(s) for s, _ in SQUARES
    ]:
        ok = ok and len(covers_with_dilation(k4, cycle)) == 1
    report(4, ok, "free covers 2^g, dilated covers 2^h, K4 uniqueness")


def test_criterion_5_pullback_kernel():
    ok = True
    for g in graph_zoo():
        evens = CycleSpace(g).even_subgraphs()
        for cover in all_covers(g):
            expected = sorted(
                (c for c in evens if c <= cover.dilation), key=sorted
            )
            got = sorted(pullback_kernel(cover), key=sorted)
            ok = ok and got == expected
    # the two torsion pullbacks on the cube, both non-principal
    k4 = build_k4()
    cube = free_covers(k4)[7]
    sharp = cube.source_sharp()
    tri = frozenset(["BC", "BD", "CD"])
    up_tri = pullback(cube, two_torsion_divisor(k4, tri))
    want_tri = Divisor(
        sharp,
        [(Point.at_vertex("A^0"), 3), (Point.at_vertex("A^1"), 3)]
        + [(mid(sharp, "%s^%d" % (e, s)), -1) for e in tri for s in (0, 1)],
    )
    ok = ok and up_tri == want_tri and not is_principal(up_tri)
    sq = frozenset(["AC", "AD", "BC", "BD"])
    up_sq = pullback(cube, two_torsion_divisor(k4, sq))
    ok = ok and up_sq.degree() == 0 and not is_principal(up_sq)
    report(5, ok, "ker(pullback) = {cycles inside the dilation cycle} everywhere")


def test_criterion_6_component_dichotomy():
    ok = True
    for g in graph_zoo():
        for cover in all_covers(g):
            want = 2 if not cover.dilation else 1
            ok = ok and kernel_component_count(cover) == want
    report(6, ok, "kernel has 2 components exactly for free covers")


def test_criterion_7_weil_pairing():
    k4 = build_k4()
    cube = free_covers(k4)[7]
    ok = True
    for tri, _ in TRIANGLES:
        ok = ok and weil_pairing(cube, frozenset(tri)) == 1
    for sq, _ in SQUARES:
        ok = ok and weil_pairing(cube, frozenset(sq)) == 0
    ok = ok and weil_pairing(cube, frozenset()) == 0

    sharp = cube.source_sharp()
    m = lambda e: mid(sharp, e)
    fig6 = Divisor(
        sharp,
        [(m("BC^1"), 1), (m("AD^1"), 1), (m("AD^0"), -1), (m("BC^0"), -1)],
    )
    fig5 = Divisor(
        sharp,
        [
            (m("BD^0"), 1),
            (m("CD^0"), -1),
            (m("CD^1"), 1),
            (m("BD^1"), -1),
            (m("BC^1"), 1),
            (m("BC^0"), -1),
        ],
    )
    ok = ok and prym_contains(cube, fig6) and not prym_contains(cube, fig5)

    # additivity and cocycle oracle on K4 plus 50 random graphs
    rng = random.Random(7077)
    graphs = [k4] + [
        random_graph(rng, max_genus=2, min_genus=1, unit_lengths=True)
        for _ in range(50)
    ]
    for g in graphs:
        evens, table = pairing_table(g)
        index = {c: i for i, c in enumerate(evens)}
        for cover, row in zip(free_covers(g), table):
            for cycle, bit in zip(evens, row):
                if bit != sum(cover.bits.get(e, 0) for e in cycle) % 2:
                    ok = False
            for _ in range(4):
                a, b = rng.choice(evens), rng.choice(evens)
                if row[index[a ^ b]] != (row[index[a]] + row[index[b]]) % 2:
                    ok = False
    report(7, ok, "Weil pairing matches K4 reference table and cocycle oracle")


def test_criterion_8_three_regular_identity():
    rng = random.Random(8088)
    ok = True
    for _ in range(100):
        g = random_3regular(rng, rng.choice([4, 6]))
        genus = g.genus()
        for gamma in CycleSpace(g).even_subgraphs():
            keep = [
                (e, g.ends(e)[0], g.ends(e)[1], g.length(e))
                for e in g.edge_ids
                if e not in gamma
            ]
            complement = MetricGraph(list(g.vertex_ids), keep)
            m = len(complement.components())
            h = complement.genus()
            if len(gamma) != genus + m - h - 1:
                ok = False
    report(8, ok, "|E(cycle)| = g + m - h - 1 on 100 random 3-regular graphs")


def test_criterion_9_eps_independence():
    ok = True
    eps_values = [1, Fraction(1, 2), 3]
    for g in graph_zoo():
        for cycle in CycleSpace(g).even_subgraphs():
            if not cycle:
                continue
            for cover in covers_with_dilation(g, cycle):
                kernels = [
                    sorted(pullback_kernel(cover, eps), key=sorted)
                    for eps in eps_values
                ]
                counts = [kernel_component_count(cover, eps) for eps in eps_values]
                ok = ok and kernels[0] == kernels[1] == kernels[2]
                ok = ok and counts[0] == counts[1] == counts[2] == 1
    report(9, ok, "dilated-cover results identical for eps in {1, 1/2, 3}")


def test_criterion_10_cli_determinism():
    k4_path = os.path.join(HERE, "data", "k4.json")

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        assert code == 0
        return buf.getvalue()

    def golden(name):
        with open(os.path.join(HERE, "golden", name)) as fh:
            return fh.read()

    ok = True
    for argv, gname in [
        (("theta", k4_path), "k4_theta.jsonl"),
        (("pair", k4_path), "k4_pair.json"),
        (("cover", "free", k4_path), "k4_cover_free.jsonl"),
        (("cover", "free", k4_path, "--bits", "111"), "k4_cube.json"),
        (
            ("cover", "dilated", k4_path, "--cycle", "BC,BD,CD"),
            "k4_cover_dilated_triangle.json",
        ),
    ]:
        first, second = run(*argv), run(*argv)
        ok = ok and first == second == golden(gname)
    report(10, ok, "theta/pair/cover CLI outputs byte-identical and golden")
