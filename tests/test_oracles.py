"""The table-driven Abel-Jacobi map and the integer lattice against the
independent implementations in oracles.py, on the acceptance instances."""

import random
from fractions import Fraction

from tropcover import (
    abel_jacobi,
    canonical,
    enumerate_theta,
    free_covers,
    homology_action,
    is_principal,
    lattice_contains,
    linalg,
    period_lattice,
)
from tropcover.divisors import laplacian_image_contains
from conftest import random_divisor, random_graph
from oracles import (
    echelon_in_lattice,
    laplacian_columns,
    refined_abel_jacobi,
    tree_abel_jacobi,
)


def fundamental_tree(lat):
    return {e for e in lat.graph.edge_ids if e not in lat.cycles.nontree}


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


def test_integer_lattice_against_solve_integrality():
    rng = random.Random(4049)
    kinds = {"point": 0, "half": 0, "fraction": 0}
    inside = 0
    for _ in range(60):
        g = random_graph(rng, max_genus=4, min_genus=1)
        lat = period_lattice(g)
        gram = lat.gram
        for kind in kinds:
            for _ in range(4):
                z = [rng.randint(-3, 3) for _ in range(lat.rank)]
                v = linalg.mat_vec(gram, z)
                if kind == "half":
                    v = [x / 2 for x in v]
                elif kind == "fraction":
                    v = [x + Fraction(rng.randint(-6, 6), rng.randint(2, 7)) for x in v]
                want = all(x.denominator == 1 for x in linalg.solve(gram, v))
                assert lattice_contains(lat, v) == want
                assert linalg.in_lattice([list(col) for col in zip(*gram)], v) == want
                kinds[kind] += 1
                inside += want
    assert 0 < inside < sum(kinds.values())


def test_integer_lattice_is_in_hermite_normal_form():
    # the Prym lattices of the free covers of a genus-3 graph: each pivot is
    # positive and bounds the entries of the earlier columns in its row
    rng = random.Random(5051)
    g = random_graph(rng, max_genus=3, min_genus=3, unit_lengths=True)
    for cover in free_covers(g):
        if not cover.source_sharp()[0].is_connected():
            continue
        lat = homology_action(cover).prym_lattice
        for k, (i, p) in enumerate(lat.pivots):
            assert p[i] > 0 and not any(p[:i])
            for _, c in lat.pivots[:k]:
                assert 0 <= c[i] < p[i]
