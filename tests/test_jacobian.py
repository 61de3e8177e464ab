"""Period lattice, Abel-Jacobi map, and torsion points."""

import random
from fractions import Fraction

import pytest

from tropcover import (
    DegreeError,
    Divisor,
    Point,
    PointError,
    abel_jacobi,
    canonical,
    enumerate_theta,
    is_principal,
    lattice_contains,
    linalg,
    period_lattice,
    principal_function,
    torsion_points,
    two_torsion_divisor,
)

from tropcover.jacobian import scaled_abel_jacobi
from conftest import build_k4, random_divisor, random_graph
from oracles import add_points, gram


def test_gram_unit_loop(unit_loop):
    lat = period_lattice(unit_loop)
    assert gram(lat) == [[Fraction(1)]]


def test_gram_dumbbell(dumbbell):
    lat = period_lattice(dumbbell)
    assert gram(lat) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_gram_k4(k4):
    lat = period_lattice(k4)
    assert lat.rank == 3
    G = gram(lat)
    for i in range(3):
        assert G[i][i] == 3
        for j in range(3):
            if i != j:
                assert abs(G[i][j]) == 1
    # positive definite: leading principal minors positive
    assert G[0][0] > 0
    det2 = G[0][0] * G[1][1] - G[0][1] * G[1][0]
    assert det2 > 0


def test_abel_jacobi_zero_and_degree_check(k4):
    lat = period_lattice(k4)
    v = abel_jacobi(lat, Divisor.zero(k4))
    assert v == [0, 0, 0]
    with pytest.raises(DegreeError):
        abel_jacobi(lat, Divisor(k4, [(Point.at_vertex("A"), 1)]))


def test_abel_jacobi_additive():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, max_genus=3, unit_lengths=True)
        lat = period_lattice(g)
        a = random_divisor(rng, g, degree=0)
        b = random_divisor(rng, g, degree=0)
        va = abel_jacobi(lat, a)
        vb = abel_jacobi(lat, b)
        vab = abel_jacobi(lat, a + b)
        assert canonical(lat, [x + y for x, y in zip(va, vb)]) == canonical(
            lat, vab
        )


def test_abel_jacobi_zero_iff_principal():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, max_genus=3, unit_lengths=True)
        lat = period_lattice(g)
        D = random_divisor(rng, g, degree=0)
        v = abel_jacobi(lat, D)
        assert lattice_contains(lat, v) == is_principal(D)


def test_lattice_contains_basics(k4):
    lat = period_lattice(k4)
    assert lattice_contains(lat, [0, 0, 0])
    col = [gram(lat)[i][0] for i in range(3)]
    assert lattice_contains(lat, col)
    assert not lattice_contains(lat, [c / 2 for c in col])


def test_two_torsion_coordinates(k4):
    lat = period_lattice(k4)
    tri = frozenset(["BC", "BD", "CD"])
    v = abel_jacobi(lat, two_torsion_divisor(k4, tri))
    assert not lattice_contains(lat, v)
    assert lattice_contains(lat, [2 * x for x in v])


def test_torsion_points_counts(k4, unit_loop):
    assert len(torsion_points(period_lattice(k4), 2)) == 8
    pts = torsion_points(period_lattice(unit_loop), 3)
    assert sorted(p[0] for p in pts) == [0, Fraction(1, 3), Fraction(2, 3)]
    with pytest.raises(ValueError):
        torsion_points(period_lattice(k4), 1)


def test_torsion_points_closed_under_addition(dumbbell):
    lat = period_lattice(dumbbell)
    pts = torsion_points(lat, 2)
    assert len(set(pts)) == 4
    for a in pts:
        for b in pts:
            assert tuple(add_points(lat, a, b)) in set(pts)


def test_canonical_stability():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, max_genus=3, min_genus=1)
        lat = period_lattice(g)
        v = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(lat.rank)]
        c = canonical(lat, v)
        assert canonical(lat, list(c)) == c
        assert lattice_contains(lat, [a - b for a, b in zip(v, c)])


def test_jacobian_questions_read_the_gram_inverse_only(monkeypatch):
    # membership, reduction and principal functions all divide by the
    # integer Gram inverse: no Fraction solve or rref runs, and no Hermite
    # normal form is built
    rng = random.Random(9137)
    cases = []
    for g in (build_k4(), random_graph(rng, max_genus=4, min_genus=2)):
        chars = enumerate_theta(g)
        D = chars[-1].divisor - chars[0].divisor
        cases.append((period_lattice(g), D, abel_jacobi(period_lattice(g), D)))
    calls = []
    for name in ("solve", "rref"):
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(linalg, name, counting)
    init = linalg.IntegerLattice.__init__

    def counting_init(self, *args, **kwargs):
        calls.append("IntegerLattice")
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.IntegerLattice, "__init__", counting_init)
    for lat, D, v in cases:
        assert not is_principal(D) and is_principal(2 * D)
        assert not lattice_contains(lat, v)
        assert lattice_contains(lat, [2 * x for x in v])
        assert canonical(lat, [2 * x for x in v]) == (0,) * lat.rank
        assert principal_function(D) is None
        assert principal_function(2 * D) is not None
    assert calls == []


def test_lattice_dimension_and_singularity_checks(k4):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        period_lattice(k4).divide([0], 1)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        linalg.IntegerLattice([[1, 2]], 3)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        linalg.IntegerLattice([[1]], 1).contains([1, 2])
    with pytest.raises(ValueError, match="^singular matrix$"):
        linalg.integer_inverse([[1, 2], [2, 4]])


def test_abel_jacobi_refuses_a_divisor_of_another_graph(k4, unit_loop):
    with pytest.raises(PointError, match="^the divisor does not live on the lattice's graph$"):
        scaled_abel_jacobi(period_lattice(k4), Divisor.zero(unit_loop))
