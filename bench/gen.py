"""Seeded input generators for the benchmark.

Everything here is plain data (tuples, lists, Fractions) built from a
``random.Random``; nothing imports tropcover, so the library only ever sees
the generated inputs.  The 3-regular pairing-model generator follows the one
in the test suite, copied rather than imported so the benchmark stands apart
from the tests.

A raw graph is ``(vertex ids, [(edge id, tail, head, length), ...])``.
A raw divisor is ``[(point, coeff), ...]`` with point ``("v", vid)`` or
``("e", eid, offset)``.
"""

from __future__ import annotations

from fractions import Fraction


def genus(raw) -> int:
    """First Betti number of a raw connected graph."""
    verts, edges = raw
    return len(edges) - len(verts) + 1


def is_connected(verts, edges) -> bool:
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, t, h, _ in edges:
        parent[find(t)] = find(h)
    return len({find(v) for v in verts}) <= 1


def random_3regular(rng, g, length, loops=True):
    """Connected 3-regular multigraph of genus g (n = 2g - 2 vertices) by the
    pairing model; parallel edges allowed, loops unless loops is False.
    length(rng) draws each edge length."""
    n = 2 * g - 2
    verts = ["v%d" % i for i in range(n)]
    while True:
        stubs = [i for i in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [
            ("e%d" % (k // 2), "v%d" % stubs[k], "v%d" % stubs[k + 1], length(rng))
            for k in range(0, len(stubs), 2)
        ]
        if not loops and any(t == h for _, t, h, _ in edges):
            continue
        if is_connected(verts, edges):
            return verts, edges


def unit_length(rng):
    return Fraction(1)


def small_integer_length(rng):
    return Fraction(rng.choice((1, 2)))


def half_integer_length(rng):
    return rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 2)))


def fractional_length(rng):
    return Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4)))


def random_divisor(rng, raw, degree, spread=3):
    """Random divisor of the given degree supported on vertices and on
    integer offsets of edges (so on the unit subdivision when lengths are
    integers), with coefficients in [-2, 2]."""
    verts, edges = raw
    pts = [("v", v) for v in verts]
    for eid, _, _, ell in edges:
        pts.extend(("e", eid, Fraction(k)) for k in range(1, int(ell)))
    coeffs = [(rng.choice(pts), rng.randint(-2, 2)) for _ in range(spread)]
    delta = degree - sum(a for _, a in coeffs)
    if delta:
        coeffs.append((rng.choice(pts), delta))
    return coeffs


def fire_vertex_set(raw, D, chosen):
    """D plus div(f), f = -min(dist(x, S), 1) for the vertex set S; needs
    every edge length to be a positive integer.  The result is linearly
    equivalent to D."""
    _, edges = raw
    S = set(chosen)
    out = list(D)
    for eid, t, h, ell in edges:
        if (t in S) == (h in S):
            continue
        # one unit of the edge leaves S: a chip moves from the S end to the
        # point at distance 1 along the edge
        inside, offset = (t, Fraction(1)) if t in S else (h, ell - 1)
        far = ("v", h if t in S else t) if ell == 1 else ("e", eid, offset)
        out.append((("v", inside), -1))
        out.append((far, 1))
    return out


def max_denominator(raws) -> int:
    return max(
        (ell.denominator for _, edges in raws for *_, ell in edges), default=1
    )
