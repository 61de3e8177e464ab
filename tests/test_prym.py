"""Prym varieties, component counts, and the mod-2 pairing."""

import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from tropcover import (
    CoverError,
    CycleSpace,
    DegreeError,
    Divisor,
    Point,
    PointError,
    PrymError,
    abel_jacobi,
    covers_with_dilation,
    free_cover,
    free_covers,
    homology_action,
    involution_divisor,
    kernel_component_count,
    pairing_table,
    period_lattice,
    prym_contains,
    pullback_kernel,
    verify_cover,
    weil_pairing,
)
from tropcover import covers, divisors, graphs, jacobian, linalg, prym, theta
from conftest import build_k4, random_graph
import oracles
from oracles import fixed_complement_rank, identity, mat_mul

TRIANGLE = frozenset(["BC", "BD", "CD"])
SQUARE = frozenset(["AC", "AD", "BC", "BD"])


def mid(graph, eid):
    return graph.point(eid, graph.length(eid) / 2)


def cocycle_value(cover, cycle):
    """Independent pairing formula: parity of sheet-swap bits on the cycle."""
    assert cover.bits is not None
    return sum(cover.bits.get(e, 0) for e in cycle) % 2


def test_homology_action_cube(cube_cover):
    old = oracles.FractionHomologyAction(cube_cover)
    J = old.matrix
    assert len(J) == 5
    assert mat_mul(J, J) == identity(5)
    assert sum(J[i][i] for i in range(5)) == 1  # eigenvalues: +1 x3, -1 x2
    assert fixed_complement_rank(old) == 2  # source genus 5 - target genus 3
    # the library's Prym has the same dimension: the source genus minus the
    # rank of the span of Q's rows, which is all of the target's
    act = homology_action(cube_cover)
    assert act.lattice.rank - len(act.prym_lattice.pivots) == 2


def test_homology_action_respects_involution(cube_cover):
    act = homology_action(cube_cover)
    J = oracles.FractionHomologyAction(cube_cover).matrix
    sharp = cube_cover.source_sharp()
    rng = random.Random(67)
    pts = [Point.at_vertex(v) for v in sharp.vertex_ids]
    for _ in range(5):
        a, b = rng.choice(pts), rng.choice(pts)
        D = Divisor(sharp, [(a, 1), (b, -1)])
        v = abel_jacobi(act.lattice, D)
        iv = abel_jacobi(act.lattice, involution_divisor(cube_cover, D))
        diff = [x - y for x, y in zip(oracles.mat_vec(J, v), iv)]
        from tropcover import lattice_contains

        assert lattice_contains(act.lattice, diff)


def test_pushforward_matrix(cube_cover):
    act = homology_action(cube_cover)
    sharp = cube_cover.source_sharp()
    rng = random.Random(71)
    pts = [Point.at_vertex(v) for v in sharp.vertex_ids]
    from tropcover import lattice_contains, period_lattice, pushforward

    tlat = period_lattice(cube_cover.target)
    for _ in range(5):
        a, b = rng.choice(pts), rng.choice(pts)
        D = Divisor(sharp, [(a, 1), (b, -1)])
        v = abel_jacobi(act.lattice, D)
        down = abel_jacobi(tlat, pushforward(cube_cover, D))
        pv = oracles.mat_vec(oracles.FractionHomologyAction(cube_cover).push_matrix, v)
        assert lattice_contains(tlat, [x - y for x, y in zip(pv, down)])


def test_prym_membership_examples(cube_cover):
    sharp = cube_cover.source_sharp()
    m = lambda e: mid(sharp, e)
    not_in_prym = Divisor(
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
    in_prym = Divisor(
        sharp,
        [(m("BC^1"), 1), (m("AD^1"), 1), (m("AD^0"), -1), (m("BC^0"), -1)],
    )
    assert prym_contains(cube_cover, Divisor.zero(sharp))
    assert not prym_contains(cube_cover, not_in_prym)
    assert prym_contains(cube_cover, in_prym)


def test_prym_requires_kernel_membership(cube_cover):
    sharp = cube_cover.source_sharp()
    D = Divisor(
        sharp, [(Point.at_vertex("A^0"), 1), (Point.at_vertex("B^0"), -1)]
    )
    with pytest.raises(PrymError):
        prym_contains(cube_cover, D)


def test_prym_invariant_under_equivalence(cube_cover):
    """Membership depends only on the divisor class."""
    sharp = cube_cover.source_sharp()
    m = lambda e: mid(sharp, e)
    D = Divisor(
        sharp,
        [(m("BC^1"), 1), (m("AD^1"), 1), (m("AD^0"), -1), (m("BC^0"), -1)],
    )
    # shift by the principal divisor of a tent function on one edge
    from tropcover import distance_field
    from tropcover.divisors import divisor_of

    field = distance_field(sharp, Point.at_vertex("A^0"))
    shift = divisor_of(field)
    assert prym_contains(cube_cover, D + shift)


def test_component_dichotomy(k4, dumbbell):
    for cover in free_covers(k4):
        assert kernel_component_count(cover) == 2
    for cycle in (TRIANGLE, SQUARE):
        for cover in covers_with_dilation(k4, cycle):
            assert kernel_component_count(cover) == 1
    for cover in covers_with_dilation(dumbbell, frozenset(["lu"])):
        assert kernel_component_count(cover) == 1


def test_weil_pairing_cube(cube_cover):
    cs = CycleSpace(cube_cover.target)
    for cycle in cs.even_subgraphs():
        expected = 1 if len(cycle) == 3 else 0
        assert weil_pairing(cube_cover, cycle) == expected


def test_weil_pairing_rejects_dilated(k4):
    cover = covers_with_dilation(k4, TRIANGLE)[0]
    with pytest.raises(CoverError):
        weil_pairing(cover, SQUARE)


def test_pairing_table_k4(k4):
    evens, table = pairing_table(k4)
    assert len(table) == 8 and all(len(row) == 8 for row in table)
    # trivial cover row is zero; every other row is balanced
    assert table[0] == [0] * 8
    for row in table[1:]:
        assert sum(row) == 4
    # additivity in the cycle argument
    rng = random.Random(73)
    covers = free_covers(k4)
    for _ in range(8):
        i = rng.randrange(8)
        a, b = rng.choice(evens), rng.choice(evens)
        ia, ib = evens.index(a), evens.index(b)
        iab = evens.index(a ^ b)
        assert table[i][iab] == (table[i][ia] + table[i][ib]) % 2
    # matches the cocycle oracle everywhere
    for cover, row in zip(covers, table):
        for cycle, bit in zip(evens, row):
            assert bit == cocycle_value(cover, cycle)


def test_pairing_table_builds_each_theta_characteristic_once(k4, monkeypatch):
    calls = []
    original = theta.theta_characteristic

    def counting(graph, cycle=frozenset(), p=None):
        calls.append(cycle)
        return original(graph, cycle, p)

    # patch every binding, as the benchmark's tracer does: prym binds
    # the name at import
    monkeypatch.setattr(theta, "theta_characteristic", counting)
    monkeypatch.setattr(prym, "theta_characteristic", counting)
    evens, table = pairing_table(k4)
    assert len(calls) == 8 and len(set(calls)) == 8
    assert evens == CycleSpace(k4).even_subgraphs()
    calls.clear()
    # the kernel reads L_0 and the g = 3 basis cycles' characteristics
    assert pullback_kernel(free_covers(k4)[7]) == [frozenset()]
    assert calls == [evens[0], evens[1], evens[2], evens[4]]


def test_pairing_table_builds_one_graph_per_free_cover(k4, monkeypatch):
    # a free cover's source has no vertex genus, so it is its own
    # virtualization: the table builds the 2^g sources and no copy of them
    built = []
    build_graph = graphs.MetricGraph.__init__

    def counted_graph(self, *args):
        built.append(args)
        build_graph(self, *args)

    monkeypatch.setattr(graphs.MetricGraph, "__init__", counted_graph)
    evens, table = pairing_table(k4)
    assert len(built) == len(table) == 8


def test_pairing_table_decides_entries_without_divisors(k4, monkeypatch):
    # every row of the table, the trivial cover's included, and every
    # pullback kernel reads the pullback matrix: no Divisor is pulled back,
    # pushed forward or tested for principality, and no Fraction
    # coordinates are built
    calls = {}
    for home, name in (
        (covers, "pullback"),
        (covers, "pushforward"),
        (divisors, "is_principal"),
        (jacobian, "abel_jacobi"),
        (jacobian, "lattice_contains"),
    ):
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (mod.__name__ or "").startswith("tropcover") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    evens, table = pairing_table(k4)
    all_covers = free_covers(k4) + [
        c for cyc in CycleSpace(k4).even_subgraphs() if cyc for c in covers_with_dilation(k4, cyc)
    ]
    kernels = [pullback_kernel(c) for c in all_covers]
    assert calls == {}
    monkeypatch.undo()
    for cover, row in zip(free_covers(k4), table):
        assert row == [cocycle_value(cover, cycle) for cycle in evens]
    _, torsion = theta.two_torsion_divisors(k4)
    for cover, kernel in zip(all_covers, kernels):
        up = [c for c, D in zip(evens, torsion) if divisors.is_principal(covers.pullback(cover, D))]
        assert kernel == up


def test_pairing_table_reads_each_torsion_class_once(k4, monkeypatch):
    # 2^g Abel-Jacobi evaluations for the 4^g entries: each torsion class
    # is evaluated and divided once, and every cover tests the same quotient
    # against its own Hermite lattice (P Q = 2 Id)
    calls = []
    original = prym.scaled_abel_jacobi

    def counting(lat, D):
        calls.append(lat)
        return original(lat, D)

    monkeypatch.setattr(prym, "scaled_abel_jacobi", counting)
    evens, table = pairing_table(k4)
    assert len(calls) == 8
    assert all(lat is period_lattice(k4) for lat in calls)


def test_pairing_divides_once_per_torsion_class(k4, monkeypatch):
    # since P Q = 2 Id the norm of a pullback is the same for every cover:
    # 2^g target divisions for the 4^g entries, none of them through a
    # cover's full membership test, and one division for weil_pairing
    g5 = random_graph(random.Random(9), max_genus=5, min_genus=5)
    assert g5.genus() == 5
    divided, tested = [], []
    divide, contains = jacobian.PeriodLattice.divide, prym.HomologyAction.contains

    def counting_divide(lat, nums, den):
        divided.append(lat)
        return divide(lat, nums, den)

    def counting_contains(act, nums, den):
        tested.append(act)
        return contains(act, nums, den)

    monkeypatch.setattr(jacobian.PeriodLattice, "divide", counting_divide)
    monkeypatch.setattr(prym.HomologyAction, "contains", counting_contains)
    for graph in (k4, g5):
        del divided[:]
        evens, table = pairing_table(graph)
        assert len(divided) == 2 ** graph.genus()
        assert all(lat is period_lattice(graph) for lat in divided)
        assert tested == []
        for cover in free_covers(graph)[:4]:  # the trivial cover first
            del divided[:]
            weil_pairing(cover, evens[-1])
            assert divided == [period_lattice(graph)]
        assert tested == []


def test_pullback_matrix_against_the_push_matrix_and_the_involution():
    # phi_* phi^* = 2 and the involution fixes every pullback, exactly:
    # P . Q = 2 Id and J . Q = Q for the oracle's push matrix P and
    # involution matrix J, on the trivial, free and dilated covers of graphs
    # with fractional lengths and loops, with virtual loops of two lengths
    rng = random.Random(7717)
    kinds = set()
    for _ in range(8):
        g = random_graph(rng, max_genus=4, min_genus=1)
        n = g.genus()
        all_covers = free_covers(g) + [
            c for cyc in CycleSpace(g).even_subgraphs() if cyc for c in covers_with_dilation(g, cyc)
        ]
        for cover in all_covers:
            for eps in (1, Fraction(1, 3)):
                act = homology_action(cover, eps)
                Q = act.pull
                assert len(Q) == act.lattice.rank and all(len(row) == n for row in Q)
                old = oracles.FractionHomologyAction(cover, eps)
                assert mat_mul(old.push_matrix, Q) == [
                    [2 * (i == j) for j in range(n)] for i in range(n)
                ]
                assert mat_mul(old.matrix, Q) == Q
            sharp = cover.source_sharp()
            kinds.add("dilated" if cover.dilation else "free" if sharp.is_connected() else "trivial")
    assert kinds == {"trivial", "free", "dilated"}


def test_the_push_matrix_is_read_off_the_pullback_matrix():
    # the projection formula <pi_* a, c> = <a, pi^* c> gives P Gram_S =
    # Gram_T Q^T, exactly, for the oracle's push matrix P: so membership
    # needs no P.  With it P Q = 2 Id, on trivial, free and dilated covers
    # with virtual loops of three lengths
    rng = random.Random(2929)
    kinds = set()
    for _ in range(8):
        g = random_graph(rng, max_genus=3, min_genus=1)
        n = g.genus()
        tgram = oracles.gram(period_lattice(g))
        evens = CycleSpace(g).even_subgraphs()
        dilated = [c for cyc in evens if cyc for c in covers_with_dilation(g, cyc)]
        for cover in free_covers(g) + dilated:
            for eps in (1, Fraction(1, 2), 3):
                act = homology_action(cover, eps)
                P = oracles.FractionHomologyAction(cover, eps).push_matrix
                pull_t = [list(col) for col in zip(*act.pull)]
                assert mat_mul(P, oracles.gram(act.lattice)) == mat_mul(tgram, pull_t)
                assert mat_mul(P, act.pull) == [[2 * (i == j) for j in range(n)] for i in range(n)]
            sharp = cover.source_sharp()
            kinds.add("dilated" if cover.dilation else "free" if sharp.is_connected() else "trivial")
    assert kinds == {"trivial", "free", "dilated"}


def test_prym_contains_divides_once_by_the_source_lattice(cube_cover, monkeypatch):
    # membership reads Gram_S^-1 x and Q alone: one division per question,
    # by the source lattice, whether the answer is true, false or PrymError
    divided = count_calls(monkeypatch, jacobian.PeriodLattice, "divide")
    sharp = cube_cover.source_sharp()
    m = lambda e: mid(sharp, e)
    in_prym = Divisor(sharp, [(m("BC^1"), 1), (m("AD^1"), 1), (m("AD^0"), -1), (m("BC^0"), -1)])
    off_prym = Divisor(
        sharp,
        [(m("BD^0"), 1), (m("CD^0"), -1), (m("CD^1"), 1), (m("BD^1"), -1), (m("BC^1"), 1)]
        + [(m("BC^0"), -1)],
    )
    not_principal = Divisor(sharp, [(Point.at_vertex("A^0"), 1), (Point.at_vertex("B^0"), -1)])
    assert prym_contains(cube_cover, in_prym)
    assert not prym_contains(cube_cover, off_prym)
    with pytest.raises(PrymError, match="^the pushforward is not principal$"):
        prym_contains(cube_cover, not_principal)
    source = homology_action(cube_cover).lattice
    assert [lat for lat, *_ in divided] == [source] * 3


def test_the_homology_action_builds_no_target_lattice():
    # Q is read on the target's cycle space, and its Hermite lattice has the
    # target's genus: neither needs the target's period lattice
    g = build_k4()
    cover = free_cover(g, {"BC": 1, "BD": 1, "CD": 1})
    (dilated,) = covers_with_dilation(g, TRIANGLE)
    for c, eps in ((cover, 1), (dilated, 1), (dilated, Fraction(1, 2))):
        act = homology_action(c, eps)
        assert act.prym_lattice.dim == 3
        kernel_component_count(c, eps)
        sharp = c.source_sharp(eps)
        prym_contains(c, Divisor.zero(sharp), eps)
    assert "period_lattice" not in g._memo


def test_pairing_table_random_graphs():
    rng = random.Random(79)
    graphs = [random_graph(rng, max_genus=2, min_genus=1, unit_lengths=True) for _ in range(3)]
    # genus 3 and 4 with fractional lengths
    graphs += [random_graph(rng, max_genus=4, min_genus=3) for _ in range(3)]
    assert {g.genus() for g in graphs[3:]} == {3, 4}
    for g in graphs:
        evens, table = pairing_table(g)
        for cover, row in zip(free_covers(g), table):
            for cycle, bit in zip(evens, row):
                assert bit == cocycle_value(cover, cycle)


def test_graph_and_covers_are_freed_without_the_cycle_collector():
    # a graph's memo holds its period lattice and a cover's memo its
    # homology action; neither refers back, so reference counting frees a
    # finished computation
    gc.collect()
    gc.disable()
    try:
        g = build_k4()
        cs = free_covers(g)
        result = pairing_table(g)
        for c in cs:
            kernel_component_count(c)
        refs = [weakref.ref(g)] + [weakref.ref(c) for c in cs]
        refs += [weakref.ref(homology_action(c)) for c in cs[1:]]
        lat = period_lattice(g)
        del g, cs, c, result
        assert [r() for r in refs] == [None] * len(refs)
        assert lat.rank == 3
    finally:
        gc.enable()


def test_trivial_cover_prym(k4):
    trivial = free_covers(k4)[0]
    sharp = trivial.source_sharp()
    assert not sharp.is_connected()
    x0 = Point.at_vertex("A^0")
    x1 = Point.at_vertex("A^1")
    assert not prym_contains(trivial, Divisor(sharp, [(x0, 1), (x1, -1)]))
    assert kernel_component_count(trivial) == 2
    # even sheet degrees with principal pushforward lie in the Prym
    y0, y1 = Point.at_vertex("B^0"), Point.at_vertex("B^1")
    D = Divisor(sharp, [(x0, 1), (y0, -1), (x1, -1), (y1, 1)])
    # pushforward is A - B + B - A = 0, sheet degrees are 0: in the Prym
    assert prym_contains(trivial, D)


def test_memos_return_the_same_object(cube_cover):
    target = cube_cover.target
    assert period_lattice(target) is period_lattice(target)
    assert cube_cover.source_sharp() is cube_cover.source_sharp()
    act = homology_action(cube_cover)
    assert homology_action(cube_cover) is act
    assert homology_action(cube_cover, Fraction(1)) is act
    half = homology_action(cube_cover, Fraction(1, 2))
    assert half is not act
    assert homology_action(cube_cover, Fraction(1, 2)) is half
    # a float eps is refused even when an equal exact key is cached
    with pytest.raises(TypeError) as sharp_err:
        cube_cover.source_sharp(0.5)
    with pytest.raises(TypeError) as action_err:
        homology_action(cube_cover, 0.5)
    assert str(action_err.value) == str(sharp_err.value)


def count_calls(monkeypatch, owner, name):
    """The list of argument tuples of each call to owner.name in this test."""
    calls, orig = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_memo_entry_is_built_once(monkeypatch):
    # the eight lazy entries of a graph, its lattice and a cover all go
    # through graphs.memoized: every read returns one object, and each
    # builder runs on the first read alone
    builds = {
        name: count_calls(monkeypatch, owner, attr)
        for name, owner, attr in (
            ("integer_metric", graphs, "_integer_metric"),
            ("incidence", graphs, "_incidence"),
            ("cycle_space", graphs.CycleSpace, "__init__"),
            ("refinement", graphs.Refinement, "__init__"),
            ("period_lattice", jacobian.PeriodLattice, "__init__"),
            ("inverse", linalg, "integer_inverse"),
            ("source_sharp", covers, "virtualize"),
            ("homology_action", prym.HomologyAction, "__init__"),
        )
    }
    g = build_k4()
    reads = {
        "integer_metric": g.integer_metric,
        "incidence": g.incidence,
        "cycle_space": g.cycle_space,
        "refinement": lambda: graphs.cut_at(g, [Point.at_vertex("A"), Point.at_vertex("B")]),
        "period_lattice": lambda: period_lattice(g),
    }
    for name, read in reads.items():
        first = read()
        assert all(read() is first for _ in range(3)), name
    lat = period_lattice(g)
    assert graphs.cut_at(g, []) is reads["refinement"]()
    for k in range(10):
        lat.divide([k, 1, 2 * k], 3)
    assert lat.inverse() is lat.inverse()
    counts = {name: len(calls) for name, calls in builds.items()}
    assert counts == dict.fromkeys(reads, 1) | {"inverse": 1, "source_sharp": 0, "homology_action": 0}
    cover = covers_with_dilation(g, TRIANGLE)[0]
    for calls in builds.values():
        calls.clear()
    sharp, act = cover.source_sharp(), homology_action(cover)
    for _ in range(3):
        assert cover.source_sharp() is sharp and cover.source_sharp(Fraction(1)) is sharp
        assert homology_action(cover) is act and homology_action(cover, 1) is act
    assert len(builds["source_sharp"]) == len(builds["homology_action"]) == 1
    # a second eps is a second entry, built once
    half = homology_action(cover, Fraction(1, 2))
    assert homology_action(cover, Fraction(1, 2)) is half is not act
    assert len(builds["source_sharp"]) == len(builds["homology_action"]) == 2


@pytest.mark.parametrize(
    "graph",
    [
        graphs.MetricGraph(["a"], []),
        graphs.MetricGraph(["a", "b"], [("e", "a", "b", Fraction(3, 2))]),
    ],
    ids=["one vertex", "one-edge tree"],
)
def test_the_pairing_and_the_kernel_of_a_tree(graph):
    # genus 0: one even subgraph, one free cover (two copies of the tree),
    # an empty null space of Id - J, and a Prym that is all of the kernel
    assert pairing_table(graph) == ([frozenset()], [[0]])
    (cover,) = free_covers(graph)
    assert oracles.FractionHomologyAction(cover).null == []
    act = homology_action(cover)
    assert act.prym_lattice.pivots == [] and act.contains([], 1)
    assert weil_pairing(cover, frozenset()) == 0
    assert pullback_kernel(cover) == [frozenset()]


def test_prym_contains_on_the_trivial_cover_needs_a_principal_pushforward(k4):
    trivial = free_covers(k4)[0]
    assert not trivial.source.is_connected()
    D = Divisor(
        trivial.source, [(Point.at_vertex("A^0"), 1), (Point.at_vertex("B^0"), -1)]
    )
    with pytest.raises(PrymError, match="pushforward is not principal"):
        prym_contains(trivial, D)


def test_the_homology_action_refuses_a_source_edge_off_the_edge_map(cube_cover):
    # only a virtual loop may lie outside the edge map: a source with an
    # extra edge parallel to AB^0 has it in a basis cycle, which the
    # involution cannot map
    src = cube_cover.source
    edges = [(e, *src.ends(e), src.length(e)) for e in src.edge_ids]
    extra = graphs.MetricGraph(src.vertex_ids, edges + [("X", *src.ends("AB^0"), 1)])
    cover = covers.DoubleCover(cube_cover.frame, extra)
    with pytest.raises(PointError, match="'X' is neither a source edge nor a virtual loop"):
        prym.HomologyAction(cover)


def test_prym_contains_refuses_a_divisor_off_the_source_or_of_nonzero_degree(cube_cover, k4):
    with pytest.raises(CoverError, match="^divisor does not live on the virtualized source$"):
        prym_contains(cube_cover, Divisor.zero(k4))
    D = Divisor(cube_cover.source, [(Point.at_vertex("A^0"), 1)])
    with pytest.raises(DegreeError, match="^prym membership needs a degree-0 divisor$"):
        prym_contains(cube_cover, D)


def theta_graph_plus_a_loop(loop):
    edges = [("e1", "a", "b", 1), ("e2", "a", "b", 1), ("e3", "a", "b", 1)]
    if loop:
        return graphs.MetricGraph(["a", "b", "c"], edges + [("l", "c", "c", 1)])
    return graphs.MetricGraph(["a", "b"], edges)


def test_prym_questions_refuse_a_disconnected_target():
    # over the theta graph, the free cover with one sheet swap has a
    # connected source, two kernel components and a^0 - a^1 off the Prym;
    # with a loop at a third vertex c the source is disconnected and the
    # parity count answered 1 and true, so both questions refuse it
    a = [(Point.at_vertex("a^0"), 1), (Point.at_vertex("a^1"), -1)]
    theta = theta_graph_plus_a_loop(False)
    cover = free_cover(theta, {theta.cycle_space().nontree[0]: 1})
    assert kernel_component_count(cover) == 2
    assert not prym_contains(cover, Divisor(cover.source, a))
    g = theta_graph_plus_a_loop(True)
    cover = free_cover(g, {g.cycle_space().nontree[0]: 1})
    assert verify_cover(cover).ok and not cover.source.is_connected()
    message = "^prym questions need a connected target graph$"
    with pytest.raises(CoverError, match=message):
        kernel_component_count(cover)
    with pytest.raises(CoverError, match=message):
        prym_contains(cover, Divisor(cover.source, a))
    # a cover dilated along every edge moves no vertex, and still refuses
    two_loops = graphs.MetricGraph(["a", "b"], [("e", "a", "a", 1), ("f", "b", "b", 1)])
    (dilated,) = covers_with_dilation(two_loops, {"e", "f"})
    with pytest.raises(CoverError, match=message):
        kernel_component_count(dilated)
