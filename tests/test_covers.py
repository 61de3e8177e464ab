"""Double covers: construction, verification, divisor transport."""

import copy
import random
from fractions import Fraction

import pytest

from tropcover import (
    CoverError,
    CycleError,
    CycleSpace,
    Divisor,
    DoubleCover,
    MetricGraph,
    Point,
    PointError,
    TropcoverError,
    covers_with_dilation,
    enumerate_theta,
    equivalent,
    free_cover,
    free_covers,
    involution_divisor,
    is_principal,
    period_lattice,
    pullback,
    pullback_kernel,
    pushforward,
    two_torsion_divisor,
    verify_cover,
)
from tropcover.graphs import virtual_loops
from tropcover.serialize import cover_from_obj, cover_to_obj
from conftest import random_3regular, random_graph
from oracles import cover_class, covers_isomorphic
import oracles

TRIANGLE = frozenset(["BC", "BD", "CD"])
SQUARE = frozenset(["AC", "AD", "BC", "BD"])


def mid(graph, eid):
    return graph.point(eid, graph.length(eid) / 2)


def test_free_covers_pull_theta_characteristics_back_to_theta_characteristics():
    """A free cover is a local isometry, so the distance from pi^-1(gamma)
    is the pullback of the distance from gamma: pi^* L_gamma is the source's
    L_{pi^-1 gamma} for every nonempty even gamma.  pi^* L_0 is only
    equivalent to the source's non-effective characteristic, whose
    basepoint is the source's own.  The source census is a pass of its own
    on a graph twice the size."""
    rng = random.Random(6)
    connected = 0
    for _ in range(8):
        g = random_graph(rng, max_genus=3, min_genus=2)
        chars = enumerate_theta(g)
        for cover in free_covers(g):
            if not cover.source.is_connected():
                continue
            connected += 1
            lifted = enumerate_theta(cover.source)
            by_cycle = {t.cycle: t.divisor for t in lifted}
            for t in chars:
                up = pullback(cover, t.divisor)
                if t.cycle:
                    over = frozenset(se for se, (te, _) in cover.edge_map.items() if te in t.cycle)
                    assert up == by_cycle[over]
                else:
                    matches = [s for s in lifted if equivalent(up, s.divisor)]
                    assert len(matches) == 1
                    assert not matches[0].cycle and not matches[0].effective
    assert connected >= 20


def test_free_cover_counts(k4, dumbbell, unit_loop):
    assert len(free_covers(k4)) == 8
    assert len(free_covers(dumbbell)) == 4
    assert len(free_covers(unit_loop)) == 2
    tree = MetricGraph(["r", "s"], [("e", "r", "s", 1)])
    assert len(free_covers(tree)) == 1
    assert not free_covers(tree)[0].source.is_connected()


def test_all_free_covers_verify(k4):
    for cover in free_covers(k4):
        report = verify_cover(cover)
        assert report.ok, report.problems
        assert report.dilation == frozenset()


def test_unit_loop_covers(unit_loop):
    trivial, connected = free_covers(unit_loop)
    assert not trivial.source.is_connected()
    assert connected.source.is_connected()
    assert connected.source.genus() == 1
    total = sum(
        (connected.source.length(e) for e in connected.source.edge_ids),
        Fraction(0),
    )
    assert total == 2


def test_cube_structure(cube_cover):
    src = cube_cover.source
    assert src.is_connected()
    assert src.genus() == 5  # 2g - 1
    assert len(src.vertex_ids) == 8
    assert len(src.edge_ids) == 12
    assert all(src.valence(v) == 3 for v in src.vertex_ids)
    # the cube is bipartite: no odd cycles, so no triangles among lifts
    report = verify_cover(cube_cover)
    assert report.ok and report.dilation == frozenset()


def test_involution_is_sheet_swap(cube_cover):
    assert cube_cover.involution_v["A^0"] == "A^1"
    assert cube_cover.involution_v["A^1"] == "A^0"
    sharp = cube_cover.source_sharp()
    D = Divisor(sharp, [(Point.at_vertex("A^0"), 1), (mid(sharp, "BC^0"), 2)])
    assert involution_divisor(cube_cover, involution_divisor(cube_cover, D)) == D


def test_pullback_two_torsion_divisors(cube_cover):
    k4 = cube_cover.target
    sharp = cube_cover.source_sharp()
    D_tri = two_torsion_divisor(k4, TRIANGLE)
    up = pullback(cube_cover, D_tri)
    expected = Divisor(
        sharp,
        [(Point.at_vertex("A^0"), 3), (Point.at_vertex("A^1"), 3)]
        + [(mid(sharp, "%s^%d" % (e, s)), -1) for e in TRIANGLE for s in (0, 1)],
    )
    assert up == expected
    assert up.degree() == 0
    assert not is_principal(up)

    D_sq = two_torsion_divisor(k4, SQUARE)
    up_sq = pullback(cube_cover, D_sq)
    assert up_sq.degree() == 0
    assert not is_principal(up_sq)


def test_pushforward_pullback_is_doubling(cube_cover):
    k4 = cube_cover.target
    D = two_torsion_divisor(k4, TRIANGLE)
    assert pushforward(cube_cover, pullback(cube_cover, D)) == 2 * D
    x = Point.at_vertex("B^0")
    sharp = cube_cover.source_sharp()
    d = Divisor(sharp, [(x, 1)])
    iota = involution_divisor(cube_cover, d)
    assert pushforward(cube_cover, d - iota) == Divisor.zero(cube_cover.target)


def test_pullback_kernel_free(cube_cover):
    assert pullback_kernel(cube_cover) == [frozenset()]


def test_dilated_covers_k4(k4):
    for cycle in (TRIANGLE, SQUARE):
        covers = covers_with_dilation(k4, cycle)
        assert len(covers) == 1  # complement is a forest: h = 0
        report = verify_cover(covers[0])
        assert report.ok, report.problems
        assert report.dilation == cycle
        assert pullback_kernel(covers[0]) == [frozenset(), cycle]


def test_dilated_triangle_geometry(k4):
    cover = covers_with_dilation(k4, TRIANGLE)[0]
    src = cover.source
    # the triangle maps isometrically onto itself at half length
    for e in TRIANGLE:
        assert src.length("%s~" % e) == Fraction(1, 2)
        assert cover.edge_map["%s~" % e] == (e, 2)
    # dilated vertices carry genus deg/2 - 1 = 0 on the triangle
    assert all(src.genus_of("%s~" % v) == 0 for v in "BCD")
    assert cover.source_sharp() is src  # no vertex genus to virtualize
    assert src.genus() == 5  # 2g - 1 still


def test_dilated_all_edges():
    """Dilating every edge of the theta graph gives genus-carrying vertices."""
    g = MetricGraph(
        ["u", "v"],
        [("e1", "u", "v", 1), ("e2", "u", "v", 1), ("e3", "u", "v", 1)],
    )
    gamma = frozenset(["e1", "e2"])
    covers = covers_with_dilation(g, gamma)
    assert len(covers) == 1
    assert verify_cover(covers[0]).ok


def test_dumbbell_dilated_loop(dumbbell):
    covers = covers_with_dilation(dumbbell, frozenset(["lu"]))
    assert len(covers) == 2  # complement retains the other loop: h = 1
    for c in covers:
        assert verify_cover(c).ok, verify_cover(c).problems
    assert not covers_isomorphic(covers[0], covers[1])


def test_loop_vertex_on_a_fresh_cover():
    # two triangles at O, dilated along all six edges: O~ carries genus 1,
    # so the virtualized source has the loop O~!0
    bowtie = MetricGraph(
        ["O", "a", "b", "c", "d"],
        [
            ("Oa", "O", "a", 1), ("ab", "a", "b", 1), ("bO", "b", "O", 1),
            ("Oc", "O", "c", 1), ("cd", "c", "d", 1), ("dO", "d", "O", 1),
        ],
    )
    cover = covers_with_dilation(bowtie, bowtie.edge_ids)[0]
    # asked before source_sharp() has run
    assert cover.loop_vertex("O~!0") == "O~"
    mid_loop = Point.on_edge("O~!0", Fraction(1, 2))
    assert cover.project_point(mid_loop) == Point.at_vertex("O")
    fresh = covers_with_dilation(bowtie, bowtie.edge_ids)[0]
    assert fresh.project_point(mid_loop) == Point.at_vertex("O")
    assert virtual_loops(fresh.source) == {"O~": ("O~!0",)}
    assert fresh.source_sharp().ends("O~!0") == ("O~", "O~")
    with pytest.raises(PointError):
        fresh.loop_vertex("O~!1")


def test_a_free_cover_is_its_own_virtualized_source(k4):
    # eps is still checked first: test_prym's memo test refuses 0.5
    for cover in free_covers(k4):
        for eps in (1, Fraction(1, 2), 3):
            assert cover.source_sharp(eps) is cover.source


def test_one_forest_orders_the_free_cover_bits():
    rng = random.Random(53)
    for _ in range(8):
        g = random_graph(rng, max_genus=3)
        cs = g.cycle_space()
        for c in free_covers(g):
            assert tuple(c.bits) == cs.nontree
        # the torsion side reads the same forest: its basis cycles are the
        # fundamental cycles of the non-tree edges the bits sit on
        assert period_lattice(g).cycles is cs
        for e, cyc in zip(cs.nontree, cs.basis):
            assert cyc[e] == 1 and set(cyc) - {e} <= cs.forest


def test_cover_errors(k4):
    with pytest.raises(CycleError):
        covers_with_dilation(k4, frozenset())
    with pytest.raises(CycleError):
        covers_with_dilation(k4, frozenset(["AB"]))
    with pytest.raises(CoverError):
        free_cover(k4, {"AB": 1})  # AB is a tree edge


@pytest.mark.parametrize("bit", [2, -1, "1", 1.0, True])
def test_free_cover_rejects_a_bit_other_than_0_or_1(k4, bit):
    with pytest.raises(CoverError, match="bit on edge 'BC' is .*, not 0 or 1"):
        free_cover(k4, {"BC": bit})


def test_verify_rejects_corrupted_cover(cube_cover):
    src = cube_cover.source
    edges = []
    for e in src.edge_ids:
        t, h = src.ends(e)
        ell = src.length(e)
        if e == "BC^0":
            ell = ell / 2
        edges.append((e, t, h, ell))
    bad_src = MetricGraph(list(src.vertex_ids), edges)
    bad = DoubleCover(cube_cover.frame, bad_src)
    report = verify_cover(bad)
    assert not report.ok
    assert any("metric" in p for p in report.problems)


def test_cover_isomorphism_classes(k4):
    covers = free_covers(k4)
    classes = {cover_class(c) for c in covers}
    assert len(classes) == 8  # pairwise non-isomorphic over K4


def test_three_regular_identity():
    rng = random.Random(61)
    for _ in range(10):
        g = random_3regular(rng, rng.choice([4, 6]))
        genus = g.genus()
        for gamma in CycleSpace(g).even_subgraphs():
            keep = [e for e in g.edge_ids if e not in gamma]
            complement = MetricGraph(
                list(g.vertex_ids),
                [(e, g.ends(e)[0], g.ends(e)[1], g.length(e)) for e in keep],
            )
            m = len(complement.components())
            h = complement.genus()
            assert len(gamma) == genus + m - h - 1


LENGTHS = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(3), Fraction(7, 6))


def fractional_graphs(seed, count):
    """Random genus-3/4 graphs with lengths drawn from LENGTHS."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = random_graph(rng, max_genus=4, min_genus=3)
        edges = [(e, *g.ends(e), rng.choice(LENGTHS)) for e in g.edge_ids]
        out.append(MetricGraph(list(g.vertex_ids), edges))
    return out


def all_covers(graph):
    out = list(free_covers(graph))
    for cyc in CycleSpace(graph).even_subgraphs():
        if cyc:
            out.extend(covers_with_dilation(graph, cyc))
    return out


def with_lengths(cover, length_of):
    """The cover over a copy of its source with lengths length_of(e, l)."""
    src = cover.source
    source = MetricGraph(
        [(v, src.genus_of(v)) for v in src.vertex_ids],
        [(e, *src.ends(e), length_of(e, src.length(e))) for e in src.edge_ids],
    )
    return DoubleCover(cover.frame, source)


def test_every_cover_of_fractional_graphs_verifies():
    dilated = 0
    for g in fractional_graphs(5081, 6):
        for c in all_covers(g):
            report = verify_cover(c)
            assert report.ok, report.problems
            assert report.dilation == {te for te, d in c.edge_map.values() if d == 2}
            dilated += bool(report.dilation)
    assert dilated


def test_verify_reports_corrupted_covers_of_fractional_graphs():
    seen = set()
    for g in fractional_graphs(5081, 3):
        for c in all_covers(g):
            scale = c.source.integer_metric()[0]
            if c.dilation:
                # a dilated lift of its edge's full length
                se = min(e for e, (_, d) in c.edge_map.items() if d == 2)
                full = g.length(c.edge_map[se][0])
                bad = with_lengths(c, lambda e, ell: full if e == se else ell)
                # a recorded dilation that differs from the edge map
                c = DoubleCover(c.frame._replace(dilation=frozenset()), c.source)
            else:
                # a lift off by half a unit of the source's integer metric
                se = c.source.edge_ids[0]
                step = Fraction(1, 2 * scale)
                bad = with_lengths(c, lambda e, ell: ell + step if e == se else ell)
                wrong = CycleSpace(g).even_subgraphs()[1]
                c = DoubleCover(c.frame._replace(dilation=wrong), c.source)
            report = verify_cover(bad)
            assert not report.ok
            assert report.problems == ["edge %r breaks metric compatibility" % se]
            report = verify_cover(c)
            assert report.problems == [
                "dilation set differs from the edges with a degree-2 lift"
            ]
            seen.add(c.edge_map[se][1])
    assert seen == {1, 2}


def tampered(frame, name, key, value):
    """frame with one entry of its map name replaced (None: removed), in a
    copy: the maps are shared with every cover of the frame."""
    m = dict(getattr(frame, name))
    if value is None:
        del m[key]
    else:
        m[key] = value
    return frame._replace(**{name: m})


def test_verify_reports_an_involution_pairing_unequal_lengths():
    g = MetricGraph(
        ["u", "v"],
        [("a", "u", "v", Fraction(1, 2)), ("b", "u", "v", Fraction(2, 3)),
         ("c", "u", "v", Fraction(5, 4))],
    )
    for c in free_covers(g):
        assert verify_cover(c).ok
        # pair a's lift with a lift of b, which is longer
        frame = tampered(c.frame, "involution_e", "a^0", "b^1")
        report = verify_cover(DoubleCover(frame, c.source))
        assert not report.ok
        assert "edge involution is not an isometry at 'a^0'" in report.problems


@pytest.mark.parametrize(
    "name, key, value, problem",
    [
        ("edge_map", "AB^0", None, "edge 'AB^0' unmapped"),
        ("edge_map", "AB^0", ("XY", 1), "edge 'AB^0' has a bad image"),
        ("edge_map", "AB^0", ("CD", 1), "edge 'AB^0' does not map ends to ends"),
        ("involution_v", "A^0", "B^1", "involution is not involutive at 'A^0'"),
        ("involution_e", "AB^0", "CD^0", "edge involution breaks incidence at 'AB^0'"),
        ("involution_v", "A^0", "A^0", "involution fixes the undilated vertex 'A^0'"),
    ],
    ids=["unmapped", "bad-image", "ends", "involutive", "incidence", "fixes"],
)
def test_verify_names_a_tampered_map_entry(cube_cover, name, key, value, problem):
    frame = tampered(cube_cover.frame, name, key, value)
    report = verify_cover(DoubleCover(frame, cube_cover.source))
    assert not report.ok and problem in report.problems, report.problems
    assert verify_cover(cube_cover).ok


def test_covers_dilated_along_one_cycle_share_the_dilation_set():
    shared = 0
    for g in fractional_graphs(977, 4):
        for cyc in CycleSpace(g).even_subgraphs():
            if not cyc:
                continue
            covers = covers_with_dilation(g, cyc)
            for c in covers:
                assert c.dilation is cyc
                assert verify_cover(c).dilation is cyc
            shared += len(covers) > 1
            # a parsed cover derives the same set from its edge map
            parsed = cover_from_obj(cover_to_obj(covers[-1]))
            assert parsed.dilation == cyc and verify_cover(parsed).ok
    assert shared


@pytest.mark.parametrize("image", ["nowhere", "A"])
def test_verify_reports_a_vertex_map_entry_off_the_source(cube_cover, image):
    obj = cover_to_obj(cube_cover)
    obj["vertex_map"]["ghost"] = image
    rep = verify_cover(cover_from_obj(obj))
    assert not rep.ok
    assert any("'ghost'" in msg for msg in rep.problems), rep.problems


def edit_cover_file(rng, obj):
    """One random edit of a cover file: drop or rewire a source edge, drop
    or retarget an edge map record, or set a vertex map or involution
    entry to any name the file uses, or to one it does not."""
    src, tgt = obj["source"], obj["target"]
    names = [x["id"] for g in (src, tgt) for x in g["vertices"] + g["edges"]] + ["Z"]
    kind = rng.randrange(6)
    if kind == 0 and src["edges"]:
        del src["edges"][rng.randrange(len(src["edges"]))]
    elif kind == 1 and src["edges"]:
        edge = rng.choice(src["edges"])
        edge[rng.choice(["tail", "head"])] = rng.choice(src["vertices"])["id"]
    elif kind == 2 and obj["edge_map"]:
        del obj["edge_map"][rng.randrange(len(obj["edge_map"]))]
    elif kind == 3 and obj["edge_map"]:
        rec = rng.choice(obj["edge_map"])
        rec[rng.choice(["src", "tgt"])] = rng.choice(names)
    else:
        field = obj["vertex_map" if kind == 4 else "involution"]
        field[rng.choice(names)] = rng.choice(names)


def test_verify_never_raises_on_a_parsed_cover(k4):
    # seeded edits of a free and a dilated cover file: every one that
    # parses gets a report, never an exception
    bases = [
        cover_to_obj(free_cover(k4, {"BC": 1, "BD": 1, "CD": 1})),
        cover_to_obj(covers_with_dilation(k4, TRIANGLE)[0]),
    ]
    rng = random.Random(4409)
    parsed = failed = 0
    for _ in range(800):
        obj = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            edit_cover_file(rng, obj)
        try:
            cover = cover_from_obj(obj)
        except TropcoverError:
            continue
        parsed += 1
        failed += not verify_cover(cover).ok
    assert parsed > 300 and failed > 200


def scale_ratio_against_the_oracle(cover):
    """Check cover against the one-at-a-time build of the same bits, and
    its source's integer metric against a freshly parsed copy's; return
    the source's scale over the target's."""
    ref = oracles.build_cover(cover.target, cover.dilation, cover.bits)
    assert cover.source.same_model(ref.source)
    assert cover.vertex_map == ref.vertex_map
    assert cover.edge_map == ref.edge_map
    assert cover.involution_v == ref.involution_v
    assert cover.involution_e == ref.involution_e
    # both pair the lifts through cover_frame; by construction the two
    # lifts of an edge swap and a dilated lift is fixed
    swap = {"0": "1", "1": "0", "~": "~"}
    assert cover.involution_e == {se: se[:-1] + swap[se[-1]] for se in cover.edge_map}
    assert cover.frame.fibers == ref.frame.fibers
    assert cover.bits == ref.bits and cover.dilation == ref.dilation
    metric = cover.source.integer_metric()
    assert metric == with_lengths(cover, lambda e, ell: ell).source.integer_metric()
    assert metric == ref.source.integer_metric()
    return Fraction(metric[0], cover.target.integer_metric()[0])


def test_frame_built_covers_match_the_per_cover_oracle():
    ratios = set()
    for g in fractional_graphs(3313, 6):
        for c in all_covers(g):
            ratio = scale_ratio_against_the_oracle(c)
            if c.dilation:
                ratios.add(ratio)
            else:
                assert ratio == 1
    # a dilated edge of odd integer length doubles the scale; with every
    # dilated integer length even it stays
    assert ratios == {1, 2}


@pytest.mark.parametrize(
    "edges, ratio",
    [
        ([("a", "u", "v", Fraction(1, 3)), ("b", "u", "v", Fraction(5, 2))], 2),
        ([("a", "u", "v", Fraction(2, 3)), ("b", "u", "v", Fraction(4, 3))], 1),
        ([("loop", "u", "u", Fraction(3, 2)), ("a", "u", "v", 1), ("b", "u", "v", 1)], 2),
    ],
    ids=["an-odd-length", "even-lengths", "with-a-loop"],
)
def test_a_cycle_of_every_edge(edges, ratio):
    g = MetricGraph(["u", "v"], edges)
    [cover] = covers_with_dilation(g, frozenset(g.edge_ids))
    assert verify_cover(cover).ok
    assert set(cover.source.vertex_ids) == {"u~", "v~"}
    assert scale_ratio_against_the_oracle(cover) == ratio


MAPS = ("vertex_map", "edge_map", "involution_v", "involution_e")


def test_covers_of_one_frame_share_its_maps():
    for g in fractional_graphs(977, 3):
        for cyc in CycleSpace(g).even_subgraphs():
            covers = covers_with_dilation(g, cyc) if cyc else free_covers(g)
            frame = covers[0].frame
            assert frame.target is g and frame.dilation == cyc
            for c in covers:
                assert c.frame is frame and c.target is g and c.dilation is frame.dilation
                for name in MAPS:
                    assert getattr(c, name) is getattr(frame, name)
                # the shared fields are the frame's alone: a cover cannot rebind them
                with pytest.raises(AttributeError):
                    c.dilation = frozenset()
            # each cover has its own source and bits
            assert len({id(c.source) for c in covers}) == len(covers)
            assert len({tuple(sorted(c.bits.items())) for c in covers}) == len(covers)


def test_parsed_covers_equal_frame_built_ones():
    kinds = set()
    for g in fractional_graphs(4127, 3):
        for c in all_covers(g):
            parsed = cover_from_obj(cover_to_obj(c))
            assert parsed.frame is not c.frame and parsed.bits is None
            assert parsed.target.same_model(c.target)
            assert parsed.source.same_model(c.source)
            for name in MAPS + ("dilation", "fibers"):
                assert getattr(parsed.frame, name) == getattr(c.frame, name), name
            assert cover_class(parsed) == cover_class(c)
            assert covers_isomorphic(parsed, c)
            assert verify_cover(parsed) == verify_cover(c)
            kinds.add(bool(c.dilation))
    assert kinds == {False, True}


def test_verify_reports_an_augmented_target(cube_cover, k4):
    target = MetricGraph(
        [("A", 1), "B", "C", "D"],
        [(e, *k4.ends(e), k4.length(e)) for e in k4.edge_ids],
    )
    cover = DoubleCover(cube_cover.frame._replace(target=target), cube_cover.source)
    report = verify_cover(cover)
    assert not report.ok and "target is augmented" in report.problems


def test_divisor_transport_refuses_a_divisor_of_another_graph(cube_cover, k4):
    on_target = Divisor(k4, [(Point.at_vertex("A"), 1)])
    on_source = Divisor(cube_cover.source, [(Point.at_vertex("A^0"), 1)])
    with pytest.raises(CoverError, match="cover target"):
        pullback(cube_cover, on_source)
    with pytest.raises(CoverError, match="virtualized source"):
        pushforward(cube_cover, on_target)
    with pytest.raises(CoverError, match="virtualized source"):
        involution_divisor(cube_cover, on_target)


def test_verify_reports_an_involution_that_swaps_fibers(cube_cover):
    # A^0 <-> B^1 is involutive but swaps points over different vertices
    frame = tampered(cube_cover.frame, "involution_v", "A^0", "B^1")
    frame = tampered(frame, "involution_v", "B^1", "A^0")
    report = verify_cover(DoubleCover(frame, cube_cover.source))
    assert "involution does not commute with the cover at 'A^0'" in report.problems


def test_cover_class_refuses_a_vertex_without_two_lifts(cube_cover):
    obj = cover_to_obj(cube_cover)
    obj["vertex_map"]["A^1"] = "B"
    with pytest.raises(CoverError, match="^vertex 'A' has 1 lifts$"):
        cover_class(cover_from_obj(obj))
