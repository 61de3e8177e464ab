"""CLI behavior: round-trips, exit codes, determinism, golden files."""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from tropcover import covers, enumerate_theta, serialize
from tropcover.cli import main
from tropcover.rationals import rat
from conftest import build_k4, random_graph
from oracles import tree_abel_jacobi

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")
K4 = os.path.join(DATA, "k4.json")
ZERO = os.path.join(DATA, "zero.json")


def run(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, buf.getvalue(), err.getvalue()


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def test_validate(tmp_path):
    code, out, _ = run("validate", K4)
    assert code == 0
    assert json.loads(out)["genus"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":[{"id":"a"},{"id":"a"}],"edges":[]}')
    code, _, err = run("validate", str(bad))
    assert code == 2 and err
    bad.write_text('{"vertices":[{"id":"a"},{"id":"b"}],"edges":[]}')
    assert run("validate", str(bad)) == (2, "", "error: disconnected\n")


def test_validate_reports_what_the_graph_model_rejects(tmp_path):
    for vertex, length, message in (
        ('{"id":"a","genus":1.5}', '"1"', "genus at 'a' is not a nonnegative integer"),
        ('{"id":"a","genus":"2"}', '"1"', "genus at 'a' is not a nonnegative integer"),
        ('{"id":"a"}', "1.5", "edge 'e' has unparseable length"),
        ('{"id":"a"}', '"x"', "edge 'e' has unparseable length"),
        ('{"id":"a"}', '"0"', "edge 'e' has nonpositive length"),
    ):
        f = tmp_path / "g.json"
        f.write_text(
            '{"vertices":[%s],"edges":[{"id":"e","tail":"a","head":"a","length":%s}]}'
            % (vertex, length)
        )
        code, out, err = run("validate", str(f))
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_json_booleans_are_not_integers(tmp_path):
    # Python counts true as the int 1; a graph, divisor or cover file does not
    with open(K4) as fh:
        k4 = fh.read()
    cube = golden("k4_cube.json")
    cases = {
        "length": (k4.replace('"length":"1"', '"length":true', 1), ("validate",)),
        "genus": (k4.replace('"genus":0', '"genus":true', 1), ("validate",)),
        "coeff": (
            '[{"at":{"vertex":"A"},"coeff":true},{"at":{"vertex":"B"},"coeff":-1}]',
            ("divisor", "principal", K4),
        ),
        "degree": (cube.replace('"degree":1', '"degree":true', 1), ("cover", "verify")),
    }
    for name, (text, argv) in cases.items():
        assert "true" in text
        f = tmp_path / ("%s.json" % name)
        f.write_text(text)
        code, out, err = run(*argv, str(f))
        assert (code, out) == (2, ""), (name, err)


def test_malformed_json_exits_2(tmp_path):
    f = tmp_path / "nope.json"
    f.write_text("{not json")
    code, _, err = run("validate", str(f))
    assert code == 2
    code, _, err = run("theta", str(tmp_path / "missing.json"))
    assert code == 2


def test_theta_golden_and_deterministic():
    code, out1, _ = run("theta", K4)
    code2, out2, _ = run("theta", K4)
    assert code == code2 == 0
    assert out1 == out2 == golden("k4_theta.jsonl")
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) == 8
    assert sum(1 for r in records if r["effective"]) == 7


def test_pair_golden_and_deterministic():
    code, out1, _ = run("pair", K4)
    _, out2, _ = run("pair", K4)
    assert code == 0 and out1 == out2 == golden("k4_pair.json")
    obj = json.loads(out1)
    assert len(obj["table"]) == 8
    # the all-ones (cube) row pairs 1 with triangles, 0 with squares
    cube_row = obj["table"][7]
    for cycle, bit in zip(obj["cycles"], cube_row):
        assert bit == (1 if len(cycle) == 3 else 0)


def test_cover_golden_and_deterministic():
    code, out1, _ = run("cover", "free", K4)
    _, out2, _ = run("cover", "free", K4)
    assert code == 0 and out1 == out2 == golden("k4_cover_free.jsonl")
    assert len(out1.splitlines()) == 8

    code, cube, _ = run("cover", "free", K4, "--bits", "111")
    assert code == 0 and cube == golden("k4_cube.json")

    code, tri, _ = run("cover", "dilated", K4, "--cycle", "BC,BD,CD")
    assert code == 0 and tri == golden("k4_cover_dilated_triangle.json")


def test_cover_round_trip_verify(tmp_path):
    _, cube, _ = run("cover", "free", K4, "--bits", "111")
    f = tmp_path / "cube.json"
    f.write_text(cube)
    code, out, _ = run("cover", "verify", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["dilation"] == [] and rep["problems"] == []
    # and the parsed cover serializes back to the same bytes
    reparsed = serialize.cover_from_obj(serialize.loads(cube))
    assert serialize.dumps(serialize.cover_to_obj(reparsed)) == cube


def test_divisor_and_jac_commands(tmp_path):
    code, out, _ = run("divisor", "equiv", K4, ZERO, ZERO)
    assert code == 0 and out == "true\n"
    code, out, _ = run("divisor", "principal", K4, ZERO)
    assert code == 0 and out == "true\n"
    one = tmp_path / "one.json"
    one.write_text('[{"at":{"vertex":"A"},"coeff":1},{"at":{"vertex":"B"},"coeff":-1}]')
    code, out, _ = run("divisor", "principal", K4, str(one))
    assert code == 0 and out == "false\n"
    code, out, _ = run("divisor", "reduce", K4, str(one), "--at", "A")
    assert code == 0
    assert json.loads(out)  # some nonempty reduced divisor
    code, out, _ = run("jac", K4, str(one))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["coords"]) == 3 and obj["basis"] == "fundamental"


def test_user_ids_shaped_like_generated_ids(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(
        '{"vertices":[{"id":"A"},{"id":"B"},{"id":"f@3"}],"edges":['
        '{"id":"e","tail":"A","head":"B","length":"2"},'
        '{"id":"f","tail":"A","head":"B","length":"4"},'
        '{"id":"x","tail":"B","head":"f@3","length":"1"}]}'
    )
    code, out, _ = run("theta", str(g))
    assert code == 0 and len(out.splitlines()) == 2
    d = tmp_path / "d.json"
    d.write_text('[{"at":{"vertex":"f@3"},"coeff":1}]')
    # --at names the vertex f@3, not offset 3 on edge f
    code, out, _ = run("divisor", "reduce", str(g), str(d), "--at", "f@3")
    assert code == 0 and json.loads(out) == [{"at": {"vertex": "f@3"}, "coeff": 1}]
    code, out, _ = run("divisor", "reduce", str(g), str(d), "--at", "f@1/2")
    assert code == 0 and json.loads(out) == [{"at": {"vertex": "B"}, "coeff": 1}]
    code, _, err = run("divisor", "reduce", str(g), str(d), "--at", "f@x")
    assert code == 2 and err


def test_at_off_the_graph_exits_2(tmp_path):
    # a point the graph does not have is malformed input, as in a divisor file
    for spec in ("zz", "XX@1/2", "AB@3", "AB@1/0"):
        code, _, err = run("divisor", "reduce", K4, ZERO, "--at", spec)
        assert code == 2 and err.startswith("error: --at:"), spec
    bad = tmp_path / "d.json"
    bad.write_text('[{"at":{"edge":"AB","offset":"3"},"coeff":1}]')
    code, _, _ = run("divisor", "reduce", K4, str(bad), "--at", "A")
    assert code == 2


def test_cycle_off_the_graph_exits_2():
    # an unknown edge is malformed input, as for --at and --bits
    code, out, err = run("cover", "dilated", K4, "--cycle", "BC,BD,XX")
    assert (code, out, err) == (2, "", "error: --cycle: unknown edge 'XX'\n")
    # known edges that do not form an even subgraph stay a domain error
    code, out, err = run("cover", "dilated", K4, "--cycle", "BC,BD")
    assert code == 3 and out == "" and "is not an even subgraph" in err


def test_jac_coordinates_follow_the_printed_tree(tmp_path):
    """jac prints the tree-path pairing over the tree it prints, also for
    divisors supported inside edges (two-torsion L_c - L_0)."""
    fractional = tmp_path / "g.json"
    fractional.write_text(
        serialize.dumps(serialize.graph_to_obj(random_graph(random.Random(5), min_genus=2)))
    )
    checked = 0
    for path in (K4, str(fractional)):
        with open(path) as fh:
            graph = serialize.graph_from_obj(json.load(fh))
        chars = enumerate_theta(graph)
        for t in chars[1:]:
            D = t.divisor - chars[0].divisor
            div = tmp_path / "d.json"
            div.write_text(serialize.dumps(serialize.divisor_to_obj(D)))
            code, out, _ = run("jac", path, str(div))
            assert code == 0
            obj = json.loads(out)
            coords = [Fraction(c) for c in obj["coords"]]
            assert coords == tree_abel_jacobi(graph, D, set(obj["tree"])), (path, t.cycle)
            checked += any(not p.is_vertex for p in D.support())
    assert checked >= 8


CUBE = os.path.join(GOLDEN, "k4_cube.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["divisor", "equiv", K4, ZERO], "divisor equiv needs two divisor files"),
        (["divisor", "reduce", K4, ZERO], "divisor reduce needs --at"),
        (["cover", "pullback", CUBE], "cover pullback needs a divisor file"),
        (["cover", "dilated", K4], "cover dilated needs --cycle"),
        (["cover", "dilated", K4, "--cycle", ""], "cover dilated needs --cycle"),
        (["prym", "contains", CUBE], "prym contains needs a divisor file"),
        (["divisor", "principal", K4, ZERO, ZERO], "divisor principal needs one divisor file"),
        (["divisor", "equiv", K4, ZERO, ZERO, "--at", "A"], "divisor equiv does not take --at"),
        (["divisor", "principal", K4, ZERO, "--at", "A"], "divisor principal does not take --at"),
        (["cover", "free", K4, "--cycle", "BC,BD,CD"], "cover free does not take --cycle"),
        (["cover", "free", K4, ZERO], "cover free does not take a divisor file"),
        (["cover", "dilated", K4, "--cycle", "BC,BD,CD", "--bits", "111"],
         "cover dilated does not take --bits"),
        (["cover", "verify", CUBE, ZERO], "cover verify does not take a divisor file"),
        (["cover", "pullback", CUBE, ZERO, "--bits", "111"], "cover pullback does not take --bits"),
        (["cover", "pushforward", CUBE, ZERO, "--cycle", "BC"],
         "cover pushforward does not take --cycle"),
        (["prym", "components", CUBE, ZERO], "prym components does not take a divisor file"),
    ],
    ids=[
        "equiv-one-file",
        "reduce-without-at",
        "pullback-without-divisor",
        "dilated-without-cycle",
        "dilated-with-empty-cycle",
        "contains-without-divisor",
        "principal-two-files",
        "equiv-with-at",
        "principal-with-at",
        "free-with-cycle",
        "free-with-divisor",
        "dilated-with-bits",
        "verify-with-divisor",
        "pullback-with-bits",
        "pushforward-with-cycle",
        "components-with-divisor",
    ],
)
def test_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_degree_precondition_exits_3(tmp_path):
    bad = tmp_path / "deg1.json"
    bad.write_text('[{"at":{"vertex":"A"},"coeff":1}]')
    code, _, err = run("jac", K4, str(bad))
    assert code == 3 and err


def test_prym_cli(tmp_path):
    _, cube, _ = run("cover", "free", K4, "--bits", "111")
    f = tmp_path / "cube.json"
    f.write_text(cube)
    code, out, _ = run("prym", "components", str(f))
    assert code == 0 and out == "2\n"
    div = tmp_path / "d.json"
    div.write_text(
        '[{"at":{"edge":"BC^1","offset":"1/2"},"coeff":1},'
        '{"at":{"edge":"AD^1","offset":"1/2"},"coeff":1},'
        '{"at":{"edge":"AD^0","offset":"1/2"},"coeff":-1},'
        '{"at":{"edge":"BC^0","offset":"1/2"},"coeff":-1}]'
    )
    code, out, _ = run("prym", "contains", str(f), str(div))
    assert code == 0 and out == "true\n"
    # a divisor outside the kernel of the pushforward: precondition (exit 3)
    off = tmp_path / "off.json"
    off.write_text(
        '[{"at":{"vertex":"A^0"},"coeff":1},{"at":{"vertex":"B^0"},"coeff":-1}]'
    )
    code, _, err = run("prym", "contains", str(f), str(off))
    assert code == 3 and err


def test_pair_rejects_augmented_graph(tmp_path):
    f = tmp_path / "aug.json"
    f.write_text(
        '{"vertices":[{"id":"w","genus":1}],'
        '"edges":[{"id":"l","tail":"w","head":"w","length":"1"}]}'
    )
    code, _, err = run("pair", str(f))
    assert code == 3 and err


def test_pretty_outputs():
    code, out, _ = run("--pretty", "pair", K4)
    assert code == 0 and "{BC,BD,CD}" in out
    code2, out2, _ = run("pair", "--pretty", K4)
    assert code2 == 0 and out2 == out
    code, out, _ = run("theta", "--pretty", K4)
    assert code == 0 and "non-effective" in out


def test_out_flag(tmp_path):
    dest = tmp_path / "o.json"
    code, out, _ = run("pair", K4, "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == golden("k4_pair.json")


@pytest.mark.parametrize("where", ["missing/o.json", "."])
def test_out_to_a_path_that_cannot_be_opened_exits_2(tmp_path, where):
    # a file in a directory that does not exist, and a directory
    dest = tmp_path / where
    code, out, err = run("pair", K4, "--out", str(dest))
    assert (code, out) == (2, "")
    assert err.startswith("error: --out: ") and str(dest) in err and err.count("\n") == 1


def test_a_file_that_is_not_utf8_exits_2_naming_the_path(tmp_path):
    with open(K4, "rb") as fh:
        k4 = fh.read()
    bad = tmp_path / "latin1.json"
    bad.write_bytes(k4.replace(b'"A"', b'"\xc4"'))
    for argv in (("validate", str(bad)), ("divisor", "principal", K4, str(bad))):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: %s: " % bad) and "utf-8" in err


def test_export_dot(tmp_path):
    code, out, _ = run("export", "dot", K4)
    assert code == 0
    assert out.startswith("graph {") and '"A" -- "B"' in out
    div = tmp_path / "d.json"
    div.write_text('[{"at":{"edge":"BC","offset":"1/2"},"coeff":1}]')
    code, out, _ = run("export", "dot", K4, str(div))
    assert code == 0 and "points=" in out


def test_export_dot_quotes_labels_and_marks_vertex_genus(tmp_path):
    # a double quote in an edge or vertex id stays inside its label
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": 'A"x', "genus": 1}, {"id": "B"}],
        "edges": [{"id": 'e"]; x [', "tail": 'A"x', "head": "B", "length": "2"}],
    }))
    div = tmp_path / "d.json"
    div.write_text(json.dumps([{"at": {"vertex": 'A"x'}, "coeff": 1}, {"at": {"vertex": "B"}, "coeff": -1}]))
    code, out, _ = run("export", "dot", str(graph), str(div))
    assert (code, out) == (0, "\n".join([
        "graph {",
        '  "A\\"x" [genus=1, label="A\\"x (+1)"];',
        '  "B" [label="B (-1)"];',
        '  "A\\"x" -- "B" [label="e\\"]; x [", len="2"];',
        "}",
        "",
    ]))


def test_validate_pretty():
    code, out, _ = run("validate", "--pretty", K4)
    assert (code, out) == (0, "valid graph: 4 vertices, 6 edges, genus 3\n")


def test_cover_pullback_and_pushforward(tmp_path):
    # pullback prints covers.pullback; pushing it forward gives 2 D
    cube = tmp_path / "cube.json"
    cube.write_text(golden("k4_cube.json"))
    cover = serialize.cover_from_obj(json.loads(golden("k4_cube.json")))
    div = tmp_path / "d.json"
    div.write_text(
        '[{"at":{"vertex":"A"},"coeff":2},{"at":{"edge":"BC","offset":"1/3"},"coeff":-1},'
        '{"at":{"vertex":"D"},"coeff":-1}]'
    )
    D = serialize.divisor_from_obj(cover.target, json.loads(div.read_text()))
    code, out, _ = run("cover", "pullback", str(cube), str(div))
    assert code == 0
    assert json.loads(out) == serialize.divisor_to_obj(covers.pullback(cover, D))
    up = tmp_path / "up.json"
    up.write_text(out)
    code, out, _ = run("cover", "pushforward", str(cube), str(up))
    assert code == 0
    assert json.loads(out) == serialize.divisor_to_obj(2 * D)


def test_graph_json_round_trip():
    k4 = build_k4()
    obj = serialize.graph_to_obj(k4)
    again = serialize.graph_from_obj(obj)
    assert serialize.graph_to_obj(again) == obj
    assert again.same_model(k4)


@pytest.mark.parametrize("image", ["nowhere", "A"])
def test_cover_verify_reports_a_vertex_map_entry_off_the_source(tmp_path, image):
    obj = json.loads(golden("k4_cube.json"))
    obj["vertex_map"]["ghost"] = image
    f = tmp_path / "ghost.json"
    f.write_text(json.dumps(obj))
    code, out, _ = run("cover", "verify", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is False
    assert any("'ghost'" in msg for msg in rep["problems"]), rep["problems"]


def test_malformed_cover_and_divisor_files_exit_2(tmp_path):
    # what the maps or the points get wrong is malformed input; a fault in
    # the library itself is not caught as one
    obj = json.loads(golden("k4_cube.json"))
    for rec in obj["edge_map"]:
        if rec["src"] == "AB^0":
            rec["tgt"] = "AC"
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(obj))
    code, out, err = run("cover", "verify", str(cover))
    assert (code, out, err) == (2, "", "error: cover: edge 'AC' has 3 lifts\n")
    divisor = tmp_path / "d.json"
    divisor.write_text('[{"at":{"edge":"AB","offset":"5"},"coeff":1}]')
    code, out, err = run("divisor", "principal", K4, str(divisor))
    assert (code, out, err) == (2, "", "error: divisor[0]: point is not on the graph\n")


def _cube_with(value, *path):
    """The cube cover file with the entry at path set to value."""
    obj = json.loads(golden("k4_cube.json"))
    *outer, last = path
    node = obj
    for key in outer:
        node = node[key]
    node[last] = value
    return json.dumps(obj)


def _cube_off_the_source(kind):
    """The cube cover file with its edge map naming a deleted source edge,
    or its involution swapping a source vertex with a non-source one."""
    obj = json.loads(golden("k4_cube.json"))
    if kind == "edge-map":
        obj["source"]["edges"] = [e for e in obj["source"]["edges"] if e["id"] != "AB^0"]
    else:
        obj["involution"].update({"A^0": "Z", "Z": "A^0"})
    return json.dumps(obj)


OFF_THE_SOURCE = pytest.mark.parametrize(
    "kind, problem",
    [
        ("edge-map", "edge map names 'AB^0', which is not a source edge"),
        ("involution", "involution names 'Z', which is not a source vertex"),
    ],
    ids=["edge-map", "involution"],
)


@OFF_THE_SOURCE
def test_cover_verify_reports_map_entries_off_the_source(tmp_path, kind, problem):
    f = tmp_path / "cover.json"
    f.write_text(_cube_off_the_source(kind))
    code, out, err = run("cover", "verify", str(f))
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["ok"] is False and rep["problems"][0] == problem


@OFF_THE_SOURCE
def test_verbs_that_use_a_cover_refuse_one_that_fails_verification(tmp_path, kind, problem):
    f = tmp_path / "cover.json"
    f.write_text(_cube_off_the_source(kind))
    div = tmp_path / "d.json"
    div.write_text('[{"at":{"vertex":"A^1"},"coeff":1},{"at":{"vertex":"B^1"},"coeff":-1}]')
    for argv in (
        ("prym", "components", str(f)),
        ("prym", "contains", str(f), str(div)),
        ("cover", "pullback", str(f), str(div)),
        ("cover", "pushforward", str(f), str(div)),
    ):
        assert run(*argv) == (2, "", "error: cover: %s\n" % problem), argv


@pytest.mark.parametrize(
    "text, argv, message",
    [
        pytest.param(
            '[{"at":%s,"coeff":1}]' % at,
            ("divisor", "principal", K4),
            "divisor[0]: 'at' must be an object",
            id="at-%s" % at,
        )
        for at in ("5", "null")
    ]
    + [
        pytest.param(
            _cube_with(value, key),
            ("cover", "verify"),
            "cover: %r must be an object" % key,
            id="%s-%s" % (key, json.dumps(value)),
        )
        for key in ("vertex_map", "involution")
        for value in ([], None, 5)
    ]
    + [
        pytest.param(
            _cube_with(value, "edge_map"),
            ("cover", "verify"),
            "cover: 'edge_map' must be a list",
            id="edge_map-%s" % json.dumps(value),
        )
        for value in (5, None)
    ]
    + [
        pytest.param(
            '{"vertices":5,"edges":[]}',
            ("validate",),
            "graph: 'vertices' must be a list",
            id="vertices-5",
        ),
        pytest.param(
            '{"vertices":[{"id":"a"}],"edges":null}',
            ("theta",),
            "graph: 'edges' must be a list",
            id="edges-null",
        ),
    ]
    + [
        pytest.param(
            '{"vertices":[],"edges":[]}',
            (verb,),
            "graph: 'vertices' is empty",
            id="empty-%s" % verb,
        )
        for verb in ("validate", "theta", "pair")
    ]
    # ids are JSON strings: str() would read ["a"] as a vertex and 1 as "1"
    + [
        pytest.param(
            '{"vertices":[{"id":%s},{"id":"1"}],"edges":[]}' % vid,
            ("validate",),
            "vertices[0]: 'id' must be a string",
            id="vertex-id-%s" % vid,
        )
        for vid in ('["a"]', "1", "null")
    ]
    + [
        pytest.param(
            '{"vertices":[{"id":"a"}],"edges":[%s]}'
            % json.dumps(dict({"id": "e", "tail": "a", "head": "a", "length": "1"}, **{key: 0})),
            ("validate",),
            "edges[0]: %r must be a string" % key,
            id="edge-%s-0" % key,
        )
        for key in ("id", "tail", "head")
    ]
    + [
        pytest.param(
            '[{"at":%s,"coeff":1}]' % at,
            ("divisor", "principal", K4),
            "divisor[0]: %r must be a string" % key,
            id="divisor-%s-1" % key,
        )
        for key, at in (("vertex", '{"vertex":1}'), ("edge", '{"edge":1,"offset":"1/2"}'))
    ]
    + [
        pytest.param(
            _cube_with(1, "edge_map", 0, key),
            ("cover", "verify"),
            "edge_map[0]: %r must be a string" % key,
            id="edge_map-%s-1" % key,
        )
        for key in ("src", "tgt")
    ]
    + [
        pytest.param(
            _cube_with(None, key, "A^0"),
            ("cover", "verify"),
            "%s: the image of 'A^0' must be a string" % key,
            id="%s-image-null" % key,
        )
        for key in ("vertex_map", "involution")
    ]
    # a fault in either graph of a cover names the graph
    + [
        pytest.param(
            _cube_with({"vertices": [], "edges": []}, "target"),
            ("cover", "verify"),
            "cover: target: graph: 'vertices' is empty",
            id="cover-target-empty",
        ),
        pytest.param(
            _cube_with(1, "source", "vertices", 0, "id"),
            ("cover", "verify"),
            "cover: source: vertices[0]: 'id' must be a string",
            id="cover-source-id-1",
        ),
        pytest.param(
            _cube_with("A^0", "source", "vertices", 1, "id"),
            ("cover", "verify"),
            "cover: source: duplicate vertex id 'A^0'",
            id="cover-source-duplicate",
        ),
        # an edge map names each source edge once: a first record sending
        # AB^0 to CD was silently replaced by the real AB^0 -> AB
        pytest.param(
            _cube_with(
                [{"src": "AB^0", "tgt": "CD", "degree": 1}]
                + json.loads(golden("k4_cube.json"))["edge_map"],
                "edge_map",
            ),
            ("cover", "verify"),
            "edge_map[1]: duplicate src 'AB^0'",
            id="edge_map-duplicate-src",
        ),
        # an 'at' names a vertex or an edge, not both: vertex A was read
        pytest.param(
            '[{"at":{"vertex":"A","edge":"AB","offset":"1/2"},"coeff":1},'
            '{"at":{"vertex":"B"},"coeff":-1}]',
            ("jac", K4),
            "divisor[0]: 'at' names both a vertex and an edge",
            id="at-vertex-and-edge",
        ),
    ],
)
def test_malformed_json_shapes_exit_2_naming_the_field(tmp_path, text, argv, message):
    # each shape crashed with a TypeError, AttributeError or IndexError
    # (exit 1), or validated an empty graph as ok
    f = tmp_path / "in.json"
    f.write_text(text)
    code, out, err = run(*argv, str(f))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_jac_tree_and_free_cover_bits_read_one_forest():
    # jac prints the spanning tree; --bits counts and names its complement
    code, out, _ = run("jac", K4, ZERO)
    assert code == 0 and json.loads(out)["tree"] == ["AB", "AC", "AD"]
    code, out, err = run("cover", "free", K4, "--bits", "1")
    assert (code, out) == (2, "")
    assert err == "error: --bits needs 3 binary digits (non-tree edges BC,BD,CD)\n"


def test_a_disconnected_graph_is_a_precondition_error(tmp_path):
    f = tmp_path / "two_loops.json"
    f.write_text(
        '{"vertices":[{"id":"a"},{"id":"b"}],"edges":['
        '{"id":"e","tail":"a","head":"a","length":"1"},'
        '{"id":"f","tail":"b","head":"b","length":"1"}]}'
    )
    for verb in ("theta", "pair"):
        code, out, err = run(verb, str(f))
        assert code == 3 and out == ""
        assert err == "error: graph is disconnected: 'b' is not reachable from the source\n"


def _parallel_edges(tmp_path, lengths, ids=("a", "b")):
    """A graph file: len(lengths) parallel edges between two vertices."""
    f = tmp_path / "parallel.json"
    a, b = ids
    edges = [
        {"id": "e%d" % i, "tail": a, "head": b, "length": ell}
        for i, ell in enumerate(lengths)
    ]
    f.write_text(json.dumps({"vertices": [{"id": a}, {"id": b}], "edges": edges}))
    return str(f)


def test_a_rational_with_an_exponent_exits_2(tmp_path):
    # Fraction reads "1e5000" as 10**5000: validate passed it, and theta and
    # cover free crashed printing it (exit 1)
    graph = _parallel_edges(tmp_path, ["1e5000", "1"])
    for argv in (("validate",), ("theta",), ("cover", "free")):
        code, out, err = run(*argv, graph)
        assert (code, out, err) == (2, "", "error: edge 'e0' has unparseable length\n")
    code, _, err = run("validate", _parallel_edges(tmp_path, ["1E2", "1"]))
    assert code == 2 and "unparseable length" in err
    bad = tmp_path / "d.json"
    bad.write_text('[{"at":{"edge":"AB","offset":"1e-1"},"coeff":1}]')
    code, _, err = run("divisor", "principal", K4, str(bad))
    assert code == 2 and "bad rational '1e-1'" in err
    code, _, err = run("divisor", "reduce", K4, ZERO, "--at", "AB@5e-1")
    assert code == 2 and err == "error: --at: bad offset '5e-1'\n"
    # a decimal without an exponent is still read exactly
    code, out, _ = run("validate", _parallel_edges(tmp_path, ["1.25", "1"]))
    assert code == 0
    assert rat("1.25") == Fraction(5, 4) and rat(" 3/6 ") == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1_0", "١", "1/٢", "１"])
def test_a_rational_with_a_digit_separator_or_non_ascii_digits_exits_2(tmp_path, text):
    # Fraction reads "1_0" as 10 and the Arabic-Indic one as 1: a length of
    # "1_0" validated as length 10
    code, out, err = run("validate", _parallel_edges(tmp_path, [text, "1"]))
    assert (code, out, err) == (2, "", "error: edge 'e0' has unparseable length\n")
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps([{"at": {"edge": "AB", "offset": text}, "coeff": 1}]))
    code, out, err = run("divisor", "principal", K4, str(bad))
    assert (code, out) == (2, "") and ("bad rational %r" % text) in err
    code, out, err = run("divisor", "reduce", K4, ZERO, "--at", "AB@" + text)
    assert (code, out, err) == (2, "", "error: --at: bad offset %r\n" % text)
    with pytest.raises(ValueError):
        rat(text)


def test_an_output_past_the_digit_limit_exits_2(tmp_path):
    # every input has fewer than 4,300 digits, but the theta divisors'
    # offsets have more: rat_str crashed (exit 1)
    graph = _parallel_edges(tmp_path, ["1/%d" % 2**8000, "1/%d" % 3**5000, "1"])
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run("validate", graph)[0] == 0
        code, out, err = run("theta", graph)
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert err == "error: a rational exceeds the 4300-digit limit for integer strings\n"


def test_theta_pretty_names_a_vertex_whose_id_is_empty(tmp_path):
    graph = _parallel_edges(tmp_path, ["1", "1", "1"], ids=("", "b"))
    code, out, err = run("theta", "--pretty", graph)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "cycle {}: -1 at  + 2 at b  [non-effective]"


def test_a_divisor_point_needs_a_vertex_or_an_edge(tmp_path):
    div = tmp_path / "d.json"
    div.write_text('[{"at":{"offset":"1/2"},"coeff":1}]')
    assert run("divisor", "principal", K4, str(div)) == (
        2, "", "error: divisor[0]: 'at' needs 'vertex' or 'edge'\n"
    )


def test_prym_questions_on_a_disconnected_target_exit_3(tmp_path):
    # the theta graph a-b and a loop at c: a free cover verifies, but the
    # Prym questions need a connected target
    graph = tmp_path / "g.json"
    edges = [{"id": e, "tail": "a", "head": "b", "length": "1"} for e in ("e1", "e2", "e3")]
    edges.append({"id": "l", "tail": "c", "head": "c", "length": "1"})
    graph.write_text(json.dumps({"vertices": [{"id": v} for v in "abc"], "edges": edges}))
    code, text, _ = run("cover", "free", str(graph), "--bits", "100")
    assert code == 0
    cover = tmp_path / "cover.json"
    cover.write_text(text)
    assert run("cover", "verify", str(cover))[1] == '{"dilation":[],"ok":true,"problems":[]}\n'
    div = tmp_path / "d.json"
    div.write_text('[{"at":{"vertex":"a^0"},"coeff":1},{"at":{"vertex":"a^1"},"coeff":-1}]')
    message = "error: prym questions need a connected target graph\n"
    assert run("prym", "components", str(cover)) == (3, "", message)
    assert run("prym", "contains", str(cover), str(div)) == (3, "", message)
