"""Library invariants raise typed errors, so they still hold under python -O."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcover import Point, SlopeError, distance_field, divisors, graphs, jacobian
from tropcover.graphs import ShortestPaths

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tropcover")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def test_no_assert_in_the_library():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append("%s:%d" % (name, node.lineno))
    assert not found


def test_no_import_inside_a_function_in_the_library():
    # every module imports at its top, so the import graph is the one the
    # module headers show and a patched binding is the one that is called
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append("%s:%d" % (name, node.lineno))
    assert not found


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # every CLI call pays the package import; dataclasses pulls in inspect,
    # ast, dis and tokenize, and the records are namedtuples instead
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, os.pardir))
    code = (
        "import sys, tropcover, tropcover.cli, tropcover.serialize; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_corrupted_distance_field_fails_the_slope_check(k4):
    field = distance_field(k4, Point.at_vertex("A"))
    field.values[field.refinement.index(Point.at_vertex("B"))] += 1
    with pytest.raises(SlopeError):
        field._check_slopes()


MID_AB = Point.on_edge("AB", Fraction(1, 2))


@pytest.mark.parametrize(
    "source, vertex, delta, message",
    [
        ("A", "B", 1, "rise by"),  # AB rises by 2
        ("A", "B", -1, "no segment descends"),  # B as near as A: no tight segment
        ("A", "A", 1, "at a source vertex"),
        (frozenset(["BC", "BD", "CD"]), "A", -1, "no segment descends"),
        (frozenset(["BC", "BD", "CD"]), "B", 1, "at a source vertex"),
        # AB@1/2 is cut into halves: distances in half units, A at 1, C at 3
        (MID_AB, "A", 1, "rise by"),
        (MID_AB, "C", -1, "no segment descends"),
        (MID_AB, MID_AB, 1, "at a source vertex"),
    ],
    ids=[
        "longer",
        "shorter",
        "point-seed",
        "cycle-off",
        "cycle-seed",
        "interior-longer",
        "interior-shorter",
        "interior-seed",
    ],
)
def test_corrupted_pass_distance_fails_the_certificate(k4, source, vertex, delta, message):
    if isinstance(source, str):
        source = Point.at_vertex(source)
    if isinstance(vertex, str):
        vertex = Point.at_vertex(vertex)
    paths = ShortestPaths(k4, source)
    paths.dist[paths.refinement.index(vertex)] += delta
    with pytest.raises(SlopeError, match=message):
        paths._check()


def test_every_name_the_benchmark_traces_is_bound():
    # the benchmark's tracer wraps each name of its LAYERS in its tropcover
    # module, and refine in every module that binds it: a dropped name fails
    # here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (mod, name)
        for mod, names in tracer.LAYERS.items()
        for name in names
        if not hasattr(importlib.import_module("tropcover." + mod), name)
    ]
    assert not missing
    assert jacobian.refine is graphs.refine and divisors.refine is graphs.refine
    # the tracer's own test nests a MetricGraph span under refine's
    g = graphs.MetricGraph(["a"], [("l", "a", "a", 1)])
    tr = tracer.Tracer()
    tr.install()
    try:
        graphs.refine(g, [])
    finally:
        tr.uninstall()
    names = [s[3] for s in tr.spans]
    assert names[0] == "graphs.refine" and tr.spans[names.index("graphs.MetricGraph")][2] == 0
