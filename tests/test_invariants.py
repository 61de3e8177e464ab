"""Library invariants raise typed errors, so they still hold under python -O."""

import ast
import os
from fractions import Fraction

import pytest

from tropcover import Point, SlopeError, distance_field

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tropcover")


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


def test_corrupted_distance_field_fails_the_slope_check(k4):
    field = distance_field(k4, Point.at_vertex("A"))
    field.values["B"] += 1
    with pytest.raises(SlopeError):
        field._check_slopes()


def test_corrupted_integer_distance_fails_the_slope_check(k4):
    field = distance_field(k4, Point.at_vertex("A"))
    field.scaled_values["B"] += 1
    with pytest.raises(SlopeError):
        field._check_slopes()
    # with the served value moved along, the slopes themselves are wrong
    field.values["B"] = Fraction(field.scaled_values["B"], field.scale)
    with pytest.raises(SlopeError, match="has slope"):
        field._check_slopes()
