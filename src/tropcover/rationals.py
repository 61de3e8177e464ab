"""Parsing and formatting of exact rationals as "p/q" strings."""

import sys
from fractions import Fraction

from .errors import MalformedGraphError


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q", "n" or a decimal), or Fraction to a
    Fraction.  A bool is not a rational here, although Python counts it as
    an int.  A string with an exponent is a ValueError, since Fraction would
    build the power of ten before any check could bound it, and so is one
    with a digit separator or a non-ASCII character, which Fraction would
    read as digits ("1_0" as 10)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError("exponent in rational %r" % x)
        if "_" in x or not x.isascii():
            raise ValueError("digit separator or non-ASCII character in rational %r" % x)
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def rat_str(x: Fraction) -> str:
    """Lowest-terms string, "n" for integers, "p/q" otherwise."""
    try:
        return str(Fraction(x))
    except ValueError:  # a part past the int-to-string digit limit
        raise MalformedGraphError(
            "a rational exceeds the %d-digit limit for integer strings"
            % sys.get_int_max_str_digits()
        ) from None
