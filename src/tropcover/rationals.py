"""Parsing and formatting of exact rationals as "p/q" strings."""

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "n"), or Fraction to a Fraction.

    A bool is not a rational here, although Python counts it as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def rat_str(x: Fraction) -> str:
    """Lowest-terms string, "n" for integers, "p/q" otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
