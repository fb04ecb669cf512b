"""Scalars of the two computation modes.

Exact mode works on arbitrary-precision rationals, ``fractions.Fraction``,
met only where a value is read or printed.  A sampled point travels as an
:class:`IntegerPoint`, integer numerators over one positive denominator,
from the draw to the residual kernels, and a map's a, b and orthogonal
matrix A the same way, integers over one denominator each
(``MobiusMap.a_integers``, ``b_integers``, ``A_integers``); both residual
paths run their integer kernels on Python ints (see
:mod:`polyharm.residuals`) and meet a rational only once per output value
read.  A Fraction carries the scale k, and configured values until they are
cleared to integers; reports print integers as ``p/q`` text.  Float mode
uses plain doubles: an independent float route over the same formulas, also
read by the tests' finite-difference checks.

The mode is the scalar type of the point a computation runs at: it is exact
exactly when no input is a float (:func:`scalar_of`).  Only the command
modules name the mode, as the ``EXACT``/``FLOAT`` strings: ``verifier``,
``check``, ``selftest`` and ``cli`` take it and hand the evaluators float
coordinates in float mode, and ``report`` prints it.  The evaluators never
see it.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


def rational(value=0, den=None):
    """Build an exact rational from ints, strings like ``"p/q"``, or Fractions;
    a float or a bool is a TypeError (the kernels' ``den`` form is unchecked)."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (float, bool)):
        raise TypeError(f"{value!r} is not an exact rational: floats and bools are refused")
    return Fraction(value)


def parse_rational(text: str):
    """Parse ``"p"`` or ``"p/q"`` exactly."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_rational(value) -> str:
    """Canonical ``"p/q"`` form (lowest terms, positive denominator)."""
    return f"{value.numerator}/{value.denominator}"


def scalar_of(values) -> type:
    """``float`` when any value is a float, else ``Fraction``."""
    return float if any(isinstance(v, float) for v in values) else Fraction


def integer_vector(values) -> tuple[list, int]:
    """(N, D) with values = N/D: D the lcm of the denominators, N integers."""
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


class IntegerPoint:
    """The exact point x = N / den: m integer numerators over one denominator
    den > 0, not reduced.  Not a sequence, so that nothing reads it as m
    coordinates by mistake; ``fractions`` and ``floats`` read it explicitly.
    Points are equal when their (N, den) are."""

    __slots__ = ("N", "den")

    def __init__(self, N, den: int):
        self.N, self.den = tuple(N), den

    def fractions(self) -> tuple:
        """The coordinates as rationals, for reports."""
        return tuple(Fraction(n, self.den) for n in self.N)

    def floats(self) -> tuple:
        """n / den per coordinate: int/int true division rounds correctly, as
        ``float`` of the rational does, so the bits are the same."""
        return tuple(n / self.den for n in self.N)

    def __eq__(self, other):
        if not isinstance(other, IntegerPoint):
            return NotImplemented
        return self.N == other.N and self.den == other.den

    def __hash__(self):
        return hash((self.N, self.den))

    def __repr__(self):
        return f"IntegerPoint({self.N}, {self.den})"


def exact_point(x) -> IntegerPoint | None:
    """x as an IntegerPoint: itself when it is one, else its coordinates over
    the lcm of their denominators; None when a coordinate is a float."""
    if isinstance(x, IntegerPoint):
        return x
    if scalar_of(x) is float:
        return None
    return IntegerPoint(*integer_vector([rational(v) for v in x]))
