"""Parsing, formatting, and integer-scaling helpers for exact rationals.

Every utility and coordinate in this package is an exact rational, held
in one 2-D integer array over one common denominator (`ScaledInts`) and
read as `fractions.Fraction` views: a problem, grid or profile built from
integers makes its public `Fraction` fields only when they are first
read (`_FractionView`, which also makes an oracle report's value table
and trace, a margin report's `eta_star` and a spatial witness trace's
`Fraction` fields, on first read), and kernels run on that array (int64
when the values fit, object dtype of Python ints otherwise).  A family
is built from rows of rationals, or from integer rows or a 2-D integer
array over a denominator (`ScaledInts.from_scaled`); a view always holds
Python ints.
Serialized form is "p/q" (reduced) or a plain integer string; decimal
strings such as "0.5" are accepted on input and normalized.  Every count,
size, index, horizon and budget is read by one reader, `parse_whole`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral
from typing import Any, Callable, Optional

import numpy as np

from .errors import ValidationError

_INT64_SAFE = 2**62


def parse_rational(text) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValidationError(f"refusing boolean {text!r}: pass a string or integer")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValidationError(
            f"refusing float {text!r}: pass a string or Fraction for exactness")
    if not isinstance(text, str):
        raise ValidationError(f"cannot parse rational from {type(text).__name__}")
    body = text.strip()
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed rational {text!r}: {exc}") from None


def parse_whole(value, what: str, least: int = 0, below: Optional[int] = None) -> int:
    """`value` as a plain int of at least `least` (and below `below`): any
    `Integral`, numpy's too; a bool, float or text value is refused."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValidationError(f"refusing {what} {value!r}: a {what} is a whole number")
        value = int(value)
    if below is not None and not least <= value < below:
        raise ValidationError(f"{what} {value} out of range {least}..{below - 1}")
    if value < least:
        raise ValidationError(f"{what} must be at least {least}, not {value}")
    return value


def parse_box(bounds) -> tuple[tuple[Fraction, Fraction], ...]:
    """Each (lo, hi) axis of a box through `parse_rational`, with lo < hi."""
    box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in bounds)
    for lo, hi in box:
        if hi <= lo:
            raise ValidationError(f"degenerate box axis [{lo}, {hi}]")
    return box


def format_rational(value: Fraction) -> str:
    """Canonical serialized form: integer string or reduced "p/q"."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _int_dtype(peak: int):
    """The dtype of integers no larger than `peak` in magnitude: int64 below
    `_INT64_SAFE`, where differences of two still fit, and object (Python
    ints) otherwise."""
    return np.int64 if peak < _INT64_SAFE else object


def scaled_numerators(values, scale: int) -> tuple[int, ...]:
    """Each rational times `scale`, exactly; every denominator must divide `scale`."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)


class ScaledInts:
    """A family of rationals rescaled onto one common integer grid.

    `scale` is the common denominator, and `array` holds the rows as one
    2-D integer array, each entry the original value times `scale`,
    exactly: int64 when every magnitude is below `_INT64_SAFE`
    (differences of two values still fit), object dtype of Python ints
    otherwise (`_int_dtype`).  Both constructors end in `_reduced`, one
    gcd and peak path for lists and arrays alike.  Rows of unequal
    lengths make no one array, so the caller refuses them first.
    """

    def __init__(self, rows):
        values = [f for row in rows for f in row]
        inexact = [f for f in values
                   if type(f) is bool or not isinstance(f, (int, Fraction))]
        if inexact:
            raise ValidationError(
                f"refusing {inexact[0]!r}: exact values are ints or Fractions")
        scale = lcm(*(f.denominator for f in values)) if values else 1
        self.scale, self.array = _reduced([scaled_numerators(row, scale) for row in rows], scale)

    @classmethod
    def from_scaled(cls, rows, denominator: int) -> "ScaledInts":
        """The family `v / denominator` for the integers v of `rows`, without
        a `Fraction`: equal, field for field, to `ScaledInts` of those
        rationals.  `rows` is a list of integer rows or a 2-D integer array
        (int64, or object dtype of Python ints); an int64 array that needs
        no reduction or widening is kept as `array` itself."""
        out = cls.__new__(cls)
        out.scale, out.array = _reduced(rows, denominator)
        return out


def _reduced(rows, denominator: int) -> tuple[int, np.ndarray]:
    """(scale, array) for the rationals `v / denominator`, v the integers of
    `rows` (a 2-D array, or a list of rows, read as int64 when every value
    fits and as Python ints otherwise).  The lcm of their reduced
    denominators is denominator / g for g = gcd(denominator, every v), so
    one division by g puts every integer on that scale, taken only when g
    is above 1.  One `np.gcd.reduce` and one max/min peak read the array,
    widened to Python ints when the peak is past `_INT64_SAFE`, so no
    int64 step can overflow."""
    if not isinstance(rows, np.ndarray):
        try:
            array = np.array(rows, dtype=np.int64)
        except OverflowError:                 # a value past int64: Python ints
            array = np.array(rows, dtype=object)
        rows = array.reshape(len(rows), len(rows[0]) if len(rows) else 0)
    peak = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    if peak >= _INT64_SAFE:
        rows = rows.astype(object, copy=False)
    g = gcd(denominator, int(np.gcd.reduce(rows, axis=None)))
    if g > 1:
        rows = rows // g
    return denominator // g, rows.astype(_int_dtype(peak // g), copy=False)


def fraction_rows(rows, denominator: int) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of rationals `v / denominator` for the integers v of `rows`."""
    return tuple(tuple(Fraction(v, denominator) for v in row) for row in rows)


class _FractionView:
    """A frozen dataclass field that a builder leaves unset: `make(instance)`
    reads it, on first access, from what the builder kept (the integers of
    a `Fraction` field, as for a problem's utilities, a profile's ideal
    points, a grid's points, a margin report's eta_star and a witness
    trace's geometry; a solve
    report's backward rows and int path for its value table and trace)
    and the instance keeps it, as with a `cached_property`.
    An instance made by the public constructor holds the field itself and
    never reaches the view.  Class access raises AttributeError, so the
    dataclass sees a field without a default and its signature, `==`,
    `hash` and `repr` are unchanged."""

    def __init__(self, make: Callable[[Any], Any]):
        self.make = make

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.name)
        value = self.make(instance)
        object.__setattr__(instance, self.name, value)
        return value


def _assemble(cls, **fields):
    """An instance of `cls` holding `fields`, made without `__init__`: a builder
    leaves the `_FractionView` fields unset, then runs the class's checks (a
    problem's or profile's `_compile`; a grid, a solve report, a margin
    report or a witness trace holds only what its builder computed)."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out
