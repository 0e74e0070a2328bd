"""Parsing, formatting, and integer-scaling helpers for exact rationals.

Every utility and coordinate in this package is an exact rational, held
as integers over one common denominator (`ScaledInts`) and read as
`fractions.Fraction` views: a problem, grid or profile built from
integers makes its public `Fraction` fields only when they are first
read (`_FractionView`, which also makes an oracle report's value table
and trace, a margin report's `eta_star` and a spatial witness trace's
`Fraction` fields, on first read), and kernels run on the integers
themselves (numpy int64 arrays when the values fit, object arrays of
Python ints otherwise).  A family is built from rows of rationals, from
integer rows over a denominator, or from a 2-D integer array that it
keeps (`ScaledInts.from_scaled`); a view always holds Python ints.
Serialized form is "p/q" (reduced) or a plain integer string; decimal
strings such as "0.5" are accepted on input and normalized.  Every count,
size, index, horizon and budget is read by one reader, `parse_whole`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
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

    `scale` is the common denominator: each stored integer equals the
    original value times `scale`, exactly.  `vectors` mirrors the input
    nesting as tuples of ints, and `array` holds the same rows as one 2-D
    array; whichever the family was not built from is made on first read.
    `as_numpy` is set when all magnitudes fit comfortably in int64
    (differences of two values still fit), and `array` is int64 exactly
    then, object dtype of Python ints otherwise.
    """

    def __init__(self, vectors):
        values = [f for row in vectors for f in row]
        inexact = [f for f in values
                   if type(f) is bool or not isinstance(f, (int, Fraction))]
        if inexact:
            raise ValidationError(
                f"refusing {inexact[0]!r}: exact values are ints or Fractions")
        scale = lcm(*(f.denominator for f in values)) if values else 1
        self._fill(scale, [scaled_numerators(row, scale) for row in vectors])

    @classmethod
    def from_scaled(cls, vectors, denominator: int) -> "ScaledInts":
        """The family `v / denominator` for the integers v of `vectors`,
        without a `Fraction`: equal, field for field, to `ScaledInts` of
        those rationals.  `vectors` is a list of integer rows or a 2-D
        integer array (int64, or object dtype of Python ints), which is
        kept as `array`.  The lcm of their reduced denominators is
        denominator / g for g = gcd(denominator, every v), so one division
        by g puts every integer on that scale; when g is 1 they are on it
        already.  An array takes one `np.gcd.reduce` and one abs-max peak,
        read as Python ints (in object dtype when the peak is past
        `_INT64_SAFE`, so no int64 step can overflow)."""
        out = cls.__new__(cls)
        if not isinstance(vectors, np.ndarray):
            g = gcd(denominator, *chain.from_iterable(vectors))
            out._fill(denominator // g, [tuple(v // g for v in row) for row in vectors]
                      if g > 1 else [tuple(row) for row in vectors])
            return out
        peak = max(int(vectors.max(initial=0)), -int(vectors.min(initial=0)))
        if peak >= _INT64_SAFE:
            vectors = vectors.astype(object)
        g = gcd(denominator, int(np.gcd.reduce(vectors, axis=None)))
        out.scale, out.as_numpy, out._vectors = denominator // g, peak // g < _INT64_SAFE, None
        out._array = (vectors // g).astype(_int_dtype(peak // g), copy=False)
        return out

    def _fill(self, scale: int, vectors: list) -> None:
        peak = max(map(abs, chain.from_iterable(vectors)), default=0)
        self.scale, self.as_numpy = scale, peak < _INT64_SAFE
        self._vectors, self._array = vectors, None

    @property
    def vectors(self) -> list:
        """The rows as tuples of Python ints."""
        if self._vectors is None:
            self._vectors = list(map(tuple, self._array.tolist()))
        return self._vectors

    @property
    def array(self) -> np.ndarray:
        """The rows as one 2-D array: int64 when `as_numpy`, else Python ints."""
        if self._array is None:
            self._array = np.array(self._vectors, dtype=np.int64 if self.as_numpy else object)
        return self._array

    @property
    def rows(self):
        """The rows as the family holds them, `vectors` or `array`, so that
        their count and lengths are read without making the other form."""
        return self._array if self._vectors is None else self._vectors


def fraction_rows(vectors, denominator: int) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of rationals `v / denominator` for the integers v of `vectors`."""
    return tuple(tuple(Fraction(v, denominator) for v in row) for row in vectors)


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
