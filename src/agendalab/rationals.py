"""Parsing, formatting, and integer-scaling helpers for exact rationals.

Every utility and coordinate in this package is an exact rational, held
as integers over one common denominator (`ScaledInts`) and read as
`fractions.Fraction` views: a problem, grid or profile built from
integers makes its public `Fraction` fields only when they are first
read (`_FractionView`), and kernels run on the integers themselves
(numpy int64 arrays when the values fit, Python ints otherwise).
Serialized form is "p/q" (reduced) or a plain integer string; decimal
strings such as "0.5" are accepted on input and normalized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Any, Callable

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


def scaled_numerators(values, scale: int) -> tuple[int, ...]:
    """Each rational times `scale`, exactly; every denominator must divide `scale`."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)


class ScaledInts:
    """A family of rationals rescaled onto one common integer grid.

    `scale` is the common denominator: each stored integer equals the
    original value times `scale`, exactly.  `vectors` mirrors the input
    nesting.  `as_numpy` is set when all magnitudes fit comfortably in
    int64 (differences of two values still fit).
    """

    def __init__(self, vectors):
        values = [f for row in vectors for f in row]
        inexact = [f for f in values if not isinstance(f, (int, Fraction))]
        if inexact:
            raise ValidationError(
                f"refusing {inexact[0]!r}: exact values are ints or Fractions")
        scale = lcm(*(f.denominator for f in values)) if values else 1
        self._fill(scale, [scaled_numerators(row, scale) for row in vectors])

    @classmethod
    def from_scaled(cls, vectors, denominator: int) -> "ScaledInts":
        """The family `v / denominator` for the integers v of `vectors`,
        without a `Fraction`: equal, field for field, to `ScaledInts` of
        those rationals.  The lcm of their reduced denominators is
        denominator / g for g = gcd(denominator, every v), so one division
        by g puts every integer on that scale."""
        g = gcd(denominator, *(v for row in vectors for v in row))
        out = cls.__new__(cls)
        out._fill(denominator // g, [tuple(v // g for v in row) for row in vectors])
        return out

    def _fill(self, scale: int, vectors: list) -> None:
        self.scale, self.vectors = scale, vectors
        peak = max((abs(v) for row in vectors for v in row), default=0)
        self.as_numpy = peak < _INT64_SAFE

    @cached_property
    def array(self) -> np.ndarray:
        """The vectors as one 2-D array: int64 when `as_numpy`, else Python ints."""
        return np.array(self.vectors, dtype=np.int64 if self.as_numpy else object)


def fraction_rows(vectors, denominator: int) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of rationals `v / denominator` for the integers v of `vectors`."""
    return tuple(tuple(Fraction(v, denominator) for v in row) for row in vectors)


class _FractionView:
    """A frozen dataclass field that a builder holding integers leaves
    unset: `make(instance)` reads it from those integers on first access
    and the instance keeps it, as with a `cached_property`.  An instance
    made by the public constructor holds the field itself and never
    reaches the view.  Class access raises AttributeError, so the
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
    holding integers leaves the `_FractionView` fields unset, then runs the checks."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out
