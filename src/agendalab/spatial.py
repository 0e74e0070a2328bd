"""Euclidean spatial profiles, the coplanarity test, and witness geometry.

Players evaluate a policy point by (half squared) Euclidean distance to
their ideal points.  The genericity condition checked here — no four
ideal points coplanar in any three-coordinate projection — guarantees
that every point other than the setter's ideal admits an improvement
backed by a strict voter majority.  `spatial_witness` builds one
constructively: it works in the tangent plane of the setter's
indifference surface, tilts toward a majority of projected voter
gradients, then perturbs off the plane along the setter's gradient.
All geometry is exact: the witness is built on integer numerators over
one common denominator, each step-size search runs on the exponent k of
a dyadic step 2**-k without evaluating a utility, and the final
inequalities are verified on the players' integer utilities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Optional

from .errors import InternalInvariantError, SpatialDegeneracyError, ValidationError
from .problems import CollectiveChoiceProblem, _scaled_problem
from .rationals import (ScaledInts, _assemble, _FractionView, fraction_rows, parse_box,
                        parse_rational, scaled_numerators)

COORD_DENOM = 2**20

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class SpatialProfile:
    """Ideal points for n voters (first) and the agenda setter (last).  A
    profile drawn by `gen_spatial` keeps its integers as `_ints`, and its
    `ideal_points` is a view of them, equal to what the constructor keeps."""

    dim: int
    ideal_points: tuple[Point, ...] = _FractionView(
        lambda profile: fraction_rows(profile._ints.vectors, profile._ints.scale))
    box: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        self._check(self.ideal_points)

    def _check(self, points) -> None:
        """Shape checks on the ideal points (`Fraction`s or `_ints` rows), and
        the box, which is kept parsed (`parse_box`)."""
        if self.dim < 1:
            raise ValidationError("dimension must be at least 1")
        if len(points) < 2:
            raise ValidationError("need at least one voter plus the setter")
        if any(len(p) != self.dim for p in points):
            raise ValidationError("ideal point dimension mismatch")
        if len(self.box) != self.dim:
            raise ValidationError("box bounds dimension mismatch")
        object.__setattr__(self, "box", parse_box(self.box))

    @property
    def n_voters(self) -> int:
        return len(self._ints.vectors) - 1

    @property
    def setter_ideal(self) -> Point:
        return self.ideal_points[-1]

    @cached_property
    def _ints(self) -> ScaledInts:
        """The ideal points as integer numerators over one denominator, compiled
        once unless drawn by `gen_spatial`: every spatial kernel reads these."""
        return ScaledInts(self.ideal_points)

    def utility(self, player: int, point: Point) -> Fraction:
        """-1/2 squared distance from the player's ideal point: one `scaled_rows` entry."""
        rows, denominator = self.scaled_rows([point])
        return Fraction(rows[player][0], denominator)

    def scaled_rows(self, points) -> tuple[list[tuple[int, ...]], int]:
        """Every player's utility at each point as integer rows over one
        denominator: (rows, D), one row per player, setter last.  Each point
        has `dim` coordinates, each an int, a `Fraction` or rational text."""
        for i, p in enumerate(points):
            if len(p) != self.dim:
                raise ValidationError(
                    f"point {i} has {len(p)} coordinates, expected {self.dim}")
        points = [tuple(map(parse_rational, p)) for p in points]
        scale = lcm(self._ints.scale, *(c.denominator for p in points for c in p))
        numerators = [scaled_numerators(p, scale) for p in points]
        return list(zip(*self.scaled_utilities(numerators, scale))), 2 * scale * scale

    def scaled_utilities(self, numerators, scale: int) -> list[tuple[int, ...]]:
        """Per point, every player's utility times 2 * scale**2, as exact integers.

        Points come as integer numerators over `scale`, which every ideal
        coordinate's denominator must divide.  The integers order each
        player's preferences exactly as the utilities do.
        """
        axes = list(zip(*numerators))
        factor = scale // self._ints.scale
        rows = []
        for ideal in self._ints.vectors:
            row = [0] * len(numerators)
            for axis, c in zip(axes, ideal):
                c *= factor
                row = [u - (a - c) ** 2 for u, a in zip(row, axis)]
            rows.append(row)
        return list(zip(*rows))


def gen_spatial(d: int, n: int, seed: int, box=None) -> SpatialProfile:
    """Seeded ideal-point profile with coordinates on the 2**-20 grid.

    Identical (d, n, seed, box) inputs reproduce the profile bit for
    bit.  Generation does not enforce genericity; run the coplanarity
    check to audit a draw.
    """
    if n % 2 == 0 or n < 1:
        raise ValidationError("voter count must be odd and positive")
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    box = parse_box(((0, 1),) * d if box is None else box)
    ranges = []
    for lo, hi in box:
        lo_k = -((-lo.numerator * COORD_DENOM) // lo.denominator)   # ceil
        hi_k = (hi.numerator * COORD_DENOM) // hi.denominator       # floor
        if hi_k < lo_k:
            raise ValidationError(f"degenerate box axis [{lo}, {hi}]")
        ranges.append((lo_k, hi_k + 1))
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(*bounds) for bounds in ranges) for _ in range(n + 1)]
    profile = _assemble(SpatialProfile, dim=d, box=box,
                        _ints=ScaledInts.from_scaled(rows, COORD_DENOM))
    profile._check(rows)
    return profile


# ---------------------------------------------------------------------------
# coplanarity


def _volume(p1, p2, p3, p4) -> int:
    """The determinant of (p2 - p1, p3 - p1, p4 - p1) for integer points in R^3."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = p1, p2, p3, p4
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
    w0, w1, w2 = d0 - a0, d1 - a1, d2 - a2
    return u0 * (v1 * w2 - v2 * w1) - u1 * (v0 * w2 - v2 * w0) + u2 * (v0 * w1 - v1 * w0)


def coplanarity_form(p1: Point, p2: Point, p3: Point, p4: Point) -> Fraction:
    """Signed volume form: zero exactly on coplanar 4-tuples in R^3.

    Alternating in its arguments; computed on a shared integer grid so
    large batches stay fast and exact.
    """
    if not len(p1) == len(p2) == len(p3) == len(p4) == 3:
        raise ValidationError("the coplanarity form takes points in R^3")
    ints = ScaledInts((p1, p2, p3, p4))
    return Fraction(_volume(*ints.vectors), ints.scale**3)


@dataclass(frozen=True)
class CoplanarityReport:
    passes: bool
    # (dims (a, b, c), players (i, j, k, l) with the setter as index n, value)
    violating_tuple: Optional[tuple[tuple[int, int, int],
                                    tuple[int, int, int, int], Fraction]] = None


def check_noncoplanarity(profile: SpatialProfile) -> CoplanarityReport:
    """Exact determinant test over every projection and player 4-subset.

    Scans dimension triples and player subsets in lexicographic order
    and reports the first violation found.  The determinants are taken
    on the profile's integer numerators, each the `coplanarity_form` of
    its four points times the cube of the common denominator; only a
    violation's value is made a `Fraction`.
    """
    if profile.dim < 3:
        raise ValidationError("the non-coplanarity condition needs at least 3 dimensions")
    ints = profile._ints
    players = range(len(ints.vectors))
    for dims in combinations(range(profile.dim), 3):
        projected = [tuple(p[k] for k in dims) for p in ints.vectors]
        for subset, quad in zip(combinations(players, 4), combinations(projected, 4)):
            volume = _volume(*quad)
            if volume == 0:
                return CoplanarityReport(
                    passes=False,
                    violating_tuple=(dims, subset, Fraction(volume, ints.scale**3)))
    return CoplanarityReport(passes=True)


# ---------------------------------------------------------------------------
# constructive witness


@dataclass(frozen=True)
class ImprovementTrace:
    """Full record of one constructive improvement at a base point."""

    base: Point
    dims: tuple[int, int, int]
    plane_normal: Point                      # setter gradient at the base
    projected_gradients: tuple[tuple[Fraction, Fraction, Fraction], ...]
    direction: tuple[Fraction, Fraction, Fraction]
    epsilon: Fraction
    epsilon_off_plane: Fraction
    beta: Fraction
    midpoint: Point                          # on the tangent plane, majority-preferred
    witness: Point                           # strict gain for setter and coalition
    majority_coalition: frozenset[int]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _halve_until(start: int, ok, cap: int = 128) -> int:
    """The first of `cap` exponents k from `start` with ok(k): a search over steps 2**-k."""
    for k in range(start, start + cap):
        if ok(k):
            return k
    raise SpatialDegeneracyError(
        "dyadic step search exhausted its halving budget", step="step-size search")


def spatial_witness(profile: SpatialProfile, x: Point) -> ImprovementTrace:
    """Constructive improvement at x for the setter and a strict majority.

    Preconditions: x differs from the setter's ideal and the profile
    passes the coplanarity check (degenerate inputs surface as
    diagnostics naming the failed step).  For more than three dimensions
    the construction runs inside the first coordinate triple where x
    and the setter's ideal differ.

    The construction runs on integer numerators over S, the common
    denominator of x and the profile's compiled ideal points: gradients
    h_i = (ideal_i - x) * S, the setter's row h_n = g being the plane
    normal.  A step search moves to x + (p * D + q * g) / r for integers
    p, q, r, where D is the direction's numerator, and player j gains
    there iff S * |p*D + q*g|**2 < 2 * r * h_j.(p*D + q*g), dot products
    taken once per witness; a search runs on the exponent k of its step 2**-k.
    """
    if len(x) != profile.dim:
        raise ValidationError("query point dimension mismatch")
    x = tuple(map(parse_rational, x))
    ints = profile._ints
    scale = lcm(ints.scale, *(c.denominator for c in x))
    at_x = scaled_numerators(x, scale)
    ideals = [tuple(c * (scale // ints.scale) for c in p) for p in ints.vectors]
    if at_x == ideals[-1]:
        raise ValidationError("the setter's ideal point admits no improvement")
    if profile.dim < 3:
        raise ValidationError("witness construction needs at least 3 dimensions")

    # x != ideal guarantees some differing coordinate, so a triple is found
    dims = next(cand for cand in combinations(range(profile.dim), 3)
                if any(at_x[k] != ideals[-1][k] for k in cand))
    n = profile.n_voters
    grads = [tuple(p[k] - at_x[k] for k in dims) for p in ideals]
    g = grads[n]
    g_norm_sq = _dot(g, g)

    # projected gradient i, times scale * g_norm_sq
    projections = []
    for h in grads[:n]:
        along = _dot(h, g)
        projections.append(tuple(g_norm_sq * a - along * b for a, b in zip(h, g)))

    lead = next((i for i in range(n) if any(projections[i])), None)
    if lead is None:
        raise SpatialDegeneracyError(
            "all projected voter gradients vanish at the base point",
            step="projected gradients")
    p_lead = projections[lead]
    collinear = {j for j in range(n) if j != lead
                 and _cross(projections[j], p_lead) == (0, 0, 0)}

    omega = _cross(g, p_lead)
    plus = [j for j in range(n)
            if j not in collinear and j != lead and _dot(projections[j], omega) > 0]
    minus = [j for j in range(n)
             if j not in collinear and j != lead and _dot(projections[j], omega) < 0]
    if len(minus) > len(plus):
        omega = tuple(-c for c in omega)
        plus, minus = minus, plus
    coalition = frozenset(plus) | {lead}
    if 2 * len(coalition) < n + 1:
        raise SpatialDegeneracyError(
            "projected gradients split without a strict majority side",
            step="pigeonhole")

    # blend k is scale * p_lead + (k - 1) * omega, the direction times
    # k * scale**2 * g_norm_sq
    blends = [(scale * _dot(projections[j], p_lead), _dot(projections[j], omega))
              for j in coalition]
    k = 1
    while not all(a + (k - 1) * b > 0 for a, b in blends):
        k *= 2
        if k > 2**64:
            raise SpatialDegeneracyError(
                "no blend of lead gradient and orthogonal direction works",
                step="direction blend")
    d = tuple(scale * pk + (k - 1) * wk for pk, wk in zip(p_lead, omega))
    d_denom = k * scale * scale * g_norm_sq

    setter_idx = n
    d_norm_sq, d_dot_g = _dot(d, d), _dot(d, g)
    reach = {j: (_dot(grads[j], d), _dot(grads[j], g)) for j in (*coalition, setter_idx)}

    def gains_hold(p: int, q: int, r: int, players) -> bool:
        lhs = scale * (p * p * d_norm_sq + 2 * p * q * d_dot_g + q * q * g_norm_sq)
        return all(lhs < 2 * r * (p * hd + q * hg) for hd, hg in map(reach.get, players))

    # x + 2**-k * direction
    k_on = _halve_until(0, lambda k: gains_hold(1, 0, d_denom << k, coalition))
    # x + 2**-k_on * direction + 2**-k * g / scale
    k_off = _halve_until(k_on, lambda k: gains_hold(
        scale << k, d_denom << k_on, (d_denom * scale) << (k_on + k), coalition))
    zeta_p, zeta_q = scale << k_off, d_denom << k_on
    zeta_r = (d_denom * scale) << (k_on + k_off)
    # x + 2**-k * (zeta - x)
    k_beta = _halve_until(
        1, lambda k: gains_hold(zeta_p, zeta_q, zeta_r << k, (*coalition, setter_idx)))

    def lift(p: int, q: int, r: int) -> list[int]:
        # x + (p * D + q * g) / r, as numerators over scale * r
        full = [a * r for a in at_x]
        for axis, dk, gk in zip(dims, d, g):
            full[axis] += scale * (p * dk + q * gk)
        return full

    mid_r, wit_r = d_denom << k_on, zeta_r << k_beta
    midpoint, witness = lift(1, 0, mid_r), lift(zeta_p, zeta_q, wit_r)
    normal = [c - a for c, a in zip(ideals[-1], at_x)]
    # exact final checks, independent of how the search got here
    if _dot([c - a for c, a in zip(midpoint, lift(0, 0, mid_r))], normal) != 0:
        raise InternalInvariantError("witness midpoint left the setter's tangent plane")
    before, after = profile.scaled_utilities([lift(0, 0, wit_r), witness], scale * wit_r)
    if not after[setter_idx] > before[setter_idx]:
        raise InternalInvariantError("witness does not improve the setter")
    if not all(after[j] > before[j] for j in coalition):
        raise InternalInvariantError("witness does not improve every coalition member")
    if 2 * len(coalition) < n + 1:
        raise InternalInvariantError("witness coalition is not a strict majority")

    common = scale * g_norm_sq
    return ImprovementTrace(
        base=x, dims=dims, plane_normal=tuple(Fraction(c, scale) for c in normal),
        projected_gradients=tuple(tuple(Fraction(c, common) for c in p)
                                  for p in projections),
        direction=tuple(Fraction(c, d_denom) for c in d),
        epsilon=Fraction(1, 1 << k_on), epsilon_off_plane=Fraction(1, 1 << k_off),
        beta=Fraction(1, 1 << k_beta), majority_coalition=coalition,
        midpoint=tuple(Fraction(c, scale * mid_r) for c in midpoint),
        witness=tuple(Fraction(c, scale * wit_r) for c in witness))


def spatial_problem(profile: SpatialProfile, points, labels=None,
                    gfa: bool = False) -> CollectiveChoiceProblem:
    """Collective choice problem induced by a finite set of policy points."""
    if labels is None:
        labels = tuple(f"p{i}" for i in range(len(points)))
    return _scaled_problem(labels, *profile.scaled_rows(points), gfa=gfa)
