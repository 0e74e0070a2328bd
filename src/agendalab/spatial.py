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
one common denominator, in its coordinate triple on three named ints per
vector, so each dot or cross product is one expression taken once; each
step-size search runs on the exponent k of a dyadic step 2**-k without
evaluating a utility, and the final
inequalities are verified on the players' integer utilities.  The
returned trace keeps those integers, and each of its `Fraction` fields
is made only when a caller first reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional

import numpy as np

from .errors import InternalInvariantError, SpatialDegeneracyError, ValidationError
from .problems import CollectiveChoiceProblem, _scaled_problem
from .rationals import (ScaledInts, _assemble, _FractionView, _int_dtype, fraction_rows,
                        parse_box, parse_rational, parse_whole, scaled_numerators)

COORD_DENOM = 2**20
_HALVINGS = 128        # exponents a dyadic step search tries before it gives up

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class SpatialProfile:
    """Ideal points for n voters (first) and the agenda setter (last),
    compiled when the profile is made (`_compile`), so a float or text
    coordinate is refused then.  A profile drawn by `gen_spatial` keeps
    its integers, and its `ideal_points` is a view of them, equal to what
    the constructor keeps."""

    dim: int
    ideal_points: tuple[Point, ...] = _FractionView(
        lambda profile: fraction_rows(profile._ints.array.tolist(), profile._ints.scale))
    box: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len({len(p) for p in self.ideal_points}) > 1:   # no one array from these
            raise ValidationError("ideal point dimension mismatch")
        self._compile(ScaledInts(self.ideal_points))

    def _compile(self, ints: ScaledInts) -> None:
        """Check the shapes of the ideal points' integer rows `ints` and of
        the box, then keep `ints` as `_ints`, which every spatial kernel
        reads, and the box parsed (`parse_box`)."""
        players, dim = ints.array.shape
        object.__setattr__(self, "dim", parse_whole(self.dim, "dimension", 1))
        if players < 2:
            raise ValidationError("need at least one voter plus the setter")
        if dim != self.dim:
            raise ValidationError("ideal point dimension mismatch")
        if len(self.box) != self.dim:
            raise ValidationError("box bounds dimension mismatch")
        object.__setattr__(self, "box", parse_box(self.box))
        object.__setattr__(self, "_ints", ints)

    @property
    def n_voters(self) -> int:
        return len(self._ints.array) - 1

    @property
    def setter_ideal(self) -> Point:
        return self.ideal_points[-1]

    def utility(self, player: int, point: Point) -> Fraction:
        """-1/2 squared distance from the player's ideal point (voters 0..n-1,
        the setter n): one `scaled_rows` entry."""
        player = parse_whole(player, "player index", 0, self.n_voters + 1)
        rows, denominator = self.scaled_rows([point])
        return Fraction(int(rows[player, 0]), denominator)

    def scaled_rows(self, points) -> tuple[np.ndarray, int]:
        """Every player's utility at each point as integer rows over one
        denominator: (rows, D), rows being the `scaled_utilities` array,
        one row per player, setter last.  Each point has `dim`
        coordinates, each an int, a `Fraction` or rational text."""
        for i, p in enumerate(points):
            if len(p) != self.dim:
                raise ValidationError(
                    f"point {i} has {len(p)} coordinates, expected {self.dim}")
        points = [tuple(map(parse_rational, p)) for p in points]
        scale = lcm(self._ints.scale, *(c.denominator for p in points for c in p))
        numerators = [scaled_numerators(p, scale) for p in points]
        nodes = np.array(numerators, dtype=object).reshape(len(points), self.dim)
        return self.scaled_utilities(nodes, scale), 2 * scale * scale

    def scaled_utilities(self, nodes: np.ndarray, scale: int) -> np.ndarray:
        """Per player, setter last, the utility of every point times
        2 * scale**2, as exact integers: a (players x points) array, one
        column per point.

        Points come as an (points x dim) integer array (int64, or object
        dtype of Python ints) of numerators over `scale`, which every ideal
        coordinate's denominator must divide.  The integers order each
        player's preferences exactly as the utilities do.  No utility
        exceeds dim * (node peak + ideal peak)**2 in magnitude, the peaks
        being the largest absolute numerators over `scale` (the ideal peak
        at least the factor that rescales the ideals, so the factor fits
        too), so the array is int64 when that bound is below 2**62 and
        object dtype otherwise; both run the same expression.
        """
        factor, ideals = scale // self._ints.scale, self._ints.array
        reach = max(int(nodes.max(initial=0)), -int(nodes.min(initial=0))) + factor * max(
            int(ideals.max()), -int(ideals.min()), 1)
        dtype = _int_dtype(self.dim * reach * reach)
        ideals = ideals.astype(dtype, copy=False) * factor
        diffs = nodes.astype(dtype, copy=False)[None] - ideals[:, None]
        return -(diffs * diffs).sum(axis=2)


def gen_spatial(d: int, n: int, seed: int, box=None) -> SpatialProfile:
    """Seeded ideal-point profile with coordinates on the 2**-20 grid.

    Identical (d, n, seed, box) inputs, the seed a whole number, reproduce
    the profile bit for bit.  Generation does not enforce genericity; run
    the coplanarity check to audit a draw.
    """
    if parse_whole(n, "voter count", 1) % 2 == 0:
        raise ValidationError("voter count must be odd and positive")
    d = parse_whole(d, "dimension", 1)
    box = parse_box(((0, 1),) * d if box is None else box)
    ranges = []
    for lo, hi in box:
        lo_k = -((-lo.numerator * COORD_DENOM) // lo.denominator)   # ceil
        hi_k = (hi.numerator * COORD_DENOM) // hi.denominator       # floor
        if hi_k < lo_k:
            raise ValidationError(f"degenerate box axis [{lo}, {hi}]")
        ranges.append((lo_k, hi_k + 1))
    rng = random.Random(parse_whole(seed, "seed"))
    rows = [tuple(rng.randrange(*bounds) for bounds in ranges) for _ in range(n + 1)]
    profile = _assemble(SpatialProfile, dim=d, box=box)
    profile._compile(ScaledInts.from_scaled(rows, COORD_DENOM))
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
    return Fraction(_volume(*ints.array.tolist()), ints.scale**3)


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
    points = ints.array.tolist()
    players = range(len(points))
    for dims in combinations(range(profile.dim), 3):
        projected = [tuple(p[k] for k in dims) for p in points]
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
    """Full record of one constructive improvement at a base point.

    `spatial_witness` keeps the construction's integers, each rational
    field as integer rows over one denominator (`_scaled`) and each step
    as its exponent k of 2**-k (`_steps`), and leaves every field but
    `base`, `dims` and `majority_coalition` to a view made on first read.
    """

    base: Point
    dims: tuple[int, int, int]
    plane_normal: Point = _FractionView(          # setter gradient at the base
        lambda trace: fraction_rows(*trace._scaled["plane_normal"])[0])
    projected_gradients: tuple[tuple[Fraction, Fraction, Fraction], ...] = _FractionView(
        lambda trace: fraction_rows(*trace._scaled["projected_gradients"]))
    direction: tuple[Fraction, Fraction, Fraction] = _FractionView(
        lambda trace: fraction_rows(*trace._scaled["direction"])[0])
    epsilon: Fraction = _FractionView(lambda trace: Fraction(1, 1 << trace._steps[0]))
    epsilon_off_plane: Fraction = _FractionView(lambda trace: Fraction(1, 1 << trace._steps[1]))
    beta: Fraction = _FractionView(lambda trace: Fraction(1, 1 << trace._steps[2]))
    midpoint: Point = _FractionView(              # on the tangent plane, majority-preferred
        lambda trace: fraction_rows(*trace._scaled["midpoint"])[0])
    witness: Point = _FractionView(               # strict gain for setter and coalition
        lambda trace: fraction_rows(*trace._scaled["witness"])[0])
    majority_coalition: frozenset[int]


def _dot(a, b):
    return sum(map(mul, a, b))


def _halve_until(start: int, ok) -> int:
    """The first of `_HALVINGS` exponents k from `start` with ok(k): a search over steps 2**-k."""
    for k in range(start, start + _HALVINGS):
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
    normal.  Inside the triple each vector (a gradient, a projection,
    the normal omega of the lead gradient and g, the direction D) is
    three named ints, and each dot or cross product is one expression,
    taken once per witness.  A step search moves to x + (p * D + q * g) / r
    for integers p, q, r, and player j gains there iff
    S * |p*D + q*g|**2 < 2 * r * h_j.(p*D + q*g), where D.g = 0; a search
    runs on the exponent k of its step 2**-k.
    """
    if len(x) != profile.dim:
        raise ValidationError("query point dimension mismatch")
    x = tuple(map(parse_rational, x))
    ints = profile._ints
    scale = lcm(ints.scale, *(c.denominator for c in x))
    at_x = scaled_numerators(x, scale)
    ideals, factor = ints.array.tolist(), scale // ints.scale
    if factor != 1:
        ideals = [[c * factor for c in ideal] for ideal in ideals]
    normal = [c - a for c, a in zip(ideals[-1], at_x)]
    if not any(normal):
        raise ValidationError("the setter's ideal point admits no improvement")
    if profile.dim < 3:
        raise ValidationError("witness construction needs at least 3 dimensions")

    # x != ideal guarantees some differing coordinate, so a triple is found
    dims = next(cand for cand in combinations(range(profile.dim), 3)
                if any(normal[k] for k in cand))
    a0, a1, a2 = dims
    x0, x1, x2 = at_x[a0], at_x[a1], at_x[a2]
    n = profile.n_voters
    g0, g1, g2 = normal[a0], normal[a1], normal[a2]
    gg = g0 * g0 + g1 * g1 + g2 * g2

    # voter i's gradient h, h.g and projected gradient, times scale * gg
    grads, along, projections = [], [], []
    for ideal in ideals[:n]:
        h0, h1, h2 = ideal[a0] - x0, ideal[a1] - x1, ideal[a2] - x2
        hg = h0 * g0 + h1 * g1 + h2 * g2
        grads.append((h0, h1, h2))
        along.append(hg)
        projections.append((gg * h0 - hg * g0, gg * h1 - hg * g1, gg * h2 - hg * g2))

    lead = next((i for i in range(n) if any(projections[i])), None)
    if lead is None:
        raise SpatialDegeneracyError(
            "all projected voter gradients vanish at the base point",
            step="projected gradients")
    l0, l1, l2 = projections[lead]
    w0, w1, w2 = g1 * l2 - g2 * l1, g2 * l0 - g0 * l2, g0 * l1 - g1 * l0   # g x p_lead

    # each side is projection . omega; every projection lies in the plane
    # normal to g, which p_lead and omega span, so a side is 0 exactly when
    # the projection is collinear with the lead's (the lead's own included)
    plus, minus = [], []
    for j, (q0, q1, q2) in enumerate(projections):
        side = q0 * w0 + q1 * w1 + q2 * w2
        if side:
            (plus if side > 0 else minus).append((j, side))
    if len(minus) > len(plus):
        w0, w1, w2 = -w0, -w1, -w2
        plus = [(j, -side) for j, side in minus]
    coalition = frozenset(j for j, _ in plus) | {lead}
    if 2 * len(coalition) < n + 1:
        raise SpatialDegeneracyError(
            "projected gradients split without a strict majority side",
            step="pigeonhole")

    # blend k is scale * p_lead + (k - 1) * omega, the direction times
    # k * scale**2 * gg; the lead's side is 0
    blends = [(scale * (l0 * l0 + l1 * l1 + l2 * l2), 0)]
    for j, side in plus:
        q0, q1, q2 = projections[j]
        blends.append((scale * (q0 * l0 + q1 * l1 + q2 * l2), side))
    k = 1
    while not all(a + (k - 1) * b > 0 for a, b in blends):
        k *= 2
        if k > 2**64:
            raise SpatialDegeneracyError(
                "no blend of lead gradient and orthogonal direction works",
                step="direction blend")
    d0, d1, d2 = (scale * l0 + (k - 1) * w0, scale * l1 + (k - 1) * w1,
                  scale * l2 + (k - 1) * w2)
    d_denom = k * scale * scale * gg
    dd = d0 * d0 + d1 * d1 + d2 * d2

    # (h.D, h.g) per coalition member, then the setter's: g.D = 0
    reach = []
    for j in coalition:
        h0, h1, h2 = grads[j]
        reach.append((h0 * d0 + h1 * d1 + h2 * d2, along[j]))
    everyone = (*reach, (0, gg))

    def gains_hold(p: int, q: int, r: int, pairs) -> bool:
        lhs = scale * (p * p * dd + q * q * gg)
        return all(lhs < 2 * r * (p * hd + q * hg) for hd, hg in pairs)

    # x + 2**-k * direction
    k_on = _halve_until(0, lambda k: gains_hold(1, 0, d_denom << k, reach))
    # x + 2**-k_on * direction + 2**-k * g / scale
    k_off = _halve_until(k_on, lambda k: gains_hold(
        scale << k, d_denom << k_on, (d_denom * scale) << (k_on + k), reach))
    zeta_p, zeta_q = scale << k_off, d_denom << k_on
    zeta_r = (d_denom * scale) << (k_on + k_off)
    # x + 2**-k * (zeta - x)
    k_beta = _halve_until(1, lambda k: gains_hold(zeta_p, zeta_q, zeta_r << k, everyone))

    def lift(p: int, q: int, r: int) -> list[int]:
        # x + (p * D + q * g) / r, as numerators over scale * r
        point = [a * r for a in at_x]
        point[a0] += scale * (p * d0 + q * g0)
        point[a1] += scale * (p * d1 + q * g1)
        point[a2] += scale * (p * d2 + q * g2)
        return point

    mid_r, wit_r = d_denom << k_on, zeta_r << k_beta
    midpoint, witness = lift(1, 0, mid_r), lift(zeta_p, zeta_q, wit_r)
    # exact final checks, independent of how the search got here
    if _dot([c - a for c, a in zip(midpoint, lift(0, 0, mid_r))], normal) != 0:
        raise InternalInvariantError("witness midpoint left the setter's tangent plane")
    rows = profile.scaled_utilities(np.array([lift(0, 0, wit_r), witness], dtype=object),
                                    scale * wit_r)
    if not rows[n, 1] > rows[n, 0]:
        raise InternalInvariantError("witness does not improve the setter")
    if not all(rows[j, 1] > rows[j, 0] for j in coalition):
        raise InternalInvariantError("witness does not improve every coalition member")
    if 2 * len(coalition) < n + 1:
        raise InternalInvariantError("witness coalition is not a strict majority")

    return _assemble(
        ImprovementTrace, base=x, dims=dims, majority_coalition=coalition,
        _steps=(k_on, k_off, k_beta),
        _scaled={"plane_normal": ([normal], scale),
                 "projected_gradients": (projections, scale * gg),
                 "direction": ([(d0, d1, d2)], d_denom), "midpoint": ([midpoint], scale * mid_r),
                 "witness": ([witness], scale * wit_r)})


def spatial_problem(profile: SpatialProfile, points, labels=None) -> CollectiveChoiceProblem:
    """Collective choice problem induced by a finite set of policy points."""
    if labels is None:
        labels = tuple(f"p{i}" for i in range(len(points)))
    return _scaled_problem(labels, *profile.scaled_rows(points))
