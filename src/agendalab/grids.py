"""Generic finite grids over boxes and simplices.

A grid is generic when every player's preferences are strict across its
nodes and every point of the continuum space lies within epsilon of
some node.  Construction: a lattice fine enough that the covering bound
holds with room for jitter, a seeded rational jitter on every node, and
an exact pairwise tie audit that re-jitters offenders.  The audit is
the certificate; the jitter scheme is reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from .distributions import _compositions, _count_compositions
from .errors import BudgetExceededError, GridGenericityError, ValidationError
from .problems import CollectiveChoiceProblem, _scaled_problem
from .rationals import _FractionView, parse_rational, scaled_numerators
from .spatial import SpatialProfile

_JITTER_BITS = 16
_JITTER_RANGE = 2**_JITTER_BITS


@dataclass(frozen=True)
class BoxSpace:
    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValidationError("box needs at least one axis")
        for lo, hi in self.bounds:
            if hi <= lo:
                raise ValidationError(f"degenerate box axis [{lo}, {hi}]")

    @staticmethod
    def unit(d: int) -> "BoxSpace":
        return BoxSpace(tuple((Fraction(0), Fraction(1)) for _ in range(d)))

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class SimplexSpace:
    n_voters: int

    def __post_init__(self):
        if self.n_voters < 1:
            raise ValidationError("need at least one voter")

    @property
    def dim(self) -> int:
        return self.n_voters + 1


@dataclass(frozen=True)
class GridBuildResult:
    """A generic grid: its problem, one point per policy, and its certificate.

    `build_grid` keeps each node as integer numerators over one grid
    scale; `points` is made from them on first read.
    """

    problem: CollectiveChoiceProblem
    points: tuple[tuple[Fraction, ...], ...] = _FractionView(
        lambda result: tuple(tuple(Fraction(c, result._scale) for c in node)
                             for node in result._nodes))
    epsilon: Fraction
    covering_sq_bound: Fraction      # certified: strictly below epsilon**2
    attempts: int


def _grid_result(problem, nodes, scale: int, epsilon, bound, attempts) -> GridBuildResult:
    """The result whose points are the integer `nodes` over `scale`,
    left to `GridBuildResult.points` to make on first read."""
    result = object.__new__(GridBuildResult)
    for name, value in (("problem", problem), ("epsilon", epsilon),
                        ("covering_sq_bound", bound), ("attempts", attempts),
                        ("_nodes", tuple(nodes)), ("_scale", scale)):
        object.__setattr__(result, name, value)
    return result


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def build_grid(space, epsilon, seed: int, profile: Optional[SpatialProfile] = None,
               anchor=None, max_attempts: int = 32, max_points: int = 500_000,
               jitter: bool = True) -> GridBuildResult:
    """Build a generic epsilon-grid problem over a box or simplex.

    Box grids take utilities from a spatial profile; simplex grids are
    divide-the-dollar style, each player's utility being their own
    share.  An anchor point, when given, is included verbatim as a grid
    node.  Failing the tie audit after the allowed re-jitters raises a
    genericity error naming the tied pair and player.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if isinstance(space, BoxSpace):
        if profile is None:
            raise ValidationError("box grids need a spatial profile for utilities")
        if profile.dim != space.dim:
            raise ValidationError("profile dimension does not match the box")
        return _build_box(space, epsilon, seed, profile, anchor, max_attempts,
                          max_points, jitter)
    if isinstance(space, SimplexSpace):
        if profile is not None:
            raise ValidationError("simplex grids carry their own share utilities")
        return _build_simplex(space, epsilon, seed, anchor, max_attempts,
                              max_points, jitter)
    raise ValidationError(f"unknown space {type(space).__name__}")


# ---------------------------------------------------------------------------
# box grids
#
# Every coordinate is held as an integer numerator over one grid-wide
# scale: the box corners, the cell centres and every jitter offset are
# multiples of it, and so are the ideal points and the anchor.  Each
# node's utilities are then exact integers, computed once per draw.


def _build_box(space, epsilon, seed, profile, anchor, max_attempts, max_points,
               jitter):
    d = space.dim
    if anchor is not None:
        anchor = tuple(Fraction(c) for c in anchor)
        if len(anchor) != d:
            raise ValidationError("anchor dimension mismatch")
        for c, (lo, hi) in zip(anchor, space.bounds):
            if not lo <= c <= hi:
                raise ValidationError("anchor lies outside the box")
        # a single anchor may already cover the whole box within epsilon
        corner_sq = _max_corner_distance_sq(anchor, space.bounds)
        if corner_sq < epsilon**2:
            points = (anchor,)
            problem = _grid_problem(*profile.scaled_rows(points))
            return GridBuildResult(problem=problem, points=points, epsilon=epsilon,
                                   covering_sq_bound=corner_sq, attempts=1)

    cells = []
    for lo, hi in space.bounds:
        length = hi - lo
        # smallest k with (length/k)^2 * d < epsilon^2, i.e. spacing < eps/sqrt(d)
        k = isqrt(_ceil_div(length.numerator**2 * d * epsilon.denominator**2,
                            length.denominator**2 * epsilon.numerator**2)) + 1
        cells.append(k)
    total = 1
    for k in cells:
        total *= k
        if total > max_points:
            raise BudgetExceededError("box grid would exceed the point budget",
                                      required=total, budget=max_points)

    spacings = [(hi - lo) / k for (lo, hi), k in zip(space.bounds, cells)]
    # a centre sits 10 * _JITTER_RANGE units past its cell's edge; a jitter step is 2 units
    units = [h / (20 * _JITTER_RANGE) for h in spacings]
    lows = [lo for lo, _hi in space.bounds]
    scale = lcm(*(c.denominator for c in (*units, *lows, *(anchor or ()))),
                profile._ints.scale)
    units, lows = scaled_numerators(units, scale), scaled_numerators(lows, scale)
    centers = []
    for index in range(total):
        coords, rem = [], index
        for low, k, unit in zip(lows, cells, units):
            coords.append(low + (2 * (rem % k) + 1) * 10 * _JITTER_RANGE * unit)
            rem //= k
        centers.append(tuple(coords))

    rng = random.Random(seed)

    def draw(idx):
        if not jitter:
            return centers[idx]
        return tuple(c + 2 * rng.randrange(-(_JITTER_RANGE - 1), _JITTER_RANGE) * unit
                     for c, unit in zip(centers[idx], units))

    nodes = [draw(idx) for idx in range(total)]
    frozen = set()
    if anchor is not None:
        nodes.append(scaled_numerators(anchor, scale))
        frozen.add(len(nodes) - 1)
    values = profile.scaled_utilities(nodes, scale)

    def redraw(idx):
        nodes[idx] = draw(idx)
        return profile.scaled_utilities([nodes[idx]], scale)[0]

    attempts = _audit_and_rejitter(values, frozen, max_attempts, redraw)

    bound = sum((Fraction(3, 5) * h)**2 for h in spacings)
    if bound >= epsilon**2:   # pragma: no cover - excluded by cell sizing
        raise ValidationError("covering bound violated; epsilon too small for budget")
    problem = _grid_problem(list(zip(*values)), 2 * scale * scale)
    return _grid_result(problem, nodes, scale, epsilon, bound, attempts)


def _max_corner_distance_sq(anchor, bounds) -> Fraction:
    total = Fraction(0)
    for c, (lo, hi) in zip(anchor, bounds):
        total += max((c - lo)**2, (hi - c)**2)
    return total


def _grid_problem(rows, denominator: int) -> CollectiveChoiceProblem:
    """The grid's problem from per-player integer utility rows over one
    denominator (setter last)."""
    odd_voters = len(rows) % 2 == 0
    return _scaled_problem([f"n{i}" for i in range(len(rows[0]))], rows, denominator,
                           gfa=odd_voters)


# ---------------------------------------------------------------------------
# simplex grids


def _build_simplex(space, epsilon, seed, anchor, max_attempts, max_points, jitter):
    n_players = space.dim
    # smallest m with (11/(10m))^2 * players < epsilon^2
    m = isqrt(_ceil_div(121 * n_players * epsilon.denominator**2,
                        100 * epsilon.numerator**2)) + 1
    total = _count_compositions(m, n_players)
    if total > max_points:
        raise BudgetExceededError("simplex grid would exceed the point budget",
                                  required=total, budget=max_points)
    if anchor is not None:
        anchor = tuple(Fraction(c) for c in anchor)
        if len(anchor) != n_players or any(c < 0 for c in anchor) or sum(anchor) != 1:
            raise ValidationError("anchor is not a point of the simplex")

    # shares are numerators over `scale`; one jitter step is `step`
    jitter_denominator = 10 * m * _JITTER_RANGE * n_players
    scale = lcm(jitter_denominator, *(c.denominator for c in anchor or ()))
    step = scale // jitter_denominator
    nodes = [tuple(u * (scale // m) for u in units)
             for units in _compositions(m, n_players)]
    rng = random.Random(seed)

    def draw(idx):
        node = nodes[idx]
        if not jitter:
            return node
        top = min(range(n_players), key=lambda i: (-node[i], i))
        moved = 0
        out = list(node)
        for i in range(n_players):
            if i == top:
                continue
            t = rng.randrange(1, _JITTER_RANGE)
            out[i] = node[i] + t * step
            moved += t * step
        out[top] = node[top] - moved
        if out[top] <= 0:   # pragma: no cover - top share always dominates the shift
            return node
        return tuple(out)

    # a player's utility is their own share, so a node's numerators are its values
    values = [draw(idx) for idx in range(total)]
    frozen = set()
    if anchor is not None:
        values.append(scaled_numerators(anchor, scale))
        frozen.add(len(values) - 1)

    attempts = _audit_and_rejitter(values, frozen, max_attempts, draw)

    bound = Fraction(121 * n_players, (10 * m)**2)
    problem = _grid_problem(list(zip(*values)), scale)
    return _grid_result(problem, values, scale, epsilon, bound, attempts)


# ---------------------------------------------------------------------------
# the tie audit


def _audit_and_rejitter(values, frozen, max_attempts, redraw):
    """Exact per-player tie audit; offenders are re-drawn in place.

    values[i] holds node i's integer utility keys, one per player, on one
    scale per player.  redraw(i) re-jitters node i and returns its new keys.
    """
    n_players = len(values[0])
    for attempt in range(1, max_attempts + 1):
        offender = None
        for player in range(n_players):
            column = [v[player] for v in values]
            if len(set(column)) < len(column):
                order = sorted(range(len(column)), key=column.__getitem__)
                offender = next((player, a, b) for a, b in zip(order, order[1:])
                                if column[a] == column[b])
                break
        if offender is None:
            return attempt
        player, a, b = offender
        victim = b if b not in frozen else a
        if victim in frozen:
            raise GridGenericityError(
                f"anchor nodes tie for player {player + 1}", player=player, pair=(a, b))
        values[victim] = redraw(victim)
    raise GridGenericityError(
        f"nodes {offender[1]} and {offender[2]} still tie for player "
        f"{offender[0] + 1} after {max_attempts} attempts",
        player=offender[0], pair=(offender[1], offender[2]))
