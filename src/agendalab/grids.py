"""Generic finite grids over boxes and simplices.

A grid is generic when every player's preferences are strict across its
nodes and every point of the continuum space lies within epsilon of
some node.  Construction: a lattice fine enough that the covering bound
holds with room for jitter, a seeded rational jitter on every node, and
an exact pairwise tie audit that re-jitters offenders.  The audit is
the certificate; the jitter scheme is reproducible from the seed.  Box
and simplex grids share one pipeline on integer nodes over one scale
(`build_grid`); each space supplies only its lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, pairwise
from math import isqrt, lcm
from typing import Optional

from .distributions import _compositions, _count_compositions
from .errors import BudgetExceededError, GridGenericityError, ValidationError
from .problems import CollectiveChoiceProblem, _scaled_problem
from .rationals import _assemble, _FractionView, parse_box, parse_rational, scaled_numerators
from .spatial import SpatialProfile

_JITTER_BITS = 16
_JITTER_RANGE = 2**_JITTER_BITS
_MAX_ATTEMPTS = 32


@dataclass(frozen=True)
class BoxSpace:
    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValidationError("box needs at least one axis")
        object.__setattr__(self, "bounds", parse_box(self.bounds))

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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def build_grid(space, epsilon, seed: int, profile: Optional[SpatialProfile] = None,
               max_points: int = 500_000) -> GridBuildResult:
    """Build a generic epsilon-grid problem over a box or simplex.

    Box grids take utilities from a spatial profile; simplex grids are
    divide-the-dollar style, each player's utility being their own
    share.  Each space supplies its integer centres over one scale, how
    a centre is jittered, how nodes become utility numerators, the
    denominator and the covering bound; one path then jitters every
    centre in index order, runs the tie audit and builds the problem.
    Failing the audit after the allowed re-jitters raises a genericity
    error naming the tied pair and player.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if isinstance(space, BoxSpace):
        if profile is None:
            raise ValidationError("box grids need a spatial profile for utilities")
        if profile.dim != space.dim:
            raise ValidationError("profile dimension does not match the box")
        lattice = _box_lattice(space, epsilon, profile, max_points)
    elif isinstance(space, SimplexSpace):
        if profile is not None:
            raise ValidationError("simplex grids carry their own share utilities")
        lattice = _simplex_lattice(space, epsilon, max_points)
    else:
        raise ValidationError(f"unknown space {type(space).__name__}")
    centers, scale, shift, utilities, denominator, bound = lattice

    rng = random.Random(seed)
    nodes = [shift(rng, center) for center in centers]
    values = utilities(nodes)

    def redraw(idx):
        nodes[idx] = shift(rng, centers[idx])
        return utilities([nodes[idx]])[0]

    attempts = _audit_and_rejitter(values, _MAX_ATTEMPTS, redraw)
    rows = list(zip(*values))
    # the players are the voters and the setter: an even count means odd voters
    problem = _scaled_problem([f"n{i}" for i in range(len(nodes))], rows, denominator,
                              gfa=len(rows) % 2 == 0)
    return _assemble(GridBuildResult, problem=problem, epsilon=epsilon,
                     covering_sq_bound=bound, attempts=attempts, _nodes=tuple(nodes),
                     _scale=scale)


def _within_budget(kind: str, total: int, max_points: int) -> int:
    if total > max_points:
        raise BudgetExceededError(f"{kind} grid would exceed the point budget",
                                  required=total, budget=max_points)
    return total


# ---------------------------------------------------------------------------
# box grids
#
# Every coordinate is held as an integer numerator over one grid-wide
# scale: the box corners, the cell centres and every jitter offset are
# multiples of it, and so are the ideal points.  Each node's utilities
# are then exact integers, computed once per draw.


def _box_lattice(space, epsilon, profile, max_points):
    d = space.dim
    cells = []
    for lo, hi in space.bounds:
        length = hi - lo
        # smallest k with (length/k)^2 * d < epsilon^2, i.e. spacing < eps/sqrt(d)
        cells.append(isqrt(_ceil_div(length.numerator**2 * d * epsilon.denominator**2,
                                     length.denominator**2 * epsilon.numerator**2)) + 1)
    total = 1
    for k in cells:
        total = _within_budget("box", total * k, max_points)
    bound = sum((Fraction(3, 5) * (hi - lo) / k)**2
                for (lo, hi), k in zip(space.bounds, cells))
    if bound >= epsilon**2:   # pragma: no cover - excluded by cell sizing
        raise ValidationError("covering bound violated; epsilon too small for budget")

    # a centre sits 10 * _JITTER_RANGE units past its cell's edge; a jitter step is 2 units
    units = [(hi - lo) / (20 * _JITTER_RANGE * k) for (lo, hi), k in zip(space.bounds, cells)]
    lows = [lo for lo, _hi in space.bounds]
    scale = lcm(*(c.denominator for c in (*units, *lows)), profile._ints.scale)
    units, lows = scaled_numerators(units, scale), scaled_numerators(lows, scale)
    centers = []
    for index in range(total):
        coords, rem = [], index
        for low, k, unit in zip(lows, cells, units):
            coords.append(low + (2 * (rem % k) + 1) * 10 * _JITTER_RANGE * unit)
            rem //= k
        centers.append(tuple(coords))

    def shift(rng, center):
        return tuple(c + 2 * rng.randrange(-(_JITTER_RANGE - 1), _JITTER_RANGE) * unit
                     for c, unit in zip(center, units))

    return (centers, scale, shift,
            lambda nodes: profile.scaled_utilities(nodes, scale), 2 * scale * scale, bound)


# ---------------------------------------------------------------------------
# simplex grids


def _simplex_lattice(space, epsilon, max_points):
    n_players = space.dim
    # smallest m with (11/(10m))^2 * players < epsilon^2
    m = isqrt(_ceil_div(121 * n_players * epsilon.denominator**2,
                        100 * epsilon.numerator**2)) + 1
    _within_budget("simplex", _count_compositions(m, n_players), max_points)

    # shares are numerators over `scale`; one jitter step is one unit
    scale = 10 * m * _JITTER_RANGE * n_players
    centers = [tuple(u * (scale // m) for u in units)
               for units in _compositions(m, n_players)]

    def shift(rng, node):
        # every share but the top one moves up; the top share pays for it all
        top = min(range(n_players), key=lambda i: (-node[i], i))
        out = [c if i == top else c + rng.randrange(1, _JITTER_RANGE)
               for i, c in enumerate(node)]
        out[top] -= sum(out) - sum(node)
        return tuple(out) if out[top] > 0 else node   # the top share always stays positive

    # a player's utility is their own share, so a node's numerators are its values
    return (centers, scale, shift, list, scale,
            Fraction(121 * n_players, (10 * m)**2))


# ---------------------------------------------------------------------------
# the tie audit


def _audit_and_rejitter(values, max_attempts, redraw):
    """Exact per-player tie audit; offenders are re-drawn in place.

    values[i] holds node i's integer utility keys, one per player, on one
    scale per player.  redraw(i) re-jitters node i and returns its new keys;
    of a tied pair, the later node in that player's sorted order is re-drawn.
    """
    for attempt in count(1):
        # the first tie of the first player whose column has one, in sorted order
        offender = next(((player, a, b) for player, column in enumerate(zip(*values))
                         if len(set(column)) < len(column)
                         for a, b in pairwise(sorted(range(len(column)),
                                                     key=column.__getitem__))
                         if column[a] == column[b]), None)
        if offender is None:
            return attempt
        player, a, b = offender
        if attempt >= max_attempts:
            raise GridGenericityError(
                f"nodes {a} and {b} still tie for player {player + 1} after "
                f"{max_attempts} attempts", player=player, pair=(a, b))
        values[b] = redraw(b)
