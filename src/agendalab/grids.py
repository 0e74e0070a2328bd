"""Generic finite grids over boxes and simplices.

A grid is generic when every player's preferences are strict across its
nodes and every point of the continuum space lies within epsilon of
some node.  Construction: a lattice fine enough that the covering bound
holds with room for jitter, a seeded rational jitter on every node, and
an exact tie audit that re-jitters offenders, read from the dense ranks
of the problem each build compiles (`problems._first_tie`, the reader
that also decides `gfa`).  The audit is the certificate; the jitter
scheme is reproducible from the seed, the offsets being the values
`randrange` would draw, read from one batch of generator words
(`_draws`).  Box and simplex grids share one pipeline on integer
arrays over one scale (`build_grid`): a (nodes x coordinates) array of
nodes, scored into one (players x nodes) utility array that the problem
keeps; each space supplies only its lattice.  Box utilities come from
`SpatialProfile.scaled_utilities`, the one spatial utility formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

import numpy as np

from .distributions import _compositions, _count_compositions
from .errors import BudgetExceededError, GridGenericityError, ValidationError
from .problems import CollectiveChoiceProblem, _first_tie, _scaled_problem
from .rationals import (_assemble, _FractionView, _int_dtype, parse_box, parse_rational,
                        parse_whole, scaled_numerators)
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
        return BoxSpace(((Fraction(0), Fraction(1)),) * parse_whole(d, "dimension", 1))

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class SimplexSpace:
    n_voters: int

    def __post_init__(self):
        object.__setattr__(self, "n_voters", parse_whole(self.n_voters, "voter count", 1))

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
                             for node in result._nodes.tolist()))
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
    share.  Each space supplies its centres as one (nodes x coordinates)
    integer array over one scale, how rows of centres are jittered, how
    nodes become one (players x nodes) integer utility array, the
    denominator and the covering bound; one path then jitters every
    centre, node by node in index order, with the offsets `randrange`
    would draw from `random.Random(seed)`, `seed` a whole number, read as
    one batch of generator words (`_draws`), and builds the problem from
    the utility array.  The problem's dense ranks are the tie audit
    (`_first_tie`): of the first tied pair of the first player with a
    tie, at that player's lowest tied value, the later node is re-drawn,
    its utility column recomputed and the problem built again, up to
    `_MAX_ATTEMPTS` builds in all.  A tie in the last one raises a
    genericity error naming that pair and player.
    """
    epsilon, max_points = parse_rational(epsilon), parse_whole(max_points, "max_points")
    seed = parse_whole(seed, "seed")
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
    nodes = shift(rng, centers)
    rows = utilities(nodes)
    labels = [f"n{i}" for i in range(len(nodes))]
    for attempts in range(1, _MAX_ATTEMPTS + 1):
        problem = _scaled_problem(labels, rows, denominator)
        tie = _first_tie(problem._ranks)
        if tie is None:
            nodes.flags.writeable = False
            return _assemble(GridBuildResult, problem=problem, epsilon=epsilon,
                             covering_sq_bound=bound, attempts=attempts,
                             _nodes=nodes, _scale=scale)
        player, a, b = tie
        nodes[b] = shift(rng, centers[b:b + 1])[0]
        column = utilities(nodes[b:b + 1])[:, 0]
        rows = rows.astype(np.result_type(rows, column), copy=False)   # object if either is
        rows[:, b] = column
    raise GridGenericityError(
        f"nodes {a} and {b} still tie for player {player + 1} after "
        f"{_MAX_ATTEMPTS} attempts", player=player, pair=(a, b))


def _within_budget(kind: str, total: int, max_points: int) -> int:
    if total > max_points:
        raise BudgetExceededError(f"{kind} grid would exceed the point budget",
                                  required=total, budget=max_points)
    return total


def _draws(rng, count: int, start: int, stop: int) -> np.ndarray:
    """The values of `count` calls `rng.randrange(start, stop)`, in order,
    leaving `rng` in the state those calls leave it (stop - start < 2**32).

    `randrange` reads one 32-bit word of the generator per try, keeps its
    top `width.bit_length()` bits (width = stop - start) and tries again
    while they are not below width.  So the draws are read from batches of
    words: `getrandbits(32 * k)` holds the next k words, the first drawn
    least significant, and each batch draws exactly as many words as
    values are still missing, so no word past the last kept one is read.
    """
    width = stop - start
    shift = 32 - width.bit_length()
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        missing = count - done
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"),
                              dtype="<u4") >> shift
        kept = words[words < width]
        out[done:done + len(kept)] = kept
        done += len(kept)
    return out + start


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
    dtype = _int_dtype(max(abs(c) * scale for bounds in space.bounds for c in bounds))
    units = np.array(scaled_numerators(units, scale), dtype=dtype)
    lows = np.array(scaled_numerators(lows, scale), dtype=dtype)
    # node index i_0 + k_0 * (i_1 + k_1 * ...): the first axis varies fastest
    strides = np.cumprod([1, *cells[:-1]])
    cell = np.arange(total)[:, None] // strides % np.array(cells)
    centers = lows + (2 * cell + 1) * (10 * _JITTER_RANGE) * units

    def shift(rng, centers):
        steps = _draws(rng, centers.size, -(_JITTER_RANGE - 1), _JITTER_RANGE)
        return centers + 2 * steps.reshape(centers.shape) * units

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
    centers = np.array(list(_compositions(m, n_players)), dtype=_int_dtype(scale)) * (scale // m)

    def shift(rng, centers):
        # every share but the first largest moves up; the top share pays for it all
        steps = _draws(rng, len(centers) * (n_players - 1), 1, _JITTER_RANGE)
        at = np.arange(len(centers)), centers.argmax(axis=1)
        moved = np.ones(centers.shape, dtype=bool)
        moved[at] = False
        out = centers.copy()
        out[moved] += steps
        out[at] -= steps.reshape(len(centers), -1).sum(axis=1)
        return np.where((out[at] > 0)[:, None], out, centers)   # the top share stays positive

    # a player's utility is their own share: player p's row is every node's p-th share
    return (centers, scale, shift, lambda nodes: nodes.T.copy(), scale,
            Fraction(121 * n_players, (10 * m)**2))
