from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    BoxSpace,
    BudgetExceededError,
    SimplexSpace,
    ValidationError,
    build_grid,
    gen_spatial,
    grids,
)
from agendalab.problems import _dense_ranks, _first_tie
from test_exact_kernels import _ref_audit_and_rejitter, outcome, ref_build_box

F = Fraction


def test_unit_cube_half_epsilon():
    profile = gen_spatial(3, 5, seed=3)
    result = build_grid(BoxSpace.unit(3), F(1, 2), seed=4, profile=profile)
    assert result.problem.num_policies >= 8
    assert result.covering_sq_bound < F(1, 4)
    assert result.problem.gfa
    for lo, hi in zip((0, 0, 0), (1, 1, 1)):
        for p in result.points:
            assert all(F(lo) < c < F(hi) for c in p)


def test_no_ties_after_audit():
    profile = gen_spatial(3, 3, seed=9)
    result = build_grid(BoxSpace.unit(3), F(2, 5), seed=10, profile=profile)
    rows = list(result.problem.voter_utilities) + [result.problem.setter_utilities]
    for row in rows:
        assert len(set(row)) == len(row)


def test_simplex_grid_denominator_bound():
    result = build_grid(SimplexSpace(3), F(3, 10), seed=2)
    floor = ceil(sqrt(3) / 0.3)
    # points are compositions of m, so the count pins m from below
    m = max(c.denominator for p in result.points for c in p)
    assert m >= floor
    assert result.covering_sq_bound < F(9, 100)
    assert result.problem.gfa
    for p in result.points:
        assert sum(p) == 1 and all(c >= 0 for c in p)


def test_box_needs_profile():
    with pytest.raises(ValidationError, match="profile"):
        build_grid(BoxSpace.unit(3), F(1, 2), seed=1)


def test_epsilon_must_be_positive():
    with pytest.raises(ValidationError):
        build_grid(SimplexSpace(3), F(0), seed=1)
    # a float is not an exact rational: 0.1 is not 1/10, and NaN is none
    for inexact in (0.1, float("nan")):
        with pytest.raises(ValidationError):
            build_grid(SimplexSpace(3), inexact, seed=1)


def test_budget_guard():
    profile = gen_spatial(3, 3, seed=5)
    with pytest.raises(BudgetExceededError):
        build_grid(BoxSpace.unit(3), F(1, 100), seed=1, profile=profile,
                   max_points=1000)


def test_tie_audit_failure_without_jitter():
    # the audit reads the first tie of the first tied player from the dense
    # ranks: at player 1's lowest tied value, nodes 1 and 3, as the
    # `Fraction` reference names them when a re-draw never breaks the tie
    values = [(3, 1), (2, 1), (3, 0), (2, 5)]
    ranks = _dense_ranks(np.array(list(zip(*values))))
    assert _first_tie(ranks) == (0, 1, 3)
    got = outcome(_ref_audit_and_rejitter, list(values), tuple, 3, values.__getitem__)
    assert got[1:] == ("nodes 1 and 3 still tie for player 1 after 3 attempts", 0, (1, 3))


class _CountingRandom(random.Random):
    """`random.Random`, keeping the bit count of every `getrandbits` call."""

    def __init__(self, seed):
        self.asked = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.asked.append(k)
        return super().getrandbits(k)


# the box and simplex jitter ranges, and one that rejects about half its words
DRAW_RANGES = {"box": (-(2**16 - 1), 2**16), "simplex": (1, 2**16),
               "half rejected": (0, 2**16 + 1)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from((0, 1, 3, 1029)),
       st.sampled_from(sorted(DRAW_RANGES)))
def test_draws_are_the_randrange_loop(seed, count, kind):
    # the same values in order, and the generator left where the loop leaves
    # it; the words come in one batch of `count` words, then batches of the
    # values still missing, which the half-rejected range always needs
    start, stop = DRAW_RANGES[kind]
    batched, looped = _CountingRandom(seed), random.Random(seed)
    got = grids._draws(batched, count, start, stop)
    assert got.dtype == np.int64
    assert got.tolist() == [looped.randrange(start, stop) for _ in range(count)]
    assert batched.getstate() == looped.getstate()
    assert batched.asked[:1] == ([32 * count] if count else [])
    assert all(32 <= later <= earlier for earlier, later in zip(batched.asked, batched.asked[1:]))
    if kind == "half rejected" and count == 1029:
        assert len(batched.asked) > 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda players: st.lists(
    st.tuples(*[st.integers(-3, 3)] * players), min_size=1, max_size=8)))
def test_first_tie_names_the_pair_the_reference_redraws_first(values):
    # with one attempt the reference re-draws its first offender, then
    # names it; a table without ties passes at once
    ranks = _dense_ranks(np.array(list(zip(*values))))
    got = outcome(_ref_audit_and_rejitter, list(values), tuple, 1, values.__getitem__)
    assert _first_tie(ranks) == (None if got == 1 else (got[2], *got[3]))


def test_int_bounds_build_the_unit_grid():
    # bounds are read as exact rationals: ints give the unit cube's grid
    profile = gen_spatial(3, 3, 1)
    ints = build_grid(BoxSpace(((0, 1),) * 3), F(1, 2), seed=1, profile=profile)
    assert ints == build_grid(BoxSpace.unit(3), F(1, 2), seed=1, profile=profile)
    assert BoxSpace((("0", "1/2"),)).bounds == ((F(0), F(1, 2)),)
    for inexact in (0.5, True):
        with pytest.raises(ValidationError):
            BoxSpace(((0, inexact),))


def test_box_lattice_runs_the_first_axis_fastest_on_a_non_cube():
    # axes of 2, 3, 5 and 9 cells: node i sits in cell (i mod k_0,
    # (i // k_0) mod k_1, ...), and the grid equals the index-formula reference
    space = BoxSpace(((0, F(1, 4)), (F(-1, 3), F(1, 6)), (0, 1), (F(1, 2), F(5, 2))))
    profile = gen_spatial(4, 5, seed=7, box=space.bounds)
    centers, scale, *_ = grids._box_lattice(space, F(1, 2), profile, 10_000)
    cells = [2, 3, 5, 9]
    assert [len(set(axis)) for axis in zip(*centers)] == cells
    want = []
    for index in range(2 * 3 * 5 * 9):
        coords, rem = [], index
        for (lo, hi), k in zip(space.bounds, cells):
            coords.append(lo + (2 * (rem % k) + 1) * (hi - lo) / (2 * k))
            rem //= k
        want.append(tuple(coords))
    assert [tuple(F(c, scale) for c in center) for center in centers] == want
    for seed in (1, 2):
        assert build_grid(space, F(1, 2), seed=seed, profile=profile) == ref_build_box(
            space, F(1, 2), seed, profile)


def test_grid_problem_round_trips_epsilon():
    profile = gen_spatial(3, 5, seed=13)
    eps = F(2, 5)
    result = build_grid(BoxSpace.unit(3), eps, seed=14, profile=profile)
    assert result.epsilon == eps
    assert result.covering_sq_bound < eps**2
