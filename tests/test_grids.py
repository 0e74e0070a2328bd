from __future__ import annotations

from fractions import Fraction
from math import ceil, sqrt

import pytest

from agendalab import (
    BoxSpace,
    BudgetExceededError,
    GridGenericityError,
    SimplexSpace,
    SpatialProfile,
    ValidationError,
    build_grid,
    gen_spatial,
)

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


def test_anchor_is_kept_verbatim():
    profile = gen_spatial(3, 3, seed=5)
    anchor = (F(1, 3), F(1, 3), F(1, 3))
    result = build_grid(BoxSpace.unit(3), F(1, 2), seed=6, profile=profile,
                        anchor=anchor)
    assert anchor in result.points


def test_huge_epsilon_single_anchor_grid():
    profile = gen_spatial(3, 3, seed=5)
    anchor = (F(1, 2), F(1, 2), F(1, 2))
    result = build_grid(BoxSpace.unit(3), F(5), seed=6, profile=profile,
                        anchor=anchor)
    assert result.points == (anchor,)
    assert result.covering_sq_bound < F(25)


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


def test_simplex_anchor_validation():
    with pytest.raises(ValidationError, match="simplex"):
        build_grid(SimplexSpace(3), F(1, 2), seed=1,
                   anchor=(F(1, 2), F(1, 2), F(1, 2), F(1, 2)))


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
    # a perfectly symmetric profile on an unjittered lattice must tie
    profile = SpatialProfile(
        dim=3,
        ideal_points=((F(1, 2), F(1, 2), F(1, 2)),) * 4,
        box=((F(0), F(1)),) * 3)
    with pytest.raises(GridGenericityError) as info:
        build_grid(BoxSpace.unit(3), F(1, 2), seed=1, profile=profile,
                   jitter=False, max_attempts=3)
    assert info.value.pair is not None and info.value.player is not None


def test_grid_problem_round_trips_epsilon():
    profile = gen_spatial(3, 5, seed=13)
    eps = F(2, 5)
    result = build_grid(BoxSpace.unit(3), eps, seed=14, profile=profile)
    assert result.epsilon == eps
    assert result.covering_sq_bound < eps**2
