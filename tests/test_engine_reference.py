"""Outcome bounds and share-grab profiles against their hand-built forms.

`ref_nc_outcome_bounds` walks the lower and the upper bound with two
separate recursive enumerators that share one budget counter, and
`ref_dtd_profile` memoizes grab iterates of grid indices and compares
voters' units directly in one vote closure per flavor.  The library
builds the same objects from one selection walker and one Markov-profile
builder; the properties below require the same bounds (or the same
error class and message) on seeded random problems with indifference,
and the same entries of every share-grab profile.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from agendalab import (
    OutcomeBounds,
    StrategyProfile,
    ValidationError,
    VotingRule,
    dtd_beta,
    dtd_profile,
    nc_outcome_bounds,
    phi_or,
)
from agendalab.distributions import DivideDollarGrid
from agendalab.errors import AgendaLabError, BudgetExceededError
from agendalab.factories import gen_random_with_ties


def ref_nc_outcome_bounds(problem, rule, x0, rounds, budget=200_000):
    if rounds < 1:
        raise ValidationError("need at least one round")
    problem.check_policy(x0)
    correspondence = [phi_or(problem, rule, x) for x in range(problem.num_policies)]
    ticker = [0]

    def spend():
        ticker[0] += 1
        if ticker[0] > budget:
            raise BudgetExceededError(
                "selection enumeration exceeded budget", required=ticker[0], budget=budget)

    lower = set()
    assignment = {}

    def walk_lower(state, depth):
        spend()
        if depth == rounds:
            lower.add(state)
            return
        if state in assignment:
            walk_lower(assignment[state], depth + 1)
            return
        for y in sorted(correspondence[state]):
            assignment[state] = y
            walk_lower(y, depth + 1)
            del assignment[state]

    walk_lower(x0, 0)

    classes = []
    for members in correspondence:
        by_value: dict[Fraction, list[int]] = {}
        for y in sorted(members):
            by_value.setdefault(problem.setter_utilities[y], []).append(y)
        classes.append({v: tuple(ys) for v, ys in by_value.items()})

    upper = set()
    chosen_value = {}

    def walk_upper(state, depth):
        spend()
        if depth == rounds:
            upper.add(state)
            return
        if state in chosen_value:
            for y in classes[state][chosen_value[state]]:
                walk_upper(y, depth + 1)
            return
        for value, members in classes[state].items():
            chosen_value[state] = value
            for y in members:
                walk_upper(y, depth + 1)
            del chosen_value[state]

    walk_upper(x0, 0)
    return OutcomeBounds(lower=frozenset(lower), upper=frozenset(upper))


def ref_dtd_profile(n, m, rounds, flavor):
    grid = DivideDollarGrid(n=n, m=m)

    @lru_cache(maxsize=None)
    def power_idx(x, k):
        if k == 0:
            return x
        return grid.index(dtd_beta(grid.allocation(power_idx(x, k - 1))))

    def propose(t, x):
        return (power_idx(x, 1), False)

    if flavor == "non_capricious":
        def vote(i, t, x, a):
            k = rounds - t
            ca = grid.allocation(power_idx(a, k))
            cr = grid.allocation(power_idx(x, k))
            return ca.units[i] >= cr.units[i]
    else:
        def vote(i, t, x, a):
            k = min(rounds - t, 2)
            ca = grid.allocation(power_idx(a, k))
            cr = grid.allocation(power_idx(x, k))
            if ca.units[i] != cr.units[i]:
                return ca.units[i] > cr.units[i]
            return t >= rounds - 1

    return StrategyProfile(horizon=rounds, propose=propose, vote=vote,
                           label=f"dtd-{flavor}")


def _outcome(fn, *args, **kwargs):
    """A result, or the class, message and budget figures of its error."""
    try:
        return fn(*args, **kwargs)
    except AgendaLabError as exc:
        return (type(exc), str(exc), getattr(exc, "required", None),
                getattr(exc, "budget", None))


def test_nc_outcome_bounds_matches_reference():
    capped, full = [], []
    for seed in range(300):
        rng = random.Random(30_000 + seed)
        n, m, rounds = rng.randint(1, 7), rng.randint(2, 6), rng.randint(1, 4)
        problem = gen_random_with_ties(m, n, seed=rng.randrange(2**31),
                                       levels=rng.randint(2, 4))
        rule = (VotingRule.simple_majority(n) if n % 2 and rng.random() < 0.5
                else VotingRule.quota_rule(n, rng.randint(1, n)))
        x0, budget = rng.randrange(m), rng.randint(1, 60)
        for budget, results in ((budget, capped), (200_000, full)):
            bounds = _outcome(nc_outcome_bounds, problem, rule, x0, rounds, budget=budget)
            assert bounds == _outcome(ref_nc_outcome_bounds, problem, rule, x0, rounds,
                                      budget=budget)
            results.append(bounds)
    # about a third of the capped draws run out of budget
    assert 60 < sum(isinstance(r, tuple) for r in capped) < 140
    # some draws separate the bounds, so the two walks differ
    assert any(r.lower != r.upper for r in full)


@pytest.mark.parametrize("flavor", ["non_capricious", "capricious"])
@pytest.mark.parametrize("m", range(2, 7))
def test_dtd_profile_matches_reference(flavor, m):
    size = len(DivideDollarGrid(n=3, m=m).allocations)
    for rounds in range(2, 6):
        profile = dtd_profile(3, m, rounds, flavor)
        reference = ref_dtd_profile(3, m, rounds, flavor)
        assert profile.label == reference.label and profile.horizon == rounds
        for t in range(1, rounds + 1):
            for x in range(size):
                assert profile.propose(t, x) == reference.propose(t, x)
                for a in range(size):
                    for i in range(3):
                        assert profile.vote(i, t, x, a) == reference.vote(i, t, x, a)


@pytest.mark.parametrize("flavor", ["non_capricious", "capricious"])
def test_dtd_profile_rejects_out_of_range_indices(flavor):
    profile = dtd_profile(3, 6, 3, flavor)
    size = len(DivideDollarGrid(n=3, m=6).allocations)
    for x in (-1, size):
        with pytest.raises(ValidationError, match=f"policy index {x} out of range"):
            profile.propose(1, x)
        with pytest.raises(ValidationError, match=f"policy index {x} out of range"):
            profile.vote(0, 1, 0, x)
        with pytest.raises(ValidationError, match=f"policy index {x} out of range"):
            profile.vote(0, 1, x, 0)
    # the last index, one voter holding the dollar, is in range: the grab
    # hands the setter everything, index 0
    assert profile.propose(1, size - 1) == (0, False)
