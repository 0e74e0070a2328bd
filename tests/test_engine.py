from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    Allocation,
    BudgetExceededError,
    DivideDollarGrid,
    GameSpec,
    StrategyProfile,
    ValidationError,
    VotingRule,
    dtd_beta,
    dtd_beta_power,
    dtd_profile,
    equilibrium_outcome,
    favorite_improvement,
    horizon_payoffs,
    is_improvable,
    nc_outcome_bounds,
    phi_iterates,
    phi_or,
    play_out,
    reachability,
    simple_equilibrium_profile,
    solve_spe,
    unimprovable_set,
    verify_profile,
)
from agendalab.engine import _orbit
from agendalab.factories import gen_random_gfa, gen_random_with_ties
from agendalab.problems import _phi_table

from references import ref_phi


def chain(problem, rule, start_label, count):
    start = problem.policy_index(start_label)
    return [problem.policies[i] for i in phi_iterates(problem, rule, start, count)]


# ---------------------------------------------------------------------------
# favorite improvement


def test_phi_chain_cycle_fixture(cycle, rule3):
    assert chain(cycle, rule3, "z", 3) == ["z", "y", "x", "w"]
    assert chain(cycle, rule3, "w", 1) == ["w", "w"]


def test_phi_blocked_fixture(blocked, rule3):
    assert chain(blocked, rule3, "z", 1) == ["z", "x"]


def test_phi_requires_gfa_or_acknowledged_ties():
    # on ties the map is refused; is_improvable names the lowest-index maximizer
    problem = gen_random_with_ties(4, 3, seed=1)
    rule = VotingRule.simple_majority(3)
    with pytest.raises(ValidationError, match="gfa"):
        favorite_improvement(problem, rule, 0)
    with pytest.raises(ValidationError, match="gfa"):
        phi_iterates(problem, rule, 0, 2)
    cert = is_improvable(problem, rule, 0)
    assert ((0 if cert is None else cert.witness) == _orbit(problem, rule, 0, 1)[-1]
            == ref_phi(problem, rule, 0))


def test_phi_iterates_refuses_a_negative_count(cycle, rule3):
    with pytest.raises(ValidationError, match="step count"):
        phi_iterates(cycle, rule3, 0, -1)


def test_phi_fixed_point_iff_unimprovable(small_corpus):
    for problem in small_corpus[:15]:
        rule = VotingRule.simple_majority(problem.n)
        stuck = unimprovable_set(problem, rule)
        for x in range(problem.num_policies):
            assert (favorite_improvement(problem, rule, x) == x) == (x in stuck)


def test_phi_fast_path_matches_scalar():
    problem = gen_random_gfa(80, 5, seed=23)
    rule = VotingRule.simple_majority(5)
    for x in random.Random(0).sample(range(80), 12):
        fast = favorite_improvement(problem, rule, x)
        cert = is_improvable(problem, rule, x)
        assert fast == (x if cert is None else cert.witness) == ref_phi(problem, rule, x)


# ---------------------------------------------------------------------------
# equilibrium outcomes


def test_equilibrium_outcome_cycle(cycle, rule3):
    z = cycle.policy_index("z")
    for rounds, want in [(1, "y"), (2, "x"), (3, "w"), (5, "w")]:
        trajectory = equilibrium_outcome(cycle, rule3, z, rounds)
        assert cycle.policies[trajectory.outcome] == want
    assert equilibrium_outcome(cycle, rule3, z, 3).fixed_point_reached_at == 3
    assert equilibrium_outcome(cycle, rule3, z, 2).fixed_point_reached_at is None


def test_fixed_point_round_matches_a_scan_of_the_iterates(small_corpus):
    # every phi^t reader against a plain loop over the table: the fixed point
    # is the first t whose iterate the next one repeats, the steps stop there
    # or at T, and the padded iterates repeat it
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        table, m = _phi_table(problem, rule), problem.num_policies
        for x0 in range(m):
            walk = [x0]
            for _ in range(m + 2):
                walk.append(table[walk[-1]])
            fixed = next(t for t in range(m + 2) if walk[t + 1] == walk[t])
            assert (reachability(problem, x0, "credible").witness_chain
                    == tuple(walk[:fixed + 1]))
            assert horizon_payoffs(problem, x0, range(1, m + 2)).u_table == {
                t: problem.setter_utilities[walk[t]] for t in range(1, m + 2)}
            for rounds in range(1, m + 2):
                assert phi_iterates(problem, rule, x0, rounds) == walk[:rounds + 1]
                trajectory = equilibrium_outcome(problem, rule, x0, rounds)
                assert trajectory.outcome == walk[rounds]
                assert trajectory.steps == tuple(walk[1:min(fixed, rounds) + 1])
                assert trajectory.fixed_point_reached_at == (
                    fixed if fixed <= rounds else None)


def test_equilibrium_outcome_stops_at_the_fixed_point(cycle, rule3):
    # the steps end where phi absorbs, so a huge horizon costs no memory
    y, x, w = (cycle.policy_index(p) for p in "yxw")
    tracemalloc.start()
    try:
        trajectory = equilibrium_outcome(cycle, rule3, y, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trajectory.steps == (x, w) and trajectory.fixed_point_reached_at == 2
    assert peak < 2**20


def test_equilibrium_outcome_validation(cycle, rule3):
    with pytest.raises(ValidationError):
        equilibrium_outcome(cycle, rule3, 0, 0)
    tied = gen_random_with_ties(3, 3, seed=2)
    with pytest.raises(ValidationError):
        equilibrium_outcome(tied, VotingRule.simple_majority(3), 0, 2)


def test_monotone_ratchet_and_absorption(small_corpus):
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        horizon = problem.num_policies - 1
        stuck = unimprovable_set(problem, rule)
        absorbed = set()
        for x0 in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x0, max(horizon, 1))
            payoffs = [problem.setter_utilities[i] for i in iterates]
            for a, b in zip(payoffs, payoffs[1:]):
                assert b >= a
            assert iterates[-1] in stuck
            absorbed.add(iterates[-1])
        assert absorbed == stuck          # every fixed point is reached from itself


def test_phi_commutes_with_its_iterates(small_corpus):
    for problem in small_corpus[:20]:
        rule = VotingRule.simple_majority(problem.n)
        for x in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x, 3)
            assert favorite_improvement(problem, rule, iterates[2]) == \
                phi_iterates(problem, rule, iterates[1], 2)[-1]


def test_engine_matches_oracle_on_random_instances(small_corpus):
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        for x0 in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x0, 4)
            for rounds in range(1, 5):
                game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                                initial_default=x0)
                assert solve_spe(game).outcome == iterates[rounds]


# ---------------------------------------------------------------------------
# the simple equilibrium profile


def test_simple_profile_on_path(cycle, rule3):
    profile = simple_equilibrium_profile(cycle, rule3, 3)
    z = cycle.policy_index("z")
    defaults, proposals = [z], []
    for t in (1, 2, 3):
        a, adjourn = profile.propose(t, defaults[-1])
        assert not adjourn
        proposals.append(cycle.policies[a])
        defaults.append(a)
    assert proposals == ["y", "x", "w"]


def test_simple_profile_same_onpath_coalition(cycle, rule3):
    profile = simple_equilibrium_profile(cycle, rule3, 3)
    z = cycle.policy_index("z")
    coalitions = []
    default = z
    for t in (1, 2, 3):
        a, _ = profile.propose(t, default)
        coalitions.append(frozenset(
            i for i in range(3) if profile.vote(i, t, default, a)))
        default = a
    assert coalitions[0] == coalitions[1] == coalitions[2]
    # exactly the voters preferring the final outcome over the penultimate one
    final, penult = phi_iterates(cycle, rule3, z, 3)[-1], phi_iterates(cycle, rule3, z, 2)[-1]
    expected = frozenset(i for i in range(3)
                         if cycle.voter_utilities[i][final]
                         >= cycle.voter_utilities[i][penult])
    assert coalitions[0] == expected == frozenset({0, 2})


def test_simple_profile_one_round_proposes_phi(cycle, rule3):
    profile = simple_equilibrium_profile(cycle, rule3, 1)
    for x in range(4):
        assert profile.propose(1, x) == (favorite_improvement(cycle, rule3, x), False)


def test_simple_profile_passes_verification(cycle, rule3, small_corpus):
    game = GameSpec(problem=cycle, rule=rule3, horizon=3,
                    initial_default=cycle.policy_index("z"))
    report = verify_profile(game, simple_equilibrium_profile(cycle, rule3, 3))
    assert report.profile_valid
    for problem in small_corpus[:8]:
        rule = VotingRule.simple_majority(problem.n)
        game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0)
        profile = simple_equilibrium_profile(problem, rule, 3)
        assert verify_profile(game, profile).profile_valid
        assert play_out(game, profile) == phi_iterates(problem, rule, 0, 3)[-1]


def test_simple_profile_long_horizon(cycle, rule3):
    # the orbit table is built iteratively, so a deep continuation is a lookup
    rounds = 1500
    profile = simple_equilibrium_profile(cycle, rule3, rounds)
    orbit = [phi_iterates(cycle, rule3, x, rounds - 1)[-1] for x in range(4)]
    for i in range(3):
        row = cycle.voter_utilities[i]
        assert profile.vote(i, 1, 0, 1) == (row[orbit[1]] >= row[orbit[0]])
    assert profile.ballots(1, 0, [1], 3)[:, 0].tolist() == [
        profile.vote(i, 1, 0, 1) for i in range(3)]
    assert profile.propose(rounds, 0) == (favorite_improvement(cycle, rule3, 0), False)


@pytest.mark.parametrize("t", [0, 4, 9, -1])
def test_markov_profiles_refuse_rounds_outside_the_horizon(cycle, rule3, t):
    profiles = (simple_equilibrium_profile(cycle, rule3, 3),
                dtd_profile(3, 4, 3, "non_capricious"), dtd_profile(3, 4, 3, "capricious"))
    for profile in profiles:
        with pytest.raises(ValidationError, match=f"round {t} out of range 1..3"):
            profile.propose(t, 0)
        with pytest.raises(ValidationError, match=f"round {t} out of range 1..3"):
            profile.vote(0, t, 0, 1)
        with pytest.raises(ValidationError, match=f"round {t} out of range 1..3"):
            profile.ballots(t, 0, [1], 3)


def test_markov_ballots_match_votes_and_check_their_arguments(cycle, rule3):
    profiles = [simple_equilibrium_profile(cycle, rule3, 3)]
    profiles += [dtd_profile(3, 3, 4, flavor) for flavor in ("non_capricious", "capricious")]
    for profile in profiles:
        size = 4 if profile.label == "simple-equilibrium" else 20
        policies = [size - 1, 0, 2, 0]
        for t in range(1, profile.horizon + 1):
            for x in range(size):
                block = profile.ballots(t, x, policies, 3)
                assert block.dtype == bool and block.shape == (3, 4)
                assert block.tolist() == [[profile.vote(i, t, x, a) for a in policies]
                                          for i in range(3)]
        assert profile.ballots(1, 0, [], 3).shape == (3, 0)
        with pytest.raises(ValidationError, match=f"policy index {size} out of range"):
            profile.ballots(1, 0, [0, size, -1], 3)
        with pytest.raises(ValidationError, match="policy index -1 out of range"):
            profile.ballots(1, -1, [0], 3)
        with pytest.raises(ValidationError, match="is for 3 voters, not 5"):
            profile.ballots(1, 0, [0], 5)


def test_plain_profile_ballots_read_votes_policy_first(cycle, rule3):
    base = simple_equilibrium_profile(cycle, rule3, 2)
    calls = []

    def vote(i, t, x, a):
        calls.append((i, t, x, a))
        return base.vote(i, t, x, a)

    profile = StrategyProfile(horizon=2, propose=base.propose, vote=vote)
    block = profile.ballots(1, 0, [2, 1], 3)
    assert calls == [(i, 1, 0, a) for a in (2, 1) for i in range(3)]
    assert block.tolist() == base.ballots(1, 0, [2, 1], 3).tolist()


# ---------------------------------------------------------------------------
# one-round improvement correspondence


def test_phi_or_cycle(cycle, rule3):
    assert phi_or(cycle, rule3, cycle.policy_index("z")) == {cycle.policy_index("y")}


def test_phi_or_fixed_point_law(small_corpus):
    for problem in small_corpus[:10]:
        rule = VotingRule.simple_majority(problem.n)
        stuck = unimprovable_set(problem, rule)
        for x in range(problem.num_policies):
            assert (x in phi_or(problem, rule, x)) == (x in stuck)
            assert phi_or(problem, rule, x)      # nonempty


def test_phi_or_dollar_grid_boundary():
    # the coarse-grid artifact, pinned: (2,1,1,0)/4 is grid-unimprovable, so
    # the correspondence keeps it as a fixed point alongside genuine grabs
    grid = DivideDollarGrid(n=3, m=4)
    rule = VotingRule.quota_rule(3, 2)
    x = grid.index(Allocation(units=(2, 1, 1, 0), denom=4))
    members = phi_or(grid.problem, rule, x)
    assert x in members
    assert grid.index(Allocation(units=(0, 1, 1, 2), denom=4)) in members
    assert is_improvable(grid.problem, rule, x) is None
    best = max(grid.problem.setter_utilities[y] for y in members)
    assert best == Fraction(1, 2)


def test_phi_or_singleton_under_gfa(small_corpus):
    for problem in small_corpus[:10]:
        rule = VotingRule.simple_majority(problem.n)
        for x in range(problem.num_policies):
            assert phi_or(problem, rule, x) == {favorite_improvement(problem, rule, x)}


# ---------------------------------------------------------------------------
# outcome bounds


def test_bounds_collapse_under_gfa(cycle, rule3):
    bounds = nc_outcome_bounds(cycle, rule3, cycle.policy_index("z"), 3)
    w = frozenset({cycle.policy_index("w")})
    assert bounds.lower == bounds.upper == w


def test_bounds_nested_on_tied_instances():
    rule = VotingRule.simple_majority(3)
    for seed in range(25):
        problem = gen_random_with_ties(4, 3, seed=seed)
        bounds = nc_outcome_bounds(problem, rule, seed % 4, 1 + seed % 3)
        assert bounds.lower <= bounds.upper


def test_bounds_fixed_point_default():
    rule = VotingRule.simple_majority(3)
    for seed in range(40):
        problem = gen_random_with_ties(4, 3, seed=seed)
        for x0 in range(4):
            if phi_or(problem, rule, x0) == frozenset({x0}):
                bounds = nc_outcome_bounds(problem, rule, x0, 3)
                assert bounds.lower == bounds.upper == frozenset({x0})
                break


def test_bounds_budget_error(cycle, rule3):
    with pytest.raises(BudgetExceededError):
        nc_outcome_bounds(cycle, rule3, 0, 3, budget=1)


def test_bounds_long_horizon(cycle, rule3):
    # the walker keeps its own stack, so the depth is not limited by recursion
    x0, rounds = cycle.policy_index("z"), 1500
    bounds = nc_outcome_bounds(cycle, rule3, x0, rounds)
    assert bounds.lower == bounds.upper == frozenset(
        {phi_iterates(cycle, rule3, x0, rounds)[-1]})
    with pytest.raises(BudgetExceededError) as caught:
        nc_outcome_bounds(cycle, rule3, x0, rounds, budget=rounds + 5)
    # the lower walk spends rounds + 1 ticks, the upper one runs out four later
    assert caught.value.required == rounds + 6


def test_bounds_lower_members_are_selection_orbits():
    # brute-force reference: enumerate full selections as explicit functions
    rule = VotingRule.simple_majority(3)
    problem = gen_random_with_ties(3, 3, seed=12)
    rounds = 3
    options = [sorted(phi_or(problem, rule, x)) for x in range(3)]
    reference = set()
    for a in options[0]:
        for b in options[1]:
            for c in options[2]:
                select = {0: a, 1: b, 2: c}
                state = 0
                for _ in range(rounds):
                    state = select[state]
                reference.add(state)
    bounds = nc_outcome_bounds(problem, rule, 0, rounds)
    assert bounds.lower == frozenset(reference)


# ---------------------------------------------------------------------------
# divide-the-dollar machinery


def test_allocation_validation():
    with pytest.raises(ValidationError):
        Allocation(units=(1, 1, 1), denom=4)
    with pytest.raises(ValidationError):
        Allocation(units=(-1, 2, 3), denom=4)


def test_beta_walkthrough():
    start = Allocation(units=(4, 2, 1, 1), denom=8)
    assert dtd_beta(start).units == (0, 2, 1, 5)
    assert dtd_beta_power(start, 2).units == (0, 0, 1, 7)
    assert dtd_beta_power(start, 3).units == (0, 0, 0, 8)


def test_beta_dictator_fixed_point():
    dictator = Allocation(units=(0, 0, 0, 8), denom=8)
    assert dtd_beta(dictator) == dictator


def test_beta_tie_breaks_to_lowest_index():
    tied = Allocation(units=(1, 1, 1, 1), denom=4)
    assert dtd_beta(tied).units == (0, 1, 1, 2)


def test_beta_requires_odd_voters():
    with pytest.raises(ValidationError):
        dtd_beta(Allocation(units=(1, 1, 2), denom=4))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([3, 5]))
def test_beta_support_shrink_law(seed, n):
    rng = random.Random(seed)
    m = rng.randrange(1, 12)
    cuts = sorted(rng.randrange(m + 1) for _ in range(n))
    units = []
    prev = 0
    for c in cuts:
        units.append(c - prev)
        prev = c
    units.append(m - prev)
    allocation = Allocation(units=tuple(units), denom=m)
    while True:
        support = sum(1 for u in allocation.units[:-1] if u > 0)
        after = dtd_beta(allocation)
        support_after = sum(1 for u in after.units[:-1] if u > 0)
        assert support - support_after == min((n - 1) // 2, support)
        if support_after == 0:
            break
        allocation = after


def test_dtd_profile_outcomes_m8():
    grid = DivideDollarGrid(n=3, m=8)
    rule = VotingRule.simple_majority(3)
    x0 = grid.index(Allocation(units=(4, 2, 1, 1), denom=8))

    def outcome(flavor, rounds):
        profile = dtd_profile(3, 8, rounds, flavor)
        game = GameSpec(problem=grid.problem, rule=rule, horizon=rounds,
                        initial_default=x0)
        return grid.allocation(play_out(game, profile)).units

    assert outcome("non_capricious", 3) == (0, 0, 0, 8)
    assert outcome("capricious", 5) == (0, 0, 1, 7)
    assert outcome("non_capricious", 2) == (0, 0, 1, 7)
    assert outcome("capricious", 2) == (0, 0, 1, 7)


def test_dtd_profile_validation():
    with pytest.raises(ValidationError):
        dtd_profile(5, 4, 3, "capricious")
    with pytest.raises(ValidationError):
        dtd_profile(3, 4, 3, "whimsical")
    with pytest.raises(ValidationError):
        dtd_profile(3, 4, 1, "non_capricious")


def test_trajectory_steps_stay_almost_strict_acceptable(small_corpus):
    from agendalab import acceptance_set
    for problem in small_corpus[:15]:
        rule = VotingRule.simple_majority(problem.n)
        for x0 in range(problem.num_policies):
            trajectory = equilibrium_outcome(problem, rule, x0, 4)
            previous = x0
            for step in trajectory.steps:
                assert step in acceptance_set(problem, rule, previous, "almost_strict")
                previous = step


def test_bounds_upper_matches_constrained_composite_enumeration():
    # reference oracle: enumerate per-round selection tuples directly under
    # the setter-indifference constraint and collect the composites
    from itertools import product
    rule = VotingRule.simple_majority(3)
    rounds = 2
    for seed in (3, 7, 21):
        problem = gen_random_with_ties(3, 3, seed=seed)
        options = [sorted(phi_or(problem, rule, x)) for x in range(3)]
        selections = [dict(zip(range(3), combo))
                      for combo in product(*options)]
        reference = set()
        for combo in product(selections, repeat=rounds):
            last = combo[-1]
            if any(problem.setter_utilities[sel[x]]
                   != problem.setter_utilities[last[x]]
                   for sel in combo for x in range(3)):
                continue
            state = 0
            for sel in reversed(combo):      # round T applies first
                state = sel[state]
            reference.add(state)
        bounds = nc_outcome_bounds(problem, rule, 0, rounds)
        assert bounds.upper == frozenset(reference)


def test_phi_fast_path_respects_fixed_points_on_ties():
    # with indifference, an equal-utility majority winner must not displace
    # an unimprovable default; the rank table and a Fraction scan agree on that
    problem = gen_random_with_ties(70, 5, seed=31, levels=4)
    rule = VotingRule.simple_majority(5)
    for x in range(0, 70, 7):
        fast = _orbit(problem, rule, x, 1)[-1]
        cert = is_improvable(problem, rule, x)
        assert fast == (x if cert is None else cert.witness) == ref_phi(problem, rule, x)
