from __future__ import annotations

import dataclasses
import gc
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from agendalab import (
    BudgetExceededError,
    CollectiveChoiceProblem,
    CustomProtocol,
    DivideDollarGrid,
    GameSpec,
    RichnessError,
    StrategyProfile,
    UnsupportedCombinationError,
    ValidationError,
    VotingRule,
    check_richness,
    nc_outcome_bounds,
    phi_iterates,
    play_out,
    pork_barrel_problem,
    protocol_equivalence,
    simple_equilibrium_profile,
    solve_spe,
    verify_profile,
)
from agendalab.factories import gen_random_gfa, gfa_corpus
from agendalab.fixtures import adjournment_trap_protocol, majority_cycle_problem
from agendalab.grids import BoxSpace, build_grid
from agendalab.oracle import PRESET_PROTOCOLS, SolveReport, TraceStep, Violation
from agendalab.problems import _column_chunks, _offer_chunks
from agendalab.serialize import load_problem, save_problem
from agendalab.spatial import gen_spatial

from test_oracle_reference import _outcome, ref_solve_spe, ref_verify_profile


def test_solve_cycle_fixture(cycle, rule3):
    z, w = cycle.policy_index("z"), cycle.policy_index("w")
    assert solve_spe(GameSpec(problem=cycle, rule=rule3, horizon=3,
                              initial_default=z)).outcome == w
    assert solve_spe(GameSpec(problem=cycle, rule=rule3, horizon=1,
                              initial_default=w)).outcome == w


def test_solve_value_table_shape(cycle, rule3):
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=0)
    report = solve_spe(game)
    for x in range(4):
        assert report.value_table[(4, x)] == x
    assert report.outcome == report.value_table[(1, 0)]


def test_solve_refuses_indifference():
    grid = DivideDollarGrid(n=3, m=2)
    game = GameSpec(problem=grid.problem, rule=VotingRule.simple_majority(3),
                    horizon=2, initial_default=0)
    with pytest.raises(ValidationError, match="verify_profile"):
        solve_spe(game)


def test_override_solves_as_its_realization(blocked, blocked_realized, rule3):
    """The votes read only the relation, so the override fixture solves
    as its realization does; its steps name no approvers."""
    realized_rule = VotingRule.simple_majority(blocked_realized.n)
    compared = 0
    for protocol in PRESET_PROTOCOLS:
        for horizon in range(1, 7):
            for x in range(4):
                got = solve_spe(GameSpec(problem=blocked, rule=rule3, horizon=horizon,
                                         initial_default=x, protocol=protocol))
                want = solve_spe(GameSpec(problem=blocked_realized, rule=realized_rule,
                                          horizon=horizon, initial_default=x,
                                          protocol=protocol))
                assert (got.outcome, got.value_table) == (want.outcome, want.value_table)
                assert got.pivotal_trace == tuple(
                    dataclasses.replace(step, approvers=None) for step in want.pivotal_trace)
                compared += 1
    assert compared == 72
    # the override still defines only the simple-majority relation, and
    # per-voter ballots are still not audited against it
    with pytest.raises(UnsupportedCombinationError):
        solve_spe(GameSpec(problem=blocked, rule=VotingRule.quota_rule(3, 3), horizon=2,
                           initial_default=0))
    game = GameSpec(problem=blocked, rule=rule3, horizon=2, initial_default=0)
    with pytest.raises(UnsupportedCombinationError):
        verify_profile(game, StrategyProfile.from_tables(2, {}, []))


# ---------------------------------------------------------------------------
# an override problem's voter rows are placeholders


def test_tied_placeholder_rows_solve_as_the_realization(blocked, blocked_realized, rule3,
                                                        tmp_path):
    # gfa reads only the setter row and the voter count of an override problem
    problem = CollectiveChoiceProblem(policies=blocked.policies,
                                      voter_utilities=((0, 0, 0, 0),) * 3,
                                      setter_utilities=(4, 3, 2, 1),
                                      majority_override=blocked.majority_override)
    assert problem.gfa
    realized_rule = VotingRule.simple_majority(blocked_realized.n)
    compared = 0
    for protocol in PRESET_PROTOCOLS:
        for horizon in range(1, 7):
            for x in range(4):
                got = solve_spe(GameSpec(problem=problem, rule=rule3, horizon=horizon,
                                         initial_default=x, protocol=protocol))
                want = solve_spe(GameSpec(problem=blocked_realized, rule=realized_rule,
                                          horizon=horizon, initial_default=x,
                                          protocol=protocol))
                assert (got.outcome, got.value_table) == (want.outcome, want.value_table)
                assert got.outcome == phi_iterates(problem, rule3, x, horizon)[-1]
                compared += 1
    assert compared == 72
    path = tmp_path / "placeholder.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_solve_budget(rule3):
    # a fresh problem (the session's `cycle` keeps rows from earlier tests):
    # its first backward step is charged m * (m + 1) = 20 before it runs
    game = GameSpec(problem=majority_cycle_problem(), rule=rule3, horizon=3, initial_default=0)
    with pytest.raises(BudgetExceededError) as info:
        solve_spe(game, budget=10)
    assert (info.value.required, info.value.budget) == (20, 10)
    assert str(info.value) == "state space too large for the oracle (required 20, budget 10)"


# one work meter: `solve_spe` is charged m * (m + 1) per backward step it
# computes and m per round appended past a preset's fixed point; the other
# kernels keep their counts


def _cold_cycle_solve(budget, horizon=3):
    return solve_spe(GameSpec(problem=majority_cycle_problem(), rule=VotingRule.simple_majority(3),
                              horizon=horizon, initial_default=0), budget=budget)


def _cycle_verification(budget):
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    return verify_profile(GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0),
                          simple_equilibrium_profile(problem, rule, 3), budget=budget)


@pytest.mark.parametrize("call, counted", [
    # three computed steps of 4 * 5: the cycle's rows reach no fixed point by T = 3
    (_cold_cycle_solve, 60),
    # step 4 repeats step 3's outcome row: 4 steps of 20, then 6 rounds of m = 4
    (lambda budget: _cold_cycle_solve(budget, horizon=10), 4 * 20 + 6 * 4),
    # 9 reachable states (1 in round 1, all 4 in rounds 2 and 3) * m * (n + 1)
    (_cycle_verification, 9 * 4 * 4),
    # w is a fixed point of the one-valued correspondence: each walk visits T + 1 states
    (lambda budget: nc_outcome_bounds(majority_cycle_problem(), VotingRule.simple_majority(3),
                                      0, 3, budget=budget), 2 * 4),
    # the skip subset, then the 4 corner splits of the one project's benefit
    (lambda budget: pork_barrel_problem([(1, 0)], m=1, n=3, budget=budget), 1 + 4),
], ids=["solve_spe", "solve_spe past the fixed point", "verify_profile", "nc_outcome_bounds",
        "pork_barrel_problem"])
def test_each_metered_kernel_accepts_exactly_its_counted_work(call, counted):
    call(counted)
    with pytest.raises(BudgetExceededError) as info:
        call(counted - 1)
    assert (info.value.required, info.value.budget) == (counted, counted - 1)


@pytest.mark.parametrize("protocol", [*PRESET_PROTOCOLS, adjournment_trap_protocol(3)],
                         ids=[*PRESET_PROTOCOLS, "custom"])
def test_a_cold_solve_refused_at_its_first_charge_keeps_nothing(protocol):
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    game = GameSpec(problem=problem, rule=rule, horizon=3,
                    initial_default=problem.policy_index("z"), protocol=protocol)
    with pytest.raises(BudgetExceededError, match=r"\(required 20, budget 19\)$"):
        solve_spe(game, budget=19)
    # neither the vote table nor a store of rows was built before the charge
    assert not [key for key in problem._memo if key[0] in ("wins", "rows")]
    # a cold preset store is kept only once it reaches the horizon, so a
    # refusal after some steps keeps none either, and repeats
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match=r"\(required 60, budget 59\)$"):
            solve_spe(game, budget=59)
        assert not [key for key in problem._memo if key[0] == "rows"]


def test_verification_is_refused_before_the_round_it_cannot_afford():
    # round 1 walks one state, and then all 2,000 policies are reachable:
    # round 2's charge of 2,000 * 2,000 * 4 is refused before it is walked
    problem, rule = gen_random_gfa(2000, 3, 1), VotingRule.simple_majority(3)
    game = GameSpec(problem=problem, rule=rule, horizon=5, initial_default=0)
    profile = simple_equilibrium_profile(problem, rule, 5)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"^profile verification too large \(required 16,008,000, "
                             r"budget 5,000,000\)$"):
        verify_profile(game, profile)
    assert time.perf_counter() - started < 0.1


def test_preset_solves_on_the_interior_grid_fit_the_default_budget():
    # the 343-node interior grid: T * m * (m + 1) = 11,799,200 is past the
    # default budget, but each preset's rows stop at their fixed point, so
    # the steps a solve computes are charged far less
    profile = gen_spatial(3, 5, 1, box=((Fraction(1, 4), Fraction(3, 4)),) * 3)
    problem = build_grid(BoxSpace.unit(3), Fraction(1, 4), seed=2, profile=profile).problem
    rule = VotingRule.simple_majority(5)
    assert problem.num_policies == 343 and problem.gfa
    for protocol in PRESET_PROTOCOLS:
        for x in (0, 171, 342):
            game = GameSpec(problem=problem, rule=rule, horizon=100, initial_default=x,
                            protocol=protocol)
            assert solve_spe(game).outcome == phi_iterates(problem, rule, x, 100)[-1]


def _large_gfa_problem(m, n):
    rng = random.Random(5)
    problem = CollectiveChoiceProblem(
        policies=tuple(f"p{k}" for k in range(m)),
        voter_utilities=tuple(tuple(Fraction(v) for v in rng.sample(range(m), m))
                              for _ in range(n)),
        setter_utilities=tuple(Fraction(v) for v in rng.sample(range(m), m)), gfa=True)
    return problem


def test_solve_memory_is_m_squared_plus_one_chunk():
    m, n = 1000, 3
    problem = _large_gfa_problem(m, n)
    game = GameSpec(problem=problem, rule=VotingRule.simple_majority(n), horizon=1,
                    initial_default=0)
    width = _column_chunks(problem)[0].stop
    tracemalloc.start()
    try:
        report = solve_spe(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.value_table) == 2 * m
    # the vote table (m**2 bytes), a few int64 (2m x chunk) blocks, and 1 MB
    # for the value table and lists; the action mask is built one chunk at a
    # time, and one (2m x m) int64 array alone would be 16 MB
    bound = m * m + 4 * (2 * m * width * 8) + 2**20
    assert peak < bound, (peak, bound)


def test_presets_retain_one_vote_table_plus_their_rows():
    m, n = 1000, 3
    problem = _large_gfa_problem(m, n)
    rule = VotingRule.simple_majority(n)
    tracemalloc.start()
    try:
        for protocol in ("amendment", "successive", "open_rule"):
            solve_spe(GameSpec(problem=problem, rule=rule, horizon=1, initial_default=0,
                               protocol=protocol))
        gc.collect()       # a full collection also empties the free lists
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the shared vote table (m**2 bytes) and, per preset, the int64 rows of
    # one step (values[0], values[1], choices[0]), plus 16 KB for the memo
    rows = 3 * (3 * m * 8)
    assert m * m + rows <= retained < m * m + rows + 2**14, (retained, m * m + rows)
    assert len(problem._memo) == 1 + 3


def test_solving_every_default_retains_nothing_more():
    # after the presets' rows are kept, a solve keeps nothing of its own:
    # no vote cache and no per-pair entry outlives the call
    m, n = 1000, 3
    problem = _large_gfa_problem(m, n)
    rule = VotingRule.simple_majority(n)
    tracemalloc.start()
    try:
        for protocol in PRESET_PROTOCOLS:
            solve_spe(GameSpec(problem=problem, rule=rule, horizon=1, initial_default=0,
                               protocol=protocol))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for x in range(m):
            solve_spe(GameSpec(problem=problem, rule=rule, horizon=1, initial_default=x))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**14, grown


def test_trace_names_its_approvers_on_first_read(cycle, blocked, rule3):
    # the path is walked on ints; the trace, made when first read, names the
    # reference's approvers, and each step equals what the public constructor keeps
    for protocol in PRESET_PROTOCOLS:
        for horizon in range(1, 5):
            for x in range(cycle.num_policies):
                game = GameSpec(problem=cycle, rule=rule3, horizon=horizon,
                                initial_default=x, protocol=protocol)
                trace = solve_spe(game).pivotal_trace
                assert [step.approvers for step in trace] == [
                    step.approvers for step in ref_solve_spe(game).pivotal_trace]
                for step in trace:
                    built = TraceStep(**{field.name: getattr(step, field.name)
                                         for field in dataclasses.fields(step)})
                    assert step == built and hash(step) == hash(built)
                    assert repr(step) == repr(built)
                override = dataclasses.replace(game, problem=blocked)
                assert all(step.approvers is None
                           for step in solve_spe(override).pivotal_trace)


def test_value_monotone_in_remaining_rounds(small_corpus):
    # one more round from the same default never hurts the setter
    for problem in small_corpus[:20]:
        rule = VotingRule.simple_majority(problem.n)
        game = GameSpec(problem=problem, rule=rule, horizon=4, initial_default=0)
        table = solve_spe(game).value_table
        for t in range(1, 5):
            for x in range(problem.num_policies):
                assert (problem.setter_utilities[table[(t, x)]]
                        >= problem.setter_utilities[table[(t + 1, x)]])


def test_trace_approvers_are_rational_winning_coalitions(small_corpus):
    for problem in small_corpus[:20]:
        rule = VotingRule.simple_majority(problem.n)
        game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0)
        report = solve_spe(game)
        for step in report.pivotal_trace:
            if not step.passed:
                continue
            mask = sum(1 << i for i in step.approvers)
            assert rule.wins(mask)
            accept = report.value_table[(step.round + 1, step.proposal)] \
                if not step.adjourn else step.proposal
            reject = report.value_table[(step.round + 1, step.default)]
            for i in step.approvers:
                row = problem.voter_utilities[i]
                assert row[accept] >= row[reject]


# ---------------------------------------------------------------------------
# protocols


def test_protocol_equivalence_cycle(cycle, rule3):
    z = cycle.policy_index("z")
    report = protocol_equivalence(cycle, rule3, 3, z,
                                  ["amendment", "successive", "open_rule"])
    assert report.all_agree
    assert set(report.outcomes.values()) == {cycle.policy_index("w")}


def test_protocol_equivalence_one_round_trivial(small_corpus):
    protocols = ["amendment", "successive", "open_rule"]
    for problem in small_corpus[:10]:
        rule = VotingRule.simple_majority(problem.n)
        assert protocol_equivalence(problem, rule, 1, 0, protocols).all_agree


def test_protocol_equivalence_checks_the_budget_before_any_iterate_list(cycle, rule3):
    # the phi outcome comes from the orbit, which stops at its fixed point,
    # so a billion rounds reach the oracle's budget check without a list
    z = cycle.policy_index("z")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            protocol_equivalence(cycle, rule3, 10**9, z, ["amendment"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    tied = CollectiveChoiceProblem(policies=("a", "b"),
                                   voter_utilities=((Fraction(1), Fraction(1)),) * 3,
                                   setter_utilities=(Fraction(0), Fraction(1)))
    with pytest.raises(ValidationError, match="single-valued only under gfa"):
        protocol_equivalence(tied, rule3, 1, 0, ["amendment"])


def test_presets_pass_richness(cycle, rule3):
    for protocol in ("amendment", "successive", "open_rule"):
        game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=0,
                        protocol=protocol)
        assert check_richness(game).rich


def test_trap_protocol_refused_with_witness(cycle, rule3):
    z = cycle.policy_index("z")
    with pytest.raises(RichnessError) as info:
        protocol_equivalence(cycle, rule3, 3, z, [adjournment_trap_protocol(3)])
    witness = info.value.witness
    assert witness is not None
    # the witness pair: a policy offered amend-only against one offered adjourn-only
    _t, _x, amend_only, adjourn_only = witness
    assert cycle.policies[amend_only] == "x"
    assert cycle.policies[adjourn_only] == "w"


def test_trap_protocol_forced_solve_adjourns_on_y(cycle, rule3):
    z, y = cycle.policy_index("z"), cycle.policy_index("y")
    for rounds in range(1, 5):
        game = GameSpec(problem=cycle, rule=rule3, horizon=rounds,
                        initial_default=z,
                        protocol=adjournment_trap_protocol(rounds))
        report = solve_spe(game)
        assert report.outcome == y
        assert report.pivotal_trace[-1].adjourn and report.pivotal_trace[-1].passed


@pytest.mark.parametrize("action, shown", [
    ((7, False), "(7, False)"), ((-1, True), "(-1, True)"), ((2, "yes"), "(2, 'yes')"),
    ((1, 0), "(1, 0)"), ((1,), "(1,)")])
def test_custom_protocol_refuses_bad_actions(cycle, rule3, action, shown):
    table = {(t, x): ((x, False),) for t in (1, 2) for x in range(4)}
    table[(2, 1)] = ((0, True), action)
    protocol = CustomProtocol(label="bad", table=table)
    with pytest.raises(ValidationError,
                       match=rf"'bad' offers {re.escape(shown)} at \(round 2, default 1\)"):
        GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=0,
                 protocol=protocol)


def test_custom_protocol_missing_state(cycle, rule3):
    protocol = CustomProtocol(label="partial", table={(1, 0): ((0, False),)})
    game = GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=0,
                    protocol=protocol)
    with pytest.raises(ValidationError, match="no feasible set"):
        solve_spe(game)
    # a round's table is read after its step is charged: below one step's
    # 4 * 5 the budget refuses first, and from there on the missing state
    with pytest.raises(BudgetExceededError, match=r"\(required 20, budget 19\)$"):
        solve_spe(game, budget=19)
    with pytest.raises(ValidationError, match=r"no feasible set at \(round 2, default 0\)"):
        solve_spe(game, budget=20)


@pytest.mark.parametrize("protocol", [None, 5, ["amendment"], "Amendment"])
def test_game_refuses_an_unknown_protocol(cycle, rule3, protocol):
    # a protocol is read when the game is made: a preset name or a table
    with pytest.raises(ValidationError, match=f"^unknown protocol {re.escape(repr(protocol))}$"):
        GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=0, protocol=protocol)


@pytest.mark.parametrize("key, actions", [
    (1, ()), ((1, 0, 2), ()), ((1.0, 0), ()), ((True, 0), ()), (("1", 0), ()),
    ((0, 0), ()), ((1, 9), ()), ((1, 0), 5)])
def test_custom_protocol_refuses_bad_keys(cycle, rule3, key, actions):
    # a key is a (round, default) pair read as every round and policy is,
    # and its actions are iterable; the label and the key are named
    with pytest.raises(ValidationError, match=(
            rf"^custom protocol 'keys' entry {re.escape(repr(key))}: a key is a round "
            r"of at least 1 and a default in 0\.\.3, its actions iterable$")):
        GameSpec(problem=cycle, rule=rule3, horizon=1, initial_default=0,
                 protocol=CustomProtocol(label="keys", table={key: actions}))


@pytest.mark.parametrize("table, kind", [([((1, 0), ((0, False),))], "list"),
                                         (None, "NoneType")])
def test_custom_protocol_refuses_a_table_that_is_not_a_mapping(cycle, rule3, table, kind):
    # the table is read as (round, default) keys, so anything else is
    # refused by its protocol's label
    with pytest.raises(ValidationError, match=(
            rf"^custom protocol 'listed': a table maps \(round, default\) keys to "
            rf"actions, not a {kind}$")):
        GameSpec(problem=cycle, rule=rule3, horizon=1, initial_default=0,
                 protocol=CustomProtocol(label="listed", table=table))


def test_custom_protocol_keeps_rounds_past_the_horizon(cycle, rule3):
    # rounds past the horizon are never read, so one table serves every
    # horizon up to its own
    z = cycle.policy_index("z")
    trap = adjournment_trap_protocol(3)
    for horizon in (1, 2, 3):
        short = CustomProtocol(label=trap.label, table={
            (t, x): actions for (t, x), actions in trap.table.items() if t <= horizon})
        got, want = (solve_spe(GameSpec(problem=cycle, rule=rule3, horizon=horizon,
                                        initial_default=z, protocol=protocol))
                     for protocol in (trap, short))
        assert (got.outcome, got.value_table, got.pivotal_trace) == (
            want.outcome, want.value_table, want.pivotal_trace)


# ---------------------------------------------------------------------------
# profile verification


def test_verify_simple_profile_valid(cycle, rule3):
    game = GameSpec(problem=cycle, rule=rule3, horizon=3,
                    initial_default=cycle.policy_index("z"))
    report = verify_profile(game, simple_equilibrium_profile(cycle, rule3, 3))
    assert report.profile_valid and not report.violations


def test_verify_flags_setter_deviation(cycle, rule3):
    z = cycle.policy_index("z")
    # stalling on the default in round one forfeits one improvement step
    base = simple_equilibrium_profile(cycle, rule3, 3)

    def propose(t, x):
        return (z, False) if (t, x) == (1, z) else base.propose(t, x)

    profile = StrategyProfile(horizon=3, propose=propose, vote=base.vote)
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    report = verify_profile(game, profile)
    assert not report.profile_valid
    setter_hits = [v for v in report.violations if v.player == "setter"]
    assert setter_hits and setter_hits[0].round == 1 and setter_hits[0].default == z
    assert all(v.gain > 0 for v in setter_hits)


def test_verify_flags_pivotal_convention_breach(cycle, rule3):
    base = simple_equilibrium_profile(cycle, rule3, 2)
    z, y = cycle.policy_index("z"), cycle.policy_index("y")

    def vote(i, t, x, a):
        if (i, t, x, a) == (1, 2, z, y):
            return not base.vote(i, t, x, a)
        return base.vote(i, t, x, a)

    twisted = StrategyProfile(horizon=2, propose=base.propose, vote=vote)
    game = GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=z)
    report = verify_profile(game, twisted)
    assert any(v.player == "voter 2" for v in report.violations)


def test_verify_partial_profile_lists_missing(cycle, rule3):
    profile = StrategyProfile.from_tables(
        horizon=2, proposer_table={(1, cycle.policy_index("z")): (0, False)},
        voter_tables=[{}, {}, {}])
    game = GameSpec(problem=cycle, rule=rule3, horizon=2,
                    initial_default=cycle.policy_index("z"))
    with pytest.raises(ValidationError, match="missing"):
        verify_profile(game, profile)


def test_verify_horizon_mismatch(cycle, rule3):
    profile = simple_equilibrium_profile(cycle, rule3, 2)
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=0)
    with pytest.raises(ValidationError, match="horizon"):
        verify_profile(game, profile)


def test_play_out_matches_iterates(cycle, rule3):
    z = cycle.policy_index("z")
    profile = simple_equilibrium_profile(cycle, rule3, 3)
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    assert play_out(game, profile) == phi_iterates(cycle, rule3, z, 3)[-1]


def test_play_out_refuses_an_override_problem(blocked, rule3):
    # its voter rows are placeholders: a profile whose voters all vote no
    # on x would play out to z, where the oracle gives x
    z, x = blocked.policy_index("z"), blocked.policy_index("x")
    game = GameSpec(problem=blocked, rule=rule3, horizon=1, initial_default=z)
    profile = StrategyProfile.from_tables(1, {(1, z): (x, False)}, [{(1, z, x): False}] * 3)
    assert solve_spe(game).outcome == x
    with pytest.raises(UnsupportedCombinationError, match="per voter"):
        play_out(game, profile)


@pytest.mark.parametrize("rounds", [2, 4])
def test_play_out_refuses_another_horizon(cycle, rule3, rounds):
    # a shorter profile would run out of rounds, a longer one would play
    # on with its own continuation depths
    profile = simple_equilibrium_profile(cycle, rule3, rounds)
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=0)
    with pytest.raises(ValidationError, match=f"profile horizon {rounds} != game horizon 3"):
        play_out(game, profile)


@pytest.mark.parametrize("proposal, shown", [
    ((99, False), "policy 99"), ((1.5, False), "policy 1.5"),
    ((1, True), "policy 1 with adjournment"), ((1.0, False), "policy 1.0"),
    ((True, False), "policy True"), ((np.int64(99), False), "policy 99"),
    (1, "1"), ((1,), "(1,)"), ((1, False, 2), "(1, False, 2)")])
def test_play_out_refuses_an_unoffered_proposal(cycle, rule3, proposal, shown):
    # play_out and verify_profile refuse a proposal its state does not offer
    # in the same words: a policy that is not a whole number is not offered,
    # even where it equals an offered one; a proposal that is not a pair is
    # refused at its state
    z = cycle.policy_index("z")
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    simple = simple_equilibrium_profile(cycle, rule3, 3)
    profile = StrategyProfile(horizon=3, propose=lambda t, x: proposal, vote=simple.vote)
    why = ("which protocol 'amendment' does not offer" if shown.startswith("policy")
           else "which is not a (policy, adjourn) pair")
    for call in (play_out, verify_profile):
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(f'profile proposes {shown} at (round 1, default 3), {why}')}$")):
            call(game, profile)


def test_a_numpy_integer_proposal_is_read_as_its_int(cycle, rule3):
    # a numpy integer policy is a whole number: it plays and is audited as
    # the plain int it equals
    z = cycle.policy_index("z")
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    simple = simple_equilibrium_profile(cycle, rule3, 3)
    numpy = StrategyProfile(horizon=3, vote=simple.vote, propose=lambda t, x: (
        np.int64(simple.propose(t, x)[0]), simple.propose(t, x)[1]))
    assert play_out(game, numpy) == play_out(game, simple) == solve_spe(game).outcome
    assert verify_profile(game, numpy) == verify_profile(game, simple)
    assert type(play_out(game, numpy)) is int


def test_from_tables_reads_a_voter_without_a_table_as_missing(cycle, rule3):
    # a profile of one voter table on three voters: voters 2 and 3 have no
    # entries, and their absent votes are missing like any other
    z = cycle.policy_index("z")
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    simple = simple_equilibrium_profile(cycle, rule3, 3)
    states = [(t, x) for t in (1, 2, 3) for x in range(4)]
    profile = StrategyProfile.from_tables(
        3, {(t, x): simple.propose(t, x) for t, x in states},
        [{(t, x, a): simple.vote(0, t, x, a) for t, x in states for a in range(4)}])
    with pytest.raises(ValidationError, match=re.escape(
            "missing: [('voter 2', 1, 3, 0), ('voter 3', 1, 3, 0), ('voter 2', 1, 3, 1)")):
        verify_profile(game, profile)
    with pytest.raises(KeyError):
        play_out(game, profile)


def _stall_only_protocol(rounds, m):
    return CustomProtocol(label="stall", table={
        (t, x): ((x, False),) for t in range(1, rounds + 1) for x in range(m)})


def test_verify_refuses_unoffered_proposal_from_tables(cycle, rule3):
    # total on every reachable state, but round 1 proposes a policy the
    # protocol does not offer there; play would leave the tabulated states
    game = GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=0,
                    protocol=_stall_only_protocol(2, 4))
    profile = StrategyProfile.from_tables(
        horizon=2, proposer_table={(1, 0): (2, False), (2, 0): (0, False)},
        voter_tables=[{(1, 0, 0): True, (1, 0, 2): True, (2, 0, 0): True}] * 3)
    with pytest.raises(ValidationError,
                       match=r"policy 2 at \(round 1, default 0\), which protocol "
                             r"'stall' does not offer"):
        verify_profile(game, profile)


def test_verify_refuses_unoffered_proposal_from_callables(cycle, rule3):
    game = GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=0,
                    protocol=_stall_only_protocol(2, 4))
    profile = StrategyProfile(
        horizon=2, propose=lambda t, x: (2, False) if (t, x) == (1, 0) else (x, False),
        vote=lambda i, t, x, a: True)
    with pytest.raises(ValidationError, match=r"policy 2 at \(round 1, default 0\)"):
        verify_profile(game, profile)


def test_verify_reads_each_profile_entry_once(cycle, rule3):
    base = simple_equilibrium_profile(cycle, rule3, 3)
    proposals, ballots = {}, {}

    def propose(t, x):
        proposals[(t, x)] = proposals.get((t, x), 0) + 1
        return base.propose(t, x)

    def vote(i, t, x, a):
        ballots[(i, t, x, a)] = ballots.get((i, t, x, a), 0) + 1
        return base.vote(i, t, x, a)

    z = cycle.policy_index("z")
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=z)
    report = verify_profile(game, StrategyProfile(horizon=3, propose=propose, vote=vote))
    assert report.profile_valid
    # amendment offers every policy, so every default is reachable after round 1
    states = [(1, z)] + [(t, x) for t in (2, 3) for x in range(4)]
    assert proposals == {state: 1 for state in states}
    assert ballots == {(i, t, x, a): 1 for t, x in states for a in range(4) for i in range(3)}


def _open_rule_problem():
    F = Fraction
    return CollectiveChoiceProblem(
        policies=("a", "b", "c"),
        voter_utilities=((F(3), F(1), F(2)),      # a > c > b
                         (F(1), F(2), F(3)),      # c > b > a
                         (F(2), F(3), F(1))),     # b > a > c
        setter_utilities=(F(1), F(2), F(3)), gfa=True)


def test_verify_open_rule_audits_the_adjourning_default():
    problem, rule = _open_rule_problem(), VotingRule.simple_majority(3)
    a, c = 0, 2
    game = GameSpec(problem=problem, rule=rule, horizon=2, initial_default=a,
                    protocol="open_rule")
    # the setter always proposes c and every voter approves everything, so c
    # passes in round 2 from every default
    proposer = {(t, x): (c, False) for t in (1, 2) for x in range(3)}
    voters = [{(t, x, y): True for t in (1, 2) for x in range(3) for y in range(3)}] * 3
    report = verify_profile(game, StrategyProfile.from_tables(2, proposer, voters))
    # at (1, a) the amend offers all lead to c whether they pass or not; only
    # the adjourning offer of a separates a (accept) from c (reject), and its
    # vote is the one vote on a: voter 2 prefers c, so must reject
    assert [v for v in report.violations if v.round == 1] == [Violation(
        player="voter 2", round=1, default=a, proposal=a,
        deviation="must reject strictly dispreferred continuation", gain=Fraction(2))]
    assert not report.profile_valid


def test_verify_refuses_other_doubly_flagged_policy(cycle, rule3):
    table = {(t, x): ((x, False), (x, True), (1, False), (1, True))
             for t in (1, 2) for x in range(4)}
    game = GameSpec(problem=cycle, rule=rule3, horizon=2, initial_default=0,
                    protocol=CustomProtocol(label="both", table=table))
    profile = simple_equilibrium_profile(cycle, rule3, 2)
    with pytest.raises(ValidationError, match=r"policy 1 at \(round 1, default 0\) has both"):
        verify_profile(game, profile)


# ---------------------------------------------------------------------------
# the presets are rich by construction, and the oracle never reads phi


def test_preset_richness_still_refuses_an_unsupported_rule(blocked):
    # an override defines only the simple-majority relation; the game
    # refuses the rule when it is made, before any richness check
    for protocol in ("amendment", "successive", "open_rule"):
        with pytest.raises(UnsupportedCombinationError, match="override defines only"):
            check_richness(GameSpec(problem=blocked, rule=VotingRule.quota_rule(3, 3),
                                    horizon=2, initial_default=0, protocol=protocol))


def test_oracle_answers_with_phi_unavailable(monkeypatch):
    from agendalab import engine as engine_module
    from agendalab import problems as problems_module

    rounds = 3
    cases = []
    for problem in gfa_corpus(4, seed=5):
        rule = VotingRule.simple_majority(problem.n)
        m = problem.num_policies
        table = {(t, x): tuple((y, False) for y in range(m)) + ((x, True),)
                 for t in range(1, rounds + 1) for x in range(m)}
        games = [GameSpec(problem=problem, rule=rule, horizon=rounds, initial_default=0,
                          protocol=protocol)
                 for protocol in ("amendment", "successive", "open_rule",
                                  CustomProtocol(label="every-offer", table=table))]
        cases.append((games, simple_equilibrium_profile(problem, rule, rounds)))

    def no_phi(problem, rule):
        raise AssertionError("the oracle read the favorite-improvement table")

    monkeypatch.setattr(problems_module, "_phi_table", no_phi)
    monkeypatch.setattr(engine_module, "_phi_table", no_phi)
    for games, profile in cases:
        for game in games:
            solve_spe(game)
            if game.protocol != "successive":     # the profile never adjourns
                verify_profile(game, profile)
                play_out(game, profile)
        for game in games[:3]:
            assert check_richness(game).rich
    with pytest.raises(AssertionError, match="favorite-improvement"):
        check_richness(games[3])      # a custom table is scanned with phi


# ---------------------------------------------------------------------------
# a report's value table and trace are made on first read


def _view_grid(problem, rule):
    """Every default at T = 1-4 under the three presets and a custom table."""
    for horizon in range(1, 5):
        for protocol in (*PRESET_PROTOCOLS, adjournment_trap_protocol(horizon)):
            for x in range(problem.num_policies):
                yield GameSpec(problem=problem, rule=rule, horizon=horizon,
                               initial_default=x, protocol=protocol)


def test_report_fields_are_made_on_first_read(cycle, rule3):
    for game in _view_grid(cycle, rule3):
        report, reference = solve_spe(game), ref_solve_spe(game)
        assert "value_table" not in vars(report) and "pivotal_trace" not in vars(report)
        assert report.value_table == reference.value_table
        assert list(report.value_table) == list(reference.value_table)
        assert report.pivotal_trace == reference.pivotal_trace
        assert report.outcome == reference.outcome
        built = SolveReport(**{field.name: getattr(report, field.name)
                               for field in dataclasses.fields(report)})
        assert report == built and repr(report) == repr(built)
        # a second fresh report reads the same table in the same key order
        assert list(solve_spe(game).value_table.items()) == list(report.value_table.items())


def test_report_views_read_only_what_their_field_needs(cycle, rule3):
    game = GameSpec(problem=cycle, rule=rule3, horizon=3, initial_default=2)
    report = solve_spe(game)
    report.pivotal_trace
    assert "pivotal_trace" in vars(report) and "value_table" not in vars(report)
    report = solve_spe(game)
    assert len(report.value_table) == 4 * cycle.num_policies
    assert "value_table" in vars(report) and "pivotal_trace" not in vars(report)


def test_adjourning_successive_path_stops_at_the_adjourned_policy(cycle, rule3):
    stopped = 0
    for game in _view_grid(cycle, rule3):
        if game.protocol != "successive":
            continue
        report = solve_spe(game)
        trace = report.pivotal_trace
        ends = [k for k, step in enumerate(trace) if step.passed and step.adjourn]
        if ends:
            # the first passed adjourning proposal ends play, and is the outcome
            assert ends == [len(trace) - 1] and trace[-1].proposal == report.outcome
            stopped += len(trace) < game.horizon
        else:
            assert len(trace) == game.horizon and report.outcome == game.initial_default
    assert stopped


def test_override_trace_view_names_no_approvers(blocked, rule3):
    for game in _view_grid(blocked, rule3):
        report = solve_spe(game)
        assert "pivotal_trace" not in vars(report)
        assert report.pivotal_trace
        assert all(step.approvers is None for step in report.pivotal_trace)


def _tabulated(game, profile, drop=()):
    """`profile` as tables over every state and policy, less the `drop` keys;
    under `successive` each proposal adjourns, as that preset offers."""
    m, n = game.problem.num_policies, game.problem.n
    states = [(t, x) for t in range(1, game.horizon + 1) for x in range(m)]
    proposer = {state: (profile.propose(*state)[0], game.protocol == "successive")
                for state in states if state not in drop}
    voters = [{(t, x, a): profile.vote(i, t, x, a) for t, x in states for a in range(m)
               if (i, t, x, a) not in drop} for i in range(n)]
    return StrategyProfile.from_tables(game.horizon, proposer, voters, label="tables")


def test_preset_verify_at_eight_policies_matches_reference():
    problem = gen_random_gfa(8, 5, 3)
    rule = VotingRule.simple_majority(5)
    simple = simple_equilibrium_profile(problem, rule, 3)
    reports = []
    for protocol in PRESET_PROTOCOLS:
        for x0 in (0, 5):
            game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=x0,
                            protocol=protocol)
            for drop in ((), ((2, 3), (1, 2, 3, 6), (4, 3, 7, 7)),
                         ((1, 1, x0, x0), (0, 1, x0, 1))):
                profile = _tabulated(game, simple, drop)
                got = _outcome(verify_profile, game, profile)
                assert got == _outcome(ref_verify_profile, game, profile)
                reports.append((protocol, got))
    # under open_rule a full profile is audited and partial ones list what
    # they miss; the simple profile never adjourns, which open_rule punishes
    open_rule = [got for protocol, got in reports if protocol == "open_rule"]
    assert any(isinstance(got, tuple) and "missing" in got[1] for got in open_rule)
    assert any(not isinstance(got, tuple) and not got.profile_valid for got in open_rule)


@pytest.mark.parametrize("protocol", ["amendment", "successive", "open_rule"])
@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("chunk", [1, 2**16])
def test_preset_masks_equal_the_feasible_offers(protocol, m, chunk, monkeypatch):
    # a preset's offer rule is one `_PRESET_OFFERS` row, read twice, by
    # `GameSpec.feasible` and by `_offers`' mask reader: every round's
    # reader, on whole columns and on each column chunk of the step, must set
    # exactly the feasible (policy, adjourn) pairs
    from agendalab.oracle import _offers
    rng = random.Random(m)
    rows = tuple(tuple(Fraction(rng.randrange(10)) for _ in range(m)) for _ in range(4))
    problem = CollectiveChoiceProblem(policies=tuple(f"x{i}" for i in range(m)),
                                      voter_utilities=rows[:-1], setter_utilities=rows[-1])
    game = GameSpec(problem=problem, rule=VotingRule.simple_majority(3), horizon=3,
                    initial_default=0, protocol=protocol)
    monkeypatch.setattr("agendalab.problems._CHUNK_COMPARISONS", chunk)
    chunks = _offer_chunks(problem)
    assert len(chunks) == (m if chunk == 1 else 1)
    for t in range(1, game.horizon + 1):
        mask_of = _offers(game, t)
        want = [[False] * m for _ in range(2 * m)]
        for x in range(m):
            for a, adjourn in game.feasible(t, x):
                want[2 * a + adjourn][x] = True
        assert mask_of(slice(None)).tolist() == want
        for cols in chunks:
            assert mask_of(cols).tolist() == [row[cols] for row in want]
