"""The oracle against its per-voter references.

`ref_solve_spe`, `ref_verify_profile` and `ref_play_out` are the
straightforward forms of the oracle: every vote is a per-voter
`Fraction` comparison, `ref_solve_spe` walks one (round, default) state
and one action at a time, and `ref_verify_profile` queries the profile
anew in its totality scan, its continuation play and its audit.
`ref_check_richness` reads each state's feasible set as Python sets.
The seeded properties below draw problems with up to eleven voters,
quota and explicit rules, every preset and random custom protocols, and
profiles with flipped votes, setter deviations and missing entries,
and require the library to give the same reports, or the same error
class and message.  The last group solves the presets of one problem
object in shuffled (default, horizon) order, so that its store of
backward rows is extended and read as a prefix, and past the fixed point
where a row first repeats, and requires the reference's reports on a
fresh copy of the problem.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agendalab import (
    AgendaLabError,
    CollectiveChoiceProblem,
    CustomProtocol,
    GameSpec,
    StrategyProfile,
    TournamentSpec,
    ValidationError,
    VotingRule,
    check_richness,
    dtd_profile,
    favorite_improvement,
    mcgarvey_realize,
    play_out,
    simple_equilibrium_profile,
    solve_spe,
    verify_profile,
)
from agendalab.errors import BudgetExceededError, UnsupportedCombinationError
from agendalab.fixtures import adjournment_trap_protocol, majority_cycle_problem
from agendalab import oracle as oracle_module
from agendalab import problems as problems_module
from agendalab.distributions import DivideDollarGrid
from agendalab.oracle import (
    PRESET_PROTOCOLS,
    DeviationReport,
    RichnessReport,
    SolveReport,
    TraceStep,
    Violation,
)

from references import ref_phi, ref_support_mask


def ref_vote_mask(problem, accept_out, reject_out):
    if accept_out == reject_out:
        return (1 << problem.n) - 1
    return ref_support_mask(problem, accept_out, reject_out)


def ref_solve_spe(game):
    problem = game.problem
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(
            "the oracle votes per voter; realize the override as an explicit "
            "profile (e.g. a tournament realization) first")
    if not problem.gfa:
        raise ValidationError(
            "solve_spe requires gfa; use verify_profile for problems with indifference")
    m = problem.num_policies
    value, chosen = {}, {}
    for x in range(m):
        value[(game.horizon + 1, x)] = x
    for t in range(game.horizon, 0, -1):
        for x in range(m):
            reject_out = value[(t + 1, x)]
            best = None
            for a, adjourn in sorted(game.feasible(t, x)):
                accept_out = a if adjourn else value[(t + 1, a)]
                mask = ref_vote_mask(problem, accept_out, reject_out)
                result = accept_out if game.rule.wins(mask) else reject_out
                if best is None or (problem.setter_utilities[result]
                                    > problem.setter_utilities[best[0]]):
                    best = (result, a, adjourn)
            value[(t, x)] = best[0]
            chosen[(t, x)] = (best[1], best[2])

    trace = []
    t, x = 1, game.initial_default
    while t <= game.horizon:
        a, adjourn = chosen[(t, x)]
        reject_out = value[(t + 1, x)]
        accept_out = a if adjourn else value[(t + 1, a)]
        mask = ref_vote_mask(problem, accept_out, reject_out)
        passed = game.rule.wins(mask)
        trace.append(TraceStep(
            round=t, default=x, proposal=a, adjourn=adjourn,
            approvers=frozenset(i for i in range(problem.n) if (mask >> i) & 1),
            passed=passed))
        if passed and adjourn:
            return SolveReport(outcome=a, value_table=value, pivotal_trace=tuple(trace))
        x = a if passed else x
        t += 1
    return SolveReport(outcome=x, value_table=value, pivotal_trace=tuple(trace))


def ref_check_richness(game):
    problem = game.problem
    for t in range(1, game.horizon + 1):
        remaining = game.horizon - t + 1
        for x in range(problem.num_policies):
            actions = set(game.feasible(t, x))
            amend = {a for a, adj in actions if not adj}
            adjourn = {a for a, adj in actions if adj}
            amend_only = sorted(amend - adjourn)
            adjourn_only = sorted(adjourn - amend)
            if amend_only and adjourn_only:
                return RichnessReport(
                    rich=False,
                    subset_witness=(t, x, amend_only[0], adjourn_only[0]))
            iterates = [x]
            for _ in range(remaining):
                iterates.append(ref_phi(problem, game.rule, iterates[-1]))
            if (iterates[1], False) not in actions and (iterates[-1], True) not in actions:
                return RichnessReport(rich=False, feasibility_witness=(t, x))
    return RichnessReport(rich=True)


def ref_profile_vote_actions(game, t, x):
    """The offered actions; a vote names no flag, so only the standing
    default, whose amend offer has identical continuations, may be offered
    with both flags (both offers then share its vote)."""
    actions = game.feasible(t, x)
    flags = {}
    for a, adjourn in actions:
        if a in flags and flags[a] != adjourn and a != x:
            raise ValidationError(
                "verify_profile needs each policy other than the standing default "
                "offered with a single adjournment flag; "
                f"policy {a} at (round {t}, default {x}) has both")
        flags[a] = adjourn
    return actions


def ref_verify_profile(game, profile, budget=5_000_000):
    problem = game.problem
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(
            "profiles are voted per voter; relation-override problems unsupported")
    if profile.horizon != game.horizon:
        raise ValidationError(
            f"profile horizon {profile.horizon} != game horizon {game.horizon}")

    reach = [set() for _ in range(game.horizon + 2)]
    reach[1] = {game.initial_default}
    for t in range(1, game.horizon + 1):
        nxt = set()
        for x in reach[t]:
            nxt.add(x)
            for a, adjourn in game.feasible(t, x):
                if not adjourn:
                    nxt.add(a)
        reach[t + 1] = nxt

    work = sum(len(reach[t]) for t in range(1, game.horizon + 1)) \
        * problem.num_policies * (problem.n + 1)
    if work > budget:
        raise BudgetExceededError("profile verification too large",
                                  required=work, budget=budget)

    missing = []
    for t in range(1, game.horizon + 1):
        for x in sorted(reach[t]):
            try:
                profile.propose(t, x)
            except KeyError:
                missing.append(("proposer", t, x))
            for a in dict.fromkeys(a for a, _ in ref_profile_vote_actions(game, t, x)):
                for i in range(problem.n):
                    try:
                        profile.vote(i, t, x, a)
                    except KeyError:
                        missing.append((f"voter {i + 1}", t, x, a))
    if missing:
        raise ValidationError(f"profile not total on reachable states; missing: "
                              f"{missing[:20]}{'...' if len(missing) > 20 else ''}")

    cont = {}

    def play(t, x):
        if t > game.horizon:
            return x
        key = (t, x)
        if key in cont:
            return cont[key]
        a, adjourn = profile.propose(t, x)
        mask = 0
        for i in range(problem.n):
            if profile.vote(i, t, x, a):
                mask |= 1 << i
        if game.rule.wins(mask):
            out = a if adjourn else play(t + 1, a)
        else:
            out = play(t + 1, x)
        cont[key] = out
        return out

    violations = []
    for t in range(1, game.horizon + 1):
        for x in sorted(reach[t]):
            on_path_out = play(t, x)
            reject_out = play(t + 1, x)
            for a, adjourn in ref_profile_vote_actions(game, t, x):
                accept_out = a if adjourn else play(t + 1, a)
                mask = 0
                for i in range(problem.n):
                    if profile.vote(i, t, x, a):
                        mask |= 1 << i
                dev_out = accept_out if game.rule.wins(mask) else reject_out
                gain = problem.setter_utilities[dev_out] - problem.setter_utilities[on_path_out]
                if gain > 0:
                    violations.append(Violation(
                        player="setter", round=t, default=x, proposal=a,
                        deviation=f"propose {problem.policies[a]}"
                                  f"{' with adjournment' if adjourn else ''}",
                        gain=gain))
                for i in range(problem.n):
                    row = problem.voter_utilities[i]
                    stake = row[accept_out] - row[reject_out]
                    votes_yes = bool((mask >> i) & 1)
                    if stake > 0 and not votes_yes:
                        violations.append(Violation(
                            player=f"voter {i + 1}", round=t, default=x, proposal=a,
                            deviation="must approve strictly preferred continuation",
                            gain=stake))
                    elif stake < 0 and votes_yes:
                        violations.append(Violation(
                            player=f"voter {i + 1}", round=t, default=x, proposal=a,
                            deviation="must reject strictly dispreferred continuation",
                            gain=-stake))
    return DeviationReport(profile_valid=not violations, violations=tuple(violations))


def ref_play_out(game, profile):
    t, x = 1, game.initial_default
    while t <= game.horizon:
        a, adjourn = profile.propose(t, x)
        mask = 0
        for i in range(game.problem.n):
            if profile.vote(i, t, x, a):
                mask |= 1 << i
        if game.rule.wins(mask):
            if adjourn:
                return a
            x = a
        t += 1
    return x


def ref_simple_equilibrium_profile(problem, rule, rounds):
    @lru_cache(maxsize=None)
    def power(x, k):
        if k == 0:
            return x
        return favorite_improvement(problem, rule, power(x, k - 1))

    def propose(t, x):
        return (power(x, 1), False)

    def vote(i, t, x, a):
        row = problem.voter_utilities[i]
        return row[power(a, rounds - t)] >= row[power(x, rounds - t)]

    return StrategyProfile(horizon=rounds, propose=propose, vote=vote)


# ---------------------------------------------------------------------------
# random cases


def _outcome(call, *args, **kwargs):
    """A report, or the error class and message."""
    try:
        return call(*args, **kwargs)
    except (AgendaLabError, KeyError) as exc:
        return type(exc), str(exc)


def _problem(rng, n, m, gfa):
    def row():
        if gfa:
            return tuple(Fraction(v, 3) for v in rng.sample(range(-m, 2 * m), m))
        return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))

    return CollectiveChoiceProblem(
        policies=tuple(f"p{k}" for k in range(m)),
        voter_utilities=tuple(row() for _ in range(n)),
        setter_utilities=row(), gfa=gfa)


def _rule(rng, n):
    kind = rng.choice(("majority", "quota", "explicit"))
    if kind == "majority":
        return VotingRule.quota_rule(n, n // 2 + 1)
    if kind == "quota":
        return VotingRule.quota_rule(n, rng.randint(1, n))
    return VotingRule.explicit(n, [rng.sample(range(n), rng.randint(1, n))
                                   for _ in range(rng.randint(1, 3))])


def _protocol(rng, rounds, m, gaps=0.03):
    name = rng.choice(("amendment", "successive", "open_rule", "custom", "custom"))
    if name != "custom":
        return name
    table = {}
    for t in range(1, rounds + 1):
        for x in range(m):
            if rng.random() < gaps:
                continue                          # a state with no feasible set
            offered = rng.sample(range(m), rng.randint(1, m))
            actions = [(a, rng.random() < 0.4) for a in offered]
            if rng.random() < 0.03:
                a, adjourn = actions[0]
                actions.append((a, not adjourn))  # one policy offered with both flags
            table[(t, x)] = tuple(actions)
    return CustomProtocol(label=f"custom{rng.randrange(100)}", table=table)


def _feasible_or_none(game, t, x):
    try:
        return game.feasible(t, x)
    except ValidationError:
        return None


def _profile(rng, game, rule):
    """Tables over every state the protocol defines: the simple equilibrium
    profile's entries where it has them and they are offered, random ones
    elsewhere, then flipped votes, setter deviations and missing entries."""
    problem, rounds, m = game.problem, game.horizon, game.problem.num_policies
    simple = (simple_equilibrium_profile(problem, rule, rounds)
              if problem.gfa and rng.random() < 0.7 else None)
    proposer, voters = {}, [{} for _ in range(problem.n)]
    for t in range(1, rounds + 1):
        for x in range(m):
            offered = _feasible_or_none(game, t, x)
            if not offered:
                continue
            choice = simple.propose(t, x) if simple else None
            proposer[(t, x)] = choice if choice in offered else rng.choice(offered)
            for a in range(m):
                for i in range(problem.n):
                    voters[i][(t, x, a)] = (simple.vote(i, t, x, a) if simple
                                            else rng.random() < 0.5)
    states = sorted(proposer)
    if states:
        for _ in range(rng.choice((0, 0, 1, 3))):     # flipped votes
            t, x = rng.choice(states)
            key = (t, x, rng.randrange(m))
            voter = voters[rng.randrange(problem.n)]
            voter[key] = not voter[key]
        for _ in range(rng.choice((0, 0, 1, 2))):     # feasible setter deviations
            t, x = rng.choice(states)
            proposer[(t, x)] = rng.choice(game.feasible(t, x))
        if rng.random() < 0.15:                       # missing entries
            for _ in range(rng.randint(1, 3)):
                t, x = rng.choice(states)
                if rng.random() < 0.5:
                    proposer.pop((t, x), None)
                else:
                    voters[rng.randrange(problem.n)].pop((t, x, rng.randrange(m)), None)
    tabulated = StrategyProfile.from_tables(rounds, proposer, voters, label="random")
    if rng.random() < 0.5:
        return tabulated
    # the same entries behind plain callables
    return StrategyProfile(horizon=rounds, propose=tabulated.propose,
                           vote=tabulated.vote)


def _case(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 11)
    m = rng.randint(1, 5)
    rounds = rng.randint(1, 3)
    gfa = n % 2 == 1 and rng.random() < 0.6
    problem = _problem(rng, n, m, gfa)
    rule = _rule(rng, n)
    game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                    initial_default=rng.randrange(m),
                    protocol=_protocol(rng, rounds, m))
    return rng, game, rule


@pytest.mark.parametrize("block", range(6))
def test_oracle_matches_per_voter_references(block):
    reports = []
    for seed in range(block * 250, block * 250 + 250):
        rng, game, rule = _case(seed)
        profile = _profile(rng, game, rule)
        budget = rng.choice((5_000_000, 5_000_000, 5_000_000, 60))
        verified = _outcome(verify_profile, game, profile, budget=budget)
        assert verified == _outcome(ref_verify_profile, game, profile, budget=budget)
        assert _outcome(play_out, game, profile) == _outcome(ref_play_out, game, profile)
        assert _outcome(solve_spe, game) == _outcome(ref_solve_spe, game)
        reports.append(verified)
    # the draws reach valid profiles, violations and errors alike
    assert any(isinstance(r, DeviationReport) and r.profile_valid for r in reports)
    assert any(isinstance(r, DeviationReport) and not r.profile_valid for r in reports)
    assert any(isinstance(r, tuple) for r in reports)


def test_simple_equilibrium_profile_matches_reference():
    for seed in range(60):
        rng = random.Random(seed)
        n, m, rounds = rng.choice((1, 3, 5, 9, 11)), rng.randint(1, 6), rng.randint(1, 4)
        problem = _problem(rng, n, m, gfa=True)
        rule = _rule(rng, n)
        profile = simple_equilibrium_profile(problem, rule, rounds)
        reference = ref_simple_equilibrium_profile(problem, rule, rounds)
        for t in range(1, rounds + 1):
            for x in range(m):
                assert profile.propose(t, x) == reference.propose(t, x)
                for a in range(m):
                    for i in range(n):
                        assert profile.vote(i, t, x, a) == reference.vote(i, t, x, a)


@pytest.mark.parametrize("chunk", [1, 5, 100, 2**16])
def test_solve_spe_matches_reference_in_column_chunks(chunk, monkeypatch):
    # a small chunk splits the defaults into several column blocks
    monkeypatch.setattr(problems_module, "_CHUNK_COMPARISONS", chunk)
    solved = []
    for seed in range(80):
        rng = random.Random(10_000 + seed)
        n, m, rounds = rng.choice((1, 3, 5, 7, 11)), rng.randint(1, 12), rng.randint(1, 5)
        game = GameSpec(problem=_problem(rng, n, m, gfa=True), rule=_rule(rng, n),
                        horizon=rounds, initial_default=rng.randrange(m),
                        protocol=_protocol(rng, rounds, m, gaps=0.005))
        report, reference = _outcome(solve_spe, game), _outcome(ref_solve_spe, game)
        assert report == reference
        solved.append(isinstance(report, SolveReport))
        if solved[-1]:   # the same states in the same order, later rounds first
            assert list(report.value_table) == list(reference.value_table)
    assert any(solved) and not all(solved)   # reports and missing-state errors


def test_check_richness_matches_reference(monkeypatch):
    reports = []
    for seed in range(300):
        rng = random.Random(20_000 + seed)
        n, m, rounds = rng.randint(1, 7), rng.randint(1, 6), rng.randint(1, 4)
        # a small chunk scans each round's defaults in several column blocks
        monkeypatch.setattr(problems_module, "_CHUNK_COMPARISONS", (1, 5, 2**16)[seed % 3])
        problem = _problem(rng, n, m, gfa=n % 2 == 1 and rng.random() < 0.6)
        protocol = _protocol(rng, rounds, m, gaps=0)
        if isinstance(protocol, CustomProtocol) and rng.random() < 0.5:
            # tables built to pass the subset test: every policy offered with
            # one flag per state, or both
            table = {}
            for (t, x), actions in protocol.table.items():
                flags = rng.choice(((False,), (True,), (False, True)))
                table[(t, x)] = tuple((a, f) for a, _ in actions for f in flags)
            protocol = CustomProtocol(label=protocol.label, table=table)
        game = GameSpec(problem=problem, rule=_rule(rng, n), horizon=rounds,
                        initial_default=0, protocol=protocol)
        report = check_richness(game)
        assert report == ref_check_richness(game)
        reports.append(report)
    assert any(r.rich for r in reports)
    assert any(r.subset_witness for r in reports)
    assert any(r.feasibility_witness for r in reports)


# ---------------------------------------------------------------------------
# the per-problem store of preset backward rows


def _fresh(game):
    """The same game on a copy of its problem, with nothing computed yet."""
    return dataclasses.replace(game, problem=dataclasses.replace(game.problem))


@pytest.mark.parametrize("block", range(3))
def test_preset_store_answers_any_order_like_the_reference(block):
    for seed in range(block * 12, block * 12 + 12):
        rng = random.Random(50_000 + seed)
        n, m = rng.choice((1, 3, 5, 7)), rng.randint(1, 10)
        problem, rule = _problem(rng, n, m, gfa=True), _rule(rng, n)
        # every (preset, default, horizon) once on one problem, shuffled, so
        # horizons rise and fall, then a few repeated
        order = [(protocol, x, t) for protocol in PRESET_PROTOCOLS
                 for x in range(m) for t in range(1, 5)]
        rng.shuffle(order)
        order += rng.sample(order, 5)
        references, unread = {}, []
        for protocol, x, t in order:
            game = GameSpec(problem=problem, rule=rule, horizon=t, initial_default=x,
                            protocol=protocol)
            report = solve_spe(game)
            if game not in references:
                references[game] = ref_solve_spe(_fresh(game))
            reference = references[game]
            assert report == reference
            assert list(report.value_table) == list(reference.value_table)
            assert check_richness(game) == ref_check_richness(_fresh(game))
            # a second report of the same game is read only after later,
            # longer horizons have extended the store its rows come from
            unread.append((solve_spe(game), reference))
        for report, reference in unread:
            assert report == reference
            assert list(report.value_table) == list(reference.value_table)
        for protocol in PRESET_PROTOCOLS:
            values, choices = problem._memo[("rows", rule, protocol)]
            assert not any(row.flags.writeable for row in values + choices)


def _fixed_point(values) -> int:
    """The first k whose outcome row repeats row k - 1."""
    return next(k for k in range(1, len(values)) if np.array_equal(values[k], values[k - 1]))


def _assert_rows_repeat_past_their_fixed_point(values, choices):
    """Every row is read-only, and past the fixed point f the rows are
    values[f] and choices[f - 1] again, not recomputed."""
    assert not any(row.flags.writeable for row in values + choices)
    f = _fixed_point(values)
    assert all(row is values[f] for row in values[f:])
    assert all(row is choices[f - 1] for row in choices[f - 1:])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32), st.sampled_from(("quota", "explicit", "override")),
       st.sampled_from(PRESET_PROTOCOLS))
def test_preset_rows_past_their_fixed_point_match_the_reference(seed, kind, protocol):
    # every preset step can keep each default's outcome, so the setter's rank
    # of each row entry never falls and the rows reach a fixed point within
    # m * (m - 1) + 1 steps: the long horizon is past it
    rng = random.Random(seed)
    n, m = rng.choice((1, 3, 5, 7)), rng.randint(1, 5)
    problem = _problem(rng, n, m, gfa=True)
    if kind == "override":
        # solved as the reference solves its realization, with no approvers
        tournament = TournamentSpec.from_edges(
            m, [(x, y) if rng.random() < 0.5 else (y, x)
                for x in range(m) for y in range(x + 1, m)])
        problem = dataclasses.replace(problem, majority_override=tournament)
        rule = VotingRule.simple_majority(n)
        realized = mcgarvey_realize(tournament, problem.setter_utilities)
        ref_rule = VotingRule.simple_majority(realized.n)
    else:
        rule = (VotingRule.quota_rule(n, rng.randint(1, n)) if kind == "quota"
                else _rule(rng, n))
        realized, ref_rule = problem, rule
    long = m * (m - 1) + 2
    for horizon in (rng.randint(1, 3), long, rng.randint(1, long), long + 5):
        x = rng.randrange(m)
        got = solve_spe(GameSpec(problem=problem, rule=rule, horizon=horizon,
                                 initial_default=x, protocol=protocol))
        want = ref_solve_spe(GameSpec(problem=dataclasses.replace(realized), rule=ref_rule,
                                      horizon=horizon, initial_default=x, protocol=protocol))
        assert (got.outcome, got.value_table) == (want.outcome, want.value_table)
        assert list(got.value_table) == list(want.value_table)
        if kind == "override":
            want = dataclasses.replace(want, pivotal_trace=tuple(
                dataclasses.replace(step, approvers=None) for step in want.pivotal_trace))
        assert got.pivotal_trace == want.pivotal_trace
    _assert_rows_repeat_past_their_fixed_point(*problem._memo[("rows", rule, protocol)])


def test_preset_rows_stop_at_their_fixed_point(monkeypatch):
    computed = []
    extend = oracle_module._extend_rows

    def counted(problem, rule, values, choices, masks, meter):
        before = len(choices)
        extend(problem, rule, values, choices, masks, meter)
        computed.append(len(choices) - before)

    monkeypatch.setattr(oracle_module, "_extend_rows", counted)
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    for protocol in PRESET_PROTOCOLS:
        computed.clear()
        for horizon in (100, 200, 3):
            game = GameSpec(problem=problem, rule=rule, horizon=horizon, initial_default=0,
                            protocol=protocol)
            report = solve_spe(game)
            assert report == ref_solve_spe(_fresh(game))
            assert len(report.value_table) == (horizon + 1) * 4
        values, choices = problem._memo[("rows", rule, protocol)]
        assert len(values) == 201 and len(choices) == 200
        # the first solve steps up to the fixed point, the second reads it, the
        # third a prefix
        assert computed == [_fixed_point(values), 0] and computed[0] < 10
        _assert_rows_repeat_past_their_fixed_point(values, choices)
    # a custom table is solved round by round, every call
    computed.clear()
    game = GameSpec(problem=problem, rule=rule, horizon=100,
                    initial_default=problem.policy_index("z"),
                    protocol=adjournment_trap_protocol(100))
    assert solve_spe(game) == solve_spe(game) == ref_solve_spe(game)
    assert computed == [100, 100]


def test_preset_solves_build_the_vote_table_once(monkeypatch):
    # the oracle votes on the rule's strict whole table, built in column chunks
    table_builds = []
    wins = problems_module._wins

    def counted(problem, rule, cols, weak=False, rows=slice(None)):
        if not weak and isinstance(cols, slice) and cols.start == 0:
            table_builds.append(rule)
        return wins(problem, rule, cols, weak, rows)

    monkeypatch.setattr(problems_module, "_CHUNK_COMPARISONS", 40)
    monkeypatch.setattr(problems_module, "_wins", counted)
    rng = random.Random(7)
    problem = _problem(rng, 5, 8, gfa=True)
    rule = _rule(rng, 5)
    assert len(problems_module._column_chunks(problem)) > 1
    for protocol in PRESET_PROTOCOLS:
        for x in range(8):
            for t in (3, 1, 4, 2):
                solve_spe(GameSpec(problem=problem, rule=rule, horizon=t,
                                   initial_default=x, protocol=protocol))
    assert table_builds == [rule]
    # a custom protocol is solved per call, on the same table
    table = {(t, x): ((0, False), (x, True)) for t in (1, 2) for x in range(8)}
    custom = GameSpec(problem=problem, rule=rule, horizon=2, initial_default=0,
                      protocol=CustomProtocol(label="small", table=table))
    assert solve_spe(custom) == solve_spe(custom) == ref_solve_spe(custom)
    assert table_builds == [rule]


def test_adjournment_trap_is_solved_per_call_after_a_warm_store():
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    z = problem.policy_index("z")
    for protocol in PRESET_PROTOCOLS:
        solve_spe(GameSpec(problem=problem, rule=rule, horizon=4, initial_default=z,
                           protocol=protocol))
    kept = dict(problem._memo)
    for rounds in range(1, 5):
        game = GameSpec(problem=problem, rule=rule, horizon=rounds, initial_default=z,
                        protocol=adjournment_trap_protocol(rounds))
        report = solve_spe(game)
        assert problem.policies[report.outcome] == "y"
        assert report == ref_solve_spe(game)
        assert check_richness(game) == ref_check_richness(game)
        assert not check_richness(game).rich
    # custom rows are never kept; only the richness scan's phi table is new
    assert problem._memo.keys() - kept.keys() <= {("phi", rule)}


def test_warm_store_keeps_the_budget_check():
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    warm = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0)
    solve_spe(warm)
    # rows already kept were charged when they were computed: reading them is free
    for horizon in (3, 2):
        game = dataclasses.replace(warm, horizon=horizon)
        assert solve_spe(game, budget=0) == ref_solve_spe(_fresh(game))
    # horizon 5 computes step 4 first, charged m * (m + 1) = 20
    with pytest.raises(BudgetExceededError) as info:
        solve_spe(dataclasses.replace(warm, horizon=5), budget=10)
    assert (info.value.required, info.value.budget) == (20, 10)
    assert str(info.value) == "state space too large for the oracle (required 20, budget 10)"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32))
def test_no_solve_within_the_old_forecast_is_refused(seed):
    # a solve is charged for the steps it computes, never more than the
    # forecast T * m * (m + 1) that bounded it before, on a cold or a warm
    # problem and under a preset or a custom table
    rng = random.Random(seed)
    n, m = rng.choice((1, 3, 5, 7)), rng.randint(1, 6)
    problem, rule = _problem(rng, n, m, gfa=True), _rule(rng, n)
    for _ in range(4):
        horizon = rng.randint(1, 3 * m)
        game = GameSpec(problem=problem, rule=rule, horizon=horizon,
                        initial_default=rng.randrange(m),
                        protocol=_protocol(rng, horizon, m, gaps=0.002))
        report = _outcome(solve_spe, game, budget=horizon * m * (m + 1))
        assert report == _outcome(ref_solve_spe, _fresh(game))


def test_mutating_a_report_leaves_the_next_one_unchanged():
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=2,
                    protocol="open_rule")
    report = solve_spe(game)
    keys = list(report.value_table)
    report.value_table[(1, 2)] = -1
    report.value_table[(9, 9)] = 0
    del report.value_table[(4, 0)]
    again = solve_spe(game)
    assert again == ref_solve_spe(_fresh(game))
    assert list(again.value_table) == keys


# ---------------------------------------------------------------------------
# Markov profiles, which answer a state's votes from one block


@pytest.mark.parametrize("flavor", ["non_capricious", "capricious"])
@pytest.mark.parametrize("m", range(2, 7))
def test_verify_dtd_profiles_matches_reference(flavor, m):
    grid = DivideDollarGrid(n=3, m=m)
    rule = VotingRule.simple_majority(3)
    # an interior default where the grid has one (m >= 4), else the first
    x0 = next((k for k, a in enumerate(grid.allocations) if all(a.units)), 0)
    for rounds in range(2, 6):
        profile = dtd_profile(3, m, rounds, flavor)
        game = GameSpec(problem=grid.problem, rule=rule, horizon=rounds, initial_default=x0)
        assert verify_profile(game, profile) == ref_verify_profile(game, profile)
        assert play_out(game, profile) == ref_play_out(game, profile)


def test_verify_simple_profile_under_open_rule_matches_reference():
    flagged = 0
    for seed in range(40):
        rng = random.Random(40_000 + seed)
        n, m, rounds = rng.choice((1, 3, 5, 7)), rng.randint(2, 6), rng.randint(1, 4)
        problem, rule = _problem(rng, n, m, gfa=True), _rule(rng, n)
        game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                        initial_default=rng.randrange(m), protocol="open_rule")
        profile = simple_equilibrium_profile(problem, rule, rounds)
        report = verify_profile(game, profile)
        assert report == ref_verify_profile(game, profile)
        flagged += not report.profile_valid
    # the simple profile never adjourns, which open_rule can punish
    assert flagged


def test_verify_markov_profile_reads_no_single_votes():
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    profiles = [simple_equilibrium_profile(problem, rule, 3)]
    profiles += [dtd_profile(3, 4, 3, flavor) for flavor in ("non_capricious", "capricious")]
    for profile in profiles:
        calls = []

        def vote(i, t, x, a, single=profile.vote):
            calls.append((i, t, x, a))
            return single(i, t, x, a)

        counted = dataclasses.replace(profile, vote=vote)
        if profile.label == "simple-equilibrium":
            game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0)
        else:
            game = GameSpec(problem=DivideDollarGrid(n=3, m=4).problem, rule=rule,
                            horizon=3, initial_default=7)
        assert verify_profile(game, counted) == verify_profile(game, profile)
        assert play_out(game, counted) == play_out(game, profile)
        assert calls == []


def test_verify_custom_table_without_unreachable_states():
    # the table defines only the states play can reach from default 0;
    # rounds 2 and 3 offer staying or moving to 1, and 2, 3 are never reached
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    table = {(1, 0): ((0, False), (1, False))}
    table.update({(t, x): ((x, False), (1, False), (x, True))
                  for t in (2, 3) for x in (0, 1)})
    game = GameSpec(problem=problem, rule=rule, horizon=3, initial_default=0,
                    protocol=CustomProtocol(label="sparse", table=table))
    simple = simple_equilibrium_profile(problem, rule, 3)
    proposer = {(t, x): actions[-1] for (t, x), actions in table.items()}
    voters = [{(t, x, a): simple.vote(i, t, x, a)
               for (t, x), actions in table.items() for a, _ in actions}
              for i in range(3)]
    profile = StrategyProfile.from_tables(3, proposer, voters, label="sparse")
    report = verify_profile(game, profile)
    assert report == ref_verify_profile(game, profile)
    assert isinstance(report, DeviationReport)
    with pytest.raises(ValidationError, match=r"no feasible set at \(round 3, default 2\)"):
        solve_spe(game)    # backward induction reads every default, last round first


def test_custom_table_of_lists_with_a_repeated_offer():
    # actions written as [policy, adjourn] lists, as a JSON reader leaves
    # them, and policy 3 offered twice; the game reads distinct pairs
    problem, rule = majority_cycle_problem(), VotingRule.simple_majority(3)
    table = {(t, x): [[3, False], [0, False], [1, False], [3, False], [2, False]]
             for t in (1, 2) for x in range(4)}
    protocol = CustomProtocol(label="lists", table=table)
    game = GameSpec(problem=problem, rule=rule, horizon=2, initial_default=0,
                    protocol=protocol)
    assert protocol.table is table and table[(1, 0)][3] == [3, False]
    offers = game.feasible(1, 0)
    assert offers == ((3, False), (0, False), (1, False), (2, False))
    assert all(type(a) is int and type(adjourn) is bool for a, adjourn in offers)
    assert solve_spe(game).outcome == 0
    profile = simple_equilibrium_profile(problem, rule, 2)
    report = verify_profile(game, profile)
    assert report.profile_valid
    assert report == ref_verify_profile(game, profile)
