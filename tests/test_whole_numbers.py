"""Every count, size, index, horizon and budget the library takes is read
by `rationals.parse_whole`: a bool, float or text value is refused with a
`ValidationError` (never truncated, never a raw `TypeError`), and a numpy
integer is read as the plain int it equals."""

from __future__ import annotations

import numpy as np
import pytest

from agendalab import (
    Allocation,
    BoxSpace,
    CollectiveChoiceProblem,
    CustomProtocol,
    DivideDollarGrid,
    GameSpec,
    SimplexSpace,
    SpatialProfile,
    StrategyProfile,
    TournamentSpec,
    ValidationError,
    VotingRule,
    build_grid,
    divide_dollar_problem,
    dtd_beta_power,
    dtd_profile,
    equilibrium_outcome,
    gen_random_gfa,
    gen_random_with_ties,
    gen_spatial,
    gfa_corpus,
    horizon_payoffs,
    nc_outcome_bounds,
    phi_iterates,
    pork_barrel_problem,
    reachability,
    simple_equilibrium_profile,
    solve_spe,
    transfers_problem,
    verify_profile,
)
from agendalab.fixtures import majority_cycle_problem
from agendalab.rationals import parse_whole
from agendalab.serialize import load_problem, profile_to_dict, save_problem
from agendalab.suites import run_suite
from agendalab.tournaments import relabel

CYCLE = majority_cycle_problem()
RULE = VotingRule.simple_majority(3)
PROFILE = gen_spatial(3, 5, 1)
DOLLARS = DivideDollarGrid(n=2, m=2)          # six allocations


def _game(horizon=2, x0=0, protocol="amendment"):
    return GameSpec(problem=CYCLE, rule=RULE, horizon=horizon, initial_default=x0,
                    protocol=protocol)


def _offering(a):
    """A one-round custom protocol that offers policy `a`, without adjournment,
    at every default."""
    return CustomProtocol(label="c", table={(1, x): ((a, False),) for x in range(4)})


def _tabled(profile, problem=CYCLE):
    return profile_to_dict(profile, problem)


# name -> (call of one whole-number argument, a valid value, message pattern)
ENTRY_POINTS = {
    # problems
    "VotingRule n": (lambda v: VotingRule(n=v, quota=1), 3, None),
    "VotingRule quota": (lambda v: VotingRule(n=3, quota=v), 2, None),
    "quota_rule quota": (lambda v: VotingRule.quota_rule(3, v), 2, None),
    "simple_majority n": (VotingRule.simple_majority, 3, None),
    "explicit n": (lambda v: VotingRule.explicit(v, [[0, 1]]), 3, None),
    "explicit voter": (lambda v: VotingRule.explicit(3, [[0, v]]), 2, None),
    "coalition mask": (lambda v: VotingRule(n=3, min_coalitions=(v,)), 3, None),
    "VotingRule.wins mask": (RULE.wins, 3, None),
    "TournamentSpec size": (lambda v: TournamentSpec.from_edges(v, [(1, 0)]), 2, None),
    "tournament winner": (lambda v: TournamentSpec.from_edges(2, [(v, 0)]), 1, None),
    "tournament loser": (lambda v: TournamentSpec.from_edges(2, [(1, v)]), 0, None),
    "check_policy": (CYCLE.check_policy, 2, None),
    # oracle
    "GameSpec horizon": (lambda v: solve_spe(_game(horizon=v)), 3, None),
    "GameSpec default": (lambda v: solve_spe(_game(x0=v)), 3, None),
    "feasible round": (lambda v: _game().feasible(v, 0), 2, None),
    "feasible default": (lambda v: _game(protocol="open_rule").feasible(1, v), 3, None),
    "custom action policy": (lambda v: solve_spe(_game(1, 3, _offering(v))), 1,
                             "an action is a policy"),
    "solve_spe budget": (lambda v: solve_spe(_game(), budget=v), 10**6, None),
    "verify_profile budget": (
        lambda v: verify_profile(_game(), simple_equilibrium_profile(CYCLE, RULE, 2),
                                 budget=v), 10**6, None),
    # engine
    "equilibrium_outcome rounds": (lambda v: equilibrium_outcome(CYCLE, RULE, 3, v), 2, None),
    "phi_iterates count": (lambda v: phi_iterates(CYCLE, RULE, 3, v), 2, None),
    "simple profile rounds": (
        lambda v: _tabled(simple_equilibrium_profile(CYCLE, RULE, v)), 2, None),
    "markov profile round": (
        lambda v: simple_equilibrium_profile(CYCLE, RULE, 2).propose(v, 3), 1, None),
    "markov profile index": (
        lambda v: simple_equilibrium_profile(CYCLE, RULE, 2).propose(1, v), 3, None),
    "markov ballots policy": (
        lambda v: simple_equilibrium_profile(CYCLE, RULE, 2).ballots(1, 0, [v], 3).tolist(),
        3, None),
    "StrategyProfile horizon": (lambda v: StrategyProfile.from_tables(v, {}, []).horizon, 2,
                                None),
    "nc_outcome_bounds rounds": (lambda v: nc_outcome_bounds(CYCLE, RULE, 3, v), 2, None),
    "nc_outcome_bounds budget": (
        lambda v: nc_outcome_bounds(CYCLE, RULE, 3, 2, budget=v), 1000, None),
    # horizons
    "reachability k": (lambda v: reachability(CYCLE, 3, "k_reachable", v), 2, None),
    "horizon_payoffs horizon": (lambda v: horizon_payoffs(CYCLE, 3, [v]), 2, None),
    # distributions
    "Allocation share": (lambda v: Allocation(units=(v, 1, 0), denom=2), 1, None),
    "Allocation denom": (lambda v: Allocation(units=(1, 1, 0), denom=v), 2, None),
    "DivideDollarGrid n": (lambda v: DivideDollarGrid(n=v, m=2).problem, 2, None),
    "DivideDollarGrid m": (lambda v: DivideDollarGrid(n=2, m=v).problem, 2, None),
    "divide_dollar_problem m": (lambda v: divide_dollar_problem(3, v), 2, None),
    "DivideDollarGrid allocation": (DOLLARS.allocation, 5, None),
    "dtd_beta_power k": (
        lambda v: dtd_beta_power(Allocation(units=(1, 1, 1, 1), denom=4), v), 2, None),
    "dtd_profile rounds": (
        lambda v: _tabled(dtd_profile(3, 2, v, "non_capricious"),
                          divide_dollar_problem(3, 2)), 3, None),
    "pork_barrel m": (lambda v: pork_barrel_problem([("1", "0")], v, 1), 2, None),
    "pork_barrel n": (lambda v: pork_barrel_problem([("1", "0")], 2, v), 1, None),
    "pork_barrel budget": (
        lambda v: pork_barrel_problem([("1", "0")], 2, 1, budget=v), 100, None),
    "transfers_problem m": (lambda v: transfers_problem(CYCLE, v), 1, None),
    # factories
    "gen_random_gfa num_policies": (lambda v: gen_random_gfa(v, 3, 1), 3, None),
    "gen_random_gfa n": (lambda v: gen_random_gfa(3, v, 1), 3, None),
    "gen_random_gfa seed": (lambda v: gen_random_gfa(4, 3, v), 7, None),
    "gfa_corpus count": (lambda v: gfa_corpus(v, 1), 2, None),
    "gfa_corpus max_policies": (lambda v: gfa_corpus(2, 1, max_policies=v), 3, None),
    "gfa_corpus seed": (lambda v: gfa_corpus(2, v), 7, None),
    "ties num_policies": (lambda v: gen_random_with_ties(v, 3, 1), 3, None),
    "ties n": (lambda v: gen_random_with_ties(3, v, 1), 2, None),
    "ties levels": (lambda v: gen_random_with_ties(3, 3, 1, levels=v), 2, None),
    "ties seed": (lambda v: gen_random_with_ties(3, 3, v), 7, None),
    # spatial
    "SpatialProfile dim": (
        lambda v: SpatialProfile(dim=v, ideal_points=((0,), (1,)), box=((0, 1),)), 1, None),
    "SpatialProfile utility player": (lambda v: PROFILE.utility(v, (0, "1/2", 1)), 5, None),
    "gen_spatial d": (lambda v: gen_spatial(v, 3, 1), 2, None),
    "gen_spatial n": (lambda v: gen_spatial(2, v, 1), 3, None),
    "gen_spatial seed": (lambda v: gen_spatial(3, 5, v), 7, None),
    # grids
    "BoxSpace.unit d": (BoxSpace.unit, 2, None),
    "build_grid seed": (lambda v: build_grid(SimplexSpace(2), "1/2", seed=v).problem, 7, None),
    "SimplexSpace n_voters": (
        lambda v: build_grid(SimplexSpace(v), "1/2", seed=1).problem, 2, None),
    "build_grid max_points": (
        lambda v: build_grid(SimplexSpace(2), "1/2", seed=1, max_points=v).problem,
        10**4, None),
    # suites
    "suite samples": (lambda v: run_suite("lemma1", samples=v, max_policies=3), 2, None),
    "suite max_policies": (lambda v: run_suite("lemma1", samples=2, max_policies=v), 3, None),
    "suite max_rounds": (lambda v: run_suite("lemma1", samples=2, max_rounds=v), 2, None),
    "suite m": (lambda v: run_suite("thm6_7_dtd", m=v), 3, None),
    "suite d": (lambda v: run_suite("thm4_mc", samples=1, d=v), 3, None),
    "suite seed": (lambda v: run_suite("lemma1", seed=v, samples=2, max_policies=3), 7, None),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_whole_number_argument_is_read_by_parse_whole(name):
    call, good, message = ENTRY_POINTS[name]
    for bad in (True, 1.5, "2"):
        with pytest.raises(ValidationError, match=message or f"^refusing .*{bad!r}: a "):
            call(bad)
    assert call(np.int64(good)) == call(good)


def test_parse_whole_reads_an_integral_and_refuses_the_rest():
    assert type(parse_whole(np.int64(3), "count")) is int
    assert parse_whole(0, "count") == 0 and parse_whole(4, "index", 0, 5) == 4
    for bad, found in ((False, "refusing count False: a count is a whole number"),
                       (2.0, "refusing count 2.0: a count is a whole number"),
                       (None, "refusing count None: a count is a whole number"),
                       (-1, "count must be at least 0, not -1")):
        with pytest.raises(ValidationError, match=f"^{found}$"):
            parse_whole(bad, "count")
    for bad in (-1, 5):
        with pytest.raises(ValidationError, match=f"^index {bad} out of range 0..4$"):
            parse_whole(bad, "index", 0, 5)


@pytest.mark.parametrize("call", [
    # each built an object that held the bad value
    lambda: VotingRule.quota_rule(3, 2.5),
    lambda: VotingRule.simple_majority(3.0),
    lambda: VotingRule(n=True, quota=1),
    lambda: TournamentSpec.from_edges(2, [(1.9, 0)]),      # was the edge (1, 0)
    lambda: solve_spe(_game(1, 0, _offering(True))),       # played policy 1
    lambda: Allocation(units=(1, 1.0, 0), denom=2.0),
    lambda: DivideDollarGrid(n=2.0, m=2),
    lambda: transfers_problem(CYCLE, True),
    lambda: SpatialProfile(dim=True, ideal_points=((0,), (1,)), box=((0, 1),)),
    # each raised a raw TypeError, AttributeError or ValueError
    lambda: dtd_profile(3, 4, 2.5, "non_capricious"),
    lambda: gfa_corpus(1.5, 1),
    lambda: divide_dollar_problem(3, 1.5),
    lambda: pork_barrel_problem([("1", "0")], 1.5, 3),
    lambda: gen_spatial(3.0, 3, 1),
    lambda: gen_random_with_ties(3, 3, 1, levels=2.5),
    lambda: gen_random_with_ties(3, 3, 1, levels=0),
    lambda: VotingRule(n=3, min_coalitions=(1.5,)),
    lambda: run_suite("thm1", samples=1.5),
    lambda: solve_spe(_game(), budget="5"),
    lambda: BoxSpace.unit(2.0),
    lambda: BoxSpace.unit("3"),
    lambda: verify_profile(_game(), simple_equilibrium_profile(CYCLE, RULE, 2), budget=None),
])
def test_inexact_whole_numbers_are_refused(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("name", [name for name in ENTRY_POINTS if name.endswith(" seed")])
def test_seeds_are_whole_numbers(name):
    # a seed of None drew a new instance on every call, and -7 and 7.0 the
    # instance of 7
    call = ENTRY_POINTS[name][0]
    for bad, found in ((None, "refusing seed( value)? None: a seed( value)? is a whole number"),
                       (7.0, r"refusing seed( value)? 7\.0: a seed( value)? is a whole number"),
                       (-7, "seed( value)? must be at least 0, not -7")):
        with pytest.raises(ValidationError, match=f"^{found}$"):
            call(bad)
    assert call(7) == call(7) != call(0)


def test_markov_ballots_read_every_policy():
    # the in-range fast path read [1, 2.0] as policies 1 and 2 (one policy
    # at a time is in the table above)
    profile = simple_equilibrium_profile(CYCLE, RULE, 2)
    with pytest.raises(ValidationError, match=r"^refusing policy index 2\.0: "):
        profile.ballots(1, 0, [1, 2.0], 3)
    assert profile.ballots(1, 0, [], 3).shape == (3, 0)


def test_coalition_masks_name_voters_of_the_rule():
    # a mask of no voter, or of a voter past n, was refused in its own wording
    for bad in (0, 8):
        with pytest.raises(ValidationError, match=f"^coalition mask {bad} out of range 1..7$"):
            VotingRule(n=3, min_coalitions=(bad,))


def test_rule_and_game_queries_read_indices_in_range():
    # `wins(0b11000)` counted voters 3 and 4 of a 3-voter rule, and under
    # `open_rule` `feasible(1, 99)` offered (99, True) and `feasible(7, -1)`
    # answered a round past the horizon
    for bad in (8, 0b11000, 2**10 - 1, -1):
        with pytest.raises(ValidationError, match=f"^coalition mask {bad} out of range 0..7$"):
            RULE.wins(bad)
    assert [RULE.wins(mask) for mask in range(8)] == [
        mask.bit_count() >= 2 for mask in range(8)]
    game = _game(protocol="open_rule")
    for t, x, found in ((1, 99, "policy index 99 out of range 0..3"),
                        (1, -1, "policy index -1 out of range 0..3"),
                        (7, 0, "round 7 out of range 1..2"),
                        (0, 0, "round 0 out of range 1..2")):
        with pytest.raises(ValidationError, match=f"^{found}$"):
            game.feasible(t, x)
    assert game.feasible(2, 3)[-1] == (3, True)


def test_player_and_allocation_indices_are_in_range():
    # `utility(-1, p)` read the setter's row and `utility(6, p)` raised a raw
    # IndexError; `allocation(-1)` wrapped to the last allocation, and `index`
    # of an allocation with the wrong number of shares raised a raw KeyError
    for bad in (-1, 6):
        with pytest.raises(ValidationError, match=f"^player index {bad} out of range 0..5$"):
            PROFILE.utility(bad, (0, 0, 0))
    setter = PROFILE.setter_ideal
    assert PROFILE.utility(5, setter) == 0 != PROFILE.utility(4, setter)
    for bad in (-1, 6, 99):
        with pytest.raises(ValidationError, match=f"^allocation index {bad} out of range 0..5$"):
            DOLLARS.allocation(bad)
    for units in ((1, 1), (1, 1, 0, 0)):
        with pytest.raises(ValidationError,
                           match=f"^allocation has {len(units)} shares, the grid's have 3$"):
            DOLLARS.index(Allocation(units=units, denom=2))
    assert [DOLLARS.index(DOLLARS.allocation(i)) for i in range(6)] == list(range(6))


def test_whole_numbers_are_kept_as_plain_ints():
    i = np.int64
    rule = VotingRule(n=i(3), quota=i(2))
    assert (type(rule.n), type(rule.quota)) == (int, int) and rule == RULE
    spec = TournamentSpec.from_edges(i(2), [(i(1), i(0))])
    assert {type(v) for edge in spec.edges for v in edge} | {type(spec.size)} == {int}
    share = Allocation(units=(i(1), i(1), i(0)), denom=i(2))
    assert {type(v) for v in (*share.units, share.denom)} == {int}
    assert type(_game(horizon=i(2), x0=i(1)).horizon) is int
    assert run_suite("lemma1", samples=i(2)).descriptor["samples"] == 2
    assert type(run_suite("lemma1", samples=i(2)).descriptor["samples"]) is int


def test_policy_labels_are_strings(tmp_path):
    # the constructor refuses what `load_problem` would refuse, in its wording
    with pytest.raises(ValidationError, match="^policy label 1 is not a string$"):
        CollectiveChoiceProblem(policies=(1, 2), voter_utilities=((1, 2),),
                                setter_utilities=(2, 1))
    with pytest.raises(ValidationError, match="^policy label None is not a string$"):
        relabel(CYCLE, [None, "a", "b", "c"])
    path = tmp_path / "cycle.json"
    save_problem(relabel(CYCLE, ["a", "b", "c", "d"]), path)
    assert load_problem(path) == relabel(CYCLE, ["a", "b", "c", "d"])
    path.write_text(path.read_text().replace('"a"', "1", 1))
    with pytest.raises(ValidationError, match="^policy label 1 is not a string$"):
        load_problem(path)
