from __future__ import annotations

import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    Allocation,
    BoxSpace,
    CollectiveChoiceProblem,
    CustomProtocol,
    DivideDollarGrid,
    GameSpec,
    SimplexSpace,
    SpatialProfile,
    TournamentSpec,
    UnsupportedCombinationError,
    ValidationError,
    VotingRule,
    acceptance_set,
    audit_dp_axioms,
    build_grid,
    coplanarity_form,
    divide_dollar_problem,
    dtd_profile,
    favorite_improvement,
    gen_spatial,
    horizon_classify,
    is_improvable,
    is_manipulable,
    mcgarvey_realize,
    nc_outcome_bounds,
    phi_iterates,
    phi_or,
    pork_barrel_problem,
    reachability,
    simple_equilibrium_profile,
    spatial_witness,
    stable_set,
    transfers_problem,
    uniform_margin,
    unimprovable_set,
    verify_profile,
)
from agendalab.factories import gen_random_gfa
from agendalab.fixtures import blocked_default_realized, blocked_tournament
from agendalab.problems import _memoized, _wins_table
from agendalab.rationals import parse_rational
from agendalab.serialize import parse_rule, protocol_from_dict
from agendalab.tournaments import derive_tournament, relabel

from references import ref_margin, ref_support_mask


def idx(problem, label):
    return problem.policy_index(label)


# ---------------------------------------------------------------------------
# construction and validation


def test_tournament_must_be_complete():
    with pytest.raises(ValidationError, match="incomplete"):
        TournamentSpec.from_edges(3, [(0, 1)])


def test_tournament_rejects_double_orientation():
    with pytest.raises(ValidationError):
        TournamentSpec.from_edges(2, [(0, 1), (1, 0)])


def test_tournament_rejects_self_edge():
    with pytest.raises(ValidationError, match="irreflexive"):
        TournamentSpec.from_edges(2, [(0, 0), (0, 1)])


def test_simple_majority_needs_odd_voters():
    with pytest.raises(ValidationError, match="odd"):
        VotingRule.simple_majority(4)
    rule = VotingRule.explicit(4, [[0, 1, 2], [1, 2, 3], [0, 3]])
    assert rule.wins(0b1111)


def test_explicit_rule_reduces_to_antichain():
    rule = VotingRule.explicit(3, [[0], [0, 1], [1, 2]])
    assert rule.min_coalitions == (0b001, 0b110)


def test_rule_monotone_closure():
    rule = VotingRule.explicit(5, [[0, 1], [2, 3, 4]])
    assert rule.wins(0b00011)
    assert rule.wins(0b10011)          # superset of a winner wins
    assert not rule.wins(0b01100)


def test_veto_proof_flag():
    assert VotingRule.quota_rule(5, 4).veto_proof
    assert not VotingRule.quota_rule(5, 5).veto_proof
    assert not VotingRule.explicit(3, [[0, 1], [0, 2]]).veto_proof   # voter 0 in all
    assert VotingRule.explicit(3, [[0, 1], [2]]).veto_proof


def test_rule_voter_count_has_no_upper_cap():
    assert VotingRule.simple_majority(133).quota == 67
    wide = VotingRule.explicit(100, [[0, 99], [50]])
    assert wide.coalition_members == ((50,), (0, 99))
    assert wide.wins(1 << 99 | 1) and not wide.wins(1 << 99)
    with pytest.raises(ValidationError, match="voter count must be at least 1, not 0"):
        VotingRule(n=0, quota=1)


def test_problem_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        CollectiveChoiceProblem(policies=("a", "a"),
                                voter_utilities=((Fraction(1), Fraction(2)),),
                                setter_utilities=(Fraction(1), Fraction(2)))
    with pytest.raises(ValidationError, match="voter 1"):
        CollectiveChoiceProblem(policies=("a", "b"),
                                voter_utilities=((Fraction(1),),),
                                setter_utilities=(Fraction(1), Fraction(2)))
    with pytest.raises(ValidationError, match="odd"):
        CollectiveChoiceProblem(
            policies=("a", "b"),
            voter_utilities=((Fraction(1), Fraction(2)),) * 2,
            setter_utilities=(Fraction(1), Fraction(2)), gfa=True)
    with pytest.raises(ValidationError, match="ties"):
        CollectiveChoiceProblem(
            policies=("a", "b"),
            voter_utilities=((Fraction(1), Fraction(1)),),
            setter_utilities=(Fraction(1), Fraction(2)), gfa=True)


def test_float_utilities_are_refused():
    # 0.5 is exact, but a float utility is refused by name when the problem is made
    with pytest.raises(ValidationError, match="0.5"):
        CollectiveChoiceProblem(policies=("a", "b"),
                                voter_utilities=((Fraction(1), 0.5),),
                                setter_utilities=(Fraction(1), Fraction(2)))
    # so is a bool, although it is an int
    with pytest.raises(ValidationError,
                       match="^refusing True: exact values are ints or Fractions$"):
        CollectiveChoiceProblem(policies=("a", "b"), voter_utilities=((True, False),),
                                setter_utilities=(Fraction(1), Fraction(2)))


BIG = Fraction(2**70, 3)


@pytest.mark.parametrize("voters, setter, named", [
    # the first tied row is named: voters in order, then the setter
    (((1, 2, 3), (5, 4, 5), (1, 1, 2)), (1, 2, 3), "voter 2"),
    (((1, 2, 3), (3, 2, 1), (2, 3, 1)), (7, 8, 7), "agenda setter"),
    (((BIG, BIG + 1, BIG + 2), (BIG + 2, BIG + Fraction(1, 2**40), BIG + 2), (1, 2, 3)),
     (BIG, -BIG, BIG), "voter 2"),
    (((1, 2, 3), (3, 2, 1), (2, 3, 1)), (BIG, BIG + Fraction(1, 7), BIG), "agenda setter"),
    (((2**63, 2**63 + 1, 2**63 + 2), (2**64, 2**64, 1), (0, 1, 2)),
     (0, 1, 2), "voter 2"),
])
def test_gfa_names_first_tied_row(voters, setter, named):
    with pytest.raises(ValidationError) as err:
        CollectiveChoiceProblem(policies=("a", "b", "c"), voter_utilities=voters,
                                setter_utilities=setter, gfa=True)
    assert str(err.value) == f"gfa requires strict preferences; {named} has ties"
    # odd voter count is checked before ties
    with pytest.raises(ValidationError, match="odd"):
        CollectiveChoiceProblem(policies=("a", "b", "c"), voter_utilities=voters[:2],
                                setter_utilities=setter, gfa=True)
    # without a tie the same magnitudes construct
    strict = CollectiveChoiceProblem(policies=("a", "b", "c"),
                                     voter_utilities=((BIG, 2**64, 1),) * 3,
                                     setter_utilities=(0, BIG, -BIG), gfa=True)
    assert strict.gfa


def test_single_policy_problem_is_allowed():
    lone = CollectiveChoiceProblem(
        policies=("only",), voter_utilities=((Fraction(0),),),
        setter_utilities=(Fraction(0),))
    rule = VotingRule.simple_majority(1)
    assert is_manipulable(lone, rule).manipulable   # vacuously


IMPROVEMENT_QUERIES = {
    "favorite_improvement": lambda p, r: favorite_improvement(p, r, 0),
    "is_improvable": lambda p, r: is_improvable(p, r, 0),
    "unimprovable_set": unimprovable_set,
    "is_manipulable": is_manipulable,
    "phi_iterates": lambda p, r: phi_iterates(p, r, 0, 3),
    "acceptance_set": lambda p, r: acceptance_set(p, r, 0, "strict"),
    "phi_or": lambda p, r: phi_or(p, r, 0),
    "uniform_margin": lambda p, r: uniform_margin(p, r, Fraction(1)),
}


@pytest.mark.parametrize("query", IMPROVEMENT_QUERIES.values(), ids=IMPROVEMENT_QUERIES)
@pytest.mark.parametrize("rule", [VotingRule.simple_majority(5), VotingRule.quota_rule(1, 1),
                                  VotingRule.explicit(4, [[0, 3], [1, 2]])],
                         ids=["majority-of-5", "quota-1-of-1", "explicit-4"])
def test_queries_reject_a_rule_for_another_voter_count(query, rule):
    problem = gen_random_gfa(5, 3, seed=1)
    with pytest.raises(ValidationError, match="rule is for"):
        query(problem, rule)


# per case: call(cycle, blocked, rule), the error it raises and that error's message
_REFUSALS = {
    "policy_index of an unknown label": (
        lambda cycle, blocked, rule: cycle.policy_index("nope"),
        ValidationError, "unknown policy label 'nope'"),
    "acceptance_set in an unknown mode": (
        lambda cycle, blocked, rule: acceptance_set(cycle, rule, 0, "loose"),
        ValidationError, "unknown acceptance mode 'loose'"),
    "verify_profile on an override problem": (
        lambda cycle, blocked, rule: verify_profile(
            GameSpec(problem=blocked, rule=rule, horizon=1, initial_default=0),
            simple_equilibrium_profile(cycle, rule, 1)),
        UnsupportedCombinationError,
        "profiles are voted per voter; relation-override problems unsupported"),
    # the placeholder rows say nothing about the tournament: a profile voted
    # from them would play the blocked fixture at T = 1 from z to z, where
    # solve_spe and phi both give x
    "simple_equilibrium_profile on an override problem": (
        lambda cycle, blocked, rule: simple_equilibrium_profile(blocked, rule, 1),
        UnsupportedCombinationError,
        "the simple equilibrium profile votes per voter; relation-override problems unsupported"),
    "transfers_problem on an override problem": (
        lambda cycle, blocked, rule: transfers_problem(blocked, 1),
        UnsupportedCombinationError,
        "transfers redistribute voter utilities; relation-override problems unsupported"),
    "audit_dp_axioms on an override problem": (
        lambda cycle, blocked, rule: audit_dp_axioms(blocked),
        UnsupportedCombinationError,
        "the axioms are audited per voter; relation-override problems unsupported"),
    "uniform_margin on an override problem": (
        lambda cycle, blocked, rule: uniform_margin(blocked, rule, 1),
        UnsupportedCombinationError,
        "uniform_margin reads voter gains; relation-override problems unsupported"),
    "GameSpec pairing an override with a quota rule": (
        lambda cycle, blocked, rule: GameSpec(problem=blocked, rule=VotingRule.quota_rule(3, 3),
                                              horizon=2, initial_default=0),
        UnsupportedCombinationError,
        "a majority override defines only the simple-majority relation; "
        "pair explicit or non-majority rules with utility-level problems"),
    "gfa=True on an override with a tied setter row": (
        lambda cycle, blocked, rule: CollectiveChoiceProblem(
            policies=blocked.policies, voter_utilities=((0, 0, 0, 0),) * 3,
            setter_utilities=(1, 1, 2, 3), majority_override=blocked.majority_override,
            gfa=True),
        ValidationError, "gfa requires strict preferences; agenda setter has ties"),
    "gen_random_gfa with an even voter count": (
        lambda cycle, blocked, rule: gen_random_gfa(4, 2, 0),
        ValidationError, "gfa requires an odd number of voters"),
    "relabel with too few labels": (
        lambda cycle, blocked, rule: relabel(cycle, ("a", "b", "c")),
        ValidationError, "label count mismatch"),
    "mcgarvey_realize with a short setter row": (
        lambda cycle, blocked, rule: mcgarvey_realize(blocked_tournament(), [3, 2, 1]),
        ValidationError, "setter utility vector length mismatch"),
    "VotingRule with both a quota and coalitions": (
        lambda cycle, blocked, rule: VotingRule(n=3, quota=2, min_coalitions=(3,)),
        ValidationError, "give either a quota or explicit coalitions, not both"),
    "VotingRule with neither a quota nor coalitions": (
        lambda cycle, blocked, rule: VotingRule(n=3),
        ValidationError, "explicit rule needs at least one winning coalition"),
    "VotingRule with nested coalitions": (
        lambda cycle, blocked, rule: VotingRule(n=3, min_coalitions=(1, 3)),
        ValidationError, "minimal coalitions must form an antichain"),
    "a problem with no policy": (
        lambda cycle, blocked, rule: CollectiveChoiceProblem(
            policies=(), voter_utilities=((),), setter_utilities=()),
        ValidationError, "need at least one policy"),
    "an override of the wrong size": (
        lambda cycle, blocked, rule: CollectiveChoiceProblem(
            policies=("a", "b", "c"), voter_utilities=((1, 2, 3),) * 3,
            setter_utilities=(1, 2, 3), majority_override=blocked.majority_override),
        ValidationError, "override tournament size does not match policy count"),
    "GameSpec with an unknown protocol": (
        lambda cycle, blocked, rule: GameSpec(problem=cycle, rule=rule, horizon=1,
                                              initial_default=0, protocol="nope"),
        ValidationError, "unknown protocol 'nope'"),
    "an empty custom feasible set": (
        lambda cycle, blocked, rule: GameSpec(
            problem=cycle, rule=rule, horizon=1, initial_default=0,
            protocol=CustomProtocol(label="empty", table={(1, 0): ()})).feasible(1, 0),
        ValidationError, "empty feasible set at (round 1, default 0)"),
    "credible reachability without gfa": (
        lambda cycle, blocked, rule: reachability(divide_dollar_problem(3, 2), 0, "credible"),
        ValidationError,
        "credible reachability needs the single-valued improvement map, i.e. gfa"),
    "simple_equilibrium_profile without gfa": (
        lambda cycle, blocked, rule: simple_equilibrium_profile(divide_dollar_problem(3, 2),
                                                                rule, 1),
        ValidationError, "the simple equilibrium profile requires gfa"),
    "an Allocation with one share": (
        lambda cycle, blocked, rule: Allocation(units=(1,), denom=1),
        ValidationError, "need at least one voter plus the setter"),
    "DivideDollarGrid.index on another denominator": (
        lambda cycle, blocked, rule: DivideDollarGrid(3, 4).index(
            Allocation(units=(1, 1, 1, 0), denom=3)),
        ValidationError, "allocation denominator does not match the grid"),
    "dtd_profile with an even voter count": (
        lambda cycle, blocked, rule: dtd_profile(2, 4, 2, "non_capricious"),
        ValidationError, "odd voter count required"),
    "pork_barrel_problem with a project of no benefit": (
        lambda cycle, blocked, rule: pork_barrel_problem([(0, 0)], 2, 3),
        ValidationError, "projects need positive benefit and nonnegative cost"),
    "transfers_problem with a total off the grid": (
        lambda cycle, blocked, rule: transfers_problem(CollectiveChoiceProblem(
            policies=("a",), voter_utilities=((Fraction(1, 2),),), setter_utilities=(0,)), 1),
        ValidationError, "total utility 1/2 of 'a' is not a multiple of 1/1"),
    "BoxSpace with no axis": (
        lambda cycle, blocked, rule: BoxSpace(()),
        ValidationError, "box needs at least one axis"),
    "build_grid on a box of another dimension than the profile": (
        lambda cycle, blocked, rule: build_grid(BoxSpace.unit(2), Fraction(1, 2), 0,
                                                gen_spatial(3, 3, 0)),
        ValidationError, "profile dimension does not match the box"),
    "build_grid on a simplex given a profile": (
        lambda cycle, blocked, rule: build_grid(SimplexSpace(3), Fraction(1, 2), 0,
                                                gen_spatial(3, 3, 0)),
        ValidationError, "simplex grids carry their own share utilities"),
    "build_grid on an unknown space": (
        lambda cycle, blocked, rule: build_grid(object(), Fraction(1, 2), 0),
        ValidationError, "unknown space object"),
    "SpatialProfile with a box of the wrong dimension": (
        lambda cycle, blocked, rule: SpatialProfile(dim=2, ideal_points=((0, 0), (1, 1)),
                                                    box=((0, 1),)),
        ValidationError, "box bounds dimension mismatch"),
    "gen_spatial on a box degenerate after rounding": (
        lambda cycle, blocked, rule: gen_spatial(
            1, 3, 0, box=((Fraction(1, 2**22), Fraction(1, 2**21)),)),
        ValidationError, "degenerate box axis [1/4194304, 1/2097152]"),
    "coplanarity_form in two dimensions": (
        lambda cycle, blocked, rule: coplanarity_form((0, 0), (1, 0), (0, 1), (1, 1)),
        ValidationError, "the coplanarity form takes points in R^3"),
    "spatial_witness at a point of the wrong dimension": (
        lambda cycle, blocked, rule: spatial_witness(gen_spatial(3, 3, 0), (0, 0)),
        ValidationError, "query point dimension mismatch"),
    "spatial_witness on a two-dimensional profile": (
        lambda cycle, blocked, rule: spatial_witness(gen_spatial(2, 3, 0), (0, 0)),
        ValidationError, "witness construction needs at least 3 dimensions"),
    "parse_rational given a list": (
        lambda cycle, blocked, rule: parse_rational([1]),
        ValidationError, "cannot parse rational from list"),
    "parse_rule with a quota descriptor without its voter count": (
        lambda cycle, blocked, rule: parse_rule("quota:2", 3),
        ValidationError, "malformed quota descriptor 'quota:2'"),
    "protocol_from_dict with a row of two fields": (
        lambda cycle, blocked, rule: protocol_from_dict({"table": [[1, "w"]]}, cycle),
        ValidationError, "malformed protocol document: "
        "ValueError('not enough values to unpack (expected 3, got 2)')"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals_name_their_cause(case, cycle, blocked, rule3):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(cycle, blocked, rule3)


# ---------------------------------------------------------------------------
# majority relation


def test_majority_relation_cycle_fixture(cycle):
    y, w, x = idx(cycle, "y"), idx(cycle, "w"), idx(cycle, "x")
    majority = _wins_table(cycle, cycle._majority_rule)
    assert majority[y, w] and not majority[w, y]
    assert ref_margin(cycle, y, w) == 1      # policy y beats w, two voters to one
    assert not majority[x, x]


def test_override_relation_wins_but_margin_counts_utilities(blocked):
    # the override says x beats w although the raw profile count disagrees
    x, w = idx(blocked, "x"), idx(blocked, "w")
    majority = _wins_table(blocked, blocked._majority_rule)
    assert majority[x, w] and not majority[w, x]
    assert ref_margin(blocked, x, w) == -1


def _two_voter_problem(override=None):
    # the two voters split 1-1 on every pair of policies
    return CollectiveChoiceProblem(
        policies=("a", "b", "c"),
        voter_utilities=((Fraction(1), Fraction(2), Fraction(3)),
                         (Fraction(3), Fraction(2), Fraction(1))),
        setter_utilities=(Fraction(1), Fraction(2), Fraction(3)),
        majority_override=override)


def test_even_voter_override_relation_is_the_tournament():
    # an override fixes the strict majority relation at any voter count;
    # only rule-level queries insist on a simple-majority rule
    cycle = TournamentSpec.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    problem = _two_voter_problem(cycle)
    assert _wins_table(problem, problem._majority_rule).tolist() == [[False, True, False],
                                                                     [False, False, True],
                                                                     [True, False, False]]
    reports = [reachability(problem, x, "reachable") for x in range(3)]
    assert [(r.members, r.best_for_setter, r.witness_chain) for r in reports] == [
        ({0, 1, 2}, 2, (0, 2)), ({0, 1, 2}, 2, (1, 0, 2)), ({0, 1, 2}, 2, (2,))]
    assert derive_tournament(problem) == cycle
    with pytest.raises(UnsupportedCombinationError):
        acceptance_set(problem, VotingRule.quota_rule(2, 2), 0, "strict")


def test_even_voter_split_resolves_no_pair():
    problem = _two_voter_problem()
    assert not _wins_table(problem, problem._majority_rule).any()
    for x in range(3):
        assert reachability(problem, x, "reachable").members == {x}
    with pytest.raises(ValidationError) as err:
        derive_tournament(problem)
    assert str(err.value) == "majority ties on pair (a, b); no tournament"


def test_derive_tournament_names_first_tied_pair():
    # four voters: a strict majority needs three; only (a, d) and (b, c) tie,
    # and (a, d) comes first in (x, y) order although (b, c) closes first
    rows = ((3, 1, 2, 0), (2, 0, 1, 3), (3, 1, 0, 2), (0, 2, 1, 3))
    problem = CollectiveChoiceProblem(
        policies=("a", "b", "c", "d"),
        voter_utilities=tuple(tuple(Fraction(u) for u in row) for row in rows),
        setter_utilities=(Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    assert _wins_table(problem, problem._majority_rule).tolist() == [
        [False, True, True, False], [False, False, False, False],
        [False, False, False, False], [False, True, True, False]]
    with pytest.raises(ValidationError) as err:
        derive_tournament(problem)
    assert str(err.value) == "majority ties on pair (a, d); no tournament"


# ---------------------------------------------------------------------------
# acceptance sets


def test_acceptance_set_examples(cycle, rule3):
    z, w = idx(cycle, "z"), idx(cycle, "w")
    assert acceptance_set(cycle, rule3, z, "strict") == {idx(cycle, "y")}
    assert acceptance_set(cycle, rule3, w, "almost_strict") == {
        w, idx(cycle, "y"), idx(cycle, "z")}
    for x in range(4):
        weak = acceptance_set(cycle, rule3, x, "weak")
        strict = acceptance_set(cycle, rule3, x, "strict")
        assert x in weak and x not in strict and strict <= weak


def test_acceptance_override_needs_simple_majority(blocked):
    with pytest.raises(UnsupportedCombinationError):
        acceptance_set(blocked, VotingRule.quota_rule(3, 3), 0, "strict")
    got = acceptance_set(blocked, VotingRule.simple_majority(3),
                         idx(blocked, "x"), "strict")
    assert got == frozenset()


def test_acceptance_antitone_in_quota(small_corpus):
    for problem in small_corpus[:10]:
        if problem.n < 5:
            continue
        weak_rule = VotingRule.quota_rule(problem.n, (problem.n + 1) // 2)
        strong_rule = VotingRule.quota_rule(problem.n, problem.n)
        for x in range(problem.num_policies):
            assert (acceptance_set(problem, strong_rule, x, "strict")
                    <= acceptance_set(problem, weak_rule, x, "strict"))


# ---------------------------------------------------------------------------
# improvability and manipulability


def test_is_improvable_cycle_fixture(cycle, rule3):
    cert = is_improvable(cycle, rule3, idx(cycle, "z"))
    assert cert is not None and cert.witness == idx(cycle, "y")
    assert cert.setter_gain == 1
    assert cert.coalition is not None and rule3.wins(
        sum(1 << i for i in cert.coalition))
    for i in cert.coalition:
        row = cycle.voter_utilities[i]
        assert row[cert.witness] > row[cert.base]
    assert is_improvable(cycle, rule3, idx(cycle, "w")) is None


def test_is_improvable_blocked_fixture(blocked, rule3):
    assert is_improvable(blocked, rule3, idx(blocked, "x")) is None
    cert = is_improvable(blocked, rule3, idx(blocked, "z"))
    assert cert is not None and cert.witness == idx(blocked, "x")
    assert cert.coalition is None          # relation-level problem


def test_unimprovable_sets(cycle, blocked, rule3):
    assert unimprovable_set(cycle, rule3) == {idx(cycle, "w")}
    assert unimprovable_set(blocked, rule3) == {idx(blocked, "w"), idx(blocked, "x")}


def test_unimprovable_contains_setter_optima(small_corpus):
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        assert problem.setter_optima <= unimprovable_set(problem, rule)


def test_manipulability(cycle, blocked, rule3):
    assert is_manipulable(cycle, rule3).manipulable
    report = is_manipulable(blocked, rule3)
    assert not report.manipulable
    assert report.blocking == {idx(blocked, "x")}


def test_fast_paths_match_reference_scan():
    problem = gen_random_gfa(70, 5, seed=5)
    rule = VotingRule.simple_majority(5)
    fast = unimprovable_set(problem, rule)
    setter = problem.setter_utilities
    slow = frozenset(x for x in range(70)
                     if not any(setter[y] > setter[x]
                                and rule.wins(ref_support_mask(problem, y, x))
                                for y in range(70)))
    assert fast == slow == frozenset(x for x in range(70)
                                     if is_improvable(problem, rule, x) is None)


def test_improvement_queries_never_build_a_policy_by_policy_table():
    # phi and manipulability take the relation in column chunks: their
    # transient memory is O(n * m * chunk), far below the m**2 bytes that
    # only the cached strict majority relation may spend
    m = 3001
    problem = gen_random_gfa(m, 5, seed=3)
    tracemalloc.start()
    try:
        report = is_manipulable(problem, VotingRule.simple_majority(5))
        assert not any(key[0] == "wins" for key in problem._memo)
        _, phi_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _wins_table(problem, problem._majority_rule)
        _, majority_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.blocking                      # the whole table was scanned
    assert phi_peak < m * m // 8
    assert m * m <= majority_peak < m * m + m * m // 8


def test_stable_set_and_tie_bounds_read_no_policy_by_policy_table():
    # the stable set and psi read member rows, phi_or its setter prefixes;
    # only reachability, tournaments and the oracle build a whole table
    problem = gen_random_gfa(3001, 5, seed=3)
    rule = VotingRule.simple_majority(5)
    stable_set(problem)
    horizon_classify(problem)
    assert phi_or(problem, rule, 0)
    nc_outcome_bounds(problem, rule, 0, 3)
    assert not any(key[0] == "wins" for key in problem._memo)


# ---------------------------------------------------------------------------
# uniform margin


def test_uniform_margin_cycle_fixture(cycle, rule3):
    report = uniform_margin(cycle, rule3, Fraction(1, 2))
    assert set(report.gamma_set) == {idx(cycle, "x"), idx(cycle, "y"), idx(cycle, "z")}
    assert report.eta_star[idx(cycle, "z")] == 1       # witnessed by policy y
    assert report.eta_delta == 1 and report.lemma_holds
    assert report.t_bound == 3                         # (4 - 1) / 1


def test_uniform_margin_empty_gamma(cycle, rule3):
    report = uniform_margin(cycle, rule3, Fraction(10))
    assert report.gamma_set == () and report.eta_delta is None and report.t_bound == 0


def test_uniform_margin_rejects_nonpositive_delta(cycle, rule3):
    with pytest.raises(ValidationError):
        uniform_margin(cycle, rule3, Fraction(-1))
    with pytest.raises(ValidationError):
        uniform_margin(cycle, rule3, Fraction(0))
    # a float is not an exact rational: 0.1 is not 1/10, and NaN is none
    for inexact in (0.1, float("nan")):
        with pytest.raises(ValidationError):
            uniform_margin(cycle, rule3, inexact)


def test_uniform_margin_rejects_override(blocked, rule3):
    with pytest.raises(UnsupportedCombinationError):
        uniform_margin(blocked, rule3, Fraction(1, 2))


def test_uniform_margin_blocked_realization_flags_violation():
    realized = blocked_default_realized()
    rule = VotingRule.simple_majority(realized.n)
    report = uniform_margin(realized, rule, Fraction(1, 2))
    x = realized.policy_index("x")
    assert report.eta_star[x] <= 0       # unimprovable despite the setter shortfall
    assert not report.lemma_holds and report.t_bound is None


def test_uniform_margin_positive_on_manipulable_instances(small_corpus):
    for problem in small_corpus[:20]:
        rule = VotingRule.simple_majority(problem.n)
        if not is_manipulable(problem, rule).manipulable:
            continue
        report = uniform_margin(problem, rule, Fraction(1, 2))
        if report.gamma_set:
            assert report.eta_delta > 0
            assert report.t_bound >= 1


def test_uniform_margin_fast_path_matches_reference():
    problem = gen_random_gfa(70, 5, seed=17)
    rule = VotingRule.simple_majority(5)
    report = uniform_margin(problem, rule, Fraction(1))
    sampled = random.Random(0).sample(list(report.gamma_set), 8)
    setter = problem.setter_utilities
    for x in sampled:
        # best over y of min(setter gain, q-th largest voter gain), in Fractions
        want = max(min(setter[y] - setter[x],
                       sorted((row[y] - row[x] for row in problem.voter_utilities),
                              reverse=True)[rule.quota - 1])
                   for y in range(70))
        assert report.eta_star[x] == want


def test_uniform_margin_explicit_rule_uses_coalition_minima():
    problem = gen_random_gfa(4, 3, seed=7)
    explicit = VotingRule.explicit(3, [[0, 1], [0, 2], [1, 2]])
    quota = VotingRule.quota_rule(3, 2)
    ex = uniform_margin(problem, explicit, Fraction(1, 2))
    qu = uniform_margin(problem, quota, Fraction(1, 2))
    assert ex.eta_star == qu.eta_star      # same rule, two encodings


# ---------------------------------------------------------------------------
# gfa relation properties


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gfa_relation_complete_and_antisymmetric(seed):
    problem = gen_random_gfa(5, 3, seed=seed)
    majority = _wins_table(problem, problem._majority_rule)
    for x in range(5):
        for y in range(x + 1, 5):
            assert majority[x, y] != majority[y, x]


# ---------------------------------------------------------------------------
# the per-problem memo


def test_equal_rules_share_one_memo_entry():
    problem = gen_random_gfa(5, 5, seed=3)
    majority, quota = VotingRule.simple_majority(5), VotingRule.quota_rule(5, 3)
    assert majority == quota and majority is not quota and hash(majority) == hash(quota)
    builds = []
    for rule in (majority, quota, majority):
        _memoized(problem, ("probe", rule), lambda: builds.append(rule) or len(builds))
    assert builds == [majority]
    assert _wins_table(problem, majority) is _wins_table(problem, quota)
    assert [key for key in problem._memo if key[0] == "wins"] == [("wins", majority)]


def test_a_pickled_rule_hashes_and_keys_as_before():
    problem = gen_random_gfa(4, 3, seed=5)
    for rule in (VotingRule.simple_majority(3), VotingRule.quota_rule(3, 3),
                 VotingRule.explicit(3, [[0, 1], [1, 2]])):
        hash(rule)
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and hash(copy) == hash(rule)
        assert _wins_table(problem, copy) is _wins_table(problem, rule)
    # the two encodings of one family are still distinct rules
    assert VotingRule.quota_rule(3, 2) != VotingRule.explicit(3, [[0, 1], [0, 2], [1, 2]])


def test_a_memoized_none_is_built_once():
    problem = gen_random_gfa(3, 3, seed=1)
    builds = []
    for _ in range(3):
        assert _memoized(problem, ("none",), lambda: builds.append(1)) is None
    assert builds == [1]
