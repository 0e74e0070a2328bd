from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    CollectiveChoiceProblem,
    TournamentSpec,
    ValidationError,
    VotingRule,
    derive_tournament,
    mcgarvey_realize,
    phi_iterates,
    unimprovable_set,
)
from agendalab.fixtures import (
    blocked_default_problem,
    blocked_default_realized,
    blocked_tournament,
    majority_cycle_problem,
)
from agendalab.problems import _wins_table
from agendalab.tournaments import relabel

from references import ref_margin

F = Fraction


def test_blocked_tournament_realization_round_trip():
    tournament = blocked_tournament()
    problem = mcgarvey_realize(tournament, [F(4), F(3), F(2), F(1)])
    assert problem.n == 7                      # two voters per round of 3, plus one
    assert problem.gfa
    assert derive_tournament(problem).edges == tournament.edges
    for winner, loser in tournament.edges:
        assert ref_margin(problem, winner, loser) in (1, 3)


def test_realized_relation_yields_same_engine_results():
    tournament = blocked_tournament()
    problem = mcgarvey_realize(tournament, [F(4), F(3), F(2), F(1)])
    rule = VotingRule.simple_majority(problem.n)
    assert unimprovable_set(problem, rule) == {0, 1}      # w and x


def test_two_policy_tournament():
    tournament = TournamentSpec.from_edges(2, [(1, 0)])
    problem = mcgarvey_realize(tournament, [F(1), F(2)])
    assert problem.n == 3
    assert ref_margin(problem, 1, 0) in (1, 3)
    assert _wins_table(problem, problem._majority_rule)[1, 0]


def test_transitive_tournament_keeps_condorcet_winner():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    problem = mcgarvey_realize(TournamentSpec.from_edges(4, edges),
                               [F(1), F(2), F(3), F(4)])
    majority = _wins_table(problem, problem._majority_rule)
    for other in (1, 2, 3):
        assert majority[0, other]


def test_setter_utilities_must_be_strict():
    tournament = TournamentSpec.from_edges(2, [(0, 1)])
    with pytest.raises(ValidationError, match="strict"):
        mcgarvey_realize(tournament, [F(1), F(1)])


def test_setter_utilities_are_read_exactly():
    tournament = TournamentSpec.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValidationError, match="float"):
        mcgarvey_realize(tournament, [0.1, 0.2, 0.3])
    assert (mcgarvey_realize(tournament, ["1/10", "1/5", "3/10"]).setter_utilities
            == (F(1, 10), F(1, 5), F(3, 10)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_realize_derive_identity(data):
    # any m is realized, past the 12 policies the quadratic construction
    # allowed, with 2r + 1 voters, r the rounds of a round robin that pair
    # any two policies
    m = data.draw(st.integers(min_value=1, max_value=16), label="m")
    pairs = [(x, y) for x in range(m) for y in range(x + 1, m)]
    flips = data.draw(st.integers(min_value=0, max_value=2**len(pairs) - 1), label="flips")
    edges = [(y, x) if flips >> k & 1 else (x, y) for k, (x, y) in enumerate(pairs)]
    tournament = TournamentSpec.from_edges(m, edges)
    setter = data.draw(st.lists(st.fractions(max_denominator=12), min_size=m, max_size=m,
                                unique=True), label="setter")
    problem = mcgarvey_realize(tournament, setter)
    assert derive_tournament(problem).edges == tournament.edges
    assert all(ref_margin(problem, winner, loser) in (1, 3)
               for winner, loser in tournament.edges)
    assert problem.gfa and problem.setter_utilities == tuple(setter)
    assert problem.n == (1 if m == 1 else 2 * (m - 1) + 1 if m % 2 == 0 else 2 * m + 1)


@pytest.mark.parametrize("m", [33, 40])
def test_large_realizations_pair_with_a_rule(m):
    # 2r + 1 voters for r rounds of a round robin: 67 at m = 33, 79 at m = 40
    rng = random.Random(m)
    tournament = TournamentSpec.from_edges(
        m, [(x, y) if rng.random() < 0.5 else (y, x)
            for x in range(m) for y in range(x + 1, m)])
    setter = tuple(F(v) for v in rng.sample(range(1, m + 1), m))
    realized = mcgarvey_realize(tournament, setter)
    assert realized.n == 2 * (m - 1 + m % 2) + 1 > 63
    rule = VotingRule.simple_majority(realized.n)
    twin = CollectiveChoiceProblem(policies=realized.policies, voter_utilities=(setter,),
                                   setter_utilities=setter, majority_override=tournament,
                                   gfa=True)
    for x in range(m):
        assert (phi_iterates(realized, rule, x, m)
                == phi_iterates(twin, VotingRule.simple_majority(1), x, m))


def test_relabel_and_the_fixtures_build_from_integers():
    # neither makes a `Fraction` until a utility field is first read, and
    # each equals the problem the public constructor makes from its values
    rows = ((3, 2, 1, 4), (1, 4, 3, 2), (2, 1, 4, 3), (4, 3, 2, 1))
    *voters, setter = (tuple(map(F, row)) for row in rows)
    want = CollectiveChoiceProblem(policies=("w", "x", "y", "z"), voter_utilities=tuple(voters),
                                   setter_utilities=setter, gfa=True)
    blocked = blocked_default_problem()
    made = [majority_cycle_problem(), blocked, blocked_default_realized(),
            relabel(want, "abcd"), relabel(blocked, "abcd")]
    for problem in made:
        assert "voter_utilities" not in vars(problem) and "setter_utilities" not in vars(problem)
        assert problem.gfa
    cycle, _, realized, renamed, renamed_blocked = made
    assert cycle == want
    assert blocked == dataclasses.replace(want, majority_override=blocked_tournament())
    assert renamed == dataclasses.replace(want, policies=tuple("abcd"))
    assert renamed_blocked.majority_override == blocked_tournament()
    assert renamed_blocked == dataclasses.replace(blocked, policies=tuple("abcd"))
    assert realized.n == 7 and derive_tournament(realized) == blocked_tournament()
    assert realized.setter_utilities == setter
