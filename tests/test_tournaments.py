from __future__ import annotations

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
from agendalab.fixtures import blocked_tournament
from agendalab.tournaments import REALIZE_LIMIT

from references import ref_margin

F = Fraction


def test_blocked_tournament_realization_round_trip():
    tournament = blocked_tournament()
    problem = mcgarvey_realize(tournament, [F(4), F(3), F(2), F(1)])
    assert problem.n == 13                     # 2 * C(4,2) + 1
    assert problem.gfa
    assert derive_tournament(problem).edges == tournament.edges
    for winner, loser in tournament.edges:
        assert ref_margin(problem, winner, loser) in (1, 3)


def test_realized_relation_yields_same_engine_results():
    tournament = blocked_tournament()
    problem = mcgarvey_realize(tournament, [F(4), F(3), F(2), F(1)])
    rule = VotingRule.simple_majority(13)
    assert unimprovable_set(problem, rule) == {0, 1}      # w and x


def test_two_policy_tournament():
    tournament = TournamentSpec.from_edges(2, [(1, 0)])
    problem = mcgarvey_realize(tournament, [F(1), F(2)])
    assert problem.n == 3
    assert ref_margin(problem, 1, 0) in (1, 3)
    assert problem._majority[1, 0]


def test_transitive_tournament_keeps_condorcet_winner():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    problem = mcgarvey_realize(TournamentSpec.from_edges(4, edges),
                               [F(1), F(2), F(3), F(4)])
    for other in (1, 2, 3):
        assert problem._majority[0, other]


def test_size_guard():
    edges = [(i, j) for i in range(13) for j in range(i + 1, 13)]
    tournament = TournamentSpec.from_edges(13, edges)
    with pytest.raises(ValidationError, match="limit"):
        mcgarvey_realize(tournament, [F(k) for k in range(13)])


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_realize_derive_identity(size, rng):
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            edges.append((i, j) if rng.random() < 0.5 else (j, i))
    tournament = TournamentSpec.from_edges(size, edges)
    problem = mcgarvey_realize(tournament, [F(k + 1) for k in range(size)])
    assert derive_tournament(problem).edges == tournament.edges


@pytest.mark.parametrize("m", [9, REALIZE_LIMIT])
def test_large_realizations_pair_with_a_rule(m):
    # 2 * C(m, 2) + 1 voters: 73 at m = 9, 133 at m = 12
    rng = random.Random(m)
    tournament = TournamentSpec.from_edges(
        m, [(x, y) if rng.random() < 0.5 else (y, x)
            for x in range(m) for y in range(x + 1, m)])
    setter = tuple(F(v) for v in rng.sample(range(1, m + 1), m))
    realized = mcgarvey_realize(tournament, setter)
    assert realized.n == m * (m - 1) + 1 > 63
    rule = VotingRule.simple_majority(realized.n)
    twin = CollectiveChoiceProblem(policies=realized.policies, voter_utilities=(setter,),
                                   setter_utilities=setter, majority_override=tournament,
                                   gfa=True)
    for x in range(m):
        assert (phi_iterates(realized, rule, x, m)
                == phi_iterates(twin, VotingRule.simple_majority(1), x, m))
