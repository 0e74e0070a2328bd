from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from agendalab import (
    BudgetExceededError,
    CollectiveChoiceProblem,
    ValidationError,
    VotingRule,
    audit_dp_axioms,
    divide_dollar_problem,
    is_improvable,
    pork_barrel_problem,
    transfers_problem,
)
from agendalab.distributions import DivideDollarGrid

F = Fraction


def test_dollar_grid_count_and_sums():
    problem = divide_dollar_problem(3, 4)
    assert problem.num_policies == 35         # compositions of 4 into 4 parts
    for x in range(35):
        total = sum(row[x] for row in problem.voter_utilities)
        total += problem.setter_utilities[x]
        assert total == 1
    assert problem.setter_optima == {
        DivideDollarGrid(3, 4).problem.policies.index("(0,0,0,4)/4")}


def test_dollar_grid_indexing_round_trip():
    grid = DivideDollarGrid(n=3, m=5)
    for i, allocation in enumerate(grid.allocations):
        assert grid.index(allocation) == i


def test_dollar_grid_never_gfa():
    assert not divide_dollar_problem(3, 3).gfa


def test_pork_single_free_project():
    problem = pork_barrel_problem([(F(1), F(0))], m=1, n=3)
    # skip plus one corner allocation of the unit benefit per player
    assert problem.num_policies == 1 + 4
    skip = problem.policies.index("skip")
    rows = list(problem.voter_utilities) + [problem.setter_utilities]
    assert all(row[skip] == 0 for row in rows)
    for x in range(problem.num_policies):
        if x == skip:
            continue
        assert all(row[x] >= row[skip] for row in rows)
        assert any(row[x] > row[skip] for row in rows)


def test_pork_validation_and_budget():
    with pytest.raises(ValidationError, match="multiple"):
        pork_barrel_problem([(F(1, 3), F(0))], m=2, n=3)
    with pytest.raises(BudgetExceededError) as info:
        pork_barrel_problem([(F(3), F(3)), (F(3), F(3))], m=4, n=3, budget=100)
    assert info.value.required > 100


def test_pork_reads_exact_benefits_and_costs():
    with pytest.raises(ValidationError, match="float"):
        pork_barrel_problem([(0.5, 0.25)], m=4, n=3)
    assert (pork_barrel_problem([("1/2", "1/4")], m=4, n=3)
            == pork_barrel_problem([(F(1, 2), F(1, 4))], m=4, n=3))


def test_transfers_two_policy_base():
    base = CollectiveChoiceProblem(
        policies=("lean", "rich"),
        voter_utilities=((F(1, 2), F(1)),),
        setter_utilities=(F(1, 2), F(1)))
    problem = transfers_problem(base, m=2)
    # totals 1 and 2 scaled by m=2 give 2 and 4 units over 2 players
    assert problem.num_policies == 3 + 5
    for x in range(problem.num_policies):
        assert all(u >= 0 for u in (problem.voter_utilities[0][x],
                                    problem.setter_utilities[x]))


def test_transfers_dedupes_equal_totals():
    base = CollectiveChoiceProblem(
        policies=("a", "b"),
        voter_utilities=((F(1), F(0)),),
        setter_utilities=(F(0), F(1)))
    problem = transfers_problem(base, m=2)
    assert problem.num_policies == 3       # one shared total of 1


def test_transfers_validation():
    base = CollectiveChoiceProblem(
        policies=("a", "b"),
        voter_utilities=((F(1), F(-2)),),
        setter_utilities=(F(0), F(0)))
    with pytest.raises(ValidationError, match="negative"):
        transfers_problem(base, m=2)


def test_transfers_sum_each_column_as_python_ints():
    # three utilities of -(2**62 - 1)/2 fit an int64 array, whose own column
    # sum wraps to +(2**62 + 3): read as a total, that is no multiple of 1/1
    u = F(-(2**62 - 1), 2)
    base = CollectiveChoiceProblem(policies=("a",), voter_utilities=((u,), (u,)),
                                   setter_utilities=(u,))
    assert base._ints.array.dtype == np.int64
    assert base._ints.array.sum(axis=0).tolist() == [2**62 + 3]
    with pytest.raises(ValidationError, match="^policy 'a' has negative total utility "):
        transfers_problem(base, m=1)


def test_transfers_read_the_base_integers():
    # an integer-built base gives the transfers of the same base built by the
    # public constructor, and its `Fraction` utility views stay unmade
    for n, grid, m in ((1, 2, 1), (3, 2, 2), (3, 3, 3), (5, 2, 2)):
        base = divide_dollar_problem(n, grid)
        got = transfers_problem(base, m)
        assert "voter_utilities" not in vars(base) and "setter_utilities" not in vars(base)
        public = CollectiveChoiceProblem(policies=base.policies,
                                         voter_utilities=base.voter_utilities,
                                         setter_utilities=base.setter_utilities)
        want = transfers_problem(public, m)
        assert got == want and repr(got) == repr(want)
        assert got._ints.array.tolist() == want._ints.array.tolist()


# ---------------------------------------------------------------------------
# axiom audit


def test_audit_transferability_violation_example():
    problem = divide_dollar_problem(3, 2)
    audit = audit_dp_axioms(problem)
    half_half = problem.policies.index("(1,1,0,0)/2")
    hits = {(v.policy, v.player) for v in audit.transferability_violations}
    assert (half_half, 0) in hits       # no grid policy lifts everyone but voter 1
    assert not audit.passes


def test_audit_violations_thin_out_with_finer_grids():
    # raw violation counts grow with the policy count (pinned below); the
    # boundary effect vanishing shows up as a falling share of dirty policies
    raw, dirty_share = [], []
    for m in (2, 4, 8):
        problem = divide_dollar_problem(3, m)
        audit = audit_dp_axioms(problem)
        raw.append(len(audit.scarcity_violations)
                   + len(audit.transferability_violations))
        dirty_share.append(F(len(audit.dirty_policies()), problem.num_policies))
    assert raw == [16, 64, 256]
    assert dirty_share[0] > dirty_share[1] > dirty_share[2]


def test_audit_violations_hold_plain_ints():
    # the (policy, player) pairs are read from one list, not as numpy ints
    audit = audit_dp_axioms(divide_dollar_problem(3, 6))
    violations = audit.scarcity_violations + audit.transferability_violations
    assert len(violations) == 144
    assert {type(v.policy) for v in violations} | {type(v.player) for v in violations} == {int}
    assert {v.axiom for v in audit.scarcity_violations} <= {"scarcity"}
    assert {v.axiom for v in audit.transferability_violations} == {"transferability"}


def test_audit_single_policy_vacuous():
    lone = CollectiveChoiceProblem(
        policies=("all",), voter_utilities=((F(0),),),
        setter_utilities=(F(1),))
    audit = audit_dp_axioms(lone)
    assert audit.passes


def test_audit_clean_policies_partition():
    problem = divide_dollar_problem(3, 4)
    audit = audit_dp_axioms(problem)
    clean = audit.clean_policies(problem.num_policies)
    assert clean == frozenset(range(35)) - audit.dirty_policies()
    # cleanliness at m=4 means every positive share can fund a strict
    # improvement of all three other players: only the four corners qualify
    corners = {problem.policies.index(label) for label in
               ("(4,0,0,0)/4", "(0,4,0,0)/4", "(0,0,4,0)/4", "(0,0,0,4)/4")}
    assert clean == corners


def test_clean_nonoptimal_policies_improvable_under_veto_proof_quotas():
    # pointwise distribution-theorem echo: scarcity plus transferability at a
    # policy make it improvable under every quota that needs no single voter
    for m in (4, 6):
        problem = divide_dollar_problem(3, m)
        audit = audit_dp_axioms(problem)
        clean = audit.clean_policies(problem.num_policies)
        for q in (1, 2):
            rule = VotingRule.quota_rule(3, q)
            assert rule.veto_proof
            for x in clean - problem.setter_optima:
                assert is_improvable(problem, rule, x) is not None
