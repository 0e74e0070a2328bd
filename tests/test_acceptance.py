"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; budgets are wall-clock upper bounds asserted alongside the exact
checks.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from agendalab import (
    Allocation,
    DivideDollarGrid,
    GameSpec,
    RichnessError,
    SpatialDegeneracyError,
    VotingRule,
    audit_dp_axioms,
    dtd_beta_power,
    dtd_profile,
    equilibrium_outcome,
    horizon_classify,
    is_improvable,
    is_manipulable,
    phi_iterates,
    phi_or,
    play_out,
    protocol_equivalence,
    solve_spe,
    stable_set,
    unimprovable_set,
    uniform_margin,
    verify_profile,
)
from agendalab.factories import gen_random_gfa
from agendalab.fixtures import (
    adjournment_trap_protocol,
    blocked_default_problem,
    blocked_default_realized,
    majority_cycle_problem,
)
from agendalab.spatial import check_noncoplanarity, gen_spatial, spatial_witness
from agendalab.suites import thm2_trend_suite

from references import enumerate_stable_subsets

F = Fraction


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.started = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def majority(problem):
    return VotingRule.simple_majority(problem.n)


def test_criterion_01_cycle_fixture_outcomes():
    budget = Budget(1.0)
    cycle = majority_cycle_problem()
    rule = majority(cycle)
    z = cycle.policy_index("z")
    expected = {1: "y", 2: "x", 3: "w", 4: "w", 5: "w", 6: "w"}
    ok = True
    for rounds, want in expected.items():
        engine = cycle.policies[equilibrium_outcome(cycle, rule, z, rounds).outcome]
        oracle = cycle.policies[solve_spe(GameSpec(
            problem=cycle, rule=rule, horizon=rounds, initial_default=z)).outcome]
        ok = ok and engine == want == oracle
    ok = ok and budget.elapsed < budget.limit
    report(1, ok, f"cycle fixture outcomes y/x/w in {budget.elapsed:.2f}s")


def test_criterion_02_blocked_fixture_outcomes():
    budget = Budget(1.0)
    blocked = blocked_default_problem()
    realized = blocked_default_realized()
    rule = majority(blocked)
    realized_rule = majority(realized)
    z = blocked.policy_index("z")
    ok = True
    for rounds in range(1, 7):
        via_engine = blocked.policies[
            equilibrium_outcome(blocked, rule, z, rounds).outcome]
        via_oracle = realized.policies[solve_spe(GameSpec(
            problem=realized, rule=realized_rule, horizon=rounds,
            initial_default=z)).outcome]
        ok = ok and via_engine == "x" == via_oracle
    ok = ok and budget.elapsed < budget.limit
    report(2, ok, f"blocked fixture stalls at x for T=1..6 in {budget.elapsed:.2f}s")


def test_criterion_03_oracle_equivalence_corpus(acceptance_corpus):
    budget = Budget(120.0)
    checks = 0
    ok = True
    for problem in acceptance_corpus:
        rule = majority(problem)
        for x0 in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x0, 4)
            for rounds in range(1, 5):
                outcome = solve_spe(GameSpec(
                    problem=problem, rule=rule, horizon=rounds,
                    initial_default=x0)).outcome
                ok = ok and outcome == iterates[rounds]
                checks += 1
    ok = ok and budget.elapsed < budget.limit
    report(3, ok, f"{checks} oracle-vs-iterate checks on 200 instances "
                  f"in {budget.elapsed:.1f}s")


def test_criterion_04_manipulability_biconditional(acceptance_corpus):
    budget = Budget(120.0)
    ok = True
    stuck_instances = 0
    for problem in acceptance_corpus:
        rule = majority(problem)
        manip = is_manipulable(problem, rule).manipulable
        horizon = max(problem.num_policies - 1, 1)
        finals = [phi_iterates(problem, rule, x0, horizon)[-1]
                  for x0 in range(problem.num_policies)]
        dictatorial = all(f in problem.setter_optima for f in finals)
        ok = ok and (manip == dictatorial)
        if not manip:
            blockers = sorted(unimprovable_set(problem, rule)
                              - problem.setter_optima)
            ok = ok and bool(blockers)
            x0 = blockers[0]
            ok = ok and all(step == x0
                            for step in phi_iterates(problem, rule, x0, horizon))
            stuck_instances += 1
    ok = ok and budget.elapsed < budget.limit
    report(4, ok, f"biconditional exact on 200 instances "
                  f"({stuck_instances} non-manipulable, each with a stuck default) "
                  f"in {budget.elapsed:.1f}s")


def test_criterion_05_protocol_equivalence(acceptance_corpus):
    budget = Budget(120.0)
    protocols = ["amendment", "successive", "open_rule"]
    ok = True
    for problem in acceptance_corpus:
        rule = majority(problem)
        for x0 in range(problem.num_policies):
            for rounds in (1, 2, 4):
                rep = protocol_equivalence(problem, rule, rounds, x0, protocols)
                ok = ok and rep.all_agree
    cycle = majority_cycle_problem()
    rule = majority(cycle)
    z, y = cycle.policy_index("z"), cycle.policy_index("y")
    refused = False
    try:
        protocol_equivalence(cycle, rule, 3, z, [adjournment_trap_protocol(3)])
    except RichnessError as exc:
        refused = exc.witness is not None
    ok = ok and refused
    for rounds in range(1, 5):
        rep = solve_spe(GameSpec(problem=cycle, rule=rule, horizon=rounds,
                                 initial_default=z,
                                 protocol=adjournment_trap_protocol(rounds)))
        ok = ok and rep.outcome == y and rep.pivotal_trace[-1].adjourn
    ok = ok and budget.elapsed < budget.limit
    report(5, ok, f"three protocols agree on the corpus; trap refused and "
                  f"adjourns on y, in {budget.elapsed:.1f}s")


def test_criterion_06_stable_sets():
    budget = Budget(60.0)
    cycle = majority_cycle_problem()
    rep = stable_set(cycle)
    names = {cycle.policies[i] for i in rep.members}
    psi = {cycle.policies[k]: cycle.policies[v] for k, v in rep.psi_table.items()}
    ok = names == {"w", "y"}
    ok = ok and psi == {"w": "w", "x": "w", "y": "y", "z": "y"}
    rng = random.Random(606)
    for _ in range(100):
        problem = gen_random_gfa(rng.randrange(2, 9), 3, seed=rng.randrange(2**31))
        greedy = stable_set(problem)
        ok = ok and greedy.uniqueness_certified
        ok = ok and enumerate_stable_subsets(problem) == [greedy.members]
    ok = ok and budget.elapsed < budget.limit
    report(6, ok, f"stable set + infinite-horizon outcomes exact; greedy equals "
                  f"enumeration on 100 instances in {budget.elapsed:.1f}s")


def test_criterion_07_horizon_theorem(acceptance_corpus):
    budget = Budget(120.0)
    ok = True
    for problem in acceptance_corpus:
        rule = majority(problem)
        rep = horizon_classify(problem)       # dual R computation checked inside
        psi = stable_set(problem).psi_table
        for x0 in range(problem.num_policies):
            payoffs = [problem.setter_utilities[i]
                       for i in phi_iterates(problem, rule, x0, 10)]
            ok = ok and all(b >= a for a, b in zip(payoffs[1:], payoffs[2:]))
            ok = ok and payoffs[1] >= problem.setter_utilities[psi[x0]]
        ok = ok and rep.case in ("a", "b")
        if rep.case == "a":
            w = rep.witness
            ok = ok and (rep.u_table[(w, 2)] > rep.u_table[(w, 1)] > rep.u_inf[w])
    cycle_rep = horizon_classify(majority_cycle_problem())
    ok = ok and cycle_rep.case == "a"
    ok = ok and majority_cycle_problem().policies[cycle_rep.witness] == "y"
    ok = ok and budget.elapsed < budget.limit
    report(7, ok, f"horizon inequalities to T=10 plus trichotomy on 200 "
                  f"instances in {budget.elapsed:.1f}s")


def test_criterion_08_noncoplanarity_monte_carlo():
    budget = Budget(60.0)
    failures = 0
    for k in range(10_000):
        profile = gen_spatial(3, 5, seed=800_000 + k)
        if not check_noncoplanarity(profile).passes:
            failures += 1
    from agendalab.spatial import SpatialProfile
    base = gen_spatial(3, 3, seed=800)
    pts = list(base.ideal_points)
    pts[3] = tuple(pts[0][i] + pts[1][i] - pts[2][i] for i in range(3))
    planar = check_noncoplanarity(
        SpatialProfile(dim=3, ideal_points=tuple(pts), box=base.box))
    ok = failures == 0 and not planar.passes and planar.violating_tuple is not None
    ok = ok and budget.elapsed < budget.limit
    report(8, ok, f"10000 seeded profiles, {failures} coplanarity failures; "
                  f"constructed coplanar profile reported, in {budget.elapsed:.1f}s")


def test_criterion_09_witness_construction():
    budget = Budget(120.0)
    failures = 0
    made = attempt = 0
    points_checked = 0
    while made < 20:
        d = (3, 4)[made % 2]
        profile = gen_spatial(d, 5, seed=900_000 + attempt)
        attempt += 1
        if not check_noncoplanarity(profile).passes:
            continue
        made += 1
        rng = random.Random(9000 + made)
        for _ in range(100):
            x = tuple(F(rng.randrange(0, 2**20 + 1), 2**20) for _ in range(d))
            if x == profile.setter_ideal:
                continue
            points_checked += 1
            try:
                trace = spatial_witness(profile, x)
            except SpatialDegeneracyError:
                failures += 1
                continue
            n = profile.n_voters
            good = (profile.utility(n, trace.witness) > profile.utility(n, x)
                    and 2 * len(trace.majority_coalition) >= n + 1
                    and all(profile.utility(j, trace.witness) > profile.utility(j, x)
                            for j in trace.majority_coalition))
            if not good:
                failures += 1
    ok = failures == 0 and budget.elapsed < budget.limit
    report(9, ok, f"{points_checked} witnesses across 20 profiles, "
                  f"{failures} failures, in {budget.elapsed:.1f}s")


def test_criterion_10_grid_trend():
    budget = Budget(300.0)
    rows, summary = thm2_trend_suite(seed=3, epsilon="1/10", delta="1/20")
    ok = summary["failed"] == 0
    by_check = {}
    for row in rows:
        by_check.setdefault(row["check"], []).append(row)
    ok = ok and by_check["grid-manipulable"][0]["pass"]
    ok = ok and by_check["margin-positive"][0]["pass"]
    ok = ok and len(by_check["trajectory"]) >= 12
    ok = ok and by_check["round-bound"][0]["pass"]
    ok = ok and budget.elapsed < budget.limit
    bound_row = by_check["round-bound"][0]
    report(10, ok, f"manipulable 0.1-grid: monotone trajectories absorb within "
                   f"{bound_row['value']} round(s), margin bound {bound_row['bound']}, "
                   f"in {budget.elapsed:.1f}s")


def test_criterion_11_divide_the_dollar():
    budget = Budget(180.0)
    ok = True
    for m in (6, 8):
        grid = DivideDollarGrid(n=3, m=m)
        dictator = (0, 0, 0, m)
        ok = ok and all(dtd_beta_power(a, 3).units == dictator
                        for a in grid.allocations)
    grid = DivideDollarGrid(n=3, m=6)
    rule = VotingRule.simple_majority(3)
    interior = grid.index(Allocation(units=(3, 2, 1, 0), denom=6))

    nc = dtd_profile(3, 6, 3, "non_capricious")
    game3 = GameSpec(problem=grid.problem, rule=rule, horizon=3,
                     initial_default=interior)
    nc_report = verify_profile(game3, nc)
    ok = ok and nc_report.profile_valid
    ok = ok and grid.allocation(play_out(game3, nc)).units == (0, 0, 0, 6)

    strictly_interior = grid.index(Allocation(units=(3, 2, 1, 0), denom=6))
    for rounds in (4, 5):
        cap = dtd_profile(3, 6, rounds, "capricious")
        game = GameSpec(problem=grid.problem, rule=rule, horizon=rounds,
                        initial_default=strictly_interior)
        cap_report = verify_profile(game, cap)
        outcome = grid.allocation(play_out(game, cap))
        want = dtd_beta_power(grid.allocation(strictly_interior), 2)
        ok = ok and cap_report.profile_valid
        ok = ok and outcome.units == want.units and outcome.units != (0, 0, 0, 6)
    ok = ok and budget.elapsed < budget.limit
    report(11, ok, f"beta^3 reaches the dictator on every allocation (m=6,8); "
                   f"both profiles verify with zero deviations, "
                   f"in {budget.elapsed:.1f}s")


def test_criterion_12_distribution_theorem_echo():
    budget = Budget(300.0)
    m = 4
    grid = DivideDollarGrid(n=3, m=m)
    problem = grid.problem
    rule = VotingRule.quota_rule(3, 2)
    audit = audit_dp_axioms(problem)
    clean = audit.clean_policies(problem.num_policies)
    floor_u = 1 - F(3, m)
    share_bar = F(2, m)
    ok = rule.veto_proof

    # quantifiers run over the audit-clean region: the distribution axioms
    # fail near coarse-grid boundaries by construction, and the theorem
    # machinery presupposes them (dirty counterexamples pinned elsewhere)
    for x in sorted(clean):
        if x in problem.setter_optima:
            continue
        if any(F(grid.allocation(x).units[i], m) >= share_bar for i in range(3)):
            ok = ok and is_improvable(problem, rule, x) is not None

    stuck = unimprovable_set(problem, rule)
    ok = ok and all(problem.setter_utilities[x] >= floor_u for x in stuck & clean)

    # the boundary artifact exists and is confined to the dirty region
    artifact = [x for x in stuck - clean if problem.setter_utilities[x] < floor_u]
    ok = ok and len(artifact) > 0

    correspondence = [phi_or(problem, rule, x) for x in range(problem.num_policies)]
    worst = None
    for x0 in sorted(clean):
        layer = {x0}
        for _ in range(3):
            layer = {y for x in layer for y in correspondence[x]}
        low = min(problem.setter_utilities[y] for y in layer)
        worst = low if worst is None else min(worst, low)
    ok = ok and worst is not None and worst >= floor_u
    ok = ok and budget.elapsed < budget.limit
    report(12, ok, f"audited-clean improvability, unimprovable floor, and "
                   f"three-step floor {worst} >= {floor_u} hold exactly "
                   f"(boundary artifacts: {len(artifact)} dirty policies), "
                   f"in {budget.elapsed:.1f}s")
