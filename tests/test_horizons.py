from __future__ import annotations

import dataclasses
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    BoxSpace,
    CollectiveChoiceProblem,
    InternalInvariantError,
    TournamentSpec,
    ValidationError,
    VotingRule,
    build_grid,
    gen_spatial,
    horizon_classify,
    horizon_payoffs,
    horizons,
    mcgarvey_realize,
    phi_iterates,
    reachability,
    stable_set,
    unimprovable_set,
)
from agendalab.factories import gen_random_gfa, gen_random_with_ties
from agendalab.fixtures import blocked_default_problem
from agendalab.horizons import _certify_stable

from references import enumerate_stable_subsets, ref_majority


def test_reachability_cycle_examples(cycle):
    z = cycle.policy_index("z")
    two = reachability(cycle, z, "two_reachable")
    assert cycle.policies[two.best_for_setter] == "x"
    assert [cycle.policies[i] for i in two.witness_chain] == ["z", "y", "x"]
    full = reachability(cycle, z, "reachable")
    assert cycle.policies[full.best_for_setter] == "w"
    assert [cycle.policies[i] for i in full.witness_chain] == ["z", "y", "x", "w"]
    zero = reachability(cycle, z, "k_reachable", k=0)
    assert zero.members == {z}


def _ref_bfs_parents(problem, x0):
    parent = {x0: None}
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        for y in range(problem.num_policies):
            if y not in parent and ref_majority(problem, y, x):
                parent[y] = x
                queue.append(y)
    return parent


def ref_reachability(problem, x0, k):
    """(mode, members, best, chain) as the layered closure computed them:
    k weak-step layers (stay put or a strict majority win), or every BFS
    node when k is None, with the chain from a full breadth-first search."""
    parent = _ref_bfs_parents(problem, x0)
    if k is None:
        mode, members = "reachable", frozenset(parent)
    else:
        mode = f"k_reachable({k})" if k != 2 else "two_reachable"
        layers = {x0: 0}
        frontier = {x0}
        for depth in range(1, k + 1):
            frontier = {y for x in frontier for y in range(problem.num_policies)
                        if x == y or ref_majority(problem, y, x)}
            for y in frontier:
                layers.setdefault(y, depth)
        members = frozenset(layers)
    best = min(members, key=lambda y: (-problem.setter_utilities[y], y))
    chain = [best]
    while chain[-1] != x0:
        chain.append(parent[chain[-1]])
    return mode, members, best, tuple(reversed(chain))


def _random_override(seed):
    rng = random.Random(seed)
    base = gen_random_gfa(rng.randint(2, 8), rng.choice((1, 3, 5)), seed)
    m = base.num_policies
    edges = [(x, y) if rng.random() < 0.5 else (y, x)
             for x in range(m) for y in range(x + 1, m)]
    return CollectiveChoiceProblem(policies=base.policies,
                                   voter_utilities=base.voter_utilities,
                                   setter_utilities=base.setter_utilities,
                                   majority_override=TournamentSpec.from_edges(m, edges))


@pytest.mark.parametrize("kind", ["gfa", "tied", "override"])
@pytest.mark.parametrize("seed", range(12))
def test_k_reachable_matches_layered_reference(kind, seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 8), rng.choice((1, 3, 5))
    problem = {"gfa": lambda: gen_random_gfa(m, n, seed),
               "tied": lambda: gen_random_with_ties(m, n, seed, levels=rng.randint(2, 4)),
               "override": lambda: _random_override(seed)}[kind]()
    for x0 in range(problem.num_policies):
        for k in (0, 1, 2, 3, None):
            report = (reachability(problem, x0, "reachable") if k is None
                      else reachability(problem, x0, "k_reachable", k=k))
            assert ((report.mode, report.members, report.best_for_setter,
                     report.witness_chain) == ref_reachability(problem, x0, k))
        assert reachability(problem, x0, "two_reachable") == reachability(
            problem, x0, "k_reachable", k=2)


def test_reachability_credible_orbit(cycle):
    z = cycle.policy_index("z")
    credible = reachability(cycle, z, "credible")
    assert [cycle.policies[i] for i in credible.witness_chain] == ["z", "y", "x", "w"]


def test_reachability_validation(cycle):
    with pytest.raises(ValidationError):
        reachability(cycle, 0, "k_reachable", k=-1)
    with pytest.raises(ValidationError, match="^k_reachable needs k >= 0$"):
        reachability(cycle, 0, "k_reachable")
    # a step count is a whole number: 1.5, True and "2" are refused, not read
    for k in (1.5, True, "2"):
        with pytest.raises(ValidationError, match=f"^refusing step count {k!r}: "):
            reachability(cycle, 0, "k_reachable", k)
    with pytest.raises(ValidationError):
        reachability(cycle, 0, "sideways")
    # only k_reachable reads k
    for mode in ("reachable", "two_reachable", "credible"):
        with pytest.raises(ValidationError, match="k is read only by mode 'k_reachable'"):
            reachability(cycle, 0, mode, k=5)


def test_reachability_nesting(small_corpus):
    for problem in small_corpus[:20]:
        for x0 in range(problem.num_policies):
            full = reachability(problem, x0, "reachable").members
            two = reachability(problem, x0, "two_reachable").members
            credible = reachability(problem, x0, "credible").members
            assert two <= full and credible <= full
            best = {mode: reachability(problem, x0, mode).best_for_setter
                    for mode in ("reachable", "two_reachable", "credible")}
            u = problem.setter_utilities
            assert u[best["reachable"]] >= u[best["two_reachable"]]
            assert u[best["reachable"]] >= u[best["credible"]]


def test_credible_and_two_reachable_are_not_nested(cycle):
    # from z the setter walks z -> y -> x -> w without commitment, but no
    # length-two chain reaches w
    z = cycle.policy_index("z")
    names = {mode: {cycle.policies[i] for i in reachability(cycle, z, mode).members}
             for mode in ("two_reachable", "credible")}
    assert names == {"two_reachable": {"x", "y", "z"}, "credible": {"w", "x", "y", "z"}}


def test_credible_chain_walks_the_orbit_until_it_repeats(small_corpus):
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        for x0 in range(problem.num_policies):
            seen = []
            for x in phi_iterates(problem, rule, x0, problem.num_policies):
                if seen and x == seen[-1]:
                    break
                seen.append(x)
            best = min(seen, key=lambda y: (-problem.setter_utilities[y], y))
            report = reachability(problem, x0, "credible")
            assert report.members == frozenset(seen)
            assert report.best_for_setter == best
            assert report.witness_chain == tuple(seen[:seen.index(best) + 1])


def test_chain_steps_are_majority_wins(small_corpus):
    for problem in small_corpus[:10]:
        for x0 in range(problem.num_policies):
            chain = reachability(problem, x0, "reachable").witness_chain
            for a, b in zip(chain, chain[1:]):
                assert ref_majority(problem, b, a)


# ---------------------------------------------------------------------------
# stable set


def test_stable_set_cycle(cycle):
    report = stable_set(cycle)
    names = {cycle.policies[i] for i in report.members}
    assert names == {"w", "y"}
    psi = {cycle.policies[k]: cycle.policies[v] for k, v in report.psi_table.items()}
    assert psi == {"w": "w", "x": "w", "y": "y", "z": "y"}
    assert report.uniqueness_certified


def assert_stable(problem, members):
    """Internal and external stability, by plain loops over the policies."""
    setter = problem.setter_utilities

    def dominates(y, x):
        return setter[y] > setter[x] and ref_majority(problem, y, x)

    for x in members:
        assert not any(dominates(y, x) for y in members)
    for x in range(problem.num_policies):
        assert x in members or any(dominates(y, x) for y in members)


def test_stable_set_laws(small_corpus):
    for problem in small_corpus[:30]:
        report = stable_set(problem)
        rule = VotingRule.simple_majority(problem.n)
        members = report.members
        assert unimprovable_set(problem, rule) <= members
        for x in range(problem.num_policies):
            psi = report.psi_table[x]
            assert psi in members
            assert (psi == x) == (x in members)
        assert_stable(problem, members)


@pytest.mark.parametrize("build", [
    lambda: gen_random_gfa(16, 5, seed=4),
    lambda: build_grid(BoxSpace.unit(3), Fraction(1, 4), seed=1,
                       profile=gen_spatial(3, 5, seed=1)).problem,
], ids=["16-policies", "343-node-grid"])
def test_stable_set_is_certified_at_any_size(build):
    problem = build()
    assert problem.num_policies in (16, 343) and problem.gfa
    report = stable_set(problem)
    assert report.uniqueness_certified
    assert_stable(problem, report.members)


def test_stable_set_matches_enumeration():
    for seed in range(30):
        problem = gen_random_gfa(5, 3, seed=seed)
        report = stable_set(problem)
        assert report.uniqueness_certified
        assert enumerate_stable_subsets(problem) == [report.members]


@st.composite
def stable_set_problems(draw):
    """gfa problems up to ten policies: random rank profiles, the
    override fixture, and McGarvey realizations of random tournaments."""
    kind = draw(st.sampled_from(("random", "override", "realized")))
    if kind == "override":
        return blocked_default_problem()
    m = draw(st.integers(2, 10))
    if kind == "random":
        return gen_random_gfa(m, draw(st.sampled_from((1, 3, 5, 7))),
                              seed=draw(st.integers(0, 2**31)))
    edges = [(x, y) if draw(st.booleans()) else (y, x)
             for x in range(m) for y in range(x + 1, m)]
    setter = draw(st.permutations(range(m)))
    return mcgarvey_realize(TournamentSpec.from_edges(m, edges),
                            [Fraction(u) for u in setter])


@settings(max_examples=80, deadline=None)
@given(stable_set_problems(), st.sampled_from((1, 5, 2**16)), st.data())
def test_stable_set_certificate_matches_enumeration(problem, chunk, data):
    found = enumerate_stable_subsets(problem)
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        report = stable_set(problem)
    assert found == [report.members] and report.uniqueness_certified
    # the certificate accepts a subset exactly when the enumeration lists it
    subset = data.draw(st.frozensets(st.integers(0, problem.num_policies - 1)))
    try:
        _certify_stable(problem, subset)
        accepted = True
    except InternalInvariantError:
        accepted = False
    assert accepted == (subset in found)


def test_certificate_refuses_a_set_that_is_not_stable(cycle):
    w, x, y = (cycle.policy_index(name) for name in "wxy")
    _certify_stable(cycle, [w, y])
    with pytest.raises(InternalInvariantError,
                       match=rf"not internally stable: {w} dominates {x}"):
        _certify_stable(cycle, [w, x, y])
    with pytest.raises(InternalInvariantError, match="not externally stable"):
        _certify_stable(cycle, [w])


def test_stable_set_requires_gfa():
    # the set is unique without gfa too: psi's tie-break and the horizon
    # identities are what need it
    tied = gen_random_with_ties(4, 3, seed=0)
    assert len(enumerate_stable_subsets(tied)) == 1
    with pytest.raises(ValidationError, match="assume gfa"):
        stable_set(tied)


def test_stable_set_is_built_once_per_problem_with_a_fresh_psi_table(monkeypatch):
    built = []
    build = horizons._stable_set
    monkeypatch.setattr(horizons, "_stable_set",
                        lambda problem: built.append(problem) or build(problem))
    problem = gen_random_gfa(6, 3, seed=4)
    stable_set(problem).psi_table.clear()     # a caller's copy, not the kept one
    again = stable_set(problem)
    horizon_classify(problem)
    horizon_payoffs(problem, 0, [1, 2])
    assert built == [problem]
    assert len(again.psi_table) == 6
    assert again == stable_set(dataclasses.replace(problem))   # a fresh memo
    assert len(built) == 2


# ---------------------------------------------------------------------------
# horizon comparison


def test_horizon_payoffs_cycle(cycle):
    y = cycle.policy_index("y")
    rows = horizon_payoffs(cycle, y, [1, 2, 3])
    assert rows.u_table[1] == Fraction(3)      # one round reaches x
    assert rows.u_table[2] == Fraction(4)      # two rounds reach w
    assert rows.u_inf == Fraction(2)           # no deadline stalls at y
    assert rows.u_table[2] > rows.u_table[1] > rows.u_inf

    w = cycle.policy_index("w")
    rows_w = horizon_payoffs(cycle, w, [1, 4])
    assert rows_w.u_table[1] == rows_w.u_table[4] == rows_w.u_inf == Fraction(4)

    z = cycle.policy_index("z")
    rows_z = horizon_payoffs(cycle, z, [1])
    assert rows_z.u_table[1] == rows_z.u_inf == Fraction(2)


def test_horizon_payoffs_refuse_inexact_horizons(cycle):
    # int(t) made [1.9, True] one horizon of one round; each is refused now
    y = cycle.policy_index("y")
    for bad in (1.9, True, 2.0, "3"):
        with pytest.raises(ValidationError, match="a horizon is a whole number"):
            horizon_payoffs(cycle, y, [1, bad])
    assert set(horizon_payoffs(cycle, y, [2, 1, 2]).u_table) == {1, 2}


def test_horizon_payoffs_read_at_most_m_iterates(cycle):
    # phi absorbs within m - 1 steps, so an astronomically long horizon
    # is read at t = m and builds no iterate list of its length
    y = cycle.policy_index("y")
    far = horizon_payoffs(cycle, y, [2**62]).u_table[2**62]
    assert far == horizon_payoffs(cycle, y, [3]).u_table[3] == Fraction(4)


def test_horizon_classify_cycle(cycle):
    report = horizon_classify(cycle)
    assert report.case == "a"
    assert cycle.policies[report.witness] == "y"
    assert {cycle.policies[i] for i in report.r_set} == {"w", "x"}
    w = report.witness
    assert report.u_table[(w, 2)] > report.u_table[(w, 1)] > report.u_inf[w]


def test_horizon_classify_case_b():
    # two policies, the majority favors the setter's best: every default
    # reaches the optimum in one step, so the horizon never matters
    problem = CollectiveChoiceProblem(
        policies=("a", "b"),
        voter_utilities=(
            (Fraction(2), Fraction(1)),
            (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(2)),
        ),
        setter_utilities=(Fraction(2), Fraction(1)),
        gfa=True)
    report = horizon_classify(problem)
    assert report.case == "b" and report.witness is None
    assert report.r_set == frozenset({0, 1})


def test_r_set_dual_computation_agrees(small_corpus):
    for problem in small_corpus:
        report = horizon_classify(problem)        # raises internally on mismatch
        rule = VotingRule.simple_majority(problem.n)
        stuck = unimprovable_set(problem, rule)
        expected = frozenset(
            x for x in range(problem.num_policies)
            if phi_iterates(problem, rule, x, 1)[1] in stuck)
        assert report.r_set == expected


def test_theorem_horizon_inequalities(small_corpus):
    for problem in small_corpus[:25]:
        rule = VotingRule.simple_majority(problem.n)
        psi = stable_set(problem).psi_table
        for x0 in range(problem.num_policies):
            payoffs = [problem.setter_utilities[i]
                       for i in phi_iterates(problem, rule, x0, 10)]
            for a, b in zip(payoffs[1:], payoffs[2:]):
                assert b >= a
            assert payoffs[1] >= problem.setter_utilities[psi[x0]]


def test_manipulable_instances_reach_optimum_credibly(small_corpus):
    # no-commitment restatement: when everything below the optimum is
    # improvable, the improvement orbit tops out from every default
    from agendalab import is_manipulable
    for problem in small_corpus:
        rule = VotingRule.simple_majority(problem.n)
        if not is_manipulable(problem, rule).manipulable:
            continue
        for x0 in range(problem.num_policies):
            best = reachability(problem, x0, "credible").best_for_setter
            assert problem.setter_utilities[best] == problem.setter_max
