"""The four benchmark workloads: seeded inputs, one task per input, checks.

Each workload has three functions:

- `generate(rng, tracer, size, index)` draws the inputs of task `index`
  from the run's seeded generator.  Problem construction happens here,
  in set-up, under `problems.construct` spans.
- `run(tracer, inputs)` is the timed task.  Every call into `agendalab`
  goes through `tracer.call` with a `<layer>.<function>` name, so each
  span maps to one library module.  Composite helpers such as
  `protocol_equivalence` are not used; their parts are called directly.
- `check(tracer, inputs, outputs)` verifies the outputs by a second,
  independent route and returns the material the results digest hashes.
  A disagreement raises `CheckFailed`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Optional

import numpy as np

from agendalab import (
    BoxSpace,
    CollectiveChoiceProblem,
    DivideDollarGrid,
    GameSpec,
    SpatialDegeneracyError,
    SpatialProfile,
    TournamentSpec,
    VotingRule,
    audit_dp_axioms,
    build_grid,
    check_noncoplanarity,
    check_richness,
    derive_tournament,
    gen_random_gfa,
    gen_random_with_ties,
    gen_spatial,
    horizon_classify,
    is_manipulable,
    mcgarvey_realize,
    nc_outcome_bounds,
    phi_iterates,
    phi_or,
    reachability,
    simple_equilibrium_profile,
    solve_spe,
    spatial_witness,
    stable_set,
    uniform_margin,
    unimprovable_set,
    verify_profile,
)

PRESET_PROTOCOLS = ("amendment", "successive", "open_rule")
REACH_MODES = (("reachable", None), ("two_reachable", None),
               ("k_reachable", 3), ("credible", None))
# thm2_trend's offset ideal box: every ideal point lies above the unit
# policy cube, which keeps the discretized problem manipulable
IDEAL_BOX = tuple((Fraction(9, 8), Fraction(2)) for _ in range(3))
# the library's int64 criterion for its scaled-integer rows
INT64_SAFE = 2**62


class CheckFailed(Exception):
    """Two routes to the same answer disagreed."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def fits_int64(problem: CollectiveChoiceProblem) -> bool:
    """Whether the problem's utilities fit int64 on one common integer grid."""
    values = [u for row in problem.voter_utilities for u in row]
    values += problem.setter_utilities
    scale = lcm(*(v.denominator for v in values))
    return max(abs(v.numerator) * (scale // v.denominator) for v in values) < INT64_SAFE


def _labels(m: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(m))


def _shuffled_ranks(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    values = list(range(1, m + 1))
    rng.shuffle(values)
    return tuple(Fraction(v) for v in values)


def _rank_matrix(rows) -> np.ndarray:
    """Per row, each entry's position in the row's ascending order."""
    out = np.empty((len(rows), len(rows[0])), dtype=np.int64)
    for i, row in enumerate(rows):
        order = sorted(range(len(row)), key=row.__getitem__)
        out[i, order] = np.arange(len(row))
    return out


def _support(voter_ranks: np.ndarray) -> np.ndarray:
    """support[y, x]: number of voters strictly preferring y to x."""
    return (voter_ranks[:, :, None] > voter_ranks[:, None, :]).sum(axis=0)


def _closure(beats: np.ndarray, x0: int) -> set[int]:
    seen, frontier = {x0}, [x0]
    while frontier:
        x = frontier.pop()
        for y in np.flatnonzero(beats[:, x]).tolist():
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _check_chain(chain, start: int, end: int, beats, what: str) -> None:
    expect(chain[0] == start and chain[-1] == end, f"{what}: chain endpoints")
    expect(all(a == b or beats[b, a] for a, b in zip(chain, chain[1:])),
           f"{what}: chain step is not a majority win")


class Relabel:
    """The run seed's renaming of policies and voters.

    Every workload draws its base instances from fixed seeds and lets the
    run's seed rename them.  Different seeds therefore give different
    inputs that cost the same work, so run-to-run spread measures the
    program and the host rather than the luck of the draw.
    """

    def __init__(self, rng: random.Random, m: int, n: int):
        self.order = rng.sample(range(m), m)        # new policy j is old order[j]
        self.where = {old: new for new, old in enumerate(self.order)}
        self.voters = rng.sample(range(n), n)       # new voter i is old voters[i]
        self.voter_where = {old: new for new, old in enumerate(self.voters)}

    def row(self, row) -> tuple:
        return tuple(row[p] for p in self.order)

    def policy(self, x: int) -> int:
        return self.where[x]

    def tournament(self, tournament: TournamentSpec) -> TournamentSpec:
        return TournamentSpec.from_edges(
            tournament.size, [(self.where[w], self.where[l]) for w, l in tournament.edges])

    def problem(self, tracer, problem):
        return tracer.call(
            "problems.construct", CollectiveChoiceProblem,
            policies=_labels(problem.num_policies),
            voter_utilities=tuple(self.row(problem.voter_utilities[i]) for i in self.voters),
            setter_utilities=self.row(problem.setter_utilities), gfa=problem.gfa)


# ---------------------------------------------------------------------------
# corpus: many small problems, one task per instance


@dataclass(frozen=True)
class CorpusInput:
    kind: str                       # majority | explicit | realized | ties
    problem: CollectiveChoiceProblem   # the override twin for "realized"
    rule: VotingRule
    x0: int
    rounds: int
    tournament: Optional[TournamentSpec] = None


CORPUS_KINDS = ("majority", "explicit", "realized", "ties")


def corpus_generate(rng, tracer, size, index) -> CorpusInput:
    base = random.Random(f"corpus-base:{index}")
    kind = CORPUS_KINDS[index % len(CORPUS_KINDS)]
    if kind == "ties":
        m = base.randrange(3, size["ties_max_m"] + 1)
        problem = gen_random_with_ties(m, 3, base.randrange(2**31))
        return CorpusInput(kind, Relabel(rng, m, 3).problem(tracer, problem),
                           VotingRule.simple_majority(3), x0=0,
                           rounds=base.randrange(1, 4))
    if kind == "realized":
        low, high = size["realized_m"]
        m = base.randrange(low, high + 1)
        edges = [(x, y) if base.random() < 0.5 else (y, x)
                 for x, y in combinations(range(m), 2)]
        names = Relabel(rng, m, 1)
        tournament = names.tournament(TournamentSpec.from_edges(m, edges))
        setter = names.row(_shuffled_ranks(base, m))
        twin = tracer.call("problems.construct", CollectiveChoiceProblem,
                           policies=_labels(m), voter_utilities=(setter,),
                           setter_utilities=setter, majority_override=tournament,
                           gfa=True)
        return CorpusInput(kind, twin, VotingRule.simple_majority(1),
                           x0=names.policy(base.randrange(m)), rounds=size["rounds"],
                           tournament=tournament)
    m = base.randrange(2, size["max_m"] + 1)
    n = base.choice((3, 5, 7))
    problem = gen_random_gfa(m, n, base.randrange(2**31))
    names = Relabel(rng, m, n)
    if kind == "majority":
        rule = VotingRule.simple_majority(n)
    else:
        # three random majority-sized coalitions: pairwise intersecting, not quota
        rule = VotingRule.explicit(
            n, [[names.voter_where[v] for v in base.sample(range(n), (n + 1) // 2)]
                for _ in range(3)])
    return CorpusInput(kind, names.problem(tracer, problem), rule,
                       x0=names.policy(base.randrange(m)), rounds=size["rounds"])


def _gfa_analysis(tr, problem, rule, x0: int, rounds: int) -> dict:
    m = problem.num_policies
    iterates = [tr.call("engine.phi_iterates", phi_iterates, problem, rule, x, rounds)
                for x in range(m)]
    spe = {}
    for x in range(m):
        for t in range(1, rounds + 1):
            report = tr.call("oracle.solve_spe", solve_spe,
                             GameSpec(problem=problem, rule=rule, horizon=t,
                                      initial_default=x))
            tr.count("oracle.solve_spe.states", len(report.value_table))
            spe[(x, t)] = report.outcome
    protocols = {}
    for name in PRESET_PROTOCOLS:
        game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                        initial_default=x0, protocol=name)
        rich = tr.call("oracle.check_richness", check_richness, game)
        report = tr.call("oracle.solve_spe", solve_spe, game)
        tr.count("oracle.solve_spe.states", len(report.value_table))
        protocols[name] = (rich.rich, report.outcome, report.value_table)
    stable = tr.call("horizons.stable_set", stable_set, problem)
    horizon = tr.call("horizons.horizon_classify", horizon_classify, problem)
    reach = {(x, mode): tr.call("horizons.reachability", reachability, problem, x, mode, k)
             for x in range(m) for mode, k in REACH_MODES}
    profile = tr.call("engine.simple_equilibrium_profile", simple_equilibrium_profile,
                      problem, rule, rounds)
    verdict = tr.call("oracle.verify_profile", verify_profile,
                      GameSpec(problem=problem, rule=rule, horizon=rounds,
                               initial_default=x0), profile)
    return {"iterates": iterates, "spe": spe, "protocols": protocols,
            "stable": stable, "horizon": horizon, "reach": reach,
            "verdict": verdict}


def corpus_run(tr, inp: CorpusInput) -> dict:
    problem, rule = inp.problem, inp.rule
    if inp.kind == "ties":
        m = problem.num_policies
        phis = [tr.call("engine.phi_or", phi_or, problem, rule, x) for x in range(m)]
        stuck = tr.call("problems.unimprovable_set", unimprovable_set, problem, rule)
        bounds = [tr.call("engine.nc_outcome_bounds", nc_outcome_bounds,
                          problem, rule, x, inp.rounds) for x in range(m)]
        return {"phis": phis, "stuck": stuck, "bounds": bounds, "problems": [problem]}
    out = {}
    if inp.kind == "realized":
        realized = tr.call("tournaments.mcgarvey_realize", mcgarvey_realize,
                           inp.tournament, problem.setter_utilities)
        tr.count("tournaments.mcgarvey_realize.voters", realized.n)
        out["derived"] = tr.call("tournaments.derive_tournament", derive_tournament,
                                 realized)
        out["twin_iterates"] = [
            tr.call("engine.phi_iterates", phi_iterates, problem, rule, x, inp.rounds)
            for x in range(problem.num_policies)]
        out["realized"] = realized
        problem, rule = realized, VotingRule.simple_majority(realized.n)
    out.update(_gfa_analysis(tr, problem, rule, inp.x0, inp.rounds))
    out["problems"] = [problem]
    return out


def _check_gfa(problem, inp: CorpusInput, out: dict, beats: np.ndarray) -> tuple:
    m, rounds = problem.num_policies, inp.rounds
    iterates = out["iterates"]
    for (x, t), outcome in out["spe"].items():
        expect(outcome == iterates[x][t], f"oracle outcome != phi^{t} at default {x}")
    reference = out["protocols"]["amendment"][2]
    for name, (rich, outcome, table) in out["protocols"].items():
        expect(rich, f"preset protocol {name} reported not rich")
        expect(outcome == iterates[inp.x0][rounds], f"{name} outcome != phi^T")
        expect(table == reference, f"{name} value table != amendment value table")
    stable = out["stable"]
    expect(stable.uniqueness_certified, "greedy stable set not certified")
    horizon = out["horizon"]
    if horizon.case == "a":
        w = horizon.witness
        expect(horizon.u_table[(w, 2)] > horizon.u_table[(w, 1)] > horizon.u_inf[w],
               "horizon case a witness fails its strict chain")
    else:
        expect(all(horizon.u_table[(x, 2)] == horizon.u_table[(x, 1)] == horizon.u_inf[x]
                   for x in range(m)), "horizon case b payoffs differ")
    reach = out["reach"]
    for x in range(m):
        full = reach[(x, "reachable")]
        expect(full.members == _closure(beats, x), f"reachable set from {x}")
        two = reach[(x, "two_reachable")].members
        three = reach[(x, "k_reachable")].members
        expect(two <= three <= full.members, f"k-reachable sets from {x} not nested")
        expect(reach[(x, "credible")].members <= full.members,
               f"credible set from {x} not reachable")
        for mode, _k in REACH_MODES[:3]:
            report = reach[(x, mode)]
            _check_chain(report.witness_chain, x, report.best_for_setter, beats,
                         f"{mode} from {x}")
    expect(out["verdict"].profile_valid, "simple equilibrium profile has violations")
    return (tuple(tuple(row) for row in iterates),
            out["protocols"]["amendment"][1],
            tuple(sorted(stable.members)), horizon.case, horizon.witness,
            tuple(tuple(sorted(reach[key].members)) for key in sorted(reach)))


def corpus_check(tr, inp: CorpusInput, out: dict) -> tuple:
    problem = inp.problem
    if inp.kind == "ties":
        phis, stuck = out["phis"], out["stuck"]
        for x, image in enumerate(phis):
            expect(bool(image), f"phi_or({x}) is empty")
            expect((x in image) == (x in stuck), f"phi_or({x}) disagrees with unimprovable set")
        for x, bounds in enumerate(out["bounds"]):
            expect(bool(bounds.lower) and bounds.lower <= bounds.upper,
                   f"outcome bounds at {x}: lower not within upper")
            if phis[x] == {x}:
                expect(bounds.lower == bounds.upper == {x}, f"fixed default {x} moves")
        return (inp.kind, tuple(tuple(sorted(s)) for s in phis), tuple(sorted(stuck)),
                tuple((tuple(sorted(b.lower)), tuple(sorted(b.upper)))
                      for b in out["bounds"]))
    if inp.kind == "realized":
        expect(out["derived"].edges == inp.tournament.edges,
               "realized relation does not round-trip")
        expect(out["twin_iterates"] == out["iterates"],
               "realized iterates differ from the override twin's")
        beats = np.zeros((problem.num_policies,) * 2, dtype=bool)
        for winner, loser in inp.tournament.edges:
            beats[winner, loser] = True
        problem = out["realized"]
    else:
        voters = _rank_matrix(problem.voter_utilities)
        beats = 2 * _support(voters) > problem.n
    return (inp.kind,) + _check_gfa(problem, inp, out, beats)


# ---------------------------------------------------------------------------
# geometry: spatial witnesses, box epsilon-grids and divide-the-dollar grids
#
# Tasks rotate through the three parts, so each stays short.


@dataclass(frozen=True)
class WitnessInput:
    profile: SpatialProfile
    points: tuple


@dataclass(frozen=True)
class GridInput:
    profile: SpatialProfile
    epsilon: Fraction
    seed: int


@dataclass(frozen=True)
class DollarInput:
    m: int
    problem: CollectiveChoiceProblem


def _relabel_profile(rng, profile: SpatialProfile, axes: bool = True):
    """Voters (and axes) renamed by the run seed; returns the profile and the axis map."""
    axes = rng.sample(range(profile.dim), profile.dim) if axes else range(profile.dim)
    voters = rng.sample(range(profile.n_voters), profile.n_voters) + [profile.n_voters]

    def move(point):
        return tuple(point[a] for a in axes)

    renamed = SpatialProfile(dim=profile.dim,
                             ideal_points=tuple(move(profile.ideal_points[i]) for i in voters),
                             box=move(profile.box))
    return renamed, move


def geometry_generate(rng, tracer, size, index):
    base = random.Random(f"geometry-base:{index}")
    part = index % 3
    if part == 0:
        profile, move = _relabel_profile(rng, gen_spatial(3, 5, base.randrange(2**31)))
        points = []
        while len(points) < size["witnesses"]:
            x = move(tuple(Fraction(base.randrange(2**20 + 1), 2**20) for _ in range(3)))
            if x != profile.setter_ideal:
                points.append(x)
        return WitnessInput(profile=profile, points=tuple(points))
    if part == 1:
        # voters only: the grid's nodes keep their axes, so the problem is a
        # voter renaming of the base grid problem and costs the same
        profile, _ = _relabel_profile(
            rng, gen_spatial(3, 5, base.randrange(2**31), box=IDEAL_BOX), axes=False)
        return GridInput(profile=profile, epsilon=size["epsilon"],
                         seed=base.randrange(2**31))
    grid = DivideDollarGrid(n=3, m=size["dtd_m"])
    return DollarInput(m=size["dtd_m"],
                       problem=tracer.call("problems.construct", getattr, grid, "problem"))


def _witness_run(tr, inp: WitnessInput) -> dict:
    coplanarity = tr.call("spatial.check_noncoplanarity", check_noncoplanarity, inp.profile)
    witnesses = []
    for x in inp.points:
        try:
            witnesses.append(tr.call("spatial.spatial_witness", spatial_witness,
                                     inp.profile, x))
        except SpatialDegeneracyError as exc:
            witnesses.append(exc)
    return {"coplanarity": coplanarity, "witnesses": witnesses, "problems": []}


def _grid_run(tr, inp: GridInput) -> dict:
    grid = tr.call("grids.build_grid", build_grid, BoxSpace.unit(3), inp.epsilon,
                   seed=inp.seed, profile=inp.profile)
    tr.count("grids.build_grid.attempts", grid.attempts)
    rule = VotingRule.simple_majority(5)
    setter = grid.problem.setter_utilities
    manip = tr.call("problems.is_manipulable", is_manipulable, grid.problem, rule)
    margin = tr.call("problems.uniform_margin", uniform_margin, grid.problem, rule,
                     (max(setter) - min(setter)) / 20)
    return {"grid": grid, "manip": manip, "margin": margin, "problems": [grid.problem]}


def _dollar_run(tr, inp: DollarInput) -> dict:
    problem, rule = inp.problem, VotingRule.quota_rule(3, 2)
    audit = tr.call("distributions.audit_dp_axioms", audit_dp_axioms, problem)
    phis = [tr.call("engine.phi_or", phi_or, problem, rule, x)
            for x in range(problem.num_policies)]
    stuck = tr.call("problems.unimprovable_set", unimprovable_set, problem, rule)
    return {"audit": audit, "phis": phis, "stuck": stuck, "problems": [problem]}


def _sq_dist(a, b) -> Fraction:
    return sum((p - q) ** 2 for p, q in zip(a, b))


def _witness_check(tr, inp: WitnessInput, out: dict) -> tuple:
    """Re-verify every certificate exactly; the library's own check is an assert."""
    profile = inp.profile
    n = profile.n_voters
    expect(out["coplanarity"].passes, "random profile failed the coplanarity check")
    bad = []
    for x, trace in zip(inp.points, out["witnesses"]):
        if isinstance(trace, Exception):
            bad.append(type(trace).__name__)
            continue
        coalition, w = trace.majority_coalition, trace.witness
        ok = (trace.base == x and coalition <= set(range(n)) and 2 * len(coalition) > n
              and _sq_dist(w, profile.setter_ideal) < _sq_dist(x, profile.setter_ideal)
              and all(_sq_dist(w, profile.ideal_points[j]) < _sq_dist(x, profile.ideal_points[j])
                      for j in coalition))
        if not ok:
            bad.append("certificate")
    tr.count("spatial.spatial_witness.failures", len(bad))
    expect(not bad, f"spatial witnesses failed: {bad}")
    return tuple((t.witness, tuple(sorted(t.majority_coalition))) for t in out["witnesses"])


def _grid_check(tr, inp: GridInput, out: dict) -> tuple:
    grid, problem = out["grid"], out["grid"].problem
    expect(len(grid.points) == problem.num_policies and problem.gfa,
           "grid problem lost nodes or genericity")
    expect(all(len(set(row)) == problem.num_policies
               for row in problem.voter_utilities + (problem.setter_utilities,)),
           "grid utilities tie")
    expect(grid.covering_sq_bound < grid.epsilon ** 2, "grid covering bound")
    margin, blocking = out["margin"], out["manip"].blocking
    expect(all((x in blocking) == (margin.eta_star[x] <= 0) for x in margin.gamma_set),
           "grid margin sign disagrees with manipulability")
    return grid.attempts, len(grid.points), tuple(sorted(blocking)), margin.eta_delta


def _dollar_check(tr, inp: DollarInput, out: dict) -> tuple:
    problem, phis, stuck = inp.problem, out["phis"], out["stuck"]
    for x, image in enumerate(phis):
        expect(bool(image), f"phi_or({x}) is empty")
        expect((x in image) == (x in stuck), f"phi_or({x}) disagrees with unimprovable set")
    audit = out["audit"]
    clean = audit.clean_policies(problem.num_policies)
    # clean, non-optimal policies where some voter holds 2/m or more are improvable
    share_bar = Fraction(2, inp.m)
    stranded = [x for x in sorted(clean - problem.setter_optima)
                if x in stuck and any(row[x] >= share_bar for row in problem.voter_utilities)]
    expect(not stranded, f"clean divide-the-dollar policies stuck: {stranded}")
    return (len(audit.scarcity_violations), len(audit.transferability_violations),
            tuple(len(image) for image in phis), tuple(sorted(stuck)))


_GEOMETRY_PARTS = {WitnessInput: (_witness_run, _witness_check),
                   GridInput: (_grid_run, _grid_check),
                   DollarInput: (_dollar_run, _dollar_check)}


def geometry_run(tr, inp) -> dict:
    return _GEOMETRY_PARTS[type(inp)][0](tr, inp)


def geometry_check(tr, inp, out: dict) -> tuple:
    return _GEOMETRY_PARTS[type(inp)][1](tr, inp, out)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable
    run: Callable
    check: Callable
    full: dict                   # sizes; "tasks" is the number of tasks in a pass
    tiny: dict


WORKLOADS = {w.name: w for w in (
    Workload(
        "corpus",
        "many small gfa, explicit-rule, realized and tie problems: per-call overhead "
        "and small-m loops dominate, and no numpy path is taken",
        corpus_generate, corpus_run, corpus_check,
        full={"tasks": 16, "max_m": 8, "realized_m": (5, 8), "ties_max_m": 4, "rounds": 4},
        tiny={"tasks": 8, "max_m": 4, "realized_m": (3, 4), "ties_max_m": 3, "rounds": 2}),
    Workload(
        "geometry",
        "spatial witnesses, a box epsilon-grid and a divide-the-dollar grid: the "
        "spatial, grids and distributions layers, and m >= 64 int64 numpy kernels",
        geometry_generate, geometry_run, geometry_check,
        full={"tasks": 6, "witnesses": 20, "epsilon": Fraction(1, 4), "dtd_m": 6},
        tiny={"tasks": 3, "witnesses": 2, "epsilon": Fraction(1, 2), "dtd_m": 3}),
)}
