"""Seeded verification suites with persisted tabular results.

Each suite takes the parameters it reads as keyword arguments, with its
defaults in its own signature.  Every suite is deterministic in its
parameters: identical parameters produce byte-identical CSV and JSON
bodies (wall-clock metadata goes to a sidecar file).  A suite returns
one row per checked instance plus a pass/fail summary; the CLI maps
summaries to exit codes.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .distributions import DivideDollarGrid, audit_dp_axioms, dtd_beta_power, dtd_profile
from .engine import (_orbit, _phi_or_table, equilibrium_outcome, nc_outcome_bounds,
                     phi_iterates, phi_or)
from .errors import RichnessError, SpatialDegeneracyError, ValidationError
from .factories import gen_random_with_ties, gfa_corpus
from .grids import BoxSpace, build_grid
from .horizons import horizon_classify, stable_set
from .oracle import (PRESET_PROTOCOLS, GameSpec, play_out, protocol_equivalence, solve_spe,
                     verify_profile)
from .problems import (
    CollectiveChoiceProblem,
    VotingRule,
    is_improvable,
    is_manipulable,
    uniform_margin,
    unimprovable_set,
)
from .rationals import format_rational, parse_rational
from .serialize import _writing, problem_to_dict
from .spatial import SpatialProfile, check_noncoplanarity, gen_spatial, spatial_witness


@dataclass
class RunRecord:
    descriptor: dict         # {"suite": name, **every parameter the suite read}
    rows: list
    summary: dict


def _rule(problem: CollectiveChoiceProblem) -> VotingRule:
    return VotingRule.simple_majority(problem.n)


def _digest(problem: CollectiveChoiceProblem) -> str:
    body = json.dumps(problem_to_dict(problem), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def _summary(rows) -> dict:
    failed = sum(1 for r in rows if not r.get("pass", True))
    return {"rows": len(rows), "failed": failed, "passed": len(rows) - failed}


# ---------------------------------------------------------------------------
# individual suites


def fixtures_suite():
    rows = []
    cycle = fixtures.majority_cycle_problem()
    rule = _rule(cycle)
    z = cycle.policy_index("z")
    expected = {1: "y", 2: "x", 3: "w", 4: "w", 5: "w", 6: "w"}
    for rounds, want in expected.items():
        engine_out = cycle.policies[equilibrium_outcome(cycle, rule, z, rounds).outcome]
        oracle_out = cycle.policies[solve_spe(
            GameSpec(problem=cycle, rule=rule, horizon=rounds,
                     initial_default=z)).outcome]
        rows.append({"instance": "cycle", "default": "z", "rounds": rounds,
                     "expected": want, "engine": engine_out, "oracle": oracle_out,
                     "pass": engine_out == want == oracle_out})
    blocked = fixtures.blocked_default_problem()
    realized = fixtures.blocked_default_realized()
    realized_rule = _rule(realized)
    for rounds in range(1, 7):
        via_override = blocked.policies[
            equilibrium_outcome(blocked, rule, z, rounds).outcome]
        via_realized = realized.policies[solve_spe(
            GameSpec(problem=realized, rule=realized_rule, horizon=rounds,
                     initial_default=z)).outcome]
        rows.append({"instance": "blocked", "default": "z", "rounds": rounds,
                     "expected": "x", "engine": via_override,
                     "oracle": via_realized,
                     "pass": via_override == "x" == via_realized})
    return rows, _summary(rows)


def _per_problem(seed, samples, max_policies, check):
    """Rows and summary with one row per problem of the gfa corpus of
    `samples` problems (3 or 5 voters each): its index and digest, then
    the fields `check(problem, rule)` returns under simple majority."""
    rows = []
    for idx, problem in enumerate(gfa_corpus(samples, seed, max_policies)):
        fields = check(problem, _rule(problem))
        rows.append({"instance": idx, "digest": _digest(problem), **fields})
    return rows, _summary(rows)


def lemma1_suite(seed=1, samples=200, max_policies=6, max_rounds=4):
    def check(problem, rule):
        checks = mismatches = 0
        for x0 in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x0, max_rounds)
            for rounds in range(1, max_rounds + 1):
                game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                                initial_default=x0)
                checks += 1
                if solve_spe(game).outcome != iterates[rounds]:
                    mismatches += 1
        return {"policies": problem.num_policies, "voters": problem.n,
                "checks": checks, "mismatches": mismatches, "pass": mismatches == 0}

    return _per_problem(seed, samples, max_policies, check)


def thm1_suite(seed=1, samples=200, max_policies=6):
    def check(problem, rule):
        manip = is_manipulable(problem, rule).manipulable
        dictatorial = all(_orbit(problem, rule, x0, problem.num_policies)[-1]
                          in problem.setter_optima for x0 in range(problem.num_policies))
        ok = manip == dictatorial
        stuck = ""
        if not manip:
            blockers = sorted(unimprovable_set(problem, rule) - problem.setter_optima)
            ok = ok and bool(blockers)
            if blockers:
                x0 = blockers[0]
                ok = ok and _orbit(problem, rule, x0, 1) == [x0]
                stuck = problem.policies[x0]
        return {"manipulable": manip, "dictatorial": dictatorial,
                "stuck_default": stuck, "pass": ok}

    return _per_problem(seed, samples, max_policies, check)


def thm2_trend_suite(seed=1, samples=12, d=3, epsilon="1/4", delta="1/20"):
    # ideal points sit in a box offset above the policy space: everyone wants
    # more than any feasible policy delivers, which keeps the discretized
    # problem manipulable (interior ideal-point draws strand near-optimal
    # grid points as unimprovable and the trend assertions would be vacuous)
    ideal_box = tuple((Fraction(9, 8), Fraction(2)) for _ in range(d))
    profile = gen_spatial(d, 5, seed, box=ideal_box)
    result = build_grid(BoxSpace.unit(d), parse_rational(epsilon),
                        seed=seed + 1, profile=profile)
    problem = result.problem
    rule = _rule(problem)
    report = is_manipulable(problem, rule)
    rows = [{"check": "grid-manipulable", "defaults": problem.num_policies,
             "value": str(report.manipulable), "bound": "", "pass": report.manipulable}]

    spread = problem.setter_max - min(problem.setter_utilities)
    slack = parse_rational(delta) * spread
    margin = uniform_margin(problem, rule, slack)
    rows.append({"check": "margin-positive", "defaults": len(margin.gamma_set),
                 "value": format_rational(margin.eta_delta), "bound": "",
                 "pass": margin.lemma_holds})

    rng = random.Random(seed + 2)
    worst = min(range(problem.num_policies), key=lambda x: problem.setter_utilities[x])
    defaults = sorted({worst, *(rng.randrange(problem.num_policies)
                                for _ in range(samples))})
    stuck = unimprovable_set(problem, rule)
    max_absorb = 0
    for x0 in defaults:
        path = _orbit(problem, rule, x0, problem.num_policies)
        absorb = len(path) - 1
        max_absorb = max(max_absorb, absorb)
        monotone = all(problem.setter_utilities[b] >= problem.setter_utilities[a]
                       for a, b in zip(path, path[1:]))
        near_opt = problem.setter_utilities[path[-1]] >= problem.setter_max - slack
        ok = (monotone and path[-1] in stuck
              and absorb <= problem.num_policies - 1 and near_opt)
        rows.append({"check": "trajectory", "defaults": x0, "value": absorb,
                     "bound": problem.num_policies - 1, "pass": ok})
    rows.append({"check": "round-bound", "defaults": len(defaults),
                 "value": max_absorb, "bound": margin.t_bound,
                 "pass": margin.t_bound is not None and max_absorb <= margin.t_bound})
    return rows, _summary(rows)


def thm3_bounds_suite(seed=1, samples=40, max_policies=6):
    rows = []
    rng = random.Random(seed)
    for idx in range(samples):
        problem = gen_random_with_ties(rng.randrange(3, 5), 3,
                                       seed=rng.randrange(2**31))
        rule = _rule(problem)
        x0 = rng.randrange(problem.num_policies)
        rounds = rng.randrange(1, 4)
        bounds = nc_outcome_bounds(problem, rule, x0, rounds)
        ok = bounds.lower <= bounds.upper
        fixed = phi_or(problem, rule, x0) == frozenset({x0})
        if fixed:
            ok = ok and bounds.lower == bounds.upper == frozenset({x0})
        rows.append({"instance": idx, "default": x0, "rounds": rounds,
                     "lower": len(bounds.lower), "upper": len(bounds.upper),
                     "pass": ok})
    for idx, problem in enumerate(gfa_corpus(10, seed + 1, max_policies)):
        rule = _rule(problem)
        x0 = idx % problem.num_policies
        rounds = 1 + idx % 3
        bounds = nc_outcome_bounds(problem, rule, x0, rounds)
        want = frozenset({phi_iterates(problem, rule, x0, rounds)[-1]})
        rows.append({"instance": f"gfa-{idx}", "default": x0, "rounds": rounds,
                     "lower": len(bounds.lower), "upper": len(bounds.upper),
                     "pass": bounds.lower == bounds.upper == want})
    return rows, _summary(rows)


def thm4_mc_suite(seed=1, samples=10_000, d=3):
    failures = 0
    for k in range(samples):
        profile = gen_spatial(d, 5, seed + k)
        if not check_noncoplanarity(profile).passes:
            failures += 1
    rows = [{"check": "random-profiles", "samples": samples,
             "failures": failures, "pass": failures == 0}]
    square = gen_spatial(3, 3, seed)
    pts = list(square.ideal_points)
    pts[3] = (pts[0][0] + pts[1][0] - pts[2][0],
              pts[0][1] + pts[1][1] - pts[2][1],
              pts[0][2] + pts[1][2] - pts[2][2])   # completes a parallelogram
    planar = SpatialProfile(dim=3, ideal_points=tuple(pts), box=square.box)
    report = check_noncoplanarity(planar)
    rows.append({"check": "constructed-coplanar", "samples": 1,
                 "failures": int(not report.passes),
                 "pass": not report.passes and report.violating_tuple is not None})
    return rows, _summary(rows)


def thm4_witness_suite(seed=1, samples=20, d=3):
    points_per = 100
    rows = []
    made = 0
    attempt = 0
    while made < samples:
        dim = (d, d + 1)[made % 2]
        profile = gen_spatial(dim, 5, seed + 1000 + attempt)
        attempt += 1
        if not check_noncoplanarity(profile).passes:
            continue
        made += 1
        rng = random.Random(seed + made)
        failures = 0
        for _ in range(points_per):
            x = tuple(Fraction(rng.randrange(0, 2**20 + 1), 2**20) for _ in range(dim))
            if x == profile.setter_ideal:
                continue
            try:
                trace = spatial_witness(profile, x)
            except SpatialDegeneracyError:
                failures += 1
                continue
            at_x, at_witness = zip(*profile.scaled_rows([x, trace.witness])[0])
            gains = all(at_witness[j] > at_x[j] for j in trace.majority_coalition)
            setter_gain = at_witness[-1] > at_x[-1]
            majority = 2 * len(trace.majority_coalition) >= profile.n_voters + 1
            if not (gains and setter_gain and majority):
                failures += 1
        rows.append({"profile": made, "dim": dim, "points": points_per,
                     "failures": failures, "pass": failures == 0})
    return rows, _summary(rows)


def thm5_suite(seed=1, samples=200, max_policies=6, max_rounds=4):
    def check(problem, rule):
        agree = [protocol_equivalence(problem, rule, rounds, x0, PRESET_PROTOCOLS).all_agree
                 for x0 in range(problem.num_policies)
                 for rounds in (1, 2, max_rounds)]
        return {"protocols": len(PRESET_PROTOCOLS), "pass": all(agree)}

    rows, _ = _per_problem(seed, samples, max_policies, check)

    cycle = fixtures.majority_cycle_problem()
    rule = _rule(cycle)
    z = cycle.policy_index("z")
    refused = False
    try:
        protocol_equivalence(cycle, rule, 3, z, [fixtures.adjournment_trap_protocol(3)])
    except RichnessError as exc:
        refused = exc.witness is not None
    trap_ok = refused
    for rounds in range(1, 5):
        game = GameSpec(problem=cycle, rule=rule, horizon=rounds, initial_default=z,
                        protocol=fixtures.adjournment_trap_protocol(rounds))
        report = solve_spe(game)
        trap_ok = trap_ok and cycle.policies[report.outcome] == "y"
        trap_ok = trap_ok and report.pivotal_trace[-1].adjourn
    rows.append({"instance": "adjournment-trap", "digest": _digest(cycle),
                 "protocols": 1, "pass": trap_ok})
    return rows, _summary(rows)


def thm6_7_dtd_suite(m=4):
    rows = []
    grid = DivideDollarGrid(n=3, m=m)
    problem = grid.problem
    rule = VotingRule.quota_rule(3, 2)
    audit = audit_dp_axioms(problem)
    clean = audit.clean_policies(problem.num_policies)
    floor_u = 1 - Fraction(3, m)
    share_bar = Fraction(2, m)

    bad = [x for x in clean
           if x not in problem.setter_optima
           and any(Fraction(grid.allocation(x).units[i], m) >= share_bar
                   for i in range(3))
           and is_improvable(problem, rule, x) is None]
    rows.append({"check": f"clean-improvable-m{m}", "count": len(clean),
                 "value": len(bad), "pass": not bad})

    stuck = unimprovable_set(problem, rule)
    low_stuck = [x for x in stuck & clean if problem.setter_utilities[x] < floor_u]
    rows.append({"check": f"clean-unimprovable-floor-m{m}", "count": len(stuck & clean),
                 "value": len(low_stuck), "pass": not low_stuck})

    # documented grid artifact: outside the audited region the floor fails
    artifact = [x for x in stuck - clean if problem.setter_utilities[x] < floor_u]
    rows.append({"check": f"boundary-artifact-m{m}", "count": len(stuck - clean),
                 "value": len(artifact), "pass": True})

    correspondence = _phi_or_table(problem, rule)
    worst = None
    for x0 in sorted(clean):
        layer = {x0}
        for _ in range(3):
            layer = {y for x in layer for y in correspondence[x]}
        low = min(problem.setter_utilities[y] for y in layer)
        worst = low if worst is None else min(worst, low)
    # an empty clean region passes vacuously, like the rows above
    rows.append({"check": f"three-step-floor-m{m}", "count": len(clean),
                 "value": "" if worst is None else format_rational(worst),
                 "pass": worst is None or worst >= floor_u})

    # share-grab operator and the two equilibrium profiles
    verify_m = 6
    verify_grid = DivideDollarGrid(n=3, m=verify_m)
    dictator = tuple([0, 0, 0, verify_m])
    bad_beta = [a.units for a in verify_grid.allocations
                if dtd_beta_power(a, 3).units != dictator]
    rows.append({"check": "beta-cubed-dictator", "count": len(verify_grid.allocations),
                 "value": len(bad_beta), "pass": not bad_beta})

    interior = verify_grid.index(
        next(a for a in verify_grid.allocations if all(u > 0 for u in a.units)))
    nc = dtd_profile(3, verify_m, 3, "non_capricious")
    game3 = GameSpec(problem=verify_grid.problem, rule=_rule(verify_grid.problem),
                     horizon=3, initial_default=interior)
    nc_report = verify_profile(game3, nc)
    nc_outcome = verify_grid.allocation(play_out(game3, nc))
    rows.append({"check": "non-capricious-valid", "count": 1,
                 "value": len(nc_report.violations),
                 "pass": nc_report.profile_valid and nc_outcome.units == dictator})

    for rounds in (4, 5):
        cap = dtd_profile(3, verify_m, rounds, "capricious")
        game = GameSpec(problem=verify_grid.problem, rule=_rule(verify_grid.problem),
                        horizon=rounds, initial_default=interior)
        cap_report = verify_profile(game, cap)
        outcome = verify_grid.allocation(play_out(game, cap))
        want = dtd_beta_power(verify_grid.allocation(interior), 2)
        rows.append({"check": f"capricious-T{rounds}", "count": 1,
                     "value": len(cap_report.violations),
                     "pass": (cap_report.profile_valid
                              and outcome.units == want.units
                              and outcome.units != dictator)})
    return rows, _summary(rows)


def thm8_suite(seed=1, samples=200, max_policies=6):
    horizon_cap = 10

    def check(problem, rule):
        report = horizon_classify(problem)
        psi = stable_set(problem).psi_table
        ok = True
        for x0 in range(problem.num_policies):
            iterates = phi_iterates(problem, rule, x0, horizon_cap)
            payoffs = [problem.setter_utilities[i] for i in iterates]
            ok = ok and all(b >= a for a, b in zip(payoffs[1:], payoffs[2:]))
            ok = ok and payoffs[1] >= problem.setter_utilities[psi[x0]]
        if report.case == "a":
            w = report.witness
            ok = ok and (report.u_table[(w, 2)] > report.u_table[(w, 1)]
                         > report.u_inf[w])
        else:
            ok = ok and all(report.u_table[(x, 2)] == report.u_table[(x, 1)]
                            == report.u_inf[x] for x in range(problem.num_policies))
        return {"case": report.case, "r_size": len(report.r_set), "pass": ok}

    return _per_problem(seed, samples, max_policies, check)


SUITES = {
    "fixtures": fixtures_suite,
    "lemma1": lemma1_suite,
    "thm1": thm1_suite,
    "thm2_trend": thm2_trend_suite,
    "thm3_bounds": thm3_bounds_suite,
    "thm4_mc": thm4_mc_suite,
    "thm4_witness": thm4_witness_suite,
    "thm5": thm5_suite,
    "thm6_7_dtd": thm6_7_dtd_suite,
    "thm8": thm8_suite,
}


def _check_params(params: dict) -> None:
    """Range checks on the parameters a suite reads."""
    if params.get("samples", 0) < 0:
        raise ValidationError(f"samples {params['samples']} must be nonnegative")
    for name, least in (("max_policies", 2), ("max_rounds", 1)):
        if params.get(name, least) < least:
            raise ValidationError(f"{name} {params[name]} must be at least {least}")
    for name in ("epsilon", "delta"):
        if name in params:
            try:
                parse_rational(params[name])
            except ValidationError as exc:
                raise ValidationError(f"{name}: {exc}") from None
    # a share of the setter's spread: above 1, no policy falls that far
    if "delta" in params and not 0 < parse_rational(params["delta"]) <= 1:
        raise ValidationError(f"delta: share {params['delta']} outside (0, 1]")


def run_suite(suite: str, out_dir=None, **params) -> RunRecord:
    """Run `suite` on `params`, every one a parameter it reads (the rest
    keep the defaults in its signature); with `out_dir`, write the record."""
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {tuple(SUITES)}")
    parameters = inspect.signature(SUITES[suite]).parameters
    unread = [name for name in params if name not in parameters]
    if unread:
        raise ValidationError(f"suite {suite} reads no {', '.join(unread)}; "
                              f"it reads {', '.join(parameters) or 'no parameter'}")
    params = {name: params.get(name, p.default) for name, p in parameters.items()}
    _check_params(params)
    started = time.monotonic()
    rows, summary = SUITES[suite](**params)
    record = RunRecord(descriptor={"suite": suite, **params}, rows=rows, summary=summary)
    if out_dir:
        _write_record(record, Path(out_dir), runtime=time.monotonic() - started)
    return record


def _write_record(record: RunRecord, out_dir: Path, runtime: float) -> None:
    stem = record.descriptor["suite"]
    body = io.StringIO()
    if record.rows:
        writer = csv.DictWriter(body, fieldnames=list(record.rows[0].keys()))
        writer.writeheader()
        for row in record.rows:
            writer.writerow({k: str(v) for k, v in row.items()})
    payload = {"descriptor": record.descriptor, "rows": record.rows,
               "summary": record.summary}
    meta = {"suite": stem, "runtime_seconds": round(runtime, 3),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.csv").write_text(body.getvalue())
        (out_dir / f"{stem}.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n")
        (out_dir / f"{stem}.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
