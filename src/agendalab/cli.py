"""Command-line front end.

Subcommands mirror the library layers: `analyze` (improvability and
manipulability), `solve` (improvement-iterate trajectory), `oracle`
(extensive-form solve / profile verification / protocol equivalence),
`horizon`, `reach`, `spatial`, `grid`, `dist`, `realize`, and
`experiment`.  Results print as JSON (or write to --out).  Exit codes:
0 success, 1 validation error, 2 failed theorem assertion, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from .distributions import (audit_dp_axioms, divide_dollar_problem, pork_barrel_problem,
                            transfers_problem)
from .engine import equilibrium_outcome, phi_or
from .errors import AgendaLabError, InternalInvariantError, ValidationError
from .grids import BoxSpace, SimplexSpace, build_grid
from .horizons import horizon_classify, horizon_payoffs, reachability, stable_set
from .oracle import PRESET_PROTOCOLS, GameSpec, protocol_equivalence, solve_spe, verify_profile
from .problems import is_manipulable, unimprovable_set
from .rationals import format_rational, parse_rational
from .serialize import (
    _writing,
    load_problem,
    parse_rule,
    profile_from_dict,
    protocol_from_dict,
    read_json,
    save_problem,
    spatial_profile_from_dict,
    spatial_profile_to_dict,
    tournament_from_dict,
)
from .spatial import check_noncoplanarity, gen_spatial, spatial_witness
from .suites import PARAMETERS, SUITES, run_suite
from .tournaments import mcgarvey_realize, relabel


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if out:
        with _writing(out):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args):
    problem = load_problem(args.problem)
    rule = parse_rule(args.rule, problem.n)
    return problem, rule


def _cmd_analyze(args) -> int:
    problem, rule = _load(args)
    stuck = unimprovable_set(problem, rule)
    report = is_manipulable(problem, rule)
    payload = {
        "policies": list(problem.policies),
        "unimprovable": sorted(problem.policies[x] for x in stuck),
        "manipulable": report.manipulable,
        "blocking": sorted(problem.policies[x] for x in report.blocking),
        "one_round_improvements": {
            problem.policies[x]: sorted(problem.policies[y]
                                        for y in phi_or(problem, rule, x))
            for x in range(problem.num_policies)},
    }
    _emit(payload, args.out)
    return 0


def _cmd_solve(args) -> int:
    problem, rule = _load(args)
    x0 = problem.policy_index(args.default)
    trajectory = equilibrium_outcome(problem, rule, x0, args.rounds)
    payload = {
        "default": args.default,
        "rounds": args.rounds,
        "steps": [problem.policies[s] for s in trajectory.steps],
        "outcome": problem.policies[trajectory.outcome],
        "fixed_point_reached_at": trajectory.fixed_point_reached_at,
    }
    _emit(payload, args.out)
    return 0


def _cmd_oracle(args) -> int:
    problem, rule = _load(args)
    x0 = problem.policy_index(args.default)
    if args.oracle_command == "solve":
        if args.protocol_file:
            protocol = protocol_from_dict(read_json(args.protocol_file), problem)
        else:
            protocol = "amendment" if args.protocol is None else args.protocol
        game = GameSpec(problem=problem, rule=rule, horizon=args.rounds,
                        initial_default=x0, protocol=protocol)
        report = solve_spe(game, budget=args.budget)
        payload = {
            "outcome": problem.policies[report.outcome],
            "trace": [{
                "round": s.round, "default": problem.policies[s.default],
                "proposal": problem.policies[s.proposal], "adjourn": s.adjourn,
                "approvers": None if s.approvers is None else sorted(i + 1 for i in s.approvers),
                "passed": s.passed,
            } for s in report.pivotal_trace],
        }
        _emit(payload, args.out)
        return 0
    if args.oracle_command == "verify":
        game = GameSpec(problem=problem, rule=rule, horizon=args.rounds,
                        initial_default=x0)
        profile = profile_from_dict(read_json(args.profile), problem)
        report = verify_profile(game, profile, budget=args.budget)
        payload = {
            "profile_valid": report.profile_valid,
            "violations": [{
                "player": v.player, "round": v.round,
                "default": problem.policies[v.default],
                "deviation": v.deviation, "gain": format_rational(v.gain),
            } for v in report.violations],
        }
        _emit(payload, args.out)
        return 0 if report.profile_valid else 2
    report = protocol_equivalence(problem, rule, args.rounds, x0,
                                  list(args.protocols))
    payload = {
        "all_agree": report.all_agree,
        "iterate_outcome": problem.policies[report.phi_outcome],
        "outcomes": {name: problem.policies[out]
                     for name, out in report.outcomes.items()},
    }
    _emit(payload, args.out)
    return 0 if report.all_agree else 2


def _cmd_horizon(args) -> int:
    if args.t_list is not None and args.default is None:
        raise ValidationError("--t-list needs --default: payoffs are reported from one default")
    problem = load_problem(args.problem)
    report = horizon_classify(problem)
    payload = {
        "case": report.case,
        "witness": problem.policies[report.witness] if report.witness is not None else None,
        "at_most_once_improvable": sorted(problem.policies[x] for x in report.r_set),
    }
    if args.default is not None:
        rows = horizon_payoffs(problem, problem.policy_index(args.default),
                               args.t_list or [1, 2, 3])
        payload["payoffs"] = {str(t): format_rational(u)
                              for t, u in sorted(rows.u_table.items())}
        payload["payoff_infinite"] = format_rational(rows.u_inf)
    stable = stable_set(problem)
    payload["stable_set"] = sorted(problem.policies[x] for x in stable.members)
    payload["uniqueness_certified"] = stable.uniqueness_certified
    _emit(payload, args.out)
    return 0


def _cmd_reach(args) -> int:
    problem = load_problem(args.problem)
    report = reachability(problem, problem.policy_index(args.default),
                          args.mode, k=args.k)
    payload = {
        "mode": report.mode,
        "members": sorted(problem.policies[x] for x in report.members),
        "best_for_setter": problem.policies[report.best_for_setter],
        "witness_chain": [problem.policies[x] for x in report.witness_chain],
    }
    _emit(payload, args.out)
    return 0


def _cmd_spatial(args) -> int:
    if args.spatial_command == "generate":
        _emit(spatial_profile_to_dict(gen_spatial(args.dim, args.voters, args.seed)), args.out)
        return 0
    profile = spatial_profile_from_dict(read_json(args.profile))
    if args.spatial_command == "check":
        report = check_noncoplanarity(profile)
        payload = {"passes": report.passes}
        if report.violating_tuple:
            dims, players, value = report.violating_tuple
            payload["violation"] = {"dims": list(dims), "players": list(players),
                                    "determinant": format_rational(value)}
        _emit(payload, args.out)
        return 0 if report.passes else 2
    point = tuple(parse_rational(c) for c in args.point.split(","))
    trace = spatial_witness(profile, point)
    _emit({
        "witness": [format_rational(c) for c in trace.witness],
        "midpoint": [format_rational(c) for c in trace.midpoint],
        "coalition": sorted(i + 1 for i in trace.majority_coalition),
        "dims": list(trace.dims),
    }, args.out)
    return 0


def _cmd_grid(args) -> int:
    if args.space == "box":
        dim = 3 if args.dim is None else args.dim
        profile = gen_spatial(dim, args.voters, args.seed)
        result = build_grid(BoxSpace.unit(dim), parse_rational(args.epsilon),
                            seed=args.seed + 1, profile=profile,
                            max_points=args.budget)
    else:
        if args.dim is not None:
            raise ValidationError("grid --space simplex takes no --dim: "
                                  "its dimension is the number of players")
        result = build_grid(SimplexSpace(args.voters), parse_rational(args.epsilon),
                            seed=args.seed, max_points=args.budget)
    if args.out:
        save_problem(result.problem, args.out)
    payload = {
        "points": result.problem.num_policies,
        "gfa": result.problem.gfa,
        "covering_sq_bound": format_rational(result.covering_sq_bound),
        "epsilon_sq": format_rational(parse_rational(args.epsilon)**2),
        "attempts": result.attempts,
        "written_to": args.out,
    }
    _emit(payload, None)
    return 0


def _cmd_dist(args) -> int:
    if args.kind == "dtd":
        problem = divide_dollar_problem(args.voters, args.m)
    elif args.kind == "pork":
        projects = []
        for part in args.projects.split(";"):
            benefit, colon, cost = part.partition(":")
            if not colon:
                raise ValidationError(f"project {part!r} is not B:C")
            projects.append((parse_rational(benefit), parse_rational(cost)))
        problem = pork_barrel_problem(projects, args.m, args.voters)
    else:
        problem = transfers_problem(load_problem(args.base), args.m)
    payload = {"policies": problem.num_policies}
    if args.audit:
        audit = audit_dp_axioms(problem)
        payload["audit_passes"] = audit.passes
        payload["scarcity_violations"] = len(audit.scarcity_violations)
        payload["transferability_violations"] = len(audit.transferability_violations)
        payload["clean_policies"] = len(audit.clean_policies(problem.num_policies))
    if args.out:
        save_problem(problem, args.out)
        payload["written_to"] = args.out
    _emit(payload, None)
    return 0


def _cmd_realize(args) -> int:
    labels, tournament = tournament_from_dict(read_json(args.tournament))
    setter = [parse_rational(u) for u in args.setter.split(",")]
    problem = mcgarvey_realize(tournament, setter)
    problem = relabel(problem, labels)
    if args.out:
        save_problem(problem, args.out)
    _emit({"voters": problem.n, "written_to": args.out}, None)
    return 0


def _cmd_experiment(args) -> int:
    params = inspect.signature(SUITES[args.suite]).parameters
    record = run_suite(args.suite, args.out, **{name: getattr(args, name) for name in params})
    _emit(record.summary, None)
    return 0 if record.summary["failed"] == 0 else 2


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error (exit 1); exit 2 is reserved for
    a failed assertion."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="agendalab",
        description="exact engine for sequential agenda-setting games")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default=False, rounds=False, rule=True):
        p.add_argument("--problem", required=True, help="problem JSON file")
        if rule:
            p.add_argument("--rule", default="majority",
                           help='"majority", "quota:K/N", or a coalition JSON file')
        p.add_argument("--out", default=None)
        if default:
            p.add_argument("--default", required=True, help="initial default label")
        if rounds:
            p.add_argument("--rounds", type=int, required=True)

    p = sub.add_parser("analyze", help="unimprovable set and manipulability")
    common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("solve", help="improvement-iterate trajectory")
    common(p, default=True, rounds=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("oracle", help="extensive-form oracle")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser("solve")
    common(q, default=True, rounds=True)
    choice = q.add_mutually_exclusive_group()
    # no "amendment" default: argparse lets a given value that is the
    # default string itself through the group
    choice.add_argument("--protocol", default=None, help="preset protocol (default amendment)")
    choice.add_argument("--protocol-file", default=None, help="custom protocol table JSON")
    q.add_argument("--budget", type=int, default=5_000_000)
    q.set_defaults(fn=_cmd_oracle)
    q = oracle_sub.add_parser("verify")
    common(q, default=True, rounds=True)
    q.add_argument("--profile", required=True, help="profile JSON file")
    q.add_argument("--budget", type=int, default=5_000_000)
    q.set_defaults(fn=_cmd_oracle)
    q = oracle_sub.add_parser("equivalence")
    common(q, default=True, rounds=True)
    q.add_argument("--protocols", nargs="+", default=list(PRESET_PROTOCOLS))
    q.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("horizon", help="finite vs infinite horizon payoffs")
    common(p, rule=False)
    p.add_argument("--default", default=None)
    p.add_argument("--t-list", type=int, nargs="+", default=None)
    p.set_defaults(fn=_cmd_horizon)

    p = sub.add_parser("reach", help="reachability closures")
    common(p, default=True, rule=False)
    p.add_argument("--mode", default="reachable",
                   choices=["reachable", "two_reachable", "k_reachable", "credible"])
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("spatial", help="spatial profiles and witnesses")
    spatial_sub = p.add_subparsers(dest="spatial_command", required=True)
    q = spatial_sub.add_parser("generate")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--voters", type=int, default=5)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_spatial)
    q = spatial_sub.add_parser("check")
    q.add_argument("--profile", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_spatial)
    q = spatial_sub.add_parser("witness")
    q.add_argument("--profile", required=True)
    q.add_argument("--point", required=True, help="comma-separated rationals")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_spatial)

    p = sub.add_parser("grid", help="generic epsilon-grids")
    p.add_argument("--space", choices=["box", "simplex"], required=True)
    p.add_argument("--dim", type=int, default=None, help="box only (default 3)")
    p.add_argument("--voters", type=int, default=5)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=int, default=500_000,
                   help="maximum number of grid points")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("dist", help="distribution problems and the axiom audit")
    dist_sub = p.add_subparsers(dest="kind", required=True)
    for kind in ("dtd", "pork", "transfers"):
        q = dist_sub.add_parser(kind)
        q.add_argument("--m", type=int, required=True)
        if kind == "pork":
            q.add_argument("--projects", required=True, help='"B:C;B:C;..."')
        if kind == "transfers":
            # its voters are the base problem's
            q.add_argument("--base", required=True, help="base problem JSON")
        else:
            q.add_argument("--voters", type=int, default=3)
        q.add_argument("--audit", action="store_true")
        q.add_argument("--out", default=None)
        q.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("realize", help="tournament realization")
    p.add_argument("--tournament", required=True,
                   help='JSON {"policies": [...], "edges": [[w,l],...]}')
    p.add_argument("--setter", required=True, help="comma-separated utilities")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("experiment", help="seeded verification suites")
    suite_sub = p.add_subparsers(dest="suite", required=True)
    for suite, fn in SUITES.items():
        # no abbreviations: `--m` must not stand for a suite's `--max-policies`
        q = suite_sub.add_parser(suite, allow_abbrev=False)
        for name, parameter in inspect.signature(fn).parameters.items():
            flag, least = PARAMETERS[name]
            q.add_argument(flag, type=str if least is None else int, dest=name,
                           default=parameter.default, help="default %(default)s")
        q.add_argument("--out", default=None)
        q.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except AgendaLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
