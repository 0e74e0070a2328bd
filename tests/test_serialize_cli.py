from __future__ import annotations

import hashlib
import json
import re
import time
from fractions import Fraction

import pytest

from agendalab import ValidationError, VotingRule, simple_equilibrium_profile
from agendalab.cli import main
from agendalab.distributions import pork_barrel_problem
from agendalab.factories import gen_random_gfa
from agendalab.fixtures import blocked_default_problem, majority_cycle_problem
from agendalab.serialize import (
    load_problem,
    parse_rule,
    problem_from_dict,
    problem_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_problem,
    spatial_profile_from_dict,
    spatial_profile_to_dict,
)
from agendalab.spatial import gen_spatial

from references import enumerate_stable_subsets

F = Fraction


def test_problem_round_trip(tmp_path, cycle):
    path = tmp_path / "cycle.json"
    save_problem(cycle, path)
    assert load_problem(path) == cycle


def test_override_round_trip(tmp_path):
    blocked = blocked_default_problem()
    path = tmp_path / "blocked.json"
    save_problem(blocked, path)
    again = load_problem(path)
    assert again == blocked
    assert again.majority_override is not None


def test_decimal_strings_normalize(tmp_path):
    doc = {"policies": ["a", "b"],
           "voters": [["0.5", "2"]],
           "agenda_setter": ["1", "0.25"],
           "gfa": False}
    problem = problem_from_dict(doc)
    assert problem.voter_utilities[0][0] == F(1, 2)
    assert problem.setter_utilities[1] == F(1, 4)
    out = problem_to_dict(problem)
    assert out["voters"][0][0] == "1/2" and out["agenda_setter"][1] == "1/4"


def test_problem_to_dict_reads_the_integers():
    # saving or digesting an integer-built problem makes no `Fraction` view
    from agendalab.distributions import DivideDollarGrid
    from agendalab.rationals import format_rational
    p = DivideDollarGrid(3, 4).problem
    doc = problem_to_dict(p)
    assert "voter_utilities" not in vars(p) and "setter_utilities" not in vars(p)
    assert doc["voters"] == [[format_rational(u) for u in row] for row in p.voter_utilities]
    assert doc["agenda_setter"] == [format_rational(u) for u in p.setter_utilities]


def test_spatial_profile_to_dict_reads_the_integers():
    # `spatial generate` writes a drawn profile without making its `Fraction` view
    from agendalab.rationals import format_rational
    profile = gen_spatial(3, 5, 1)
    doc = spatial_profile_to_dict(profile)
    assert "ideal_points" not in vars(profile)
    assert doc == {"dim": 3, "ideal_points": [[format_rational(c) for c in p]
                                              for p in profile.ideal_points]}


def test_ragged_matrix_located_error():
    doc = {"policies": ["a", "b"], "voters": [["1", "2"], ["3"]],
           "agenda_setter": ["1", "2"]}
    with pytest.raises(ValidationError, match="voter row 2"):
        problem_from_dict(doc)


def test_malformed_rational_located_error():
    doc = {"policies": ["a", "b"], "voters": [["1", "x/y"]],
           "agenda_setter": ["1", "2"]}
    with pytest.raises(ValidationError, match="voter row 1, column 2"):
        problem_from_dict(doc)


def test_duplicate_labels_error():
    doc = {"policies": ["a", "a"], "voters": [["1", "2"]],
           "agenda_setter": ["1", "2"]}
    with pytest.raises(ValidationError, match="duplicate"):
        problem_from_dict(doc)


def test_unknown_override_label_error():
    doc = {"policies": ["a", "b"], "voters": [["1", "2"]],
           "agenda_setter": ["1", "2"], "majority_override": [["a", "c"]]}
    with pytest.raises(ValidationError, match="unknown policy"):
        problem_from_dict(doc)


def test_parse_rule_variants(cycle):
    assert parse_rule("majority", 3) == VotingRule.simple_majority(3)
    assert parse_rule("quota:2/3", 3) == VotingRule.quota_rule(3, 2)
    with pytest.raises(ValidationError):
        parse_rule("quota:2/5", 3)
    with pytest.raises(ValidationError):
        parse_rule("plurality", 3)


def test_profile_round_trip(cycle, rule3):
    profile = simple_equilibrium_profile(cycle, rule3, 2)
    doc = profile_to_dict(profile, cycle)
    again = profile_from_dict(doc, cycle)
    assert again.horizon == 2
    for t in (1, 2):
        for x in range(4):
            assert again.propose(t, x) == profile.propose(t, x)
            for a in range(4):
                for i in range(3):
                    assert again.vote(i, t, x, a) == profile.vote(i, t, x, a)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def cycle_file(tmp_path):
    path = tmp_path / "cycle.json"
    save_problem(majority_cycle_problem(), path)
    return str(path)


def test_cli_analyze(cycle_file, capsys):
    assert main(["analyze", "--problem", cycle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manipulable"] is True
    assert payload["unimprovable"] == ["w"]


def test_cli_solve(cycle_file, capsys):
    assert main(["solve", "--problem", cycle_file, "--default", "z",
                 "--rounds", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "w"
    assert payload["steps"] == ["y", "x", "w"]


def test_cli_solve_lists_steps_up_to_the_fixed_point(cycle_file, capsys):
    assert main(["solve", "--problem", cycle_file, "--default", "y",
                 "--rounds", "1000000000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == ["x", "w"]
    assert payload["outcome"] == "w" and payload["fixed_point_reached_at"] == 2


def test_cli_oracle_solve_and_equivalence(cycle_file, capsys):
    assert main(["oracle", "solve", "--problem", cycle_file, "--default", "z",
                 "--rounds", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "w"
    assert main(["oracle", "equivalence", "--problem", cycle_file,
                 "--default", "z", "--rounds", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_agree"] and payload["outcomes"]["open_rule"] == "w"


def test_cli_oracle_verify_flags_bad_profile(cycle_file, tmp_path, capsys):
    cycle = majority_cycle_problem()
    rule = VotingRule.simple_majority(3)
    profile = simple_equilibrium_profile(cycle, rule, 2)
    doc = profile_to_dict(profile, cycle)
    # sabotage round 1 at default z: stall on the default
    doc["proposer"] = [[t, x, ("z" if (t, x) == (1, "z") else a), adj]
                       for t, x, a, adj in doc["proposer"]]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", "verify", "--problem", cycle_file, "--default", "z",
                 "--rounds", "2", "--profile", str(path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile_valid"] is False


def test_cli_reach_and_horizon(cycle_file, capsys):
    assert main(["reach", "--problem", cycle_file, "--default", "z",
                 "--mode", "two_reachable"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_for_setter"] == "x"
    assert main(["horizon", "--problem", cycle_file, "--default", "y"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "a" and payload["stable_set"] == ["w", "y"]
    assert payload["payoff_infinite"] == "2"


def test_cli_reads_gfa_from_the_rows(cycle_file, tmp_path, capsys):
    # the cycle fixture's document without its "gfa" key runs as the flagged one
    doc = problem_to_dict(majority_cycle_problem())
    del doc["gfa"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    for argv in (["solve", "--default", "z", "--rounds", "3"],
                 ["oracle", "solve", "--default", "z", "--rounds", "3"],
                 ["horizon", "--default", "z"],
                 ["reach", "--default", "z", "--mode", "credible"]):
        at = 2 if argv[0] == "oracle" else 1
        outs = []
        for path in (cycle_file, str(bare)):
            assert main([*argv[:at], "--problem", path, *argv[at:]]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_cli_oracle_solves_an_override_document(tmp_path, capsys):
    path = tmp_path / "blocked.json"
    save_problem(blocked_default_problem(), path)
    assert main(["oracle", "solve", "--problem", str(path), "--default", "z",
                 "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["outcome"] == "x"
    assert out.count('"approvers": null') == len(payload["trace"])
    assert main(["oracle", "equivalence", "--problem", str(path), "--default", "z",
                 "--rounds", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all_agree"]


def test_cli_reads_an_override_gfa_from_the_setter_row(tmp_path, capsys):
    # the blocked fixture's document with all-zero placeholder voter rows and
    # no "gfa" key runs as the strict-row document does
    strict = tmp_path / "strict.json"
    save_problem(blocked_default_problem(), strict)
    doc = problem_to_dict(blocked_default_problem())
    doc["voters"] = [["0"] * 4 for _ in doc["voters"]]
    del doc["gfa"]
    placeholder = tmp_path / "placeholder.json"
    placeholder.write_text(json.dumps(doc))
    for argv in (["solve", "--default", "z", "--rounds", "3"],
                 ["oracle", "solve", "--default", "z", "--rounds", "3"],
                 ["oracle", "equivalence", "--default", "z", "--rounds", "3"],
                 ["horizon", "--default", "z"],
                 ["reach", "--default", "z", "--mode", "credible"]):
        at = 2 if argv[0] == "oracle" else 1
        outs = []
        for path in (strict, placeholder):
            assert main([*argv[:at], "--problem", str(path), *argv[at:]]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_cli_spatial_pipeline(tmp_path, capsys):
    profile_path = tmp_path / "profile.json"
    assert main(["spatial", "generate", "--dim", "3", "--voters", "5",
                 "--seed", "4", "--out", str(profile_path)]) == 0
    assert main(["spatial", "check", "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    assert main(["spatial", "witness", "--profile", str(profile_path),
                 "--point", "1/3,1/4,1/5"]) == 0
    assert capsys.readouterr().out == WITNESS_STDOUT


WITNESS_STDOUT = """\
{
  "witness": [
    "36821289208599339568312174927/110898569463394734080325058560",
    "928964706534009060732341223/3696618982113157802677501952",
    "22202988600746316683071506163/110898569463394734080325058560"
  ],
  "midpoint": [
    "4475832519769815296803899727/13862321182924341760040632320",
    "120333549746495134203300839/462077372764144725334687744",
    "2794644313859332513517242099/13862321182924341760040632320"
  ],
  "coalition": [
    1,
    3,
    5
  ],
  "dims": [
    0,
    1,
    2
  ]
}
"""


def test_spatial_profile_round_trip(capsys):
    # `spatial generate` writes the document `spatial_profile_to_dict` makes
    profile = gen_spatial(4, 5, seed=6)
    doc = json.loads(json.dumps(spatial_profile_to_dict(profile)))
    assert spatial_profile_from_dict(doc) == profile
    assert main(["spatial", "generate", "--dim", "4", "--voters", "5", "--seed", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_cli_grid_and_dist(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    assert main(["grid", "--space", "simplex", "--voters", "3",
                 "--epsilon", "3/10", "--seed", "2", "--out", str(grid_path)]) == 0
    capsys.readouterr()
    problem = load_problem(grid_path)
    assert problem.gfa
    assert main(["dist", "dtd", "--voters", "3", "--m", "4", "--audit"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policies"] == 35 and payload["audit_passes"] is False
    assert payload["clean_policies"] == 4


def test_cli_dist_pork_and_transfers(tmp_path, capsys):
    pork_path = tmp_path / "pork.json"
    assert main(["dist", "pork", "--projects", "1:1/2;1/2:0", "--voters", "1", "--m", "2",
                 "--audit", "--out", str(pork_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policies"] == 21 and payload["written_to"] == str(pork_path)
    assert load_problem(pork_path) == pork_barrel_problem([(F(1), F(1, 2)), (F(1, 2), F(0))],
                                                          2, 1)
    assert main(["dist", "transfers", "--base", str(pork_path), "--m", "2", "--audit"]) == 0
    assert json.loads(capsys.readouterr().out)["policies"] == 6


def test_cli_dist_pork_refuses_a_project_without_a_colon(capsys):
    assert main(["dist", "pork", "--projects", "x", "--m", "2"]) == 1
    assert "project 'x' is not B:C" in capsys.readouterr().err


def test_cli_spatial_check_reports_a_coplanar_quadruple(tmp_path, capsys):
    # the setter's ideal point repeats voter 1's, so the four points are
    # coplanar in every projection: exit 2 with the first violation
    assert main(["spatial", "generate", "--dim", "3", "--voters", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["ideal_points"][3] = doc["ideal_points"][0]
    path = tmp_path / "coplanar.json"
    path.write_text(json.dumps(doc))
    assert main(["spatial", "check", "--profile", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"passes": False, "violation": {"dims": [0, 1, 2],
                                                      "players": [0, 1, 2, 3],
                                                      "determinant": "0"}}


def test_cli_realize(tmp_path, capsys):
    doc = {"policies": ["w", "x", "y", "z"],
           "edges": [["x", "w"], ["w", "y"], ["z", "w"], ["x", "y"],
                     ["x", "z"], ["y", "z"]]}
    tfile = tmp_path / "tournament.json"
    tfile.write_text(json.dumps(doc))
    out = tmp_path / "realized.json"
    assert main(["realize", "--tournament", str(tfile), "--setter", "4,3,2,1",
                 "--out", str(out)]) == 0
    problem = load_problem(out)
    assert problem.n == 7 and problem.gfa


def test_cli_experiment_deterministic(tmp_path, capsys):
    # the JSON body names every parameter the suite reads, so a run of the
    # library's defaults also pins that the CLI adds no default of its own
    from agendalab.suites import run_suite
    for suite in ("fixtures", "thm6_7_dtd"):
        out1, out2, out3 = (tmp_path / suite / run for run in ("run1", "run2", "run3"))
        assert main(["experiment", suite, "--out", str(out1)]) == 0
        assert main(["experiment", suite, "--out", str(out2)]) == 0
        run_suite(suite, out_dir=str(out3))
        capsys.readouterr()
        for name in (f"{suite}.csv", f"{suite}.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes() == (
                out3 / name).read_bytes()
        assert (out1 / f"{suite}.meta.json").exists()


@pytest.mark.parametrize("argv", [
    ["lemma1", "--max-policies", "1"],
    ["thm1", "--max-policies", "1"],
    ["thm3_bounds", "--max-policies", "0"],
    ["thm5", "--max-policies", "1"],
    ["thm8", "--max-policies", "1"],
    ["lemma1", "--rounds", "0"],
    ["thm5", "--rounds", "0"],
])
def test_cli_experiment_refuses_a_degenerate_corpus(argv, tmp_path, capsys):
    # refused before any suite runs, so nothing is written
    assert main(["experiment", *argv, "--samples", "2", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert "must be at least" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("suite", ["thm4_mc", "thm4_witness"])
def test_cli_experiment_spatial_suites_refuse_two_dimensions(suite, tmp_path, capsys):
    # both suites run at --dim; the coplanarity scan needs three axes
    assert main(["experiment", suite, "--dim", "2", "--samples", "1",
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert "at least 3 dimensions" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_cli_experiment_dtd_empty_clean_region_passes_vacuously(tmp_path, capsys):
    assert main(["experiment", "thm6_7_dtd", "--m", "2", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0
    rows = (tmp_path / "thm6_7_dtd.csv").read_text().splitlines()
    assert "three-step-floor-m2,0,,True" in rows


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"policies": ["a"], "voters": [["1", "2"]],
                               "agenda_setter": ["1"]}))
    assert main(["analyze", "--problem", str(bad)]) == 1


def test_cli_internal_invariant_exit_code(cycle_file, capsys, monkeypatch):
    # a broken invariant is the library's fault, not the input's: exit 3
    from agendalab import InternalInvariantError, cli

    def broken(problem, rule):
        raise InternalInvariantError("stable set is not internally stable")

    monkeypatch.setattr(cli, "unimprovable_set", broken)
    assert main(["analyze", "--problem", cycle_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["solve", "--default", "z", "--rounds", "3"],
    ["oracle", "solve", "--default", "z", "--rounds", "3"],
    ["oracle", "equivalence", "--default", "z", "--rounds", "3"],
])
def test_cli_rule_file_of_majority_coalitions_reads_as_majority(argv, cycle_file, tmp_path,
                                                                capsys):
    # the `--rule` coalition-file branch: the three pairs of three voters are
    # simple majority, so every command prints what `--rule majority` prints
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"coalitions": [[0, 1], [1, 2], [0, 2]]}))
    outputs = []
    for descriptor in ("majority", str(rule)):
        assert main(argv + ["--problem", cycle_file, "--rule", descriptor]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]


def test_cli_oracle_solve_custom_protocol_file(cycle_file, tmp_path, capsys):
    from agendalab.fixtures import adjournment_trap_protocol
    from agendalab.serialize import protocol_to_dict
    cycle = majority_cycle_problem()
    doc = protocol_to_dict(adjournment_trap_protocol(3), cycle)
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "solve", "--problem", cycle_file, "--default", "z",
                 "--rounds", "3", "--protocol-file", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "y"
    assert payload["trace"][-1]["adjourn"] is True


def test_protocol_round_trip(tmp_path):
    from agendalab.fixtures import adjournment_trap_protocol
    from agendalab.serialize import protocol_from_dict, protocol_to_dict
    cycle = majority_cycle_problem()
    protocol = adjournment_trap_protocol(2)
    again = protocol_from_dict(protocol_to_dict(protocol, cycle), cycle)
    assert again.table == protocol.table


def _bad_input_argv(case, cycle_file, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_coalitions = tmp_path / "rule.json"
    no_coalitions.write_text(json.dumps({"voters": [1, 2]}))
    no_edges = tmp_path / "tournament.json"
    no_edges.write_text(json.dumps({"policies": ["a", "b"]}))
    missing_dir = str(tmp_path / "missing" / "out.json")
    at_z = ["--problem", cycle_file, "--default", "z", "--rounds", "2"]
    # cases that read one malformed document: the argv before its path, its body
    two = {"policies": ["a", "b"], "voters": [["1", "0"]], "agenda_setter": ["0", "1"]}
    # a gfa three-cycle whose labels mix a number with strings
    mixed = {"policies": [1, "a", "b"], "voters": [["1", "0", "2"], ["0", "2", "1"],
                                                   ["2", "1", "0"]],
             "agenda_setter": ["0", "1", "2"], "gfa": True}
    analyze, rule = ["analyze", "--problem"], ["analyze", "--problem", cycle_file, "--rule"]
    documents = {
        # a two-letter string is not a [winner, loser] pair
        "override_pair_as_string": (analyze, {**two, "majority_override": ["ab"]}),
        "voters_not_rows": (analyze, {**two, "voters": [5]}),
        "policies_not_list": (analyze, {**two, "policies": 5}),
        "override_entry_not_pair": (analyze, {**two, "majority_override": [5]}),
        "unhashable_label": (analyze, {**two, "policies": [["a"], "b"]}),
        "unhashable_override_label": (analyze, {**two, "majority_override": [[["a"], "b"]]}),
        "tournament_unhashable_label": (["realize", "--setter", "1,2", "--tournament"],
                                        {"policies": [{"a": 1}, "b"], "edges": []}),
        # policy labels are strings: no number names a policy
        "number_labels": (analyze, {**two, "policies": [1, 2]}),
        "mixed_labels": (analyze, mixed),
        "horizon_mixed_labels": (["horizon", "--problem"], mixed),
        "number_override_label": (analyze, {**two, "majority_override": [[1, "b"]]}),
        "tournament_number_label": (["realize", "--setter", "1,2", "--tournament"],
                                    {"policies": [1, 2], "edges": [[1, 2]]}),
        "spatial_points_not_list": (["spatial", "check", "--profile"],
                                    {"dim": 2, "ideal_points": 5}),
        "spatial_no_points": (["spatial", "check", "--profile"], {"dim": 3, "ideal_points": []}),
        "rule_coalitions_not_list": (rule, {"coalitions": 5}),
        "rule_coalition_not_voters": (rule, {"coalitions": [["a"]]}),
        "gfa_not_bool": (analyze, {**two, "gfa": "no"}),
        # JSON booleans are not the integers 1 and 0
        "utility_bool": (analyze, {**two, "voters": [[True, "0"]]}),
        "spatial_coordinate_bool": (["spatial", "check", "--profile"], {
            "dim": 3, "ideal_points": [[True, "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                                       ["0", "0", "0"]]}),
        "spatial_coordinate_abc": (["spatial", "check", "--profile"], {
            "dim": 3, "ideal_points": [["1", "0", "0"], ["0", "1", "abc"], ["0", "0", "1"],
                                       ["0", "0", "0"]]}),
    }
    if case in documents:
        argv, body = documents[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(body))
        return [*argv, str(path)]
    return {
        "missing_problem_file": ["analyze", "--problem", str(tmp_path / "missing.json")],
        "rule_not_json": ["analyze", "--problem", cycle_file, "--rule", str(bad_json)],
        "rule_without_coalitions": ["analyze", "--problem", cycle_file,
                                    "--rule", str(no_coalitions)],
        "protocol_not_json": ["oracle", "solve", *at_z, "--protocol-file", str(bad_json)],
        "profile_not_json": ["oracle", "verify", *at_z, "--profile", str(bad_json)],
        "spatial_profile_not_json": ["spatial", "check", "--profile", str(bad_json)],
        "tournament_not_json": ["realize", "--tournament", str(bad_json),
                                "--setter", "1,2"],
        "tournament_without_edges": ["realize", "--tournament", str(no_edges),
                                     "--setter", "1,2"],
        # output paths that cannot be written
        "grid_out_in_missing_dir": ["grid", "--space", "simplex", "--voters", "3",
                                    "--epsilon", "3/10", "--out", missing_dir],
        "profile_out_in_missing_dir": ["spatial", "generate", "--out", missing_dir],
        "experiment_out_is_a_file": ["experiment", "fixtures", "--out", str(bad_json)],
    }[case]


@pytest.mark.parametrize("case", [
    "missing_problem_file", "rule_not_json", "rule_without_coalitions",
    "protocol_not_json", "profile_not_json", "spatial_profile_not_json",
    "tournament_not_json", "tournament_without_edges", "override_pair_as_string",
    "voters_not_rows", "policies_not_list", "override_entry_not_pair",
    "unhashable_label", "unhashable_override_label", "tournament_unhashable_label",
    "number_labels", "mixed_labels", "horizon_mixed_labels", "number_override_label",
    "tournament_number_label", "spatial_points_not_list", "spatial_no_points",
    "rule_coalitions_not_list", "rule_coalition_not_voters",
    "gfa_not_bool", "utility_bool", "spatial_coordinate_bool", "spatial_coordinate_abc",
    "grid_out_in_missing_dir", "profile_out_in_missing_dir", "experiment_out_is_a_file"])
def test_cli_bad_input_files_exit_1(case, cycle_file, tmp_path, capsys):
    assert main(_bad_input_argv(case, cycle_file, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: " + _BAD_INPUT_LOCATIONS.get(case, ""))


# the located start of the message, where a case's document locates its error
_BAD_INPUT_LOCATIONS = {
    **dict.fromkeys(["number_labels", "mixed_labels", "horizon_mixed_labels",
                     "number_override_label", "tournament_number_label"],
                    "policy label 1 is not a string"),
    "spatial_no_points": "need at least one voter plus the setter",
    "spatial_coordinate_bool": "ideal point 1, coordinate 1: refusing boolean True",
    "spatial_coordinate_abc": "ideal point 2, coordinate 3: malformed rational 'abc'",
}


@pytest.mark.parametrize("argv", [
    ["analyze"],                                          # no --problem
    ["solve", "--problem", "p.json", "--default", "z", "--rounds", "abc"],
    ["experiment", "thm2_trend", "--epsilon", "abc"],
    ["experiment", "thm2_trend", "--delta", "1/0"],
    ["experiment", "lemma1", "--samples", "-1"],
    # a seed is a whole number: -1 drew what seed 1 draws
    ["experiment", "thm3_bounds", "--seed", "-1"],
    ["spatial", "generate", "--seed", "-1"],
    ["grid", "--space", "simplex", "--epsilon", "1/2", "--seed", "-1"],
    ["dist", "pork", "--m", "2"],                         # no --projects
    ["dist", "pork", "--m", "2", "--projects", "1:2:3"],
    ["dist", "transfers", "--m", "2"],                    # no --base
    ["nonsense"],
    ["experiment", "thm2_trend", "--delta", "3/2"],       # a share above 1
    ["experiment", "thm2_trend", "--delta=-1/20"],
    # horizon and reach read only the majority relation, so take no --rule
    ["horizon", "--problem", "p.json", "--rule", "majority"],
    ["reach", "--problem", "p.json", "--default", "z", "--rule", "majority"],
])
def test_cli_bad_arguments_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert captured.out == ""


def test_experiment_samples_zero_stays_vacuous(capsys):
    assert main(["experiment", "lemma1", "--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 0


def test_cli_oracle_verify_refuses_adjourning_proposal_under_amendment(
        cycle_file, tmp_path, capsys):
    cycle = majority_cycle_problem()
    doc = profile_to_dict(simple_equilibrium_profile(cycle, VotingRule.simple_majority(3), 2),
                          cycle)
    # amendment offers no adjournment; round 1 at default z claims one
    doc["proposer"] = [[t, x, a, adj or (t, x) == (1, "z")]
                       for t, x, a, adj in doc["proposer"]]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", "verify", "--problem", cycle_file, "--default", "z",
                 "--rounds", "2", "--profile", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "with adjournment at (round 1, default 3)" in err
    assert "'amendment' does not offer" in err


# sha256 of the concatenated `oracle solve` stdout from every default of the
# cycle fixture at 1, 2 and 3 rounds: outcomes, traces and their approvers
ORACLE_SOLVE_DIGESTS = {
    "amendment":
        "7bb81a028cb0b8362c8ef731b29cb310a17409e1ecbe482e51d4a1766553b79a",
    "successive":
        "190bfae33e023e66b4fe0426210dfb7ddc0c070fa2ee15908094b397774d14c9",
    "open_rule":
        "7bb81a028cb0b8362c8ef731b29cb310a17409e1ecbe482e51d4a1766553b79a",
    "adjournment-trap":
        "69f1a1b5305928696de3f8cc14b295671f620f570be5138a5ad7316cede494b8",
}


@pytest.mark.parametrize("protocol", sorted(ORACLE_SOLVE_DIGESTS))
def test_cli_oracle_solve_stdout_is_pinned(protocol, cycle_file, tmp_path, capsys):
    from agendalab.fixtures import adjournment_trap_protocol
    from agendalab.serialize import protocol_to_dict
    out = hashlib.sha256()
    for rounds in (1, 2, 3):
        choice = ["--protocol", protocol]
        if protocol == "adjournment-trap":
            path = tmp_path / f"trap{rounds}.json"
            path.write_text(json.dumps(protocol_to_dict(
                adjournment_trap_protocol(rounds), majority_cycle_problem())))
            choice = ["--protocol-file", str(path)]
        for default in "wxyz":
            assert main(["oracle", "solve", "--problem", cycle_file, "--default",
                         default, "--rounds", str(rounds), *choice]) == 0
            out.update(capsys.readouterr().out.encode())
    assert out.hexdigest() == ORACLE_SOLVE_DIGESTS[protocol]


def test_cli_oracle_solve_budget_names_its_numbers(cycle_file, capsys):
    assert main(["oracle", "solve", "--problem", cycle_file, "--default", "z",
                 "--rounds", "3", "--budget", "59"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # T * m * (m + 1) = 3 * 4 * 5 states and actions
    assert captured.err == ("error: state space too large for the oracle "
                            "(required 60, budget 59)\n")


# ---------------------------------------------------------------------------
# profile documents with wrong-typed fields


# case: (section, field of its first entry, value, message); each of these
# used to be read silently: as True, as voter n, or truncated to 1
_BAD_PROFILE_FIELDS = {
    "proposer_flag_string": ("proposer", 3, "false",
                             r"proposer entry 1: adjournment flag 'false' is not of type bool"),
    "proposer_flag_int": ("proposer", 3, 0, r"adjournment flag 0 is not of type bool"),
    "proposer_round_string": ("proposer", 0, "1", r"round '1' is not of type int"),
    "vote_string": ("votes", 4, "no", r"votes entry 1: vote 'no' is not of type bool"),
    "voter_zero": ("votes", 0, 0, r"voter 0 is outside 1\.\.3"),
    "voter_past_n": ("votes", 0, 4, r"voter 4 is outside 1\.\.3"),
    "voter_string": ("votes", 0, "1", r"voter '1' is not of type int"),
    "vote_round_float": ("votes", 1, 1.0, r"round 1\.0 is not of type int"),
    "horizon_string": ("horizon", None, "1", r"profile horizon '1' is not of type int"),
    "horizon_float": ("horizon", None, 1.9, r"profile horizon 1\.9 is not of type int"),
    "horizon_bool": ("horizon", None, True, r"profile horizon True is not of type int"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PROFILE_FIELDS))
def test_profile_from_dict_refuses_wrong_typed_fields(case, cycle, rule3):
    section, field, value, message = _BAD_PROFILE_FIELDS[case]
    doc = profile_to_dict(simple_equilibrium_profile(cycle, rule3, 2), cycle)
    if section == "horizon":
        doc["horizon"] = value
    else:
        doc[section][0][field] = value
    with pytest.raises(ValidationError, match=message):
        profile_from_dict(doc, cycle)


@pytest.mark.parametrize("doc", [
    {"horizon": 2, "proposer": [[1, "w", "x"]], "votes": []},
    {"horizon": 2, "proposer": [], "votes": [[1, 1, "w", "q", True]]},
    {"horizon": 2, "proposer": [], "votes": 5},
    {"horizon": 2, "proposer": []},
    [],
])
def test_profile_from_dict_refuses_malformed_entries(doc, cycle):
    with pytest.raises(ValidationError, match="profile"):
        profile_from_dict(doc, cycle)


def test_cli_oracle_verify_wrong_typed_profile_exits_1(cycle_file, tmp_path, capsys):
    cycle = majority_cycle_problem()
    doc = profile_to_dict(
        simple_equilibrium_profile(cycle, VotingRule.simple_majority(3), 2), cycle)
    doc["votes"][0][4] = "no"
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", "verify", "--problem", cycle_file, "--default", "z",
                 "--rounds", "2", "--profile", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "validation error: profile votes entry 1: vote 'no' is not of type bool")


@pytest.mark.parametrize("flag", ["false", 0])
def test_protocol_document_flag_is_judged_by_game_spec(flag, cycle, rule3):
    from agendalab import GameSpec
    from agendalab.serialize import protocol_from_dict
    doc = {"label": "flags", "table": [[1, "w", [["x", False], ["y", flag]]]]}
    protocol = protocol_from_dict(doc, cycle)
    assert protocol.table[(1, 0)] == ((1, False), (2, flag))
    with pytest.raises(ValidationError, match="bool adjournment flag"):
        GameSpec(problem=cycle, rule=rule3, horizon=1, initial_default=0, protocol=protocol)


@pytest.mark.parametrize("round_", ["1", 1.9, True])
def test_protocol_from_dict_refuses_non_integer_rounds(round_, cycle):
    from agendalab.serialize import protocol_from_dict
    doc = {"table": [[1, "w", [["x", False]]], [round_, "x", [["x", False]]]]}
    with pytest.raises(ValidationError,
                       match=rf"protocol table entry 2: round {re.escape(repr(round_))} "
                             r"is not of type int"):
        protocol_from_dict(doc, cycle)


def test_cli_oracle_solve_non_integer_protocol_round_exits_1(cycle_file, tmp_path, capsys):
    from agendalab.fixtures import adjournment_trap_protocol
    from agendalab.serialize import protocol_to_dict
    doc = protocol_to_dict(adjournment_trap_protocol(2), majority_cycle_problem())
    doc["table"][0][0] = "1"
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "solve", "--problem", cycle_file, "--default", "z",
                 "--rounds", "2", "--protocol-file", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation error: protocol table entry 1: round '1' is not of type int")


def test_cli_horizon_builds_the_stable_set_once(cycle_file, capsys, monkeypatch):
    from agendalab import horizons
    built = []
    build = horizons._stable_set
    monkeypatch.setattr(horizons, "_stable_set",
                        lambda problem: built.append(problem) or build(problem))
    assert main(["horizon", "--problem", cycle_file, "--default", "y"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["uniqueness_certified"] is True
    assert len(built) == 1
    cycle = majority_cycle_problem()
    [members] = enumerate_stable_subsets(cycle)
    assert payload["stable_set"] == sorted(cycle.policies[x] for x in members)


def test_cli_horizon_certifies_past_twelve_policies(tmp_path, capsys):
    path = tmp_path / "p16.json"
    path.write_text(json.dumps(problem_to_dict(gen_random_gfa(16, 5, seed=3))))
    assert main(["horizon", "--problem", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["uniqueness_certified"] is True


# the experiment options each suite reads, from the suite bodies
_SUITE_OPTIONS = {
    "fixtures": [],
    "lemma1": ["--seed", "--samples", "--max-policies", "--rounds"],
    "thm1": ["--seed", "--samples", "--max-policies"],
    "thm2_trend": ["--seed", "--samples", "--dim", "--epsilon", "--delta"],
    "thm3_bounds": ["--seed", "--samples", "--max-policies"],
    "thm4_mc": ["--seed", "--samples", "--dim"],
    "thm4_witness": ["--seed", "--samples", "--dim"],
    "thm5": ["--seed", "--samples", "--max-policies", "--rounds"],
    "thm6_7_dtd": ["--m"],
    "thm8": ["--seed", "--samples", "--max-policies"],
}
# each experiment option: the descriptor field it sets, and a value that runs
_EXPERIMENT_OPTIONS = {
    "--seed": ("seed", "2"), "--samples": ("samples", "1"),
    "--max-policies": ("max_policies", "3"), "--rounds": ("max_rounds", "2"),
    "--m": ("m", "2"), "--dim": ("d", "3"), "--epsilon": ("epsilon", "1/2"),
    "--delta": ("delta", "1/10"),
}


def test_cli_options_that_would_do_nothing_exit_1(cycle_file, tmp_path, capsys):
    from agendalab.fixtures import adjournment_trap_protocol
    from agendalab.serialize import protocol_to_dict
    trap = tmp_path / "trap.json"
    trap.write_text(json.dumps(protocol_to_dict(adjournment_trap_protocol(3),
                                                majority_cycle_problem())))
    out = tmp_path / "out"
    # a suite reads only the options in its row of `_SUITE_OPTIONS`
    unread = [["experiment", suite, option, _EXPERIMENT_OPTIONS[option][1], "--out", str(out)]
              for suite, options in _SUITE_OPTIONS.items()
              for option in _EXPERIMENT_OPTIONS if option not in options]
    assert len(unread) == 51
    # reach reads --k only in k_reachable mode; horizon reads --t-list only
    # for the payoffs from --default, and only with at least one horizon;
    # a simplex grid's dimension is its player count; each dist kind reads
    # only its own options, and transfers takes its voters from --base;
    # oracle solve plays one protocol: a preset or a table
    for argv in (*unread,
                 *(["oracle", "solve", "--problem", cycle_file, "--default", "z", "--rounds", "3",
                    "--protocol", preset, "--protocol-file", str(trap)]
                   for preset in ("successive", "amendment")),
                 ["reach", "--problem", cycle_file, "--default", "z",
                  "--mode", "two_reachable", "--k", "5"],
                 ["reach", "--problem", cycle_file, "--default", "z", "--k", "1"],
                 ["horizon", "--problem", cycle_file, "--t-list", "5", "7"],
                 ["horizon", "--problem", cycle_file, "--default", "y", "--t-list"],
                 ["grid", "--space", "simplex", "--dim", "7", "--epsilon", "1/2"],
                 ["dist", "dtd", "--m", "4", "--projects", "3:1"],
                 ["dist", "dtd", "--m", "4", "--base", cycle_file],
                 ["dist", "pork", "--m", "2", "--projects", "3:1", "--base", cycle_file],
                 ["dist", "transfers", "--m", "2", "--base", cycle_file,
                  "--projects", "3:1"],
                 ["dist", "transfers", "--m", "2", "--base", cycle_file,
                  "--voters", "7"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: ")
        assert captured.out == ""
        assert not out.exists()
    assert main(["reach", "--problem", cycle_file, "--default", "z",
                 "--mode", "k_reachable", "--k", "5"]) == 0
    capsys.readouterr()
    # every option a suite reads runs, at the smallest --samples that checks
    # anything, and reaches the suite: the descriptor records its value
    for suite, options in _SUITE_OPTIONS.items():
        for option in options:
            argv = ["experiment", suite, option, _EXPERIMENT_OPTIONS[option][1]]
            if "--samples" in options and option != "--samples":
                argv += ["--samples", "1"]
            assert main([*argv, "--out", str(out)]) == 0, argv
            capsys.readouterr()
            descriptor = json.loads((out / f"{suite}.json").read_text())["descriptor"]
            field, value = _EXPERIMENT_OPTIONS[option]
            assert sorted(descriptor) == sorted(
                ["suite", *(_EXPERIMENT_OPTIONS[o][0] for o in options)])
            assert str(descriptor[field]) == value
    # where an option is read, leaving it out still means its old default
    for argv, default in ((["grid", "--space", "box", "--epsilon", "1/2"], ["--dim", "3"]),
                          (["dist", "dtd", "--m", "4"], ["--voters", "3"])):
        assert main(argv) == 0
        absent = capsys.readouterr().out
        assert main(argv + default) == 0 and capsys.readouterr().out == absent


@pytest.mark.parametrize("dim", ["2", 2.9, True])
def test_spatial_profile_dimension_must_be_an_int(dim):
    from agendalab.serialize import spatial_profile_from_dict
    doc = {"dim": dim, "ideal_points": [["0", "1"], ["1", "0"], ["1/2", "1/2"]]}
    with pytest.raises(ValidationError, match="profile dimension .* is not of type int"):
        spatial_profile_from_dict(doc)


@pytest.mark.parametrize("dim", [10**6, 10**30])
def test_spatial_profile_dimension_is_refused_before_a_box_is_built(dim):
    # the box is as wide as the rows, so refusing a far larger `dim` takes
    # no time that grows with it
    from agendalab.serialize import spatial_profile_from_dict
    doc = {"dim": dim, "ideal_points": [[0, 0, 0], [1, 1, 1], ["1/2", 0, 1]]}
    started = time.perf_counter()
    with pytest.raises(ValidationError, match="^ideal point dimension mismatch$"):
        spatial_profile_from_dict(doc)
    assert time.perf_counter() - started < 0.5


def test_cli_summary_stdout_is_pinned(tmp_path, capsys):
    # grid, dist, realize and experiment print a summary of what they made
    tournament = tmp_path / "tournament.json"
    tournament.write_text(json.dumps({
        "policies": ["w", "x", "y", "z"],
        "edges": [["x", "w"], ["w", "y"], ["z", "w"], ["x", "y"], ["x", "z"], ["y", "z"]]}))
    out = hashlib.sha256()
    for argv in (["grid", "--space", "simplex", "--voters", "3", "--epsilon", "3/10"],
                 ["dist", "dtd", "--voters", "3", "--m", "4", "--audit"],
                 ["realize", "--tournament", str(tournament), "--setter", "4,3,2,1"],
                 ["experiment", "fixtures"]):
        assert main(argv) == 0
        out.update(capsys.readouterr().out.encode())
    assert out.hexdigest() == (
        "9c1d7682e68f5e016751b3d5570e5b550771aeb6189d128bcba09ed4ca165d9a")
