"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import harness
import workloads

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SECONDS = 0.2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_and_reports_the_declared_metrics(name):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        record = harness.run(name, seed=3, seconds=SECONDS, trace=trace, tiny=True)
        assert record["failures"] == []
        assert record["tasks"]["attempted"] >= 2 * record["tasks"]["per_pass"]
        assert record["metrics"].keys() == {m["name"] for m in declared}
        for metric in declared:
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_rescaling_divides_out_the_host_speed():
    ref = calibration.REF_S
    assert calibration.at_ref(0.05, ref, ref) == pytest.approx(0.05)
    # a host twice as slow doubles the task and the calibration alike
    assert calibration.at_ref(0.10, 2 * ref, 2 * ref) == pytest.approx(0.05)
    assert calibration.seconds(3) > 0


def test_workload_names_match_the_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_for_a_seed_and_changes_with_it(name):
    first = harness.run(name, seed=5, seconds=SECONDS, trace=False, tiny=True)
    again = harness.run(name, seed=5, seconds=SECONDS, trace=False, tiny=True)
    other = harness.run(name, seed=6, seconds=SECONDS, trace=False, tiny=True)
    assert first["digest"] == again["digest"]
    if name != "geometry":      # its divide-the-dollar parts do not depend on the seed
        assert first["digest"] != other["digest"]


def test_injected_wrong_outcome_is_counted(monkeypatch):
    real = workloads.solve_spe

    def wrong(game, *args, **kwargs):
        report = real(game, *args, **kwargs)
        shifted = (report.outcome + 1) % game.problem.num_policies
        return dataclasses.replace(report, outcome=shifted)

    monkeypatch.setattr(workloads, "solve_spe", wrong)
    record = harness.run("corpus", seed=1, seconds=SECONDS, trace=False, tiny=True)
    assert record["tasks"]["failed"] > 0
    assert {f["error"] for f in record["failures"]} == {"CheckFailed"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
