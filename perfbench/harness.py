"""Closed-loop runner: set-up, timed tasks, checks, metrics and run record.

One caller in one thread runs the tasks of a workload back to back; each
task starts only after the previous one and its check have finished.

Every task is timed between two runs of a fixed calibration, and its
latency is rescaled to a reference host speed (see `calibration`).

An untraced run reports the end-to-end metrics.  A traced run pairs
every task with an untraced twin on a fresh copy of the same inputs,
records spans around the traced one, and reports the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import agendalab
import calibration
from tracing import Tracer
from workloads import WORKLOADS, fits_int64

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 11
SETUP_CALIBRATIONS = 5   # calibration runs before and after each set-up round
# A set-up round is mostly importing: over 88 rounds its time went as the
# calibration's to the power 0.41 (log-log slope), and over 250 imports the
# exponent 0.5 left the least drift, where 1 (full rescaling) drifted as
# much as no rescaling.
SETUP_SPEED_EXPONENT = 0.5
MIN_PASSES = 2
P90_MIN_TASKS = 100      # p90 needs at least 10 samples beyond it

UNITS = {"setup_s": "s", "tasks_per_s_at_ref": "1/s", "task_p50_ms_at_ref": "ms",
         "peak_rss_mb": "MB"}
# per-layer span metrics: <name>.calls and <name>.s for each
LAYER_SPANS = (
    "problems.unimprovable_set", "problems.uniform_margin", "problems.is_manipulable",
    "engine.phi_iterates", "engine.phi_or", "engine.nc_outcome_bounds",
    "engine.simple_equilibrium_profile",
    "oracle.solve_spe", "oracle.check_richness", "oracle.verify_profile",
    "horizons.reachability", "horizons.stable_set", "horizons.horizon_classify",
    "spatial.check_noncoplanarity", "spatial.spatial_witness",
    "grids.build_grid",
    "distributions.audit_dp_axioms",
    "tournaments.mcgarvey_realize", "tournaments.derive_tournament",
)
LAYER_COUNTS = ("oracle.solve_spe.states", "spatial.spatial_witness.failures",
                "grids.build_grid.attempts", "tournaments.mcgarvey_realize.voters")
LAYERS = ("problems", "engine", "oracle", "horizons", "spatial", "grids",
          "distributions", "tournaments", "bench")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"problems.construct.s": "s", "problems.int64_share": "ratio",
                  "bench.check.s": "s", "bench.failed_ratio": "ratio",
                  "trace.overhead_ratio": "ratio"})
    return units


def _setup_round(name: str, seed: int, tiny: bool) -> tuple[float, float, float]:
    """One set-up round in a fresh interpreter, excluding its start-up.

    The round imports `agendalab` and builds one pass of task inputs.
    Returns its time and the calibrations measured right before and after
    it in the same interpreter.  Calibrations in this process, often on
    the other core, tracked the import worse than no rescaling at all.
    The calibration module (standard library only, `fractions` with what
    it imports) is loaded first, so its import is not in the round.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import calibration; "
            f"before = calibration.seconds({SETUP_CALIBRATIONS}); "
            "t = time.perf_counter(); import agendalab; "
            "imported = time.perf_counter() - t; import harness; "
            "built = harness.build_seconds(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1'); "
            f"print(imported + built, before, calibration.seconds({SETUP_CALIBRATIONS}))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(Path(__file__).parent),
                           name, str(seed), str(int(tiny))],
                          capture_output=True, text=True, check=True, timeout=120)
    took, before, after = map(float, done.stdout.split())
    return took, before, after


def build_seconds(name: str, seed: int, tiny: bool) -> float:
    """Time building one pass of task inputs of a workload."""
    workload = WORKLOADS[name]
    runner = Runner(workload, workload.tiny if tiny else workload.full, seed)
    start = time.perf_counter()
    runner.inputs(Tracer(False))
    return time.perf_counter() - start


def _digest(materials) -> str:
    return hashlib.sha256(repr(materials).encode()).hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


class Runner:
    """Runs passes over one workload's tasks and keeps what the metrics need."""

    def __init__(self, workload, size: dict, seed: int):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []

    def inputs(self, tracer: Tracer) -> list:
        """The pass's task inputs; every call returns equal, freshly built ones."""
        rng = random.Random(f"{self.workload.name}:{self.seed}")
        return [self.workload.generate(rng, tracer, self.size, i)
                for i in range(self.size["tasks"])]

    def run_pass(self, tracer: Tracer, inputs: list) -> dict:
        """Run every task once, closed loop, checking each before the next."""
        w = self.workload
        latencies, raw, calibrations, materials, problems = [], [], [], [], []
        for index, task_inputs in enumerate(inputs):
            self.attempted += 1
            before = calibration.seconds()
            start = time.perf_counter()
            try:
                outputs = tracer.task(index, w.run, tracer, task_inputs)
                measured = time.perf_counter() - start
                after = calibration.seconds()
                calibrations += [before, after]
                latency = calibration.at_ref(measured, before, after)
                analyzed = outputs.pop("problems")
                material = tracer.call("bench.check", w.check, tracer, task_inputs, outputs)
            except Exception as exc:   # a failed task is counted, never fatal to the run
                self.failures.append({"task": index, "error": type(exc).__name__,
                                      "message": str(exc)[:300]})
                latency = measured = None
                material, analyzed = ("failed", type(exc).__name__), []
            latencies.append(latency)
            raw.append(measured)
            materials.append(material)
            if tracer.enabled:
                problems.extend(analyzed)
        return {"latencies": latencies, "raw": raw, "calibrations": calibrations,
                "materials": materials, "problems": problems, "tracer": tracer}


def _per_task(passes: list[dict], key: str = "latencies",
              reduce=statistics.median) -> list[float]:
    """Per task, `reduce` of its latencies over the passes (by default the
    median of the rescaled ones).  Tasks that always failed drop out."""
    out = []
    for samples in zip(*(p[key] for p in passes)):
        done = [s for s in samples if s is not None]
        if done:
            out.append(reduce(done))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result record (metrics, digest, failures).

    Passes over the same task inputs, each on freshly built copies, repeat
    until `seconds` have passed and at least MIN_PASSES passes of each kind
    are done.  A task's latency is the median over the passes of its
    latency rescaled to the reference speed.
    """
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    runner = Runner(workload, size, seed)
    setup_rounds = []
    if not trace:
        setup_rounds = [_setup_round(name, seed, tiny) for _ in range(SETUP_ROUNDS)]
        inputs = runner.inputs(Tracer(False))
    else:
        setup_tracer = Tracer(True)
        inputs = runner.inputs(setup_tracer)

    kinds = (False, True) if trace else (False,)
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced if trace else plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        for with_spans in kinds:
            if inputs is None:
                inputs = runner.inputs(Tracer(False))
            done = runner.run_pass(Tracer(with_spans), inputs)
            (traced if with_spans else plain).append(done)
            inputs = None
    wall = time.perf_counter() - start

    passes = plain + traced
    reference = passes[0]["materials"]
    if any(p["materials"] != reference for p in passes):
        runner.failures.append({"task": None, "error": "CheckFailed",
                                "message": "outputs differ between passes"})
    latencies = _per_task(plain)
    calibrations = [c for p in plain for c in p["calibrations"]]
    extra = {"wall_s": wall, "passes": len(plain), "traced_passes": len(traced),
             "calibration_ms_quartiles": [1000 * q for q in statistics.quantiles(
                 calibrations, n=4)] if len(calibrations) > 1 else [],
             "raw_task_fastest_ms": [1000 * t for t in _per_task(plain, "raw", min)]}
    if not trace:
        metrics = {
            "setup_s": statistics.median(calibration.at_ref(*r, SETUP_SPEED_EXPONENT)
                                         for r in setup_rounds),
            "tasks_per_s_at_ref": len(latencies) / sum(latencies) if latencies else 0.0,
            "task_p50_ms_at_ref": 1000 * statistics.median(latencies) if latencies else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        extra["raw_setup_samples_s"] = [r[0] for r in setup_rounds]
        extra["setup_calibration_ms"] = [[1000 * c for c in r[1:]] for r in setup_rounds]
        extra["raw_tasks_per_s"] = runner.attempted / wall
        if len(latencies) >= P90_MIN_TASKS:
            extra["task_p90_ms_at_ref"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    else:
        per_pass = [_layer_metrics(p) for p in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["problems.construct.s"] = setup_tracer.totals().get(
            "problems.construct", (0, 0.0))[1]
        metrics["bench.failed_ratio"] = len(runner.failures) / runner.attempted
        traced_latencies = _per_task(traced)
        metrics["trace.overhead_ratio"] = (sum(traced_latencies) / sum(latencies)
                                           if latencies else 0.0)
        units = per_layer_units()

    failed = len(runner.failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": {k: str(v) for k, v in size.items()},
        "tasks": {"per_pass": size["tasks"], "attempted": runner.attempted,
                  "failed": failed, "timed": len(latencies)},
        "failed_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "digest": _digest(reference),
        "python": sys.version.split()[0], "numpy": _version("numpy"),
        "scipy": _version("scipy"), "agendalab": agendalab.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        **extra,
    }
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    payload = {"record": record}
    if trace:
        payload["setup"] = setup_tracer.dump()
        payload["passes"] = [p["tracer"].dump() for p in traced]
    _write(f"{name}-seed{seed}{'-trace' if trace else ''}.json", payload)
    return record


def _layer_metrics(done: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    tracer = done["tracer"]
    totals = tracer.totals()
    metrics = {}
    for name in LAYER_SPANS:
        calls, secs = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = secs
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    flags = [fits_int64(p) for p in done["problems"]]
    metrics["problems.int64_share"] = sum(flags) / len(flags) if flags else 0.0
    metrics["bench.check.s"] = totals.get("bench.check", (0, 0.0))[1]
    return metrics


def _write(filename: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / filename, "w") as handle:
        json.dump(payload, handle, default=str)
