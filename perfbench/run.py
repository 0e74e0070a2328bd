"""Run one agendalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The library is imported from `src/` beside this directory.  With
`--trace 0` the last line of output carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics.  The run record (versions,
machine, sizes, task counts, results digest) is printed before it and
written, with the spans of a traced run, under `.perfbench/`.
Exit status: 0 when every task passed its checks, 1 when some failed,
2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one thread for numpy and any BLAS it loads; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "agendalab" / "__init__.py").is_file():
        print(f"error: no agendalab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agendalab
    if Path(agendalab.__file__).resolve().parent != SRC / "agendalab":
        print(f"error: imported agendalab from {agendalab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    tasks = record["tasks"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tasks['attempted']} tasks, {tasks['failed']} failed "
          f"(failed_ratio {record['failed_ratio']:.4g}), digest {record['digest']}")
    for failure in record["failures"]:
        print(f"  failed task {failure['task']}: {failure['error']}: {failure['message']}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    samples = f"n={tasks['timed']} tasks, median of {record['passes']} passes"
    if "task_p90_ms_at_ref" in record:
        print(f"  task_p90_ms_at_ref = {record['task_p90_ms_at_ref']:.6g} ms ({samples})")
    print(f"  task latency samples: {samples}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"},
                                 default=str))
    print(json.dumps({"correct": tasks["failed"] == 0, "attempted": tasks["attempted"],
                      "failed": tasks["failed"], "metrics": record["metrics"]}))
    return 0 if tasks["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
