"""Benchmark entry point: one workload, one fresh process, one JSON line.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 30 --trace 0

Runs perfbench/workload.py in a child process with BLAS and OpenMP pinned
to one thread, so that each workload has a process of its own and set-up is
timed cold: setup_s runs from just before the child is started to the end
of its set-up.  Every time metric is rescaled to a reference host speed by
a calibration kernel that the child runs between its rounds (see
workload.CALIBRATION_REF_S).  With `--trace 0` the last line of standard
output holds the end-to-end metrics, with `--trace 1` the per-layer ones.
The child's full report, with per-round times, outputs and check results,
goes to perfbench/results/<workload>-seed<seed>-trace<trace>.json.

Exits 0 after printing the result line; exits non-zero without one if the
child fails, times out, or cannot find the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 170.0

ONE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kerrpqd benchmark: one workload per run")
    parser.add_argument("--workload", choices=("curve", "threshold", "sample"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ONE_THREAD)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": (report["setup_end"] - start) * report["setup_scale"], "unit": "s"},
            "solve_s": {"value": report["solve_s"], "unit": "s"},
            "solve_cpu_s": {"value": report["solve_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    for problem in report["problems"] + report["errors"]:
        print(problem, file=sys.stderr)

    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "report": report}, handle, indent=1)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
