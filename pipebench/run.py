#!/usr/bin/env python3
"""Build pipeline_e2e from source and run one workload of it.

Usage (from the root of a numaprof checkout):

    python3 pipebench/run.py --workload casestudy --seed 1 --seconds 40 --trace 0

Builds pipebench/ with CMake into .bench_build/pipebench (the first run
compiles the numaprof libraries; later runs are incremental), runs

    pipeline_e2e --workload W --seed S --seconds T [--layers]

and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": X, "unit": "U"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list (the
untraced run); with --trace 1 its per_layer list (the traced --layers run).
Each value is the median over the run's timed iterations. Build and
program output go to standard error. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipebench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd with output on stderr; kills its whole process group on
    timeout and waits for it. Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "pipebench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "pipeline_e2e",
                "-j", str(os.cpu_count() or 1)]
    return (run(configure, BUILD_TIMEOUT_S) == 0 and
            run(compile_, BUILD_TIMEOUT_S) == 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    os.makedirs(RUN_DIR, exist_ok=True)
    out = os.path.join(RUN_DIR, f"{args.workload}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD_DIR, "pipeline_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out,
           "--work-dir", os.path.join(RUN_DIR, "work")]
    if args.trace:
        cmd += ["--layers", "--spans",
                os.path.join(RUN_DIR, f"{args.workload}.spans.json")]
    status = run(cmd, RUN_TIMEOUT_S)
    # 0: every gate held; 1: a gate failed (reported as incorrect).
    if status not in (0, 1) or not os.path.exists(out):
        print(f"run.py: pipeline_e2e exited with {status}", file=sys.stderr)
        return 1

    with open(out) as f:
        result = json.load(f)["workloads"][args.workload]
    metrics = {}
    for m in wanted:
        measured = result["metrics"].get(m["name"])
        if measured is None:
            print(f"run.py: pipeline_e2e reported no {m['name']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": measured["median"], "unit": m["unit"]}
    print(json.dumps({"correct": status == 0 and result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
