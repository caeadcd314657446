#!/usr/bin/env python3
"""Run one parcfl benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds parcfl and the benchmark program
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs reuse that build. The program then
writes the workload's inputs from --seed, runs it, checks every answer and
prints per-kind operation counts, the metrics table, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
exactly those BENCHMARK.json lists, in its units, on every workload. A
result line that does not match the manifest is not printed, and the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("batch-table1", "serve-hot", "serve-churn")
# Generating and running must end within 180 s; a build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "parcfl_serve"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def result_mismatch(line, trace):
    """Why `line` is not a result line for the manifest's metrics, or None."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"result line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys are {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, wrong unit {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed:", e)
        return 1

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    program = os.path.join(build_dir, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", run_dir]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        subprocess.run([program, "gen"] + common,
                       check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        run = subprocess.run(
            [program, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--bin-dir", build_dir],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed:", e)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        why = f"benchmark program exited with {run.returncode}"
    else:
        why = result_mismatch(lines[-1], args.trace)
    if why:
        # No result line on failure, whatever the program printed.
        body = [line for line in lines if not line.startswith("{")]
        sys.stdout.write("\n".join(body) + "\n")
        log(f"perfbench: {why}")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
