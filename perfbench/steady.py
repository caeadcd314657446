#!/usr/bin/env python3
"""Check that the benchmark is steady on one build.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads batch-table1,serve-hot,...]

Runs each workload --runs times through perfbench/run.py, each with another
seed, and prints for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json, setup_s included. A spread at
or above a third of its bound is marked, one above the bound fails. Also
prints each run's failed/attempted share, which must be the same in every
run of a workload, the run's figures that are printed but not gated, and
its individual set-up times. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            began = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            last = out.stdout.strip().splitlines()[-1:] or [""]
            if out.returncode != 0 or not last[0].startswith("{"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {out.returncode})")
                ok = False
                continue
            result = json.loads(last[0])
            shares.append((result["failed"], result["attempted"]))
            print(f"{workload} seed {seed} "
                  f"({time.monotonic() - began:.0f} s): "
                  f"correct={result['correct']} "
                  f"failed/attempted={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for line in out.stdout.splitlines():
                if ("(printed only" in line or "set-ups" in line
                        or line.startswith("pass ")):
                    print("    " + line, flush=True)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        ratios = {f / a for f, a in shares}
        if len(ratios) > 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            ok = False
        for name, xs in values.items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread >= bound / 3:
                mark = "  <-- spread >= bound/3"
                if spread > bound:
                    ok = False
            print(f"  {workload:13s} {name:22s} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:6.3f} "
                  f"bound={bound}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
