#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steadiness.py --runs 10 [--workload exact ...] [--seed 1000]

Runs perfbench/run.py --runs times per set and workload, each run with its
own seed (set one takes seeds seed..seed+runs-1, set two the next runs), at
the run length of BENCHMARK.json. Prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (quartile distance over
the median), and the drift of the second median against the first in the
metric's worse direction, next to the metric's bound. A spread or drift
above the bound is marked.
Also compares the share of failed operations between the sets.
Run it from the repository root; it exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit("incorrect output: %s seed %d" % (workload, seed))
    return result, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", help="workload(s); default all")
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        shares = []
        walls = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = args.seed + s * args.runs + i
                result, wall = run_once(spec, workload, seed)
                results.append(result)
                walls.append(wall)
                print("%s set %d seed %d: %s (%.0f s)" % (
                    workload, s + 1, seed,
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()),
                    wall), flush=True)
            sets.append(results)
            shares.append(sorted({r["failed"] / r["attempted"] for r in results}))
        print("\n%s: %d runs per set, run wall %.0f-%.0f s" % (
            workload, args.runs, min(walls), max(walls)))
        print("%-12s %-34s %-34s %7s %7s %7s %6s" % (
            "metric", "set 1 median [q1, q3]", "set 2 median [q1, q3]",
            "spread1", "spread2", "drift", "bound"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = []
            spreads = []
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
                row.append("%.6g [%.6g, %.6g]" % (q2, q1, q3))
            change = (medians[1] - medians[0]) / medians[0]
            drift = change if metric["better"] == "lower" else -change
            bound = metric["bound"]
            flag = "  SPREAD>BOUND" if max(spreads) > bound else ""
            flag += "  DRIFT>BOUND" if drift > bound else ""
            ok = ok and not flag
            print("%-12s %-34s %-34s %7.4f %7.4f %+7.4f %6.3f%s" % (
                name, row[0], row[1], spreads[0], spreads[1], drift, bound, flag))
        same = len({tuple(x) for x in shares}) == 1 and all(len(x) == 1 for x in shares)
        print("failed share per set: %s%s\n" % (shares, "" if same else "  DIFFERS"))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
