#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and quartiles.

    python3 e2e_bench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]
                                [--trace 0|1] [--set NAME] [--compare NAME]

Each (workload, seed) pair is one run of run.py, one after another. For every
metric the script prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. With --trace 0 it also prints
the metric's bound from BENCHMARK.json and flags a spread above a third of
it. The raw results go to .bench_out/spread-<workload>-trace<t>-<set>.json.

--compare NAME also prints, per metric, the median of an earlier set saved
under NAME and the relative difference of this set's median from it, and
flags an end-to-end metric that is worse than that median by more than its
bound; the failed shares of the two sets must be equal. With --seeds ""
nothing is run and the saved file of --set is read instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def parse_seeds(text):
    if not text:
        return []
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--set", default="a")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(OUT_DIR, exist_ok=True)

    def saved(workload, name):
        return os.path.join(
            OUT_DIR, f"spread-{workload}-trace{args.trace}-{name}.json")

    ok = True
    for workload in args.workloads.split(","):
        seeds = parse_seeds(args.seeds)
        results = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited with "
                      f"{proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            ok = ok and result["correct"]
        if seeds:
            with open(saved(workload, args.set), "w") as f:
                json.dump(results, f, indent=1)
        elif os.path.exists(saved(workload, args.set)):
            with open(saved(workload, args.set)) as f:
                results = json.load(f)
        if not results:
            continue
        other = []
        if args.compare:
            with open(saved(workload, args.compare)) as f:
                other = json.load(f)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, correct "
              f"{all(r['correct'] for r in results)}, failed share {shares}")
        if other:
            other_shares = sorted({r["failed"] / r["attempted"] for r in other})
            print(f"  set {args.compare}: {len(other)} runs, failed share "
                  f"{other_shares}")
            if other_shares != shares:
                print("  failed shares differ")
                ok = False
        header = (f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>7} {'bound':>6}")
        if other:
            header += f" {args.compare + ' median':>14} {'diff':>7}"
        print(header)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flags = []
            if bound is not None and spread > bound / 3:
                flags.append("spread above bound/3")
            line = (f"  {name:34} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                    f"{spread:7.3f} {bound if bound is not None else '':>6}")
            if other:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in other)
                diff = (median - before) / before if before else 0.0
                line += f" {before:14.5g} {diff:+7.3f}"
                worse = diff if better.get(name) == "lower" else -diff
                if bound is not None and worse > bound:
                    flags.append("worse than the other set by more than bound")
                    ok = False
            print(line + ("  " + "; ".join(flags) if flags else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
