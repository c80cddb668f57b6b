#!/usr/bin/env python3
"""Runs one end-to-end benchmark workload and prints its result.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2e_bench/run.py --self-test

Builds the MineRule libraries and the mrbench program from source into
.bench_build/ at the repository root (incremental after the first run), then
runs mrbench once. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

setup_s (process start to the end of set-up) and peak_rss_mb (mrbench's
peak resident set, from wait4's rusage) are measured here, outside
mrbench. A traced run also writes its spans to .bench_out/.

--self-test builds and runs the output checker's own test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; output goes to stderr."""
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_mrbench(binary, args):
    """Runs mrbench; returns (setup_s, peak_rss_mb, result dict)."""
    start = time.monotonic()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and setup_s is None:
                setup_s = time.monotonic() - start
            elif line:
                lines.append(line)
    finally:
        proc.stdout.close()
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"mrbench exited with {proc.returncode}")
    if setup_s is None or not lines:
        raise RuntimeError("mrbench printed no result")
    # ru_maxrss is in KiB on Linux.
    return setup_s, usage.ru_maxrss / 1024.0, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        test = build("checker_test")
        return subprocess.run([test]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")

    binary = build("mrbench")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    setup_s, peak_rss_mb, result = run_mrbench(binary, bench_args)

    measured = dict(result["metrics"])
    metrics = {}
    if args.trace:
        unreached = []
        for m in spec["per_layer"]:
            if m["name"] in measured:
                metrics[m["name"]] = measured.pop(m["name"])
            else:
                # A layer or generated query this workload does not reach.
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
                unreached.append(m["name"])
        if unreached:
            log("not reached on this workload (reported as 0): " +
                ", ".join(unreached))
    else:
        measured["setup_s"] = {"value": setup_s, "unit": "s"}
        measured["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        for m in spec["end_to_end"]:
            if m["name"] not in measured:
                raise RuntimeError(f"mrbench did not report {m['name']}")
            metrics[m["name"]] = measured.pop(m["name"])
    if measured:
        log("measured but not in BENCHMARK.json: " + ", ".join(sorted(measured)))

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as error:
        log(f"run.py: {error}")
        sys.exit(1)
