#!/usr/bin/env python3
"""Runs one workload of the 2PCP end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds perfbench/ (a CMake project
of its own over the checkout's src/) into $CARGO_TARGET_DIR, or
.bench_build when that variable is unset, in a directory named after the
checkout's real path, so checkouts sharing one build root never build or
run each other's sources. The first run configures and compiles; later
runs only bring the build up to date. Then it runs the benchmark binary,
which generates the workload's inputs from --seed, measures for --seconds,
checks its outputs and prints its metrics as name: value. This script
keeps the metrics of the run's kind (end_to_end under --trace 0, per_layer
under --trace 1), takes their units from BENCHMARK.json, reports 0 for a
per-layer metric the workload does not exercise, prints the result line
and removes the run's scratch directory. It exits non-zero without
printing a result when the checkout cannot be built or the run fails.

Workloads: zo-outofcore, mc-incore, csf-dist, tpcpd-jobs.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "two_phase_cp.h")):
        fail("no library sources under ./src; run from the root of a checkout")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [] if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def to_result(root, trace, raw):
    """The contract's result line from the binary's name: value metrics."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail(f"metrics {unknown} are not defined in BENCHMARK.json")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"].get(m["name"])
        if value is None and not trace:
            fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value or 0.0, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run(binary, args, work_dir):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    # A session of its own, so a timeout can stop the binary and every dist
    # worker it forked.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{args.workload} exited with code {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    checkout = hashlib.sha1(os.path.realpath(root).encode()).hexdigest()[:12]
    build_dir = os.path.join(root, build_root, f"perfbench-{checkout}")
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        out = run(binary, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail("the benchmark printed no result line")
    result = to_result(root, args.trace, raw)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
