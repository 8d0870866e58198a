#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <entity_serving|durable_ingest|er_analytics>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the engine sources
it compiles) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.

An untraced run is PARTS processes in a row, each measuring for a share
of --seconds with the same seed, and reports each metric's median over
them. The same work varies between processes on this kind of host (memory
layout, which core a thread lands on) more than inside one: a longer
process does not average that out, more processes do. A traced run is a
single process.
"""
import json
import os
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
PARTS = 4


def run_part(command, deadline):
    """Runs one process; returns its JSON result, or None on failure."""
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("perfbench: %s exited %d" % (command[0], run.returncode),
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("perfbench: unreadable result: " + lines[-1], file=sys.stderr)
        return None


def combine(parts):
    """One result from several: each metric's median, summed counts."""
    metrics = {}
    for name, first in parts[0]["metrics"].items():
        values = [p["metrics"][name]["value"] for p in parts]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": metrics}


def main():
    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    # The build is not part of the run's time limit.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    flags = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    try:
        seconds = float(flags.get("--seconds", "10"))
    except ValueError:
        print("perfbench: --seconds must be a number", file=sys.stderr)
        return 2
    parts = 1 if flags.get("--trace") == "1" else PARTS
    command = [os.path.join(build, "perfbench"), "--data-dir",
               os.path.join(root, ".bench_build", "perfbench-data")]
    for flag, value in flags.items():
        if flag != "--seconds":
            command += [flag, value]
    command += ["--seconds", repr(seconds / parts)]

    results = []
    for k in range(parts):
        print("part %d of %d" % (k + 1, parts))
        result = run_part(command, deadline)
        if result is None:
            return 1
        results.append(result)
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
