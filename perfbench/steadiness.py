#!/usr/bin/env python3
"""Runs one workload N times with different seeds and reports spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workload er_analytics --runs 10
                                    [--sets 2] [--first-seed 1] [--seconds S]

For each end-to-end metric, setup_s included, it prints the median, the
quartiles (as statistics.quantiles(values, n=4) gives them), the spread
(upper minus lower quartile, as a share of the median), and the min and
max, against the metric's bound in BENCHMARK.json. It also prints the
share of failed operations of every run, which must be the same in all
of them. With --sets 2 or more, each set uses the next --runs seeds, and
every later set's medians are compared with the first set's: a median
may not be worse by more than the metric's bound.

Each run's line ends with the share of the machine's CPU time that the
hypervisor gave to other guests during it (steal, from /proc/stat), so a
slow run on a shared host can be told apart from a slow program.

Exits 0 only when every spread is within its bound, every later median
is within its bound of the first, and the failed shares are identical.
"""
import argparse
import json
import statistics
import subprocess
import sys


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_set(spec, workload, seeds, seconds):
    """Runs the workload once per seed; returns ({metric: [values]},
    [failed shares]), or None when a run fails or answers wrongly."""
    values, failed_shares = {}, []
    for seed in seeds:
        steal0, total0 = cpu_times()
        out = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        steal1, total1 = cpu_times()
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stderr, end="")
            print("seed %d: exit %d" % (seed, out.returncode))
            return None
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(out.stderr, end="")
            print("seed %d: incorrect answers" % seed)
            return None
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s steal=%.0f%%" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items()),
            100 * (steal1 - steal0) / max(1, total1 - total0)), flush=True)
    return values, failed_shares


def summarize(values, bounds):
    """Prints one line per metric; returns ({metric: median}, steady)."""
    print("%-24s %12s %12s %12s %8s %12s %12s %6s" % (
        "metric", "median", "q1", "q3", "spread", "min", "max", "bound"))
    medians, steady = {}, True
    for name, v in values.items():
        med = statistics.median(v)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            steady = steady and spread <= bound
        print("%-24s %12.5g %12.5g %12.5g %7.1f%% %12.5g %12.5g %6s %s" % (
            name, med, q1, q3, 100 * spread, min(v), max(v),
            "-" if bound is None else bound, verdict))
    return medians, steady


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    ok, all_shares, set_medians = True, set(), []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        print("== set %d: seeds %d-%d" % (k + 1, first, first + args.runs - 1))
        measured = run_set(spec, args.workload,
                           range(first, first + args.runs), seconds)
        if measured is None:
            return 1
        values, failed_shares = measured
        medians, steady = summarize(values, bounds)
        set_medians.append(medians)
        ok = ok and steady
        all_shares.update(failed_shares)
        print("failed share per run: %s" % sorted(set(failed_shares)))

    for k in range(1, len(set_medians)):
        print("== set %d against set 1" % (k + 1))
        for name, base in set_medians[0].items():
            now = set_medians[k][name]
            worse = (now - base) / base if better.get(name) == "lower" else (
                (base - now) / base)
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if worse <= bound else "WORSE THAN BOUND")
            ok = ok and (bound is None or worse <= bound)
            print("%-24s %12.5g %12.5g  worse by %+6.1f%%  bound %s %s" % (
                name, base, now, 100 * worse, bound, verdict))

    same = len(all_shares) == 1
    print("failed share over all runs: %s (%s)" % (
        sorted(all_shares), "identical" if same else "DIFFERS"))
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
