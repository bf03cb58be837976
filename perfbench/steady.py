#!/usr/bin/env python3
"""Steadiness checks for the benchmark.

    python3 perfbench/steady.py repeat --workload cold_points --seed 3
    python3 perfbench/steady.py spread --workload cold_points --seeds 1 2 3 4 5

``repeat`` runs one workload ``2 * RUNS_PER_SET`` times with the same
seed, alternating between two sets.  The counts, the failed operations,
the quality ratios and ``pe_r2`` must repeat exactly in every run, and
for every timed end-to-end metric the median of the second set must be
within the metric's bound of the first set's median.  ``spread`` runs
one seed after another and prints, per end-to-end metric, the median and
the distance between the first and third quartile as a share of the
median, next to the metric's bound (the spread should stay under a third
of it).  Both exit non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("time_ratio", "energy_ratio", "size_ratio")
TIMED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")
#: Runs in each of ``repeat``'s two sets.
RUNS_PER_SET = 3


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def run_once(workload, seed):
    """One untraced run: (printed summary, stored result record)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True)
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out",
                           f"{workload}-seed{seed}-trace0", "result.json"),
              encoding="utf-8") as f:
        return summary, json.load(f)


def exact_values(summary, record):
    """What must be identical from run to run of one seed."""
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"], "failures": record["failures"],
            "pe_r2": record["pe_r2"],
            **{name: summary["metrics"][name]["value"] for name in EXACT}}


def repeat(args):
    spec = bounds()
    sets = ([], [])
    for index in range(2 * RUNS_PER_SET):
        summary, record = run_once(args.workload, args.seed)
        sets[index % 2].append((summary, record))
        print(f"run {index + 1} (set {index % 2 + 1}): " + " ".join(
            f"{name}={summary['metrics'][name]['value']:.4f}"
            for name in TIMED), flush=True)
    problems = []
    reference = exact_values(*sets[0][0])
    for summary, record in sets[0][1:] + sets[1]:
        values = exact_values(summary, record)
        problems.extend(f"{key}: {reference[key]} then {values[key]}"
                        for key in reference
                        if values[key] != reference[key])
    for name in TIMED:
        first, second = (
            statistics.median(summary["metrics"][name]["value"]
                              for summary, _ in runs)
            for runs in sets)
        change = abs(second - first) / first
        line = (f"{name:12s} median {first:12.4f} then {second:12.4f} "
                f"change {change:6.3f} bound {spec[name]['bound']:.3f}")
        print(line)
        if change > spec[name]["bound"]:
            problems.append(line)
    print(" ".join(f"{key} {value}" for key, value in reference.items()
                   if key != "failures"))
    for problem in problems:
        print("NOT REPEATED:", problem)
    return 1 if problems else 0


def spread(args):
    spec = bounds()
    runs = []
    for seed in args.seeds:
        summary, _ = run_once(args.workload, seed)
        runs.append(summary)
        print(f"seed {seed}: attempted {summary['attempted']} failed "
              f"{summary['failed']} " + " ".join(
                  f"{name}={value['value']:.4f}"
                  for name, value in summary["metrics"].items()),
              flush=True)
    problems = []
    shares = {(run["failed"], run["attempted"]) for run in runs}
    if len({failed / attempted for failed, attempted in shares}) > 1:
        problems.append(f"failed share differs between seeds: {shares}")
    for name, metric in spec.items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        verdict = "ok"
        if share > metric["bound"]:
            verdict = "OVER BOUND"
            problems.append(name)
        elif share > metric["bound"] / 3:
            verdict = "over a third of the bound"
        print(f"{name:12s} median {median:12.4f} spread {share:6.3f} "
              f"bound {metric['bound']:.3f} {verdict}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    one = commands.add_parser("repeat")
    one.add_argument("--seed", type=int, default=1)
    many = commands.add_parser("spread")
    many.add_argument("--seeds", type=int, nargs="+",
                      default=list(range(1, 11)))
    for sub in (one, many):
        sub.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    return repeat(args) if args.command == "repeat" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
