#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload cold_points --seed 1 \
        --seconds 15 --trace 0

Runs from the root of a checkout with no install step: it puts ``src/``
on the import path of the processes it starts.  Each process is a fresh,
single-threaded ``perfbench/child.py`` with ``REPRO_SIM_ENGINE``,
``REPRO_AUDIT_ANALYSES`` and ``REPRO_BENCH_RECORD`` removed from its
environment.

``--trace 0`` sets up ``SETUP_REPEATS`` times (each in its own process)
and measures once; the end-to-end metrics are printed.  ``--trace 1``
measures once with spans around every layer call and prints the
per-layer metrics plus the tracing overhead the traced process
estimates for itself.  The work of a run is fixed by the workload and
the seed; ``--seconds`` is the length it was sized to and is recorded,
never used as a time box.

The last line of standard output is the JSON result; everything else
goes to standard error.  Files go to ``.bench_out/`` in the checkout:
the result with one row per program and sequence, and for traced runs
the per-layer table and a Chrome trace file.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cold_points", "mlcomp_pipeline")
SETUP_REPEATS = 3
#: Whole-command budget; children share what is left of it.
DEADLINE_S = 175.0
SCRUBBED_VARIABLES = ("REPRO_SIM_ENGINE", "REPRO_AUDIT_ANALYSES",
                      "REPRO_BENCH_RECORD")


def _metric_units(kind):
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {metric["name"]: metric["unit"]
                for metric in json.load(f)[kind]}


class BenchmarkError(RuntimeError):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def git_sha():
    """The checkout's commit, read from ``.git`` without running git;
    ``None`` outside a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def child_environment():
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_VARIABLES}
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        # Bytecode goes under .bench_out, never into src/.
        "PYTHONPYCACHEPREFIX": os.path.join(OUT_ROOT, "pycache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(args, mode, out_path, deadline):
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--size", args.size, "--out", out_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the next process")
    log(f"[perfbench] {args.workload} seed={args.seed} {mode} ...")
    # Child output goes to our standard error, so that our standard
    # output ends with the result line alone.
    process = subprocess.Popen(command, cwd=ROOT, env=child_environment(),
                               stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = process.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} process ran out of time") from None
    finally:
        # Also on SIGTERM (turned into SystemExit by main): no child
        # outlives the runner.
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchmarkError(f"{mode} process exited with code {code}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def run(args):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        tag += "-" + args.size
    out_dir = os.path.join(OUT_ROOT, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    def child_path(name):
        return os.path.join(out_dir, name + ".json")

    if args.trace:
        main = run_child(args, "trace", child_path("trace"), deadline)
        units = _metric_units("per_layer")
        values = main["layers"]
        setup_times = [main["setup_s"]]
    else:
        setup_times = [
            run_child(args, "setup", child_path(f"setup{index}"),
                      deadline)["setup_s"]
            for index in range(SETUP_REPEATS - 1)]
        main = run_child(args, "measure", child_path("measure"), deadline)
        setup_times.append(main["setup_s"])
        units = _metric_units("end_to_end")
        values = dict(main, setup_s=statistics.median(setup_times))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": main["correct"], "attempted": main["attempted"],
               "failed": main["failed"], "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": main["numpy"],
        "pe_r2": main["pe_r2"],
        "setup_times_s": setup_times, "wall_s": main["wall_s"],
        "failures": main["failures"], "problems": main["problems"],
        "summary": summary, "rows": main["rows"],
    }
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for reason in main["failures"]:
        log(f"[perfbench] failed op: {reason}")
    for problem in main["problems"]:
        log(f"[perfbench] check failed: {problem}")
    log(f"[perfbench] {args.workload}: {main['attempted']} ops, "
        f"{main['failed']} failed, {main['wall_s']:.2f} s measured; "
        f"results in {os.path.relpath(out_dir, ROOT)}")
    return summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15,
                        help="nominal length the fixed work is sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="'tiny' is the self-test size")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        summary = run(args)
    except BenchmarkError as error:
        log(f"[perfbench] error: {error}")
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
