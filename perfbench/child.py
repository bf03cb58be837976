"""One workload in one fresh process: set up, then optionally measure.

    python3 perfbench/child.py --workload NAME --seed N \
        --mode {setup,measure,trace} --out RESULT.json [--size tiny]

``setup`` only times the set-up; ``measure`` also runs the workload's
fixed work untraced; ``trace`` installs the span recorder before set-up
and also writes the per-layer table and a Chrome trace file next to
``--out``.  The result is written as JSON to ``--out``.  ``run.py``
starts this script with a clean environment; it is not meant to be run
by hand.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_workloads import WORKLOADS  # noqa: E402
from spans import ENGINE_SPANS, OP_SPAN, Tracer  # noqa: E402


def percentile(values, fraction):
    """Nearest-rank percentile (a value that was measured)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def tape_counts():
    from repro.sim import tape_cache_stats

    stats = tape_cache_stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def engine_counts(engines):
    totals = {"compose_hits": 0, "compose_misses": 0, "pe_hits": 0,
              "pe_misses": 0}
    for engine in engines:
        stats = engine.stats()
        totals["compose_hits"] += stats["compose"]["hits"]
        totals["compose_misses"] += stats["compose"]["misses"]
        totals["pe_hits"] += stats["pe"]["hits"]
        totals["pe_misses"] += stats["pe"]["misses"]
    return totals


def _delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after}


def _rate(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer, first, last, counters, wall_s, tape, engines):
    """Per-layer metrics over the spans ``first:last`` (one phase of the
    run)."""
    table = tracer.layer_table(first, last)

    def row(name):
        return table.get(name, {"count": 0, "total_s": 0.0,
                                "self_s": 0.0, "outer_count": 0})

    def self_s(*names):
        return sum(row(name)["self_s"] for name in names)

    covered = sum(values["self_s"] for name, values in table.items()
                  if name != OP_SPAN)
    profiles = row("sim.profile")["count"]
    codegens = row("backend.codegen")["count"]
    forest_s = sum(end - start for name, start, end, _, detail
                   in tracer.spans[first:last]
                   if name == "models.fit"
                   and detail == "RandomForestRegressor")
    return {
        "sim.tape_build_s": self_s("sim.tape_build"),
        "sim.tape_run_s": self_s("sim.tape_run"),
        "sim.tape_builds": tape["misses"],
        "sim.tape_hit_rate": _rate(tape["hits"], tape["misses"]),
        "sim.instructions": counters.get("sim.instructions", 0),
        "backend.codegen_s": self_s("backend.codegen"),
        "backend.codegens": codegens,
        "backend.codegens_per_profile":
            codegens / profiles if profiles else 0.0,
        "lang.compile_s": self_s("lang.compile"),
        "lang.compiles": row("lang.compile")["count"],
        "passes.run_s": row("passes.run")["total_s"],
        "passes.runs": row("passes.run")["count"],
        "passes.phase_run_s": self_s("passes.phase"),
        "features.extract_s": self_s("features.extract"),
        "ir.fingerprint_s": self_s("ir.fingerprint"),
        "engine.pe_objectives_s": row("engine.pe_objectives")["total_s"],
        "engine.pe_hit_rate": _rate(engines["pe_hits"],
                                    engines["pe_misses"]),
        "engine.compose_hits": engines["compose_hits"],
        "engine.compose_misses": engines["compose_misses"],
        "engine.self_s": self_s(*ENGINE_SPANS),
        "profiling.extract_s": row("profiling.extract")["total_s"],
        "pe.train_s": row("pe.train")["total_s"],
        "models.fit_s": row("models.fit")["total_s"],
        "models.fits": row("models.fit")["outer_count"],
        "models.forest_fit_s": forest_s,
        "rl.train_s": row("rl.train")["total_s"],
        "rl.policy_s": self_s("rl.policy"),
        "pss.deploy_s": row("pss.deploy")["total_s"],
        "trace.unattributed_s": wall_s - covered,
    }


def layer_report(tracer, first, last, title):
    """Plain-text table of count, inclusive and self time per span, and
    self time per optimization phase."""
    lines = [title, f"{'span':28s} {'count':>8s} {'total_s':>10s} "
                    f"{'self_s':>10s}"]
    table = tracer.layer_table(first, last)
    for name, values in sorted(table.items(),
                               key=lambda item: -item[1]["self_s"]):
        lines.append(f"{name:28s} {values['count']:8d} "
                     f"{values['total_s']:10.4f} {values['self_s']:10.4f}")
    phases = tracer.detail_table("passes.phase", first, last)
    if phases:
        lines.append(f"\n{'phase':28s} {'count':>8s} {'self_s':>10s}")
        for phase, (count, seconds) in sorted(
                phases.items(), key=lambda item: -item[1][1]):
            lines.append(f"{phase:28s} {count:8d} {seconds:10.4f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer().install() if args.mode == "trace" else None
    setup_started = time.perf_counter()
    workload.setup()
    setup_ended = time.perf_counter()
    result = {"setup_s": setup_ended - _STARTED}
    if args.mode != "setup":
        result.update(measure(workload, tracer, setup_started,
                              setup_ended, args.out))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


def measure(workload, tracer, setup_started, setup_ended, out_path):
    setup_spans = len(tracer.spans) if tracer else 0
    setup_counters = dict(tracer.counters) if tracer else {}
    tape_setup = tape_counts()
    engines_setup = engine_counts(workload.engines)
    started = time.perf_counter()
    workload.run(tracer)
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    tape_run = _delta(tape_counts(), tape_setup)
    engines_run = _delta(engine_counts(workload.engines), engines_setup)
    workload.check()
    ops = workload.ops
    seconds = [op[0] for op in ops]
    result = {
        "wall_s": wall_s,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[1] is not None),
        "failures": sorted({op[1] for op in ops if op[1] is not None}),
        "problems": workload.problems,
        "ops_per_s": len(ops) / wall_s,
        "op_p50_ms": percentile(seconds, 0.5) * 1e3,
        "op_p90_ms": percentile(seconds, 0.9) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pe_r2": workload.pe_r2,
        "numpy": sys.modules["numpy"].__version__,
        "rows": workload.rows,
    }
    result.update(workload.ratios())
    result["correct"] = not workload.problems and all(
        result[key] > 0 for key in ("time_ratio", "energy_ratio",
                                    "size_ratio"))
    if tracer is not None:
        counters = dict(tracer.counters)
        run_counters = _delta(counters, setup_counters)
        phases = (
            ("setup.", 0, setup_spans, setup_counters,
             setup_ended - setup_started, tape_setup, engines_setup),
            ("", setup_spans, len(tracer.spans), run_counters, wall_s,
             tape_run, engines_run))
        layers = {}
        reports = []
        for prefix, first, last, phase_counters, phase_wall, tape, \
                engines in phases:
            for name, value in layer_metrics(
                    tracer, first, last, phase_counters, phase_wall, tape,
                    engines).items():
                layers[prefix + name] = value
            reports.append(layer_report(
                tracer, first, last,
                f"[{prefix or 'run.'}] {last - first} spans, "
                f"{phase_wall:.3f} s"))
        # The spans' own cost, estimated in this process: the time one
        # span adds to a call times the spans of the timed part, against
        # the time the part would have taken without them.
        overhead_s = Tracer.span_cost_s() * (len(tracer.spans)
                                             - setup_spans)
        layers["trace.overhead_pct"] = \
            100.0 * overhead_s / (wall_s - overhead_s)
        layers["pe_r2"] = workload.pe_r2
        result["layers"] = layers
        base = os.path.splitext(out_path)[0]
        with open(base + "-layers.txt", "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(reports) + "\n")
        tracer.write_chrome_trace(base + "-spans.json")
    return result


if __name__ == "__main__":
    sys.exit(main())
