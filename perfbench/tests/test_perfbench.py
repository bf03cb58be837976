"""The benchmark's own tests: every workload at its tiny size runs to its
end and passes its checks, the traced run reports every per-layer metric,
BENCHMARK.json lists what the runner prints, and the runner refuses to
run without the program's sources.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from bench_workloads import (  # noqa: E402
    PINNED_POINTS,
    _promoted_before_ipsccp,
    random_sequences,
)
from spans import Tracer  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def units(kind):
    return {metric["name"]: metric["unit"] for metric in spec()[kind]}


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "15",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    document = spec()
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in document["workloads"]] == \
        list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = max(document["end_to_end"], key=lambda m: m["bound"])
    assert setup["name"] == "setup_s"


@pytest.mark.parametrize("workload, failed", [
    ("cold_points", len(PINNED_POINTS)),
    ("mlcomp_pipeline", 0),
])
def test_tiny_workload_runs_and_checks(workload, failed):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == failed
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} == \
        units("end_to_end")
    assert all(value["value"] > 0 for value in result["metrics"].values())
    tag = f"{workload}-seed3-trace0-tiny"
    with open(os.path.join(ROOT, ".bench_out", tag, "result.json"),
              encoding="utf-8") as f:
        record = json.load(f)
    assert record["seed"] == 3 and record["nproc"] >= 1
    assert record["python"] and record["numpy"]
    assert all(row["status"] in ("ok", "failed") for row in record["rows"])


def test_traced_run_reports_every_layer_metric():
    result = result_of(bench("cold_points", trace=1))
    assert result["correct"] is True
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} == \
        units("per_layer")
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    # Today every cold point parses its source once and compiles its
    # module twice (features, then the profile).
    assert metrics["lang.compiles"] == result["attempted"]
    assert metrics["backend.codegens_per_profile"] == 2.0
    assert metrics["sim.tape_builds"] > 0
    assert metrics["models.fits"] == 0 and metrics["rl.train_s"] == 0
    assert 0 < metrics["trace.overhead_pct"] < 50
    tag = os.path.join(ROOT, ".bench_out", "cold_points-seed3-trace1-tiny")
    with open(os.path.join(tag, "trace-spans.json"),
              encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert {"op", "sim.tape_build", "passes.phase"} <= \
        {event["name"] for event in events}


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("cold_points", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_random_sequences_are_distinct_and_avoid_the_ipsccp_trigger():
    phases = ["mem2reg", "sroa", "ipsccp", "gvn", "dce", "inline"]
    sequences = random_sequences(random.Random(7), phases, 40)
    assert len(set(sequences)) == 40
    assert all(2 <= len(sequence) <= 12 for sequence in sequences)
    assert not any(_promoted_before_ipsccp(s) for s in sequences)
    assert sequences == random_sequences(random.Random(7), phases, 40)
    assert _promoted_before_ipsccp(("sroa", "gvn", "ipsccp"))
    assert not _promoted_before_ipsccp(("ipsccp", "mem2reg"))


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner, (), {}) + 1

    tracer.call("outer", outer, (), {})
    tracer.call("outer", outer, (), {})
    table = tracer.layer_table()
    assert table["outer"]["count"] == 2 and table["inner"]["count"] == 2
    covered = table["outer"]["self_s"] + table["inner"]["self_s"]
    assert covered == pytest.approx(table["outer"]["total_s"])
    assert table["outer"]["self_s"] < table["outer"]["total_s"]
    assert tracer.layer_table(first=2)["outer"]["count"] == 1


def test_uninstall_restores_every_binding():
    import repro.lang.irgen
    import repro.workloads.registry
    from repro.passes import PassManager
    from repro.sim.platform import Platform

    originals = (repro.lang.irgen.compile_source, PassManager.run,
                 Platform.profile)
    tracer = Tracer().install()
    assert repro.workloads.registry.compile_source is not originals[0]
    module = repro.workloads.registry.compile_source(
        "int main() { print_int(6 * 7); return 0; }")
    PassManager().run(module, ["mem2reg"])
    tracer.uninstall()
    assert {"lang.compile", "passes.run", "passes.phase"} <= \
        set(tracer.layer_table())
    assert repro.workloads.registry.compile_source is originals[0]
    assert (PassManager.run, Platform.profile) == originals[1:]
