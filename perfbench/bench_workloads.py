"""The benchmark's two workloads.

Each workload class makes its inputs from the seed in ``setup`` (which
also computes every program's reference behaviour), runs a fixed amount
of work in ``run`` and checks what it can only check afterwards in
``check``.  ``run`` and ``check`` fill ``self.rows`` (one row per program
and sequence) and ``self.ops`` (one entry per operation: seconds, and a
failure reason or ``None``).

Reference behaviour comes from :func:`repro.ir.run_module` on
``compile_source(source)``: the -O0 IR interpreted directly, with no
pass, no backend and no simulator involved.
"""

import math
import random
import time

from spans import OP_SPAN

#: Simulator fuel for ``cold_points``: far below the engine's 20M
#: default, well above the largest -O0 run (~115k instructions), so a
#: point that never terminates fails in well under a second.
COLD_FUEL = 1_000_000

#: A random sequence with an SSA promoter (mem2reg or sroa) somewhere
#: before ipsccp can hit the known ipsccp fault (see README.md), which
#: would make the failure count depend on the seed.  Such sequences are
#: redrawn; the fault itself is measured by the pinned points below.
_PROMOTERS = ("mem2reg", "sroa")

#: Points that fail every run because of the ipsccp fault: after
#: mem2reg, ipsccp folds a loop-carried phi whose back-edge value is the
#: result of a call to an internal function down to its entry constant.
PINNED_POINTS = (
    ("x86", "multi", "dsp_chain", ("mem2reg", "ipsccp")),
    ("x86", "multi", "fixed_geometry", ("mem2reg", "ipsccp")),
)


class BenchmarkSetupError(RuntimeError):
    """The reference computations disagree; nothing can be measured."""


def reference_behaviour(workload):
    """(printed output, return value) of the -O0 IR interpreter."""
    from repro.ir import run_module
    from repro.lang import compile_source

    result = run_module(compile_source(workload.source,
                                       module_name=workload.name))
    return tuple(result.output), result.return_value


def output_problem(result, expected):
    """``None`` when an evaluated point behaves like the reference,
    else a one-line reason."""
    output, return_value = expected
    if tuple(result.output) != output:
        return f"output {list(result.output)} != -O0 {list(output)}"
    if result.return_value != return_value:
        return (f"return value {result.return_value} != -O0 "
                f"{return_value}")
    return None


def quality_ratios(result, baseline):
    metrics, base = result.metrics(), baseline.metrics()
    return {"time_ratio": metrics["exec_time_us"] / base["exec_time_us"],
            "energy_ratio": metrics["energy_uj"] / base["energy_uj"],
            "size_ratio": result.code_size / baseline.code_size}


def geometric_mean(values):
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def _reason(error):
    return f"{type(error).__name__}: {error}"[:300]


class Workload:
    name = "<abstract>"
    #: Named sizes: "full" is the benchmark, "tiny" the self-test.
    SIZES = {}

    def __init__(self, seed, size="full"):
        self.seed = seed
        self.size = dict(self.SIZES[size])
        self.rows = []
        self.ops = []          # [seconds, failure reason or None]
        self.problems = []     # checks that make the run incorrect
        self.pe_r2 = 0.0
        self.engines = []

    def _op(self, tracer, fn):
        """Time one operation (inside an ``op`` span when traced)."""
        started = time.perf_counter()
        try:
            if tracer is None:
                value = fn()
            else:
                value = tracer.call(OP_SPAN, fn, (), {})
        except Exception as error:  # noqa: BLE001 - a failed op is data
            self.ops.append([time.perf_counter() - started,
                             _reason(error)])
            return None
        self.ops.append([time.perf_counter() - started, None])
        return value

    def ratios(self):
        """Geometric means of the quality ratios over the successful
        rows."""
        good = [row for row in self.rows if row["status"] == "ok"]
        return {key: geometric_mean(row[key] for row in good)
                for key in ("time_ratio", "energy_ratio", "size_ratio")}

    def check(self):
        pass


class ColdPoints(Workload):
    """Distinct (program, random phase sequence) points on fresh
    engines: the cold regime a search pays for."""

    name = "cold_points"
    SIZES = {"full": {"per_program": 6, "cross_check": 12},
             "tiny": {"per_program": 1, "cross_check": 2}}
    GROUPS = (("riscv", ("beebs", "earlyexit")),
              ("x86", ("parsec", "multi")))

    def setup(self):
        from repro.engine import EvaluationEngine
        from repro.passes import available_phases
        from repro.sim import Platform
        from repro.workloads import load_suite, load_workload

        phases = available_phases()
        self.expected = {}
        self.baselines = {}
        self.points = []  # (isa, workload, sequence)
        for isa, suites in self.GROUPS:
            rng = random.Random(f"cold_points:{self.seed}:{isa}")
            # Baselines come from an engine of their own, so the
            # measured engines start empty.
            baseline_engine = EvaluationEngine(Platform(isa),
                                               fuel=COLD_FUEL)
            group = []
            for suite in suites:
                for workload in load_suite(suite):
                    self._reference(isa, workload, baseline_engine)
                    group.extend(
                        (isa, workload, sequence)
                        for sequence in random_sequences(
                            rng, phases, self.size["per_program"]))
            rng.shuffle(group)
            self.points.extend(group)
        for isa, suite, program, sequence in PINNED_POINTS:
            self.points.append((isa, load_workload(suite, program),
                                sequence))
        self.engine_for = {isa: EvaluationEngine(Platform(isa),
                                                 fuel=COLD_FUEL)
                           for isa, _ in self.GROUPS}
        self.engines = list(self.engine_for.values())

    def _reference(self, isa, workload, engine):
        expected = reference_behaviour(workload)
        baseline = engine.evaluate(workload, ())
        problem = output_problem(baseline, expected)
        if problem is not None:
            raise BenchmarkSetupError(
                f"{workload.name} at -O0 on {isa}: {problem}")
        if baseline.metrics()["instructions"] * 4 > COLD_FUEL:
            raise BenchmarkSetupError(
                f"{workload.name} at -O0 needs more than a quarter of "
                f"the fuel bound")
        self.expected[workload.name] = expected
        self.baselines[(isa, workload.name)] = baseline

    def run(self, tracer=None):
        self.results = []
        for isa, workload, sequence in self.points:
            engine = self.engine_for[isa]
            result = self._op(tracer, lambda: engine.evaluate(
                workload, sequence))
            row = {"isa": isa, "suite": workload.suite,
                   "program": workload.name, "sequence": list(sequence),
                   "seconds": self.ops[-1][0]}
            if result is not None:
                problem = output_problem(result,
                                         self.expected[workload.name])
                if problem is not None:
                    self.ops[-1][1] = problem
                else:
                    row.update(quality_ratios(
                        result, self.baselines[(isa, workload.name)]))
                    self.results.append((isa, workload, sequence,
                                         result))
            row["status"] = "failed" if self.ops[-1][1] else "ok"
            row["reason"] = self.ops[-1][1]
            self.rows.append(row)

    def check(self):
        """Re-profile a seeded sample with the reference simulator."""
        from repro.lang import compile_source
        from repro.passes import PassManager
        from repro.sim import Platform

        rng = random.Random(f"cold_points:{self.seed}:cross-check")
        count = min(self.size["cross_check"], len(self.results))
        for isa, workload, sequence, result in rng.sample(self.results,
                                                          count):
            module = compile_source(workload.source,
                                    module_name=workload.name)
            PassManager().run(module, list(sequence))
            reference = Platform(isa, sim_engine="seed").profile(
                module, fuel=COLD_FUEL)
            seen = (float(reference.cycles), reference.instructions,
                    reference.code_size, tuple(reference.output),
                    reference.return_value)
            wanted = (result.cycles, result.metrics()["instructions"],
                      result.code_size, result.output,
                      result.return_value)
            if seen != wanted:
                self.problems.append(
                    f"seed simulator disagrees on {isa}/{workload.name} "
                    f"{list(sequence)}: {seen[:3]} != {wanted[:3]}")


def random_sequences(rng, phases, count):
    """``count`` distinct random sequences of 2-12 phases."""
    chosen = []
    while len(chosen) < count:
        sequence = tuple(rng.choice(phases)
                         for _ in range(rng.randint(2, 12)))
        if sequence in chosen or _promoted_before_ipsccp(sequence):
            continue
        chosen.append(sequence)
    return chosen


def _promoted_before_ipsccp(sequence):
    promoted = False
    for phase in sequence:
        if phase in _PROMOTERS:
            promoted = True
        elif phase == "ipsccp" and promoted:
            return True
    return False


class MlcompPipeline(Workload):
    """The four MLComp steps at the ``python -m repro mlcomp`` defaults.

    Extraction and PE training keep the command's fixed seed 0: Alg. 1
    stops at the first model above its accuracy threshold, so the PE
    step's cost moves by a third with the data.  The benchmark seed is
    the policy-training seed, so it changes the trained policy and the
    deployed code.
    """

    name = "mlcomp_pipeline"
    SIZES = {"full": {"workloads": 8, "sequences": 8, "episodes": 24,
                      "batch": 6, "max_seq": 8},
             "tiny": {"workloads": 2, "sequences": 1, "episodes": 2,
                      "batch": 2, "max_seq": 3}}

    def setup(self):
        from repro.pipeline import MLComp  # noqa: F401 - timed import
        from repro.workloads import load_suite

        self.programs = load_suite("beebs")[:self.size["workloads"]]
        self.expected = {workload.name: reference_behaviour(workload)
                         for workload in self.programs}

    def run(self, tracer=None):
        self.mlcomp = None
        self._op(tracer, self._pipeline)
        if self.ops[-1][1] is not None:
            self.rows.append({"program": None, "sequence": None,
                              "status": "failed",
                              "reason": self.ops[-1][1]})

    def _pipeline(self):
        from repro.pipeline import MLComp
        from repro.rl import TrainingConfig

        size = self.size
        mlcomp = self.mlcomp = MLComp(target="riscv")
        self.engines = [mlcomp.engine]
        mlcomp.workloads = mlcomp.workloads[:size["workloads"]]
        mlcomp.extract_data(n_sequences=size["sequences"])
        mlcomp.train_estimator(mode="fast")
        mlcomp.train_policy(config=TrainingConfig(
            num_episodes=size["episodes"], batch_size=size["batch"],
            max_sequence_length=size["max_seq"], seed=self.seed))
        problems = []
        for workload in mlcomp.workloads:
            module = workload.compile()
            applied = mlcomp.optimize(module)
            result = mlcomp.engine.profile_module(module)
            baseline = mlcomp.evaluate_workload(workload, sequence=[])
            problem = output_problem(result,
                                     self.expected[workload.name])
            row = {"isa": "riscv", "suite": workload.suite,
                   "program": workload.name, "sequence": applied,
                   "status": "failed" if problem else "ok",
                   "reason": problem}
            if problem is None:
                row.update(quality_ratios(result, baseline))
            else:
                problems.append(f"{workload.name}: {problem}")
            self.rows.append(row)
        if problems:
            raise RuntimeError("; ".join(problems))

    def check(self):
        """Every extraction point must behave like the reference."""
        from repro.profiling import extraction_sequences

        mlcomp = self.mlcomp
        if mlcomp is None or self.ops[-1][1] is not None:
            return
        self.pe_r2 = sum(report["r2"]
                         for report in mlcomp.estimator.report.values()
                         ) / len(mlcomp.estimator.report)
        problems = []
        for sequence in extraction_sequences(self.size["sequences"]):
            for workload in mlcomp.workloads:
                try:
                    result = mlcomp.engine.evaluate(workload, sequence)
                except Exception as error:  # noqa: BLE001 - reported
                    problems.append(f"{workload.name} {list(sequence)}:"
                                    f" {_reason(error)}")
                    continue
                problem = output_problem(result,
                                         self.expected[workload.name])
                if problem is not None:
                    problems.append(f"{workload.name} {list(sequence)}:"
                                    f" {problem}")
        if problems:
            self.ops[-1][1] = "extraction: " + "; ".join(problems)[:280]


WORKLOADS = {cls.name: cls
             for cls in (ColdPoints, MlcompPipeline)}
