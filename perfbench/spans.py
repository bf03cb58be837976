"""Spans around the calls into each layer of the compiler, taken from
outside the program.

A :class:`Tracer` wraps public functions and methods of :mod:`repro`
(by replacing them in every loaded ``repro`` module that binds them)
so that each call records one span: name, start, end and the span that
caused it.  Spans stay in memory; :meth:`Tracer.layer_table` turns them
into per-name counts, inclusive time and self time (a span's duration
minus the part its child spans cover), and :meth:`write_chrome_trace`
writes them as Chrome trace-event JSON.

Nothing here runs unless a traced run installs the tracer; untraced runs
never import the wrappers into the program.
"""

import functools
import json
import sys
import time
from collections import Counter

#: (span name, dotted owner, attribute, kind) for every layer boundary.
#: ``kind`` is "function" (module-level function, replaced wherever a
#: ``repro`` module binds it), "binding" (one module's name for it:
#: codegen as the platform calls it), "method" (one class attribute) or
#: "methods" (the attribute on the class and every subclass that
#: defines its own).
LAYER_CALLS = (
    ("lang.compile", "repro.lang.irgen", "compile_source", "function"),
    ("passes.run", "repro.passes.base:PassManager", "run", "method"),
    ("passes.phase", "repro.passes.base:Pass", "run_with_changes",
     "methods"),
    ("features.extract", "repro.features.extractor", "extract_features",
     "function"),
    ("features.extract", "repro.features.static_features",
     "extract_static_features", "function"),
    ("ir.fingerprint", "repro.ir.printer", "module_fingerprint",
     "function"),
    ("backend.codegen", "repro.sim.platform", "compile_module",
     "binding"),
    ("sim.profile", "repro.sim.platform:Platform", "profile", "method"),
    ("sim.tape_build", "repro.sim.tape:TapeSimulator", "__init__",
     "method"),
    ("sim.tape_run", "repro.sim.tape:TapeSimulator", "run", "method"),
    ("engine.evaluate", "repro.engine.engine:EvaluationEngine",
     "evaluate", "method"),
    ("engine.evaluate_batch", "repro.engine.engine:EvaluationEngine",
     "evaluate_batch", "method"),
    ("engine.profile_module", "repro.engine.engine:EvaluationEngine",
     "profile_module", "method"),
    ("engine.pe_objectives", "repro.engine.engine:EvaluationEngine",
     "predicted_objectives", "method"),
    ("engine.score_sequences", "repro.engine.engine:EvaluationEngine",
     "score_sequences", "method"),
    ("mlcomp.extract_data", "repro.pipeline:MLComp", "extract_data",
     "method"),
    ("mlcomp.train_estimator", "repro.pipeline:MLComp",
     "train_estimator", "method"),
    ("mlcomp.train_policy", "repro.pipeline:MLComp", "train_policy",
     "method"),
    ("mlcomp.optimize", "repro.pipeline:MLComp", "optimize", "method"),
    ("mlcomp.evaluate_workload", "repro.pipeline:MLComp",
     "evaluate_workload", "method"),
    ("profiling.extract", "repro.profiling.extractor:DataExtractor",
     "extract", "method"),
    ("pe.train", "repro.pe.estimator:PerformanceEstimator", "train",
     "method"),
    ("models.fit", "repro.models.base:Regressor", "fit", "methods"),
    ("rl.train", "repro.rl.reinforce:ReinforceTrainer", "train",
     "method"),
    ("rl.policy", "repro.rl.policy:PolicyNetwork", "forward", "method"),
    ("rl.policy", "repro.rl.policy:PolicyNetwork", "probabilities",
     "method"),
    ("rl.policy", "repro.rl.policy:PolicyNetwork", "gradients",
     "method"),
    ("rl.policy", "repro.rl.policy:PolicyNetwork", "apply_gradients",
     "method"),
    ("pss.deploy", "repro.pss.selector:PhaseSequenceSelector",
     "optimize", "method"),
)

#: Spans whose self time belongs to the engine layer.
ENGINE_SPANS = ("engine.evaluate", "engine.evaluate_batch",
                "engine.profile_module", "engine.pe_objectives",
                "engine.score_sequences")

#: The benchmark's own span around each measured operation.
OP_SPAN = "op"


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if name.startswith("repro") and module is not None]


def _subclasses(cls):
    pending, seen = [cls], []
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        #: span id -> (name, start, end, parent id or -1, detail)
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._functions = {}  # id(wrapped) -> (wrapped, original)

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs, detail=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        spans = self.spans
        stack = self._stack
        span_id = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[span_id] = (name, start, end, parent, detail)

    @staticmethod
    def span_cost_s(calls=20000, repeats=5):
        """Seconds one span adds to a call: a wrapped no-op against the
        bare no-op, best of ``repeats`` batches of ``calls`` each, on a
        tracer of its own."""
        def noop(*args, **kwargs):
            return None

        wrapped = Tracer()._wrapper("calibrate", noop)
        best = {}
        for function in (noop, wrapped) * repeats:
            started = time.perf_counter()
            for _ in range(calls):
                function(1)
            seconds = time.perf_counter() - started
            best[function] = min(best.get(function, seconds), seconds)
        return max(0.0, (best[wrapped] - best[noop]) / calls)

    def _wrapper(self, name, fn):
        tracer = self
        if name == "passes.phase":
            def wrapped(self_, *args, **kwargs):
                return tracer.call(name, fn, (self_,) + args, kwargs,
                                   detail=self_.pass_name)
        elif name == "models.fit":
            def wrapped(self_, *args, **kwargs):
                return tracer.call(name, fn, (self_,) + args, kwargs,
                                   detail=type(self_).__name__)
        elif name == "sim.tape_run":
            def wrapped(*args, **kwargs):
                result = tracer.call(name, fn, args, kwargs)
                tracer.counters["sim.instructions"] += \
                    result.instructions_executed
                return result
        else:
            def wrapped(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return functools.update_wrapper(wrapped, fn)

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every call in :data:`LAYER_CALLS`."""
        # Import every owner first, so that each module binding a
        # wrapped function is loaded before the bindings are swept.
        owners = [_resolve(owner_path)
                  for _, owner_path, _, _ in LAYER_CALLS]
        for (name, _, attribute, kind), owner in zip(LAYER_CALLS, owners):
            if kind == "function":
                self._patch_function(name, owner, attribute)
            elif kind in ("binding", "method"):
                self._set(owner, attribute, self._wrapper(
                    name, owner.__dict__[attribute]))
            else:
                for cls in _subclasses(owner):
                    if attribute in cls.__dict__:
                        self._set(cls, attribute, self._wrapper(
                            name, cls.__dict__[attribute]))
        return self

    def _patch_function(self, name, module, attribute):
        original = getattr(module, attribute)
        wrapped = self._wrapper(name, original)
        self._functions[id(wrapped)] = (wrapped, original)
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        # A module imported while the tracer was installed may have
        # bound a wrapped function under its own name.
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                entry = self._functions.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(loaded, key, entry[1])
        self._functions = {}

    # -- reporting ---------------------------------------------------------
    def self_times(self):
        """Each span's duration minus the time its children cover."""
        spans = self.spans
        self_time = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        return self_time

    def layer_table(self, first=0, last=None):
        """``{span name: {"count", "total_s", "self_s", "outer_count"}}``
        over the spans ``first:last`` (spans are numbered in start
        order).  ``total_s`` and ``outer_count`` cover only spans with no
        ancestor of the same name (a forest's fit, not its trees')."""
        spans = self.spans
        self_time = self.self_times()
        table = {}
        for index in range(first, len(spans) if last is None else last):
            name, start, end, parent, _ = spans[index]
            row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0,
                                          "outer_count": 0})
            row["count"] += 1
            row["self_s"] += self_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
                row["outer_count"] += 1
        return table

    def detail_table(self, name, first=0, last=None):
        """``{detail: [count, self seconds]}`` for the spans called
        ``name`` (details are phase names and model classes)."""
        spans = self.spans
        self_time = self.self_times()
        rows = {}
        for index in range(first, len(spans) if last is None else last):
            if spans[index][0] == name:
                row = rows.setdefault(spans[index][4], [0, 0.0])
                row[0] += 1
                row[1] += self_time[index]
        return rows

    def write_chrome_trace(self, path):
        origin = min((span[1] for span in self.spans), default=0.0)
        events = []
        for index, (name, start, end, parent, detail) in \
                enumerate(self.spans):
            args = {"id": index, "parent": parent}
            if detail is not None:
                args["detail"] = detail
            events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": args})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
