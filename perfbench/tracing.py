"""Benchmark-side spans around every call the benchmark makes into a
layer of the compiler.

Nothing in ``src/`` is changed: :func:`install` wraps the layers'
public functions and constructors from the outside and
:func:`uninstall` puts the originals back.  Each wrapper records a
span (name, start, end, parent) into one in-memory :class:`Recorder`;
a layer's *self time* is its spans' durations minus the part covered
by their child spans, so a pass's time excludes the flow graphs,
use-def chains, liveness sets and dependence graphs it builds.

A wrapper records only while a span is already open (the benchmark
opens one per timed operation), so work outside the benchmark's own
spans is never counted.  Inside a ``titan.*`` span nothing nests: the flow
graphs an execution engine builds are simulator work, not analysis.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

from . import common

#: Pipeline-hook pass names that map to a layer other than ``opt``.
_PASS_SPANS = {
    "inline": "inline",
    "if-convert": "vectorize.if-convert",
    "vectorize": "vectorize",
    "list-parallel": "vectorize.list-parallel",
    "reg-pipeline": "sched.reg-pipeline",
    "schedule": "sched.schedule",
    "strength": "sched.strength",
}

#: The recorder the installed wrappers feed, and the process that
#: installed them (a forked service worker has another pid).
_active = None
_installer_pid = None


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans = []        # [id, parent id, name, start, end]
        self.stack = []
        self.self_s = collections.Counter()
        self.counts = collections.Counter()
        self.cycles = []

    def nested(self) -> bool:
        """True when a wrapper should record: some span is open and
        it is not a simulator span."""
        return bool(self.stack) and \
            not self.stack[-1][2].startswith("titan.")

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        """Close ``span`` and any span left open above it (a pass that
        raised never delivers its ``after_pass``)."""
        end = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            top[4] = end
            duration = end - top[3]
            self.self_s[top[2]] += duration
            self.counts[top[2] + ".spans"] += 1
            if self.stack:
                self.self_s[self.stack[-1][2]] -= duration
            if top is span:
                return

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def export(self) -> dict:
        return {"spans": self.spans, "self_s": dict(self.self_s),
                "counts": dict(self.counts), "cycles": self.cycles}

    def absorb(self, exported: dict) -> None:
        """Fold in a recorder exported by another process (a service
        worker or a CLI child): its roots stay roots here."""
        base = len(self.spans)
        for sid, parent, name, start, end in exported["spans"]:
            self.spans.append([base + sid,
                               None if parent is None else base + parent,
                               name, start, end])
        self.self_s.update(exported["self_s"])
        self.counts.update(exported["counts"])
        self.cycles.extend(exported["cycles"])


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.span = self.recorder.open(self.name)
        return self.span

    def __exit__(self, *exc_info):
        self.recorder.close(self.span)


def _timed(recorder: Recorder, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` records counts
    once the span is closed, so counting is not billed to the layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.nested():
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(recorder: Recorder, fn, after):
    """Wrap ``fn`` to record counts from its result, without a span
    (the enclosing pass span already times it)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if recorder.nested():
            after(args, result)
        return result

    return wrapper


def _statements(functions) -> int:
    return sum(1 for fn in functions for _ in fn.all_statements())


def _make_hook(recorder: Recorder):
    from repro.pipeline import PipelineHook

    class LedgerHook(PipelineHook):
        """Opens a span per pass (``before_pass``) and closes it on
        ``after_pass``."""

        def before_pass(self, name, function="", round_no=0):
            if not recorder.nested():
                return
            if name == "deadcode" and round_no == 0:
                recorder.open("opt.final-dce")
            else:
                recorder.open(_PASS_SPANS.get(name, "opt." + name))

        def after_pass(self, name, program, function="", round_no=0):
            if name == "front-end" or not recorder.stack:
                return
            top = recorder.stack[-1]
            if top[2].startswith(("opt.", "inline", "vectorize",
                                  "sched.")):
                recorder.close(top)
            if name == "deadcode" and round_no == 0:
                recorder.count("opt.il_statements", _statements(
                    [program.functions[function]]))

    return LedgerHook()


def traced_pool_task(task: dict) -> dict:
    """Service pool task run under this process's recorder; the spans
    ride back to the parent in the response (stripped there)."""
    from repro.service.worker import pool_task
    recorder = _active
    if os.getpid() == _installer_pid:
        # A one-task batch runs inline in the service's own process.
        with recorder.span("service.worker"):
            return pool_task(task)
    recorder.reset()
    with recorder.span("service.worker"):
        response = pool_task(task)
    response["_perfbench"] = recorder.export()
    return response


def install(recorder: Recorder) -> list:
    """Wrap every layer entry point; returns the undo list for
    :func:`uninstall`."""
    global _active, _installer_pid
    from repro import pipeline
    from repro.analysis.flowgraph import FlowGraph
    from repro.analysis.liveness import Liveness
    from repro.analysis.usedef import UseDefChains
    from repro.dependence.graph import DependenceGraph
    from repro.frontend import lexer, lower, parser, preprocessor
    from repro.jobs.pool import WorkerPool
    from repro.obs.report import CompilationReport
    from repro.service import server, worker
    from repro.titan.simulator import TitanSimulator
    from repro.vectorize.vectorizer import Vectorizer

    _active, _installer_pid = recorder, os.getpid()
    undo = []
    rec = recorder

    def patch(owner, attr, replacement):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def count(key, measure):
        return lambda args, result: rec.count(key, measure(args, result))

    patch(preprocessor, "preprocess",
          _timed(rec, "frontend.preprocess", preprocessor.preprocess))
    patch(parser, "parse", _timed(rec, "frontend.parse", parser.parse))
    patch(lower, "lower", _timed(
        rec, "frontend.lower", lower.lower,
        count("frontend.il_statements",
              lambda a, program: _statements(
                  program.functions.values()))))
    original_tokenize = lexer.tokenize

    def tokenize(*args, **kwargs):
        tokens = original_tokenize(*args, **kwargs)
        if rec.nested():
            rec.count("frontend.tokens", len(tokens))
        return tokens

    patch(lexer, "tokenize", tokenize)

    for cls, name in ((FlowGraph, "analysis.flowgraph"),
                      (UseDefChains, "analysis.usedef"),
                      (Liveness, "analysis.liveness"),
                      (DependenceGraph, "dependence.graph")):
        patch(cls, "__init__", _timed(rec, name, cls.__init__))

    hook = _make_hook(rec)
    compiler_init = pipeline.TitanCompiler.__init__

    def titan_compiler_init(self, options=None, database=None,
                            hooks=()):
        compiler_init(self, options, database, tuple(hooks) + (hook,))

    patch(pipeline.TitanCompiler, "__init__", titan_compiler_init)
    patch(pipeline.TitanCompiler, "compile_program",
          _timed(rec, "pipeline",
                 pipeline.TitanCompiler.compile_program))
    patch(pipeline, "inline_program", _counted(
        rec, pipeline.inline_program,
        count("inline.sites_inlined",
              lambda a, stats: stats.sites_inlined)))

    def vector_counts(args, stats):
        rec.count("vectorize.loops_examined", stats.loops_examined)
        rec.count("vectorize.loops_vectorized", stats.loops_vectorized)

    patch(Vectorizer, "run", _counted(rec, Vectorizer.run, vector_counts))

    def sim_counts(args, report):
        rec.count("titan.steps", args[0].interpreter.steps)
        rec.count("titan.vector_instructions",
                  report.counters.vector_instructions)
        rec.cycles.append(report.cycles)

    patch(TitanSimulator, "__init__",
          _timed(rec, "titan.setup", TitanSimulator.__init__))
    patch(TitanSimulator, "run",
          _timed(rec, "titan.run", TitanSimulator.run, sim_counts))

    from_result = vars(CompilationReport)["from_result"].__func__
    patch(CompilationReport, "from_result", classmethod(
        _timed(rec, "obs.report_build", from_result)))
    patch(CompilationReport, "to_dict",
          _timed(rec, "obs.report_json", CompilationReport.to_dict))
    patch(CompilationReport, "write",
          _timed(rec, "obs.report_json", CompilationReport.write))
    patch(worker, "canonicalize_report",
          _timed(rec, "obs.report_json", worker.canonicalize_report))

    # Both modules bind the name at import; patch where it is called.
    for module in (server, worker):
        patch(module, "build_catalog",
              _timed(rec, "service.catalog", module.build_catalog))
    patch(server, "pool_task", traced_pool_task)
    merge = server.CompileService._merge

    def merge_outcome(self, slot, outcome, responses):
        if outcome.ok and "_perfbench" in outcome.value:
            rec.absorb(outcome.value.pop("_perfbench"))
        return merge(self, slot, outcome, responses)

    patch(server.CompileService, "_merge", merge_outcome)
    patch(WorkerPool, "map_ordered",
          _timed(rec, "jobs.wait", WorkerPool.map_ordered))
    patch(server.CompileService, "compile_batch",
          _timed(rec, "service.batch",
                 server.CompileService.compile_batch))
    return undo


def uninstall(undo: list) -> None:
    global _active
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    _active = None


# ---------------------------------------------------------------------------
# The per-layer ledger
# ---------------------------------------------------------------------------

OPT_PASSES = ("forward-sub", "while-to-do", "cond-split", "ivsub",
              "constprop", "deadcode", "final-dce")


def ledger(recorder: Recorder) -> dict:
    """Per-layer self times (ms) and counts from one traced run."""
    ms = {name: seconds * 1e3
          for name, seconds in recorder.self_s.items()}
    counts = recorder.counts
    out = {}
    for name in OPT_PASSES:
        out[f"opt.{name}_ms"] = ms.get(f"opt.{name}", 0.0)
    out["opt.il_statements"] = counts["opt.il_statements"]
    for kind in ("flowgraph", "usedef", "liveness"):
        out[f"analysis.{kind}_builds"] = \
            counts[f"analysis.{kind}.spans"]
    out["analysis.ms"] = sum(ms.get(f"analysis.{kind}", 0.0)
                             for kind in ("flowgraph", "usedef",
                                          "liveness"))
    out["dependence.graph_builds"] = counts["dependence.graph.spans"]
    out["dependence.ms"] = ms.get("dependence.graph", 0.0)
    frontend_ms = 0.0
    for phase in ("preprocess", "parse", "lower"):
        out[f"frontend.{phase}_ms"] = ms.get(f"frontend.{phase}", 0.0)
        frontend_ms += out[f"frontend.{phase}_ms"]
    out["frontend.tokens"] = counts["frontend.tokens"]
    out["frontend.tokens_per_s"] = \
        counts["frontend.tokens"] / (frontend_ms / 1e3) \
        if frontend_ms else 0.0
    out["frontend.il_statements"] = counts["frontend.il_statements"]
    out["inline.ms"] = ms.get("inline", 0.0)
    out["inline.sites_inlined"] = counts["inline.sites_inlined"]
    out["vectorize.if-convert_ms"] = ms.get("vectorize.if-convert", 0.0)
    out["vectorize.ms"] = ms.get("vectorize", 0.0)
    examined = counts["vectorize.loops_examined"]
    out["vectorize.loops_examined"] = examined
    out["vectorize.loops_vectorized"] = counts["vectorize.loops_vectorized"]
    out["vectorize.vectorized_ratio"] = \
        counts["vectorize.loops_vectorized"] / examined if examined else 0.0
    for name in ("reg-pipeline", "schedule", "strength"):
        out[f"sched.{name}_ms"] = ms.get(f"sched.{name}", 0.0)
    out["titan.setup_ms"] = ms.get("titan.setup", 0.0)
    out["titan.run_ms"] = ms.get("titan.run", 0.0)
    out["titan.steps"] = counts["titan.steps"]
    out["titan.steps_per_s"] = counts["titan.steps"] / \
        (out["titan.run_ms"] / 1e3) if out["titan.run_ms"] else 0.0
    out["titan.vector_instructions"] = counts["titan.vector_instructions"]
    out["titan.cycles_geomean"] = common.geomean(recorder.cycles)
    out["obs.report_build_ms"] = ms.get("obs.report_build", 0.0)
    out["obs.report_json_ms"] = ms.get("obs.report_json", 0.0)
    out["service.ms"] = sum(ms.get(f"service.{part}", 0.0)
                            for part in ("batch", "catalog", "worker"))
    out["jobs.wait_ms"] = ms.get("jobs.wait", 0.0)
    return out


def dump(recorder: Recorder, path: str) -> None:
    """Write the run's spans (written once, when the run ends)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": recorder.spans}, handle)
