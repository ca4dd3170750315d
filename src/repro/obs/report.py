"""The machine-readable compilation report (``--report-json``).

One schema-versioned JSON document that unifies every observability
stream the compiler produces — the structured equivalent of LLVM's
``-fsave-optimization-record`` YAML, with the Titan twist that the
*performance model* is part of the compiler:

* **counters** — the LLVM ``-stats``-style per-pass counter table
  (:mod:`repro.obs.counters`), one record per (pass, function,
  counter);
* **remarks** — the PR 1 ``-Rpass``-style decision stream, serialized;
* **loops** — the per-loop vectorization coverage table: every loop
  the vectorizer examined, its outcome (vectorized / parallelized /
  serial), and for serial loops the aggregated miss reason plus the
  blocking dependence edge;
* **dependence_graphs** — DOT/JSON exports per innermost loop nest
  (:mod:`repro.obs.depviz`), present when dependence collection was
  enabled (``--dump-deps`` or ``--report-json``);
* **trace** — the per-phase wall-time/work spans;
* **titan** — machine utilization: the static cost-model estimate
  (vector startup per chunk, initiation intervals, memory-pipe
  pressure) and, when the program was simulated (``--run``), the
  measured cycle split (vector vs. scalar, memory-pipe share,
  startup overhead) with an exact cycles decomposition;
* **pass_checks** — schema /2: when the compile ran with the per-pass
  semantic checker (``--check-passes``), the per-pass snapshot table
  (validated? executed? outcome?) and the first divergence if any;
* **metrics** — schema /3: the
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot for this
  compile (pass counters as one labeled family, loop-coverage
  counters, span-duration histograms) — the mergeable form the
  cross-run aggregation and the dashboard consume.

The schema tag lives in :mod:`repro.obs.schemas` (bump it there when
the document shape changes); consumers dispatch on it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..il import nodes as N
from ..interp.events import vector_ops
from ..opt.fold import const_int_value
from ..titan.config import TitanConfig
from ..titan.cost_model import VECTOR_MEMORY_OPS
from . import schemas
from .counters import CounterStore, counters_from_result
from .metrics import MetricsRegistry
from .trace import jsonable

REPORT_SCHEMA = schemas.REPORT


# ---------------------------------------------------------------------------
# Per-loop vectorization coverage
# ---------------------------------------------------------------------------


def loop_coverage(result) -> List[Dict[str, object]]:
    """The per-loop coverage table from the vectorizer's outcomes."""
    rows: List[Dict[str, object]] = []
    for function, stats in result.vectorize_stats.items():
        for outcome in stats.outcomes:
            if outcome.vectorized and outcome.parallelized:
                status = "vectorized+parallel"
            elif outcome.vectorized:
                status = "vectorized"
            elif outcome.parallelized:
                status = "parallelized"
            else:
                status = "serial"
            rows.append({
                "function": function,
                "sid": outcome.loop_sid,
                "line": outcome.line,
                "status": status,
                "vector_statements": outcome.vector_statements,
                "sequential_statements":
                    outcome.sequential_statements,
                "reason": outcome.reason,
                "detail": outcome.detail,
                "blocking": jsonable(outcome.blocking)
                if outcome.blocking else None,
            })
    return rows


# ---------------------------------------------------------------------------
# Titan utilization — static estimate and measured split
# ---------------------------------------------------------------------------


def _loop_trips(loop: N.DoLoop) -> Optional[int]:
    lo = const_int_value(loop.lo)
    hi = const_int_value(loop.hi)
    if lo is None or hi is None or loop.step == 0:
        return None
    if loop.step > 0:
        return max(0, (hi - lo) // loop.step + 1)
    return max(0, (lo - hi) // (-loop.step) + 1)


def _vector_ops(stmt) -> List[Dict[str, object]]:
    """The vector instructions one vector statement issues, as the
    interpreters charge them (:func:`repro.interp.events.vector_ops`),
    with every dataflow operator labelled ``compute``."""
    if isinstance(stmt, N.VectorReduce):
        return [{"op": "reduce", "stride": 1}]
    return [{"op": op if op in VECTOR_MEMORY_OPS else "compute",
             "stride": stride} for op, stride in vector_ops(stmt)]


def _chunk_lengths(total: int, step: int,
                   mvl: int) -> List[Dict[str, int]]:
    """(count, length) runs of vector-instruction chunks for a strip
    loop covering ``total`` elements ``step`` at a time, with hardware
    chunking at ``mvl``."""
    runs: List[Dict[str, int]] = []
    full, rem = divmod(total, step)
    for span, count in ((step, full), (rem, 1 if rem else 0)):
        if count == 0:
            continue
        f2, r2 = divmod(span, mvl)
        if f2:
            runs.append({"count": count * f2, "length": mvl})
        if r2:
            runs.append({"count": count, "length": r2})
    return runs


def _estimate_vector_cost(stmt, total: int, step: int,
                          cfg: TitanConfig) -> Dict[str, float]:
    """Static cycles for one vector statement executed over ``total``
    elements in strips of ``step``."""
    mvl = max(1, cfg.max_vector_length)
    runs = _chunk_lengths(total, min(step, total) or 1, mvl)
    chunks = sum(r["count"] for r in runs)
    out = {"vector_compute": 0.0, "vector_memory": 0.0,
           "vector_startup": 0.0, "chunks": chunks}
    for op in _vector_ops(stmt):
        startup = cfg.vector_startup * chunks
        out["vector_startup"] += startup
        per_element = cfg.vector_element_cycles
        memory_op = op["op"] in VECTOR_MEMORY_OPS
        if memory_op and abs(op["stride"]) != 1:
            per_element *= cfg.vector_stride_penalty
        cycles = startup + per_element * total
        if op["op"] == "reduce":
            cycles += sum(r["count"]
                          * max(1, r["length"]).bit_length()
                          * cfg.fp_issue for r in runs)
        bucket = "vector_memory" if memory_op else "vector_compute"
        out[bucket] += cycles
    return out


def _static_titan(result, cfg: TitanConfig) -> Dict[str, object]:
    """Per-loop cost-model estimates from the compiled form alone —
    no execution.  Loops whose trip counts are not compile-time
    constants get ``cycles: null`` and are tallied separately."""
    loops: List[Dict[str, object]] = []
    totals = {"vector_compute_cycles": 0.0,
              "vector_memory_cycles": 0.0,
              "vector_startup_cycles": 0.0,
              "scheduled_cycles": 0.0}
    unknown = 0

    def vector_entry(function: str, stmt, total: Optional[int],
                     step: int, line: int) -> None:
        nonlocal unknown
        entry: Dict[str, object] = {
            "function": function, "line": line, "kind": "vector",
            "trips": total,
        }
        if total is None:
            unknown += 1
            entry["cycles"] = None
        else:
            cost = _estimate_vector_cost(stmt, total, step, cfg)
            entry["cycles"] = (cost["vector_compute"]
                               + cost["vector_memory"])
            entry["vector_startup_cycles"] = cost["vector_startup"]
            entry["chunks"] = cost["chunks"]
            totals["vector_compute_cycles"] += cost["vector_compute"]
            totals["vector_memory_cycles"] += cost["vector_memory"]
            totals["vector_startup_cycles"] += cost["vector_startup"]
        loops.append(entry)

    def walk(function: str, stmts: List[N.Stmt]) -> None:
        nonlocal unknown
        for stmt in stmts:
            if isinstance(stmt, (N.VectorAssign, N.VectorReduce)):
                length = const_int_value(
                    stmt.target.length
                    if isinstance(stmt, N.VectorAssign)
                    else stmt.length)
                vector_entry(function, stmt, length,
                             length or 1, stmt.line)
            elif isinstance(stmt, N.DoLoop) and stmt.vector:
                # A strip loop covers lo..hi in strips of `step`
                # elements; total element count needs const bounds.
                lo = const_int_value(stmt.lo)
                hi = const_int_value(stmt.hi)
                total = (hi - lo + 1) \
                    if lo is not None and hi is not None else None
                for sub in stmt.body:
                    if isinstance(sub, (N.VectorAssign,
                                        N.VectorReduce)):
                        vector_entry(function, sub, total, stmt.step,
                                     stmt.line)
            elif isinstance(stmt, N.DoLoop) \
                    and stmt.sid in result.schedules:
                schedule = result.schedules[stmt.sid]
                trips = _loop_trips(stmt)
                counts = schedule.counts
                interval = schedule.initiation_interval
                entry = {
                    "function": function, "line": stmt.line,
                    "kind": "scheduled", "trips": trips,
                    "initiation_interval": interval,
                    "recurrence_bound": schedule.recurrence_bound,
                    "resource_bound": schedule.resource_bound,
                    # Fraction of each interval the memory pipe is
                    # busy — the §6 "most frequently accessed" signal.
                    "memory_pipe_share":
                        (counts.loads + counts.stores)
                        * cfg.mem_issue / interval
                        if interval > 0 else 0.0,
                }
                if trips is None:
                    unknown += 1
                    entry["cycles"] = None
                else:
                    entry["cycles"] = interval * trips
                    totals["scheduled_cycles"] += entry["cycles"]
                loops.append(entry)
            else:
                for sublist in stmt.substatements():
                    walk(function, sublist)

    for name, fn in result.program.functions.items():
        walk(name, fn.body)
    return {"loops": loops, "totals": totals,
            "unknown_trip_loops": unknown}


def measured_titan(titan_report) -> Dict[str, object]:
    """The measured utilization split of a simulation run."""
    b = titan_report.breakdown
    util: Dict[str, object] = {}
    if b is not None:
        util = {
            "vector_cycles": b.vector_compute + b.vector_memory,
            "vector_compute_cycles": b.vector_compute,
            "vector_memory_cycles": b.vector_memory,
            "vector_startup_cycles": b.vector_startup,
            "scalar_cycles": b.scalar,
            "memory_cycles": b.memory,
            "scheduled_cycles": b.scheduled,
            "parallel_overhead_cycles": b.parallel_overhead,
            "parallel_adjust_cycles": titan_report.parallel_adjust,
        }
        util.update(b.shares(titan_report.cycles))
    return {
        "cycles": titan_report.cycles,
        "seconds": titan_report.seconds,
        "mflops": titan_report.mflops,
        "counters": dataclasses.asdict(titan_report.counters),
        "utilization": util,
    }


def titan_section(result, config: Optional[TitanConfig] = None,
                  titan_report=None) -> Dict[str, object]:
    cfg = config or TitanConfig()
    return {
        "config": {
            "processors": cfg.processors,
            "clock_mhz": cfg.clock_mhz,
            "max_vector_length": cfg.max_vector_length,
            "vector_startup": cfg.vector_startup,
            "vector_element_cycles": cfg.vector_element_cycles,
            "parallel_startup": cfg.parallel_startup,
        },
        "static": _static_titan(result, cfg),
        "measured": measured_titan(titan_report)
        if titan_report is not None else None,
    }


# ---------------------------------------------------------------------------
# Pass checks (--check-passes)
# ---------------------------------------------------------------------------


def pass_checks_section(checker) -> Dict[str, object]:
    """Serialize a :class:`repro.check.checker.PassChecker`'s findings
    for the report: the per-pass snapshot table plus the first
    divergence (or ``None`` when every pass checked out)."""
    divergence = checker.first_divergence()
    return {
        "snapshots": checker.to_records(),
        "executions": checker.executions,
        "divergence": divergence.to_dict()
        if divergence is not None else None,
    }


# ---------------------------------------------------------------------------
# Metrics section (schema /3)
# ---------------------------------------------------------------------------


def metrics_from_result(result, counters: CounterStore,
                        loops: List[Dict[str, object]],
                        registry: Optional[MetricsRegistry] = None,
                        trace_spans: bool = True) -> MetricsRegistry:
    """Build the report's :class:`MetricsRegistry`: the pass-counter
    table as one labeled counter family, per-loop coverage and
    miss-reason counters, and span-duration histograms from the
    compile's trace.  Pass an existing ``registry`` (e.g. a session
    registry already fed by a :class:`SpanMetricsConsumer`) with
    ``trace_spans=False`` to add the counter/loop families without
    double-counting spans."""
    if registry is None:
        registry = MetricsRegistry()
    registry.absorb_counters(counters)
    for row in loops:
        registry.counter("titancc_loops_total", {
            "function": row["function"], "status": row["status"],
        }).inc()
        if row["status"] == "serial" and row.get("reason"):
            registry.counter("titancc_loop_miss_reasons_total", {
                "reason": row["reason"],
            }).inc()
    if trace_spans:
        for event in result.trace.events:
            labels = {"name": event.name, "cat": event.cat}
            registry.counter("titancc_spans_total", labels).inc()
            registry.histogram("titancc_span_seconds", labels) \
                .observe(event.duration_us / 1e6)
    return registry


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class CompilationReport:
    """Everything one compilation produced, JSON-serializable."""

    source: str
    options: Dict[str, object]
    counters: CounterStore
    remarks: List[object] = field(default_factory=list)
    loops: List[Dict[str, object]] = field(default_factory=list)
    dep_graphs: List[object] = field(default_factory=list)
    trace_events: List[object] = field(default_factory=list)
    titan: Dict[str, object] = field(default_factory=dict)
    #: Per-pass semantic-check results (``--check-passes``): ``None``
    #: when the compile ran unchecked, else ``{"snapshots": [...],
    #: "executions": n, "divergence": {...}|None}``.
    pass_checks: Optional[Dict[str, object]] = None
    #: Schema /3: the compile's MetricsRegistry (counters as one
    #: labeled family + coverage counters + span histograms).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    schema: str = REPORT_SCHEMA

    @classmethod
    def from_result(cls, result, filename: Optional[str] = None,
                    titan_report=None,
                    config: Optional[TitanConfig] = None,
                    checker=None) -> "CompilationReport":
        counters = counters_from_result(result)
        loops = loop_coverage(result)
        return cls(
            source=filename or result.remarks.filename,
            options=dataclasses.asdict(result.options),
            counters=counters,
            remarks=list(result.remarks),
            loops=loops,
            dep_graphs=list(result.dep_graphs),
            trace_events=list(result.trace.events),
            titan=titan_section(result, config, titan_report),
            pass_checks=pass_checks_section(checker)
            if checker is not None else None,
            metrics=metrics_from_result(result, counters, loops),
        )

    # -- queries -------------------------------------------------------

    def counter(self, pass_name: str, counter: str,
                function: str = None) -> int:
        return self.counters.get(pass_name, counter, function)

    def format_stats(self) -> str:
        """The ``--stats`` text table (one source of truth: these are
        the same counters the JSON report carries)."""
        return "/* pass statistics */\n" + self.counters.format()

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "source": self.source,
            "options": jsonable(self.options),
            "counters": self.counters.to_records(),
            "remarks": [
                {"pass": r.pass_name, "kind": r.kind,
                 "function": r.function, "message": r.message,
                 "sid": r.sid, "line": r.line, "file": r.filename,
                 "args": jsonable(r.args)}
                for r in self.remarks
            ],
            "loops": jsonable(self.loops),
            "dependence_graphs": [
                {**g.to_json(), "dot": g.to_dot()}
                for g in self.dep_graphs
            ],
            "trace": [
                {"name": e.name, "cat": e.cat, "start_us": e.start_us,
                 "duration_us": e.duration_us,
                 "args": jsonable(e.args)}
                for e in self.trace_events
            ],
            "titan": jsonable(self.titan),
            "pass_checks": jsonable(self.pass_checks),
            "metrics": self.metrics.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          ensure_ascii=True)

    def write(self, path: str) -> None:
        """Validated, atomic write; ``path == "-"`` streams to
        stdout."""
        schemas.write_json_artifact(path, self.to_dict())
