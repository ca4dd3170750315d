"""The Titan timing model, driven by interpreter cost events.

Receives the dynamic operation stream from the interpreter (the shared
execution semantics) and accumulates cycles under the machine model in
:class:`TitanConfig`:

* **unscheduled scalar code** pays full latencies per operation;
* **scheduled loops** (the section 6 dependence-driven scheduler) pay
  their initiation interval per iteration — operations inside are
  counted but not individually charged;
* **vector instructions** pay startup + elements (stride-penalized);
* **parallel regions** divide their enclosed cycles across processors
  and pay a fork/join startup.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional

from ..sched.scheduler import LoopSchedule
from .config import TitanConfig

#: Vector ops that occupy the memory pipe: charged to the
#: ``vector_memory`` bucket, stride-penalized, and not counted as
#: flops.  ``mask_store`` is the predicated store of a masked
#: VectorAssign — same pipe as a plain store.
VECTOR_MEMORY_OPS = ("load", "store", "mask_store")


@dataclass
class OpCounters:
    flops: int = 0
    int_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls: int = 0
    vector_instructions: int = 0
    vector_elements: int = 0
    parallel_loops: int = 0


@dataclass
class CycleBreakdown:
    """Where the simulated cycles went — the utilization split the
    compilation report exposes (vector vs. scalar, memory-pipe share,
    per-chunk vector startup overhead).

    Buckets mirror the charge sites exactly: ``vector_compute`` and
    ``vector_memory`` are whole vector-instruction charges (arithmetic
    vs. load/store pipes), of which ``vector_startup`` is the
    pipeline-fill sub-share (one fill per MVL chunk); ``scalar`` is
    unscheduled scalar arithmetic/branch/call latency; ``memory`` is
    scalar load/store (and list-chase) latency; ``scheduled`` is the
    §6 initiation-interval lump charge of software-pipelined loops;
    ``parallel_overhead`` is fork/join startup.  Buckets sum to every
    cycle *charged*; the report's ``parallel_adjust`` residual (total
    minus charged) accounts for the divide-across-processors rescale
    of parallel regions.
    """

    vector_compute: float = 0.0
    vector_memory: float = 0.0
    vector_startup: float = 0.0  # sub-share of the two above
    scalar: float = 0.0
    memory: float = 0.0
    scheduled: float = 0.0
    parallel_overhead: float = 0.0

    def charged(self) -> float:
        return (self.vector_compute + self.vector_memory + self.scalar
                + self.memory + self.scheduled
                + self.parallel_overhead)

    def shares(self, total: float) -> Dict[str, float]:
        """Named shares of ``total`` cycles (0.0 when total is 0)."""
        if total <= 0:
            total = 1.0
        vector = self.vector_compute + self.vector_memory
        return {
            "vector_share": vector / total,
            "scalar_share": (self.scalar + self.scheduled) / total,
            "memory_pipe_share": (self.memory + self.vector_memory)
            / total,
            "vector_startup_share": self.vector_startup / total,
        }


#: Scalar event kind -> (latency field of TitanConfig, breakdown
#: bucket, OpCounters field).  The one description of what a scalar
#: event costs, shared by the per-event handlers and the bulk
#: :meth:`TitanCostModel.charge`.
_SCALAR_EVENTS = {
    "flop": ("fp_latency", "scalar", "flops"),
    "intop": ("int_latency", "scalar", "int_ops"),
    "load": ("load_latency", "memory", "loads"),
    "store": ("store_latency", "memory", "stores"),
    "branch": ("branch_cycles", "scalar", "branches"),
    "call": ("call_overhead", "scalar", "calls"),
}

#: Every event kind the model prices; others (fn_enter, fn_exit) are
#: ignored.
_EVENT_KINDS = tuple(_SCALAR_EVENTS) + (
    "do_enter", "do_iter", "do_exit", "vector", "vector_reduce",
    "list_chase", "parallel_begin", "parallel_end")

_BUCKETS = tuple(f.name for f in fields(CycleBreakdown))


def _exact(value):
    """An exact stand-in for a config number: an int when the value is
    integral (every default latency), else the float's exact Fraction.
    Sums of these are exact in any order."""
    if isinstance(value, int):
        return value
    if float(value).is_integer():
        return int(value)
    from fractions import Fraction
    return Fraction(value)


class TitanCostModel:
    """A callable usable as the interpreter's ``cost_hook``.

    Charges accumulate exactly (ints, or Fractions for non-integral
    latencies) in a pending sum, folded into the float ``cycles``
    only at parallel-region boundaries; so the total does not depend
    on the order charges arrive in, and a run priced event by event
    equals one priced from block counts (:meth:`charge`).
    """

    def __init__(self, config: Optional[TitanConfig] = None,
                 schedules: Optional[Dict[int, LoopSchedule]] = None,
                 profiler=None):
        self.config = config or TitanConfig()
        self.schedules = schedules or {}
        self.counters = OpCounters()
        # Folded float cycles, and the exact sum charged since the
        # last parallel boundary.
        self._folded: float = 0.0
        self._pending = 0
        self._buckets = dict.fromkeys(_BUCKETS, 0)
        # Stack of (loop_sid, iterations) for active scheduled loops.
        self._sched_stack: List[List] = []
        # Stack of (sid, cycles_at_entry) for active parallel regions.
        self._parallel_stack: List[List] = []
        # Callables that price counted blocks into this model; run at
        # every parallel boundary so counts land in the right region.
        self._pricers: List[Callable[[], None]] = []
        # Optional HotLoopProfiler: sees every event plus the cycle
        # delta it was charged, for per-loop/function attribution.
        self.profiler = profiler
        cfg = self.config
        self._scalar = {kind: (_exact(getattr(cfg, latency)), bucket,
                               counter)
                        for kind, (latency, bucket, counter)
                        in _SCALAR_EVENTS.items()}
        self._branch = self._scalar["branch"][0]
        self._vector_startup = _exact(cfg.vector_startup)
        self._vector_element = _exact(cfg.vector_element_cycles)
        self._stride_penalty = _exact(cfg.vector_stride_penalty)
        self._fp_issue = _exact(cfg.fp_issue)
        self._handlers = {kind: getattr(self, "_on_" + kind)
                          for kind in _EVENT_KINDS}

    # ------------------------------------------------------------------

    def __call__(self, kind: str, *details) -> None:
        handler = self._handlers.get(kind)
        if self.profiler is None:
            if handler is not None:
                handler(*details)
            return
        before = self.cycles
        if handler is not None:
            handler(*details)
        self.profiler.on_event(kind, details, self.cycles - before)

    @property
    def cycles(self) -> float:
        return self._folded + self._pending

    @property
    def breakdown(self) -> CycleBreakdown:
        return CycleBreakdown(**{name: float(value) for name, value
                                 in self._buckets.items()})

    @property
    def _suppressed(self) -> bool:
        return bool(self._sched_stack)

    def _charge(self, cycles, bucket: str = "scalar") -> None:
        if not self._sched_stack:
            self._pending += cycles
            self._buckets[bucket] += cycles

    # -- bulk pricing ---------------------------------------------------

    def charge(self, kind: str, count: int, sid: Optional[int] = None,
               suppressed: bool = False) -> None:
        """Charge ``count`` occurrences of one event kind at once.

        Scalar kinds count and (unless ``suppressed`` — the events sat
        inside a scheduled loop) charge their latency; ``do_iter`` and
        ``do_exit`` of scheduled loop ``sid`` charge its initiation
        interval per iteration and one branch per exit, the §6 lump
        charge the per-event path makes at each exit."""
        scalar = self._scalar.get(kind)
        if scalar is not None:
            latency, bucket, counter = scalar
            setattr(self.counters, counter,
                    getattr(self.counters, counter) + count)
            cost = latency * count
        elif kind == "do_iter":
            cost = _exact(self.schedules[sid].initiation_interval) \
                * count
            bucket = "scheduled"
        elif kind == "do_exit":
            cost = self._branch * count
            bucket = "scheduled"
        else:
            raise ValueError(f"no bulk charge for event kind {kind!r}")
        if not suppressed:
            self._pending += cost
            self._buckets[bucket] += cost

    def attach_pricer(self, pricer: Callable[[], None]) -> None:
        """Register a callable that prices pending block counts; it
        runs at every parallel boundary."""
        self._pricers.append(pricer)

    def _fold(self) -> None:
        for pricer in self._pricers:
            pricer()
        if self._pending:
            self._folded += self._pending
            self._pending = 0

    # -- scalar operations ---------------------------------------------------

    def _on_flop(self, op: str = "") -> None:
        self.counters.flops += 1
        self._charge(self._scalar["flop"][0])

    def _on_intop(self, op: str = "") -> None:
        self.counters.int_ops += 1
        self._charge(self._scalar["intop"][0])

    def _on_load(self, ctype=None) -> None:
        self.counters.loads += 1
        self._charge(self._scalar["load"][0], "memory")

    def _on_store(self, ctype=None) -> None:
        self.counters.stores += 1
        self._charge(self._scalar["store"][0], "memory")

    def _on_branch(self) -> None:
        self.counters.branches += 1
        self._charge(self._branch)

    def _on_call(self, name: str = "") -> None:
        self.counters.calls += 1
        self._charge(self._scalar["call"][0])

    # -- scheduled loops -----------------------------------------------------

    def _on_do_enter(self, sid: int) -> None:
        if sid in self.schedules:
            self._sched_stack.append([sid, 0])

    def _on_do_iter(self, sid: int) -> None:
        if self._sched_stack and self._sched_stack[-1][0] == sid:
            self._sched_stack[-1][1] += 1

    def _on_do_exit(self, sid: int) -> None:
        if self._sched_stack and self._sched_stack[-1][0] == sid:
            _, iters = self._sched_stack.pop()
            schedule = self.schedules[sid]
            self._charge(_exact(schedule.initiation_interval) * iters
                         + self._branch, "scheduled")

    # -- vector instructions ----------------------------------------------------

    def _chunks(self, length: int) -> int:
        """A vector operand longer than the hardware maximum vector
        length executes as several back-to-back instructions, each
        paying its own pipeline-fill startup."""
        mvl = max(1, self.config.max_vector_length)
        return max(1, -(-max(length, 0) // mvl))

    def _on_vector(self, op: str, length: int, stride: int) -> None:
        self.vector(op, length, stride, self._suppressed)

    def vector(self, op: str, length: int, stride: int,
               suppressed: bool = False) -> None:
        """One vector instruction over ``length`` elements (several
        when ``length`` exceeds the maximum vector length)."""
        chunks = self._chunks(length)
        self.counters.vector_instructions += chunks
        self.counters.vector_elements += length
        memory = op in VECTOR_MEMORY_OPS
        if not memory and op != "int_op":
            self.counters.flops += length
        if suppressed:
            return
        per_element = self._vector_element
        if memory and abs(stride) != 1:
            per_element *= self._stride_penalty
        startup = self._vector_startup * chunks
        cost = startup + per_element * max(length, 0)
        self._pending += cost
        buckets = self._buckets
        buckets["vector_memory" if memory else "vector_compute"] += cost
        buckets["vector_startup"] += startup

    def _on_vector_reduce(self, op: str, length: int) -> None:
        self.vector_reduce(op, length, self._suppressed)

    def vector_reduce(self, op: str, length: int,
                      suppressed: bool = False) -> None:
        """A pipelined vector reduction: startup, one element per
        cycle, plus a short tree tail to collapse the partial sums."""
        chunks = self._chunks(length)
        self.counters.vector_instructions += chunks
        self.counters.vector_elements += length
        self.counters.flops += length
        if suppressed:
            return
        tail = max(1, length).bit_length() * self._fp_issue
        startup = self._vector_startup * chunks
        cost = startup + self._vector_element * max(length, 0) + tail
        self._pending += cost
        self._buckets["vector_compute"] += cost
        self._buckets["vector_startup"] += startup

    def _on_list_chase(self, count: int = 1) -> None:
        """Serial pointer chase of a parallelized list loop: one
        dependent load plus a branch per node (it cannot pipeline —
        each address comes from the previous load)."""
        self._charge(count * (self._scalar["load"][0] + self._branch),
                     "memory")

    # -- parallel regions ----------------------------------------------------------

    def _on_parallel_begin(self, sid: int) -> None:
        self._fold()
        self._parallel_stack.append([sid, self._folded])

    def _on_parallel_end(self, sid: int, trips: int) -> None:
        if not self._parallel_stack \
                or self._parallel_stack[-1][0] != sid:
            return
        _, start_cycles = self._parallel_stack.pop()
        self._fold()
        self.counters.parallel_loops += 1
        cfg = self.config
        inner = self._folded - start_cycles
        workers = max(1, min(cfg.processors, max(trips, 1)))
        if workers > 1:
            inner = inner / (workers * cfg.parallel_efficiency)
        self._folded = start_cycles + cfg.parallel_startup + inner
        self._buckets["parallel_overhead"] += \
            _exact(cfg.parallel_startup)

    # -- reporting -------------------------------------------------------------------

    @property
    def parallel_adjust(self) -> float:
        """Residual between total cycles and the sum of breakdown
        buckets: the (negative) divide-across-processors rescale of
        parallel regions.  ``breakdown.charged() + parallel_adjust ==
        cycles`` exactly."""
        return self.cycles - self.breakdown.charged()

    @property
    def seconds(self) -> float:
        return self.config.seconds(self.cycles)

    @property
    def mflops(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.counters.flops / self.seconds / 1e6
