"""Shared pieces of the benchmark: locating the tree, run budgets,
statistics, the reference process, peak memory and the result
record."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch files (CLI inputs, span dumps) stay inside the checkout.
OUT = os.path.join(ROOT, ".perfbench")


def require_tree() -> None:
    """Fail fast, without a result, outside a full checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no compiler sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Budget:
    """How much one run does: exactly ``ops`` operations, and
    ``seconds`` sizes the input set.

    A run does a seeded, fixed amount of work (each workload's
    ``run_ops`` is sized to take about ``seconds`` at the reference
    speed) instead of running to a clock, so ``attempted`` and
    ``failed`` are exact functions of the seed: an input that fails
    fails as often in every run of its seed, however fast the host."""

    seconds: int
    ops: int

    def more(self, done: int) -> bool:
        return done < self.ops


#: Nominal seconds of one :func:`calibration` and of one
#: :data:`REFERENCE_ARGV` process at the reference host speed.
NOMINAL_CALIBRATION_S = 0.002
NOMINAL_REFERENCE_S = 0.12
#: A process that starts the interpreter and imports a fixed set of
#: standard-library modules: start-up work the compiler cannot change.
REFERENCE_ARGV = [sys.executable, "-c",
                  "import argparse, ast, dataclasses, decimal, email.parser,"
                  " fractions, http.client, json, logging, pickle,"
                  " statistics, typing, unittest, xml.dom.minidom"]


class _Node:
    __slots__ = ("key", "name")

    def __init__(self, key, name):
        self.key = key
        self.name = name


def calibration() -> float:
    """Seconds of a fixed pure-Python job (objects, a dict, a sort),
    the faster of two.  The job touches nothing of the compiler, so a
    change to the program cannot move it."""
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            table = {}
            for i in range(3000):
                node = _Node(i, str(i))
                table[node.name] = node
            ordered = sorted(table.values(), key=lambda n: -n.key)
            sum(node.key for node in ordered[::3])
            best = min(best, time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best


def speed_scale() -> float:
    """Factor that brings an in-process operation to the reference
    host speed; callers take it right before and right after the
    operation and use the mean.

    A shared host's speed can drift by a quarter or more within
    seconds when neighbours load it; an operation scaled by
    ``nominal / measured`` :func:`calibration` drifts by a few percent
    instead."""
    return NOMINAL_CALIBRATION_S / calibration()


def process_scale() -> float:
    """The same for the next child process: an in-process job does not
    track a process's start-up, which is mostly loading and importing,
    so the yardstick is :data:`REFERENCE_ARGV`, timed on the wall
    clock."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, check=True, capture_output=True)
    return NOMINAL_REFERENCE_S / (time.perf_counter() - start)


@dataclass
class Outcome:
    """What one workload run did and whether its outputs were right."""

    #: Seconds of each timed operation at the reference speed, and
    #: as measured on the wall clock.
    latencies: List[float] = field(default_factory=list)
    raw: List[float] = field(default_factory=list)
    #: User-visible units completed (requests for the service; one per
    #: operation elsewhere).
    units: int = 0
    attempted: int = 0
    #: Names of inputs whose operation failed (e.g. a ``crash``).
    failures: List[str] = field(default_factory=list)
    #: Names of inputs whose output disagreed with the reference.
    wrong: List[str] = field(default_factory=list)
    #: input key -> O0 cycles / optimized cycles, simulated (exact;
    #: one entry per program).
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Peak resident memory, in MiB, of the processes that ran the code
    #: under test (summed over processes resident at once; never the
    #: reference process or the set-up probes).
    rss_mb: float = 0.0
    #: Workload-specific per-layer figures (traced run only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific labelled figures for the readable report.
    notes: Dict[str, object] = field(default_factory=dict)

    def timed(self, seconds: float, scale: float) -> None:
        """Book one operation that took ``seconds`` on the wall clock,
        ``scale`` (:func:`speed_scale`, :func:`process_scale`) bringing
        it to the reference speed."""
        self.raw.append(seconds)
        self.latencies.append(seconds * scale)
        self.attempted += 1

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.wrong.append(name)


def span(recorder, name: str):
    """A span of ``recorder`` (a :class:`perfbench.tracing.Recorder`),
    or nothing in an untraced run."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name)


def quantile(values: List[float], q: float) -> float:
    """Inclusive-method quantile, ``q`` in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_rss_mb() -> float:
    """Largest resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_rss_mb(pid: int) -> float:
    """Largest resident set so far of the live process ``pid`` (its
    ``VmHWM``), in MiB; 0 where /proc does not say."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(argv: List[str], env: dict, timeout: float = 120
              ) -> Tuple[subprocess.CompletedProcess, float, float]:
    """Run ``argv`` in the checkout to its end.  Returns the finished
    process (output captured), its wall seconds from spawn to exit,
    and its own largest resident set in MiB, from ``wait4``, so no
    other child's figure mixes in.  A child still running after
    ``timeout`` seconds is killed."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                 stderr=err)
        timer = threading.Timer(timeout, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        finished = subprocess.CompletedProcess(
            argv, child.returncode, out.read(), err.read())
    return finished, elapsed, usage.ru_maxrss / 1024.0


class References:
    """Reference outputs from a ``perfbench/reference.py`` process.

    The tree oracle and the O0 builds run there, not in the benchmark
    process, so the benchmark's memory high-water mark belongs to the
    code under test.  One request at a time; :meth:`close` (or leaving
    the ``with`` block) ends the process and waits for it."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench",
                                          "reference.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def ask(self, request: dict) -> dict:
        self._child.stdin.write(json.dumps(request) + "\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        answer = json.loads(line)
        if "error" in answer:
            raise RuntimeError(f"reference run failed: {answer['error']}")
        return answer

    def program(self, source: str, name: str) -> Tuple[object, str, float]:
        """``(result, stdout)`` of the tree oracle running ``main`` of
        the unoptimized IL, and the O0 build's simulated cycles."""
        answer = self.ask({"program": source, "name": name})
        return answer["value"], answer["stdout"], answer["o0_cycles"]

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            self._child.wait(timeout=60)
        self._child.stdout.close()

    def __enter__(self) -> "References":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def plain(value):
    """``value`` as it reads after a JSON round trip (tuples become
    lists), to compare with an answer of :class:`References`."""
    return json.loads(json.dumps(value))


def o0_options():
    """Every optimization off: the scalar build speed-ups compare to."""
    from repro.pipeline import CompilerOptions
    return CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                           parallelize=False, reg_pipeline=False,
                           strength_reduction=False,
                           split_termination=False)


def measure_setup(workload: str, reps: int) -> float:
    """Median set-up seconds, at the reference speed, over ``reps``
    fresh processes, each timing its own imports and long-lived
    objects."""
    probe = os.path.join(ROOT, "perfbench", "probe.py")
    times = []
    for _ in range(reps):
        scale = process_scale()
        done = subprocess.run([sys.executable, probe, workload],
                              cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) * scale)
    return statistics.median(times)
