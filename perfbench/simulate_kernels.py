"""``simulate_kernels``: simulate the ``repro.workloads`` kernels at O0
and at full options.

A timed operation is ``TitanSimulator(...)`` construction plus
``run()`` on the simulator's default engine.  Compilation is untimed,
but every run gets a freshly compiled program, as one ``titancc
--run`` process would, so nothing memoized on the IL carries over.
O0 runs are bound by scalar events (thousands of steps); full runs by
vector sections (tens to hundreds of steps).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .common import (Budget, Outcome, References, o0_options, plain,
                     self_rss_mb, span, speed_scale)


@dataclass
class Kernel:
    name: str
    source: str
    entry: str
    args: Tuple
    #: global arrays / scalars the run starts from
    arrays: Dict[str, List[float]]
    scalars: Dict[str, float]
    #: global arrays compared against the reference, with lengths
    outputs: Dict[str, int]

    def setup(self, target) -> None:
        for name, values in self.arrays.items():
            target.set_global_array(name, values)
        for name, value in self.scalars.items():
            target.set_global_scalar(name, value)

    def observe(self, target, result) -> tuple:
        return (result, tuple(
            tuple(target.global_array(name, count))
            for name, count in sorted(self.outputs.items())))


def setup():
    from repro.pipeline import TitanCompiler
    from repro.titan.simulator import TitanSimulator  # noqa: F401
    TitanCompiler()


def _levels():
    from repro.pipeline import CompilerOptions
    return (("O0", o0_options()), ("full", CompilerOptions()))


def make_kernels(seed: int) -> List[Kernel]:
    """The seven kernels with seeded sizes (within 3% of the nominal
    n) and seeded dyadic input data, exact in single precision."""
    from repro.workloads import blas, graphics, stencils
    rng = random.Random(seed)

    def size(nominal: int) -> int:
        return nominal + rng.randrange(-nominal // 32, nominal // 32 + 1)

    def data(n: int, lo: int = -64, hi: int = 64, scale: float = 16.0):
        return [rng.randint(lo, hi) / scale for _ in range(n)]

    kernels = []
    n = size(1024)
    kernels.append(Kernel(
        "backsolve", stencils.backsolve(n), "backsolve", (),
        {"x": data(n), "y": data(n), "z": data(n, 4, 12)},
        {"n": n}, {"x": n}))
    n = size(1024)
    kernels.append(Kernel(
        "prefix", stencils.prefix(n), "prefix", (n,),
        {"acc": [1.0] + [0.0] * (n - 1), "w": data(n, 12, 20)},
        {}, {"acc": n}))
    n = size(1024)
    kernels.append(Kernel(
        "smooth", stencils.smooth(n), "smooth", (n,),
        {"src": data(n)}, {}, {"dst": n}))
    n = size(1024)
    kernels.append(Kernel(
        "guarded_diff", stencils.guarded_diff(n), "guarded_diff", (n,),
        {"gin": data(n)}, {}, {"gout": n}))
    n = size(256)
    kernels.append(Kernel(
        "transform", graphics.transform_points(n), "transform", (n,),
        {"mat": data(16), **{p: data(n) for p in ("px", "py", "pz",
                                                   "pw")}},
        {}, {o: n for o in ("ox", "oy", "oz", "ow")}))
    n = size(1024)
    kernels.append(Kernel(
        "clamp", graphics.clamp(n), "clamp", (n,),
        {"pix": data(n)}, {"lo": -1.0, "hi": 1.5}, {"pix": n}))
    n = size(1024)
    kernels.append(Kernel(
        "daxpy", blas.caller_program(n=n, alpha=rng.randint(1, 12) / 4),
        "bench", (), {"b": data(n), "c": data(n)}, {}, {"a": n}))
    return kernels


def run_ops(seconds: int) -> int:
    """Simulations in an untraced run: whole rounds of the fourteen
    kernel/level pairs, about 1.8 rounds per second."""
    return 14 * max(1, 9 * seconds // 5)


def trace_ops(seconds: int) -> int:
    """Simulations in each pass of a traced run: whole rounds of the
    fourteen kernel/level pairs."""
    return 14 * max(1, seconds // 4)


def run(seed: int, budget: Budget, recorder=None) -> Outcome:
    from repro.pipeline import TitanCompiler
    from repro.titan.simulator import TitanSimulator
    rng = random.Random(seed)
    kernels = make_kernels(seed)
    pairs = [(kernel, level) for kernel in kernels
             for level in _levels()]
    with References() as references:
        reference = references.ask({"kernels": seed})["value"]
    outcome = Outcome()
    cycles: Dict[Tuple[str, str], float] = {}
    order: List = []
    done = 0
    while budget.more(done):
        if not order:
            order = list(pairs)
            rng.shuffle(order)
        kernel, (level, options) = order.pop()
        name = f"{kernel.name}@{level}"
        done += 1
        try:
            with span(recorder, "prepare"):
                result = TitanCompiler(options).compile(kernel.source, name)
            scale = speed_scale()
            with span(recorder, "op"):
                start = time.perf_counter()
                sim = TitanSimulator(result.program,
                                     schedules=result.schedules or None)
                elapsed = time.perf_counter() - start
                kernel.setup(sim)
                start = time.perf_counter()
                report = sim.run(kernel.entry, *kernel.args)
                elapsed += time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 — a crash is a failed run
            outcome.attempted += 1
            outcome.failures.append(f"{name} ({type(exc).__name__}: {exc})")
            continue
        outcome.timed(elapsed, (scale + speed_scale()) / 2)
        outcome.check(name, plain(kernel.observe(sim, report.result))
                      == reference[kernel.name])
        cycles[kernel.name, level] = report.cycles
        if (kernel.name, "O0") in cycles and (kernel.name, "full") in cycles:
            outcome.speedups[kernel.name] = \
                cycles[kernel.name, "O0"] / cycles[kernel.name, "full"]
    outcome.units = outcome.attempted
    outcome.rss_mb = self_rss_mb()
    return outcome
