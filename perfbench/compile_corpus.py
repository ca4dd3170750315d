"""``compile_corpus``: compile programs one at a time through
``TitanCompiler.compile`` with default options.

Scalar passes do most of the work here, and their cost grows faster
than program size, so the seeded programs are drawn to a fixed
line-count histogram (a quarter of them at larger block counts): two
seeds then differ in which programs they compile, not in how large
they are, and the timing quantiles stay comparable across seeds.
"""

from __future__ import annotations

import collections
import glob
import os
import random
import time
from typing import List, Tuple

from .common import (ROOT, Budget, Outcome, References, self_rss_mb, span,
                     speed_scale)

#: Seeded generated programs per second of run (plus the fixed files
#: below); an untraced run compiles each input once.  This and
#: LARGE_SHARE are assumptions, not measured from users' programs.
GENERATED_PER_SECOND = 8
LARGE_SHARE = 0.25
#: Line-count histogram bin width for the stratified draw.
LINE_BIN = 4
#: Generator seeds whose line counts define the target histogram.
REFERENCE_SEEDS = range(1_000_000, 1_000_400)


def setup():
    from repro.pipeline import TitanCompiler
    TitanCompiler()


def _generator_options():
    from repro.fuzz.generator import GeneratorOptions
    return (GeneratorOptions(),
            GeneratorOptions(min_blocks=6, max_blocks=9))


def _lines(source: str) -> int:
    return source.count("\n") // LINE_BIN


def _stratified(rng: random.Random, options, count: int,
                tag: str) -> List[Tuple[str, str]]:
    """``count`` seeded programs whose line-count histogram matches
    the generator's own (measured on fixed reference seeds)."""
    from repro.fuzz.generator import generate_program
    reference = collections.Counter(
        _lines(generate_program(s, options).source)
        for s in REFERENCE_SEEDS)
    # Largest-remainder apportionment of ``count`` over the bins.
    share = {b: count * n / len(REFERENCE_SEEDS)
             for b, n in reference.items()}
    quota = {b: int(s) for b, s in share.items()}
    for b in sorted(share, key=lambda b: quota[b] - share[b])[
            :count - sum(quota.values())]:
        quota[b] += 1
    picked = []
    while len(picked) < count:
        seed = rng.getrandbits(32)
        source = generate_program(seed, options).source
        bin_ = _lines(source)
        if quota.get(bin_, 0) > 0:
            quota[bin_] -= 1
            picked.append((f"{tag}:{seed}", source))
    return picked


def fixed_inputs() -> List[Tuple[str, str]]:
    """The accepting fuzz-corpus files and the examples."""
    paths = sorted(glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus",
                                          "*.c")))
    paths += sorted(glob.glob(os.path.join(ROOT, "examples", "*.c")))
    inputs = []
    for path in paths:
        with open(path) as handle:
            source = handle.read()
        if source.startswith("// expect: reject"):
            continue
        inputs.append((os.path.relpath(path, ROOT), source))
    return inputs


def make_inputs(seed: int, seconds: int) -> List[Tuple[str, str]]:
    rng = random.Random(seed)
    default, large = _generator_options()
    generated = GENERATED_PER_SECOND * seconds
    n_large = round(generated * LARGE_SHARE)
    inputs = fixed_inputs()
    inputs += _stratified(rng, default, generated - n_large, "gen")
    inputs += _stratified(rng, large, n_large, "gen-large")
    rng.shuffle(inputs)
    return inputs


class _Checker:
    """Simulates each compiled program and compares its result and
    stdout with the tree oracle on the unoptimized IL."""

    def __init__(self, outcome: Outcome, recorder, references: References):
        self.outcome = outcome
        self.recorder = recorder
        self.references = references
        self.reference = {}

    def __call__(self, name: str, source: str, result) -> None:
        from repro.titan.simulator import TitanSimulator
        if name not in self.reference:
            self.reference[name] = self.references.program(source, name)
        try:
            with span(self.recorder, "check"):
                report = TitanSimulator(
                    result.program,
                    schedules=result.schedules or None).run("main")
        except Exception as exc:  # noqa: BLE001
            # An exception escaping the compiled program is a crash, as
            # the fuzz harness classifies it: a failed operation.
            self.outcome.failures.append(
                f"{name} (run: {type(exc).__name__}: {exc})")
            return
        value, stdout, scalar_cycles = self.reference[name]
        self.outcome.check(name, (report.result, report.stdout)
                           == (value, stdout))
        self.outcome.speedups[name] = scalar_cycles / report.cycles


def run_ops(seconds: int) -> int:
    """Compiles in an untraced run: one of each input."""
    return len(fixed_inputs()) + GENERATED_PER_SECOND * seconds


def trace_ops(seconds: int) -> int:
    """Compiles in each pass of a traced run."""
    return 4 * seconds


def _compile(name: str, source: str, outcome: Outcome):
    """The compile under test; ``None`` (and a named failure) when it
    raises."""
    from repro.pipeline import TitanCompiler
    try:
        return TitanCompiler().compile(source, name)
    except Exception as exc:  # noqa: BLE001
        outcome.failures.append(
            f"{name} (compile: {type(exc).__name__}: {exc})")
        return None


def run(seed: int, budget: Budget, recorder=None) -> Outcome:
    inputs = make_inputs(seed, budget.seconds)
    outcome = Outcome()
    with References() as references:
        _loop(inputs, budget, outcome, _Checker(outcome, recorder,
                                                references), recorder)
    outcome.rss_mb = self_rss_mb()
    outcome.notes["inputs"] = len(inputs)
    return outcome


def _loop(inputs, budget: Budget, outcome: Outcome, check: _Checker,
          recorder) -> None:
    done = 0
    while budget.more(done):
        name, source = inputs[done % len(inputs)]
        scale = speed_scale()
        with span(recorder, "op"):
            start = time.perf_counter()
            result = _compile(name, source, outcome)
            elapsed = time.perf_counter() - start
        outcome.timed(elapsed, (scale + speed_scale()) / 2)
        done += 1
        if result is not None:
            check(name, source, result)
    outcome.units = outcome.attempted
