"""``cli_oneshot``: one ``python -m repro.cli`` process at a time.

Interpreter start-up plus ``import repro`` is most of a one-shot
invocation, and no other workload measures it.  Compile-only
(``--report-json -``) and ``--run main`` invocations of the same files
run side by side in one seeded order, so a change to what only the
simulator imports shows on one of them and not the other.

Each process gets its own ``PYTHONHASHSEED`` (the invocation number),
as independent user processes would get random ones, so a report
whose bytes depend on hash order shows up here, the same way on every
run of one seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from .common import (OUT, ROOT, Budget, Outcome, References, child_env,
                     process_scale, run_child)

MODES = {"compile": ["--report-json", "-"], "run": ["--run", "main"]}
#: Line-count band of the seeded generated program: mid-sized, so the
#: seed changes which program runs but not how long it takes to compile.
GENERATED_LINES = (44, 50)
#: A kernel with a checksumming main; the seed picks n within 3% of
#: 1024 and the data pattern.
KERNEL_MAIN = """
int main(void)
{{
    int i;
    for (i = 0; i < {n}; i++)
        src[i] = (float) ((i * {k}) % 17) * 0.25f;
    smooth({n});
    return (int) (dst[1] * 4.0f + dst[{n} - 2] * 4.0f);
}}
"""
SUMMARY = re.compile(r"/\* simulated: (\d+) cycles, .* result=(\S+) \*/")
TRACED = os.path.join(ROOT, "perfbench", "cli_traced.py")
#: Marker of the span export a traced CLI process writes to stderr.
SPANS_MARKER = "perfbench-spans "


def setup():
    import repro.cli  # noqa: F401 — what every invocation imports


def make_inputs(seed: int) -> Dict[str, str]:
    """name -> path: the two examples, a seeded kernel and a seeded
    generated program (the last two written under the checkout's
    scratch directory)."""
    from repro.fuzz.generator import generate_program
    from repro.workloads import stencils
    rng = random.Random(seed)
    inputs = {os.path.join("examples", name):
              os.path.join(ROOT, "examples", name)
              for name in ("daxpy.c", "backsolve.c")}
    os.makedirs(OUT, exist_ok=True)
    n = rng.randrange(992, 1057)
    written = {f"kernel:smooth_{n}": stencils.smooth(n) + KERNEL_MAIN.format(
        n=n, k=rng.randrange(1, 17))}
    while True:
        gen_seed = rng.getrandbits(32)
        source = generate_program(gen_seed).source
        if GENERATED_LINES[0] <= source.count("\n") <= GENERATED_LINES[1]:
            written[f"gen:{gen_seed}"] = source
            break
    for name, source in written.items():
        path = os.path.join(OUT, f"cli_{name.replace(':', '_')}.c")
        with open(path, "w") as handle:
            handle.write(source)
        inputs[name] = path
    return inputs


def _wall(argv: List[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                   capture_output=True)
    return time.perf_counter() - start


def trace_layers(reps: int = 5) -> Dict[str, float]:
    """Bare interpreter start-up, and ``import repro`` on top of it
    (medians of ``reps`` processes each)."""
    bare = statistics.median(_wall([sys.executable, "-c", "pass"])
                             for _ in range(reps))
    imported = statistics.median(
        _wall([sys.executable, "-c", "import repro"])
        for _ in range(reps))
    return {"cli.interpreter_start_ms": bare * 1e3,
            "cli.import_ms": (imported - bare) * 1e3}


class _Checker:
    def __init__(self, outcome: Outcome, inputs: Dict[str, str],
                 references: References):
        self.outcome = outcome
        self.inputs = inputs
        self.references = references
        self.reports: Dict[str, str] = {}
        self.reference: Dict[str, str] = {}
        self.report_bytes = 0

    def __call__(self, name: str, mode: str, done) -> None:
        from repro.service.protocol import canonicalize_report
        label = f"{mode}:{name}"
        if done.returncode != 0:
            self.outcome.failures.append(
                f"{label} (exit {done.returncode})")
            return
        if mode == "compile":
            self.report_bytes += len(done.stdout)
            doc = json.loads(done.stdout)
            canonical = json.dumps(canonicalize_report(doc),
                                   sort_keys=True)
            self.outcome.check(label, doc["schema"] == "titancc-report/3")
            # The canonical report is promised byte-stable across
            # processes; a difference is a failed invocation.
            if canonical != self.reports.setdefault(name, canonical):
                self.outcome.failures.append(
                    f"{label} (report bytes differ between processes)")
            return
        match = SUMMARY.search(done.stdout.decode())
        if name not in self.reference:
            with open(self.inputs[name]) as handle:
                source = handle.read()
            value, _, scalar_cycles = self.references.program(source, name)
            self.reference[name] = (str(value), scalar_cycles)
        expected, scalar_cycles = self.reference[name]
        self.outcome.check(label, match is not None
                           and match.group(2) == expected)
        # Speed-ups of the fixed-shape inputs only: one generated
        # program would swing the geometric mean from seed to seed.
        if match is not None and not name.startswith("gen:"):
            self.outcome.speedups[name] = \
                scalar_cycles / float(match.group(1))


def run_ops(seconds: int) -> int:
    """Processes in an untraced run: whole rounds of the eight
    file/mode pairs, about 2.4 processes per second."""
    return 8 * max(1, 3 * seconds // 10)


def trace_ops(seconds: int) -> int:
    """Processes in each pass of a traced run."""
    return seconds


def run(seed: int, budget: Budget, recorder=None) -> Outcome:
    rng = random.Random(seed)
    inputs = make_inputs(seed)
    outcome = Outcome()
    with References() as references:
        _loop(rng, inputs, budget, outcome,
              _Checker(outcome, inputs, references), recorder)
    outcome.units = outcome.attempted
    return outcome


def _loop(rng: random.Random, inputs: Dict[str, str], budget: Budget,
          outcome: Outcome, check: _Checker, recorder) -> None:
    pairs = [(name, mode) for name in inputs for mode in MODES]
    per_mode = {mode: [] for mode in MODES}
    order: List = []
    done = 0
    while budget.more(done):
        if not order:
            order = list(pairs)
            rng.shuffle(order)
        name, mode = order.pop()
        if recorder is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, TRACED]
        argv += [os.path.relpath(inputs[name], ROOT)] + MODES[mode]
        env = child_env()
        env["PYTHONHASHSEED"] = str(done)
        scale = process_scale()
        finished, elapsed, rss_mb = run_child(argv, env)
        outcome.timed(elapsed, scale)
        # Only the titancc processes count towards the peak.
        outcome.rss_mb = max(outcome.rss_mb, rss_mb)
        per_mode[mode].append(outcome.latencies[-1])
        done += 1
        if recorder is not None:
            _absorb(recorder, finished.stderr.decode())
        check(name, mode, finished)
    for mode, key in (("compile", "cli.compile_only_ms"),
                      ("run", "cli.run_main_ms")):
        outcome.layers[key] = statistics.median(per_mode[mode]) * 1e3 \
            if per_mode[mode] else 0.0
    outcome.layers["obs.report_bytes"] = check.report_bytes


def _absorb(recorder, stderr: str) -> None:
    for line in stderr.splitlines():
        if line.startswith(SPANS_MARKER):
            recorder.absorb(json.loads(line[len(SPANS_MARKER):]))
