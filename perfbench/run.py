"""The repo benchmark: four closed-loop workloads over the compiler's
user paths, each driven by a single client process.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run does a seeded, fixed amount of work that takes about
``--seconds`` at the reference speed, under a ``PYTHONHASHSEED``
derived from ``--seed``, so two runs of one seed attempt the same
operations and fail the same ones.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed number of operations untraced, then with
spans around every call into a layer, then untraced again, and
reports each layer's self time and counts plus the tracing overhead.  Either way
the last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (named, with units, in BENCHMARK.json).
``--all`` runs every workload untraced and prints one row per
workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import common, tracing  # noqa: E402

WORKLOADS = ("compile_corpus", "simulate_kernels", "service_mixed",
             "cli_oneshot")
#: Fresh processes whose median is the set-up time.
SETUP_REPS = 7
#: What one operation is, per workload, for the readable report.
OPERATION = {
    "compile_corpus": ("compile_ms", "compiles_per_s"),
    "simulate_kernels": ("sim_ms", "simulations_per_s"),
    "service_mixed": ("batch_ms", "requests_per_s"),
    "cli_oneshot": ("cli_ms", "invocations_per_s"),
}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(workload: str, outcome: common.Outcome) -> dict:
    latencies = outcome.latencies
    return {
        "setup_s": common.measure_setup(workload, SETUP_REPS),
        "latency_ms_p50": common.quantile(latencies, 0.5) * 1e3,
        "latency_ms_p90": common.quantile(latencies, 0.9) * 1e3,
        "throughput_per_s": outcome.units / sum(latencies),
        "titan_speedup_geomean": common.geomean(outcome.speedups.values()),
        "peak_rss_mb": outcome.rss_mb,
    }


def per_layer(workload: str, module, seed: int, seconds: int):
    """The same fixed operations untraced, traced, and untraced again
    (the traced pass is compared with both, as the first pass also
    warms caches)."""
    ops = module.trace_ops(seconds)
    untraced = module.run(seed, common.Budget(seconds, ops))
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        traced = module.run(seed, common.Budget(seconds, ops), recorder)
    finally:
        tracing.uninstall(undo)
    again = module.run(seed, common.Budget(seconds, ops))
    metrics = tracing.ledger(recorder)
    # Workload-side figures come from the untraced pass: the same
    # operations, without wrappers in the way.
    metrics.update(untraced.layers)
    if hasattr(module, "trace_layers"):
        metrics.update(module.trace_layers())
    base = (sum(untraced.latencies) + sum(again.latencies)) / 2
    metrics["trace.overhead_pct"] = \
        100.0 * (sum(traced.latencies) - base) / base
    metrics["trace.ops"] = ops
    tracing.dump(recorder, os.path.join(
        common.OUT, f"spans_{workload}_{seed}.json"))
    merged = common.Outcome(
        raw=untraced.raw,
        attempted=untraced.attempted + traced.attempted + again.attempted,
        failures=untraced.failures + traced.failures + again.failures,
        wrong=untraced.wrong + traced.wrong + again.wrong,
        notes=untraced.notes)
    return merged, metrics


def report(workload: str, outcome: common.Outcome, metrics: dict,
           names: list) -> dict:
    units = {entry["name"]: entry["unit"] for entry in names}
    missing = [name for name in units if name not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    latency, throughput = OPERATION[workload]
    alias = {"latency_ms_p50": latency + "_p50",
             "latency_ms_p90": latency + "_p90",
             "throughput_per_s": throughput}
    print(f"== {workload}")
    for name, unit in units.items():
        shown = alias.get(name, name)
        print(f"  {shown:34s} {metrics[name]:14.4f} {unit}")
    samples = len(outcome.raw)
    if samples:
        print(f"  {'samples':34s} {samples:14d} count")
        print(f"  {latency + '_p50 (wall clock)':34s} "
              f"{common.quantile(outcome.raw, 0.5) * 1e3:14.4f} ms")
    for key, value in outcome.notes.items():
        print(f"  {key:34s} {value}")
    print(f"  {'wrong_outputs':34s} {len(outcome.wrong):14d} count")
    ratio = len(outcome.failures) / max(1, outcome.attempted)
    print(f"  {'fail_ratio':34s} {ratio:14.4f} "
          f"({len(outcome.failures)}/{outcome.attempted})")
    for name in sorted(set(outcome.failures)):
        print(f"    failed: {name} "
              f"x{outcome.failures.count(name)}")
    for name in sorted(set(outcome.wrong)):
        print(f"    WRONG OUTPUT: {name}")
    return {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_one(args) -> int:
    common.require_tree()
    module = importlib.import_module(f"perfbench.{args.workload}")
    bench = spec()
    if args.trace:
        outcome, metrics = per_layer(args.workload, module, args.seed,
                                     args.seconds)
        names = bench["per_layer"]
        # A layer the workload never calls reads 0.
        for entry in names:
            metrics.setdefault(entry["name"], 0.0)
    else:
        outcome = module.run(args.seed, common.Budget(
            args.seconds, module.run_ops(args.seconds)))
        metrics = end_to_end(args.workload, outcome)
        names = bench["end_to_end"]
    result = report(args.workload, outcome, metrics, names)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, one row per workload."""
    common.require_tree()
    rows = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        print(done.stdout, end="")
        rows[workload] = json.loads(done.stdout.splitlines()[-1])
    names = [entry["name"] for entry in spec()["end_to_end"]]
    print("\nworkload          " + " ".join(f"{n:>22s}" for n in names)
          + "  correct fail_ratio")
    for workload, row in rows.items():
        values = " ".join(
            f"{row['metrics'][n]['value']:>16.3f} "
            f"{row['metrics'][n]['unit']:>5s}" for n in names)
        print(f"{workload:17s} {values}  {str(row['correct']):7s}"
              f" {row['failed'] / row['attempted']:.4f}")
    return 0 if all(row["correct"] for row in rows.values()) else 1


def pin_hash_seed(seed: int, argv: list) -> None:
    """Re-run this process under ``PYTHONHASHSEED`` derived from
    ``seed`` unless it already runs under it: hash order reaches the
    compiler's output, and the same seed must give the same run."""
    wanted = str(seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    pin_hash_seed(args.seed, argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
