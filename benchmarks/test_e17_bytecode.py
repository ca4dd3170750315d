"""E17 — bytecode codegen engine vs the closure-compiled tier.

Not a paper claim: this experiment gates the repo's third execution
tier.  The closure engine (E13) removed the tree walker's dispatch
overhead by compiling each statement to a Python closure; the
bytecode engine removes the *closure-call* overhead too by emitting
one generated Python function per IL function — blocks become
straight-line code, registers become locals, and CPython executes the
whole flow graph as native bytecode.  E17 measures what that second
substitution buys on the two hot ISSUE workloads, and proves the
codegen tier is *bit-identical* to both other engines on each.

A second row times *simulation* (a TitanSimulator run at O0) on the
bytecode tier, which counts block executions and prices them in bulk,
against the closure tier's one cost-model call per event.

Speedup is measured in interpreter steps/sec (all engines execute the
same dynamic step sequence, so steps/sec ratios equal wall-clock
ratios with the measurement noise divided out).  Each engine gets one
warm-up run — code generation is a one-time, per-function cost — then
the best of several timed runs.
"""

import time

from harness import O0, Row, print_table, record_bench
from repro.interp import make_interpreter
from repro.pipeline import compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from repro.workloads.blas import caller_program
from repro.workloads.stencils import backsolve

REPS = 5

BACKSOLVE_N = 512
DAXPY_N = 2048

ENGINES = ("tree", "compiled", "bytecode")


def _workloads():
    """(name, source, entry, args, globals-setup, output array) for
    the gate workloads, compiled at O0 so the measurement is
    dispatch-bound scalar execution — the case the tier targets."""

    def backsolve_setup(interp):
        interp.set_global_array("x", [1.0] * BACKSOLVE_N)
        interp.set_global_array(
            "y", [i + 2.0 for i in range(BACKSOLVE_N)])
        interp.set_global_array("z", [0.5] * BACKSOLVE_N)
        interp.set_global_scalar("n", BACKSOLVE_N)

    def daxpy_setup(interp):
        interp.set_global_array("b", [1.0] * DAXPY_N)
        interp.set_global_array("c", [2.0] * DAXPY_N)

    return [
        ("backsolve", backsolve(BACKSOLVE_N), "backsolve", (),
         backsolve_setup, ("x", BACKSOLVE_N)),
        ("daxpy", caller_program(n=DAXPY_N), "bench", (),
         daxpy_setup, ("b", DAXPY_N)),
    ]


def _run_engine(program, engine, entry, args, setup, out_array):
    """One engine's steady-state steps/sec plus everything needed for
    the bit-identity check (result, stdout, step count, output)."""
    interp = make_interpreter(program, engine=engine,
                              max_steps=500_000_000)
    setup(interp)
    result = interp.run(entry, *args)  # warm-up: one-time codegen
    warm_steps = interp.steps
    best = 0.0
    steps = 0
    for _ in range(REPS):
        before = interp.steps
        start = time.perf_counter()
        interp.run(entry, *args)
        elapsed = time.perf_counter() - start
        steps = interp.steps - before
        if elapsed > 0:
            best = max(best, steps / elapsed)
    name, count = out_array
    return {
        "steps_per_sec": best,
        "result": result,
        "stdout": interp.stdout,
        "warm_steps": warm_steps,
        "run_steps": steps,
        "output": interp.global_array(name, count),
    }


def test_e17_bytecode_speedup():
    # The ISSUE's gate: the codegen tier must be >=2x the closure tier
    # on both hot workloads, with every observable bit-identical
    # across all three engines.
    thresholds = {"backsolve": 2.0, "daxpy": 2.0}
    rows = []
    for name, source, entry, args, setup, out in _workloads():
        program = compile_c(source, O0).program
        runs = {engine: _run_engine(program, engine, entry, args,
                                    setup, out)
                for engine in ENGINES}

        # Bit-identical observables: return value, stdout, dynamic
        # step counts (warm-up and steady-state), and every element of
        # the workload's output array — across all three engines.
        tree = runs["tree"]
        for engine in ("compiled", "bytecode"):
            for key in ("result", "stdout", "warm_steps", "run_steps",
                        "output"):
                assert runs[engine][key] == tree[key], \
                    f"{name}: {engine} disagrees with tree on {key}"

        speedup = (runs["bytecode"]["steps_per_sec"]
                   / runs["compiled"]["steps_per_sec"])
        record_bench("e17_bytecode", name, metrics={
            "host_tree_steps_per_sec": tree["steps_per_sec"],
            "host_compiled_steps_per_sec":
                runs["compiled"]["steps_per_sec"],
            "host_bytecode_steps_per_sec":
                runs["bytecode"]["steps_per_sec"],
            "host_bytecode_speedup_steps": speedup,
        })
        rows.append(Row(
            f"{name} bytecode speedup",
            f">={thresholds[name]:.0f}x", f"{speedup:.2f}x",
            speedup >= thresholds[name]))
    print_table("E17: bytecode codegen engine vs closure tier", rows)
    assert all(r.ok for r in rows)


def _simulate_seconds(program, engine, entry, args, setup):
    """Best-of-REPS wall time of one TitanSimulator run (construction
    excluded), after a warm-up that pays the one-time code
    generation; plus the last report."""
    best = float("inf")
    report = None
    for rep in range(REPS + 1):
        sim = TitanSimulator(program, TitanConfig(), engine=engine,
                             max_steps=500_000_000)
        setup(sim)
        start = time.perf_counter()
        report = sim.run(entry, *args)
        if rep:  # rep 0 is the warm-up
            best = min(best, time.perf_counter() - start)
    return best, report


def test_e17_simulation_speedup():
    # Simulation on the bytecode tier counts block executions and
    # prices them in bulk; the closure tier makes one cost-model call
    # per event.  Same cycles, counters and breakdown; the gate sits
    # below the measured ratio (6.8-12.9x backsolve, 7.6-11.4x daxpy
    # over five runs), at the roadmap's 5x target.
    threshold = 5.0
    rows = []
    for name, source, entry, args, setup, _ in _workloads():
        program = compile_c(source, O0).program
        closure, slow = _simulate_seconds(program, "compiled", entry,
                                          args, setup)
        counted, fast = _simulate_seconds(program, "bytecode", entry,
                                          args, setup)
        assert fast.cycles == slow.cycles, name
        assert fast.counters == slow.counters, name
        assert fast.breakdown == slow.breakdown, name
        speedup = closure / counted
        record_bench("e17_bytecode", f"{name}_simulate", metrics={
            "host_closure_simulate_seconds": closure,
            "host_bytecode_simulate_seconds": counted,
            "host_bytecode_simulate_speedup": speedup,
        })
        rows.append(Row(f"{name} simulate speedup",
                        f">={threshold:.0f}x", f"{speedup:.2f}x",
                        speedup >= threshold))
    print_table("E17: simulation, counted bytecode vs closure tier",
                rows)
    assert all(r.ok for r in rows)


def test_e17_cycle_stream_identical():
    # With the cost hook installed (profile=True) the bytecode engine
    # delegates to the closure tier, and the whole simulator stack
    # must report identical cycles, counters, and breakdown across all
    # three engines.
    source = backsolve(BACKSOLVE_N)
    program = compile_c(source, O0).program
    reports = {}
    for engine in ENGINES:
        sim = TitanSimulator(program, TitanConfig(),
                             use_scheduler=False, profile=True,
                             engine=engine)
        sim.set_global_array("x", [1.0] * BACKSOLVE_N)
        sim.set_global_array("y",
                             [i + 2.0 for i in range(BACKSOLVE_N)])
        sim.set_global_array("z", [0.5] * BACKSOLVE_N)
        sim.set_global_scalar("n", BACKSOLVE_N)
        reports[engine] = sim.run("backsolve")
    oracle = reports["tree"]
    for engine in ("compiled", "bytecode"):
        fast = reports[engine]
        assert fast.cycles == oracle.cycles, engine
        assert fast.counters == oracle.counters, engine
        assert fast.breakdown == oracle.breakdown, engine
        # Profiler sum-to-total invariant holds on every engine.
        profile = fast.profile
        total = profile.toplevel_cycles + sum(l.cycles
                                              for l in profile.loops)
        assert total == fast.cycles == oracle.cycles, engine
