"""Unit parity tests for the Python-bytecode codegen engine.

``engine="bytecode"`` compiles each IL function to ONE generated
Python function and must stay observably indistinguishable from the
tree-walking oracle and the closure tier: same results, same stdout,
same step accounting, same cost-event stream, same errors at the same
dynamic operation counts.  The broad sweeps live in
``test_engine_differential.py``; these tests pin the engine-specific
mechanisms — the cross-instance codegen cache and its metrics, cache
invalidation, the closure-tier fallback for volatile/aggregate
constructs, hook-driven delegation, and the ``disassemble`` debugging
surface.
"""

import pytest

from repro.frontend.lower import compile_to_il
from repro.interp import (BytecodeInterpreter, ENGINES,
                          InterpreterError, StepLimitExceeded,
                          make_interpreter)
from repro.interp.bytecode import _CACHE_ATTR, _CodegenEntry
from repro.pipeline import CompilerOptions, compile_c


def _all(source, entry="main", args=(), **kwargs):
    """Run a program under every engine, returning the interpreters
    and their results keyed by engine name."""
    program = compile_to_il(source, "<test>")
    out = {}
    for engine in ENGINES:
        interp = make_interpreter(program, engine=engine, **kwargs)
        out[engine] = (interp, interp.run(entry, *args))
    return out


class TestFactory:
    def test_engine_name(self):
        program = compile_to_il("int main(void) { return 1; }")
        interp = make_interpreter(program, engine="bytecode")
        assert type(interp) is BytecodeInterpreter
        assert interp.engine_name == "bytecode"

    def test_engines_tuple_lists_bytecode(self):
        assert "bytecode" in ENGINES


class TestObservableParity:
    def test_loop_result_stdout_steps(self):
        src = ('int main(void) { int i; int s; s = 0; '
               'for (i = 0; i < 50; i++) s = s + i; '
               'printf("%d\\n", s); return s; }')
        out = _all(src)
        tree, tv = out["tree"]
        fast, fv = out["bytecode"]
        assert tv == fv == 1225
        assert tree.stdout == fast.stdout == "1225\n"
        assert tree.steps == fast.steps

    def test_goto_flow(self):
        src = ("int main(void) { int n; n = 0; "
               "again: n = n + 1; if (n < 5) goto again; "
               "return n; }")
        out = _all(src)
        assert out["tree"][1] == out["bytecode"][1] == 5
        assert out["tree"][0].steps == out["bytecode"][0].steps

    def test_recursion(self):
        src = ("int fib(int n) { if (n < 2) return n; "
               "return fib(n-1) + fib(n-2); } "
               "int main(void) { return fib(12); }")
        out = _all(src)
        assert out["tree"][1] == out["bytecode"][1] == 144
        assert out["tree"][0].steps == out["bytecode"][0].steps

    def test_f32_narrowing(self):
        src = ("float f; int main(void) { f = 0.1; "
               "return (int)(f * 1e9); }")
        out = _all(src)
        assert out["tree"][1] == out["bytecode"][1]

    def test_vectorized_and_parallel_orders(self):
        src = ('float a[64], b[64]; '
               'int main(void) { int i; '
               'for (i = 0; i < 64; i++) a[i] = b[i] * 2.0f + 1.0f; '
               'return (int)a[63]; }')
        program = compile_c(src, CompilerOptions()).program
        for order in ("forward", "reverse", "shuffle"):
            obs = {}
            for engine in ENGINES:
                interp = make_interpreter(program, engine=engine,
                                          parallel_order=order, seed=7)
                obs[engine] = (interp.run("main"), interp.steps)
            assert obs["bytecode"] == obs["tree"], order

    def test_cost_event_stream_identical(self):
        # With a hook installed the engine delegates to the closure
        # tier, whose event order is bit-identical to the oracle's.
        src = ('float a[16], b[16]; '
               'int main(void) { int i; '
               'for (i = 0; i < 16; i++) a[i] = b[i] + 1.0f; '
               'return 0; }')
        program = compile_to_il(src, "<test>")
        streams = {}
        for engine in ("tree", "bytecode"):
            events = []
            interp = make_interpreter(
                program, engine=engine,
                cost_hook=lambda *event: events.append(event))
            interp.run("main")
            streams[engine] = events
        assert streams["tree"] == streams["bytecode"]
        assert streams["tree"]


class TestErrorsAndLimits:
    def test_step_limit_same_count(self):
        src = "int main(void) { for (;;) ; return 0; }"
        program = compile_to_il(src, "<test>")
        outcomes = {}
        for engine in ("tree", "bytecode"):
            interp = make_interpreter(program, engine=engine,
                                      max_steps=997)
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run("main")
            outcomes[engine] = (str(exc.value), interp.steps)
        assert outcomes["tree"] == outcomes["bytecode"]
        assert outcomes["tree"][1] == 998  # the step that tripped

    def test_uninitialized_read_same_message(self):
        src = "int main(void) { int x; return x + 1; }"
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ("tree", "bytecode"):
            interp = make_interpreter(program, engine=engine)
            with pytest.raises(InterpreterError) as exc:
                interp.run("main")
            messages[engine] = str(exc.value)
        assert messages["tree"] == messages["bytecode"]

    def test_null_deref_same_message(self):
        src = "int main(void) { int *p; p = 0; return *p; }"
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ("tree", "bytecode"):
            interp = make_interpreter(program, engine=engine)
            with pytest.raises(Exception) as exc:
                interp.run("main")
            messages[engine] = (type(exc.value).__name__,
                                str(exc.value))
        assert messages["tree"] == messages["bytecode"]


class TestFallbackAndDevices:
    def test_volatile_device_reads(self):
        # Volatile accesses force the closure-tier fallback; the
        # device protocol must still work identically.
        src = ("volatile int status; int spins;"
               "int main(void) { spins = 0; "
               "while (!status) spins = spins + 1; return spins; }")
        program = compile_to_il(src)
        interp = make_interpreter(program, engine="bytecode")
        values = iter([0, 0, 0, 1])
        interp.add_device("status", on_read=lambda: next(values))
        assert interp.run("main") == 3

    def test_volatile_device_write_order(self):
        src = ("volatile int port;"
               "int main(void) { port = 1; port = 2; port = 3; "
               "return 0; }")
        program = compile_to_il(src)
        interp = make_interpreter(program, engine="bytecode")
        written = []
        interp.add_device("port", on_write=written.append)
        interp.run("main")
        assert written == [1, 2, 3]

    def test_fallback_cached_on_function(self):
        src = ("volatile int port; "
               "int main(void) { port = 1; return 0; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="bytecode")
        interp.run("main")
        entry = getattr(program.functions["main"], _CACHE_ATTR)
        assert not isinstance(entry, _CodegenEntry)
        assert "volatile" in entry.reason


class TestHooks:
    def test_hook_swap_produces_full_stream(self):
        src = ("int main(void) { int i; int s; s = 0; "
               "for (i = 0; i < 4; i++) s = s + i; return s; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="bytecode")
        assert interp.run("main") == 6  # generated-code path
        events = []
        interp.cost_hook = lambda *event: events.append(event)
        assert interp.run("main") == 6  # closure-tier delegation
        reference = []
        oracle = make_interpreter(
            program, engine="tree",
            cost_hook=lambda *event: reference.append(event))
        oracle.run("main")
        assert events == reference
        assert events

    def test_hook_removal_returns_to_codegen(self):
        src = "int main(void) { return 41 + 1; }"
        program = compile_to_il(src, "<test>")
        events = []
        interp = make_interpreter(
            program, engine="bytecode",
            cost_hook=lambda *event: events.append(event))
        assert interp.run("main") == 42
        assert events
        interp.cost_hook = None
        events.clear()
        assert interp.run("main") == 42
        assert events == []


class TestCodegenCache:
    def test_cache_hit_across_instances(self):
        src = "int main(void) { return 6 * 7; }"
        program = compile_to_il(src, "<test>")
        fn = program.functions["main"]
        if hasattr(fn, _CACHE_ATTR):
            delattr(fn, _CACHE_ATTR)
        first = make_interpreter(program, engine="bytecode")
        assert first.run("main") == 42
        assert (first.codegen_hits, first.codegen_misses) == (0, 1)
        # A second engine instance reuses the generated code object
        # hung on the ILFunction: hit, no second codegen.
        second = make_interpreter(program, engine="bytecode")
        assert second.run("main") == 42
        assert (second.codegen_hits, second.codegen_misses) == (1, 0)

    def test_invalidate_graphs_clears_cache(self):
        src = "int main(void) { return 7; }"
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="bytecode")
        interp.run("main")
        fn = program.functions["main"]
        assert hasattr(fn, _CACHE_ATTR)
        interp.invalidate_graphs()
        assert not hasattr(fn, _CACHE_ATTR)

    def test_stale_layout_recompiles(self):
        # The same ILFunction object under an interpreter with a
        # different memory layout must not reuse baked addresses.
        src = "int g; int main(void) { g = 9; return g; }"
        program = compile_to_il(src, "<test>")
        a = make_interpreter(program, engine="bytecode")
        assert a.run("main") == 9
        b = make_interpreter(program, engine="bytecode",
                             memory_size=1 << 18)
        assert b.run("main") == 9


class TestDisassemble:
    def test_smoke(self):
        src = ("int main(void) { int i; int s; s = 0; "
               "for (i = 0; i < 3; i++) s = s + i; return s; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="bytecode")
        text = interp.disassemble("main")
        assert "# generated source for main" in text
        assert "def _bytecode_fn" in text
        assert "# CPython bytecode for main" in text
        assert "RETURN_VALUE" in text or "RETURN_CONST" in text

    def test_works_without_running(self):
        program = compile_to_il("int main(void) { return 3; }",
                                "<test>")
        interp = make_interpreter(program, engine="bytecode")
        assert "def _bytecode_fn" in interp.disassemble("main")

    def test_fallback_function_reports_reason(self):
        src = ("volatile int port; "
               "int main(void) { port = 5; return 0; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="bytecode")
        text = interp.disassemble("main")
        assert "closure-tier fallback" in text
        assert "volatile" in text

    def test_unknown_function_rejected(self):
        program = compile_to_il("int main(void) { return 0; }")
        interp = make_interpreter(program, engine="bytecode")
        with pytest.raises(InterpreterError,
                           match="no function named 'nope'"):
            interp.disassemble("nope")
