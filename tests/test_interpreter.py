"""Unit tests for the reference IL interpreter."""

import os
import subprocess
import sys

import pytest

from repro.frontend.lower import compile_to_il
from repro.interp.interpreter import (Interpreter, InterpreterError,
                                      StepLimitExceeded, run_c)
from repro.interp.memory import Memory, MemoryError_
from repro.frontend.ctypes_ import DOUBLE, FLOAT, INT, PointerType, UINT


def run_main(src, *args, **kwargs):
    program = compile_to_il(src)
    interp = Interpreter(program, **kwargs)
    return interp.run("main", *args), interp


class TestArithmetic:
    def test_return_constant(self):
        assert run_main("int main(void) { return 42; }")[0] == 42

    def test_integer_arithmetic(self):
        assert run_main(
            "int main(void) { return (7 + 3) * 2 - 5; }")[0] == 15

    def test_c_division_truncates_toward_zero(self):
        assert run_main("int main(void) { return -7 / 2; }")[0] == -3

    def test_c_modulo_sign(self):
        assert run_main("int main(void) { return -7 % 2; }")[0] == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            run_main("int main(void) { int z; z = 0; return 1 / z; }")

    def test_signed_overflow_wraps(self):
        src = "int main(void) { int x; x = 2147483647; return x + 1; }"
        assert run_main(src)[0] == -2147483648

    def test_unsigned_wraps(self):
        src = ("int main(void) { unsigned int x; x = 0; "
               "x = x - 1; return x == 4294967295U; }")
        assert run_main(src)[0] == 1

    def test_shifts_and_bitops(self):
        src = ("int main(void) { return ((1 << 4) | 3) & ~2; }")
        assert run_main(src)[0] == (((1 << 4) | 3) & ~2)

    def test_float_arithmetic(self):
        src = ("int main(void) { double d; d = 1.5 * 4.0; "
               "return d == 6.0; }")
        assert run_main(src)[0] == 1

    def test_float_truncation_on_int_cast(self):
        src = "int main(void) { return (int) 3.9; }"
        assert run_main(src)[0] == 3

    def test_float_store_rounds_to_single(self):
        src = ("float g; int main(void) { g = 0.1; return 0; }")
        _, interp = run_main(src)
        import struct
        expected = struct.unpack("<f", struct.pack("<f", 0.1))[0]
        assert interp.global_scalar("g") == expected

    def test_comparison_results_are_01(self):
        assert run_main("int main(void) { return (3 > 2) + (2 > 3); }"
                        )[0] == 1


class TestControlFlow:
    def test_if_else(self):
        src = ("int main(void) { int x; x = 5; "
               "if (x > 3) return 1; else return 2; }")
        assert run_main(src)[0] == 1

    def test_while_sum(self):
        src = ("int main(void) { int i, s; i = 0; s = 0; "
               "while (i < 10) { s = s + i; i = i + 1; } return s; }")
        assert run_main(src)[0] == 45

    def test_for_loop(self):
        src = ("int main(void) { int i, s; s = 0; "
               "for (i = 1; i <= 5; i++) s = s + i; return s; }")
        assert run_main(src)[0] == 15

    def test_nested_loops(self):
        src = ("int main(void) { int i, j, c; c = 0; "
               "for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) c++; "
               "return c; }")
        assert run_main(src)[0] == 12

    def test_break_and_continue(self):
        src = """
        int main(void) {
            int i, s;
            s = 0;
            for (i = 0; i < 100; i++) {
                if (i == 5) break;
                if (i % 2) continue;
                s = s + i;
            }
            return s;
        }
        """
        assert run_main(src)[0] == 0 + 2 + 4

    def test_goto_forward_and_backward(self):
        src = """
        int main(void) {
            int n;
            n = 0;
        again:
            n = n + 1;
            if (n < 3) goto again;
            goto done;
            n = 100;
        done:
            return n;
        }
        """
        assert run_main(src)[0] == 3

    def test_switch_dispatch(self):
        src = """
        int pick(int x) {
            switch (x) {
            case 1: return 10;
            case 2: return 20;
            default: return -1;
            }
        }
        int main(void) { return pick(1) + pick(2) + pick(7); }
        """
        assert run_main(src)[0] == 29

    def test_switch_fallthrough(self):
        src = """
        int main(void) {
            int r;
            r = 0;
            switch (1) {
            case 1: r = r + 1;
            case 2: r = r + 10; break;
            case 3: r = r + 100;
            }
            return r;
        }
        """
        assert run_main(src)[0] == 11

    def test_infinite_loop_hits_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run_main("int main(void) { for (;;) ; return 0; }",
                     max_steps=1000)


class TestFunctions:
    def test_call_and_return(self):
        src = ("int dbl(int x) { return 2 * x; } "
               "int main(void) { return dbl(21); }")
        assert run_main(src)[0] == 42

    def test_recursion_factorial(self):
        src = ("int fact(int n) { if (n <= 1) return 1; "
               "return n * fact(n - 1); } "
               "int main(void) { return fact(6); }")
        assert run_main(src)[0] == 720

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n-1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n-1); }
        int main(void) { return is_even(10) * 10 + is_odd(7); }
        """
        assert run_main(src)[0] == 11

    def test_arguments_by_value(self):
        src = ("void bump(int x) { x = x + 1; } "
               "int main(void) { int v; v = 5; bump(v); return v; }")
        assert run_main(src)[0] == 5

    def test_pointer_argument_mutates(self):
        src = ("void bump(int *p) { *p = *p + 1; } "
               "int main(void) { int v; v = 5; bump(&v); return v; }")
        assert run_main(src)[0] == 6

    def test_stack_frames_released(self):
        # Deep call chains must not leak frame storage.
        src = """
        int deep(int n) {
            float local[64];
            local[0] = n;
            if (n == 0) return 0;
            return deep(n - 1) + (int) local[0];
        }
        int main(void) { return deep(100); }
        """
        assert run_main(src)[0] == sum(range(101))

    def test_unknown_function_raises(self):
        with pytest.raises(InterpreterError):
            run_main("int main(void) { return mystery(); }")

    def test_wrong_arity_raises(self):
        src = ("int f(int a, int b) { return a + b; } "
               "int main(void) { return f(1); }")
        with pytest.raises(InterpreterError):
            run_main(src)


class TestMemoryModel:
    def test_global_arrays(self):
        src = """
        int a[10];
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) a[i] = i * i;
            return a[7];
        }
        """
        assert run_main(src)[0] == 49

    def test_pointer_walk(self):
        src = """
        int a[5];
        int main(void) {
            int *p, s;
            for (p = &a[0]; p < &a[5]; p++) *p = 3;
            s = 0;
            for (p = &a[0]; p < &a[5]; p++) s = s + *p;
            return s;
        }
        """
        assert run_main(src)[0] == 15

    def test_aliasing_through_pointers(self):
        src = """
        int main(void) {
            int x;
            int *p;
            p = &x;
            x = 1;
            *p = 42;
            return x;
        }
        """
        assert run_main(src)[0] == 42

    def test_struct_fields(self):
        src = """
        struct pt { float x; float y; };
        struct pt g;
        int main(void) {
            g.x = 3.0f; g.y = 4.0f;
            return (int)(g.x * g.x + g.y * g.y);
        }
        """
        assert run_main(src)[0] == 25

    def test_array_in_struct(self):
        src = """
        struct v { float w[4]; int tag; };
        struct v g;
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) g.w[i] = i;
            g.tag = 9;
            return (int) g.w[2] + g.tag;
        }
        """
        assert run_main(src)[0] == 11

    def test_malloc_linked_list(self):
        src = """
        struct node { int v; struct node *next; };
        int main(void) {
            struct node *head, *p;
            int i, s;
            head = 0;
            for (i = 1; i <= 5; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->v = i; p->next = head; head = p;
            }
            s = 0;
            for (p = head; p; p = p->next) s = s + p->v;
            return s;
        }
        """
        assert run_main(src)[0] == 15

    def test_null_dereference_faults(self):
        src = "int main(void) { int *p; p = 0; return *p; }"
        with pytest.raises(MemoryError_):
            run_main(src)

    def test_char_access(self):
        src = """
        char buf[8];
        int main(void) {
            buf[0] = 'H'; buf[1] = 'i'; buf[2] = 0;
            return buf[0] + buf[1];
        }
        """
        assert run_main(src)[0] == ord("H") + ord("i")

    def test_global_initializers(self):
        src = ("int scale = 4; float w[3] = {1.5, 2.5, 3.5};"
               "int main(void) { return scale * (int) w[2]; }")
        assert run_main(src)[0] == 12

    def test_memory_typed_accessors(self):
        mem = Memory(4096)
        addr = mem.allocate(8)
        mem.store(addr, INT, -5)
        assert mem.load(addr, INT) == -5
        mem.store(addr, FLOAT, 2.5)
        assert mem.load(addr, FLOAT) == 2.5
        mem.store(addr, DOUBLE, 1.25)
        assert mem.load(addr, DOUBLE) == 1.25
        mem.store(addr, UINT, -1)
        assert mem.load(addr, UINT) == 2**32 - 1

    def test_memory_bounds_checked(self):
        mem = Memory(64)
        with pytest.raises(MemoryError_):
            mem.load(100, INT)

    def test_untouched_memory_costs_no_resident_pages(self):
        # Fifty live 4 MiB memories, each written only at its first and
        # last valid address, must not raise peak RSS by anything near
        # their 200 MiB of address space.  A fresh process, so the
        # test suite's own peak does not hide the growth.
        script = (
            "import resource\n"
            "from repro.interp.memory import Memory\n"
            "from repro.frontend.ctypes_ import INT\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "keep = []\n"
            "for _ in range(50):\n"
            "    mem = Memory()\n"
            "    mem.store(8, INT, 1)\n"
            "    mem.store(len(mem.data) - 4, INT, 2)\n"
            "    assert mem.load(len(mem.data) - 4, INT) == 2\n"
            "    keep.append(mem)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert int(done.stdout) < 16 * 1024  # ru_maxrss is in KiB


class TestBuiltinsAndDevices:
    def test_printf_formats(self):
        src = ('int main(void) { printf("%d %g %s %c|", 7, 2.5, '
               '"ok", 65); return 0; }')
        _, interp = run_main(src)
        assert interp.stdout == "7 2.5 ok A|"

    def test_math_builtins(self):
        src = ("int main(void) { return (int)(sqrt(16.0) "
               "+ fabs(-2.0) + pow(2.0, 3.0)); }")
        assert run_main(src)[0] == 14

    def test_putchar(self):
        src = "int main(void) { putchar('X'); return 0; }"
        _, interp = run_main(src)
        assert interp.stdout == "X"

    def test_volatile_device_read_sequence(self):
        src = ("volatile int status; int spins;"
               "int main(void) { spins = 0; "
               "while (!status) spins = spins + 1; return spins; }")
        program = compile_to_il(src)
        interp = Interpreter(program)
        values = iter([0, 0, 0, 1])
        interp.add_device("status", on_read=lambda: next(values))
        assert interp.run("main") == 3

    def test_volatile_device_write_hook(self):
        src = ("volatile int port;"
               "int main(void) { port = 1; port = 2; port = 3; "
               "return 0; }")
        program = compile_to_il(src)
        interp = Interpreter(program)
        written = []
        interp.add_device("port", on_write=written.append)
        interp.run("main")
        assert written == [1, 2, 3]

    def test_device_counts_accesses(self):
        src = ("volatile int v; int main(void) "
               "{ return v + v + v; }")
        program = compile_to_il(src)
        interp = Interpreter(program)
        device = interp.add_device("v", on_read=lambda: 2)
        assert interp.run("main") == 6
        assert device.reads == 3


class TestHarness:
    def test_run_c_helper(self):
        interp = run_c("int x; int main(void) { x = 9; return 0; }")
        assert interp.global_scalar("x") == 9

    def test_set_and_get_global_array(self):
        program = compile_to_il("float a[4]; int main(void) "
                                "{ return 0; }")
        interp = Interpreter(program)
        interp.set_global_array("a", [1.0, 2.0, 3.0, 4.0])
        assert interp.global_array("a", 4) == [1.0, 2.0, 3.0, 4.0]

    def test_uninitialized_read_raises(self):
        src = "int main(void) { int x; return x; }"
        with pytest.raises(InterpreterError):
            run_main(src)
