"""Tests for the titancc command-line driver."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.pipeline import TitanCompiler
from repro.workloads import blas

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def daxpy_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(blas.caller_program(n=64) + """
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) { b[i] = i; c[i] = 1.0f; }
    bench();
    printf("a[3]=%g\\n", a[3]);
    return 0;
}
""")
    return str(path)


class TestCLI:
    def test_plain_compile_prints_il(self, daxpy_file, capsys):
        assert main([daxpy_file]) == 0
        out = capsys.readouterr().out
        assert "do parallel" in out

    def test_dump_stages(self, daxpy_file, capsys):
        assert main([daxpy_file, "--dump-stages"]) == 0
        out = capsys.readouterr().out
        assert "stage: front-end" in out
        assert "stage: vectorize" in out

    def test_run_simulates(self, daxpy_file, capsys):
        assert main([daxpy_file, "--run", "main"]) == 0
        out = capsys.readouterr().out
        assert "a[3]=5.5" in out  # 3 + 2.5*1
        assert "MFLOPS" in out

    def test_no_vectorize_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--no-vectorize"]) == 0
        out = capsys.readouterr().out
        assert "do parallel" not in out or "vector" not in out

    def test_processors_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--processors", "4", "--run",
                     "main"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_stats_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "inline:" in err

    def test_make_and_use_db(self, tmp_path, capsys):
        lib = tmp_path / "lib.c"
        lib.write_text(blas.MATH_LIBRARY_C)
        db_path = str(tmp_path / "lib.ildb")
        assert main([str(lib), "--make-db", db_path]) == 0
        assert os.path.exists(db_path)
        out = capsys.readouterr().out
        assert "daxpy" in out

        client = tmp_path / "client.c"
        client.write_text(blas.library_client(n=32))
        assert main([str(client), "--use-db", db_path]) == 0
        out = capsys.readouterr().out
        assert "/* vector */" in out  # inlined + vectorized

    def test_fortran_pointers_flag(self, tmp_path, capsys):
        src = tmp_path / "ptr.c"
        src.write_text("""
void f(float *p, float *q, int n)
{
    int i;
    for (i = 0; i < n; i++)
        p[i] = q[i];
}
""")
        assert main([str(src), "--no-inline"]) == 0
        plain = capsys.readouterr().out
        assert "vector" not in plain
        assert main([str(src), "--no-inline", "--fortran-pointers"]) == 0
        fortran = capsys.readouterr().out
        assert "vector" in fortran


class TestEngineFlags:
    def test_run_on_bytecode_engine(self, daxpy_file, capsys):
        assert main([daxpy_file, "--engine", "bytecode",
                     "--run", "main"]) == 0
        out = capsys.readouterr().out
        assert "a[3]=5.5" in out
        assert "MFLOPS" in out

    def test_dump_code_without_run(self, daxpy_file, capsys):
        # --dump-code needs no --run: it disassembles the generated
        # code straight off the compiled program.
        assert main([daxpy_file, "--dump-code", "main"]) == 0
        err = capsys.readouterr().err
        assert "# generated source for main" in err
        assert "def _bytecode_fn" in err
        assert "# CPython bytecode for main" in err

    def test_dump_code_fallback_reports_reason(self, tmp_path, capsys):
        src = tmp_path / "vol.c"
        src.write_text("volatile int port;\n"
                       "int main(void) { port = 1; return 0; }\n")
        assert main([str(src), "--dump-code", "main"]) == 0
        err = capsys.readouterr().err
        assert "closure-tier fallback" in err

    def test_dump_code_unknown_function(self, daxpy_file, capsys):
        assert main([daxpy_file, "--dump-code", "nope"]) == 1
        err = capsys.readouterr().err
        assert "no function named 'nope'" in err


class TestDiagnostics:
    """A rejected input is one ``titancc: error:`` line and exit 1; an
    internal error keeps its traceback."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("int main(void)\n{\n    int a;\n"
                        "    a = 1 +;\n    return a;\n}\n")
        return str(path)

    def test_rejection_is_one_line(self, bad_file):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", bad_file],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == \
            f"titancc: error: {bad_file}:4:12: unexpected token ';'\n"

    def test_make_db_rejection_is_one_line(self, bad_file, tmp_path,
                                           capsys):
        db_path = str(tmp_path / "bad.ildb")
        assert main([bad_file, "--make-db", db_path]) == 1
        assert capsys.readouterr().err.startswith("titancc: error: ")
        assert not os.path.exists(db_path)

    def test_deep_nesting_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "deep.c"
        path.write_text("int main(void){ return %s1%s; }\n"
                        % ("(" * 4000, ")" * 4000))
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"titancc: error: {path}:1:")
        assert err.endswith(": nesting too deep\n")

    def test_crash_keeps_traceback(self, daxpy_file, monkeypatch):
        def planted(*args, **kwargs):
            raise RuntimeError("planted crash")

        monkeypatch.setattr(TitanCompiler, "compile_program", planted)
        with pytest.raises(RuntimeError, match="planted crash"):
            main([daxpy_file])


class TestDeterminism:
    def test_report_independent_of_hash_seed(self, tmp_path):
        # Dependence edges once followed the iteration order of a
        # frozenset of direction strings, which changes with the
        # interpreter's hash seed.
        from repro.fuzz.generator import generate_program
        from repro.service.protocol import canonicalize_report
        path = tmp_path / "gen.c"
        path.write_text(generate_program(443094727).source)
        reports = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", str(path),
                 "--report-json", "-"],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=SRC_DIR,
                         PYTHONHASHSEED=hash_seed))
            reports.append(canonicalize_report(json.loads(proc.stdout)))
        assert reports[0] == reports[1]
