"""The compile driver shared by ``titancc`` and the compile service:
:class:`~repro.pipeline.TitanCompiler`, then an optional Titan
simulation, then the :class:`~repro.obs.report.CompilationReport`, in
one call.  Both front doors use it, so their reports agree by
construction.  Failures come back classified, not raised."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

from .frontend.ctypes_ import TypeError_
from .frontend.lexer import LexError
from .frontend.lower import LoweringError
from .frontend.parser import ParseError
from .frontend.preprocessor import PreprocessorError
from .frontend.symtab import SymbolError
from .obs.report import CompilationReport
from .pipeline import CompilationResult, CompilerOptions, TitanCompiler
from .titan.config import TitanConfig
from .titan.simulator import TitanReport, TitanSimulator

#: Exceptions that are legitimate diagnostics for invalid input.
CLEAN_REJECTIONS = (LexError, ParseError, LoweringError,
                    PreprocessorError, SymbolError, TypeError_)


def classify_exception(exc: BaseException) -> str:
    """``"reject"`` for a clean front-end diagnostic, ``"crash"`` for
    anything else (an internal error escaping the compiler)."""
    return "reject" if isinstance(exc, CLEAN_REJECTIONS) else "crash"


@dataclass
class CompileRequest:
    """One compile request, picklable for the service's workers."""

    source: str
    id: object = None
    filename: str = "<service>"
    options: CompilerOptions = field(default_factory=CompilerOptions)
    run: Optional[str] = None  # entry point to simulate, if any
    engine: str = "compiled"
    max_steps: int = 50_000_000
    #: C sources for §7 inline databases; the caller merges them into
    #: the ``database`` it passes :func:`compile_request`.
    db_sources: Tuple[str, ...] = ()


class CompileError(NamedTuple):
    phase: str  # frontend | compile | simulate
    kind: str  # reject | crash
    exc: BaseException


class Outcome(NamedTuple):
    """On failure, ``error`` replaces the steps that did not run."""

    result: Optional[CompilationResult] = None
    titan_report: Optional[TitanReport] = None
    report: Optional[CompilationReport] = None
    error: Optional[CompileError] = None


def titan_config(options: CompilerOptions) -> TitanConfig:
    """The simulated machine a compile targets."""
    return TitanConfig(processors=options.processors,
                       max_vector_length=options.vector_length)


def compile_request(request: CompileRequest, database=None,
                    hooks: Sequence = (), profile: bool = False,
                    checker=None) -> Outcome:
    """Compile, optionally simulate, and report one request; the
    report carries ``checker``'s table (a ``PassChecker`` in ``hooks``)."""
    config = titan_config(request.options)
    try:
        result = TitanCompiler(request.options, database, hooks) \
            .compile(request.source, request.filename)
    except Exception as exc:  # noqa: BLE001 — classification is the point
        kind = classify_exception(exc)
        return Outcome(error=CompileError(
            "frontend" if kind == "reject" else "compile", kind, exc))
    titan_report = None
    if request.run:
        try:
            titan_report = TitanSimulator(
                result.program, config,
                schedules=result.schedules or None,
                max_steps=request.max_steps, profile=profile,
                engine=request.engine).run(request.run)
        except Exception as exc:  # noqa: BLE001
            return Outcome(result, error=CompileError(
                "simulate", classify_exception(exc), exc))
    return Outcome(result, titan_report, CompilationReport.from_result(
        result, filename=request.filename, titan_report=titan_report,
        config=config, checker=checker))
