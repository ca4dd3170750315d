"""Per-request compile execution — the service's worker half.

:func:`execute_request` is a module-level, picklable function (the
jobs-layer contract) that turns one :class:`CompileRequest` into one
response envelope.  It never lets a per-request failure escape: front
end diagnostics become ``kind: "reject"`` error responses, anything
else escaping the compiler becomes ``kind: "crash"`` (the driver's
classification), and the pool lives on either way.

The compile is :func:`repro.driver.compile_request`, the call
``titancc`` makes, so payload reports equal the CLI's after
canonicalization and artifact-cache hits are observationally
invisible.  The payload's IL hash is :func:`~.cache.build_catalog`'s:
the pool task carries the server's, the direct path computes it.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..driver import CompileRequest, Outcome, compile_request
from ..il.printer import format_program
from ..inline.database import InlineDatabase
from ..interp import make_interpreter
from .cache import CatalogEntry, build_catalog, content_hash, \
    options_fingerprint
from .protocol import (ServiceError, canonicalize_report, error_response,
                       make_response, request_from_dict)


def request_fingerprint(request: CompileRequest,
                        db_shas) -> str:
    """The level-B "options fingerprint": every request fact beyond
    the source text that can change the payload — full compiler
    options, filename (reports embed it), simulation entry/engine/step
    budget, and the content hashes of the inline databases."""
    return options_fingerprint(request.options, extra={
        "filename": request.filename,
        "run": request.run,
        "engine": request.engine,
        "max_steps": request.max_steps,
        "db": list(db_shas),
    })


def _artifact_section(result, request: CompileRequest) -> dict:
    """The compiled-engine artifact: for the bytecode tier, each
    function's generated Python source (or its closure-tier fallback
    reason); for the other engines, per-function closure metadata.
    Deterministic — it ships inside the cached payload."""
    functions: Dict[str, dict] = {}
    program = result.program
    if request.engine == "bytecode":
        interp = make_interpreter(program, engine="bytecode")
        for name in sorted(program.functions):
            functions[name] = interp.generated_code(name)
    else:
        for name in sorted(program.functions):
            fn = program.functions[name]
            functions[name] = {
                "tier": "closure",
                "params": len(fn.params),
                "statements": len(list(fn.all_statements())),
            }
    return {"engine": request.engine, "functions": functions}


def _inline_database(request: CompileRequest,
                     catalogs: Dict[str, CatalogEntry]
                     ) -> Tuple[Optional[InlineDatabase], List[str]]:
    """The request's §7 database (``db_sources`` catalogs from
    ``catalogs`` or built here, merged in order) and their hashes."""
    database = None
    db_shas = []
    for db_source in request.db_sources:
        sha = content_hash(db_source)
        db_shas.append(sha)
        entry = catalogs.get(sha) or build_catalog(db_source)
        if database is None:
            database = InlineDatabase()
        database.entries.update(entry.database().entries)
    return database, db_shas


def _payload(request: CompileRequest, outcome: Outcome, il_sha: str,
             db_shas: List[str]) -> dict:
    """An ok response's deterministic part: a pure function of
    (front-end IL, options fingerprint), so no source hash."""
    run = outcome.titan_report
    return {
        "filename": request.filename,
        "il_sha256": il_sha,
        "options_fingerprint": request_fingerprint(request, db_shas),
        "catalog": {"db_sources": db_shas},
        "report": canonicalize_report(outcome.report.to_dict()),
        "listing": format_program(outcome.result.program),
        "run": None if run is None else {
            "entry": request.run, "engine": request.engine,
            **{key: getattr(run, key) for key in
               ("result", "cycles", "seconds", "mflops", "stdout")}},
        "artifact": _artifact_section(outcome.result, request),
    }


def execute_request(request, catalogs=None, cache=None,
                    il_sha256: Optional[str] = None) -> dict:
    """The full per-request contract: request (dict or
    :class:`CompileRequest`) in, response envelope out, exceptions
    never.  This is both the in-process direct path (what the
    transparency tests diff against) and the body of the pool task,
    which passes the ``il_sha256`` the server already computed."""
    request_id = request.get("id") if isinstance(request, dict) \
        else getattr(request, "id", None)
    try:
        request = request_from_dict(request)
    except ServiceError as exc:
        return error_response(request_id, exc, phase="request",
                              kind="invalid", cache=cache)
    cache = dict(cache) if cache else \
        {"catalog": None, "artifact": None}
    cache.setdefault("source_sha256", content_hash(request.source))
    # Phases in the server's prepare order: main source, then databases.
    if il_sha256 is None:
        try:
            il_sha256 = build_catalog(request.source,
                                      request.filename).il_sha256
        except Exception as exc:  # noqa: BLE001 — classified
            return error_response(request.id, exc, "frontend",
                                  cache=cache)
    try:
        database, db_shas = _inline_database(request, catalogs or {})
    except Exception as exc:  # noqa: BLE001
        return error_response(request.id, exc, "catalog", cache=cache)
    outcome = compile_request(request, database)
    if outcome.error is not None:
        phase, kind, exc = outcome.error
        return error_response(request.id, exc, phase, kind, cache)
    return make_response(request.id, "ok", cache=cache,
                         payload=_payload(request, outcome, il_sha256,
                                          db_shas))


def pool_task(task: dict) -> dict:
    """Jobs-layer entry point: ``{"request": CompileRequest,
    "catalogs": {sha: CatalogEntry}, "il_sha256": str}`` in, response
    plus a private ``_worker`` stamp (stripped by the server) out."""
    response = execute_request(task["request"],
                               catalogs=task.get("catalogs"),
                               il_sha256=task.get("il_sha256"))
    response["_worker"] = {"pid": os.getpid()}
    return response
