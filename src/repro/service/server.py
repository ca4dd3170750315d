"""The service front door: :class:`CompileService`.

The parent process owns the two cache levels and derives every cache
key itself: for each request it runs (only) the front end through the
level-A catalog cache — one parse per distinct source content, ever —
and uses the resulting IL hash plus the request's options fingerprint
to probe the level-B artifact cache.  Full hits answer without
touching a worker; everything else is dispatched to the shared jobs
layer, with pre-built §7 catalogs shipped along so workers never
rebuild a database the parent already has.

Determinism contract (pinned by the stress tests): responses come
back in request order; cache events, request-status counters, and
cache contents after a batch are pure functions of the request
sequence — never of worker scheduling.  Duplicate in-flight requests
(same IL hash + fingerprint in one batch) are coalesced onto one
compile and share its payload.

Wall-clock observations (``titancc_service_request_seconds``,
per-worker throughput) are collected separately;
:meth:`CompileService.deterministic_metrics` excludes them so merged
metrics can be compared byte-for-byte across worker counts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..driver import CompileRequest
from ..jobs import TaskOutcome, WorkerPool
from ..obs.metrics import MetricsRegistry
from ..pipeline import CompilerOptions
from .cache import CatalogCache, LRUCache, build_catalog, content_hash
from .protocol import (ServiceError, error_response, make_response,
                       request_from_dict)
from .worker import pool_task, request_fingerprint


class CompileService:
    """Long-running compilation service and in-process client API.

    ``workers=0`` (or 1) executes compiles in-process; ``workers=N``
    shards them across a persistent pool of N processes.  Either way
    the observable responses are identical.
    """

    def __init__(self, workers: int = 0,
                 max_catalog_entries: Optional[int] = None,
                 max_artifact_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.catalogs = CatalogCache(max_catalog_entries,
                                     self.registry)
        self.artifacts = LRUCache(max_artifact_entries, self.registry,
                                  level="artifact")
        self.workers = max(0, int(workers))
        self.pool = WorkerPool(self.workers)
        #: pid -> {"requests", "seconds"} for dispatched compiles
        #: (in-process work books under this process's pid).
        self.worker_stats: Dict[int, Dict[str, float]] = {}

    # -- client API ----------------------------------------------------

    def submit(self, request) -> dict:
        """Compile one request (dict or :class:`CompileRequest`)."""
        return self.compile_batch([request])[0]

    def compile_source(self, source: str, options=None,
                       **fields) -> dict:
        """Convenience: build a request from keyword fields."""
        request = CompileRequest(source=source,
                                 options=options or CompilerOptions(),
                                 **fields)
        return self.submit(request)

    def compile_batch(self, requests: Sequence[object]) -> List[dict]:
        """Compile a batch; responses return in request order."""
        responses: Dict[int, dict] = {}
        tasks: List[dict] = []
        #: (il_sha, fingerprint) -> task slot; duplicates coalesce.
        inflight: Dict[tuple, dict] = {}

        for index, raw in enumerate(requests):
            prepared = self._prepare(raw)
            if "response" in prepared:
                responses[index] = prepared["response"]
                continue
            key = prepared["key"]
            slot = inflight.get(key)
            if slot is not None:
                self._cache_event("artifact", "coalesced")
                slot["followers"].append(
                    (index, prepared["request"].id,
                     dict(prepared["cache"],
                          artifact="coalesced")))
                continue
            slot = {"index": index, "key": key,
                    "request": prepared["request"],
                    "cache": prepared["cache"],
                    "catalogs": prepared["catalogs"],
                    "followers": []}
            inflight[key] = slot
            tasks.append(slot)

        if tasks:
            outcomes = self.pool.map_ordered(
                pool_task,
                [{"request": slot["request"],
                  "catalogs": slot["catalogs"],
                  "il_sha256": slot["key"][0]} for slot in tasks])
            for slot, outcome in zip(tasks, outcomes):
                self._merge(slot, outcome, responses)

        ordered = [responses[index] for index in
                   sorted(responses)]
        for response in ordered:
            self.registry.counter("titancc_service_requests_total",
                                  {"status": response["status"]}).inc()
        return ordered

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- metrics -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.registry.to_dict()

    def deterministic_metrics(self) -> dict:
        """The registry snapshot minus wall-clock families — equal
        byte-for-byte across worker counts and completion orders for
        the same request sequence."""
        snapshot = self.registry.to_dict()
        snapshot["histograms"] = [
            entry for entry in snapshot["histograms"]
            if not entry["name"].endswith("_seconds")]
        return snapshot

    def cache_stats(self) -> dict:
        return {"catalog": self.catalogs.stats(),
                "artifact": self.artifacts.stats()}

    # -- internals -----------------------------------------------------

    def _cache_event(self, level: str, event: str) -> None:
        self.registry.counter("titancc_service_cache_events_total",
                              {"level": level, "event": event}).inc()

    def _prepare(self, raw) -> dict:
        """Pass 1, in the parent: validate, derive both cache keys
        through the catalog cache, and answer outright on a full hit
        or a front-end failure.  Returns either ``{"response": ...}``
        or a dispatch descriptor."""
        request_id = raw.get("id") if isinstance(raw, dict) \
            else getattr(raw, "id", None)
        try:
            request = request_from_dict(raw)
        except ServiceError as exc:
            return {"response": error_response(
                request_id, exc, phase="request", kind="invalid")}

        # Level A for the main source: one front-end parse per
        # distinct content, shared with later requests that name this
        # source as a db_source.
        source_sha = content_hash(request.source)
        cache_meta = {"catalog": None, "artifact": None,
                      "source_sha256": source_sha}
        builds_before = self.catalogs.builds
        try:
            catalog = self.catalogs.get_or_build(
                source_sha,
                lambda: build_catalog(request.source,
                                      request.filename))
            cache_meta["catalog"] = \
                "miss" if self.catalogs.builds > builds_before \
                else "hit"
        except Exception as exc:
            cache_meta["catalog"] = "miss"
            return {"response": error_response(
                request_id, exc, phase="frontend", cache=cache_meta)}

        # §7 catalogs for the request's inline databases.
        catalogs: Dict[str, object] = {}
        db_shas = []
        try:
            for db_source in request.db_sources:
                sha = content_hash(db_source)
                db_shas.append(sha)
                catalogs[sha] = self.catalogs.get_or_build(
                    sha, lambda src=db_source: build_catalog(src))
        except Exception as exc:
            return {"response": error_response(
                request_id, exc, phase="catalog", cache=cache_meta)}

        fingerprint = request_fingerprint(request, db_shas)
        key = (catalog.il_sha256, fingerprint)
        payload = self.artifacts.get(key)
        if payload is not None:
            cache_meta["artifact"] = "hit"
            return {"response": make_response(
                request.id, "ok", payload=payload,
                cache=cache_meta)}
        cache_meta["artifact"] = "miss"
        return {"request": request, "key": key, "cache": cache_meta,
                "catalogs": catalogs}

    def _merge(self, slot: dict, outcome: TaskOutcome,
               responses: Dict[int, dict]) -> None:
        """Fold one dispatched compile back in: stamp caches, book
        worker stats, fan the payload out to coalesced followers."""
        if outcome.ok:
            response = outcome.value
            stamp = response.pop("_worker", None) or {}
            pid = stamp.get("pid", os.getpid())
        else:
            # The worker *function* never raises by contract; this is
            # a transport-level failure (e.g. unpicklable payload).
            failure = RuntimeError(
                f"{outcome.error['type']}: "
                f"{outcome.error['message']}")
            response = error_response(slot["request"].id, failure,
                                      phase="transport", kind="crash")
            pid = os.getpid()
        stats = self.worker_stats.setdefault(
            pid, {"requests": 0, "seconds": 0.0})
        stats["requests"] += 1
        stats["seconds"] += outcome.seconds
        self.registry.counter("titancc_service_dispatches_total").inc()
        self.registry.histogram(
            "titancc_service_request_seconds").observe(outcome.seconds)

        response["cache"] = slot["cache"]
        if response["status"] == "ok":
            self.artifacts.put(slot["key"], response["payload"])
        responses[slot["index"]] = response
        for index, follower_id, follower_cache in slot["followers"]:
            follower = dict(response)
            follower["id"] = follower_id
            follower["cache"] = follower_cache
            responses[index] = follower
