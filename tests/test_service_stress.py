"""Service-grade battery: cache transparency over the whole fuzz
corpus, and concurrency/stress behaviour of the worker pool.

Satellite 1 — **cache transparency**: every corpus program replayed
through the service twice (cold, then warm) must produce responses
byte-identical to a direct, service-free compilation; the only
permitted difference is the envelope's ``cache`` metadata.

Satellite 2 — **stress**: a batch of interleaved requests with mixed
options, duplicates, and deliberately-crashing inputs against a
multi-worker service must yield per-request isolation (every response
matches its request id), structured error responses for the crashers,
a pool that keeps serving afterwards, and merged deterministic metrics
independent of worker count and completion order.
"""

import copy
import json

import pytest

from repro.service import CompileService, execute_request
from tests.test_fuzz import corpus_files, read_corpus

#: Far deeper than Python's recursion limit: the parser recurses per
#: level until RecursionError unwinds it and it rejects the program as
#: nesting too deep — the worst-behaved input a worker must survive.
CRASHER = "int main(void){ return %s1%s; }" % ("(" * 4000, ")" * 4000)

GOOD = """
float a[32], b[32];
int main(void)
{
    int i;
    for (i = 0; i < 32; i++) a[i] = b[i] * 2.0f;
    return 0;
}
"""


def corpus_requests():
    """One request per corpus program; ``expect: run`` programs also
    simulate, exercising the engine sections of the payload."""
    requests = []
    for name in corpus_files():
        source, expect = read_corpus(name)
        request = {"id": name, "source": source, "filename": name,
                   "options": {}}
        if expect == "run":
            request["run"] = "main"
        requests.append(request)
    return requests


def comparable(response):
    """A response minus the envelope's cache metadata — the only part
    allowed to differ between cache tiers."""
    out = copy.deepcopy(response)
    out.pop("cache")
    return out


class TestCacheTransparency:
    def test_corpus_cold_warm_direct_identical(self):
        requests = corpus_requests()
        direct = [comparable(execute_request(r)) for r in requests]
        with CompileService(workers=2) as service:
            cold = service.compile_batch(requests)
            warm = service.compile_batch(requests)
        for request, d, c, w in zip(requests, direct, cold, warm):
            assert comparable(c) == d, request["id"]
            assert comparable(w) == d, request["id"]
        # Warm pass answered ok requests entirely from the caches.
        # Failed compiles are deliberately *not* cached (errors
        # recompile each time), so rejects miss again.
        for response in warm:
            if response["status"] == "ok":
                assert response["cache"]["catalog"] == "hit"
                assert response["cache"]["artifact"] == "hit"
            else:
                assert response["cache"]["artifact"] is None

    def test_responses_are_json_stable(self):
        # The transparency claim is about *bytes*: serialized JSON of
        # cold and warm payloads must match exactly.
        requests = corpus_requests()
        with CompileService(workers=0) as service:
            cold = service.compile_batch(requests)
            warm = service.compile_batch(requests)
        for c, w in zip(cold, warm):
            assert json.dumps(comparable(c), sort_keys=True) == \
                json.dumps(comparable(w), sort_keys=True)


def stress_requests():
    """Interleaved good/bad/duplicate requests with mixed options."""
    requests = []
    for index in range(18):
        if index % 6 == 3:
            requests.append({"id": index, "source": CRASHER})
        elif index % 6 == 5:
            requests.append({"id": index,
                             "source": "int broken("})
        else:
            options = {} if index % 2 else {"vectorize": False}
            requests.append({"id": index, "source": GOOD,
                             "filename": "good.c",
                             "options": options})
    return requests


class TestStress:
    def test_isolation_and_structured_errors(self):
        requests = stress_requests()
        with CompileService(workers=2) as service:
            responses = service.compile_batch(requests)
            # Per-request isolation: ids come back in order, every
            # crasher yields a structured error, every good request
            # still compiles.
            assert [r["id"] for r in responses] == \
                [r["id"] for r in requests]
            for request, response in zip(requests, responses):
                if request["source"] is GOOD:
                    assert response["status"] == "ok", response
                else:
                    assert response["status"] == "error"
                    error = response["error"]
                    assert error["kind"] in ("crash", "reject")
                    assert error["type"] and error["message"] is not None
            # The pool is not wedged: a fresh batch still serves.
            after = service.submit({"id": "after", "source": GOOD,
                                    "filename": "good.c",
                                    "options": {}})
            assert after["status"] == "ok"
            assert after["cache"]["artifact"] == "hit"

    def test_duplicates_coalesce_onto_one_compile(self):
        request = {"source": GOOD, "filename": "good.c",
                   "options": {}}
        with CompileService(workers=2) as service:
            responses = service.compile_batch(
                [dict(request, id=i) for i in range(6)])
            events = {
                (c["labels"]["level"], c["labels"]["event"]):
                    c["value"]
                for c in service.metrics_snapshot()["counters"]
                if c["name"] == "titancc_service_cache_events_total"}
        assert all(r["status"] == "ok" for r in responses)
        assert events[("artifact", "coalesced")] == 5
        payloads = {json.dumps(r["payload"], sort_keys=True)
                    for r in responses}
        assert len(payloads) == 1

    def test_deterministic_metrics_across_worker_counts(self):
        requests = stress_requests()
        snapshots = []
        for workers in (0, 2):
            with CompileService(workers=workers) as service:
                service.compile_batch(requests)
                service.compile_batch(requests)  # warm pass too
                snapshots.append(service.deterministic_metrics())
        assert snapshots[0] == snapshots[1]
        # And the deterministic view really excludes wall clocks.
        names = {h["name"] for h in snapshots[0]["histograms"]}
        assert not any(name.endswith("_seconds") for name in names)

    def test_request_status_counters_merge(self):
        requests = stress_requests()
        with CompileService(workers=2) as service:
            service.compile_batch(requests)
            counters = {
                c["labels"]["status"]: c["value"]
                for c in service.metrics_snapshot()["counters"]
                if c["name"] == "titancc_service_requests_total"}
        expected_errors = sum(
            1 for r in requests if r["source"] is not GOOD)
        assert counters["error"] == expected_errors
        assert counters["ok"] == len(requests) - expected_errors

    def test_worker_stats_cover_all_dispatches(self):
        with CompileService(workers=2) as service:
            service.compile_batch(stress_requests())
            dispatched = sum(
                entry["requests"]
                for entry in service.worker_stats.values())
            counter = next(
                c["value"]
                for c in service.metrics_snapshot()["counters"]
                if c["name"] == "titancc_service_dispatches_total")
        assert dispatched == counter > 0
