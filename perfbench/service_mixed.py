"""``service_mixed``: one client sends windows of requests to an
in-process ``CompileService(workers=2)`` through ``compile_batch``.

This is the only workload that exercises the service, the jobs pool,
both caches and report building.  Every window holds the same mix of
request classes, in seeded positions:

* ``cold`` — a new generated program (front end in the parent, compile
  and simulation in a worker);
* ``repeat`` — the exact bytes of an earlier request (catalog and
  artifact hit, or a coalesced duplicate inside one window);
* ``variant`` — an earlier program with whitespace added inside lines
  (a new front end and IL hash, then an artifact hit);
* ``inline`` — a §7 client calling the math library given as
  ``db_sources``;
* ``malformed`` — inputs that must come back as a structured
  ``reject``.  The list keeps the 4000-deep parenthesis input, which
  today comes back as ``crash`` and counts as a failed request.

The artifact cache is bounded below the stream's distinct working set,
so inserts and evictions run beside hits.

The repo holds no record of real request traffic: the mix, the window
and the cache sizes are assumptions, chosen so that each path above
runs in every window.  perfbench/spec.json names the metrics each
share moves.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import random
import re
import time
from typing import Dict, List

from .common import (ROOT, Budget, Outcome, References, process_rss_mb,
                     self_rss_mb, span, speed_scale)

WORKERS = 2
#: Artifact cache entries; each window adds about three new artifacts
#: and repeats reach back over the last REPEAT_POOL programs.
ARTIFACT_ENTRIES = 16
REPEAT_POOL = 24
#: Catalog entries: room for the pool's sources and their variants,
#: so memory stays flat however many windows a run gets through.
CATALOG_ENTRIES = 64
#: Request classes of one window, in the order their content is drawn.
WINDOW = ("cold", "cold", "repeat", "variant", "inline", "malformed")
#: (n, alpha) choices for §7 clients; repeats become artifact hits.
INLINE_SHAPES = [(n, alpha) for n in (256, 384, 512, 640)
                 for alpha in (1.5, 2.5)]
CRASHER = "int main(void){ return %s1%s; }" % ("(" * 4000, ")" * 4000)

INLINE_CLIENT = """
float a[{n}], b[{n}], c[{n}];
void daxpy(float *x, float *y, float *z, float alpha, int n);

int main(void)
{{
    int i;
    for (i = 0; i < {n}; i++) {{
        b[i] = (float) (i % 7);
        c[i] = (float) (i % 5);
    }}
    daxpy(a, b, c, {alpha}, {n});
    return (int) (a[{n} - 1] * 4.0f + a[3]);
}}
"""


def setup():
    """The long-lived object: the service with its worker pool
    started (a two-request batch forks the pool)."""
    from repro.service.server import CompileService
    service = CompileService(workers=WORKERS,
                             max_catalog_entries=CATALOG_ENTRIES,
                             max_artifact_entries=ARTIFACT_ENTRIES)
    service.compile_batch([
        {"source": f"int main(void) {{ return {k}; }}",
         "filename": f"warm{k}.c"} for k in range(WORKERS)])
    return service


def malformed_inputs() -> List[tuple]:
    inputs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests",
                                              "fuzz_corpus", "*.c"))):
        with open(path) as handle:
            source = handle.read()
        if source.startswith("// expect: reject"):
            inputs.append((os.path.relpath(path, ROOT), source))
    inputs += [
        ("syntax-error", "int main(void){ int a; a = 1 +; return a; }"),
        ("undeclared", "int main(void) { return x; }"),
        ("deep-parens-4000", CRASHER),
    ]
    return inputs


class _Stream:
    """The seeded request stream, one window at a time."""

    def __init__(self, seed: int):
        from repro.workloads import blas
        from .compile_corpus import _generator_options, _stratified
        self.rng = random.Random(seed)
        self.library = blas.MATH_LIBRARY_C
        self.default = _generator_options()[0]
        self.stratified = _stratified
        self.cold: List[tuple] = []
        self.pool: List[dict] = []      # recent compilable requests
        self.malformed = malformed_inputs()
        self.rng.shuffle(self.malformed)
        self.next_id = 0
        self.next_malformed = 0

    def _new_program(self) -> tuple:
        if not self.cold:
            self.cold = self.stratified(self.rng, self.default, 48,
                                        "svc")
        return self.cold.pop()

    def _remember(self, request: dict) -> None:
        self.pool.append(request)
        del self.pool[:-REPEAT_POOL]

    def window(self) -> List[dict]:
        rng = self.rng
        classes = list(WINDOW)
        rng.shuffle(classes)
        window = []
        for kind in classes:
            if kind in ("repeat", "variant") and not self.pool:
                kind = "cold"
            if kind == "cold":
                name, source = self._new_program()
                request = {"source": source, "filename": f"{name}.c",
                           "run": "main"}
                self._remember(request)
            elif kind == "inline":
                n, alpha = rng.choice(INLINE_SHAPES)
                request = {"source": INLINE_CLIENT.format(n=n,
                                                          alpha=alpha),
                           "filename": f"client_{n}_{alpha}.c",
                           "run": "main", "db_sources": [self.library]}
                self._remember(request)
            elif kind == "repeat":
                request = dict(rng.choice(self.pool))
            elif kind == "variant":
                base = rng.choice(self.pool)
                request = dict(base, source=_respace(base["source"], rng))
            else:
                name, source = self.malformed[self.next_malformed
                                              % len(self.malformed)]
                self.next_malformed += 1
                request = {"source": source, "filename": name,
                           "run": "main"}
            request["id"] = self.next_id
            self.next_id += 1
            window.append((kind, request))
        return window


def _respace(source: str, rng: random.Random) -> str:
    """Whitespace added inside lines only: same tokens, same line
    numbers, so the same IL hash."""
    spaced = re.sub(r";", lambda m: ";" + " " * rng.randint(0, 2), source)
    return spaced.replace("\n", " \n", 1)


def _payload_bytes(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class _Checker:
    def __init__(self, library: str, outcome: Outcome,
                 references: References):
        self.library = library
        self.outcome = outcome
        self.references = references
        #: filename -> canonical payload bytes of its first response
        self.first: Dict[str, str] = {}
        self.reference: Dict[str, tuple] = {}
        self.report_bytes = 0
        self.rejects = 0

    def forget_all_but(self, names) -> None:
        """Drop references no later repeat or variant can need."""
        for table in (self.first, self.reference):
            for name in set(table) - names:
                del table[name]

    def __call__(self, kind: str, request: dict, response: dict) -> None:
        outcome = self.outcome
        name = request["filename"]
        label = f"{kind}:{name}"
        if kind == "malformed":
            error = response.get("error") or {}
            if response["status"] == "ok":
                outcome.wrong.append(label)
            elif error.get("kind") == "reject":
                self.rejects += 1
            else:
                outcome.failures.append(f"{label} ({error.get('kind')}: "
                                        f"{error.get('type')})")
            return
        if response["status"] != "ok":
            outcome.failures.append(f"{label} ({response['error']})")
            return
        payload = response["payload"]
        encoded = _payload_bytes(payload)
        if response["cache"]["artifact"] == "miss":
            self.report_bytes += len(json.dumps(payload["report"],
                                                indent=1))
        if name not in self.first:
            self.first[name] = encoded
            source = request["source"]
            if request.get("db_sources"):
                source = self.library + source
            value, stdout, scalar_cycles = \
                self.references.program(source, name)
            self.reference[name] = (value, stdout)
            outcome.speedups[name] = scalar_cycles / payload["run"]["cycles"]
        run = payload["run"]
        outcome.check(label, (run["result"], run["stdout"])
                      == self.reference[name])
        # Repeats and variants must be byte-equal to the cold payload.
        outcome.check(label, encoded == self.first[name])


def run_ops(seconds: int) -> int:
    """Windows in an untraced run."""
    return 5 * seconds


def trace_ops(seconds: int) -> int:
    """Windows in each pass of a traced run."""
    return 2 * seconds


def run(seed: int, budget: Budget, recorder=None) -> Outcome:
    stream = _Stream(seed)
    outcome = Outcome()
    service = setup()
    # Started after the pool has forked, so no worker holds its pipes.
    references = References()
    check = _Checker(stream.library, outcome, references)
    stats_before = service.cache_stats()
    busy_before = sum(s["seconds"] for s in service.worker_stats.values())
    counts = dict.fromkeys(WINDOW, 0)
    try:
        done = 0
        while budget.more(done):
            window = stream.window()
            scale = speed_scale()
            with span(recorder, "op"):
                start = time.perf_counter()
                responses = service.compile_batch(
                    [request for _, request in window])
                elapsed = time.perf_counter() - start
            outcome.timed(elapsed, (scale + speed_scale()) / 2)
            done += 1
            for (kind, request), response in zip(window, responses):
                counts[kind] += 1
                check(kind, request, response)
            check.forget_all_but({r["filename"] for r in stream.pool})
        stats = service.cache_stats()
        busy = sum(s["seconds"] for s in service.worker_stats.values()) \
            - busy_before
        coalesced = _coalesced(service.deterministic_metrics())
        # The service process (every front end) and its pool workers
        # (compiles and simulations) are resident at once, so the
        # service's footprint is the sum of their high-water marks.
        outcome.rss_mb = self_rss_mb() + sum(
            process_rss_mb(worker.pid)
            for worker in multiprocessing.active_children())
    finally:
        service.close()
        references.close()
    # One timed operation is a window; what users count is requests.
    outcome.units = outcome.attempted = sum(counts.values())
    outcome.notes["request_shares"] = {
        kind: round(n / outcome.units, 3) for kind, n in counts.items()}

    def delta(level, key):
        return stats[level][key] - stats_before[level][key]

    def ratio(level):
        hits = delta(level, "hits")
        total = hits + delta(level, "misses")
        return hits / total if total else 0.0

    outcome.layers.update({
        "service.catalog_hit_ratio": ratio("catalog"),
        "service.artifact_hit_ratio": ratio("artifact"),
        "service.evictions": delta("artifact", "evictions"),
        "service.coalesced": coalesced,
        "service.rejects": check.rejects,
        "jobs.worker_busy_s": busy,
        "jobs.busy_share": busy / (WORKERS * sum(outcome.raw)),
        "obs.report_bytes": check.report_bytes,
    })
    return outcome


def _coalesced(snapshot: dict) -> int:
    return sum(entry["value"] for entry in snapshot.get("counters", ())
               if entry["name"] == "titancc_service_cache_events_total"
               and entry["labels"].get("event") == "coalesced")
