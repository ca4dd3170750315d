"""Content-addressed caching: the service's two levels.

**Keying is over content bytes, deliberately.**  ``content_hash`` is
sha256 of the exact bytes: two sources differing only in whitespace or
comments hash differently and *miss* the catalog cache (level A).
That is not a weakness — it is what makes the cache safe without a
canonicalizer — and the second level repairs the cost: both variants
parse to the same front-end IL, so they share one ``(IL hash, options
fingerprint)`` artifact entry (level B) and the optimization pipeline
still runs once.

**Eviction is deterministic.**  :class:`LRUCache` is an ordered dict
whose eviction order is a pure function of the get/put sequence, so a
replayed request stream evicts the same keys in the same order — the
property-test battery (``tests/test_service_cache.py``) checks this
against a model.

Hit/miss/eviction counters land in a :class:`MetricsRegistry` under
``titancc_service_cache_events_total{level,event}``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Union

from ..inline.database import InlineDatabase
from ..obs.metrics import MetricsRegistry
from ..pipeline import CompilerOptions


def content_hash(data: Union[str, bytes]) -> str:
    """sha256 hex digest of the content *bytes* (text is UTF-8
    encoded first).  The one hash every cache key derives from."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def options_fingerprint(options: CompilerOptions,
                        extra: Optional[dict] = None) -> str:
    """Canonical digest of a full :class:`CompilerOptions` (every
    field, sorted) plus any request-shape ``extra`` facts that affect
    the response payload (entry point, engine, database hashes...).
    Two requests share an artifact entry iff their fingerprints and
    front-end IL hashes both match."""
    payload: Dict[str, object] = {
        "options": dataclasses.asdict(options)}
    if extra:
        payload["extra"] = extra
    return content_hash(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")))


class LRUCache:
    """Bounded mapping with deterministic least-recently-used
    eviction.  ``get`` refreshes recency; ``put`` inserts/refreshes
    and evicts the oldest entries past ``max_entries`` (``None`` =
    unbounded).  Lookups count hit/miss events, evictions count evict
    events; ``record=False`` peeks without touching the counters *or*
    the recency order."""

    def __init__(self, max_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 level: str = "cache"):
        self.max_entries = max_entries
        self.level = level
        self.registry = registry
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _event(self, event: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "titancc_service_cache_events_total",
                {"level": self.level, "event": event}).inc()

    def get(self, key, record: bool = True):
        if key in self._entries:
            if record:
                self._entries.move_to_end(key)
                self.hits += 1
                self._event("hit")
            return self._entries[key]
        if record:
            self.misses += 1
            self._event("miss")
        return None

    def put(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while self.max_entries is not None \
                and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._event("evict")

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[object]:
        """Keys oldest-first (the eviction order)."""
        return list(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


@dataclasses.dataclass
class CatalogEntry:
    """One §7 procedure catalog: the parsed-IL procedures of one
    source, content-addressed at both levels.

    ``blob`` is the pickled :class:`InlineDatabase` entries, snapshot
    *before* any optimization touches the IL, so the catalog can be
    shipped to worker processes and imported into other programs
    (``import_entry`` clones on use — cached catalogs are never
    mutated).  ``il_sha256`` hashes the printed front-end IL, the key
    that lets whitespace-variant sources share level-B artifacts."""

    source_sha256: str
    il_sha256: str
    blob: bytes
    names: List[str]

    def database(self) -> InlineDatabase:
        return InlineDatabase.loads(self.blob)


def build_catalog(source: str,
                  filename: str = "<catalog>") -> CatalogEntry:
    """Front-end parse + catalog one source (no optimization).  The
    parse numbers its statements in its own sid scope, so identical
    content always yields an identical catalog blob and IL hash,
    whatever the process parsed before."""
    from ..frontend.lower import compile_to_il
    from ..il import nodes as N
    from ..il.printer import format_program
    with N.sid_scope():
        program = compile_to_il(source, filename)
    # The IL hash includes source-line annotations: reports embed
    # line numbers, so two sources may print identical IL yet compile
    # to different payloads if their statements sit on different
    # lines.  Hashing lines in keeps level B exactly as strong as the
    # payload it addresses.
    il_text = format_program(program, show_lines=True)
    db = InlineDatabase()
    db.add_program(program)
    return CatalogEntry(source_sha256=content_hash(source),
                        il_sha256=content_hash(il_text),
                        blob=db.dumps(), names=db.names())


class CatalogCache:
    """Level A: content hash → built catalog, with a build counter
    (``titancc_service_catalog_builds_total``) proving each distinct
    content is parsed exactly once."""

    def __init__(self, max_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.lru = LRUCache(max_entries, registry, level="catalog")
        self.registry = registry
        self.builds = 0

    def get_or_build(self, key: str, builder: Callable[[], object]):
        entry = self.lru.get(key)
        if entry is None:
            entry = builder()
            self.builds += 1
            if self.registry is not None:
                self.registry.counter(
                    "titancc_service_catalog_builds_total").inc()
            self.lru.put(key, entry)
        return entry

    def stats(self) -> Dict[str, int]:
        return {**self.lru.stats(), "builds": self.builds}
