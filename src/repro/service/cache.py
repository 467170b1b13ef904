"""Two-tier solve cache: in-process LRU over a persistent append log.

Requests are content addressed (:attr:`SolveRequest.key` digests every
field the response depends on), so a solve response never goes stale —
caching is a pure space/time trade.  The cache therefore has two tiers:

* a bounded in-process **LRU** answering repeated requests at dict
  speed;
* an optional **persistent tier** (:class:`SolveCacheStore`) reusing
  the :class:`~repro.jsonl_store.JsonlStore` append/scan
  machinery, so a restarted service warms up from disk instead of
  recomputing, with the same durability story as the result store
  (append-only records scanned on open, torn-tail recovery, the
  read-back key check).

A persistent-tier hit is promoted into the LRU; every miss that gets
solved is written through to both tiers.  Hit/miss counters per tier
live in the service's metrics registry and feed ``/v1/stats``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from ..jsonl_store import JsonlStore
from ..obs.metrics import MetricsRegistry

__all__ = ["SolveCacheStore", "SolveCache"]


class SolveCacheStore(JsonlStore):
    """Persistent cache tier: one ``solve`` record per request key.

    A directory holding only ``solves.jsonl``, with exactly the result
    store's durability semantics (the base class is shared).  Records
    are ``{"kind": "solve", "data": {"key": ..., "response": {...}}}``;
    last write per key wins.

    Parameters
    ----------
    max_bytes:
        Size bound of the append log, or ``None`` for unbounded.  A put
        growing the log past it triggers **compaction** (the base
        class's atomic rewrite keeping only live records) and, when the
        live records alone still exceed the budget, **eviction** of the
        oldest-written entries down to :data:`LOW_WATER` of the budget —
        hysteresis, so a near-full cache does not pay a full rewrite per
        put.  Long-lived services stop growing disk unboundedly; a
        restarted service still warms from everything that survived.
    """

    KINDS = ("solve",)
    RECORDS_FILE = "solves.jsonl"

    #: Eviction drains the log to this fraction of ``max_bytes``.
    LOW_WATER = 0.8

    def __init__(self, path: str | os.PathLike, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.compactions = 0
        self.evictions = 0
        super().__init__(path)

    def _key_of(self, kind: str, data: dict) -> str:
        key = data["key"]
        if not isinstance(key, str) or not key:
            raise ValueError(f"solve record carries a bad key: {key!r}")
        return key

    def get(self, key: str) -> dict | None:
        """The stored response for a request key, or ``None``."""
        data = self._get("solve", key)
        if data is None:
            return None
        return data["response"]

    def put(self, key: str, response: dict) -> None:
        """Persist one response (last write wins on re-put)."""
        self._put("solve", key, {"key": key, "response": response})
        self._enforce_size()

    def size_bytes(self) -> int:
        """Current size of the append log on disk."""
        return (
            self._records_path.stat().st_size if self._records_path.exists() else 0
        )

    def _enforce_size(self) -> None:
        """Compact (and evict oldest entries) once the log outgrows its bound."""
        if self.max_bytes is None or self.size_bytes() <= self.max_bytes:
            return
        index = self._index["solve"]
        # Oldest-written first — the eviction order.  Offset order is the
        # append order, and compaction preserves it, so "oldest offset"
        # stays "least recently written" across rewrites.
        live = sorted(index.items(), key=lambda item: item[1])
        sizes: dict[str, int] = {}
        with open(self._records_path, "rb") as handle:
            for key, offset in live:
                handle.seek(offset)
                sizes[key] = len(handle.readline())
        total = sum(sizes.values())
        if total > self.max_bytes:
            target = int(self.max_bytes * self.LOW_WATER)
            for key, _ in live[:-1]:  # the newest record always survives
                if total <= target:
                    break
                total -= sizes[key]
                del index[key]
                self.evictions += 1
        self.compact()
        self.compactions += 1

    def __len__(self) -> int:
        return len(self._index["solve"])


class SolveCache:
    """Bounded LRU in front of an optional :class:`SolveCacheStore`.

    Parameters
    ----------
    capacity:
        Maximum number of responses held in memory (oldest-use evicted
        first).  ``0`` disables the memory tier (useful to exercise the
        persistent tier in tests).
    store:
        Persistent tier, or ``None`` for a memory-only cache.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` holding the
        hit/miss/put/eviction counters (a private one when ``None``).
    """

    def __init__(
        self,
        capacity: int = 1024,
        store: SolveCacheStore | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.capacity = capacity
        self.store = store
        self._memory: OrderedDict = OrderedDict()
        # The batcher calls get/put from executor threads (the persistent
        # tier does file I/O that must stay off the event loop), so every
        # tier access is serialized here.
        self._lock = threading.Lock()
        registry = registry if registry is not None else MetricsRegistry()
        hits = registry.counter(
            "repro_cache_hits_total", "Solve-cache hits per tier.", labels=("tier",)
        )
        # Both tiers are bound up front, so an idle scrape shows them at 0.
        self._hits = {tier: hits.labels(tier=tier) for tier in ("memory", "store")}
        self._misses = registry.counter(
            "repro_cache_misses_total", "Solve-cache lookups that missed both tiers."
        )
        self._puts = registry.counter(
            "repro_cache_puts_total", "Responses written through the solve cache."
        )
        self._evictions = registry.counter(
            "repro_cache_memory_evictions_total",
            "LRU evictions from the in-memory cache tier.",
        )

    @classmethod
    def open(
        cls,
        cache_dir: str | os.PathLike | None,
        *,
        capacity: int = 1024,
        max_bytes: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "SolveCache":
        """A cache with a persistent tier at ``cache_dir`` (``None`` = memory only).

        ``max_bytes`` bounds the persistent tier's append log via
        compaction + oldest-first eviction (ignored without a tier).
        ``registry`` shares the hit/miss/put counters with a service's
        metrics registry (a private one is created otherwise).
        """
        store = (
            SolveCacheStore(cache_dir, max_bytes=max_bytes)
            if cache_dir is not None
            else None
        )
        return cls(capacity=capacity, store=store, registry=registry)

    def get(self, key: str) -> tuple[dict | None, str | None]:
        """``(response, tier)`` for a key; ``(None, None)`` on a miss.

        ``tier`` is ``"memory"`` or ``"store"``; a store hit is promoted
        into the memory tier.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._hits["memory"].inc()
                return cached, "memory"
            if self.store is not None:
                response = self.store.get(key)
                if response is not None:
                    self._hits["store"].inc()
                    self._remember(key, response)
                    return response, "store"
            self._misses.inc()
            return None, None

    def put(self, key: str, response: dict) -> None:
        """Write a freshly solved response through both tiers."""
        with self._lock:
            self._puts.inc()
            self._remember(key, response)
            if self.store is not None:
                self.store.put(key, response)

    def _remember(self, key: str, response: dict) -> None:
        if self.capacity <= 0:
            return
        self._memory[key] = response
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions.inc()

    def __len__(self) -> int:
        return len(self._memory)

    def stats_payload(self) -> dict:
        """The ``cache`` section of ``/v1/stats``, both tiers.

        The persistent tier's footprint and maintenance counters are
        added when one is attached.
        """
        with self._lock:
            memory_hits = self._hits["memory"].value
            store_hits = self._hits["store"].value
            payload = {
                "hits": memory_hits + store_hits,
                "memory_hits": memory_hits,
                "store_hits": store_hits,
                "misses": self._misses.value,
                "puts": self._puts.value,
                "evictions": self._evictions.value,
            }
            if self.store is not None:
                payload.update(
                    store_entries=len(self.store),
                    store_bytes=self.store.size_bytes(),
                    store_max_bytes=self.store.max_bytes,
                    store_evictions=self.store.evictions,
                    compactions=self.store.compactions,
                )
            return payload
