"""Long-running solve service: micro-batched, cached, on-demand solves.

Every entry point before this package was a batch CLI; ``repro.service``
turns the engine into something a client can *ask*: a long-running
asyncio HTTP server (``microrepro serve``) accepting JSON solve
requests.  The serving hot path reuses the scaling machinery the
experiment engine already has — concurrent compatible requests are
coalesced by a **micro-batcher** into one
:class:`~repro.batch.InstanceStack` solved through the same lock-step
``solve_batch`` kernels that amortize a block's repetitions, and a
two-tier **solve cache** (LRU over an optional persistent
:class:`~repro.jsonl_store.JsonlStore` log, one ``solves.jsonl`` that
is its only file) makes repeated requests O(lookup).

Layers (one module each):

* :mod:`~repro.service.requests` — request schema, normalisation,
  content-address hashing, the direct reference path and the
  picklable group solve (``solve_group``) it is held to;
* :mod:`~repro.service.batcher` — load-driven grouping (a group
  flushes whenever a solve slot is free), coalescing, ``solve_stack``
  routing, admission control; group solves run on the asyncio thread
  executor or on a :class:`~repro.workers.WorkerPool` (the worker seam
  the block executor shares);
* :mod:`~repro.service.cache` — the two-tier response cache
  (size-bounded persistent tier with compaction + eviction; a failed
  write to it costs the cache entry, never the response);
* :mod:`~repro.service.sessions` — live replanning sessions
  (:class:`SessionManager`: table, counters, idle expiry);
* :mod:`~repro.service.server` — the asyncio HTTP front end
  (versioned ``/v1`` routes — solve, stats, metrics, healthz, session);
* :mod:`~repro.service.client` — :class:`ServiceClient` (keep-alive,
  429 retry, sessions; used by ``microrepro request``, the tests and the
  CI smokes).

Responses are **bit-for-bit identical** to per-request direct solves no
matter how requests were grouped, cached or ordered — batching and
caching are scheduling choices, never semantic ones.

The package re-exports nothing: import from the submodules, so a caller
that needs one layer (the live runner needs only
:mod:`~repro.service.requests`) does not load the server, client and
worker pool.
"""
