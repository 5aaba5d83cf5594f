"""Shared-nothing scale-out: multi-worker serving + distributed campaigns.

One asyncio process behind one semaphore cannot serve millions of
users.  This package partitions the request space the same way
MultiAmdahl partitions a fixed resource across heterogeneous
consumers: each shard keeps the locality that makes it fast.

Two halves:

* **Serving** (:mod:`~repro.cluster.supervisor`,
  :mod:`~repro.cluster.router`) -- ``repro-hetsim serve --workers N``
  spawns N worker processes, each running the existing
  :class:`~repro.service.app.ModelService` with its own LRU
  response cache and tensor map, and a front-end router -- a handler
  on the same :mod:`repro.service.http` loop -- that rendezvous-hashes
  each request onto the worker owning its key
  (:mod:`~repro.cluster.hashring`).  Because the shard key is a
  design question (chip/design, f, r_max -- never the node), both
  caches keep their locality under sharding instead of fragmenting N
  ways.
* **Campaigns** (:mod:`~repro.cluster.lease`,
  :mod:`~repro.cluster.executor`) -- independently launched
  ``repro-hetsim campaign --join`` processes cooperatively drain one
  task DAG through the content-addressed
  :class:`~repro.campaign.store.ResultStore`, coordinating through
  atomic lease files only (O_EXCL claim records, monotonic heartbeat
  sequence numbers, observer-side stale detection, safe takeover) --
  no coordination service, bit-identical results, resumable exactly
  as a single-process campaign.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "executor": ("run_cluster_pending",),
    "hashring": ("rendezvous_owner", "rendezvous_rank", "shard_key"),
    "lease": ("LeaseManager",),
    "prommerge": ("merge_expositions",),
    "router": ("Router",),
    "supervisor": ("ClusterConfig", "WorkerSupervisor", "run_cluster_server"),
})
