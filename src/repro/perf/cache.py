"""Memoization layer for the projection hot path.

The scalar projection stack re-derives the same intermediate values
over and over: every (design, node, f) cell of a figure recomputes the
node's :class:`~repro.core.constraints.Budget`, which in turn re-runs
the workload lookup and the bandwidth-unit conversion, and every
bandwidth conversion re-fetches the same calibrated measurement.  All
of these are pure functions of hashable inputs (frozen dataclasses,
strings, numbers), so a figure campaign -- dozens of panels sharing
five nodes and three workloads -- can share one derivation per
distinct input tuple.

This module provides :class:`LRUCache`, a lock-guarded LRU mapping
with ``functools.lru_cache``-style hit/miss counters, and
:func:`cached`, a decorator built on it that keeps a registry of every
cache it creates so the whole layer can be cleared
(:func:`clear_caches`) and inspected (:func:`cache_stats`) in one
call.  Unlike a bare ``functools.lru_cache``, the counters and the
recency list are updated under one :class:`threading.Lock`, so the
statistics stay exact when a server's event loop and its campaign job
threads (:mod:`repro.campaign.jobs`) drive the cached derivations at
once.  Benchmarks clear the registry between timed runs; tests use it
to prove both cache *hits* (repeated panels are served from memory)
and cache *correctness* (changing any input -- a different BCE
calibration, a perturbed scenario -- produces a different key and
therefore a fresh derivation, never a stale one).

Caches are keyed on **all** arguments, including defaults captured at
call time, so two calls that differ in any input never share an entry.
NaN arguments are never cached usefully (NaN != NaN, so each lookup
misses) but they are also never *wrong* -- the miss falls through to
the underlying function.  Two threads that miss the same key at the
same time both compute it (the underlying functions are pure, so the
duplicate work is harmless); the counters still account for every
call.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Tuple, TypeVar

__all__ = [
    "CacheInfo",
    "LRUCache",
    "cached",
    "clear_caches",
    "cache_stats",
    "cache_summary",
    "register_cache_metrics",
    "registered_caches",
]

_F = TypeVar("_F", bound=Callable)

#: Every cache created by :func:`cached`, keyed by qualified name.
_REGISTRY: Dict[str, Callable] = {}

#: Guards registry-wide operations.  Each :class:`LRUCache` locks its
#: own counters, but a *sweep* over the registry (clear, stats,
#: summary) is not atomic with respect to another sweep: a
#: ``clear_caches()`` racing a concurrent ``cache_stats()`` mid-serve
#: could reset caches the reader had already tallied, yielding totals
#: no single instant ever exhibited -- negative hit deltas between two
#: scrapes.  Registry-wide sweeps therefore serialise on this lock.
_REGISTRY_LOCK = threading.Lock()

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-compatible statistics snapshot."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class LRUCache:
    """A thread-safe LRU mapping with exact hit/miss counters.

    Lookups, insertions, evictions and the counters all happen under
    one lock, so concurrent readers never corrupt the recency order
    and ``info()`` never under- or over-counts -- the invariant
    ``hits + misses == lookups`` holds under any interleaving.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: Any) -> Tuple[bool, Any]:
        """``(found, value)`` for ``key``, updating counters/recency."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value

    def store(self, key: Any, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used overflow."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> CacheInfo:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, self.maxsize, len(self._data)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def _make_key(args: tuple, kwargs: dict) -> Any:
    """Hashable key over positional + keyword arguments.

    Like ``functools.lru_cache``, the positional and keyword spellings
    of the same call produce distinct keys; that costs an occasional
    duplicate entry, never a wrong hit.
    """
    if kwargs:
        return args, tuple(sorted(kwargs.items()))
    return args


def cached(maxsize: int = 1024) -> Callable[[_F], _F]:
    """A registered, thread-safe LRU memoizer.

    The wrapped function gains ``cache_info``/``cache_clear``
    attributes (compatible with the :func:`functools.lru_cache`
    interface), ``cache`` (the underlying :class:`LRUCache`), and
    ``uncached``, the original function -- callers that must bypass
    memoization (the benchmark's seed-faithful scalar path) call
    ``fn.uncached(...)`` directly.
    """

    def decorate(func: _F) -> _F:
        cache = LRUCache(maxsize=maxsize)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            key = _make_key(args, kwargs)
            found, value = cache.lookup(key)
            if found:
                return value
            value = func(*args, **kwargs)
            cache.store(key, value)
            return value

        wrapper.uncached = func
        wrapper.cache = cache
        wrapper.cache_info = cache.info
        wrapper.cache_clear = cache.clear
        name = f"{func.__module__}.{func.__qualname__}"
        with _REGISTRY_LOCK:
            _REGISTRY[name] = wrapper
        return wrapper

    return decorate


def registered_caches() -> List[str]:
    """Qualified names of every registered cache."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def clear_caches() -> None:
    """Empty every registered cache (benchmarks do this between runs).

    Holds the registry lock for the whole sweep so a concurrent
    :func:`cache_stats`/:func:`cache_summary` reader observes either
    the pre-clear or the post-clear state, never a half-cleared mix.
    """
    with _REGISTRY_LOCK:
        for wrapper in _REGISTRY.values():
            wrapper.cache_clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters for every registered cache."""
    with _REGISTRY_LOCK:
        stats = {}
        for name, wrapper in _REGISTRY.items():
            info = wrapper.cache_info()
            stats[name] = {
                "hits": info.hits,
                "misses": info.misses,
                "maxsize": info.maxsize,
                "currsize": info.currsize,
            }
        return stats


def cache_summary() -> Dict[str, int]:
    """Layer-wide totals across every registered cache.

    The compact form the serving layer embeds in ``GET /metrics``
    (the per-cache breakdown stays available via :func:`cache_stats`).
    Reads under the registry lock, so the totals are atomic with
    respect to :func:`clear_caches` and can only move backwards when a
    clear actually happened -- never because a sweep raced one.
    """
    with _REGISTRY_LOCK:
        totals = {"caches": 0, "hits": 0, "misses": 0, "entries": 0}
        for wrapper in _REGISTRY.values():
            info = wrapper.cache_info()
            totals["caches"] += 1
            totals["hits"] += info.hits
            totals["misses"] += info.misses
            totals["entries"] += info.currsize
        return totals


def register_cache_metrics(registry=None):
    """Expose the layer-wide totals as callback gauges in ``registry``.

    The gauges read :func:`cache_summary` lazily at export time, so
    the registry (``GET /metrics?format=prom``, ``repro-hetsim
    metrics-dump``) always reflects the live totals without a second
    set of counters.  Defaults to the process-wide obs registry;
    idempotent per registry (gauges are get-or-create by name).
    """
    from ..obs.metrics import get_registry

    registry = registry if registry is not None else get_registry()
    descriptions = {
        "caches": "Registered memoization caches in repro.perf.cache",
        "hits": "Memoization hits across every registered cache",
        "misses": "Memoization misses across every registered cache",
        "entries": "Entries currently held across every cache",
    }
    for key, help_text in descriptions.items():
        registry.gauge(
            f"repro_perf_cache_{key}",
            help_text,
            callback=lambda k=key: cache_summary()[k],
        )
    return registry


# The process-wide registry always carries the perf-cache collectors;
# per-service registries opt in via register_cache_metrics(registry).
register_cache_metrics()
