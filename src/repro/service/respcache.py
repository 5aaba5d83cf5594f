"""LRU response cache keyed on the frozen request dataclasses.

A request's dataclass (:mod:`repro.service.schemas`) is hashable and
covers every input that can change the answer, so it is the cache key
verbatim -- the same structural-invalidation property the perf layer's
derivation caches rely on: a request that differs in *any* field is a
different key, and a stale hit is impossible by construction.

Only successful (HTTP 200) payloads are cached; errors always
re-evaluate.  Hits short-circuit the whole pipeline -- a cached
request never reaches the grid kernel.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..perf.cache import CacheInfo, LRUCache

__all__ = ["ResponseCache"]


class ResponseCache:
    """Thread-safe LRU of request-dataclass -> response payload."""

    def __init__(self, maxsize: int = 1024):
        self._lru = LRUCache(maxsize=maxsize)

    def get(self, request: Any) -> Optional[Dict[str, Any]]:
        """The cached payload for ``request``, or None on a miss."""
        found, value = self._lru.lookup(request)
        return value if found else None

    def put(self, request: Any, payload: Dict[str, Any]) -> None:
        """Store a successful payload.

        Payloads are treated as immutable once stored: the transport
        serialises them straight to JSON and never mutates them.
        """
        self._lru.store(request, payload)

    def clear(self) -> None:
        self._lru.clear()

    def info(self) -> CacheInfo:
        return self._lru.info()

    def __len__(self) -> int:
        return len(self._lru)
