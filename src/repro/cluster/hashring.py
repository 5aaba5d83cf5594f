"""Rendezvous (highest-random-weight) hashing of the request space.

The router must send every request about one design question to the
*same* worker, or sharding destroys the localities the
single-process service already exploits:

* the LRU response cache keys on the frozen request dataclass, so a
  repeated request must land where its answer is cached;
* the memory-mapped tensor store maps one contiguous block per
  ``(workload, design)`` group, so one worker serving a design keeps
  that block's pages warm.

So the shard key (:func:`shard_key`) is workload, design (the chip),
parallel fraction, ``r_max``, scenario, and FFT size -- and **never**
the technology node, so every node of one design's roadmap lands on
one worker, as a ``/v1/sweep`` for it does.

Worker selection is rendezvous hashing (:func:`rendezvous_owner`):
every worker scores ``sha256(worker_id | key)`` and the highest score
owns the key.  Unlike modulo hashing, removing a dead worker remaps
*only* the keys it owned (its runner-up takes each one), so a worker
death degrades exactly one shard's cache locality and nothing else;
when it respawns under the same name, its keys come straight back.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "shard_key",
    "rendezvous_rank",
    "rendezvous_owner",
]

#: Endpoints routed by request locality (the shard key below).
MODEL_ENDPOINTS = ("/v1/speedup", "/v1/sweep", "/v1/optimize")

#: Endpoints routed by whole-body content hash: identical submissions
#: (a resubmitted campaign spec, say) land on the same worker, so the
#: second run resumes from that worker's store.
BODY_HASH_ENDPOINTS = ("/v1/jobs", "/v1/dse")

#: Body fields that participate in the locality key, in canonical
#: order.  ``node_nm`` is deliberately absent: a design's roadmap
#: stays on one worker.
_LOCALITY_FIELDS = ("workload", "design", "f", "r_max", "scenario",
                    "fft_size")


def shard_key(path: str, body: bytes) -> Optional[str]:
    """The routing key for one request, or None for "any worker".

    Model endpoints key on the locality fields of their JSON body;
    job-submission endpoints key on the canonical body content (same
    spec, same worker, so resubmission resumes).  A body that does not
    parse yields None -- the router forwards it anywhere and lets the
    owning worker produce the exact 400 the single-process service
    would.
    """
    if path in MODEL_ENDPOINTS:
        parsed = _loads(body)
        if not isinstance(parsed, dict):
            return None
        fields = {
            name: parsed[name]
            for name in _LOCALITY_FIELDS
            if name in parsed
        }
        return path + "|" + json.dumps(fields, sort_keys=True)
    if path in BODY_HASH_ENDPOINTS:
        parsed = _loads(body)
        if parsed is None:
            return None
        return path + "|" + json.dumps(parsed, sort_keys=True)
    return None


def _loads(body: bytes) -> Optional[Any]:
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return None


def _score(worker_id: str, key: str) -> bytes:
    return hashlib.sha256(f"{worker_id}|{key}".encode()).digest()


def rendezvous_rank(key: str, worker_ids: Sequence[str]) -> List[str]:
    """Every worker, best owner first, deterministically.

    The first entry owns ``key``; the second is its takeover target
    when the owner is down, and so on.  Stable across processes and
    Python versions (pure SHA-256, no ``hash()`` randomisation).
    """
    return sorted(
        worker_ids, key=lambda wid: _score(wid, key), reverse=True
    )


def rendezvous_owner(
    key: str, worker_ids: Sequence[str]
) -> Optional[str]:
    """The worker owning ``key``, or None when no workers exist."""
    best: Optional[str] = None
    best_score: Optional[bytes] = None
    for wid in worker_ids:
        score = _score(wid, key)
        if best_score is None or score > best_score:
            best, best_score = wid, score
    return best


def spread(keys: Sequence[str], worker_ids: Sequence[str]) -> Dict[str, int]:
    """How many of ``keys`` each worker owns (diagnostics/tests)."""
    counts = {wid: 0 for wid in worker_ids}
    for key in keys:
        owner = rendezvous_owner(key, worker_ids)
        if owner is not None:
            counts[owner] += 1
    return counts
