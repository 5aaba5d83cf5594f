"""Materialized serving: answer requests from the tensor store.

Two layers, both optional (``serve --tensor-dir``):

* :class:`TensorServing` answers parsed requests at the *payload*
  level from a memory-mapped :class:`~repro.perf.tensorstore.TensorStore`
  -- no budgets, no optimizer, no grid call.  On-grid requests are
  answered bit-identically to the live path (the payload is rebuilt
  through the very same :func:`~repro.service.schemas.design_point_payload`
  over a reconstructed :class:`~repro.core.optimizer.DesignPoint`);
  near-grid ``/v1/speedup`` requests are answered by harmonic
  interpolation with a documented ``rel_error_bound`` and an explicit
  top-level ``interpolation`` block; everything else returns None and
  the caller falls back to live compute.  A store that fails its
  integrity checks at load time is *quarantined*: every request falls
  back, ``/healthz`` says why, and correctness is never at risk.

* :class:`TransportFastPath` caches fully pre-encoded HTTP response
  bytes keyed on ``(path, raw body)``, built lazily from
  :class:`TensorServing` answers.  It exists because the evaluation
  cost stops mattering once tensors answer in microseconds: the
  per-request overhead (span, access log, header assembly) dominates.
  The fast path applies only to keep-alive ``POST`` requests on the
  three model endpoints that carry **no** ``X-Request-Id`` header
  (:func:`~repro.service.http.fast_path_eligible`, re-exported here)
  -- sending one is the documented opt-in to per-request tracing and
  response id headers.  It is the one
  traced/untraced rule of every serving tier: the byte cache, the
  cluster router and :meth:`~repro.service.app.ModelService.handle_request`
  all ask it, so an untraced request records no span, id or access
  line on whichever tier answers it (an error from the full pipeline
  still gets all three).  Fast-path responses therefore omit
  ``X-Request-Id``/``X-Trace-Id`` and skip the per-request access log;
  metrics and SLO accounting are preserved exactly via a deferred
  queue drained on every slow-path request, every ``/metrics`` /
  ``/healthz`` / ``/v1/slo`` read, and whenever it grows past a
  threshold -- each deferred event carries its capture timestamp, so
  SLO burn windows see the traffic where it actually happened.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, Optional, Tuple

from ..core.constraints import BoundSet
from ..core.optimizer import DesignPoint
from ..errors import ReproError, TensorStoreError
from ..perf.tensorstore import TensorStore
from .http import FAST_PATH_ROUTES, _encode_response, fast_path_eligible
from .schemas import (
    OptimizeRequest,
    SpeedupRequest,
    SweepRequest,
    design_point_payload,
    parse_optimize,
    parse_speedup,
    parse_sweep,
    request_payload,
)

__all__ = [
    "TensorServing",
    "TransportFastPath",
    "FAST_PATH_ROUTES",
    "fast_path_eligible",
]

#: Sentinel distinguishing "never built" from "built: not answerable".
_UNKNOWN = object()


class TensorServing:
    """Payload-level answers from one mapped tensor store."""

    def __init__(
        self,
        directory: str,
        store: Optional[TensorStore] = None,
        error: Optional[str] = None,
    ):
        self.directory = str(directory)
        self.store = store
        self.error = error

    @classmethod
    def open(cls, directory: str) -> "TensorServing":
        """Load + verify the store; quarantine instead of raising.

        A missing, corrupt, or version-mismatched store yields a
        *quarantined* instance: :attr:`ready` is False, every request
        falls back to live compute, and :meth:`status` carries the
        integrity error for ``/healthz``.
        """
        try:
            return cls(directory, store=TensorStore.load(directory))
        except TensorStoreError as exc:
            return cls(directory, error=str(exc))

    @property
    def ready(self) -> bool:
        return self.store is not None

    def built_unix(self) -> Optional[float]:
        if self.store is None:
            return None
        return self.store.manifest.get("envelope", {}).get(
            "timestamp_unix"
        )

    def status(self) -> Dict[str, Any]:
        """The ``tensor`` block of ``/healthz`` (informational)."""
        if self.store is None:
            return {
                "enabled": True,
                "status": "quarantined",
                "directory": self.directory,
                "error": self.error,
            }
        return {
            "enabled": True,
            "status": "ready",
            **self.store.describe(),
        }

    # -- payload assembly --------------------------------------------------

    @staticmethod
    def _point_payload(
        design: Dict[str, Any], f: float, values: Dict[str, float]
    ) -> Dict[str, Any]:
        """Rebuild the live path's exact point payload from one cell.

        ``r``/``n``/bounds are f-independent model values stored
        verbatim; the limiter re-derives through the same
        :class:`BoundSet` tie-breaking, and the payload goes through
        the same :func:`design_point_payload`, so an on-grid answer is
        byte-identical to the optimizer's.
        """
        bounds = BoundSet(
            n_area=values["n_area"],
            n_power=values["n_power"],
            n_bandwidth=values["n_bandwidth"],
        )
        point = DesignPoint(
            label=design["chip_label"],
            model_id=design["model_id"],
            f=f,
            r=int(values["r"]),
            n=values["n"],
            speedup=values["speedup"],
            limiter=bounds.limiter,
            bounds=bounds,
        )
        return design_point_payload(point)

    def speedup_payload(
        self, req: SpeedupRequest
    ) -> Optional[Tuple[Dict[str, Any], str]]:
        """``(payload, outcome)`` for an answerable request, else None.

        Exact grid hits and harmonic ``f``-interpolation both answer;
        an interpolated response carries a top-level ``interpolation``
        block (exact hits stay byte-identical to the live path by
        omitting it).  Infeasible cells fall back so the live path
        raises its exact error.
        """
        store = self.store
        if store is None:
            return None
        view = store.group(req.scenario, req.workload, req.fft_size)
        if view is None:
            return None
        cell = store.lookup(
            req.scenario, req.workload, req.fft_size, req.design,
            req.node_nm, req.f, req.r_max,
        )
        if cell.outcome == "miss" or not cell.feasible:
            return None
        design = view.designs[view.design_index[req.design]]
        node = view.nodes[view.node_index[req.node_nm]]
        payload: Dict[str, Any] = {
            "request": request_payload(req),
            "node": node["label"],
            "point": self._point_payload(design, req.f, cell.values),
        }
        if cell.interpolation is not None:
            payload["interpolation"] = cell.interpolation
        return payload, cell.outcome

    def sweep_payload(
        self, req: SweepRequest
    ) -> Optional[Tuple[Dict[str, Any], str]]:
        """One design across the roadmap; exact grid hits only.

        Every node must answer as an exact hit (feasible or not --
        infeasible sweep cells are representable, the live path does
        not error on them).  Any interpolation or miss falls back.
        """
        store = self.store
        if store is None:
            return None
        view = store.group(req.scenario, req.workload, req.fft_size)
        if view is None or req.design not in view.design_index:
            return None
        design = view.designs[view.design_index[req.design]]
        cells = []
        for node in view.nodes:
            cell = store.lookup(
                req.scenario, req.workload, req.fft_size, req.design,
                node["node_nm"], req.f, req.r_max,
            )
            if cell.outcome != "hit":
                return None
            cells.append(
                {
                    "node": node["label"],
                    "node_nm": node["node_nm"],
                    "feasible": cell.feasible,
                    "point": (
                        self._point_payload(design, req.f, cell.values)
                        if cell.feasible
                        else None
                    ),
                }
            )
        payload = {
            "request": request_payload(req),
            "design": design["label"],
            "cells": cells,
        }
        return payload, "hit"

    def optimize_payload(
        self, req: OptimizeRequest
    ) -> Optional[Tuple[Dict[str, Any], str]]:
        """Best design at one node; exact grid hits only.

        Designs iterate in the store's legend order (the same order
        :func:`~repro.projection.designs.standard_designs` yields) with
        a strict ``>`` comparison, reproducing the live path's
        first-maximum-wins tie handling.  All-infeasible falls back so
        the live path raises its exact error message.
        """
        store = self.store
        if store is None:
            return None
        view = store.group(req.scenario, req.workload, req.fft_size)
        if view is None:
            return None
        if req.node_nm is None:
            node = view.nodes[-1]
        else:
            idx = view.node_index.get(req.node_nm)
            if idx is None:
                return None
            node = view.nodes[idx]
        candidates = []
        best: Optional[Tuple[str, Dict[str, Any]]] = None
        for design in view.designs:
            cell = store.lookup(
                req.scenario, req.workload, req.fft_size,
                design["short_label"], node["node_nm"], req.f,
                req.r_max,
            )
            if cell.outcome != "hit":
                return None
            if not cell.feasible:
                candidates.append(
                    {
                        "design": design["label"],
                        "feasible": False,
                        "point": None,
                    }
                )
                continue
            point = self._point_payload(design, req.f, cell.values)
            candidates.append(
                {
                    "design": design["label"],
                    "feasible": True,
                    "point": point,
                }
            )
            if best is None or point["speedup"] > best[1]["speedup"]:
                best = (design["label"], point)
        if best is None:
            return None
        payload = {
            "request": request_payload(req),
            "node": node["label"],
            "winner": {"design": best[0], "point": best[1]},
            "candidates": candidates,
        }
        return payload, "hit"


class TransportFastPath:
    """Pre-encoded response bytes for untraced keep-alive POSTs.

    Entries are built lazily on first sight of a ``(path, body)`` pair:
    the body is parsed, answered through :class:`TensorServing`, and
    the complete HTTP response (status line, headers, JSON body) is
    encoded once.  Replays then cost a dict lookup and one
    ``writer.write``.  Requests the tensors cannot answer are
    negative-cached so they skip straight to the full pipeline.

    Accounting is deferred, never dropped: each served response
    appends ``(endpoint, status, latency, outcome, capture-time)`` to
    a queue; :meth:`drain` replays the queue through the service's
    :meth:`~repro.service.app.ModelService.account` with the original
    timestamps.
    """

    def __init__(
        self,
        service,
        maxsize: int = 4096,
        drain_threshold: int = 2048,
    ):
        self._service = service
        self._maxsize = maxsize
        self._drain_threshold = drain_threshold
        self._lock = threading.Lock()
        self._responses: "OrderedDict[Tuple[str, bytes], Any]" = (
            OrderedDict()
        )
        self._pending: deque = deque()

    # -- serving -----------------------------------------------------------

    def response_bytes(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Optional[bytes]:
        """The complete response for this request, or None (slow path).

        Only requests :func:`fast_path_eligible` admits are answered.
        """
        if not fast_path_eligible(method, path, headers):
            return None
        started = time.perf_counter()
        key = (path, body)
        with self._lock:
            entry = self._responses.get(key, _UNKNOWN)
            if entry is not _UNKNOWN:
                self._responses.move_to_end(key)
        if entry is _UNKNOWN:
            entry = self._build(path, body)
            with self._lock:
                self._responses[key] = entry
                while len(self._responses) > self._maxsize:
                    self._responses.popitem(last=False)
        if entry is None:
            return None
        blob, outcome = entry
        self._pending.append(
            (
                path,
                200,
                time.perf_counter() - started,
                outcome,
                time.monotonic(),
            )
        )
        if len(self._pending) >= self._drain_threshold:
            self.drain()
        return blob

    def _build(
        self, path: str, body: bytes
    ) -> Optional[Tuple[bytes, str]]:
        tensor = self._service.tensor
        if tensor is None or not tensor.ready:
            return None
        try:
            decoded = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            return None  # the full pipeline owns the 400
        kind = FAST_PATH_ROUTES[path]
        try:
            if kind == "speedup":
                answered = tensor.speedup_payload(
                    parse_speedup(decoded)
                )
            elif kind == "sweep":
                answered = tensor.sweep_payload(parse_sweep(decoded))
            else:
                answered = tensor.optimize_payload(
                    parse_optimize(decoded)
                )
        except ReproError:
            return None  # the full pipeline owns the error payload
        if answered is None:
            return None
        payload, outcome = answered
        return _encode_response(200, payload, keep_alive=True), outcome

    # -- deferred accounting -----------------------------------------------

    def drain(self) -> int:
        """Replay queued fast-path events into metrics + SLO tracking.

        Called inline by the service before any slow-path accounting
        (so deferred capture timestamps stay older than fresh ones)
        and before every metrics/SLO read.  Returns the event count.
        """
        service = self._service
        drained = 0
        while True:
            try:
                endpoint, status, latency, outcome, captured = (
                    self._pending.popleft()
                )
            except IndexError:
                break
            service.account(endpoint, status, latency, now=captured)
            service.tensor_outcomes.inc(outcome=outcome)
            drained += 1
        return drained

    def stats(self) -> Dict[str, int]:
        with self._lock:
            entries = len(self._responses)
        return {"entries": entries, "pending": len(self._pending)}
