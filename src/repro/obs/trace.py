"""Spans: the one way to time a region, and their export.

A :class:`Span` is one timed operation: a name, a trace/span id pair,
an optional parent span id, wall-clock start, duration, a status and a
flat attribute dict.  A :class:`Tracer` creates spans (parenting them
on the current :mod:`repro.obs.context` automatically), keeps the most
recent ones in a bounded in-process ring buffer (served by
``GET /v1/traces``), and optionally appends every finished span as one
JSON line to a trace file (``repro-hetsim serve --trace-file`` /
``campaign --trace-file``).

Every finished span also records its duration in the
``repro_phase_seconds{phase=<span name>}`` summary, which
:func:`phase_totals` reads back as a per-name table (the
``BENCH_*.json`` writers embed it).  While the continuous sampler
runs, entering a span pushes its name as the thread's ``phase:`` tag
and leaving it pops the tag (:mod:`repro.obs.prof`) -- except on an
event-loop thread, where a span stays open across awaits.  There is
no other timing primitive.

Grain: a span is opened by the call that owns a loop -- one per
traced request, grid call, projection, sensitivity run, DSE sweep or
campaign task -- never inside the loop.  A span with no enclosing span
starts its own trace, so an untraced sweep or sensitivity run records
exactly one span.  Serving is opt-in instead: a request's spans
(``http.request`` and, inside it, ``tensor.lookup`` and one
``perf.optimize_batch`` per grid call) open only for a request
that sends ``X-Request-Id`` or is not a keep-alive model ``POST``
(:func:`repro.service.http.fast_path_eligible`); an untraced request
that fails records one backdated ``http.request`` span, and one that
succeeds records none.  A trace file therefore holds the traced
requests, the errors and the loop owners, not every request.

The module-level tracer (:func:`get_tracer`) is what the service, the
campaign runner and the model's loop owners share; tests build private
:class:`Tracer` instances to assert in isolation.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import prof as _prof
from .context import (
    SpanContext,
    attach,
    current_context,
    detach,
    new_span_id,
    new_trace_id,
)
from .metrics import Histogram, get_registry

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "configure_tracer",
    "phase_totals",
    "reset_phase_totals",
]

#: Default ring-buffer capacity (spans, newest win).
DEFAULT_BUFFER_SIZE = 4096

_phase_lock = threading.Lock()
#: Lifetime ``(calls, seconds)`` per span name at the last reset.
_phase_base: Dict[str, Tuple[int, float]] = {}
#: Bound on first use, not at import: an idle process exports no
#: empty ``repro_phase_seconds`` family.
_phase_seconds: Optional[Histogram] = None


def _phase_histogram() -> Histogram:
    global _phase_seconds
    if _phase_seconds is None:
        _phase_seconds = get_registry().histogram(
            "repro_phase_seconds",
            "Wall-clock seconds per finished span, by name",
        )
    return _phase_seconds


def phase_totals(reset: bool = False) -> Dict[str, Dict[str, float]]:
    """Finished spans per name since the last reset:
    ``{name: {calls, total_s}}``.

    A view over the ``repro_phase_seconds`` summary's lifetime
    count/sum, so a span records into one sink.  ``reset=True``
    snapshots *and* restarts the view -- benchmark repetitions use it
    to attribute phases to one timed run.
    """
    with _phase_lock:
        totals = {
            dict(key)["phase"]: value
            for key, value in _phase_histogram().totals().items()
        }
        snapshot = {}
        for name, (calls, total) in sorted(totals.items()):
            base_calls, base_total = _phase_base.get(name, (0, 0.0))
            if calls > base_calls:
                snapshot[name] = {
                    "calls": calls - base_calls,
                    "total_s": total - base_total,
                }
        if reset:
            _phase_base.update(totals)
    return snapshot


def reset_phase_totals() -> None:
    """Restart the phase totals (benchmarks, between modes)."""
    phase_totals(reset=True)


def _on_event_loop() -> bool:
    """Whether this thread runs an asyncio loop.  A process that never
    imported asyncio runs none, so this module does not import it."""
    asyncio = sys.modules.get("asyncio")
    return asyncio is not None and asyncio._get_running_loop() is not None


class Span:
    """One timed operation inside a trace.

    Use as a context manager (the usual way, via
    :meth:`Tracer.span`) or drive :meth:`finish` manually; only the
    context-manager form makes the span current and tags sampled
    stacks.  Mutating accessors are not thread-safe; a span belongs to
    the one logical flow that created it.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "duration_s",
        "status",
        "attributes",
        "_start_perf",
        "_tracer",
        "_token",
        "_tagged",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        tracer: "Tracer",
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix = time.time()
        self.duration_s: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self._start_perf = time.perf_counter()
        self._tracer = tracer
        self._token = None
        self._tagged = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def backdate(self, start_unix: float, start_perf: float) -> "Span":
        """Rebase the span's start to an earlier instant.

        For spans created at *settle* time for work that was queued
        earlier (the campaign runner's per-task spans): the span then
        covers submit-to-settle, and queue wait becomes visible.
        """
        self.start_unix = start_unix
        self._start_perf = start_perf
        return self

    def finish(self, status: Optional[str] = None) -> None:
        """Stamp the duration, record it in the phase summary and hand
        the span to the tracer (once)."""
        if self.duration_s is not None:
            return
        self.duration_s = time.perf_counter() - self._start_perf
        if status is not None:
            self.status = status
        _phase_histogram().observe(self.duration_s, phase=self.name)
        self._tracer.record(self.payload())

    def payload(self) -> Dict[str, Any]:
        """The JSON-ready export form (one JSONL line / buffer entry)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_ms": (
                None
                if self.duration_s is None
                else round(self.duration_s * 1e3, 6)
            ),
            "status": self.status,
            "attributes": self.attributes,
        }

    def __enter__(self) -> "Span":
        self._token = attach(self.context)
        # A span on an event-loop thread stays open across awaits while
        # the thread runs other tasks or waits, so it tags nothing.
        if _prof.tagging_active() and not _on_event_loop():
            _prof.push_phase(self.name)
            self._tagged = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tagged:
            _prof.pop_phase()
            self._tagged = False
        if self._token is not None:
            detach(self._token)
            self._token = None
        self.finish("error" if exc_type is not None else None)


class Tracer:
    """Creates spans and owns their export (ring buffer + JSONL file).

    Thread-safe: spans finish on the event loop, on campaign job and
    pool threads, and on the campaign runner's settle path; the buffer
    and the file handle are guarded by one lock.
    """

    def __init__(
        self,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        export_path: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        self._buffer: "deque[Dict[str, Any]]" = deque(maxlen=buffer_size)
        self._export_path = export_path
        self._exported = 0
        self._dropped = 0
        self._dropped_counter = None

    # -- span creation -----------------------------------------------------

    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A new span, parented on ``parent`` or the current context.

        With neither a parent nor an enclosing span, the span starts a
        fresh trace (or joins ``trace_id`` when given -- the serving
        layer uses that to honour client-supplied request ids).
        """
        parent = parent if parent is not None else current_context()
        if parent is not None:
            trace = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace = trace_id or new_trace_id()
            parent_id = None
        return Span(
            name=name,
            trace_id=trace,
            span_id=new_span_id(),
            parent_id=parent_id,
            tracer=self,
            attributes=attributes,
        )

    # -- export ------------------------------------------------------------

    def record(self, payload: Dict[str, Any]) -> None:
        """Accept one finished span payload (from :meth:`Span.finish`).

        A full ring buffer evicts its oldest span -- and *counts* it:
        the per-tracer ``dropped`` tally surfaces in :meth:`stats` (and
        the ``GET /v1/traces`` eviction note), and the process-wide
        ``repro_trace_spans_dropped_total`` counter makes silent trace
        loss alertable.
        """
        evicted = False
        with self._lock:
            if (
                self._buffer.maxlen is not None
                and len(self._buffer) == self._buffer.maxlen
            ):
                evicted = True
                self._dropped += 1
            self._buffer.append(payload)
            self._exported += 1
            if self._export_path is not None:
                line = json.dumps(payload, separators=(",", ":"))
                with open(
                    self._export_path, "a", encoding="utf-8"
                ) as handle:
                    handle.write(line + "\n")
        if evicted:
            if self._dropped_counter is None:
                # Lazy: binding at construction would register the
                # family for every Tracer, bare test instances included.
                self._dropped_counter = get_registry().counter(
                    "repro_trace_spans_dropped_total",
                    "Spans evicted from tracer ring buffers before "
                    "being read",
                )
            self._dropped_counter.inc()

    def set_export_path(self, path: Optional[str]) -> None:
        """Start (or stop, with None) appending spans to a JSONL file."""
        with self._lock:
            self._export_path = path

    @property
    def export_path(self) -> Optional[str]:
        with self._lock:
            return self._export_path

    # -- query -------------------------------------------------------------

    def spans(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Buffered spans, oldest first, optionally filtered/capped.

        ``limit`` keeps the *newest* N after filtering -- the tail is
        what an operator debugging a live server wants.
        """
        with self._lock:
            spans = list(self._buffer)
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == trace_id]
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return spans

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every buffered span of one trace, oldest first."""
        return self.spans(trace_id=trace_id)

    def clear(self) -> None:
        """Drop the buffer (tests; the JSONL file is left alone)."""
        with self._lock:
            self._buffer.clear()

    def stats(self) -> Dict[str, Any]:
        """Buffer occupancy, lifetime export count, eviction tally."""
        with self._lock:
            return {
                "buffered": len(self._buffer),
                "capacity": self._buffer.maxlen,
                "exported": self._exported,
                "dropped": self._dropped,
                "export_path": self._export_path,
            }

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.spans())


#: The process-wide tracer shared by the service/campaign/perf layers.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide shared tracer."""
    return _GLOBAL


def configure_tracer(trace_file: Optional[str] = None) -> Tracer:
    """Switch the global tracer's JSONL export on (or off via None);
    returns it."""
    _GLOBAL.set_export_path(trace_file)
    return _GLOBAL
