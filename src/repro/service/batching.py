"""Micro-batching dispatcher: coalesce requests into one grid call.

The serving hot path is the same shape as an inference server: many
concurrent, small, identical-model queries.  The batched engine
(:func:`repro.perf.batch.optimize_batch`) already evaluates *many
budgets* for one (chip, f) as a single NumPy grid operation, and each
budget's row of that grid is computed independently (elementwise ops
broadcast per-row), so stacking unrelated requests into one call
returns bit-identical results to evaluating them one at a time.

The dispatcher exploits this: the first request for a (chip, f,
r_max) key in an event-loop tick schedules a flush with
``loop.call_soon``; every further request for the same key enqueued
in that tick appends its budget to the pending batch; on the next
tick the flush evaluates the whole batch with **one**
``optimize_batch`` call, inline on the loop, and de-multiplexes the
per-budget results back to their callers' futures.  What shares a
tick is one request's fan-out: a roadmap sweep's five node budgets
share one key and always coalesce.  Requests arriving on separate
connections are mostly read in separate ticks and do not.  Nothing
waits on a timer or a thread; ``optimize_batch`` stops its grid at
the budgets' largest serial ceiling, so no ``r_max`` makes a flush
hold the loop longer than that ceiling's grid.

Chips are keyed by identity (``id``): the standard design lists are
memoized, so equal queries share one chip object, while two distinct
chips that merely share a label (the mmm and fft ASICs, say) can
never be coalesced into the wrong grid.  The batch holds a reference
to its chip, so the id cannot be recycled while the key is live.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.chip import ChipModel
from ..core.constraints import Budget
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..obs.context import extract, inject
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, get_tracer
from ..perf.batch import optimize_batch

__all__ = ["MicroBatcher"]


@dataclass
class _Item:
    """One queued evaluation: its budget, future, and trace hooks.

    ``carrier`` snapshots the caller's trace context at enqueue time
    (the flush parents its span on the first traced caller and links
    the rest); ``wait_span`` times the caller's coalesce-to-demux wait
    inside its own trace.
    """

    budget: Budget
    future: "asyncio.Future"
    carrier: Optional[Dict[str, str]] = None
    wait_span: Optional[Span] = None


@dataclass
class _Batch:
    """One pending flush: a chip/f pair plus queued budgets."""

    chip: ChipModel
    f: float
    r_max: int
    items: List[_Item] = field(default_factory=list)


class MicroBatcher:
    """Coalesce same-(chip, f, r_max) evaluations into one grid call.

    Every flush is counted in ``registry`` (the service's; ``None``
    keeps a private one): ``repro_service_batch_dispatches_total``,
    ``repro_service_batched_items_total`` and
    ``repro_service_max_batch_items``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self._pending: Dict[tuple, _Batch] = {}
        r = registry if registry is not None else MetricsRegistry()
        self._dispatches = r.counter(
            "repro_service_batch_dispatches_total",
            "Micro-batch flushes (one optimize_batch grid call each)",
        )
        self._items = r.counter(
            "repro_service_batched_items_total",
            "Evaluations coalesced across all micro-batches",
        )
        self._max_batch = r.gauge(
            "repro_service_max_batch_items",
            "Largest micro-batch coalesced so far",
        )
        #: The gauge's value, kept here: one batcher per registry, and
        #: its flushes run on one loop.
        self._largest = 0

    def pending_keys(self) -> List[tuple]:
        """Keys with a flush scheduled (diagnostics/tests)."""
        return list(self._pending)

    async def evaluate(
        self,
        chip: ChipModel,
        f: float,
        budget: Budget,
        r_max: int = DEFAULT_R_MAX,
    ) -> Optional[DesignPoint]:
        """One budget's best design point, via the shared batch.

        Equivalent to ``optimize_batch(chip, f, [budget], r_max)[0]``
        -- including the ``None``-for-infeasible convention -- except
        callers enqueued in the same loop tick share one grid
        evaluation.

        Tracing: each traced caller gets a ``batch.wait`` span inside
        its own trace (enqueue to demux); the flush itself runs as one
        ``batch.dispatch`` span parented on the first traced caller,
        with every coalesced trace id recorded in its ``links``
        attribute -- one grid call, many traces, all cross-referenced.
        A caller outside any span (an untraced request) records none,
        and a flush with no traced caller opens no span at all.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        key = (id(chip), f, r_max)
        carrier = inject()
        wait_span = None
        if carrier is not None:
            wait_span = get_tracer().span(
                "batch.wait", attributes={"f": f, "r_max": r_max}
            )
        batch = self._pending.get(key)
        if batch is None:
            batch = _Batch(chip=chip, f=f, r_max=r_max)
            self._pending[key] = batch
            loop.call_soon(self._flush, key, batch)
        batch.items.append(
            _Item(
                budget=budget,
                future=future,
                carrier=carrier,
                wait_span=wait_span,
            )
        )
        try:
            return await future
        finally:
            if wait_span is not None:
                wait_span.set_attribute("batch_size", len(batch.items))
                if future.cancelled() or not future.done():
                    status = "cancelled"
                elif future.exception() is not None:
                    status = "error"
                else:
                    status = None
                wait_span.finish(status)

    def _dispatch_span(self, batch: _Batch) -> Optional[Span]:
        """The ``batch.dispatch`` span for one flush, if anyone traced.

        Parented on the first traced item's context; the other
        coalesced callers' trace ids go into the ``links`` attribute
        so their traces point at this span too.
        """
        traced = [i.carrier for i in batch.items if i.carrier]
        if not traced:
            return None
        span = get_tracer().span(
            "batch.dispatch",
            parent=extract(traced[0]),
            attributes={
                "chip": batch.chip.label,
                "f": batch.f,
                "r_max": batch.r_max,
                "batch_size": len(batch.items),
            },
        )
        links = sorted(
            {c["trace_id"] for c in traced}
            - {span.trace_id}
        )
        if links:
            span.set_attribute("links", links)
        return span

    def _flush(self, key: tuple, batch: _Batch) -> None:
        """Evaluate one batch with one grid call and resolve its futures.

        Runs as a ``call_soon`` callback, one tick after the batch
        opened, so every same-key call enqueued in between rides along.
        """
        del self._pending[key]
        budgets = [item.budget for item in batch.items]
        span = self._dispatch_span(batch)
        try:
            with (
                nullcontext()
                if span is None
                else get_tracer().span(
                    "perf.optimize_batch",
                    parent=span.context,
                    attributes={
                        "chip": batch.chip.label,
                        "batch_size": len(budgets),
                    },
                )
            ):
                points = optimize_batch(
                    batch.chip, batch.f, budgets, batch.r_max
                )
        except Exception as exc:
            if span is not None:
                span.finish("error")
            for item in batch.items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        size = len(batch.items)
        self._dispatches.inc()
        self._items.inc(size)
        if size > self._largest:
            self._largest = size
            self._max_batch.set(size)
        for item, point in zip(batch.items, points):
            # A caller cancelled meanwhile has a done future.
            if not item.future.done():
                item.future.set_result(point)
        if span is not None:
            span.finish()
