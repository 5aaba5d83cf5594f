"""Micro-batching dispatcher: coalesce requests into one grid call.

The serving hot path is the same shape as an inference server: many
concurrent, small, identical-model queries.  The batched engine
(:func:`repro.perf.batch.optimize_batch`) already evaluates *many
budgets* for one (chip, f) as a single NumPy grid operation, and each
budget's row of that grid is computed independently (elementwise ops
broadcast per-row), so stacking unrelated requests into one call
returns bit-identical results to evaluating them one at a time.

The dispatcher exploits this: the first in-flight request for a
(chip, f, r_max) key opens a *batch window* (``--batch-window-ms``);
every further request for the same key that arrives inside the window
appends its budget to the pending batch; when the window closes the
whole batch is evaluated by **one** ``optimize_batch`` call on a
worker thread and the per-budget results are de-multiplexed back to
their callers' futures.  A roadmap sweep is itself a natural batch --
its five node budgets share one key and always coalesce -- and
concurrent users querying the same design at different nodes merge
the same way.

Chips are keyed by identity (``id``): the standard design lists are
memoized, so equal queries share one chip object, while two distinct
chips that merely share a label (the mmm and fft ASICs, say) can
never be coalesced into the wrong grid.  The batch holds a reference
to its chip, so the id cannot be recycled while the key is live.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.chip import ChipModel
from ..core.constraints import Budget
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..obs.context import extract, inject
from ..obs.trace import Span, get_tracer
from ..perf.batch import optimize_batch
from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


@dataclass
class _Item:
    """One queued evaluation: its budget, future, and trace hooks.

    ``carrier`` snapshots the caller's trace context at enqueue time
    (the flush runs in a different task and thread); ``wait_span``
    times the caller's coalesce-to-demux wait inside its own trace.
    """

    budget: Budget
    future: "asyncio.Future"
    carrier: Optional[Dict[str, str]] = None
    wait_span: Optional[Span] = None


@dataclass
class _Batch:
    """One open batch window: a chip/f pair plus queued budgets."""

    chip: ChipModel
    f: float
    r_max: int
    items: List[_Item] = field(default_factory=list)


class MicroBatcher:
    """Coalesce same-(chip, f, r_max) evaluations into one grid call."""

    def __init__(
        self,
        window_s: float = 0.002,
        executor=None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.window_s = window_s
        self._executor = executor
        self._metrics = metrics or ServiceMetrics()
        self._pending: Dict[tuple, _Batch] = {}
        #: Lifetime totals, independent of the metrics sink (tests).
        self.dispatch_count = 0
        self.item_count = 0

    def pending_keys(self) -> List[tuple]:
        """Keys with an open batch window (diagnostics/tests)."""
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
        concurrent callers share one grid evaluation.

        Tracing: each caller gets a ``batch.wait`` span inside its own
        trace (enqueue to demux); the flush itself runs as one
        ``batch.dispatch`` span parented on the caller that *opened*
        the window, with every coalesced trace id recorded in its
        ``links`` attribute -- one grid call, many traces, all
        cross-referenced.
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
            loop.create_task(self._flush_after(key, batch))
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

        Parented on the window opener's context (the first traced
        item); the other coalesced callers' trace ids go into the
        ``links`` attribute so their traces point at this span too.
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

    @staticmethod
    def _eval_in_thread(
        carrier: Optional[Dict[str, str]],
        chip: ChipModel,
        f: float,
        budgets: List[Budget],
        r_max: int,
    ) -> List[Optional[DesignPoint]]:
        """Run the grid call on a pool thread as one span.

        ``run_in_executor`` does not carry contextvars into the pool
        thread, so the dispatch span's context crosses as an explicit
        carrier -- this is what parents the grid-eval span
        (``perf.optimize_batch``) under ``batch.dispatch``.
        """
        with get_tracer().span(
            "perf.optimize_batch",
            parent=extract(carrier),
            attributes={"chip": chip.label, "batch_size": len(budgets)},
        ):
            return optimize_batch(chip, f, budgets, r_max)

    async def _flush_after(self, key: tuple, batch: _Batch) -> None:
        await asyncio.sleep(self.window_s)
        self._pending.pop(key, None)
        budgets = [item.budget for item in batch.items]
        loop = asyncio.get_running_loop()
        span = self._dispatch_span(batch)
        carrier = inject(span.context) if span is not None else None
        try:
            if self._executor is None:
                points = self._eval_in_thread(
                    carrier, batch.chip, batch.f, budgets, batch.r_max
                )
            else:
                points = await loop.run_in_executor(
                    self._executor,
                    self._eval_in_thread,
                    carrier,
                    batch.chip,
                    batch.f,
                    budgets,
                    batch.r_max,
                )
        except Exception as exc:
            if span is not None:
                span.finish("error")
            for item in batch.items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        self.dispatch_count += 1
        self.item_count += len(batch.items)
        self._metrics.record_batch(len(batch.items))
        for item, point in zip(batch.items, points):
            # A caller that timed out meanwhile has a cancelled future.
            if not item.future.done():
                item.future.set_result(point)
        if span is not None:
            span.finish()
