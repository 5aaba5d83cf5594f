"""The live serving path's one counted grid call.

The batched engine (:func:`repro.perf.batch.optimize_batch`) evaluates
*many budgets* for one (chip, f, r_max) as a single NumPy grid
operation, and each budget's row of that grid is computed
independently (elementwise ops broadcast per-row), so a request's
budgets answered in one call are bit-identical to one call each.

:meth:`MicroBatcher.evaluate` is that call for a live request: a
``/v1/sweep`` passes its five roadmap budgets at once, a
``/v1/speedup`` one, and a ``/v1/optimize`` one per design (the
designs have different chips).  It runs inline, with no await, so a
request is answered in one pass from its response-cache miss to its
payload, and a concurrent duplicate finds the answer in the response
cache instead of evaluating it again.  Nothing is coalesced across
requests: when this layer held each key open for one event-loop tick
to do so, the ``api-live`` benchmark measured 1.26 budgets per grid
call, about what a request brings on its own.  ``optimize_batch``
stops its grid at the budgets' largest serial ceiling, so no
``r_max`` makes a call hold the loop longer than that ceiling's grid.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence

from ..core.chip import ChipModel
from ..core.constraints import Budget
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..obs.context import current_context
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from ..perf.batch import optimize_batch

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """One request's budgets for a (chip, f, r_max) in one grid call.

    Every call is counted in ``registry`` (the service's; ``None``
    keeps a private one): ``repro_service_batch_dispatches_total``,
    ``repro_service_batched_items_total`` and
    ``repro_service_max_batch_items``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        r = registry if registry is not None else MetricsRegistry()
        self._dispatches = r.counter(
            "repro_service_batch_dispatches_total",
            "Grid calls (one optimize_batch call each)",
        )
        self._items = r.counter(
            "repro_service_batched_items_total",
            "Budgets evaluated across all grid calls",
        )
        self._max_batch = r.gauge(
            "repro_service_max_batch_items",
            "Most budgets in one grid call so far",
        )
        #: The gauge's value, kept here: one batcher per registry, and
        #: its calls run on one loop.
        self._largest = 0

    def evaluate(
        self,
        chip: ChipModel,
        f: float,
        budgets: Sequence[Budget],
        r_max: int = DEFAULT_R_MAX,
    ) -> List[Optional[DesignPoint]]:
        """``optimize_batch(chip, f, budgets, r_max)``, counted.

        One best design point per budget, ``None`` where a budget is
        infeasible.  A call that raises counts nothing.  Inside a
        traced request the call is one ``perf.optimize_batch`` span
        under the request's span; an untraced request opens none.
        """
        size = len(budgets)
        with (
            nullcontext()
            if current_context() is None
            else get_tracer().span(
                "perf.optimize_batch",
                attributes={
                    "chip": chip.label,
                    "f": f,
                    "r_max": r_max,
                    "batch_size": size,
                },
            )
        ):
            points = optimize_batch(chip, f, budgets, r_max)
        self._dispatches.inc()
        self._items.inc(size)
        if size > self._largest:
            self._largest = size
            self._max_batch.set(size)
        return points
