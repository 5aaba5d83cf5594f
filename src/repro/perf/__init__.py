"""Batched, cached evaluation of the projection model.

The scalar model in :mod:`repro.core` is the *reference
implementation*: one (chip, budget, f) cell at a time, pure Python,
easy to audit against the paper's formulas.  This package is the
*production path* layered on top of it:

* :mod:`repro.perf.batch` -- NumPy-vectorized r-sweeps
  (:func:`sweep_designs_batch`, :func:`optimize_batch`) that evaluate
  every candidate ``r`` across every node of a roadmap as array
  operations, bit-for-bit identical to the scalar sweep.
* :mod:`repro.perf.cache` -- a clearable memoization registry used by
  the budget/measurement derivations
  (:func:`~repro.projection.engine.node_budget` and friends), so
  repeated figure panels share derived budgets.

Campaigns of figure panels run through :mod:`repro.campaign`;
``benchmarks/bench_perf_grid.py`` times the batched path against the
scalar one over the Figure 6-9 panels in ``BENCH_projection.json``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "batch": ("optimize_batch", "sweep_designs_batch"),
    "cache": ("cache_stats", "cached", "clear_caches", "registered_caches"),
})
