"""Declarative design-space exploration over heterogeneous chips.

The :mod:`repro.dse` subsystem generalises the paper's six hand-coded
scenarios into a production exploration pipeline:

* :mod:`~repro.dse.dsl` -- a declarative scenario DSL (JSON-loadable
  dataclasses) covering budget overrides, alpha/f sweeps, provider
  regimes, and multi-U-core chips; the paper's scenarios ship as
  builtins, bit-identical to :mod:`repro.itrs.scenarios`.
* :mod:`~repro.dse.providers` -- pluggable performance/constraint
  regimes (Table 1 baseline, Ginosar sqrt(m), Yavits
  temperature-limited Amdahl) behind one interface.
* :mod:`~repro.dse.engine` -- config-space expansion (a Pareto shard
  builds only its own slice) and the exhaustive sweep: one grid-kernel
  call (:func:`repro.perf.batch.optimize_batch`) per run of configs
  sharing a chip and ``f``, held to the scalar per-config r-sweep;
  one ``dse.exhaustive`` span per sweep.
* :mod:`~repro.dse.front` -- the dominance-pruned
  (speedup, area, power) Pareto front, canonically ordered and
  shard-mergeable.
* :mod:`~repro.dse.halving` -- successive halving with equivalence
  classes and sound bound-based pruning: the exhaustive front from a
  fraction of the full evaluations.  Fewer evaluations no longer mean
  less time: with the sweep on the kernel, halving is the slower
  search on the spaces benchmarked.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "dsl": (
        "BEST_SUBSTRATE",
        "BUILTIN_SCENARIOS",
        "SUBSTRATES",
        "ChipSpec",
        "DSEScenario",
        "SegmentSpec",
        "builtin_scenario",
        "builtin_scenario_names",
        "list_scenario_files",
        "load_scenario_file",
        "scenario_summary",
    ),
    "engine": (
        "DSEConfig",
        "evaluate_config",
        "exhaustive_sweep",
        "expand_configs",
        "resolve_chip",
    ),
    "front": (
        "DSEPoint",
        "dominates",
        "front_payload",
        "merge_fronts",
        "pareto_front",
        "points_from_payload",
    ),
    "halving": ("HalvingResult", "successive_halving"),
    "providers": (
        "PROVIDERS",
        "DSEProvider",
        "get_provider",
        "provider_names",
    ),
})
