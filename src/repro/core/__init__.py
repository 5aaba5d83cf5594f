"""Analytical models: the paper's primary contribution.

This subpackage contains the extended Hill-Marty model of Section 3:
classical Amdahl substrates, sequential power/performance laws, the
U-core abstraction, the Table 1 constraint system, the r-sweep design
optimizer, and the energy model.  ``inverse``, ``multicore``,
``perflaws``, ``profiles`` and ``serial_offload`` are extensions beyond
the paper.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "amdahl": (
        "MultiPhaseWorkload",
        "Phase",
        "amdahl_limit",
        "amdahl_speedup",
        "gustafson_speedup",
        "serial_fraction_for_target",
    ),
    "chip": (
        "AsymmetricCMP",
        "AsymmetricOffloadCMP",
        "ChipModel",
        "DynamicCMP",
        "HeterogeneousAssistedChip",
        "HeterogeneousChip",
        "SymmetricCMP",
    ),
    "constraints": ("BoundSet", "Budget", "LimitingFactor"),
    "energy": ("design_energy", "energy_of_point"),
    "inverse": ("crossover_f", "required_bandwidth", "required_f"),
    "hill_marty": (
        "speedup_asymmetric",
        "speedup_asymmetric_offload",
        "speedup_dynamic",
        "speedup_symmetric",
    ),
    "multicore": ("MultiUCoreChip", "WorkloadSegment"),
    "metrics": (
        "Objective",
        "average_power_metric",
        "energy_delay_metric",
        "energy_metric",
        "optimize_for",
        "perf_per_watt_metric",
        "speedup_metric",
    ),
    "perflaws": (
        "linear",
        "logarithmic",
        "pollack",
        "power_law",
        "tabulated",
        "validate_law",
    ),
    "optimizer": (
        "DEFAULT_R_MAX",
        "DesignPoint",
        "evaluate_design",
        "feasible_r_values",
        "optimize",
        "sweep_designs",
    ),
    "power": (
        "DEFAULT_ALPHA",
        "SCENARIO_HIGH_ALPHA",
        "max_r_for_serial_bandwidth",
        "max_r_for_serial_power",
        "perf_to_power",
        "pollack_area",
        "pollack_perf",
        "power_to_perf",
        "seq_power",
    ),
    "profiles": (
        "ParallelismProfile",
        "WidthSegment",
        "optimize_profile",
        "profile_speedup",
    ),
    "serial_offload": (
        "IsoPerformanceResult",
        "iso_performance_design",
        "serial_offload_power",
        "speedup_with_serial_offload",
    ),
    "ucore": ("UCore", "speedup_heterogeneous"),
})
