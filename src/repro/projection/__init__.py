"""Scaling projections across ITRS nodes (Figures 6-10)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "designs": ("DesignSpec", "design_labels", "standard_designs"),
    "energyproj": (
        "EnergyCell",
        "EnergyResult",
        "EnergySeries",
        "project_energy",
    ),
    "engine": (
        "PAPER_F_VALUES",
        "ProjectionCell",
        "ProjectionResult",
        "ProjectionSeries",
        "bandwidth_bce_units",
        "node_budget",
        "project",
    ),
    "advisor": ("Recommendation", "Requirement", "advise", "render_advice"),
    "mixing": ("MixedChip", "MixPhase", "PhaseOutcome"),
    "pareto": ("ParetoPoint", "design_space_points", "pareto_frontier"),
    "sensitivity": (
        "SensitivityConfig",
        "SensitivitySummary",
        "run_sensitivity",
    ),
    "paperfigs": (
        "FIGURE8_F_VALUES",
        "FIGURE10_F_VALUES",
        "figure6_fft_projection",
        "figure7_mmm_projection",
        "figure8_bs_projection",
        "figure9_fft_high_bandwidth",
        "figure10_mmm_energy",
    ),
})
