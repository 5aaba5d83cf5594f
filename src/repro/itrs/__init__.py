"""ITRS 2009 roadmap data and the Section 6.2 scenario engine."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "roadmap": ("ITRS_2009", "NodeParams", "Roadmap", "figure5_series"),
    "scenarios": (
        "BASELINE",
        "SCENARIO_OVERRIDES",
        "SCENARIOS",
        "Scenario",
        "get_scenario",
        "scenario_from_overrides",
        "scenario_names",
    ),
})
