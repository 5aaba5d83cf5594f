"""Architectural peak models and rooflines for the measured devices."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "peaks": (
        "DEVICE_PEAKS",
        "ComputePeak",
        "efficiency_table",
        "measured_efficiency",
        "peak_gflops",
        "sanity_check_device",
    ),
    "roofline": ("RooflinePoint", "render_roofline", "roofline_points"),
})
