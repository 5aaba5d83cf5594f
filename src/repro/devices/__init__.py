"""Device data, normalisation, BCE derivation, and U-core parameters."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bce": (
        "ATOM_AREA_MM2",
        "BCE",
        "DEFAULT_BCE",
        "DEFAULT_BCE_POWER_W",
        "DEFAULT_FAST_CORE_R",
    ),
    "catalog": (
        "DEVICES",
        "FPGA_MM2_PER_LUT",
        "LX760_TOTAL_LUTS",
        "device_names",
        "fpga_area_mm2",
        "get_device",
    ),
    "measurements": (
        "FFT_ANCHOR_SIZES",
        "TABLE4",
        "TABLE5_PUBLISHED",
        "all_measurements",
        "get_measurement",
        "measurements_for",
    ),
    "params": (
        "derive_mu",
        "derive_phi",
        "derive_ucore",
        "derived_table5",
        "published_table5",
        "ucore_for",
    ),
    "uncertainty": ("MeasurementError", "UCoreWithError", "propagate_errors"),
    "scaling": (
        "BASELINE_NODE_NM",
        "denormalize_power",
        "normalize_raw_measurement",
        "normalized_area_factor",
        "normalized_power_factor",
    ),
    "specs": ("DeviceKind", "DeviceSpec", "Measurement"),
})
