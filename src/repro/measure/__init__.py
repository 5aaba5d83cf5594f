"""Simulated measurement apparatus (Section 4 methodology, Figures 2-4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "calibration": (
        "DEVICE_FFT_LOG2_RANGES",
        "FFT_SIZE_RANGE",
        "fft_device_curve",
        "fft_device_log2_sizes",
        "fft_mu_phi",
        "i7_fft_throughput",
    ),
    "devsim": ("SimulatedDevice", "SimulatedRun", "simulated_device"),
    "harness": ("FFTSeriesPoint", "MeasurementHarness", "Table4Row"),
    "microbench": (
        "STANDARD_SUITE",
        "Microbenchmark",
        "MicrobenchReading",
        "isolate_compute_power",
        "run_suite",
        "solve_components",
    ),
    "powermodel": (
        "BREAKDOWN_FRACTIONS",
        "COMPONENT_ORDER",
        "PowerBreakdown",
        "breakdown_for",
        "fft_power_series",
    ),
    "roofline": (
        "BandwidthSample",
        "GTX285_ONCHIP_LIMIT_LOG2",
        "compulsory_bandwidth_gbps",
        "fft_bandwidth_series",
        "is_compute_bound",
    ),
})
