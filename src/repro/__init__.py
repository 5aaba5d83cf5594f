"""repro: Single-Chip Heterogeneous Computing, reproduced.

A library-form reproduction of Chung, Milder, Hoe & Mai, "Single-Chip
Heterogeneous Computing: Does the Future Include Custom Logic, FPGAs,
and GPGPUs?" (MICRO 2010).

The package extends Hill & Marty's multicore Amdahl model with
unconventional cores (U-cores) characterised by relative performance
``mu`` and relative power ``phi``, bounds designs by area, power, and
off-chip bandwidth budgets, calibrates U-core parameters from device
measurements, and projects speedup and energy across ITRS 2009
technology nodes.

Quick start::

    from repro import core, devices, projection

    asic = devices.ucore_for("ASIC", "fft", 1024)
    chip = core.HeterogeneousChip(asic)
    budget = core.Budget(area=19, power=10, bandwidth=42)
    best = core.optimize(chip, f=0.99, budget=budget)
    print(best.describe())

Subpackages:
    core:        the analytical models (Section 3).
    devices:     Table 2 catalogue, normalisation, BCE, Table 5 (Sec 5).
    workloads:   FFT / MMM / Black-Scholes kernels and traffic models.
    measure:     simulated measurement apparatus (Section 4, Figs 2-4).
    itrs:        ITRS 2009 roadmap and Section 6.2 scenarios.
    dse:         declarative design-space exploration (Pareto fronts).
    projection:  node-by-node projections (Figures 6-10).
    reporting:   text tables, ASCII figures, experiment registry.
    service:     asyncio model-serving layer (HTTP JSON API).
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "_version": ("__version__",),
    "core": (
        "Budget",
        "DesignPoint",
        "HeterogeneousChip",
        "LimitingFactor",
        "UCore",
        "optimize",
    ),
    "devices": ("DEFAULT_BCE", "ucore_for"),
    "errors": (
        "CalibrationError",
        "InfeasibleDesignError",
        "ModelError",
        "ReproError",
        "UnknownDeviceError",
        "UnknownExperimentError",
        "UnknownWorkloadError",
    ),
    "projection": ("project",),
}, submodules=(
    "archmodels",
    "core",
    "devices",
    "dse",
    "hls",
    "itrs",
    "layout",
    "projection",
    "service",
    "sim",
    "units",
    "workloads",
))
