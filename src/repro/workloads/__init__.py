"""Workload kernels and their operation/traffic models (Table 3)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("KernelRun", "Workload"),
    "blackscholes": (
        "BlackScholesWorkload",
        "OptionBatch",
        "black_scholes_price",
        "norm_cdf",
    ),
    "fft": ("FFTWorkload", "bit_reverse_permutation", "fft_radix2"),
    "fft_variants": ("fft_radix4", "rfft_bytes", "rfft_ops", "rfft_packed"),
    "mmm": ("MMMWorkload", "blocked_matmul"),
    "registry": (
        "EXTENSION_WORKLOADS",
        "TABLE3_IMPLEMENTATIONS",
        "WORKLOADS",
        "all_workload_names",
        "get_workload",
        "workload_names",
    ),
    "spmv": ("CSRMatrix", "SpMVWorkload", "csr_from_dense", "csr_matvec"),
    "stencil": ("StencilWorkload", "jacobi_step", "jacobi_sweeps"),
})
