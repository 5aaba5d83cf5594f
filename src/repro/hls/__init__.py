"""Hardware-pipeline cost model (Section 4 FPGA/ASIC methodology)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "costmodel": (
        "BLACK_SCHOLES_DATAFLOW",
        "DEFAULT_LUT_COSTS",
        "LX760_FABRIC",
        "MMM_PE_DATAFLOW",
        "Dataflow",
        "FabricSpec",
        "ScaledDesign",
        "scale_design",
    ),
})
