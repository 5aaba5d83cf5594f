"""Execution-timeline simulation (operational twin of the model)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "engine": ("ChipSimulator", "ExecutionTrace", "TraceEvent", "WorkPhase"),
})
