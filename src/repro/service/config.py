"""The tunables of one server instance, in a module that loads nothing.

:class:`ServiceConfig` is read by every process of a fleet: the CLI
builds it, the router copies it, and each spawned worker unpickles it
before it serves.  Keeping it apart from :mod:`repro.service.app` means
none of them loads the model, tensor or campaign code just to read a
host and a port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from ..obs.slo import SLObjective

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Root of the campaign result store backing ``POST /v1/jobs``;
    #: None keeps job results in an ephemeral temporary directory.
    store_dir: Optional[str] = None
    #: Graceful-shutdown budget: seconds to drain open connections and
    #: running jobs after SIGTERM/SIGINT before exiting anyway.
    drain_timeout_s: float = 5.0
    #: Append every finished span as one JSON line to this file
    #: (``serve --trace-file``); None keeps spans in memory only.  It
    #: records what is traced anyway (see
    #: :meth:`~repro.service.app.ModelService.handle_request`) and
    #: opts no request in.
    trace_file: Optional[str] = None
    #: Log level for the structured JSON logs (``--log-level`` /
    #: ``REPRO_LOG_LEVEL``); None resolves through the environment.
    log_level: Optional[str] = None
    #: Declarative latency/error objectives per endpoint; None takes
    #: :data:`repro.obs.slo.DEFAULT_OBJECTIVES`.
    slo_objectives: Optional[Tuple["SLObjective", ...]] = None
    #: Directory of a materialized tensor store (``repro-hetsim
    #: materialize build``); None serves everything live.  A store
    #: that fails its integrity checks is quarantined (served around,
    #: reported in ``/healthz``), never trusted.
    tensor_dir: Optional[str] = None
    #: Continuous sampling profiler (``GET /v1/profile``).  Default-on:
    #: the sampler costs well under the 2% overhead budget gated by
    #: ``make bench-profile``; ``serve --no-profile`` turns it off.
    profile: bool = True
