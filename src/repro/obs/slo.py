"""Service-level objectives, multi-window burn rates, error budgets.

PR 4 gave the serving layer latency quantiles and error counters; this
module puts *objectives* over them so the numbers become a go/no-go
signal, the same shape an inference stack uses to gate deploys:

* :class:`SLObjective` -- a declarative target per endpoint: "99% of
  ``/v1/speedup`` requests answer under 250 ms", "99.9% of all
  requests succeed".  An event is *bad* when it errors (HTTP 5xx) or,
  for latency objectives, exceeds the threshold.
* :class:`SLOTracker` -- records one event per finished request and
  derives, per objective:

  - **burn rates** over two windows (fast ~5 min, slow ~1 h): the
    bad-event fraction divided by the error budget ``1 - target``.
    Burn 1.0 spends the budget exactly at the sustainable pace; the
    classic multi-window rule alerts only when *both* windows burn
    hot, so a single slow request cannot page anyone but a sustained
    incident fires within minutes.
  - **error budget remaining** -- lifetime: the fraction of the
    allowed bad events not yet consumed by the traffic seen so far.

  Status is ``ok`` / ``burning`` (both windows above their alert
  thresholds) / ``exhausted`` (budget spent).  On the transition out
  of ``ok`` the tracker fires its alert hooks exactly once per
  episode, emits a structured log line, and records an ``slo.alert``
  span event into the tracer.

Instruments land in a :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_slo_*`` families), so both ``GET /metrics`` forms and
``repro-hetsim metrics-dump`` expose them.  The clock is injectable
for deterministic window tests.  Everything is stdlib-only.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .logging import get_logger, log_event
from .metrics import MetricsRegistry, get_registry
from .trace import get_tracer

__all__ = [
    "SLObjective",
    "SLOTracker",
    "DEFAULT_OBJECTIVES",
    "STATUS_OK",
    "STATUS_BURNING",
    "STATUS_EXHAUSTED",
    "get_slo_tracker",
]

_log = get_logger("obs.slo")

STATUS_OK = "ok"
STATUS_BURNING = "burning"
STATUS_EXHAUSTED = "exhausted"

#: Severity order for aggregating per-objective statuses.
_STATUS_RANK = {STATUS_OK: 0, STATUS_BURNING: 1, STATUS_EXHAUSTED: 2}

#: Multi-window defaults: the fast window catches an incident within
#: minutes, the slow window stops a brief blip from paging.
DEFAULT_FAST_WINDOW_S = 300.0
DEFAULT_SLOW_WINDOW_S = 3600.0
#: Burn-rate alert thresholds (Google SRE workbook's 5m/1h page pair).
DEFAULT_FAST_BURN = 14.4
DEFAULT_SLOW_BURN = 6.0
#: Events a window must hold before its burn rate counts: one slow
#: request after an idle stretch is 100% of an empty window, and that
#: must not page anyone.
DEFAULT_MIN_WINDOW_EVENTS = 10


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over an endpoint's request stream.

    ``latency_threshold_ms`` of ``None`` makes this an availability
    objective (bad = HTTP 5xx); a number makes it a latency objective
    (bad = 5xx *or* slower than the threshold).  ``endpoint`` is an
    exact path, or ``"*"`` to cover every endpoint.
    """

    name: str
    endpoint: str
    target: float
    latency_threshold_ms: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.target <= 1.0:
            raise ValueError(
                f"SLO target must be in (0, 1], got {self.target}"
            )

    @property
    def budget(self) -> float:
        """The allowed bad-event fraction, ``1 - target``."""
        return 1.0 - self.target

    def matches(self, endpoint: str) -> bool:
        return self.endpoint == "*" or self.endpoint == endpoint

    def is_bad(self, latency_s: float, error: bool) -> bool:
        if error:
            return True
        if self.latency_threshold_ms is None:
            return False
        return latency_s * 1e3 > self.latency_threshold_ms

    def payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "endpoint": self.endpoint,
            "target": self.target,
            "latency_threshold_ms": self.latency_threshold_ms,
        }


#: The serving layer's out-of-the-box objectives: availability across
#: the board plus a latency ceiling per model endpoint (the sweep and
#: optimize endpoints evaluate whole grids, so they get more headroom).
DEFAULT_OBJECTIVES: Tuple[SLObjective, ...] = (
    SLObjective(name="availability", endpoint="*", target=0.999),
    SLObjective(
        name="speedup-latency", endpoint="/v1/speedup",
        target=0.99, latency_threshold_ms=250.0,
    ),
    SLObjective(
        name="sweep-latency", endpoint="/v1/sweep",
        target=0.99, latency_threshold_ms=500.0,
    ),
    SLObjective(
        name="optimize-latency", endpoint="/v1/optimize",
        target=0.99, latency_threshold_ms=500.0,
    ),
)


class _ObjectiveState:
    """Mutable accounting for one objective (guarded by the tracker).

    Memory grows with time, not traffic: besides the lifetime
    ``good_total``/``bad_total``, each window keeps one *mark* per
    second that saw traffic -- ``(second, good_total, bad_total)`` as
    they stood before that second's first event.  A window's counts
    are the lifetime counts minus its oldest mark, and a mark leaves
    the window once its second is older than ``now - width``, so an
    event at ``t`` counts while ``floor(t) >= ceil(now - width)``:
    window edges are exact to the second.
    """

    __slots__ = ("fast_marks", "slow_marks", "good_total", "bad_total",
                 "alerting")

    def __init__(self):
        self.fast_marks: Deque[Tuple[int, int, int]] = deque()
        self.slow_marks: Deque[Tuple[int, int, int]] = deque()
        self.good_total = 0
        self.bad_total = 0
        self.alerting = False


class SLOTracker:
    """Tracks every objective's burn rate, budget, and status.

    Thread-safe; the serving layer records from the event loop while
    scrapes read from transport tasks.  ``clock`` defaults to
    ``time.monotonic`` and is injectable so tests can march time
    across window boundaries deterministically.
    """

    def __init__(
        self,
        objectives: Optional[Tuple[SLObjective, ...]] = None,
        registry: Optional[MetricsRegistry] = None,
        fast_window_s: float = DEFAULT_FAST_WINDOW_S,
        slow_window_s: float = DEFAULT_SLOW_WINDOW_S,
        fast_burn_threshold: float = DEFAULT_FAST_BURN,
        slow_burn_threshold: float = DEFAULT_SLOW_BURN,
        min_window_events: int = DEFAULT_MIN_WINDOW_EVENTS,
        clock: Callable[[], float] = time.monotonic,
    ):
        if fast_window_s <= 0 or slow_window_s < fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s"
            )
        self.objectives = tuple(
            objectives if objectives is not None else DEFAULT_OBJECTIVES
        )
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.fast_window_s = fast_window_s
        self.slow_window_s = slow_window_s
        self.fast_burn_threshold = fast_burn_threshold
        self.slow_burn_threshold = slow_burn_threshold
        self.min_window_events = max(1, min_window_events)
        self._clock = clock
        self._lock = threading.Lock()
        self._states: Dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState() for o in self.objectives
        }
        self._alert_hooks: List[Callable[[Dict[str, Any]], None]] = []
        registry = registry if registry is not None else get_registry()
        self._events = registry.counter(
            "repro_slo_events_total",
            "SLO events by objective and result (good/bad)",
        )
        self._budget_gauge = registry.gauge(
            "repro_slo_error_budget_remaining",
            "Fraction of the error budget left (lifetime), per objective",
        )
        self._burn_gauge = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective and window (fast/slow)",
        )
        self._status_gauge = registry.gauge(
            "repro_slo_status",
            "Objective status: 0 ok, 1 burning, 2 exhausted",
        )
        self.refresh_gauges()

    # -- hooks -------------------------------------------------------------

    def add_alert_hook(
        self, hook: Callable[[Dict[str, Any]], None]
    ) -> None:
        """Register a callable fired once per burn episode."""
        self._alert_hooks.append(hook)

    # -- recording ---------------------------------------------------------

    def record(
        self,
        endpoint: str,
        latency_s: float,
        error: bool,
        now: Optional[float] = None,
    ) -> None:
        """Account one finished request against every matching objective.

        ``now`` lets a deferred caller (the serving layer's fast-path
        accounting queue) stamp the event with its *capture* time
        rather than the drain time, so burn windows see the traffic
        where it actually happened.  Timestamps must be non-decreasing
        across calls, which both ``time.monotonic`` capture points and
        in-order drains guarantee.
        """
        now = self._clock() if now is None else now
        second = math.floor(now)
        fired: List[Dict[str, Any]] = []
        with self._lock:
            for objective in self.objectives:
                if not objective.matches(endpoint):
                    continue
                state = self._states[objective.name]
                marks = state.slow_marks
                if not marks or marks[-1][0] < second:
                    # This second's first event: both windows mark it.
                    mark = (second, state.good_total, state.bad_total)
                    marks.append(mark)
                    state.fast_marks.append(mark)
                bad = objective.is_bad(latency_s, error)
                if bad:
                    state.bad_total += 1
                else:
                    state.good_total += 1
                self._prune(state, now)
                self._events.inc(
                    slo=objective.name, result="bad" if bad else "good"
                )
                alert = self._update_locked(objective, state, now)
                if alert is not None:
                    fired.append(alert)
        for alert in fired:
            self._emit_alert(alert)

    def _prune(self, state: _ObjectiveState, now: float) -> None:
        for marks, width in (
            (state.fast_marks, self.fast_window_s),
            (state.slow_marks, self.slow_window_s),
        ):
            while marks and marks[0][0] < now - width:
                marks.popleft()

    # -- math --------------------------------------------------------------

    def _window_burn(
        self, state: _ObjectiveState, objective: SLObjective,
        fast: bool,
    ) -> float:
        """Bad fraction over the window divided by the error budget.

        The window holds every event since its oldest mark (the
        caller prunes to ``now`` first).  An empty window (no traffic)
        burns nothing, and a window holding fewer than
        ``min_window_events`` is treated the same way -- too little
        evidence to page on.  A zero budget (target 1.0) burns
        infinitely on any bad event -- there is no allowance to spend
        -- and nothing otherwise.
        """
        marks = state.fast_marks if fast else state.slow_marks
        if not marks:
            return 0.0
        _, good, bad = marks[0]
        bad = state.bad_total - bad
        total = state.good_total - good + bad
        if total < self.min_window_events or bad == 0:
            return 0.0
        fraction = bad / total
        if objective.budget <= 0.0:
            return float("inf")
        return fraction / objective.budget

    def _budget_remaining(
        self, state: _ObjectiveState, objective: SLObjective
    ) -> float:
        """Lifetime budget left, clamped to [0, 1]; 1.0 at zero traffic."""
        total = state.good_total + state.bad_total
        if total == 0:
            return 1.0
        allowed = objective.budget * total
        if allowed <= 0.0:
            return 0.0 if state.bad_total else 1.0
        return max(0.0, 1.0 - state.bad_total / allowed)

    def _status_locked(
        self, objective: SLObjective, state: _ObjectiveState, now: float
    ) -> Tuple[str, float, float, float]:
        fast = self._window_burn(state, objective, fast=True)
        slow = self._window_burn(state, objective, fast=False)
        remaining = self._budget_remaining(state, objective)
        if remaining <= 0.0:
            status = STATUS_EXHAUSTED
        elif (
            fast >= self.fast_burn_threshold
            and slow >= self.slow_burn_threshold
        ):
            status = STATUS_BURNING
        else:
            status = STATUS_OK
        return status, fast, slow, remaining

    # -- status + alerting -------------------------------------------------

    def _update_locked(
        self, objective: SLObjective, state: _ObjectiveState, now: float
    ) -> Optional[Dict[str, Any]]:
        """Detect status edges; return an alert payload on ok->hot.

        Gauges are *not* refreshed here: every export path
        (:meth:`refresh_gauges` before a Prometheus render,
        :meth:`snapshot` for the JSON forms) recomputes them from the
        window marks, so per-record gauge writes would only buy
        staleness-freedom nobody reads -- and they dominated the cost
        of this hot-path method.
        """
        status, fast, slow, remaining = self._status_locked(
            objective, state, now
        )
        if status == STATUS_OK:
            state.alerting = False
            return None
        if state.alerting:
            return None  # already inside this burn episode
        state.alerting = True
        return {
            "slo": objective.name,
            "endpoint": objective.endpoint,
            "status": status,
            "burn_rate_fast": fast,
            "burn_rate_slow": slow,
            "error_budget_remaining": remaining,
        }

    def _set_gauges(
        self, name: str, status: str, fast: float, slow: float,
        remaining: float,
    ) -> None:
        self._budget_gauge.set(remaining, slo=name)
        self._burn_gauge.set(fast, slo=name, window="fast")
        self._burn_gauge.set(slow, slo=name, window="slow")
        self._status_gauge.set(float(_STATUS_RANK[status]), slo=name)

    def _emit_alert(self, alert: Dict[str, Any]) -> None:
        log_event(_log, "slo.alert", level=logging.WARNING, **alert)
        span = get_tracer().span("slo.alert", attributes=dict(alert))
        span.finish("error")
        for hook in list(self._alert_hooks):
            try:
                hook(dict(alert))
            except Exception:  # pragma: no cover - hooks must not kill us
                log_event(
                    _log, "slo.alert_hook_failed", level=logging.ERROR,
                    slo=alert.get("slo"),
                )

    # -- queries -----------------------------------------------------------

    def status(self, name: str) -> str:
        """One objective's current status."""
        objective = self._objective(name)
        now = self._clock()
        with self._lock:
            state = self._states[name]
            self._prune(state, now)
            return self._status_locked(objective, state, now)[0]

    def overall_status(self) -> str:
        """The worst status across every objective."""
        worst = STATUS_OK
        for objective in self.objectives:
            status = self.status(objective.name)
            if _STATUS_RANK[status] > _STATUS_RANK[worst]:
                worst = status
        return worst

    def burn_rates(self, name: str) -> Dict[str, float]:
        objective = self._objective(name)
        now = self._clock()
        with self._lock:
            state = self._states[name]
            self._prune(state, now)
            return {
                "fast": self._window_burn(state, objective, fast=True),
                "slow": self._window_burn(state, objective, fast=False),
            }

    def error_budget_remaining(self, name: str) -> float:
        objective = self._objective(name)
        with self._lock:
            return self._budget_remaining(self._states[name], objective)

    def refresh_gauges(self) -> None:
        """Recompute every gauge (called before each metrics render,
        so windows that drained between requests read correctly)."""
        now = self._clock()
        with self._lock:
            for objective in self.objectives:
                state = self._states[objective.name]
                self._prune(state, now)
                status, fast, slow, remaining = self._status_locked(
                    objective, state, now
                )
                self._set_gauges(
                    objective.name, status, fast, slow, remaining
                )

    def snapshot(self) -> Dict[str, Any]:
        """The JSON form behind ``GET /v1/slo`` and the ``slo``
        section of ``GET /metrics``."""
        now = self._clock()
        objectives = []
        worst = STATUS_OK
        with self._lock:
            for objective in self.objectives:
                state = self._states[objective.name]
                self._prune(state, now)
                status, fast, slow, remaining = self._status_locked(
                    objective, state, now
                )
                self._set_gauges(
                    objective.name, status, fast, slow, remaining
                )
                if _STATUS_RANK[status] > _STATUS_RANK[worst]:
                    worst = status
                objectives.append(
                    {
                        **objective.payload(),
                        "status": status,
                        "burn_rate_fast": fast,
                        "burn_rate_slow": slow,
                        "error_budget_remaining": remaining,
                        "events_good": state.good_total,
                        "events_bad": state.bad_total,
                    }
                )
        return {
            "status": worst,
            "objectives": objectives,
            "windows": {
                "fast_s": self.fast_window_s,
                "slow_s": self.slow_window_s,
            },
            "burn_thresholds": {
                "fast": self.fast_burn_threshold,
                "slow": self.slow_burn_threshold,
            },
        }

    def _objective(self, name: str) -> SLObjective:
        for objective in self.objectives:
            if objective.name == name:
                return objective
        raise KeyError(f"no SLO objective named {name!r}")


#: Lazily built process-wide tracker (``repro-hetsim metrics-dump``
#: renders its families without a server; the serving layer builds a
#: per-instance tracker against its own registry instead).
_GLOBAL: Optional[SLOTracker] = None
_GLOBAL_LOCK = threading.Lock()


def get_slo_tracker() -> SLOTracker:
    """The process-wide tracker, registered on the global registry."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = SLOTracker(registry=get_registry())
        return _GLOBAL
