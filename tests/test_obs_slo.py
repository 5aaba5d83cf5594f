"""SLO tracking (``repro.obs.slo``): objective semantics, burn-rate
edge cases (empty window, zero traffic, 100% failure), the min-window
evidence guard, budget accounting, and edge-triggered alerting under
an injected clock.
"""

import math
import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    STATUS_BURNING,
    STATUS_EXHAUSTED,
    STATUS_OK,
    SLObjective,
    SLOTracker,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _tracker(objectives=None, **overrides):
    clock = overrides.pop("clock", FakeClock())
    tracker = SLOTracker(
        objectives=objectives,
        registry=MetricsRegistry(),
        clock=clock,
        **overrides,
    )
    return tracker, clock


AVAIL = SLObjective(name="avail", endpoint="*", target=0.9)
LATENCY = SLObjective(
    name="lat", endpoint="/v1/x", target=0.9, latency_threshold_ms=100.0
)
#: Tight enough (budget 0.01) that a fully-bad window burns at 100x,
#: clearing both alert thresholds; LATENCY's 0.1 budget tops out at
#: 10x, under the 14.4 fast threshold by design.
TIGHT = SLObjective(
    name="lat99", endpoint="/v1/x", target=0.99,
    latency_threshold_ms=100.0,
)


class TestSLObjective:
    def test_target_bounds(self):
        with pytest.raises(ValueError):
            SLObjective(name="bad", endpoint="*", target=0.0)
        with pytest.raises(ValueError):
            SLObjective(name="bad", endpoint="*", target=1.5)

    def test_budget(self):
        assert AVAIL.budget == pytest.approx(0.1)

    def test_matching(self):
        assert AVAIL.matches("/anything")
        assert LATENCY.matches("/v1/x")
        assert not LATENCY.matches("/v1/y")

    def test_bad_semantics(self):
        assert AVAIL.is_bad(10.0, error=True)
        assert not AVAIL.is_bad(10.0, error=False)  # availability only
        assert LATENCY.is_bad(0.2, error=False)  # 200 ms > 100 ms
        assert not LATENCY.is_bad(0.05, error=False)

    def test_default_objectives_cover_every_model_endpoint(self):
        endpoints = {o.endpoint for o in DEFAULT_OBJECTIVES}
        assert {"*", "/v1/speedup", "/v1/sweep", "/v1/optimize"} <= endpoints


class TestBurnRateEdges:
    def test_zero_traffic(self):
        tracker, _ = _tracker(objectives=(AVAIL,))
        assert tracker.status("avail") == STATUS_OK
        assert tracker.burn_rates("avail") == {"fast": 0.0, "slow": 0.0}
        assert tracker.error_budget_remaining("avail") == 1.0

    def test_empty_window_after_idle(self):
        tracker, clock = _tracker(objectives=(AVAIL,))
        for _ in range(50):
            tracker.record("/v1/x", 0.01, error=False)
        clock.now = 10_000.0  # both windows drain
        assert tracker.burn_rates("avail") == {"fast": 0.0, "slow": 0.0}
        assert tracker.status("avail") == STATUS_OK

    def test_hundred_percent_failure_exhausts(self):
        tracker, _ = _tracker(objectives=(AVAIL,))
        alerts = []
        tracker.add_alert_hook(alerts.append)
        for _ in range(50):
            tracker.record("/v1/x", 0.01, error=True)
        assert tracker.status("avail") == STATUS_EXHAUSTED
        assert tracker.error_budget_remaining("avail") == 0.0
        # burn = bad_fraction / budget = 1.0 / 0.1
        assert tracker.burn_rates("avail")["fast"] == pytest.approx(10.0)
        assert len(alerts) == 1  # one episode, one page

    def test_zero_budget_objective(self):
        perfect = SLObjective(name="p", endpoint="*", target=1.0)
        tracker, _ = _tracker(objectives=(perfect,), min_window_events=1)
        tracker.record("/v1/x", 0.01, error=False)
        assert tracker.error_budget_remaining("p") == 1.0
        tracker.record("/v1/x", 0.01, error=True)
        assert tracker.burn_rates("p")["fast"] == float("inf")
        assert tracker.status("p") == STATUS_EXHAUSTED

    def test_min_window_guard_single_slow_request(self):
        # One slow request after an idle stretch fills an otherwise
        # empty window; without the evidence floor that is a 100% bad
        # fraction and an instant page.
        tracker, clock = _tracker(objectives=(LATENCY,))
        alerts = []
        tracker.add_alert_hook(alerts.append)
        for _ in range(100):
            tracker.record("/v1/x", 0.01, error=False)
        clock.now = 10_000.0
        tracker.record("/v1/x", 5.0, error=False)
        assert tracker.burn_rates("lat") == {"fast": 0.0, "slow": 0.0}
        assert tracker.status("lat") == STATUS_OK
        assert alerts == []

    def test_burn_rate_math(self):
        tracker, _ = _tracker(objectives=(AVAIL,))
        for i in range(100):
            tracker.record("/v1/x", 0.01, error=(i % 20 == 0))
        # 5/100 bad over a 0.1 budget: burn 0.5 in both windows, and
        # only half the lifetime budget is spent.
        rates = tracker.burn_rates("avail")
        assert rates["fast"] == pytest.approx(0.5)
        assert rates["slow"] == pytest.approx(0.5)
        assert tracker.error_budget_remaining("avail") == pytest.approx(0.5)
        assert tracker.status("avail") == STATUS_OK  # below thresholds

    def test_events_outside_slow_window_are_pruned(self):
        tracker, clock = _tracker(objectives=(AVAIL,))
        for _ in range(30):
            tracker.record("/v1/x", 0.01, error=True)
        clock.now = 3601.0
        tracker.record("/v1/x", 0.01, error=False)
        state = tracker._states["avail"]
        assert [mark[0] for mark in state.slow_marks] == [3601]
        assert _window_counts(state.slow_marks, state) == (1, 0)
        # Lifetime totals survive the prune: the budget is spent.
        assert state.bad_total == 30
        assert tracker.status("avail") == STATUS_EXHAUSTED


def _window_counts(marks, state):
    """``(total, bad)`` inside a window: lifetime minus oldest mark."""
    _, good, bad = marks[0]
    bad = state.bad_total - bad
    return state.good_total - good + bad, bad


def _recount(events, now, width, objective, min_events):
    """Brute-force burn rate: every event with ``floor(t) >=
    ceil(now - width)`` is inside the window."""
    edge = math.ceil(now - width)
    inside = [bad for t, bad in events if math.floor(t) >= edge]
    total, bad = len(inside), sum(inside)
    if total < min_events or bad == 0:
        return 0.0
    return (bad / total) / objective.budget


class TestSecondMarks:
    """Windows counted by the second: the same answers as recounting
    every event, in memory bounded by the window length."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_brute_force_recount(self, seed):
        rng = random.Random(seed)
        fast_s = rng.choice((3.0, 7.5, 12.25))
        slow_s = fast_s * rng.choice((1.0, 2.0, 4.5))
        min_events = rng.choice((1, 3, 10))
        tracker, clock = _tracker(
            objectives=(AVAIL, TIGHT), fast_window_s=fast_s,
            slow_window_s=slow_s, min_window_events=min_events,
        )
        events = {"avail": [], "lat99": []}
        for _ in range(400):
            # Binary-exact steps, so window edges often land on seconds.
            clock.now += rng.choice((0.0, 0.25, 0.5, 1.0, 2.75, 9.0, 30.0))
            if rng.random() < 0.75:
                latency = rng.choice((0.01, 0.5))
                error = rng.random() < 0.2
                tracker.record("/v1/x", latency, error=error)
                events["avail"].append((clock.now, error))
                events["lat99"].append(
                    (clock.now, TIGHT.is_bad(latency, error))
                )
                continue
            for objective in (AVAIL, TIGHT):
                seen = events[objective.name]
                assert tracker.burn_rates(objective.name) == {
                    "fast": _recount(
                        seen, clock.now, fast_s, objective, min_events
                    ),
                    "slow": _recount(
                        seen, clock.now, slow_s, objective, min_events
                    ),
                }
                bad = sum(b for _, b in seen)
                expected = (
                    max(0.0, 1.0 - bad / (objective.budget * len(seen)))
                    if seen else 1.0
                )
                assert tracker.error_budget_remaining(
                    objective.name
                ) == expected

    def test_marks_are_bounded_by_seconds_not_events(self):
        tracker, _ = _tracker(objectives=(AVAIL,))
        for i in range(100_000):  # 100k events over 10 s
            tracker.record("/v1/x", 0.01, error=(i % 100 == 0), now=i * 1e-4)
        state = tracker._states["avail"]
        assert len(state.fast_marks) <= 11
        assert len(state.slow_marks) <= 11
        assert _window_counts(state.fast_marks, state) == (100_000, 1000)
        assert _window_counts(state.slow_marks, state) == (100_000, 1000)


class TestAlerting:
    def _burning_tracker(self):
        """Good traffic ages out of the windows, then sustained slow
        requests burn hot -- burning, not exhausted, because lifetime
        traffic dwarfs the bad run."""
        tracker, clock = _tracker(objectives=(TIGHT,))
        alerts = []
        tracker.add_alert_hook(alerts.append)
        for _ in range(10_000):
            tracker.record("/v1/x", 0.01, error=False)
        clock.now = 3700.0
        for _ in range(50):
            tracker.record("/v1/x", 5.0, error=False)
        return tracker, clock, alerts

    def test_burning_fires_exactly_one_alert(self):
        tracker, _, alerts = self._burning_tracker()
        assert tracker.status("lat99") == STATUS_BURNING
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["slo"] == "lat99"
        assert alert["status"] == STATUS_BURNING
        assert alert["burn_rate_fast"] >= tracker.fast_burn_threshold
        assert alert["burn_rate_slow"] >= tracker.slow_burn_threshold
        assert 0.0 < alert["error_budget_remaining"] < 1.0

    def test_recovery_rearms_the_alert(self):
        tracker, clock, alerts = self._burning_tracker()
        # The burn ages out and healthy traffic returns: ok again.
        clock.now = 3700.0 + 3601.0
        for _ in range(100):
            tracker.record("/v1/x", 0.01, error=False)
        assert tracker.status("lat99") == STATUS_OK
        # A second episode pages again.
        clock.now += 3601.0
        for _ in range(50):
            tracker.record("/v1/x", 5.0, error=False)
        assert tracker.status("lat99") == STATUS_BURNING
        assert len(alerts) == 2

    def test_failing_hook_does_not_break_recording(self):
        tracker, clock = _tracker(objectives=(TIGHT,))
        seen = []

        def bad_hook(alert):
            raise RuntimeError("pager down")

        tracker.add_alert_hook(bad_hook)
        tracker.add_alert_hook(seen.append)
        for _ in range(10_000):
            tracker.record("/v1/x", 0.01, error=False)
        clock.now = 3700.0
        for _ in range(50):
            tracker.record("/v1/x", 5.0, error=False)
        assert len(seen) == 1  # later hooks still ran


class TestSnapshotAndGauges:
    def test_snapshot_shape(self):
        tracker, _ = _tracker(objectives=(AVAIL, LATENCY))
        tracker.record("/v1/x", 0.01, error=False)
        snap = tracker.snapshot()
        assert snap["status"] == STATUS_OK
        assert {o["name"] for o in snap["objectives"]} == {"avail", "lat"}
        for obj in snap["objectives"]:
            for key in (
                "status",
                "burn_rate_fast",
                "burn_rate_slow",
                "error_budget_remaining",
                "events_good",
                "events_bad",
            ):
                assert key in obj
        assert snap["windows"]["fast_s"] == tracker.fast_window_s
        assert snap["burn_thresholds"]["fast"] == 14.4

    def test_worst_objective_wins(self):
        tracker, _ = _tracker(objectives=(AVAIL, LATENCY))
        for _ in range(50):
            tracker.record("/v1/x", 5.0, error=False)  # slow, not errors
        assert tracker.status("avail") == STATUS_OK
        assert tracker.status("lat") == STATUS_EXHAUSTED
        assert tracker.overall_status() == STATUS_EXHAUSTED

    def test_gauges_land_in_registry(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(
            objectives=(AVAIL,), registry=registry, clock=FakeClock()
        )
        tracker.record("/v1/x", 0.01, error=True)
        tracker.refresh_gauges()
        text = registry.render_prometheus()
        for family in (
            "repro_slo_events_total",
            "repro_slo_error_budget_remaining",
            "repro_slo_burn_rate",
            "repro_slo_status",
        ):
            assert family in text

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SLOTracker(
                objectives=(AVAIL, AVAIL), registry=MetricsRegistry()
            )

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            SLOTracker(
                objectives=(AVAIL,),
                registry=MetricsRegistry(),
                fast_window_s=600.0,
                slow_window_s=300.0,
            )

    def test_unknown_objective_query_raises(self):
        tracker, _ = _tracker(objectives=(AVAIL,))
        with pytest.raises(KeyError):
            tracker.status("nope")
