"""An SLO burn episode, end to end through the serving layer.

The serving layer tracks declarative objectives (availability and
per-endpoint latency) with two-window burn rates and a lifetime error
budget.  This script drives a :class:`repro.service.app.ModelService`
through a full episode without a socket or a wall clock:

1. healthy traffic -- every objective ``ok``, budget untouched;
2. a latency incident -- sustained slow requests push both burn
   windows over their thresholds, the alert hook fires exactly once,
   ``/v1/slo`` flips to ``burning`` while ``/healthz`` keeps
   answering 200 (burning means "stop deploying", not "stop
   routing");
3. recovery -- the incident ages out of the windows, status returns
   to ``ok``, and the spent error budget remains on the books.

The tracker's clock is injectable, so the hour-long slow window is
crossed instantly and deterministically.
"""

import asyncio

from repro.obs.slo import SLObjective, SLOTracker
from repro.service.app import ModelService, ServiceConfig

#: Tight latency objective so the episode is visible at small scale:
#: 99% of /v1/speedup requests under 250 ms (budget: 1% of traffic).
OBJECTIVE = SLObjective(
    name="speedup-latency",
    endpoint="/v1/speedup",
    target=0.99,
    latency_threshold_ms=250.0,
)


class ManualClock:
    """A clock the script advances by hand."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def show(tracker, label):
    snap = tracker.snapshot()
    obj = snap["objectives"][0]
    print(f"{label}:")
    print(
        f"  status={obj['status']:<9} "
        f"burn fast={obj['burn_rate_fast']:7.1f}  "
        f"slow={obj['burn_rate_slow']:7.1f}  "
        f"budget remaining={obj['error_budget_remaining']:6.1%}  "
        f"(good={obj['events_good']}, bad={obj['events_bad']})"
    )


async def main():
    service = ModelService(ServiceConfig())
    clock = ManualClock()
    tracker = SLOTracker(
        objectives=(OBJECTIVE,),
        registry=service.registry,
        clock=clock,
    )
    alerts = []
    tracker.add_alert_hook(
        lambda alert: alerts.append(alert)
        or print(
            f"  >> ALERT fired: {alert['slo']} is {alert['status']} "
            f"(fast burn {alert['burn_rate_fast']:.0f}x)"
        )
    )
    service.slo = tracker

    try:
        print("== phase 1: healthy traffic ==")
        for _ in range(5000):
            tracker.record("/v1/speedup", 0.010, error=False)
            clock.advance(0.1)
        show(tracker, "after 5000 fast requests")

        print()
        print("== phase 2: latency incident ==")
        clock.advance(3600.0)  # the healthy window drains
        for i in range(30):
            tracker.record("/v1/speedup", 1.2, error=False)  # 1200 ms
            clock.advance(1.0)
        show(tracker, "after 30 slow requests")
        print(f"  alert hook invocations: {len(alerts)}")

        status, health, _ = await service.handle_request(
            "GET", "/healthz"
        )
        print(
            f"  /healthz -> {status} status={health['status']!r} "
            f"slo={health['slo']!r}  (readiness contract unchanged)"
        )
        status, slo_payload, _ = await service.handle_request(
            "GET", "/v1/slo"
        )
        print(f"  /v1/slo  -> {status} overall={slo_payload['status']!r}")

        print()
        print("== phase 3: recovery ==")
        clock.advance(3601.0)  # the incident ages out of both windows
        for _ in range(2000):
            tracker.record("/v1/speedup", 0.010, error=False)
            clock.advance(0.1)
        show(tracker, "after the incident ages out")
        print(f"  alert hook invocations: {len(alerts)} (still one episode)")
    finally:
        service.close()

    assert len(alerts) == 1, "expected exactly one alert per episode"
    print()
    print("done: one burn episode, one page, budget accounting intact")


if __name__ == "__main__":
    asyncio.run(main())
