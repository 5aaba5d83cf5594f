"""Dominance-pruned Pareto fronts over (speedup, area, power).

The DSE engine scores every configuration on three axes: the model's
*speedup* (maximise) and the *nominal budgets* the configuration pays
for it -- area and power in BCE units (minimise both).  A point is
*dominated* when some other point is at least as good on every axis
and strictly better on one; the front is the set of non-dominated
points.

The front is canonically ordered -- descending speedup, then
ascending area, power and ``config_id`` -- so it is a pure function
of the point *set*: task-evaluation order, worker count, and shard
boundaries cannot change it (the property tests assert exactly this).
Merging per-shard fronts with :func:`merge_fronts` recovers the
global front, because dominance is transitive: a point dominated
within its shard is dominated globally, so pruning it early never
removes a global front member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from .._canonical import flat_asdict
from ..errors import ModelError

__all__ = [
    "DSEPoint",
    "dominates",
    "pareto_front",
    "merge_fronts",
    "front_payload",
    "points_from_payload",
]


@dataclass(frozen=True)
class DSEPoint:
    """One fully evaluated configuration, scored on the three axes.

    ``area`` and ``power`` are the configuration's *nominal* budgets
    (after grid scaling, before any provider transform): they are what
    a designer pays, exact at any evaluation fidelity.  ``speedup``,
    ``r``, ``n`` and ``limiter`` come from the full r-sweep.
    """

    config_id: str
    scenario: str
    provider: str
    chip: str
    workload: str
    f: float
    node: str
    area_scale: float
    power_scale: float
    area: float
    power: float
    speedup: float
    r: float
    n: float
    limiter: str

    def payload(self) -> Dict[str, Any]:
        return flat_asdict(self)


def dominates(a: DSEPoint, b: DSEPoint) -> bool:
    """True when ``a`` dominates ``b`` on (speedup, area, power)."""
    if a.speedup < b.speedup or a.area > b.area or a.power > b.power:
        return False
    return (
        a.speedup > b.speedup or a.area < b.area or a.power < b.power
    )


def _canonical_key(point: DSEPoint):
    return (-point.speedup, point.area, point.power, point.config_id)


def pareto_front(points: Iterable[DSEPoint]) -> List[DSEPoint]:
    """The non-dominated subset, canonically ordered.

    Points are sorted by descending speedup first, so any dominator of
    a candidate precedes it in the scan; checking each candidate only
    against already-kept points therefore suffices (dominance is
    transitive -- if a pruned point dominated the candidate, so does
    whichever kept point pruned it).
    """
    ordered = sorted(points, key=_canonical_key)
    front: List[DSEPoint] = []
    for candidate in ordered:
        if any(dominates(kept, candidate) for kept in front):
            continue
        front.append(candidate)
    return front


def merge_fronts(
    fronts: Iterable[Sequence[DSEPoint]],
) -> List[DSEPoint]:
    """Global front from per-shard fronts (see module docstring)."""
    merged: List[DSEPoint] = []
    for front in fronts:
        merged.extend(front)
    return pareto_front(merged)


def front_payload(points: Sequence[DSEPoint]) -> Dict[str, Any]:
    """JSON-ready front artifact."""
    return {
        "size": len(points),
        "points": [point.payload() for point in points],
    }


def points_from_payload(payload: Any) -> List[DSEPoint]:
    """Rebuild points from a front artifact.

    Accepts a :func:`front_payload` object (``points`` key), a
    campaign task result (``front`` key), or a bare list of point
    objects.
    """
    if isinstance(payload, Mapping):
        entries = payload.get("points", payload.get("front"))
        if entries is None:
            raise ModelError(
                "front payload must carry a 'points' or 'front' list"
            )
    elif isinstance(payload, (list, tuple)):
        entries = payload
    else:
        raise ModelError(
            f"front payload must be an object or list, got "
            f"{type(payload).__name__}"
        )
    points = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ModelError(
                f"front points must be objects, got "
                f"{type(entry).__name__}"
            )
        try:
            points.append(DSEPoint(**dict(entry)))
        except TypeError as exc:
            raise ModelError(f"bad front point: {exc}") from None
    return points
