"""Scaling-projection engine (Section 6).

For each technology node in a scenario's roadmap, the engine converts
the node's physical budgets (mm^2, W, GB/s) into BCE units, runs the
r-sweep optimizer for every design, and records the winning design
point together with its binding constraint -- one
:class:`ProjectionCell` per (design, node), assembled into the series
that Figures 6-9 plot.

Two execution paths produce identical results (the differential tests
assert full ``DesignPoint`` equality):

* ``method="batch"`` (the default): budget derivations are memoized
  (:mod:`repro.perf.cache`) and each design's whole roadmap is
  resolved by one NumPy-vectorized sweep
  (:func:`repro.perf.batch.optimize_batch`).
* ``method="scalar"``: the original reference path -- per-cell budget
  derivation (uncached) and the pure-Python r-sweep.  Benchmarks use
  it as the baseline; keep it when auditing against the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.constraints import Budget, LimitingFactor
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint, optimize
from ..devices.bce import BCE, DEFAULT_BCE
from ..devices.measurements import get_measurement
from ..devices.params import FAST_CORE_DEVICE
from ..errors import InfeasibleDesignError, ModelError
from ..itrs.roadmap import NodeParams
from ..itrs.scenarios import BASELINE, Scenario
from ..obs.trace import get_tracer
from ..perf.batch import optimize_batch
from ..perf.cache import cached
from ..workloads.registry import get_workload
from .designs import DesignSpec, standard_designs

__all__ = [
    "ProjectionCell",
    "ProjectionSeries",
    "ProjectionResult",
    "bandwidth_bce_units",
    "node_budget",
    "project",
    "PAPER_F_VALUES",
]

#: Parallel fractions the paper sweeps in Figures 6, 7 and 9.
PAPER_F_VALUES = (0.5, 0.9, 0.99, 0.999)

#: throughput unit -> operations per second per unit.
_UNIT_OPS = {"GFLOP/s": 1e9, "Mopts/s": 1e6}


@dataclass(frozen=True)
class ProjectionCell:
    """One (design, node) outcome: the best design point, if feasible."""

    node: NodeParams
    point: Optional[DesignPoint]

    @property
    def speedup(self) -> float:
        return self.point.speedup if self.point else float("nan")

    @property
    def limiter(self) -> Optional[LimitingFactor]:
        return self.point.limiter if self.point else None


@dataclass(frozen=True)
class ProjectionSeries:
    """One figure line: a design's trajectory across nodes."""

    design: DesignSpec
    cells: Sequence[ProjectionCell]

    @property
    def label(self) -> str:
        return self.design.label

    def speedups(self) -> List[float]:
        return [cell.speedup for cell in self.cells]

    def limiters(self) -> List[Optional[LimitingFactor]]:
        return [cell.limiter for cell in self.cells]

    def final_speedup(self) -> float:
        """Speedup at the last (smallest) node."""
        return self.cells[-1].speedup


@dataclass(frozen=True)
class ProjectionResult:
    """All series for one (workload, f, scenario) figure panel."""

    workload: str
    fft_size: Optional[int]
    f: float
    scenario: Scenario
    series: Sequence[ProjectionSeries]

    def by_label(self) -> Dict[str, ProjectionSeries]:
        return {s.design.short_label: s for s in self.series}

    def node_labels(self) -> List[str]:
        return [cell.node.label for cell in self.series[0].cells]

    def winner(self) -> ProjectionSeries:
        """The series with the highest final-node speedup."""
        return max(self.series, key=lambda s: s.final_speedup())


@cached(maxsize=512)
def bandwidth_bce_units(
    workload_name: str,
    size: Optional[int],
    bandwidth_gbps: float,
    bce: BCE = DEFAULT_BCE,
) -> float:
    """Convert a GB/s budget into BCE compulsory-bandwidth units.

    Uses the workload's bytes-per-op at the given size and the BCE's
    absolute throughput derived from the fast-core (Core i7)
    measurement, as Section 3.2 prescribes.

    Memoized on all arguments (``bce`` is a frozen dataclass, so a
    recalibrated BCE is a distinct key); ``bandwidth_bce_units.uncached``
    is the raw derivation.
    """
    workload = get_workload(workload_name)
    fast = get_measurement(FAST_CORE_DEVICE, workload_name, size)
    if size is None:
        # MMM/BS intensity is size-independent above the blocking size;
        # evaluate at a representative large size.
        size_for_ai = 2048 if workload_name == "mmm" else 1
    else:
        size_for_ai = size
    try:
        ops_factor = _UNIT_OPS[fast.unit]
    except KeyError:
        raise ModelError(
            f"unknown throughput unit {fast.unit!r} on measurement "
            f"{fast.key()}"
        ) from None
    return bce.bandwidth_budget_bce(
        bandwidth_gbps, workload, size_for_ai, fast, ops_factor
    )


def _node_budget_with(
    bw_units,
    node: NodeParams,
    workload_name: str,
    size: Optional[int],
    scenario: Scenario,
    bce: BCE,
    bandwidth_exempt: bool,
) -> Budget:
    """Shared budget derivation; ``bw_units`` picks cached vs raw."""
    bandwidth = (
        math.inf
        if bandwidth_exempt
        else bw_units(workload_name, size, node.bandwidth_gbps, bce)
    )
    return Budget(
        area=node.max_area_bce,
        power=bce.power_budget_bce(
            node.core_power_budget_w, node.rel_power
        ),
        bandwidth=bandwidth,
        alpha=scenario.alpha,
    )


@cached(maxsize=4096)
def node_budget(
    node: NodeParams,
    workload_name: str,
    size: Optional[int],
    scenario: Scenario = BASELINE,
    bce: BCE = DEFAULT_BCE,
    bandwidth_exempt: bool = False,
) -> Budget:
    """BCE-unit budget for one node, workload, and scenario.

    Memoized on every argument -- ``node``, ``bce`` and the returned
    :class:`Budget` are frozen dataclasses, so any change to the BCE
    calibration, the scenario, or a node parameter produces a fresh
    key (and therefore a fresh derivation, never a stale budget).
    ``node_budget.uncached`` bypasses memoization entirely, including
    the nested bandwidth-unit cache (benchmarks use it to time the
    seed-faithful scalar path).
    """
    return _node_budget_with(
        bandwidth_bce_units, node, workload_name, size, scenario, bce,
        bandwidth_exempt,
    )


def _node_budget_uncached(
    node: NodeParams,
    workload_name: str,
    size: Optional[int],
    scenario: Scenario = BASELINE,
    bce: BCE = DEFAULT_BCE,
    bandwidth_exempt: bool = False,
) -> Budget:
    return _node_budget_with(
        bandwidth_bce_units.uncached, node, workload_name, size, scenario,
        bce, bandwidth_exempt,
    )


node_budget.uncached = _node_budget_uncached


def project(
    workload_name: str,
    f: float,
    scenario: Scenario = BASELINE,
    fft_size: Optional[int] = None,
    designs: Optional[Sequence[DesignSpec]] = None,
    bce: BCE = DEFAULT_BCE,
    r_max: int = DEFAULT_R_MAX,
    method: str = "batch",
) -> ProjectionResult:
    """Project every design across the scenario's nodes (one panel).

    MMM projections fix the compulsory bandwidth at the paper's
    block-128 intensity; FFT projections default to FFT-1024.

    Designs that are infeasible at a node (e.g. under the 10 W
    scenario's serial power bound) produce cells with ``point=None``
    rather than failing the whole projection.

    ``method`` selects the execution path: ``"batch"`` (default)
    memoizes budgets and vectorizes each design's roadmap sweep;
    ``"scalar"`` is the uncached pure-Python reference.  Both return
    identical results.  The whole panel is one ``projection.project``
    span.
    """
    if method not in ("batch", "scalar"):
        raise ModelError(
            f"unknown projection method {method!r}; "
            f"expected 'batch' or 'scalar'"
        )
    if workload_name == "fft" and fft_size is None:
        fft_size = 1024
    if designs is None:
        designs = standard_designs(workload_name, fft_size, bce)
    nodes = scenario.roadmap.nodes
    all_series = []
    with get_tracer().span(
        "projection.project",
        attributes={
            "workload": workload_name,
            "f": f,
            "scenario": scenario.name,
            "method": method,
        },
    ):
        for design in designs:
            if method == "batch":
                budgets = [
                    node_budget(
                        node, workload_name, fft_size, scenario, bce,
                        design.bandwidth_exempt,
                    )
                    for node in nodes
                ]
                points = optimize_batch(design.chip, f, budgets, r_max)
            else:
                points = []
                for node in nodes:
                    budget = node_budget.uncached(
                        node, workload_name, fft_size, scenario, bce,
                        design.bandwidth_exempt,
                    )
                    try:
                        points.append(optimize(design.chip, f, budget, r_max))
                    except InfeasibleDesignError:
                        points.append(None)
            cells = tuple(
                ProjectionCell(node=node, point=point)
                for node, point in zip(nodes, points)
            )
            all_series.append(ProjectionSeries(design=design, cells=cells))
    return ProjectionResult(
        workload=workload_name,
        fft_size=fft_size,
        f=f,
        scenario=scenario,
        series=tuple(all_series),
    )
