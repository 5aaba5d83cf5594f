"""Monte-Carlo sensitivity analysis (Section 6.3, "Model validity").

The paper is explicit that its predictions rest on measured parameters
and ITRS assumptions that "will go askew" to some degree.  This module
quantifies how much that matters: it perturbs the calibrated inputs
(each U-core's mu and phi, the bandwidth and power budgets) by
log-normal multipliers of configurable spread, re-runs the projection,
and reports how often each design wins and how wide each design's
speedup distribution is.

A conclusion that survives a +/-30% parameter fog is a robust one;
the headline claims of the paper do (see the sensitivity benchmark).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.chip import HeterogeneousChip
from ..core.optimizer import DEFAULT_R_MAX
from ..devices.bce import BCE, DEFAULT_BCE
from ..errors import ModelError
from ..itrs.scenarios import BASELINE, Scenario
from ..obs.trace import get_tracer
from ..perf.batch import GridRows, best_speedups
from .designs import DesignSpec, standard_designs
from .engine import node_budget

__all__ = [
    "SensitivityConfig",
    "SensitivitySummary",
    "run_sensitivity",
]


@dataclass(frozen=True)
class SensitivityConfig:
    """What to perturb and by how much.

    Each sigma is the standard deviation of a log-normal multiplier
    (sigma = 0.3 means most draws land within roughly +/-30%).
    """

    mu_sigma: float = 0.3
    phi_sigma: float = 0.3
    bandwidth_sigma: float = 0.2
    power_sigma: float = 0.2
    trials: int = 200
    seed: int = 2010  # the paper's year

    def __post_init__(self) -> None:
        for name in ("mu_sigma", "phi_sigma", "bandwidth_sigma",
                     "power_sigma"):
            value = getattr(self, name)
            # ``nan < 0`` is False: test for what is allowed instead.
            if not (math.isfinite(value) and value >= 0):
                raise ModelError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )
        if self.trials < 1:
            raise ModelError(f"trials must be >= 1, got {self.trials}")


@dataclass
class SensitivitySummary:
    """Per-design outcome distribution across trials."""

    workload: str
    f: float
    node_nm: int
    trials: int
    win_counts: Dict[str, int] = field(default_factory=dict)
    speedups: Dict[str, List[float]] = field(default_factory=dict)

    def win_rate(self, label: str) -> float:
        return self.win_counts.get(label, 0) / self.trials

    def median_speedup(self, label: str) -> float:
        values = self.speedups.get(label)
        if not values:
            return float("nan")
        return float(np.median(values))

    def spread(self, label: str) -> float:
        """Interquartile range / median: relative uncertainty."""
        values = self.speedups.get(label)
        if not values:
            return float("nan")
        q1, q3 = np.percentile(values, [25, 75])
        med = np.median(values)
        return float((q3 - q1) / med) if med else float("nan")

    def most_frequent_winner(self) -> str:
        return max(self.win_counts, key=self.win_counts.get)

    def payload(self) -> Dict[str, object]:
        """JSON-ready summary (NaN becomes ``None``).

        This is the serialization the campaign layer checkpoints into
        its content-addressed store (:mod:`repro.campaign`), so the
        dict must stay canonical-JSON safe: plain types only, no
        non-finite floats, labels in sorted order.
        """

        def finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        labels = sorted(self.speedups)
        return {
            "trials": self.trials,
            "win_counts": {
                label: self.win_counts.get(label, 0) for label in labels
            },
            "win_rates": {
                label: self.win_rate(label) for label in labels
            },
            "median_speedups": {
                label: finite(self.median_speedup(label))
                for label in labels
            },
            "spreads": {
                label: finite(self.spread(label)) for label in labels
            },
            "speedups": {
                label: list(self.speedups[label]) for label in labels
            },
        }


def run_sensitivity(
    workload: str,
    f: float,
    node_nm: int = 11,
    scenario: Scenario = BASELINE,
    fft_size: Optional[int] = None,
    config: SensitivityConfig = SensitivityConfig(),
    designs: Optional[Sequence[DesignSpec]] = None,
    bce: BCE = DEFAULT_BCE,
    r_max: int = DEFAULT_R_MAX,
) -> SensitivitySummary:
    """Monte-Carlo projection at one node under parameter uncertainty.

    Every trial draws fresh multipliers for the node's bandwidth and
    power budgets and for each U-core's (mu, phi), re-optimises every
    design, and tallies the winner.  Each design is one grid-kernel
    call over a trials x r grid
    (:func:`~repro.perf.batch.best_speedups`).  The whole run is one
    ``projection.sensitivity`` span, with the trial and kernel call
    counts as attributes.
    """
    if workload == "fft" and fft_size is None:
        fft_size = 1024
    if designs is None:
        designs = standard_designs(workload, fft_size, bce)
    node = scenario.roadmap.node(node_nm)
    rng = np.random.default_rng(config.seed)
    trials = config.trials
    summary = SensitivitySummary(
        workload=workload, f=f, node_nm=node_nm, trials=trials
    )
    # Every multiplier in one draw, in per-trial order: the trial's
    # bandwidth and power, then (mu, phi) of each U-core design.
    perturbed = [isinstance(d.chip, HeterogeneousChip) for d in designs]
    sigmas = [config.bandwidth_sigma, config.power_sigma] + [
        config.mu_sigma, config.phi_sigma
    ] * sum(perturbed)
    draws = rng.lognormal(0.0, np.tile(sigmas, trials)).reshape(
        trials, len(sigmas)
    )
    best = np.full(trials, -np.inf)
    winner = np.full(trials, -1)

    with get_tracer().span(
        "projection.sensitivity",
        attributes={
            "workload": workload,
            "f": f,
            "node_nm": node_nm,
            "trials": trials,
            "kernel_calls": len(designs),
        },
    ):
        column = 2
        for k, design in enumerate(designs):
            base = node_budget(
                node, workload, fft_size, scenario, bce,
                design.bandwidth_exempt,
            )
            mu = phi = None
            if perturbed[k]:
                ucore = design.chip.ucore
                mu = ucore.mu * draws[:, column]
                phi = ucore.phi * draws[:, column + 1]
                column += 2
            rows = GridRows(
                area=base.area,
                power=base.power * draws[:, 1],
                bandwidth=(
                    base.bandwidth * draws[:, 0]
                    if math.isfinite(base.bandwidth)
                    else base.bandwidth
                ),
                alpha=base.alpha,
                mu=mu,
                phi=phi,
            )
            speed, feasible = best_speedups(design.chip, f, rows, r_max)
            summary.speedups[design.short_label] = speed[feasible].tolist()
            # Strict `>` in design order: the first maximum wins ties,
            # and a NaN never wins.
            better = feasible & (speed > best)
            best = np.where(better, speed, best)
            winner[better] = k
    for k, wins in Counter(winner.tolist()).items():
        if k >= 0:
            label = designs[k].short_label
            summary.win_counts[label] = (
                summary.win_counts.get(label, 0) + wins
            )
    return summary
