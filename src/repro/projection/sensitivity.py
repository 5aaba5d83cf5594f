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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.chip import HeterogeneousChip
from ..core.optimizer import DEFAULT_R_MAX
from ..core.ucore import UCore
from ..devices.bce import BCE, DEFAULT_BCE
from ..errors import ModelError
from ..itrs.scenarios import BASELINE, Scenario
from ..obs.trace import get_tracer
from ..perf.batch import optimize_batch
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
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
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


def _perturbed_design(
    design: DesignSpec, rng: np.random.Generator, config: SensitivityConfig
) -> DesignSpec:
    """Clone a design with log-normally perturbed U-core parameters."""
    chip = design.chip
    if not isinstance(chip, HeterogeneousChip):
        return design
    ucore = chip.ucore
    perturbed = UCore(
        name=ucore.name,
        mu=ucore.mu * float(rng.lognormal(0.0, config.mu_sigma)),
        phi=ucore.phi * float(rng.lognormal(0.0, config.phi_sigma)),
        kind=ucore.kind,
        workload=ucore.workload,
    )
    return DesignSpec(
        index=design.index,
        label=design.label,
        chip=HeterogeneousChip(perturbed),
        bandwidth_exempt=design.bandwidth_exempt,
    )


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

    Every trial draws fresh multipliers for each U-core's (mu, phi) and
    for the node's bandwidth and power budgets, re-optimises every
    design, and tallies the winner.  The whole run is one
    ``projection.sensitivity`` span, with the trial and grid-kernel
    call counts as attributes.
    """
    if workload == "fft" and fft_size is None:
        fft_size = 1024
    if designs is None:
        designs = standard_designs(workload, fft_size, bce)
    node = scenario.roadmap.node(node_nm)
    rng = np.random.default_rng(config.seed)
    summary = SensitivitySummary(
        workload=workload, f=f, node_nm=node_nm, trials=config.trials
    )
    for design in designs:
        summary.speedups[design.short_label] = []

    # One cached derivation per design; trials only rescale it.
    base_budgets = {
        design.short_label: node_budget(
            node, workload, fft_size, scenario, bce,
            design.bandwidth_exempt,
        )
        for design in designs
    }

    with get_tracer().span(
        "projection.sensitivity",
        attributes={
            "workload": workload,
            "f": f,
            "node_nm": node_nm,
            "trials": config.trials,
            "kernel_calls": config.trials * len(designs),
        },
    ):
        for _ in range(config.trials):
            bw_mult = float(rng.lognormal(0.0, config.bandwidth_sigma))
            power_mult = float(rng.lognormal(0.0, config.power_sigma))
            best_label, best_speed = None, -math.inf
            for design in designs:
                trial_design = _perturbed_design(design, rng, config)
                budget = base_budgets[design.short_label].scaled(
                    power=power_mult, bandwidth=bw_mult
                )
                point = optimize_batch(
                    trial_design.chip, f, [budget], r_max
                )[0]
                if point is None:
                    continue
                summary.speedups[design.short_label].append(point.speedup)
                if point.speedup > best_speed:
                    best_label, best_speed = design.short_label, point.speedup
            if best_label is not None:
                summary.win_counts[best_label] = (
                    summary.win_counts.get(best_label, 0) + 1
                )
    return summary
