"""Convenience constructors for the paper's projection figures.

Each function regenerates the data behind one figure of Section 6 --
the same panels, designs, and parallel fractions.  Rendering to text
lives in :mod:`repro.reporting`.  :data:`CAMPAIGN_FIGURES` indexes the
panels of Figures 6-9 for campaigns
(:func:`repro.campaign.spec.figure_campaign`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..itrs.scenarios import BASELINE, get_scenario
from .energyproj import EnergyResult, project_energy
from .engine import PAPER_F_VALUES, ProjectionResult, project

__all__ = [
    "figure6_fft_projection",
    "figure7_mmm_projection",
    "figure8_bs_projection",
    "figure9_fft_high_bandwidth",
    "figure10_mmm_energy",
    "CAMPAIGN_FIGURES",
    "FIGURE8_F_VALUES",
    "FIGURE10_F_VALUES",
]

#: Figure 8 only shows f = 0.5 and 0.9 panels.
FIGURE8_F_VALUES: Tuple[float, ...] = (0.5, 0.9)

#: Figure 10 shows f = 0.5, 0.9 and 0.99 panels.
FIGURE10_F_VALUES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: figure id -> (workload, scenario, fft_size, f values), Figures 6-9.
CAMPAIGN_FIGURES: Dict[str, Tuple[str, str, Optional[int], Tuple[float, ...]]] = {
    "F6": ("fft", "baseline", 1024, PAPER_F_VALUES),
    "F7": ("mmm", "baseline", None, PAPER_F_VALUES),
    "F8": ("bs", "baseline", None, FIGURE8_F_VALUES),
    "F9": ("fft", "high-bandwidth", 1024, PAPER_F_VALUES),
}


def figure6_fft_projection() -> Dict[float, ProjectionResult]:
    """Figure 6: FFT-1024 under baseline budgets, four f panels."""
    return {
        f: project("fft", f, BASELINE, fft_size=1024)
        for f in PAPER_F_VALUES
    }


def figure7_mmm_projection() -> Dict[float, ProjectionResult]:
    """Figure 7: MMM under baseline budgets, four f panels."""
    return {f: project("mmm", f, BASELINE) for f in PAPER_F_VALUES}


def figure8_bs_projection() -> Dict[float, ProjectionResult]:
    """Figure 8: Black-Scholes under baseline budgets, two f panels."""
    return {f: project("bs", f, BASELINE) for f in FIGURE8_F_VALUES}


def figure9_fft_high_bandwidth() -> Dict[float, ProjectionResult]:
    """Figure 9: FFT-1024 with 1 TB/s starting bandwidth."""
    scenario = get_scenario("high-bandwidth")
    return {
        f: project("fft", f, scenario, fft_size=1024)
        for f in PAPER_F_VALUES
    }


def figure10_mmm_energy() -> Dict[float, EnergyResult]:
    """Figure 10: MMM energy, normalised to BCE energy at 40 nm."""
    return {
        f: project_energy("mmm", f, BASELINE) for f in FIGURE10_F_VALUES
    }
