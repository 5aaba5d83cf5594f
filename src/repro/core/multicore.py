"""Multi-U-core chips: several substrates sharing one fabric budget.

The paper's heterogeneous chip dedicates all ``n - r`` BCE of fabric
to a *single* U-core type.  Multi-Amdahl-style analyses (Zidenberg,
Keslassy and Weiser) observe that real workloads decompose into
segments, each with its own best substrate -- an FPGA for bit-level
kernels, a GPU for wide SIMD phases, an ASIC block for the hottest
inner loop.  :class:`MultiUCoreChip` models that chip: the parallel
fraction ``f`` splits into weighted :class:`WorkloadSegment` pieces,
each mapped to its own :class:`~repro.core.ucore.UCore`, all competing
for the same ``n - r`` BCE of fabric area.

Fabric allocation is solved in closed form.  Writing ``g_k`` for the
normalised segment weights and ``a_k`` for the fabric share of segment
``k`` (``sum a_k = 1``), the parallel time is

    T_par = sum_k g_k / (mu_k * a_k * (n - r))

which, by Cauchy-Schwarz, is minimised at

    a_k  proportional to  sqrt(g_k / mu_k).

With the optimal split the chip behaves like a single U-core with
*effective* parameters ``phi_eff = sum phi_k a_k`` (power) and
``mu_bw = sum mu_k a_k`` (bandwidth demand), so the Table 1 bounds
keep the familiar ``n <= P/phi + r`` / ``n <= B/mu + r`` shape.  With
one segment the split is ``a = 1`` and every formula reduces exactly
to :class:`~repro.core.chip.HeterogeneousChip` -- the collapse the
DSE test suite asserts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import ModelError
from .amdahl import check_fraction
from .chip import ChipModel
from .constraints import Budget
from .hill_marty import PerfLaw, check_resources
from .power import pollack_perf
from .ucore import UCore

__all__ = ["WorkloadSegment", "MultiUCoreChip", "normal_weight_shares"]


def normal_weight_shares(weights: Sequence[float]) -> bool:
    """Whether positive ``weights`` split cleanly into shares.

    Each share ``w / total`` feeds a square root and a division in the
    fabric split, so the total must be finite and every share a normal
    float (at least ``sys.float_info.min``).
    """
    total = sum(weights)
    return math.isfinite(total) and all(
        w / total >= sys.float_info.min for w in weights
    )


@dataclass(frozen=True)
class WorkloadSegment:
    """One kernel of the parallel fraction, mapped to a substrate.

    Attributes:
        name: kernel label (e.g. ``"fft-butterfly"``).
        weight: share of the parallel *time* this kernel contributes
            (positive; normalised across the chip's segments).
        ucore: the substrate the kernel executes on.
    """

    name: str
    weight: float
    ucore: UCore

    def __post_init__(self) -> None:
        if not (self.weight > 0.0) or not math.isfinite(self.weight):
            raise ModelError(
                f"segment {self.name!r} weight must be positive and "
                f"finite, got {self.weight}"
            )


class MultiUCoreChip(ChipModel):
    """Sequential core + ``n - r`` BCE of fabric shared by substrates.

    The fabric split across segments is the closed-form optimum
    ``a_k ~ sqrt(g_k / mu_k)`` (see module docstring), recomputed once
    at construction -- the chip stays stateless across budgets, nodes
    and parallel fractions like every other :class:`ChipModel`.
    """

    model_id = "multi-ucore"

    def __init__(
        self,
        segments: Sequence[WorkloadSegment],
        perf_seq: PerfLaw = pollack_perf,
    ):
        super().__init__(perf_seq)
        if not segments:
            raise ModelError(
                "multi-ucore chip needs at least one workload segment"
            )
        self.segments: Tuple[WorkloadSegment, ...] = tuple(segments)
        weights = [seg.weight for seg in self.segments]
        if not normal_weight_shares(weights):
            raise ModelError(
                f"segment weights must have a finite total and no share "
                f"of it below {sys.float_info.min!r}, got {weights!r}"
            )
        total = sum(weights)
        self._g = tuple(w / total for w in weights)
        shape = [
            math.sqrt(g / seg.ucore.mu)
            for g, seg in zip(self._g, self.segments)
        ]
        shape_total = sum(shape)
        #: optimal fabric share of each segment (sums to 1).
        self.allocation: Tuple[float, ...] = tuple(
            s / shape_total for s in shape
        )
        self._phi_eff = sum(
            seg.ucore.phi * a
            for seg, a in zip(self.segments, self.allocation)
        )
        self._mu_bw = sum(
            seg.ucore.mu * a
            for seg, a in zip(self.segments, self.allocation)
        )
        # sum_k g_k / (mu_k * a_k): the parallel-time numerator once
        # (n - r) is factored out.
        self._inv_rate = sum(
            g / (seg.ucore.mu * a)
            for g, seg, a in zip(self._g, self.segments, self.allocation)
        )
        # Effective fabric throughput per BCE.  A single segment must
        # collapse to HeterogeneousChip *bit-identically*, so its mu
        # is taken verbatim rather than through the 1/(1/mu) round
        # trip (which can differ in the last ulp).
        if len(self.segments) == 1:
            self._mu_eff = self.segments[0].ucore.mu
        else:
            self._mu_eff = 1.0 / self._inv_rate

    # ---------------------------------------------------------------- name
    @property
    def label(self) -> str:
        return "+".join(seg.ucore.name for seg in self.segments)

    @property
    def phi_eff(self) -> float:
        """Fabric power per BCE under the optimal split."""
        return self._phi_eff

    @property
    def mu_bw(self) -> float:
        """Fabric bandwidth demand per BCE under the optimal split."""
        return self._mu_bw

    # ------------------------------------------------------------- speedup
    def speedup(self, f: float, n: float, r: float) -> float:
        check_fraction(f)
        check_resources(n, r)
        ps = self._perf_seq(r)
        if f == 0.0:
            return ps
        if n <= r:
            raise ModelError(
                f"multi-ucore chip with f={f} > 0 needs fabric area "
                f"(n={n} must exceed r={r})"
            )
        serial_time = (1.0 - f) / ps
        # Same expression shape as speedup_heterogeneous, with the
        # closed-form effective mu: exact collapse for one segment.
        parallel_time = f / (self._mu_eff * (n - r))
        return 1.0 / (serial_time + parallel_time)

    # ------------------------------------------------------- Table 1 bounds
    def bound_power(self, budget: Budget, r: float) -> float:
        # sum_k phi_k * a_k * (n - r) <= P:  n <= P / phi_eff + r
        return budget.power / self._phi_eff + r

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        if math.isinf(budget.bandwidth):
            return math.inf
        # sum_k mu_k * a_k * (n - r) <= B:  n <= B / mu_bw + r
        return budget.bandwidth / self._mu_bw + r

    # ------------------------------------------------------- energy hooks
    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return self._phi_eff * (n - r)

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return self._mu_bw * (n - r)
