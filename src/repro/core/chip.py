"""Chip models: symmetric, asymmetric(-offload), dynamic, heterogeneous.

Each :class:`ChipModel` bundles, for one machine organisation:

* the speedup formula (Sections 2.1 and 3.3),
* the Table 1 parallel-phase bounds on ``n`` for a given budget,
* the serial-phase feasibility checks on ``r``,
* the parallel-phase aggregate power and performance (used by the
  energy model of Figure 10).

Everything is expressed in BCE units, and sequential performance
follows a pluggable ``perf_seq`` law (Pollack by default).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import ModelError
from .amdahl import check_fraction
from .constraints import BoundSet, Budget
from .hill_marty import (
    PerfLaw,
    check_resources,
    speedup_asymmetric,
    speedup_asymmetric_offload,
    speedup_dynamic,
    speedup_symmetric,
)
from .power import (
    max_r_for_serial_bandwidth,
    max_r_for_serial_power,
    pollack_perf,
    seq_power,
)
from .ucore import UCore, speedup_heterogeneous

__all__ = [
    "serial_r_ceiling",
    "ChipModel",
    "SymmetricCMP",
    "AsymmetricCMP",
    "AsymmetricOffloadCMP",
    "DynamicCMP",
    "HeterogeneousAssistedChip",
    "HeterogeneousChip",
]


def serial_r_ceiling(
    area: float, power: float, bandwidth: float, alpha: float
) -> float:
    """Largest ``r`` the serial bounds of one budget allow (Table 1).

    ``r^(alpha/2) <= P`` and ``sqrt(r) <= B``, capped by the area (the
    fast core must fit on die).  Plain floats, so the grid kernel
    derives each row's ceiling with the same Python ``**`` as
    :meth:`ChipModel.max_serial_r`.
    """
    r_power = max_r_for_serial_power(power, alpha)
    r_bw = (
        max_r_for_serial_bandwidth(bandwidth)
        if math.isfinite(bandwidth)
        else math.inf
    )
    return min(r_power, r_bw, area)


class ChipModel(ABC):
    """A machine organisation evaluated by the model.

    Subclasses must be stateless apart from configuration (e.g. the
    U-core type), so a single instance can be reused across budgets,
    nodes, and parallel fractions.
    """

    #: short machine-readable identifier, e.g. ``"symmetric"``.
    model_id: str = "abstract"

    def __init__(self, perf_seq: PerfLaw = pollack_perf):
        self._perf_seq = perf_seq

    # ---------------------------------------------------------------- name
    @property
    def label(self) -> str:
        """Human-readable label used in figures (override as needed)."""
        return self.model_id

    def perf_seq(self, r: float) -> float:
        """Sequential performance of the chip's fast core."""
        return self._perf_seq(r)

    # ------------------------------------------------------------- speedup
    @abstractmethod
    def speedup(self, f: float, n: float, r: float) -> float:
        """Speedup over one BCE for parallel fraction ``f``."""

    # ------------------------------------------------------- Table 1 bounds
    @abstractmethod
    def bound_power(self, budget: Budget, r: float) -> float:
        """Max useful ``n`` under the parallel power bound."""

    @abstractmethod
    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        """Max useful ``n`` under the parallel bandwidth bound."""

    def bound_area(self, budget: Budget, r: float) -> float:
        """Max ``n`` under the area budget (same for all models)."""
        return budget.area

    def bounds(self, budget: Budget, r: float) -> BoundSet:
        """All three parallel-phase bounds for this (budget, r)."""
        if r < 1:
            raise ModelError(f"r must be >= 1, got {r}")
        return BoundSet(
            n_area=self.bound_area(budget, r),
            n_power=self.bound_power(budget, r),
            n_bandwidth=self.bound_bandwidth(budget, r),
        )

    # -------------------------------------------------- serial feasibility
    def max_serial_r(self, budget: Budget) -> float:
        """Largest ``r`` satisfying serial power and bandwidth bounds.

        Also capped by the area budget (the fast core must fit on die).
        """
        return serial_r_ceiling(
            budget.area, budget.power, budget.bandwidth, budget.alpha
        )

    def serial_feasible(self, budget: Budget, r: float) -> bool:
        """Whether an ``r``-BCE sequential core fits the serial bounds."""
        return 1 <= r <= self.max_serial_r(budget)

    # ------------------------------------------------------- energy hooks
    def serial_power(self, r: float, alpha: float) -> float:
        """Active power during serial sections (fast core running)."""
        return seq_power(r, alpha)

    @abstractmethod
    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        """Aggregate active power during parallel sections."""

    @abstractmethod
    def parallel_perf(self, n: float, r: float) -> float:
        """Aggregate performance during parallel sections."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label!r}>"


class SymmetricCMP(ChipModel):
    """``n/r`` identical cores of ``r`` BCE each (Figure 1a)."""

    model_id = "symmetric"

    @property
    def label(self) -> str:
        return "SymCMP"

    def speedup(self, f: float, n: float, r: float) -> float:
        return speedup_symmetric(f, n, r, self._perf_seq)

    def bound_power(self, budget: Budget, r: float) -> float:
        # (n/r) cores, each at r^(alpha/2):  n * r^(alpha/2 - 1) <= P
        return budget.power / r ** (budget.alpha / 2.0 - 1.0)

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        # (n/r) cores, each consuming sqrt(r):  n / sqrt(r) <= B
        if math.isinf(budget.bandwidth):
            return math.inf
        return budget.bandwidth * math.sqrt(r)

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return (n / r) * seq_power(r, alpha)

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return (n / r) * self._perf_seq(r)


class _OffloadBounds(ChipModel):
    """Shared Table 1 bounds for machines whose parallel phase runs on
    ``n - r`` plain BCE cores (the fast core powered off)."""

    def bound_power(self, budget: Budget, r: float) -> float:
        # n - r BCE cores at power 1 each: n <= P + r
        return budget.power + r

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        if math.isinf(budget.bandwidth):
            return math.inf
        return budget.bandwidth + r

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return n - r

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return n - r


class AsymmetricOffloadCMP(_OffloadBounds):
    """One fast core + ``n - r`` BCEs; fast core off during parallel.

    This is the paper's CMP comparison point (Section 3.1), labelled
    "AsymCMP" in Figures 6-9.
    """

    model_id = "asymmetric-offload"

    @property
    def label(self) -> str:
        return "AsymCMP"

    def speedup(self, f: float, n: float, r: float) -> float:
        return speedup_asymmetric_offload(f, n, r, self._perf_seq)


class AsymmetricCMP(_OffloadBounds):
    """Classic Hill-Marty asymmetric chip (fast core helps in parallel).

    Provided for completeness; note its parallel *power* exceeds the
    offload variant's because the fast core stays on, so we add the
    fast core's power to the parallel-phase bounds.
    """

    model_id = "asymmetric"

    @property
    def label(self) -> str:
        return "AsymCMP(+serial core on)"

    def speedup(self, f: float, n: float, r: float) -> float:
        return speedup_asymmetric(f, n, r, self._perf_seq)

    def bound_power(self, budget: Budget, r: float) -> float:
        # n - r BCEs plus the fast core at r^(alpha/2).
        return budget.power - seq_power(r, budget.alpha) + r

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        if math.isinf(budget.bandwidth):
            return math.inf
        # BCEs consume n - r; the fast core adds sqrt(r).
        return budget.bandwidth - math.sqrt(r) + r

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return (n - r) + seq_power(r, alpha)

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return (n - r) + self._perf_seq(r)


class DynamicCMP(ChipModel):
    """Hill-Marty dynamic machine (extension; not in the paper's study).

    Serial sections run on a fused core, parallel sections on all
    ``n`` BCEs.  The phases are bounded *independently* (the paper
    notes its model captures the dynamic machine "if the resource in
    question is power or bandwidth"): ``n`` carries the parallel-phase
    bounds, while the fused serial core may be as large as the swept
    ``r`` allows -- so its serial rate is ``perf_seq(max(n, r))``.
    Without the ``max``, a power-limited parallel phase would wrongly
    shrink the serial core below what the serial power bound permits,
    and the "ideal" machine would lose to a buildable asymmetric one.
    """

    model_id = "dynamic"

    @property
    def label(self) -> str:
        return "DynCMP"

    def speedup(self, f: float, n: float, r: float) -> float:
        check_fraction(f)
        if r < 1:
            raise ModelError(f"r must be >= 1, got {r}")
        if n <= 0:
            raise ModelError(f"n must be positive, got {n}")
        # The fused serial core is NOT part of the parallel n: a
        # power-limited parallel phase (n = P) coexists with a larger
        # fused core (r^(alpha/2) <= P allows r > P when alpha < 2).
        serial_rate = self._perf_seq(max(n, r))
        serial_time = (1.0 - f) / serial_rate
        parallel_time = f / n
        return 1.0 / (serial_time + parallel_time)

    def bound_power(self, budget: Budget, r: float) -> float:
        # n BCE cores at power 1 each.
        return budget.power

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        return budget.bandwidth

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        return n

    def parallel_perf(self, n: float, r: float) -> float:
        return n


class HeterogeneousAssistedChip(ChipModel):
    """Heterogeneous chip whose fast core stays on during parallel work.

    The paper assumes "the conventional microprocessor does not
    contribute to speedup during parallel sections"; this variant
    drops that assumption so its cost can be quantified: parallel
    performance gains ``perf_seq(r)`` but parallel power gains
    ``r**(alpha/2)``, tightening the Table 1 power bound.  An ablation
    benchmark compares the two (the answer: with high-mu U-cores the
    assist is negligible and the power it burns is not).
    """

    model_id = "heterogeneous-assisted"

    def __init__(self, ucore: UCore, perf_seq: PerfLaw = pollack_perf):
        super().__init__(perf_seq)
        self.ucore = ucore

    @property
    def label(self) -> str:
        return f"{self.ucore.name}+core"

    def speedup(self, f: float, n: float, r: float) -> float:
        check_fraction(f)
        check_resources(n, r)
        ps = self._perf_seq(r)
        if f == 0.0:
            return ps
        serial_time = (1.0 - f) / ps
        parallel_time = f / (self.ucore.mu * (n - r) + ps)
        return 1.0 / (serial_time + parallel_time)

    def bound_power(self, budget: Budget, r: float) -> float:
        # phi*(n - r) + r^(alpha/2) <= P
        headroom = budget.power - seq_power(r, budget.alpha)
        if headroom <= 0:
            return r  # the fast core alone exhausts the budget
        return headroom / self.ucore.phi + r

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        if math.isinf(budget.bandwidth):
            return math.inf
        headroom = budget.bandwidth - math.sqrt(r)
        if headroom <= 0:
            return r
        return headroom / self.ucore.mu + r

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return self.ucore.phi * (n - r) + seq_power(r, alpha)

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return self.ucore.mu * (n - r) + self._perf_seq(r)


class HeterogeneousChip(ChipModel):
    """Sequential core + ``n - r`` BCE of U-core fabric (Figure 1c)."""

    model_id = "heterogeneous"

    def __init__(self, ucore: UCore, perf_seq: PerfLaw = pollack_perf):
        super().__init__(perf_seq)
        self.ucore = ucore

    @property
    def label(self) -> str:
        return self.ucore.name

    def speedup(self, f: float, n: float, r: float) -> float:
        return speedup_heterogeneous(f, n, r, self.ucore, self._perf_seq)

    def bound_power(self, budget: Budget, r: float) -> float:
        # phi * (n - r) <= P:  n <= P / phi + r
        return budget.power / self.ucore.phi + r

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        if math.isinf(budget.bandwidth):
            return math.inf
        # mu * (n - r) <= B:  n <= B / mu + r
        return budget.bandwidth / self.ucore.mu + r

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        check_resources(n, r)
        return self.ucore.phi * (n - r)

    def parallel_perf(self, n: float, r: float) -> float:
        check_resources(n, r)
        return self.ucore.mu * (n - r)
