"""Sequential-core performance and power laws (Section 3.1).

The paper adopts two empirical laws for the conventional sequential
processor, both expressed relative to a Base Core Equivalent (BCE):

* **Pollack's Law** [12]: sequential performance obtained from
  microarchitecture grows with the square root of the area invested,
  ``perf_seq(r) = sqrt(r)`` where ``r`` is the core's size in BCE units.

* **Power law** [53]: power grows super-linearly with single-thread
  performance, ``power = perf ** alpha`` with ``alpha = 1.75`` estimated
  from Intel microprocessor history (Grochowski et al.).  Combining the
  two, a sequential core of size ``r`` dissipates ``r ** (alpha / 2)``
  BCE units of active power.

Section 6.2 scenario 6 re-runs the projections with ``alpha = 2.25`` to
approximate a less power-efficient sequential design; every function
here therefore takes ``alpha`` as an explicit argument.
"""

from __future__ import annotations

import math

from ..errors import ModelError

__all__ = [
    "DEFAULT_ALPHA",
    "SCENARIO_HIGH_ALPHA",
    "pollack_perf",
    "pollack_area",
    "seq_power",
    "perf_to_power",
    "power_to_perf",
    "max_r_for_serial_power",
    "max_r_for_serial_bandwidth",
]

#: alpha estimated by Grochowski et al. for Intel microprocessors [53].
DEFAULT_ALPHA = 1.75

#: alpha used in Section 6.2, scenario 6 ("increase core sequential power").
SCENARIO_HIGH_ALPHA = 2.25


def _check_r(r: float) -> None:
    if r <= 0:
        raise ModelError(f"core size r must be positive, got {r}")


def _check_alpha(alpha: float) -> None:
    if alpha < 1.0:
        raise ModelError(
            f"alpha must be >= 1 (power grows at least linearly with "
            f"performance), got {alpha}"
        )


def pollack_perf(r: float) -> float:
    """Sequential performance of an ``r``-BCE core: ``sqrt(r)``."""
    _check_r(r)
    return math.sqrt(r)


def pollack_area(perf: float) -> float:
    """Inverse of :func:`pollack_perf`: area needed for a target perf."""
    if perf <= 0:
        raise ModelError(f"performance must be positive, got {perf}")
    return perf * perf


def perf_to_power(perf: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Active power of a core with sequential performance ``perf``."""
    if perf <= 0:
        raise ModelError(f"performance must be positive, got {perf}")
    _check_alpha(alpha)
    return perf**alpha


def power_to_perf(power: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Inverse of :func:`perf_to_power`."""
    if power <= 0:
        raise ModelError(f"power must be positive, got {power}")
    _check_alpha(alpha)
    return power ** (1.0 / alpha)


def seq_power(r: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Active power of an ``r``-BCE sequential core: ``r ** (alpha/2)``.

    Follows from ``power = perf ** alpha`` and ``perf = sqrt(r)``.
    """
    _check_r(r)
    _check_alpha(alpha)
    return r ** (alpha / 2.0)


def max_r_for_serial_power(
    power_budget: float, alpha: float = DEFAULT_ALPHA
) -> float:
    """Largest sequential core satisfying the serial power bound.

    Table 1 (serial power bounds): ``r ** (alpha/2) <= P`` for every chip
    model, hence ``r <= P ** (2/alpha)``.
    """
    if power_budget <= 0:
        raise ModelError(
            f"power budget must be positive, got {power_budget}"
        )
    _check_alpha(alpha)
    try:
        return power_budget ** (2.0 / alpha)
    except OverflowError:  # past the float range: no finite r is cut
        return math.inf


def max_r_for_serial_bandwidth(bandwidth_budget: float) -> float:
    """Largest sequential core satisfying the serial bandwidth bound.

    Table 1 (serial bandwidth bounds): a core of size ``r`` runs at
    ``sqrt(r)`` and, since bandwidth scales linearly with performance,
    consumes ``sqrt(r)`` units of compulsory bandwidth, so
    ``sqrt(r) <= B``, i.e. ``r <= B ** 2``.
    """
    if bandwidth_budget <= 0:
        raise ModelError(
            f"bandwidth budget must be positive, got {bandwidth_budget}"
        )
    try:
        return bandwidth_budget**2
    except OverflowError:  # past the float range: no finite r is cut
        return math.inf
