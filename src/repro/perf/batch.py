"""NumPy-vectorized r-sweep: the batched evaluation engine.

The scalar optimizer (:mod:`repro.core.optimizer`) resolves one
(chip, budget, f) cell at a time, evaluating each candidate ``r`` in a
Python loop.  A figure campaign evaluates thousands of such cells, and
almost all of the work is embarrassingly data-parallel: the Table 1
bounds and the speedup formulas are closed-form arithmetic over
``(budget, r)`` pairs.  This module evaluates the *whole grid* --
every candidate ``r`` for every budget (typically every node of a
roadmap) -- as float64 array operations in one shot.

Bit-for-bit parity with the scalar reference is a hard requirement
(the differential tests assert full ``DesignPoint`` equality), so the
kernels are written to perform the *same* IEEE-754 double operations
in the *same* order as the scalar formulas:

* additions, subtractions, multiplications, divisions and ``sqrt`` are
  correctly rounded, so the NumPy and scalar results are identical;
* ``r ** exponent`` terms are precomputed with scalar Python ``pow``
  (one call per distinct ``(r, exponent)`` pair) and broadcast,
  eliminating any libm-vs-SIMD discrepancy;
* ``perf_seq(r)`` is evaluated through the chip's own (possibly
  custom) law, once per candidate ``r``, then broadcast.

Models without a registered vector kernel fall back to elementwise
evaluation through ``chip.speedup`` -- slower, but every
:class:`~repro.core.chip.ChipModel` subclass works out of the box.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.amdahl import check_fraction
from ..core.chip import ChipModel
from ..core.constraints import BoundSet, Budget
from ..core.optimizer import (
    DEFAULT_R_MAX,
    DesignPoint,
    feasible_r_values,
)
from ..core.power import pollack_perf

__all__ = [
    "sweep_designs_batch",
    "optimize_batch",
    "optimize_prefix_batch",
]


def _pow_matrix(
    r_vals: Sequence[float],
    alphas: Sequence[float],
    exponent_of,
) -> np.ndarray:
    """``r ** exponent_of(alpha)`` as a (budgets, r) matrix.

    Computed with scalar Python ``pow`` so every entry is bitwise
    identical to the scalar path's ``r ** e``; distinct
    ``(r, exponent)`` pairs are evaluated once.
    """
    cache: Dict[Tuple[float, float], float] = {}
    out = np.empty((len(alphas), len(r_vals)))
    for i, alpha in enumerate(alphas):
        e = exponent_of(alpha)
        for j, r in enumerate(r_vals):
            key = (r, e)
            value = cache.get(key)
            if value is None:
                value = cache[key] = r ** e
            out[i, j] = value
    return out


def _perf_law_matrix(chip: ChipModel, values: np.ndarray) -> np.ndarray:
    """Apply the chip's sequential-performance law elementwise.

    Pollack's law is ``sqrt`` (correctly rounded, so ``np.sqrt`` is
    bitwise identical to ``math.sqrt``); any other law is evaluated
    through the scalar callable.
    """
    if getattr(chip, "_perf_seq", None) is pollack_perf:
        return np.sqrt(values)
    flat = np.array([chip.perf_seq(float(v)) for v in values.ravel()])
    return flat.reshape(values.shape)


def _grid_bounds(
    chip: ChipModel,
    budgets: Sequence[Budget],
    r_vals: Sequence[float],
    r: np.ndarray,
    sqrt_r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table 1 parallel-phase bounds over the (budget, r) grid.

    Returns ``(n_area, n_power, n_bandwidth)``, each of shape
    ``(len(budgets), len(r_vals))``.  Each branch mirrors the exact
    expression (and operation order) of the corresponding
    ``ChipModel.bound_*`` scalar method.
    """
    area = np.array([b.area for b in budgets])[:, None]
    power = np.array([b.power for b in budgets])[:, None]
    bandwidth = np.array([b.bandwidth for b in budgets])[:, None]
    alphas = [b.alpha for b in budgets]
    shape = (len(budgets), len(r_vals))

    n_area = np.broadcast_to(area, shape).copy()
    model = chip.model_id

    if model == "symmetric":
        # n <= P / r^(alpha/2 - 1);  n <= B * sqrt(r)
        pow_term = _pow_matrix(r_vals, alphas, lambda a: a / 2.0 - 1.0)
        n_power = power / pow_term
        n_bandwidth = bandwidth * sqrt_r
    elif model == "asymmetric-offload":
        # n <= P + r;  n <= B + r  (inf + r stays inf)
        n_power = power + r
        n_bandwidth = bandwidth + r
    elif model == "asymmetric":
        # n <= P - r^(alpha/2) + r;  n <= B - sqrt(r) + r
        seqp = _pow_matrix(r_vals, alphas, lambda a: a / 2.0)
        n_power = power - seqp + r
        n_bandwidth = bandwidth - sqrt_r + r
    elif model == "dynamic":
        n_power = np.broadcast_to(power, shape).copy()
        n_bandwidth = np.broadcast_to(bandwidth, shape).copy()
    elif model == "heterogeneous":
        # n <= P / phi + r;  n <= B / mu + r
        n_power = power / chip.ucore.phi + r
        n_bandwidth = bandwidth / chip.ucore.mu + r
    elif model == "heterogeneous-assisted":
        # headroom-gated: the fast core's own draw comes off the top.
        seqp = _pow_matrix(r_vals, alphas, lambda a: a / 2.0)
        p_head = power - seqp
        b_head = bandwidth - sqrt_r
        r_grid = np.broadcast_to(r, shape)
        n_power = np.where(
            p_head <= 0, r_grid, p_head / chip.ucore.phi + r
        )
        n_bandwidth = np.where(
            b_head <= 0, r_grid, b_head / chip.ucore.mu + r
        )
    else:
        # Generic fallback: one scalar bounds() call per grid cell.
        n_power = np.empty(shape)
        n_bandwidth = np.empty(shape)
        for i, budget in enumerate(budgets):
            for j, rv in enumerate(r_vals):
                n_power[i, j] = chip.bound_power(budget, rv)
                n_bandwidth[i, j] = chip.bound_bandwidth(budget, rv)
        for i, budget in enumerate(budgets):
            for j, rv in enumerate(r_vals):
                n_area[i, j] = chip.bound_area(budget, rv)
    return n_area, n_power, n_bandwidth


def _grid_speedup(
    chip: ChipModel,
    f: float,
    n: np.ndarray,
    r: np.ndarray,
    ps: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Speedup over the grid, mirroring each model's scalar formula.

    Values outside ``mask`` are mathematically meaningless (the scalar
    path never evaluates them); they are computed anyway -- the caller
    holds an ``errstate`` suppressing divide/invalid warnings -- and
    discarded.
    """
    model = chip.model_id
    if model == "symmetric":
        serial = (1.0 - f) / ps
        parallel = f / ((n / r) * ps)
        return 1.0 / (serial + parallel)
    if model == "asymmetric":
        serial = (1.0 - f) / ps
        parallel = f / (ps + (n - r))
        return 1.0 / (serial + parallel)
    if model == "asymmetric-offload":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (n - r)
        return 1.0 / (serial + parallel)
    if model == "dynamic":
        serial_rate = _perf_law_matrix(chip, np.maximum(n, r))
        serial = (1.0 - f) / serial_rate
        parallel = f / n
        return 1.0 / (serial + parallel)
    if model == "heterogeneous":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (chip.ucore.mu * (n - r))
        return 1.0 / (serial + parallel)
    if model == "heterogeneous-assisted":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (chip.ucore.mu * (n - r) + ps)
        return 1.0 / (serial + parallel)
    # Generic fallback: scalar speedup on feasible lanes only (the
    # scalar path never evaluates infeasible ones either).
    out = np.full(n.shape, -np.inf)
    for i, j in zip(*np.nonzero(mask)):
        out[i, j] = chip.speedup(f, float(n[i, j]), float(r[0, j]))
    return out


def _evaluate_grid(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_vals: Sequence[float],
    serial_ok: np.ndarray,
):
    """Bounds, feasibility and speedup over the (budget, r) grid.

    ``serial_ok`` is the per-(budget, r) serial-bound mask the caller
    derived (grid sweeps use ``r <= max_serial_r``; explicit r lists
    replicate ``serial_feasible``).  Returns the bound arrays, the
    effective ``n``, the full feasibility mask, and the speedup.

    The caller must hold ``np.errstate(divide="ignore",
    invalid="ignore")``: infeasible lanes legitimately produce inf/NaN
    intermediates that the mask discards.
    """
    check_fraction(f)
    r = np.array(r_vals, dtype=float)[None, :]
    sqrt_r = np.sqrt(r)
    n_area, n_power, n_bandwidth = _grid_bounds(
        chip, budgets, r_vals, r, sqrt_r
    )
    n = np.minimum(np.minimum(n_area, n_power), n_bandwidth)

    mask = serial_ok.copy()
    if chip.model_id != "dynamic":
        # evaluate_design: `if n < r ... return None`
        mask &= ~(n < r)
    if f > 0.0 and chip.model_id not in ("symmetric", "dynamic"):
        # evaluate_design: offload-style machines need fabric beyond r.
        mask &= ~(n <= r)

    ps = _perf_law_matrix(chip, r[0])
    speedup = _grid_speedup(chip, f, n, r, ps, mask)
    return n_area, n_power, n_bandwidth, n, mask, speedup


def _eval_quiet(chip, f, budgets, r_vals, serial_ok):
    """:func:`_evaluate_grid` under the required errstate guard."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _evaluate_grid(chip, f, budgets, r_vals, serial_ok)


def _make_point(
    chip: ChipModel,
    f: float,
    r_val: float,
    arrays,
    i: int,
    j: int,
) -> DesignPoint:
    """Materialise one grid lane as a scalar-identical DesignPoint."""
    n_area, n_power, n_bandwidth, n, _, speedup = arrays
    bounds = BoundSet(
        n_area=float(n_area[i, j]),
        n_power=float(n_power[i, j]),
        n_bandwidth=float(n_bandwidth[i, j]),
    )
    return DesignPoint(
        label=chip.label,
        model_id=chip.model_id,
        f=f,
        r=r_val,
        n=float(n[i, j]),
        speedup=float(speedup[i, j]),
        limiter=bounds.limiter,
        bounds=bounds,
    )


def sweep_designs_batch(
    chip: ChipModel,
    f: float,
    budget: Budget,
    r_max: int = DEFAULT_R_MAX,
    r_values: Optional[Sequence[float]] = None,
) -> List[DesignPoint]:
    """Vectorized :func:`~repro.core.optimizer.sweep_designs`.

    Returns the same points, in the same (ascending r) order, with
    identical floats -- the Python loop over candidates is replaced by
    one array evaluation.
    """
    if r_values is None:
        candidates: Sequence[float] = feasible_r_values(
            chip, budget, r_max
        )
        if not candidates:
            return []
        serial_ok = np.ones((1, len(candidates)), dtype=bool)
        arrays = _eval_quiet(chip, f, [budget], candidates, serial_ok)
    else:
        candidates = list(r_values)
        if not candidates:
            return []
        ceiling = chip.max_serial_r(budget)
        with np.errstate(divide="ignore", invalid="ignore"):
            r_arr = np.array(candidates, dtype=float)[None, :]
            serial_ok = (r_arr >= 1) & (r_arr <= ceiling)
            arrays = _evaluate_grid(
                chip, f, [budget], candidates, serial_ok
            )
    mask = arrays[4]
    return [
        _make_point(chip, f, candidates[j], arrays, 0, j)
        for j in range(len(candidates))
        if mask[0, j]
    ]


def optimize_batch(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_max: int = DEFAULT_R_MAX,
    r_values: Optional[Sequence[float]] = None,
) -> List[Optional[DesignPoint]]:
    """Vectorized r-sweep over many budgets at once.

    Equivalent to calling :func:`~repro.core.optimizer.optimize` once
    per budget, except the whole (budget, r) grid is evaluated as one
    set of array operations.  Budgets for which the scalar ``optimize``
    would raise :class:`~repro.errors.InfeasibleDesignError` (no
    feasible serial core, or no candidate with usable resources) yield
    ``None`` instead, so one infeasible node does not abort a roadmap.
    """
    budgets = list(budgets)
    if not budgets:
        return []
    with np.errstate(divide="ignore", invalid="ignore"):
        if r_values is None:
            if r_max < 1:
                # Delegate the error to the scalar validator for an
                # identical message.
                feasible_r_values(chip, budgets[0], r_max)
            candidates: Sequence[float] = list(range(1, r_max + 1))
            ceilings = np.array([chip.max_serial_r(b) for b in budgets])
            r_arr = np.array(candidates, dtype=float)[None, :]
            serial_ok = r_arr <= ceilings[:, None]
        else:
            candidates = list(r_values)
            if not candidates:
                return [None] * len(budgets)
            ceilings = np.array([chip.max_serial_r(b) for b in budgets])
            r_arr = np.array(candidates, dtype=float)[None, :]
            serial_ok = (r_arr >= 1) & (r_arr <= ceilings[:, None])
        arrays = _evaluate_grid(chip, f, budgets, candidates, serial_ok)
        mask, speedup = arrays[4], arrays[5]

        score = np.where(mask, speedup, -np.inf)
        best_j = np.argmax(score, axis=1)
    results: List[Optional[DesignPoint]] = []
    for i in range(len(budgets)):
        j = int(best_j[i])
        if not mask[i, j]:
            results.append(None)
            continue
        results.append(_make_point(chip, f, candidates[j], arrays, i, j))
    return results


def optimize_prefix_batch(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_maxes: Sequence[int],
) -> Dict[int, List[Optional[DesignPoint]]]:
    """One grid evaluation answering :func:`optimize_batch` for every
    ``r_max`` in ``r_maxes`` at once.

    The grid columns are r_max-independent: every bound, the
    feasibility mask and the speedup of candidate ``r`` are elementwise
    functions of ``(budget, r)``, and the serial-bound mask is
    ``r <= max_serial_r`` per column.  A smaller ``r_max`` therefore
    only *restricts the argmax to a prefix* of the same columns, so
    ``np.argmax(score[:, :r_max])`` over one evaluation at
    ``max(r_maxes)`` is bit-identical to a fresh
    ``optimize_batch(..., r_max)`` call -- including first-max-wins
    tie-breaking, which prefix slicing preserves.

    Returns ``{r_max: [point-or-None per budget]}``.  The tensor
    materializer uses this to fill a whole ``(node, r_max)`` plane with
    one NumPy pass instead of ``len(r_maxes)`` passes.
    """
    budgets = list(budgets)
    r_maxes = sorted({int(r) for r in r_maxes})
    if not r_maxes:
        return {}
    if not budgets:
        return {r: [] for r in r_maxes}
    if r_maxes[0] < 1:
        # Delegate the error to the scalar validator for an
        # identical message (mirrors optimize_batch).
        feasible_r_values(chip, budgets[0], r_maxes[0])
    candidates: Sequence[float] = list(range(1, r_maxes[-1] + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ceilings = np.array([chip.max_serial_r(b) for b in budgets])
        r_arr = np.array(candidates, dtype=float)[None, :]
        serial_ok = r_arr <= ceilings[:, None]
        arrays = _evaluate_grid(
            chip, f, budgets, candidates, serial_ok
        )
        mask, speedup = arrays[4], arrays[5]
        score = np.where(mask, speedup, -np.inf)
    # Winning lanes repeat across prefixes; materialise each (i, j)
    # cell once and share the frozen DesignPoint.
    memo: Dict[Tuple[int, int], DesignPoint] = {}
    out: Dict[int, List[Optional[DesignPoint]]] = {}
    for r_max in r_maxes:
        best_j = np.argmax(score[:, :r_max], axis=1)
        points: List[Optional[DesignPoint]] = []
        for i in range(len(budgets)):
            j = int(best_j[i])
            if not mask[i, j]:
                points.append(None)
                continue
            point = memo.get((i, j))
            if point is None:
                point = memo[(i, j)] = _make_point(
                    chip, f, candidates[j], arrays, i, j
                )
            points.append(point)
        out[r_max] = points
    return out
