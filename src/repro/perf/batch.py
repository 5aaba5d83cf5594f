"""NumPy-vectorized r-sweep: the batched evaluation engine.

The scalar optimizer (:mod:`repro.core.optimizer`) resolves one
(chip, budget, f) cell at a time, evaluating each candidate ``r`` in a
Python loop.  A figure campaign evaluates thousands of such cells, and
almost all of the work is embarrassingly data-parallel: the Table 1
bounds and the speedup formulas are closed-form arithmetic over
``(row, r)`` pairs.  This module evaluates the *whole grid* -- every
candidate ``r`` for every row -- as float64 array operations in one
shot.

A row is one set of model parameters (:class:`GridRows`): a budget
(area, power, bandwidth, alpha) and, for the U-core models, optionally
its own mu and phi.  The Budget-list adapters (:func:`optimize_batch`,
:func:`optimize_prefix_batch`, :func:`sweep_designs_batch`) make one
row per budget -- typically every node of a roadmap.  Monte-Carlo
sensitivity makes one row per trial (:func:`best_speedups`), and DSE
equivalence classes read the bound grid of a whole block of configs
(:func:`bound_grid`).  :func:`optimize_prefix_batch` answers every
``r_max`` of a budget list at once and returns the winners as channel
arrays (:class:`PrefixOptima`), not :class:`DesignPoint` objects: the
tensor materializer writes those arrays straight to disk.

Bit-for-bit parity with the scalar reference is a hard requirement
(the differential tests assert full ``DesignPoint`` equality), so the
kernels are written to perform the *same* IEEE-754 double operations
in the *same* order as the scalar formulas:

* additions, subtractions, multiplications, divisions and ``sqrt`` are
  correctly rounded, so the NumPy and scalar results are identical;
* ``r ** exponent`` terms and each row's serial ceiling
  (``P ** (2/alpha)``) are computed with scalar Python ``pow`` and
  broadcast, eliminating any libm-vs-SIMD discrepancy;
* ``perf_seq(r)`` is evaluated through the chip's own (possibly
  custom) law, once per candidate ``r``, then broadcast.

Models without a registered vector kernel fall back to elementwise
evaluation through the chip's own scalar methods, one
:class:`~repro.core.constraints.Budget` per row -- slower, but every
:class:`~repro.core.chip.ChipModel` subclass works out of the box.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.amdahl import check_fraction
from ..core.chip import ChipModel, serial_r_ceiling
from ..core.constraints import BoundSet, Budget
from ..core.optimizer import (
    DEFAULT_R_MAX,
    DesignPoint,
    feasible_r_values,
)
from ..core.power import DEFAULT_ALPHA, pollack_perf
from ..errors import ModelError

__all__ = [
    "GridRows",
    "sweep_designs_batch",
    "optimize_batch",
    "optimize_prefix_batch",
    "PrefixOptima",
    "best_speedups",
    "bound_grid",
]

#: Models with a vector branch; any other chip takes the generic
#: fallback through its own scalar methods.
_UCORE_MODELS = ("heterogeneous", "heterogeneous-assisted")
_VECTOR_MODELS = (
    "symmetric", "asymmetric-offload", "asymmetric", "dynamic",
) + _UCORE_MODELS


class GridRows(NamedTuple):
    """The grid's leading axis: one set of model parameters per row.

    ``area``, ``power``, ``bandwidth`` and ``alpha`` hold one budget per
    row; ``mu`` and ``phi``, when given, replace a U-core chip's own
    parameters row by row.  Any field may be a scalar shared by every
    row.  :func:`best_speedups` and :func:`bound_grid` check each row
    the way :class:`~repro.core.constraints.Budget` checks a budget,
    and that mu/phi rows are positive (NaN rejected).
    """

    area: np.ndarray
    power: np.ndarray
    bandwidth: np.ndarray = math.inf
    alpha: np.ndarray = DEFAULT_ALPHA
    mu: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None

    @classmethod
    def from_budgets(cls, budgets: Sequence[Budget]) -> "GridRows":
        """One row per budget."""
        return cls(
            np.array([b.area for b in budgets]),
            np.array([b.power for b in budgets]),
            np.array([b.bandwidth for b in budgets]),
            np.array([b.alpha for b in budgets]),
        )

    def budget(self, i: int) -> Budget:
        """Row ``i`` as a :class:`Budget` (the generic fallback's view)."""
        return Budget(
            area=float(self.area[i]),
            power=float(self.power[i]),
            bandwidth=float(self.bandwidth[i]),
            alpha=float(self.alpha[i]),
        )


def _checked_rows(chip: ChipModel, rows: GridRows) -> GridRows:
    """``rows`` as equal-length float arrays, every row validated.

    A bad budget row is rebuilt as a :class:`Budget`, which raises the
    same :class:`~repro.errors.ModelError` a scalar caller would see.
    mu/phi rows must be positive (NaN included) and need a chip the
    U-core vector branches serve.
    """
    given = {k: v for k, v in rows._asdict().items() if v is not None}
    arrays = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in given.values())
    )
    if arrays[0].ndim != 1:
        raise ModelError("grid rows must be one-dimensional")
    rows = GridRows(**dict(zip(given, arrays)))
    ok = (
        (rows.area > 0) & (rows.power > 0) & (rows.bandwidth > 0)
        & (rows.alpha >= 1)
    )
    if not ok.all():
        rows.budget(int(np.argmin(ok)))  # raises the Budget error
    for name in ("mu", "phi"):
        values = getattr(rows, name)
        if values is None:
            continue
        if _vector_model(chip) not in _UCORE_MODELS:
            raise ModelError(
                f"{name} rows need a U-core chip, got {chip.label}"
            )
        positive = values > 0
        if not positive.all():
            bad = float(values[int(np.argmin(positive))])
            raise ModelError(f"{name} must be positive, got {bad}")
    return rows


def _check_r_max(r_max: int) -> None:
    # Same message as the scalar validator (feasible_r_values).
    if r_max < 1:
        raise ModelError(f"r_max must be >= 1, got {r_max}")


def _vector_model(chip: ChipModel) -> Optional[str]:
    """The vector branch serving ``chip``; None selects the fallback.

    Read from the class: a wrapper that copies an inner chip's
    ``model_id`` onto the instance (the DSE provider adapter, which
    remaps ``n`` and has no ``ucore``) keeps its own bound and speedup
    methods, which only the fallback calls.
    """
    model = type(chip).model_id
    return model if model in _VECTOR_MODELS else None


def _ucore_params(chip: ChipModel, rows: GridRows):
    """``(mu, phi)``: per-row columns where given, else the chip's."""
    mu = chip.ucore.mu if rows.mu is None else rows.mu[:, None]
    phi = chip.ucore.phi if rows.phi is None else rows.phi[:, None]
    return mu, phi


def _serial_ceilings(chip: ChipModel, rows: GridRows) -> np.ndarray:
    """Each row's ``max_serial_r``, one scalar evaluation per row."""
    if type(chip).max_serial_r is ChipModel.max_serial_r:
        return np.array(list(map(
            serial_r_ceiling, rows.area.tolist(), rows.power.tolist(),
            rows.bandwidth.tolist(), rows.alpha.tolist(),
        )))
    # A chip with its own max_serial_r keeps it.
    return np.array(
        [chip.max_serial_r(rows.budget(i)) for i in range(len(rows.area))]
    )


def _pow_matrix(
    r_vals: Sequence[float],
    alphas: np.ndarray,
    exponent_of,
) -> np.ndarray:
    """``r ** exponent_of(alpha)`` as a (rows, r) matrix.

    Computed with scalar Python ``pow`` so every entry is bitwise
    identical to the scalar path's ``r ** e``; each distinct alpha's
    row is evaluated once.
    """
    index: Dict[float, int] = {}
    positions = [index.setdefault(a, len(index)) for a in alphas.tolist()]
    table = np.array(
        [[r ** e for r in r_vals] for e in map(exponent_of, index)]
    ).reshape(len(index), len(r_vals))
    return table[positions]


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
    rows: GridRows,
    r_vals: Sequence[float],
    r: np.ndarray,
    sqrt_r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table 1 parallel-phase bounds over the (row, r) grid.

    Returns ``(n_area, n_power, n_bandwidth)``, each of shape
    ``(rows, len(r_vals))``.  Each branch mirrors the exact
    expression (and operation order) of the corresponding
    ``ChipModel.bound_*`` scalar method.
    """
    area = rows.area[:, None]
    power = rows.power[:, None]
    bandwidth = rows.bandwidth[:, None]
    shape = (len(rows.area), len(r_vals))

    n_area = np.broadcast_to(area, shape).copy()
    model = _vector_model(chip)

    if model == "symmetric":
        # n <= P / r^(alpha/2 - 1);  n <= B * sqrt(r)
        pow_term = _pow_matrix(r_vals, rows.alpha, lambda a: a / 2.0 - 1.0)
        n_power = power / pow_term
        n_bandwidth = bandwidth * sqrt_r
    elif model == "asymmetric-offload":
        # n <= P + r;  n <= B + r  (inf + r stays inf)
        n_power = power + r
        n_bandwidth = bandwidth + r
    elif model == "asymmetric":
        # n <= P - r^(alpha/2) + r;  n <= B - sqrt(r) + r
        seqp = _pow_matrix(r_vals, rows.alpha, lambda a: a / 2.0)
        n_power = power - seqp + r
        n_bandwidth = bandwidth - sqrt_r + r
    elif model == "dynamic":
        n_power = np.broadcast_to(power, shape).copy()
        n_bandwidth = np.broadcast_to(bandwidth, shape).copy()
    elif model == "heterogeneous":
        # n <= P / phi + r;  n <= B / mu + r
        mu, phi = _ucore_params(chip, rows)
        n_power = power / phi + r
        n_bandwidth = bandwidth / mu + r
    elif model == "heterogeneous-assisted":
        # headroom-gated: the fast core's own draw comes off the top.
        mu, phi = _ucore_params(chip, rows)
        seqp = _pow_matrix(r_vals, rows.alpha, lambda a: a / 2.0)
        p_head = power - seqp
        b_head = bandwidth - sqrt_r
        r_grid = np.broadcast_to(r, shape)
        n_power = np.where(p_head <= 0, r_grid, p_head / phi + r)
        n_bandwidth = np.where(b_head <= 0, r_grid, b_head / mu + r)
    else:
        # Generic fallback: one scalar bounds() call per grid cell.
        n_power = np.empty(shape)
        n_bandwidth = np.empty(shape)
        budgets = [rows.budget(i) for i in range(shape[0])]
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
    rows: GridRows,
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
    model = _vector_model(chip)
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
        mu, _ = _ucore_params(chip, rows)
        serial = (1.0 - f) / ps
        parallel = f / (mu * (n - r))
        return 1.0 / (serial + parallel)
    if model == "heterogeneous-assisted":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        mu, _ = _ucore_params(chip, rows)
        serial = (1.0 - f) / ps
        parallel = f / (mu * (n - r) + ps)
        return 1.0 / (serial + parallel)
    # Generic fallback: scalar speedup on feasible lanes only (the
    # scalar path never evaluates infeasible ones either).
    out = np.full(n.shape, -np.inf)
    for i, j in zip(*np.nonzero(mask)):
        out[i, j] = chip.speedup(f, float(n[i, j]), float(r[0, j]))
    return out


def _n_grid(chip: ChipModel, rows: GridRows, r_vals: Sequence[float]):
    """``(r, n_area, n_power, n_bandwidth, n_effective)`` over the grid."""
    r = np.array(r_vals, dtype=float)[None, :]
    n_area, n_power, n_bandwidth = _grid_bounds(
        chip, rows, r_vals, r, np.sqrt(r)
    )
    n = np.minimum(np.minimum(n_area, n_power), n_bandwidth)
    return r, n_area, n_power, n_bandwidth, n


def _evaluate_grid(
    chip: ChipModel,
    f: float,
    rows: GridRows,
    r_vals: Sequence[float],
    ceilings: Optional[np.ndarray] = None,
):
    """Bounds, feasibility and speedup over the (row, r) grid.

    Returns the bound arrays, the effective ``n``, the feasibility
    mask -- ``serial_feasible`` (``1 <= r <= max_serial_r``) and
    ``evaluate_design``'s resource checks -- and the speedup.
    ``ceilings`` passes in each row's serial ceiling when the caller
    already has it.

    The caller must hold ``np.errstate(divide="ignore",
    invalid="ignore")``: infeasible lanes legitimately produce inf/NaN
    intermediates that the mask discards.
    """
    check_fraction(f)
    r, n_area, n_power, n_bandwidth, n = _n_grid(chip, rows, r_vals)
    if ceilings is None:
        ceilings = _serial_ceilings(chip, rows)
    mask = (r >= 1) & (r <= ceilings[:, None])
    if chip.model_id != "dynamic":
        # evaluate_design: `if n < r ... return None`
        mask &= ~(n < r)
    if f > 0.0 and chip.model_id not in ("symmetric", "dynamic"):
        # evaluate_design: offload-style machines need fabric beyond r.
        mask &= ~(n <= r)

    ps = _perf_law_matrix(chip, r[0])
    speedup = _grid_speedup(chip, f, rows, n, r, ps, mask)
    return n_area, n_power, n_bandwidth, n, mask, speedup


def _best_lanes(arrays) -> np.ndarray:
    """Each row's winning column: first maximum over feasible lanes."""
    mask, speedup = arrays[4], arrays[5]
    return np.argmax(np.where(mask, speedup, -np.inf), axis=1)


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
    else:
        candidates = list(r_values)
    if not candidates:
        return []
    with np.errstate(divide="ignore", invalid="ignore"):
        arrays = _evaluate_grid(
            chip, f, GridRows.from_budgets([budget]), candidates
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
    The grid stops at the largest serial ceiling among the budgets, so
    an ``r_max`` past it costs no more than the ceiling itself.
    """
    budgets = list(budgets)
    if not budgets:
        return []
    rows = GridRows.from_budgets(budgets)
    ceilings = None
    if r_values is None:
        _check_r_max(r_max)
        ceilings = _serial_ceilings(chip, rows)
        # A column past every row's ceiling is masked in every row and
        # never wins, so the grid stops at the largest ceiling (fmax
        # skips NaN): the same answers, at a cost bounded by the
        # budgets instead of by the caller's r_max.
        top = float(np.fmax.reduce(ceilings, initial=1.0))
        candidates: Sequence[float] = list(
            range(1, int(min(r_max, top)) + 1)
        )
    else:
        candidates = list(r_values)
        if not candidates:
            return [None] * len(budgets)
    with np.errstate(divide="ignore", invalid="ignore"):
        arrays = _evaluate_grid(chip, f, rows, candidates, ceilings)
        best_j = _best_lanes(arrays)
    mask = arrays[4]
    results: List[Optional[DesignPoint]] = []
    for i in range(len(budgets)):
        j = int(best_j[i])
        if not mask[i, j]:
            results.append(None)
            continue
        results.append(_make_point(chip, f, candidates[j], arrays, i, j))
    return results


class PrefixOptima(NamedTuple):
    """:func:`optimize_prefix_batch`'s answer: one float64 array per
    channel, shaped ``(len(budgets), len(r_maxes))``.

    Cell ``[i, k]`` describes the point ``optimize_batch(chip, f,
    [budgets[i]], r_max=r_maxes[k])`` returns: its speedup, ``r``,
    ``n`` and three bounds, bit for bit, with ``feasible`` 1.0.  Where
    that call returns None, ``feasible`` is 0.0 and every other
    channel is NaN.  The field order is the tensor store's channel
    order.
    """

    speedup: np.ndarray
    r: np.ndarray
    n: np.ndarray
    n_area: np.ndarray
    n_power: np.ndarray
    n_bandwidth: np.ndarray
    feasible: np.ndarray


def _prefix_argmax(score: np.ndarray) -> np.ndarray:
    """``np.argmax(score[:, :m], axis=1)`` for every ``m``, as column
    ``m - 1`` of one array shaped like ``score``.

    A prefix's first maximum moves only at a *record*, a column that
    beats every column before it, so prefix ``m`` is answered by the
    last record at or before column ``m - 1``.  Ties are not records
    (the first maximum wins), and ``np.argmax`` ranks NaN above every
    number: the first NaN is a record and nothing after it is.
    """
    before = np.maximum.accumulate(score, axis=1)[:, :-1]
    record = np.ones(score.shape, dtype=bool)
    record[:, 1:] = ~(score[:, 1:] <= before) & ~np.isnan(before)
    columns = np.arange(score.shape[1])
    return np.maximum.accumulate(np.where(record, columns, 0), axis=1)


def optimize_prefix_batch(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_maxes: Sequence[int],
) -> PrefixOptima:
    """One grid evaluation answering :func:`optimize_batch` for every
    ``r_max`` in ``r_maxes`` at once, as channel arrays.

    The grid columns are r_max-independent: every bound, the
    feasibility mask and the speedup of candidate ``r`` are elementwise
    functions of ``(budget, r)``, and the serial-bound mask is
    ``r <= max_serial_r`` per column.  A smaller ``r_max`` therefore
    only *restricts the argmax to a prefix* of the same columns, so one
    evaluation at ``max(r_maxes)`` and a prefix argmax that picks each
    prefix's first maximum, as ``np.argmax`` does, are bit-identical to
    a fresh ``optimize_batch(..., r_max)`` call per ``r_max``.

    Returns a :class:`PrefixOptima`; column ``k`` answers
    ``r_maxes[k]``.  No :class:`DesignPoint` is built: the tensor
    materializer writes these arrays straight into its channel files.
    """
    budgets = list(budgets)
    r_maxes = [int(r) for r in r_maxes]
    if not budgets or not r_maxes:
        shape = (len(budgets), len(r_maxes))
        return PrefixOptima(*(np.empty(shape) for _ in PrefixOptima._fields))
    _check_r_max(min(r_maxes))
    candidates: Sequence[float] = list(range(1, max(r_maxes) + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        n_area, n_power, n_bandwidth, n, mask, speedup = _evaluate_grid(
            chip, f, GridRows.from_budgets(budgets), candidates
        )
        best = _prefix_argmax(np.where(mask, speedup, -np.inf))
    best = best[:, np.array(r_maxes) - 1]
    lanes = np.arange(len(budgets))[:, None]
    feasible = mask[lanes, best]

    def winners(grid: np.ndarray) -> np.ndarray:
        return np.where(feasible, grid[lanes, best], np.nan)

    return PrefixOptima(
        speedup=winners(speedup),
        r=np.where(feasible, best + 1.0, np.nan),
        n=winners(n),
        n_area=winners(n_area),
        n_power=winners(n_power),
        n_bandwidth=winners(n_bandwidth),
        feasible=feasible.astype(np.float64),
    )


def best_speedups(
    chip: ChipModel,
    f: float,
    rows: GridRows,
    r_max: int = DEFAULT_R_MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's best speedup over ``r = 1..r_max``, and its feasibility.

    Row ``i`` answers ``optimize_batch(chip, f, [budget_i], r_max)``
    with the row's mu/phi standing in for the chip's U-core: the
    speedup is that point's, bit for bit, and ``feasible[i]`` is False
    where it would be None (the speedup there is meaningless).  No
    :class:`DesignPoint` is built, so one call can cover thousands of
    Monte-Carlo rows.
    """
    rows = _checked_rows(chip, rows)
    _check_r_max(r_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        arrays = _evaluate_grid(chip, f, rows, list(range(1, r_max + 1)))
        best_j = _best_lanes(arrays)
    lanes = np.arange(len(best_j))
    return arrays[5][lanes, best_j], arrays[4][lanes, best_j]


def bound_grid(
    chip: ChipModel,
    rows: GridRows,
    r_max: int = DEFAULT_R_MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """``n_effective`` over the (row, r = 1..r_max) grid, and each
    row's serial ceiling (``max_serial_r``).

    Entry ``[i, r - 1]`` equals ``chip.bounds(budget_i, r).n_effective``;
    the feasible serial sizes of row ``i`` are the prefix
    ``r <= ceiling[i]``.
    """
    rows = _checked_rows(chip, rows)
    _check_r_max(r_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = _n_grid(chip, rows, list(range(1, r_max + 1)))[4]
    return n, _serial_ceilings(chip, rows)
