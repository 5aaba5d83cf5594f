"""Config-space expansion and evaluation for the DSE engine.

A :class:`DSEScenario` expands into a deterministic list of
:class:`DSEConfig` -- the cartesian product of chips, parallel
fractions, roadmap nodes, and area/power budget scales; a Pareto
shard expands only its own slice of that list.  When the scenario's
provider is not the paper baseline, each chip is wrapped in a
:class:`_ProviderChip` adapter that substitutes the provider's
sequential law and effective-fabric mapping.  The ``table1`` provider
is detected (`identity = True`) and skips the wrapper entirely, so
its results are bit-identical to :mod:`repro.projection`.

:func:`exhaustive_sweep` evaluates each run of configs that share a
chip and a parallel fraction with one grid-kernel call
(:func:`repro.perf.batch.optimize_batch`) over the run's budgets, for
every chip kind; :func:`evaluate_config`, one scalar r-sweep
(:func:`repro.core.optimizer.optimize`) per config, is the reference
it is tested against.  A sweep runs under one ``dse.exhaustive`` span
(config and infeasible counts as attributes), and campaign
integration lives in :func:`execute_pareto_task` (sharded exhaustive
sweep; its payload carries the shard's dominance-pruned front).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, groupby, islice, product
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from .._canonical import flat_asdict
from ..core.chip import ChipModel, HeterogeneousChip
from ..core.constraints import Budget
from ..core.multicore import MultiUCoreChip, WorkloadSegment
from ..core.optimizer import (
    DEFAULT_R_MAX,
    DesignPoint,
    feasible_r_values,
    optimize,
)
from ..core.ucore import UCore
from ..devices.bce import BCE, DEFAULT_BCE
from ..errors import InfeasibleDesignError, ModelError
from ..obs.metrics import get_registry
from ..obs.stream import emit as emit_event
from ..obs.trace import get_tracer
from ..perf.batch import GridRows, bound_grid, optimize_batch
from ..projection.engine import node_budget
from .dsl import (
    BEST_SUBSTRATE,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    substrates_for,
)
from .front import DSEPoint, pareto_front
from .providers import DSEProvider, get_provider

__all__ = [
    "DSEConfig",
    "resolve_chip",
    "config_count",
    "expand_configs",
    "evaluate_config",
    "exhaustive_sweep",
    "feasible_signature",
    "feasible_signatures",
    "execute_pareto_task",
]

#: A config's ``(r, n_effective)`` pairs over its feasible serial sizes.
Signature = Tuple[Tuple[int, float], ...]


class _ProviderChip(ChipModel):
    """A chip seen through a provider's performance regime.

    Delegates the Table 1 bound structure to the inner chip, but maps
    the built fabric ``m = n - r`` through the provider's
    ``effective_parallel`` before the speedup formula sees it, and
    routes sequential performance through the provider's law.  When
    the provider returns ``m`` unchanged the original ``n`` is passed
    through untouched (``r + (n - r)`` would not be bit-identical in
    floats).
    """

    def __init__(self, inner: ChipModel, provider: DSEProvider):
        super().__init__(provider.perf_seq)
        self.inner = inner
        self.provider = provider
        self.model_id = inner.model_id

    @property
    def label(self) -> str:
        return self.inner.label

    def _effective_n(self, n: float, r: float) -> float:
        m = n - r
        if m <= 0:
            return n
        m_eff = self.provider.effective_parallel(m)
        return n if m_eff == m else r + m_eff

    def speedup(self, f: float, n: float, r: float) -> float:
        return self.inner.speedup(f, self._effective_n(n, r), r)

    def bound_power(self, budget: Budget, r: float) -> float:
        return self.inner.bound_power(budget, r)

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        return self.inner.bound_bandwidth(budget, r)

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        return self.inner.parallel_power(n, r, alpha)

    def parallel_perf(self, n: float, r: float) -> float:
        return self.inner.parallel_perf(self._effective_n(n, r), r)


def _substrate_ucore(
    device: str,
    workload: str,
    fft_size: Optional[int],
    bce: BCE,
) -> UCore:
    from ..devices.params import ucore_for

    return ucore_for(device, workload, fft_size, bce)


def _best_substrate(
    workload: str, fft_size: Optional[int], bce: BCE
) -> str:
    """The highest-``mu`` substrate for a workload (ties: list order)."""
    measured = substrates_for(workload, fft_size)
    best_name, best_mu = measured[0], -math.inf
    for device in measured:
        mu = _substrate_ucore(device, workload, fft_size, bce).mu
        if mu > best_mu:
            best_name, best_mu = device, mu
    return best_name


def resolve_chip(
    spec: ChipSpec,
    workload: str,
    fft_size: Optional[int] = None,
    bce: BCE = DEFAULT_BCE,
) -> Tuple[ChipModel, bool]:
    """Instantiate a chip spec against calibrated U-core parameters.

    Returns ``(chip, bandwidth_exempt)``.  The paper's exemption rule
    carries over: an all-ASIC chip on MMM lifts the bandwidth bound
    (blocking at N >= 2048 gives effectively unbounded arithmetic
    intensity); any non-ASIC substrate on the die keeps it.
    """
    if spec.kind == "single":
        device = str(spec.device)
        ucore = _substrate_ucore(device, workload, fft_size, bce)
        exempt = device == "ASIC" and workload == "mmm"
        return HeterogeneousChip(ucore), exempt
    devices = [
        (
            _best_substrate(workload, fft_size, bce)
            if seg.device == BEST_SUBSTRATE
            else seg.device
        )
        for seg in spec.segments
    ]
    segments = [
        WorkloadSegment(
            name=seg.name,
            weight=seg.weight,
            ucore=_substrate_ucore(device, workload, fft_size, bce),
        )
        for seg, device in zip(spec.segments, devices)
    ]
    exempt = workload == "mmm" and all(d == "ASIC" for d in devices)
    return MultiUCoreChip(segments), exempt


@dataclass(frozen=True, eq=False)
class DSEConfig:
    """One fully resolved point of the exploration space.

    ``budget`` is the nominal (grid-scaled, provider-untransformed)
    budget; ``chip`` is already resolved against calibrated U-core
    parameters and wrapped for the provider when needed.
    """

    config_id: str
    scenario: str
    provider: str
    chip: ChipModel
    chip_label: str
    workload: str
    f: float
    node: str
    area_scale: float
    power_scale: float
    budget: Budget
    eval_budget: Budget  # provider-transformed


def config_count(
    scenario: DSEScenario,
    area_scale_grid: Sequence[float] = (1.0,),
    power_scale_grid: Sequence[float] = (1.0,),
) -> int:
    """``len(expand_configs(scenario, area_scale_grid,
    power_scale_grid))``, counted without expanding."""
    return (
        len(scenario.chip_specs())
        * len(scenario.f_values)
        * len(scenario.to_scenario().roadmap.nodes)
        * len(area_scale_grid)
        * len(power_scale_grid)
    )


def expand_configs(
    scenario: DSEScenario,
    area_scale_grid: Sequence[float] = (1.0,),
    power_scale_grid: Sequence[float] = (1.0,),
    bce: BCE = DEFAULT_BCE,
    shard: int = 0,
    shards: int = 1,
) -> List[DSEConfig]:
    """The deterministic config list for one scenario, or one shard.

    Order: chips (:meth:`~repro.dse.dsl.DSEScenario.chip_specs`), then
    ``f_values``, then roadmap nodes, then the area grid, then the
    power grid -- stable across runs, so shard assignment is
    reproducible.  ``shard``/``shards`` select ``configs[shard::shards]``
    of that list and build only those configs.  Each scaled budget and
    its provider transform is built once per (bandwidth exemption,
    node, area scale, power scale) and shared by every chip and ``f``.
    """
    provider = get_provider(scenario.provider)
    itrs_scenario = scenario.to_scenario()
    # One cell per (node, area scale, power scale) and bandwidth
    # exemption: (node, scales, config-id suffix, budget, eval budget).
    cells: Dict[bool, List[Tuple]] = {}
    chips = []
    for chip_idx, chip_spec in enumerate(scenario.chip_specs()):
        chip, exempt = resolve_chip(
            chip_spec, scenario.workload, scenario.fft_size, bce
        )
        if not provider.identity:
            chip = _ProviderChip(chip, provider)
        if exempt not in cells:
            cells[exempt] = []
            for node in itrs_scenario.roadmap.nodes:
                base = node_budget(
                    node,
                    scenario.workload,
                    scenario.fft_size,
                    itrs_scenario,
                    bce,
                    exempt,
                )
                for sa in area_scale_grid:
                    for sp in power_scale_grid:
                        budget = base.scaled(area=sa, power=sp)
                        cells[exempt].append((
                            node.label, float(sa), float(sp),
                            f"a={sa!r}|p={sp!r}",
                            budget, provider.transform_budget(budget),
                        ))
        label = chip.label
        chips.append(((chip, label, f"{label}#{chip_idx}|"), cells[exempt]))
    f_ids = [(f, f"|f={f!r}|") for f in scenario.f_values]
    space = chain.from_iterable(
        product([head], f_ids, chip_cells) for head, chip_cells in chips
    )
    configs: List[DSEConfig] = []
    for (chip, label, prefix), (f, f_id), cell in islice(
        space, shard, None, shards
    ):
        node, sa, sp, scale_id, budget, eval_budget = cell
        configs.append(
            DSEConfig(
                config_id=prefix + node + f_id + scale_id,
                scenario=scenario.name,
                provider=scenario.provider,
                chip=chip,
                chip_label=label,
                workload=scenario.workload,
                f=f,
                node=node,
                area_scale=sa,
                power_scale=sp,
                budget=budget,
                eval_budget=eval_budget,
            )
        )
    return configs


def _point_from_design(
    config: DSEConfig, design: DesignPoint
) -> DSEPoint:
    return DSEPoint(
        config_id=config.config_id,
        scenario=config.scenario,
        provider=config.provider,
        chip=config.chip_label,
        workload=config.workload,
        f=config.f,
        node=config.node,
        area_scale=config.area_scale,
        power_scale=config.power_scale,
        area=config.budget.area,
        power=config.budget.power,
        speedup=design.speedup,
        r=design.r,
        n=design.n,
        limiter=design.limiter.value,
    )


def _configs_counter():
    """The process-wide evaluation counter (renders in ``/metrics``).

    Lives in the global obs registry so in-process campaign workers
    (the job manager's thread pool) surface their progress through the
    serving layer's merged Prometheus exposition.
    """
    return get_registry().counter(
        "repro_dse_configs_evaluated_total",
        "DSE configurations evaluated by outcome",
    )


def evaluate_config(
    config: DSEConfig,
    r_max: int = DEFAULT_R_MAX,
    r_values: Optional[Sequence[float]] = None,
) -> Optional[DSEPoint]:
    """Full scalar r-sweep for one config; ``None`` when infeasible.

    The reference :func:`exhaustive_sweep` is held to, config by
    config.
    """
    try:
        design = optimize(
            config.chip, config.f, config.eval_budget,
            r_max=r_max, r_values=r_values,
        )
    except InfeasibleDesignError:
        _configs_counter().inc(outcome="infeasible")
        return None
    _configs_counter().inc(outcome="ok")
    return _point_from_design(config, design)


def exhaustive_sweep(
    configs: Sequence[DSEConfig],
    r_max: int = DEFAULT_R_MAX,
) -> Tuple[List[DSEPoint], int]:
    """Evaluate every config fully; returns (points, n_infeasible).

    Each run of consecutive configs sharing ``(chip, f)`` is one
    :func:`~repro.perf.batch.optimize_batch` call over the run's
    provider-transformed budgets.  The points (in config order), the
    infeasible count and any :class:`~repro.errors.ModelError` raised
    are those of :func:`evaluate_config` per config, the scalar
    reference.
    """
    points: List[DSEPoint] = []
    infeasible = 0
    counter = _configs_counter()
    with get_tracer().span(
        "dse.exhaustive", attributes={"dse.configs": len(configs)}
    ) as span:
        for (_, f), run in groupby(
            configs, key=lambda config: (id(config.chip), config.f)
        ):
            block = list(run)
            designs = optimize_batch(
                block[0].chip,
                f,
                [config.eval_budget for config in block],
                r_max=r_max,
            )
            feasible = [
                _point_from_design(config, design)
                for config, design in zip(block, designs)
                if design is not None
            ]
            points.extend(feasible)
            infeasible += len(block) - len(feasible)
            if feasible:
                counter.inc(len(feasible), outcome="ok")
            if len(feasible) < len(block):
                counter.inc(
                    len(block) - len(feasible), outcome="infeasible"
                )
        span.set_attribute("dse.infeasible", infeasible)
    return points, infeasible


def feasible_signature(
    config: DSEConfig, r_max: int = DEFAULT_R_MAX
) -> Optional[Signature]:
    """The (r, n_effective) vector that fully determines evaluation.

    Two configs with the same chip, ``f`` and signature produce
    bit-identical r-sweeps (speedup depends only on ``(f, n, r)``),
    which is what lets successive halving share one evaluation across
    a whole equivalence class.  ``None`` marks a config whose serial
    bounds are infeasible outright.  This is the scalar reference;
    :func:`feasible_signatures` derives the same vectors a block of
    configs at a time.
    """
    try:
        r_values = feasible_r_values(
            config.chip, config.eval_budget, r_max
        )
    except InfeasibleDesignError:
        return None
    return tuple(
        (r, config.chip.bounds(config.eval_budget, r).n_effective)
        for r in r_values
    )


def feasible_signatures(
    configs: Iterable[DSEConfig], r_max: int = DEFAULT_R_MAX
) -> Iterator[Tuple[DSEConfig, Optional[Signature]]]:
    """``(config, feasible_signature(config, r_max))`` for every config,
    in order.

    Each run of consecutive configs sharing a chip is one grid-kernel
    block (:func:`~repro.perf.batch.bound_grid`) over the run's
    distinct budgets: its ``n_effective`` grid over ``r = 1..r_max``,
    sliced to each budget's feasible prefix.  Configs with equal
    budgets (one per ``f``) share one signature, and a caller that
    classifies the stream holds one block at a time, never every
    config's signature at once.
    """
    for _, run in groupby(configs, key=lambda config: id(config.chip)):
        block = list(run)
        rows: Dict[Budget, int] = {}
        for config in block:
            rows.setdefault(config.eval_budget, len(rows))
        n_effective, ceilings = bound_grid(
            block[0].chip, GridRows.from_budgets(list(rows)), r_max
        )
        signatures: List[Optional[Signature]] = []
        for i, ceiling in enumerate(ceilings.tolist()):
            if not ceiling >= 1:  # below 1 or NaN: no serial core fits
                signatures.append(None)
                continue
            feasible = int(min(r_max, ceiling))
            row = n_effective[i, :feasible].tolist()
            signatures.append(tuple(zip(range(1, feasible + 1), row)))
        for config in block:
            yield config, signatures[rows[config.eval_budget]]


def execute_pareto_task(task: Any) -> Dict[str, Any]:
    """Campaign executor for :class:`ParetoFrontTask`.

    Expands and evaluates only the task's shard of the config space
    and returns the shard's dominance-pruned front (merging shard
    fronts recovers the global front; see :mod:`repro.dse.front`).
    """
    scenario = DSEScenario.from_payload(
        json.loads(task.scenario_json)
    )
    shard_configs = expand_configs(
        scenario,
        task.area_scale_grid,
        task.power_scale_grid,
        shard=task.shard,
        shards=task.shards,
    )
    points, infeasible = exhaustive_sweep(
        shard_configs, r_max=task.r_max
    )
    front = pareto_front(points)
    # One front update per evaluated shard on the ambient campaign
    # stream (no-op outside a streamed campaign).
    emit_event(
        "dse.front",
        {
            "mode": "pareto",
            "shard": task.shard,
            "shards": task.shards,
            "front_size": len(front),
            "points": len(points),
        },
    )
    return {
        "kind": "dse-pareto",
        "task": flat_asdict(task),
        "scenario": scenario.name,
        "provider": scenario.provider,
        "n_configs": config_count(
            scenario, task.area_scale_grid, task.power_scale_grid
        ),
        "n_shard_configs": len(shard_configs),
        "n_evaluated": len(points),
        "n_infeasible": infeasible,
        "front": [point.payload() for point in front],
    }
