"""Config-space expansion and evaluation for the DSE engine.

A :class:`DSEScenario` expands into a deterministic list of
:class:`DSEConfig` -- the cartesian product of chips, parallel
fractions, roadmap nodes, and area/power budget scales.  Each config
is evaluated by the existing r-sweep optimizer
(:func:`repro.core.optimizer.optimize`), wrapped -- when the
scenario's provider is not the paper baseline -- in a
:class:`_ProviderChip` adapter that substitutes the provider's
sequential law and effective-fabric mapping.  The ``table1`` provider
is detected (`identity = True`) and skips the wrapper entirely, so
its results are bit-identical to :mod:`repro.projection`.

An exhaustive sweep runs under one ``dse.exhaustive`` span (config
and infeasible counts as attributes), and campaign integration lives
in :func:`execute_pareto_task` (sharded exhaustive sweep; its payload
carries the shard's dominance-pruned front).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from ..projection.engine import node_budget
from .dsl import (
    BEST_SUBSTRATE,
    SUBSTRATES,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
)
from .front import DSEPoint, pareto_front
from .providers import DSEProvider, get_provider

__all__ = [
    "DSEConfig",
    "resolve_chip",
    "expand_configs",
    "evaluate_config",
    "exhaustive_sweep",
    "execute_pareto_task",
]


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
    best_name, best_mu = SUBSTRATES[0], -math.inf
    for device in SUBSTRATES:
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


def _default_chip_specs() -> Tuple[ChipSpec, ...]:
    """Scenario with no chips: the paper's five single-U-core designs."""
    return tuple(
        ChipSpec(kind="single", device=device) for device in SUBSTRATES
    )


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


def expand_configs(
    scenario: DSEScenario,
    area_scale_grid: Sequence[float] = (1.0,),
    power_scale_grid: Sequence[float] = (1.0,),
    bce: BCE = DEFAULT_BCE,
) -> List[DSEConfig]:
    """The deterministic config list for one scenario.

    Order: chips (spec order), then ``f_values``, then roadmap nodes,
    then the area grid, then the power grid -- stable across runs, so
    shard assignment (``configs[shard::shards]``) is reproducible.
    """
    provider = get_provider(scenario.provider)
    itrs_scenario = scenario.to_scenario()
    chip_specs = scenario.chips or _default_chip_specs()
    configs: List[DSEConfig] = []
    for chip_idx, chip_spec in enumerate(chip_specs):
        chip, exempt = resolve_chip(
            chip_spec, scenario.workload, scenario.fft_size, bce
        )
        if not provider.identity:
            chip = _ProviderChip(chip, provider)
        label = chip.label
        for f in scenario.f_values:
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
                        configs.append(
                            DSEConfig(
                                config_id=(
                                    f"{label}#{chip_idx}|{node.label}"
                                    f"|f={f!r}|a={sa!r}|p={sp!r}"
                                ),
                                scenario=scenario.name,
                                provider=scenario.provider,
                                chip=chip,
                                chip_label=label,
                                workload=scenario.workload,
                                f=f,
                                node=node.label,
                                area_scale=float(sa),
                                power_scale=float(sp),
                                budget=budget,
                                eval_budget=provider.transform_budget(
                                    budget
                                ),
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
    """Full r-sweep for one config; ``None`` when infeasible."""
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
    """Evaluate every config fully; returns (points, n_infeasible)."""
    points: List[DSEPoint] = []
    infeasible = 0
    with get_tracer().span(
        "dse.exhaustive", attributes={"dse.configs": len(configs)}
    ) as span:
        for config in configs:
            point = evaluate_config(config, r_max=r_max)
            if point is None:
                infeasible += 1
            else:
                points.append(point)
        span.set_attribute("dse.infeasible", infeasible)
    return points, infeasible


def feasible_signature(
    config: DSEConfig, r_max: int = DEFAULT_R_MAX
) -> Optional[Tuple[Tuple[int, float], ...]]:
    """The (r, n_effective) vector that fully determines evaluation.

    Two configs with the same chip, ``f`` and signature produce
    bit-identical r-sweeps (speedup depends only on ``(f, n, r)``),
    which is what lets successive halving share one evaluation across
    a whole equivalence class.  ``None`` marks a config whose serial
    bounds are infeasible outright.
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


def execute_pareto_task(task: Any) -> Dict[str, Any]:
    """Campaign executor for :class:`ParetoFrontTask`.

    Evaluates the task's shard of the config space exhaustively and
    returns the shard's dominance-pruned front (merging shard fronts
    recovers the global front; see :mod:`repro.dse.front`).
    """
    import json as _json

    from dataclasses import asdict

    scenario = DSEScenario.from_payload(
        _json.loads(task.scenario_json)
    )
    configs = expand_configs(
        scenario, task.area_scale_grid, task.power_scale_grid
    )
    shard_configs = configs[task.shard :: task.shards]
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
        "task": asdict(task),
        "scenario": scenario.name,
        "provider": scenario.provider,
        "n_configs": len(configs),
        "n_shard_configs": len(shard_configs),
        "n_evaluated": len(points),
        "n_infeasible": infeasible,
        "front": [point.payload() for point in front],
    }
