"""Declarative campaign specifications and content-addressed tasks.

A :class:`CampaignSpec` names *what* to compute -- figure panels,
Pareto sweeps, Monte-Carlo sensitivity batches -- without saying how
or where.  :meth:`CampaignSpec.tasks` expands it into a flat,
deterministically ordered tuple of frozen task dataclasses; the
expansion is a (degenerate) DAG: every task is independent, so a
runner may execute them in any order and the report still comes back
in spec order.

Tasks are built exclusively from hashable primitives (strings, ints,
floats, ``None``), which buys three properties at once:

* they pickle cheaply into worker processes,
* they key dictionaries and sets directly, and
* they have a *stable content hash* (:func:`task_hash`) -- the SHA-256
  of their canonical JSON form -- which the
  :class:`~repro.campaign.store.ResultStore` uses as the storage key.

Two tasks that differ in any field hash differently, so a result can
never be served for the wrong inputs; two spellings of the same task
hash identically across processes and Python versions (no dependence
on ``hash()`` randomisation).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from .._canonical import canonical_json, flat_asdict, sha256_text
from ..errors import ModelError
from ..core.optimizer import DEFAULT_R_MAX
from ..itrs.scenarios import scenario_names
from ..projection.paperfigs import CAMPAIGN_FIGURES

__all__ = [
    "FigureTask",
    "figure_campaign",
    "ParetoTask",
    "SensitivityTask",
    "ParetoFrontTask",
    "SuccessiveHalvingTask",
    "CampaignTask",
    "CampaignSpec",
    "task_hash",
    "canonical_json",
    "flat_asdict",
    "sha256_text",
]

#: Workloads the standard design lists cover (mirrors the service).
_VALID_WORKLOADS = ("mmm", "fft", "bs")

#: Upper bound on Monte-Carlo trials accepted from a remote spec, so a
#: single job cannot pin a worker indefinitely.
MAX_SENSITIVITY_TRIALS = 100_000

#: Upper bound on the DSE config space one task may expand, so a
#: single job cannot pin a worker indefinitely.
MAX_DSE_CONFIGS = 200_000

#: The log-normal noise widths of a sensitivity task.
_SIGMAS = ("mu_sigma", "phi_sigma", "bandwidth_sigma", "power_sigma")


@dataclass(frozen=True)
class FigureTask:
    """One projection panel of a paper figure (Figures 6-9)."""

    kind: str = field(default="figure", init=False)
    figure: str = "F6"
    workload: str = "fft"
    f: float = 0.99
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    method: str = "batch"


def figure_campaign(
    figures: Sequence[str] = tuple(CAMPAIGN_FIGURES),
    method: str = "batch",
) -> Tuple[FigureTask, ...]:
    """The panels of ``figures``, in the given order, each in paper
    f order (:data:`~repro.projection.paperfigs.CAMPAIGN_FIGURES`)."""
    tasks = []
    for figure in figures:
        try:
            workload, scenario, fft_size, f_values = CAMPAIGN_FIGURES[figure]
        except KeyError:
            raise ModelError(
                f"unknown campaign figure {figure!r}; "
                f"available: {sorted(CAMPAIGN_FIGURES)}"
            ) from None
        tasks.extend(
            FigureTask(
                figure=figure,
                workload=workload,
                f=f,
                scenario=scenario,
                fft_size=fft_size,
                method=method,
            )
            for f in f_values
        )
    return tuple(tasks)


@dataclass(frozen=True)
class ParetoTask:
    """One speedup/energy frontier sweep at a single node."""

    kind: str = field(default="pareto", init=False)
    workload: str = "mmm"
    f: float = 0.99
    node_nm: int = 22
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    r_max: int = DEFAULT_R_MAX


@dataclass(frozen=True)
class SensitivityTask:
    """One Monte-Carlo winner analysis under parameter noise."""

    kind: str = field(default="sensitivity", init=False)
    workload: str = "mmm"
    f: float = 0.99
    node_nm: int = 11
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    trials: int = 200
    mu_sigma: float = 0.3
    phi_sigma: float = 0.3
    bandwidth_sigma: float = 0.2
    power_sigma: float = 0.2
    seed: int = 2010
    r_max: int = DEFAULT_R_MAX


@dataclass(frozen=True)
class ParetoFrontTask:
    """One shard of an exhaustive DSE sweep with a pruned front.

    The scenario travels as its canonical JSON form
    (:meth:`repro.dse.dsl.DSEScenario.canonical`): a hashable string,
    so the content hash covers the *full* scenario -- any change to a
    chip spec, provider, or override yields a fresh store key.  The
    budget grids scale every node budget of the scenario's roadmap;
    ``shard``/``shards`` split the deterministic config list as
    ``configs[shard::shards]``, and merging the per-shard fronts
    recovers the global front (:func:`repro.dse.front.merge_fronts`).
    """

    kind: str = field(default="dse-pareto", init=False)
    scenario_json: str = ""
    area_scale_grid: Tuple[float, ...] = (1.0,)
    power_scale_grid: Tuple[float, ...] = (1.0,)
    r_max: int = DEFAULT_R_MAX
    shard: int = 0
    shards: int = 1


@dataclass(frozen=True)
class SuccessiveHalvingTask:
    """One successive-halving search over a DSE config space.

    Unsharded by design: pruning compares configs across the whole
    space, which is exactly what makes it cheaper than the exhaustive
    sweep.  ``rungs`` are the low-fidelity r-prefix ceilings evaluated
    before full fidelity (strictly increasing, each <= ``r_max``).
    """

    kind: str = field(default="dse-halving", init=False)
    scenario_json: str = ""
    area_scale_grid: Tuple[float, ...] = (1.0,)
    power_scale_grid: Tuple[float, ...] = (1.0,)
    rungs: Tuple[int, ...] = (2, 4)
    r_max: int = DEFAULT_R_MAX


CampaignTask = Union[
    FigureTask,
    ParetoTask,
    SensitivityTask,
    ParetoFrontTask,
    SuccessiveHalvingTask,
]


def task_hash(task: CampaignTask) -> str:
    """SHA-256 content hash of a task's canonical JSON form."""
    return sha256_text(canonical_json(flat_asdict(task)))


#: What a numeric task field accepts, by its annotation: a spec from a
#: JSON body can hold any value, and the range checks compare numbers.
_NUMERIC_FIELDS = {
    "float": ((int, float), "a number"),
    "int": (int, "an integer"),
    "Optional[int]": ((int, type(None)), "an integer or null"),
}


@lru_cache(maxsize=None)
def _numeric_fields(cls: type) -> Tuple[Tuple[str, Any, str], ...]:
    return tuple(
        (f.name, *_NUMERIC_FIELDS[f.type])
        for f in dataclasses.fields(cls)
        if f.type in _NUMERIC_FIELDS
    )


def _validated(task: CampaignTask) -> CampaignTask:
    """Reject out-of-domain task fields with a precise message."""
    for name, accepted, noun in _numeric_fields(type(task)):
        value = getattr(task, name)
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ModelError(f"{name!r} must be {noun}, got {value!r}")
    if isinstance(task, (ParetoFrontTask, SuccessiveHalvingTask)):
        _validate_dse(task)
        return task
    if task.workload not in _VALID_WORKLOADS:
        raise ModelError(
            f"unknown workload {task.workload!r}; "
            f"available: {list(_VALID_WORKLOADS)}"
        )
    if not 0.0 <= task.f <= 1.0:
        raise ModelError(
            f"'f' must be a parallel fraction in [0, 1], got {task.f}"
        )
    if task.scenario not in scenario_names():
        raise ModelError(
            f"unknown scenario {task.scenario!r}; "
            f"available: {scenario_names()}"
        )
    if task.workload != "fft" and task.fft_size is not None:
        raise ModelError(
            f"'fft_size' only applies to the fft workload, "
            f"not {task.workload!r}"
        )
    if isinstance(task, (ParetoTask, SensitivityTask)) and task.r_max < 1:
        raise ModelError(f"'r_max' must be >= 1, got {task.r_max}")
    if isinstance(task, SensitivityTask):
        if not 1 <= task.trials <= MAX_SENSITIVITY_TRIALS:
            raise ModelError(
                f"'trials' must be in [1, {MAX_SENSITIVITY_TRIALS}], "
                f"got {task.trials}"
            )
        for name in _SIGMAS:
            value = getattr(task, name)
            if not (math.isfinite(value) and value >= 0):
                raise ModelError(
                    f"{name!r} must be a finite number >= 0, "
                    f"got {value!r}"
                )
    return task


def _validate_dse(
    task: Union[ParetoFrontTask, SuccessiveHalvingTask]
) -> None:
    """Validate a DSE task eagerly, naming the offending field.

    Runs the scenario JSON through the full DSL validator and bounds
    the expanded config space, so a malformed scenario is rejected at
    submit time (400 in the jobs API) and never reaches a runner.
    """
    # Imported here: only a DSE task loads the DSE layer.
    from ..dse.dsl import DSEScenario
    from ..dse.engine import config_count

    if not task.scenario_json or not isinstance(task.scenario_json, str):
        raise ModelError(
            f"'scenario_json' must be a non-empty JSON string, "
            f"got {task.scenario_json!r}"
        )
    try:
        payload = json.loads(task.scenario_json)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"'scenario_json' is not valid JSON: {exc}"
        ) from None
    scenario = DSEScenario.from_payload(payload)
    for key in ("area_scale_grid", "power_scale_grid"):
        grid = getattr(task, key)
        if not grid:
            raise ModelError(f"{key!r} must name at least one scale")
        for value in grid:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not value > 0
            ):
                raise ModelError(
                    f"{key!r} entries must be positive numbers, "
                    f"got {value!r}"
                )
        if tuple(sorted(set(grid))) != tuple(grid):
            raise ModelError(
                f"{key!r} must be strictly increasing with no "
                f"duplicates"
            )
    if task.r_max < 1:
        raise ModelError(f"'r_max' must be >= 1, got {task.r_max}")
    n_configs = config_count(
        scenario, task.area_scale_grid, task.power_scale_grid
    )
    if n_configs > MAX_DSE_CONFIGS:
        raise ModelError(
            f"DSE config space has {n_configs} configs, above the "
            f"{MAX_DSE_CONFIGS} per-task limit; shard the grids"
        )
    if isinstance(task, ParetoFrontTask):
        if task.shards < 1:
            raise ModelError(
                f"'shards' must be >= 1, got {task.shards}"
            )
        if not 0 <= task.shard < task.shards:
            raise ModelError(
                f"'shard' must be in [0, {task.shards}), "
                f"got {task.shard}"
            )
    else:
        for rung in task.rungs:
            if isinstance(rung, bool) or not isinstance(rung, int):
                raise ModelError(
                    f"'rungs' entries must be integers, got {rung!r}"
                )
            if not 1 <= rung <= task.r_max:
                raise ModelError(
                    f"'rungs' entries must be in [1, r_max="
                    f"{task.r_max}], got {rung}"
                )
        if tuple(sorted(set(task.rungs))) != tuple(task.rungs):
            raise ModelError(
                "'rungs' must be strictly increasing with no "
                "duplicates"
            )


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign computes, independent of how it is executed.

    ``figures`` expand through :func:`figure_campaign`; ``pareto``
    and ``sensitivity`` carry explicit task tuples.  The expansion
    order is deterministic -- figures in the given order, then Pareto
    sweeps, then sensitivity batches -- so a resumed campaign reports
    results in exactly the order of the original one.
    """

    name: str = "campaign"
    figures: Tuple[str, ...] = ()
    pareto: Tuple[ParetoTask, ...] = ()
    sensitivity: Tuple[SensitivityTask, ...] = ()
    dse_pareto: Tuple[ParetoFrontTask, ...] = ()
    dse_halving: Tuple[SuccessiveHalvingTask, ...] = ()
    method: str = "batch"

    def __post_init__(self) -> None:
        if self.method not in ("batch", "scalar"):
            raise ModelError(
                f"unknown projection method {self.method!r}; "
                f"expected 'batch' or 'scalar'"
            )
        if not (
            self.figures
            or self.pareto
            or self.sensitivity
            or self.dse_pareto
            or self.dse_halving
        ):
            raise ModelError(
                "empty campaign: give at least one figure, pareto, "
                "sensitivity, dse_pareto, or dse_halving entry"
            )

    def tasks(self) -> Tuple[CampaignTask, ...]:
        """Expand into the deterministic task list (validated)."""
        tasks = list(figure_campaign(self.figures, self.method))
        tasks.extend(self.pareto)
        tasks.extend(self.sensitivity)
        tasks.extend(self.dse_pareto)
        tasks.extend(self.dse_halving)
        return tuple(_validated(task) for task in tasks)

    def spec_hash(self) -> str:
        """SHA-256 over the spec's canonical JSON form."""
        return sha256_text(canonical_json(self.payload()))

    def payload(self) -> Dict[str, Any]:
        """A JSON-ready view (round-trips through :meth:`from_payload`)."""
        return {
            "name": self.name,
            "figures": list(self.figures),
            "pareto": [flat_asdict(t) for t in self.pareto],
            "sensitivity": [flat_asdict(t) for t in self.sensitivity],
            "dse_pareto": [
                _dse_payload(t) for t in self.dse_pareto
            ],
            "dse_halving": [
                _dse_payload(t) for t in self.dse_halving
            ],
            "method": self.method,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CampaignSpec":
        """Rebuild a spec from :meth:`payload` output (lenient kinds)."""
        if not isinstance(payload, Mapping):
            raise ModelError(
                f"campaign payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        known = {
            "name", "figures", "pareto", "sensitivity", "dse_pareto",
            "dse_halving", "method",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelError(
                f"unknown campaign field(s) {unknown}; "
                f"allowed: {sorted(known)}"
            )

        def _items(key: str, factory):
            entries = payload.get(key, ())
            if not isinstance(entries, (list, tuple)):
                raise ModelError(f"{key!r} must be a list")
            out = []
            for entry in entries:
                if not isinstance(entry, Mapping):
                    raise ModelError(
                        f"{key!r} entries must be objects, got "
                        f"{type(entry).__name__}"
                    )
                fields = dict(entry)
                fields.pop("kind", None)
                try:
                    out.append(factory(**fields))
                except TypeError as exc:
                    raise ModelError(
                        f"bad {key!r} entry: {exc}"
                    ) from None
            return tuple(out)

        figures = payload.get("figures", ())
        if not isinstance(figures, (list, tuple)) or not all(
            isinstance(fig, str) for fig in figures
        ):
            raise ModelError("'figures' must be a list of figure ids")
        return cls(
            name=str(payload.get("name", "campaign")),
            figures=tuple(figures),
            pareto=_items("pareto", ParetoTask),
            sensitivity=_items("sensitivity", SensitivityTask),
            dse_pareto=_items("dse_pareto", _dse_pareto_task),
            dse_halving=_items("dse_halving", _dse_halving_task),
            method=str(payload.get("method", "batch")),
        )


def _grid_tuple(key: str, values: Any, integral: bool) -> Tuple:
    """A JSON grid list back into the task's tuple form, strictly."""
    if not isinstance(values, (list, tuple)):
        raise ModelError(f"{key!r} must be a list of numbers")
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise ModelError(
                f"{key!r} entries must be numbers, got "
                f"{type(value).__name__}"
            )
        if integral:
            if not isinstance(value, int):
                raise ModelError(
                    f"{key!r} entries must be integers, got {value!r}"
                )
            out.append(int(value))
        else:
            out.append(float(value))
    return tuple(out)


def _dse_payload(
    task: Union[ParetoFrontTask, SuccessiveHalvingTask]
) -> Dict[str, Any]:
    """:func:`flat_asdict` with the grids as JSON-native lists."""
    payload = flat_asdict(task)
    payload["area_scale_grid"] = list(task.area_scale_grid)
    payload["power_scale_grid"] = list(task.power_scale_grid)
    if isinstance(task, SuccessiveHalvingTask):
        payload["rungs"] = list(task.rungs)
    return payload


def _dse_grids(fields: Dict[str, Any]) -> Dict[str, Any]:
    for key in ("area_scale_grid", "power_scale_grid"):
        if key in fields:
            fields[key] = _grid_tuple(key, fields[key], integral=False)
    return fields


def _dse_pareto_task(**fields: Any) -> ParetoFrontTask:
    """The ``from_payload`` factory: grids arrive as JSON lists."""
    return ParetoFrontTask(**_dse_grids(fields))


def _dse_halving_task(**fields: Any) -> SuccessiveHalvingTask:
    """The ``from_payload`` factory: grids arrive as JSON lists."""
    if "rungs" in fields:
        fields["rungs"] = _grid_tuple(
            "rungs", fields["rungs"], integral=True
        )
    return SuccessiveHalvingTask(**_dse_grids(fields))
