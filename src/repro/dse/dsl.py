"""The declarative DSE scenario DSL.

A :class:`DSEScenario` is a plain frozen dataclass (JSON in, JSON
out) that names everything a design-space exploration needs:

* budget overrides -- the *same* three knobs
  (``bandwidth_gbps_at_start``, ``power_budget_w``, ``area_factor``)
  plus ``alpha`` that :func:`repro.itrs.scenarios.scenario_from_overrides`
  accepts, so :meth:`DSEScenario.to_scenario` rebuilds a paper
  scenario bit-identically (same constructor, same values);
* the performance/constraint provider regime
  (:mod:`repro.dse.providers`);
* the workload and the parallel fractions to sweep;
* the chips -- classic single-U-core designs and/or
  :class:`multi-U-core chips <repro.core.multicore.MultiUCoreChip>`
  where each workload kernel maps to a named substrate or to
  ``"best"`` (the highest-``mu`` substrate for that workload).

Scenarios load from files (:func:`load_scenario_file`), and the
paper's own six perturbations plus the baseline ship as
:data:`BUILTIN_SCENARIOS`, generated from
:data:`repro.itrs.scenarios.SCENARIO_OVERRIDES` -- the differential
test in CI holds by construction.

Every validation error names the offending field, so the jobs API can
reject a malformed scenario with a 400 before it ever reaches a
runner.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .._canonical import canonical_json
from ..core.multicore import normal_weight_shares
from ..core.power import DEFAULT_ALPHA
from ..devices.measurements import FFT_ANCHOR_SIZES, all_measurements
from ..errors import ModelError
from ..itrs.scenarios import (
    SCENARIO_OVERRIDES,
    SCENARIOS,
    Scenario,
    scenario_from_overrides,
)
from ..projection.engine import PAPER_F_VALUES
from .providers import provider_names

__all__ = [
    "SUBSTRATES",
    "BEST_SUBSTRATE",
    "substrates_for",
    "SegmentSpec",
    "ChipSpec",
    "DSEScenario",
    "BUILTIN_SCENARIOS",
    "builtin_scenario",
    "builtin_scenario_names",
    "load_scenario_file",
    "list_scenario_files",
    "scenario_summary",
]

#: U-core substrates a chip spec may name (the paper's five devices).
SUBSTRATES = ("LX760", "GTX285", "GTX480", "R5870", "ASIC")

#: Sentinel device: map the kernel to the highest-``mu`` substrate.
BEST_SUBSTRATE = "best"


def substrates_for(
    workload: str, fft_size: Optional[int] = None
) -> Tuple[str, ...]:
    """The substrates with a calibrated measurement for a workload
    (R5870 is measured on mmm only, GTX480 not on bs)."""
    measured = all_measurements()
    return tuple(
        device for device in SUBSTRATES
        if (device, workload, fft_size) in measured
    )


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


def _finite(value: Any) -> bool:
    """A real number (not a bool) that converts to a finite float."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # false for NaN, ±inf, 10**400
    )


@dataclass(frozen=True)
class SegmentSpec:
    """One workload kernel of a multi-U-core chip.

    Attributes:
        name: kernel label (free-form, non-empty).
        weight: positive, finite share of the parallel time.
        device: substrate name from :data:`SUBSTRATES`, or ``"best"``
            to map the kernel to the highest-``mu`` substrate for the
            scenario's workload.
    """

    name: str
    weight: float = 1.0
    device: str = BEST_SUBSTRATE

    def __post_init__(self) -> None:
        _check(
            bool(self.name) and isinstance(self.name, str),
            f"segment 'name' must be a non-empty string, "
            f"got {self.name!r}",
        )
        _check(
            _finite(self.weight) and self.weight > 0,
            f"segment 'weight' must be a positive finite number, "
            f"got {self.weight!r}",
        )
        _check(
            self.device in SUBSTRATES or self.device == BEST_SUBSTRATE,
            f"segment 'device' must be one of {list(SUBSTRATES)} or "
            f"{BEST_SUBSTRATE!r}, got {self.device!r}",
        )


@dataclass(frozen=True)
class ChipSpec:
    """One chip organisation to explore.

    ``kind="single"`` is the paper's heterogeneous chip: all fabric is
    one substrate, named by ``device``.  ``kind="multi"`` splits the
    fabric across ``segments``, each kernel on its own substrate
    (:class:`~repro.core.multicore.MultiUCoreChip`).
    """

    kind: str = "single"
    device: Optional[str] = None
    segments: Tuple[SegmentSpec, ...] = ()

    def __post_init__(self) -> None:
        _check(
            self.kind in ("single", "multi"),
            f"chip 'kind' must be 'single' or 'multi', "
            f"got {self.kind!r}",
        )
        if self.kind == "single":
            _check(
                self.device in SUBSTRATES,
                f"chip 'device' must be one of {list(SUBSTRATES)}, "
                f"got {self.device!r}",
            )
            _check(
                not self.segments,
                "chip 'segments' only applies to kind='multi'",
            )
        else:
            _check(
                self.device is None,
                "chip 'device' only applies to kind='single'",
            )
            _check(
                len(self.segments) >= 1,
                "multi chip needs at least one entry in 'segments'",
            )
            weights = [float(seg.weight) for seg in self.segments]
            _check(
                normal_weight_shares(weights),
                f"segment 'weight' values must have a finite total and "
                f"no share of it below {sys.float_info.min!r}, "
                f"got {weights!r}",
            )

    @property
    def label(self) -> str:
        """Display label (resolved substrates may differ for 'best')."""
        if self.kind == "single":
            return str(self.device)
        return "+".join(seg.device for seg in self.segments)

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "single":
            out["device"] = self.device
        else:
            out["segments"] = [
                {
                    "name": seg.name,
                    "weight": seg.weight,
                    "device": seg.device,
                }
                for seg in self.segments
            ]
        return out


_SCENARIO_FIELDS = frozenset(
    {
        "name",
        "description",
        "workload",
        "fft_size",
        "bandwidth_gbps_at_start",
        "power_budget_w",
        "area_factor",
        "alpha",
        "provider",
        "f_values",
        "chips",
    }
)

_VALID_WORKLOADS = ("mmm", "fft", "bs")


@dataclass(frozen=True)
class DSEScenario:
    """A declarative exploration scenario (see module docstring)."""

    name: str
    description: str = ""
    workload: str = "mmm"
    fft_size: Optional[int] = None
    bandwidth_gbps_at_start: Optional[float] = None
    power_budget_w: Optional[float] = None
    area_factor: float = 1.0
    alpha: float = DEFAULT_ALPHA
    provider: str = "table1"
    f_values: Tuple[float, ...] = PAPER_F_VALUES
    chips: Tuple[ChipSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check(
            bool(self.name) and isinstance(self.name, str),
            f"'name' must be a non-empty string, got {self.name!r}",
        )
        _check(
            isinstance(self.description, str),
            f"'description' must be a string, got {self.description!r}",
        )
        _check(
            self.workload in _VALID_WORKLOADS,
            f"'workload' must be one of {list(_VALID_WORKLOADS)}, "
            f"got {self.workload!r}",
        )
        if self.workload == "fft":
            _check(
                isinstance(self.fft_size, int)
                and not isinstance(self.fft_size, bool)
                and self.fft_size in FFT_ANCHOR_SIZES,
                f"'fft_size' must be one of {list(FFT_ANCHOR_SIZES)} "
                f"for the fft workload, got {self.fft_size!r}",
            )
        else:
            _check(
                self.fft_size is None,
                f"'fft_size' only applies to the fft workload, "
                f"not {self.workload!r}",
            )
        for knob in ("bandwidth_gbps_at_start", "power_budget_w"):
            value = getattr(self, knob)
            if value is not None:
                _check(
                    _finite(value) and value > 0,
                    f"{knob!r} must be a positive finite number, "
                    f"got {value!r}",
                )
        _check(
            _finite(self.area_factor) and self.area_factor > 0,
            f"'area_factor' must be a positive finite number, "
            f"got {self.area_factor!r}",
        )
        _check(
            _finite(self.alpha) and self.alpha >= 1.0,
            f"'alpha' must be a finite number >= 1, got {self.alpha!r}",
        )
        _check(
            self.provider in provider_names(),
            f"'provider' must be one of {provider_names()}, "
            f"got {self.provider!r}",
        )
        measured = substrates_for(self.workload, self.fft_size)
        for chip in self.chips:
            named = (
                [("chip", chip.device)] if chip.kind == "single"
                else [("segment", seg.device) for seg in chip.segments]
            )
            for owner, device in named:
                _check(
                    device == BEST_SUBSTRATE or device in measured,
                    f"{owner} 'device' {device!r} has no {self.workload} "
                    f"measurement; measured: {list(measured)}",
                )
        _check(
            len(self.f_values) >= 1,
            "'f_values' must name at least one parallel fraction",
        )
        for f in self.f_values:
            _check(
                isinstance(f, (int, float))
                and not isinstance(f, bool)
                and 0.0 <= f <= 1.0,
                f"'f_values' entries must be fractions in [0, 1], "
                f"got {f!r}",
            )

    # ------------------------------------------------------------ bridges
    def to_scenario(self) -> Scenario:
        """The equivalent :class:`~repro.itrs.scenarios.Scenario`.

        Built through the same
        :func:`~repro.itrs.scenarios.scenario_from_overrides` call the
        registered paper scenarios use, so identical overrides yield
        bit-identical roadmaps and projections.
        """
        return scenario_from_overrides(
            self.name,
            self.description,
            bandwidth_gbps_at_start=self.bandwidth_gbps_at_start,
            power_budget_w=self.power_budget_w,
            area_factor=self.area_factor,
            alpha=self.alpha,
        )

    def chip_specs(self) -> Tuple[ChipSpec, ...]:
        """The chips to explore: ``chips`` or, when none are given,
        the paper's single-U-core designs, one per substrate measured
        on the workload."""
        return self.chips or tuple(
            ChipSpec(kind="single", device=device)
            for device in substrates_for(self.workload, self.fft_size)
        )

    # ------------------------------------------------------- serialisation
    def payload(self) -> Dict[str, Any]:
        """A JSON-ready view (round-trips through :meth:`from_payload`)."""
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload,
            "fft_size": self.fft_size,
            "bandwidth_gbps_at_start": self.bandwidth_gbps_at_start,
            "power_budget_w": self.power_budget_w,
            "area_factor": self.area_factor,
            "alpha": self.alpha,
            "provider": self.provider,
            "f_values": list(self.f_values),
            "chips": [chip.payload() for chip in self.chips],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DSEScenario":
        """Rebuild a scenario, naming any offending field precisely."""
        if not isinstance(payload, Mapping):
            raise ModelError(
                f"DSE scenario must be an object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - _SCENARIO_FIELDS)
        if unknown:
            raise ModelError(
                f"unknown DSE scenario field(s) {unknown}; "
                f"allowed: {sorted(_SCENARIO_FIELDS)}"
            )
        fields = dict(payload)
        f_values = fields.pop("f_values", None)
        if f_values is not None:
            if not isinstance(f_values, (list, tuple)):
                raise ModelError("'f_values' must be a list of numbers")
            fields["f_values"] = tuple(f_values)
        chips = fields.pop("chips", None)
        if chips is not None:
            if not isinstance(chips, (list, tuple)):
                raise ModelError("'chips' must be a list of chip specs")
            fields["chips"] = tuple(
                _chip_from_payload(entry) for entry in chips
            )
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ModelError(f"bad DSE scenario: {exc}") from None

    def canonical(self) -> str:
        """Canonical JSON form (the campaign tasks embed this)."""
        return canonical_json(self.payload())


def _chip_from_payload(entry: Any) -> ChipSpec:
    if not isinstance(entry, Mapping):
        raise ModelError(
            f"'chips' entries must be objects, got "
            f"{type(entry).__name__}"
        )
    allowed = {"kind", "device", "segments"}
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ModelError(
            f"unknown chip field(s) {unknown}; allowed: {sorted(allowed)}"
        )
    fields = dict(entry)
    segments = fields.pop("segments", None)
    if segments is not None:
        if not isinstance(segments, (list, tuple)):
            raise ModelError("'segments' must be a list of segments")
        parsed = []
        for seg in segments:
            if not isinstance(seg, Mapping):
                raise ModelError(
                    f"'segments' entries must be objects, got "
                    f"{type(seg).__name__}"
                )
            seg_unknown = sorted(
                set(seg) - {"name", "weight", "device"}
            )
            if seg_unknown:
                raise ModelError(
                    f"unknown segment field(s) {seg_unknown}; "
                    f"allowed: ['device', 'name', 'weight']"
                )
            try:
                parsed.append(SegmentSpec(**dict(seg)))
            except TypeError as exc:
                raise ModelError(f"bad segment: {exc}") from None
        fields["segments"] = tuple(parsed)
    try:
        return ChipSpec(**fields)
    except TypeError as exc:
        raise ModelError(f"bad chip spec: {exc}") from None


# -- builtins ------------------------------------------------------------

def _builtin(name: str) -> DSEScenario:
    overrides = dict(SCENARIO_OVERRIDES[name])
    return DSEScenario(
        name=name,
        description=SCENARIOS[name].description,
        **overrides,
    )


#: The paper's baseline + six Section 6.2 perturbations, re-expressed
#: in the DSL (differential-tested bit-identical against
#: ``repro.itrs.scenarios``).
BUILTIN_SCENARIOS: Dict[str, DSEScenario] = {
    name: _builtin(name) for name in SCENARIO_OVERRIDES
}


def builtin_scenario(name: str) -> DSEScenario:
    """Look up a built-in DSE scenario by name."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ModelError(
            f"unknown DSE scenario {name!r}; "
            f"available: {list(BUILTIN_SCENARIOS)}"
        ) from None


def builtin_scenario_names() -> List[str]:
    """Names of the built-in scenarios, baseline first."""
    return list(BUILTIN_SCENARIOS)


# -- scenario files ------------------------------------------------------

def load_scenario_file(path: str) -> DSEScenario:
    """Load and validate one JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ModelError(
            f"cannot read scenario file {path!r}: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"scenario file {path!r} is not valid JSON: {exc}"
        ) from None
    try:
        return DSEScenario.from_payload(payload)
    except ModelError as exc:
        raise ModelError(f"scenario file {path!r}: {exc}") from None


def list_scenario_files(directory: str) -> List[str]:
    """Paths of ``*.json`` scenario files in ``directory``, sorted."""
    if not os.path.isdir(directory):
        raise ModelError(
            f"scenario directory {directory!r} does not exist"
        )
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(".json")
    )


def scenario_summary(
    scenario: DSEScenario, source: str = "builtin"
) -> Dict[str, Any]:
    """One row of ``dse list-scenarios`` output."""
    chips = [chip.label for chip in scenario.chip_specs()]
    return {
        "name": scenario.name,
        "source": source,
        "description": scenario.description,
        "workload": scenario.workload,
        "provider": scenario.provider,
        "alpha": scenario.alpha,
        "f_values": list(scenario.f_values),
        "chips": chips,
    }
