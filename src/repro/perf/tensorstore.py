"""Materialized projection tensors: build once, serve in O(1).

The serving layer's hot path (:mod:`repro.service`) answers each
``optimize`` request by re-running the batched optimizer -- hundreds of
microseconds of NumPy per call for answers that are pure functions of
``(scenario, workload, design, node, f, r_max)``.  The paper's entire
design space is small enough to *materialize*: for the default grids it
is under 60k optimizer cells per workload, a few megabytes of float64.

This module turns that observation into a durable artifact:

* :func:`materialize_spec` expands the design space into
  :class:`~repro.campaign.spec.MaterializeTask` entries -- one per
  (scenario, workload, design) -- executed serially by the ordinary
  :class:`~repro.campaign.runner.CampaignRunner` under a
  content-addressed :class:`~repro.campaign.store.ResultStore`, so a
  rebuild resumes from cached task results and every tensor cell is
  traceable to a task hash.  Serial, because the default build is
  about a second of kernel work: a process pool takes longer to start
  than it saves.
* :func:`materialize_task_payload` evaluates one design's full
  ``(node x f-grid x r-grid)`` block via
  :func:`~repro.perf.batch.optimize_prefix_batch` -- one grid
  evaluation per ``f``, prefix-argmax for every ``r_max``, bit-identical
  to per-request :func:`~repro.perf.batch.optimize_batch` calls -- and
  carries each channel as the base64 of its little-endian float64
  bytes.  No per-cell object is built and no float goes through text.
* :func:`build_tensor_store` concatenates those bytes, design by
  design, into dense ``(design x node x f x r)`` float64 channel
  tensors, written as raw little-endian ``.f64`` files named by content
  hash, described by a checksummed JSON manifest that is published
  *last* via atomic rename -- the manifest is the commit point; a
  killed build never leaves a readable-but-wrong store.
* :class:`TensorStore` memory-maps a published store read-only and
  answers lookups without touching the optimizer: exact grid hits,
  harmonic interpolation between bracketing ``f`` grid points, or a
  refusal (``miss``) that tells the caller to fall back to live
  compute.

Interpolation is *harmonic* and near-exact by construction: for a fixed
``(chip, budget, r)`` the model's execution time is affine in ``f``
(Amdahl's law: a serial term scaled by ``1 - f`` plus a parallel term
scaled by ``f``), so ``1/speedup`` is linear in ``f`` and interpolating
it linearly between two grid points that share the same optimal ``r``
reproduces the live value up to floating-point rounding.  The served
relative error bound is :data:`REL_ERROR_BOUND` (1e-9, orders of
magnitude above the observed ~1e-13 rounding noise); when the
bracketing grid points disagree on the optimal ``r`` -- the only case
where the optimum could switch between them -- or either is infeasible,
the store refuses to interpolate and the request falls back.  The store
never extrapolates outside the materialized ``f`` range.

Integrity: every channel file carries its SHA-256 in the manifest, the
manifest carries a self-checksum over its canonical JSON, and the
envelope pins the model version.  :meth:`TensorStore.load` re-verifies
all of it and raises :class:`~repro.errors.TensorStoreError` on any
mismatch -- the serving layer treats that as quarantine (fall back to
live compute), so corruption can cost speed, never correctness.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .._version import __version__
from ..core.optimizer import DEFAULT_R_MAX
from ..devices.bce import DEFAULT_BCE
from ..errors import ModelError, TensorStoreError
from ..itrs.scenarios import get_scenario
from ..obs.history import envelope
from ..obs.trace import get_tracer
from ..projection.designs import standard_designs
from ..projection.engine import node_budget
from .batch import PrefixOptima, optimize_prefix_batch

__all__ = [
    "DEFAULT_F_GRID",
    "CHANNELS",
    "MANIFEST_NAME",
    "REL_ERROR_BOUND",
    "DEFAULT_WORKLOADS",
    "CellResult",
    "TensorStore",
    "default_r_grid",
    "materialize_spec",
    "materialize_task_payload",
    "build_tensor_store",
]

#: The materialized parallel-fraction grid: every percent plus the
#: paper's 0.999 limit point.  Each value is the float64 nearest the
#: decimal, exactly what ``json.loads`` produces for the same literal,
#: so a request for ``f=0.99`` hits the grid bit-for-bit.
DEFAULT_F_GRID: Tuple[float, ...] = tuple(
    sorted({i / 100 for i in range(101)} | {0.999})
)

#: Channel order inside every group's tensor block: the fields of
#: :func:`~repro.perf.batch.optimize_prefix_batch`'s answer.
CHANNELS: Tuple[str, ...] = PrefixOptima._fields

#: The manifest file name -- its atomic appearance *is* the publish.
MANIFEST_NAME = "tensor-manifest.json"

#: Documented relative error bound on interpolated speedups.  The
#: harmonic interpolant is exact in real arithmetic; this bound covers
#: float64 rounding with four orders of magnitude to spare.
REL_ERROR_BOUND = 1e-9

#: The paper's workload set as (workload, fft_size) pairs.
DEFAULT_WORKLOADS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("mmm", None),
    ("fft", 1024),
    ("bs", None),
)

_FORMAT = "repro-tensorstore"
_SCHEMA_VERSION = 1


def default_r_grid() -> Tuple[int, ...]:
    """The contiguous ``r_max`` grid ``(1, ..., DEFAULT_R_MAX)``."""
    return tuple(range(1, DEFAULT_R_MAX + 1))


# -- campaign expansion ----------------------------------------------------


def materialize_spec(
    name: str = "materialize",
    scenario: str = "baseline",
    workloads: Sequence[Tuple[str, Optional[int]]] = DEFAULT_WORKLOADS,
    f_grid: Sequence[float] = DEFAULT_F_GRID,
    r_grid: Optional[Sequence[int]] = None,
):
    """A campaign spec covering every design of the given workloads.

    One :class:`~repro.campaign.spec.MaterializeTask` per
    (workload, design): tasks parallelise across the runner's pool and
    each is independently resumable from the result store.  All tasks
    share one ``f_grid``/``r_grid``, so the assembled tensors are
    rectangular per group.
    """
    from ..campaign.spec import CampaignSpec, MaterializeTask

    f_values = tuple(float(f) for f in f_grid)
    r_values = (
        tuple(int(r) for r in r_grid)
        if r_grid is not None
        else default_r_grid()
    )
    tasks = []
    for workload, fft_size in workloads:
        for design in standard_designs(workload, fft_size):
            tasks.append(
                MaterializeTask(
                    workload=workload,
                    design=design.short_label,
                    scenario=scenario,
                    fft_size=fft_size,
                    f_grid=f_values,
                    r_grid=r_values,
                )
            )
    return CampaignSpec(name=name, materialize=tuple(tasks))


def materialize_task_payload(task) -> Dict[str, Any]:
    """One design's dense ``(node x f x r_max)`` block of optima.

    For each ``f`` a single :func:`optimize_prefix_batch` call
    evaluates the whole candidate grid once and reads off the optimum
    for *every* ``r_max`` -- bit-identical to per-``r_max``
    :func:`~repro.perf.batch.optimize_batch` calls.  Each channel
    travels as the exact little-endian float64 bytes of its block,
    base64-encoded (the task's ``encoding``), which are the bytes the
    channel file holds: no float is printed or parsed on the way.
    """
    from ..campaign.spec import flat_asdict

    scenario = get_scenario(task.scenario)
    designs = standard_designs(task.workload, task.fft_size)
    matches = [d for d in designs if d.short_label == task.design]
    if not matches:
        raise ModelError(
            f"unknown design {task.design!r} for workload "
            f"{task.workload!r}; available: "
            f"{sorted(d.short_label for d in designs)}"
        )
    design = matches[0]
    nodes = scenario.roadmap.nodes
    budgets = [
        node_budget(
            node,
            task.workload,
            task.fft_size,
            scenario,
            DEFAULT_BCE,
            design.bandwidth_exempt,
        )
        for node in nodes
    ]
    with get_tracer().span(
        "perf.materialize_task",
        attributes={
            "workload": task.workload,
            "design": task.design,
            "f_points": len(task.f_grid),
        },
    ):
        optima = [
            optimize_prefix_batch(design.chip, f, budgets, task.r_grid)
            for f in task.f_grid
        ]
    # zip(*optima) walks channel by channel; stacking on axis 1 lays
    # each block out as (node, f, r_max), the channel file's order.
    channels = {
        name: base64.b64encode(
            np.stack(per_f, axis=1).astype("<f8", copy=False).tobytes()
        ).decode("ascii")
        for name, per_f in zip(CHANNELS, zip(*optima))
    }
    return {
        "kind": "materialize",
        "task": flat_asdict(task),
        "design": {
            "short_label": design.short_label,
            "label": design.label,
            "chip_label": design.chip.label,
            "model_id": design.chip.model_id,
            "bandwidth_exempt": design.bandwidth_exempt,
        },
        "nodes": [
            {"label": node.label, "node_nm": node.node_nm}
            for node in nodes
        ],
        "channels": channels,
    }


# -- build -----------------------------------------------------------------


def _group_key(task) -> Tuple[str, str, Optional[int]]:
    return (task.scenario, task.workload, task.fft_size)


def _group_stem(key: Tuple[str, str, Optional[int]]) -> str:
    scenario, workload, fft_size = key
    stem = f"{scenario}-{workload}"
    if fft_size is not None:
        stem += f"-{fft_size}"
    return stem


def _write_channel(directory: Path, stem: str,
                   blob: bytes) -> Dict[str, Any]:
    """Persist one channel tensor's bytes atomically; return its
    manifest row.

    The file name embeds a content-hash prefix, so a rebuild that
    produces different bytes never silently aliases an old file, and a
    manifest always points at exactly the bytes it was computed over.
    """
    digest = _sha256_bytes(blob)
    name = f"{stem}-{digest[:8]}.f64"
    path = directory / name
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return {"file": name, "sha256": digest, "bytes": len(blob)}


def _sha256_bytes(blob: bytes) -> str:
    import hashlib

    return hashlib.sha256(blob).hexdigest()


def _assemble_group(
    key: Tuple[str, str, Optional[int]],
    entries: Sequence[Tuple[Any, str, Dict[str, Any]]],
    directory: Path,
) -> Dict[str, Any]:
    """Write one group's channel files: each is its designs' channel
    blocks concatenated in task order, the C order of a
    ``(design, node, f, r_max)`` tensor."""
    scenario, workload, fft_size = key
    first_task = entries[0][0]
    f_grid, r_grid = first_task.f_grid, first_task.r_grid
    nodes = entries[0][2]["nodes"]
    for task, _, payload in entries:
        if (task.f_grid, task.r_grid) != (f_grid, r_grid):
            raise TensorStoreError(
                f"materialize tasks for group {key} disagree on grids"
            )
        if payload["nodes"] != nodes:
            raise TensorStoreError(
                f"materialize tasks for group {key} disagree on nodes"
            )
    shape = (len(entries), len(nodes), len(f_grid), len(r_grid))
    block_bytes = len(nodes) * len(f_grid) * len(r_grid) * 8
    stem = _group_stem(key)
    channels = {}
    for channel in CHANNELS:
        blocks = [
            base64.b64decode(payload["channels"][channel])
            for _, _, payload in entries
        ]
        if any(len(block) != block_bytes for block in blocks):
            raise TensorStoreError(
                f"materialize results for group {key} hold a "
                f"{channel!r} block of the wrong size"
            )
        channels[channel] = _write_channel(
            directory, f"{stem}-{channel}", b"".join(blocks)
        )
    return {
        "scenario": scenario,
        "workload": workload,
        "fft_size": fft_size,
        "nodes": nodes,
        "designs": [
            {
                "task_hash": digest,
                **payload["design"],
            }
            for _, digest, payload in entries
        ],
        "shape": list(shape),
        "channels": channels,
    }


def build_tensor_store(
    directory: os.PathLike,
    spec=None,
    store=None,
    resume: bool = False,
    progress=None,
    timestamp: Optional[float] = None,
    run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Materialize ``spec`` (default: the full paper grid) into
    ``directory`` and return the published manifest.

    The campaign runs serially under a
    :class:`~repro.campaign.store.ResultStore` (``store``; when None,
    an ephemeral one removed before this returns); with
    ``resume=True`` an interrupted or repeated build reuses cached
    task results instead of recomputing them.  Channel files land
    first, each atomically; the checksummed manifest is renamed into
    place last and is the store's commit point.
    """
    from ..campaign.runner import CampaignRunner
    from ..campaign.store import ResultStore

    if spec is None:
        spec = materialize_spec()
    tasks = spec.tasks()
    if not tasks:
        raise TensorStoreError("materialize spec expands to no tasks")
    owned = store is None
    if owned:
        store = ResultStore()
    try:
        # Serial: the default build is about a second of kernel work,
        # less than a process pool takes to start.
        report = CampaignRunner(
            store=store,
            executor="serial",
            resume=resume,
            progress=progress,
        ).run(spec)
    finally:
        if owned:
            store.close()
    if not report.ok:
        first = next(
            o for o in report.outcomes if o.status == "failed"
        )
        raise TensorStoreError(
            f"materialize campaign failed {report.failed} of "
            f"{len(report.outcomes)} tasks; first: {first.error}"
        )

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    groups: Dict[Tuple[str, str, Optional[int]], List] = {}
    for outcome in report.outcomes:
        groups.setdefault(_group_key(outcome.task), []).append(
            (outcome.task, outcome.hash, outcome.result)
        )
    first_task = tasks[0]
    group_rows = [
        _assemble_group(key, entries, directory)
        for key, entries in groups.items()
    ]
    manifest: Dict[str, Any] = {
        "format": _FORMAT,
        "schema_version": _SCHEMA_VERSION,
        "envelope": envelope(
            timestamp if timestamp is not None else time.time(),
            run_id=run_id,
        ),
        "spec_hash": spec.spec_hash(),
        "f_grid": list(first_task.f_grid),
        "r_grid": list(first_task.r_grid),
        "groups": group_rows,
        "task_hashes": sorted(o.hash for o in report.outcomes),
    }
    manifest["checksum"] = _manifest_checksum(manifest)
    _publish_manifest(directory, manifest)
    return manifest


def _manifest_checksum(manifest: Dict[str, Any]) -> str:
    from ..campaign.spec import canonical_json, sha256_text

    body = {k: v for k, v in manifest.items() if k != "checksum"}
    return sha256_text(canonical_json(body))


def _publish_manifest(directory: Path,
                      manifest: Dict[str, Any]) -> None:
    path = directory / MANIFEST_NAME
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=".manifest-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# -- serving-side view -----------------------------------------------------


class CellResult(NamedTuple):
    """One lookup's answer.

    ``outcome`` is ``"hit"`` (exact grid cell), ``"interp"``
    (harmonically interpolated between two ``f`` grid points), or
    ``"miss"`` (the store refuses; ``reason`` says why and the caller
    must fall back to live compute).  ``feasible`` is meaningful for
    hits: an on-grid *infeasible* optimum is still a hit, but carries
    no values -- the serving layer falls back so the live path raises
    its exact error.
    """

    outcome: str
    feasible: bool = False
    values: Optional[Dict[str, float]] = None
    interpolation: Optional[Dict[str, Any]] = None
    reason: Optional[str] = None


def _miss(reason: str) -> CellResult:
    return CellResult(outcome="miss", reason=reason)


class _GroupView:
    """Memory-mapped tensors plus lookup indexes for one group."""

    def __init__(self, row: Dict[str, Any],
                 maps: Dict[str, np.memmap]):
        self.row = row
        self.maps = maps
        self.design_index = {
            d["short_label"]: i for i, d in enumerate(row["designs"])
        }
        self.designs = row["designs"]
        self.node_index = {
            n["node_nm"]: i for i, n in enumerate(row["nodes"])
        }
        self.nodes = row["nodes"]

    def design(self, idx: int) -> Dict[str, Any]:
        return self.designs[idx]


class TensorStore:
    """A published, verified, memory-mapped materialization.

    Construction (:meth:`load`) verifies the manifest's self-checksum,
    the model version, and every channel file's size and SHA-256 before
    mapping anything; any mismatch raises
    :class:`~repro.errors.TensorStoreError`.  Lookups afterwards touch
    only mapped pages -- no optimizer, no allocation beyond the result.
    """

    def __init__(self, directory: Path, manifest: Dict[str, Any],
                 views: Dict[Tuple[str, str, Optional[int]],
                             _GroupView]):
        self.directory = directory
        self.manifest = manifest
        self._views = views
        f_grid = manifest["f_grid"]
        self.f_grid = np.asarray(f_grid, dtype=np.float64)
        self._f_index = {value: i for i, value in enumerate(f_grid)}
        self.r_count = len(manifest["r_grid"])

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, directory: os.PathLike,
             verify: bool = True) -> "TensorStore":
        """Map the store at ``directory``; raise on any integrity flaw.

        ``verify=False`` skips the per-file SHA-256 pass (size and
        manifest checksum are always enforced) -- the CLI's ``refresh``
        uses it to cheaply detect an already-current store.
        """
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise TensorStoreError(
                f"no tensor store at {directory}: cannot read "
                f"{MANIFEST_NAME} ({exc})"
            ) from None
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise TensorStoreError(
                f"tensor manifest at {path} is not valid JSON: {exc}"
            ) from None
        cls._check_manifest(manifest, path)
        views: Dict[Tuple[str, str, Optional[int]], _GroupView] = {}
        for row in manifest["groups"]:
            maps = {}
            shape = tuple(row["shape"])
            for channel, meta in row["channels"].items():
                file_path = directory / meta["file"]
                cls._check_channel(file_path, meta, shape, verify)
                maps[channel] = np.memmap(
                    file_path, dtype="<f8", mode="r", shape=shape
                )
            key = (row["scenario"], row["workload"], row["fft_size"])
            views[key] = _GroupView(row, maps)
        return cls(directory, manifest, views)

    @staticmethod
    def _check_manifest(manifest: Any, path: Path) -> None:
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _FORMAT
        ):
            raise TensorStoreError(
                f"{path} is not a {_FORMAT} manifest"
            )
        if manifest.get("schema_version") != _SCHEMA_VERSION:
            raise TensorStoreError(
                f"tensor manifest schema "
                f"{manifest.get('schema_version')!r} is not the "
                f"supported {_SCHEMA_VERSION}"
            )
        checksum = manifest.get("checksum")
        if checksum != _manifest_checksum(manifest):
            raise TensorStoreError(
                f"tensor manifest at {path} fails its self-checksum"
            )
        built_by = manifest.get("envelope", {}).get("model_version")
        if built_by != __version__:
            raise TensorStoreError(
                f"tensor store was built by model version "
                f"{built_by!r}, not the running {__version__!r}; "
                f"rebuild with 'repro-hetsim materialize build'"
            )

    @staticmethod
    def _check_channel(path: Path, meta: Dict[str, Any],
                       shape: Tuple[int, ...], verify: bool) -> None:
        expected = int(np.prod(shape)) * 8
        if meta["bytes"] != expected:
            raise TensorStoreError(
                f"channel {path.name} declares {meta['bytes']} bytes "
                f"but shape {shape} needs {expected}"
            )
        try:
            actual = path.stat().st_size
        except OSError:
            raise TensorStoreError(
                f"channel file {path.name} is missing"
            ) from None
        if actual != expected:
            raise TensorStoreError(
                f"channel file {path.name} is {actual} bytes, "
                f"expected {expected}"
            )
        if verify:
            if _sha256_bytes(path.read_bytes()) != meta["sha256"]:
                raise TensorStoreError(
                    f"channel file {path.name} fails its checksum"
                )

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The readiness block ``/healthz`` and ``verify`` surface."""
        env = self.manifest.get("envelope", {})
        cells = sum(
            int(np.prod(view.maps["speedup"].shape))
            for view in self._views.values()
        )
        size = sum(
            meta["bytes"]
            for row in self.manifest["groups"]
            for meta in row["channels"].values()
        )
        return {
            "directory": str(self.directory),
            "groups": len(self._views),
            "designs": sum(
                len(v.designs) for v in self._views.values()
            ),
            "cells": cells,
            "bytes": size,
            "f_points": int(self.f_grid.size),
            "r_max": self.r_count,
            "spec_hash": self.manifest["spec_hash"],
            "built_unix": env.get("timestamp_unix"),
            "model_version": env.get("model_version"),
        }

    def verify(self) -> Dict[str, Any]:
        """Re-verify every byte on disk; raise on any mismatch."""
        self._check_manifest(
            self.manifest, self.directory / MANIFEST_NAME
        )
        files = 0
        for row in self.manifest["groups"]:
            shape = tuple(row["shape"])
            for meta in row["channels"].values():
                self._check_channel(
                    self.directory / meta["file"], meta, shape, True
                )
                files += 1
        return {"status": "ok", "files": files, **self.describe()}

    def group(self, scenario: str, workload: str,
              fft_size: Optional[int]) -> Optional[_GroupView]:
        return self._views.get((scenario, workload, fft_size))

    # -- lookup ------------------------------------------------------------

    def lookup(
        self,
        scenario: str,
        workload: str,
        fft_size: Optional[int],
        design: str,
        node_nm: int,
        f: float,
        r_max: int,
    ) -> CellResult:
        """Answer one optimizer cell from the mapped tensors.

        Exact grid hits read one cell per channel.  Off-grid ``f``
        inside the materialized range is answered by harmonic
        interpolation *only* when both bracketing grid points are
        feasible and agree on the optimal ``r`` (then ``r``, ``n`` and
        the bounds are f-independent and exact; only the speedup
        carries the <= 1e-9 relative interpolation error).  Everything
        else -- unknown names, out-of-range grids, non-finite ``f``,
        infeasible cells, disagreeing brackets -- is a ``miss`` and the
        caller falls back to live compute.  The store never
        extrapolates.
        """
        view = self._views.get((scenario, workload, fft_size))
        if view is None:
            return _miss("no materialized group")
        d_idx = view.design_index.get(design)
        if d_idx is None:
            return _miss("design not materialized")
        n_idx = view.node_index.get(node_nm)
        if n_idx is None:
            return _miss("node not materialized")
        if not 1 <= r_max <= self.r_count:
            return _miss("r_max outside materialized grid")
        r_idx = r_max - 1
        if not isinstance(f, float) or not math.isfinite(f):
            return _miss("non-finite f")
        f_idx = self._f_index.get(f)
        if f_idx is not None:
            return self._exact(view, d_idx, n_idx, f_idx, r_idx)
        if f < self.f_grid[0] or f > self.f_grid[-1]:
            return _miss("f outside materialized range")
        hi = int(np.searchsorted(self.f_grid, f))
        return self._interp(view, d_idx, n_idx, hi - 1, hi, f, r_idx)

    def _cell(self, view: _GroupView, d: int, n: int, f: int,
              r: int) -> Optional[Dict[str, float]]:
        if view.maps["feasible"][d, n, f, r] != 1.0:
            return None
        return {
            channel: float(view.maps[channel][d, n, f, r])
            for channel in CHANNELS[:-1]
        }

    def _exact(self, view: _GroupView, d: int, n: int, f: int,
               r: int) -> CellResult:
        values = self._cell(view, d, n, f, r)
        if values is None:
            return CellResult(outcome="hit", feasible=False)
        return CellResult(outcome="hit", feasible=True, values=values)

    def _interp(self, view: _GroupView, d: int, n: int, lo: int,
                hi: int, f: float, r: int) -> CellResult:
        left = self._cell(view, d, n, lo, r)
        right = self._cell(view, d, n, hi, r)
        if left is None or right is None:
            return _miss("bracketing grid point infeasible")
        if left["r"] != right["r"]:
            return _miss("bracketing grid points disagree on r")
        f0 = float(self.f_grid[lo])
        f1 = float(self.f_grid[hi])
        t = (f - f0) / (f1 - f0)
        inverse = (1.0 - t) / left["speedup"] + t / right["speedup"]
        values = dict(left)
        values["speedup"] = 1.0 / inverse
        return CellResult(
            outcome="interp",
            feasible=True,
            values=values,
            interpolation={
                "kind": "harmonic-f",
                "f_bracket": [f0, f1],
                "rel_error_bound": REL_ERROR_BOUND,
            },
        )
