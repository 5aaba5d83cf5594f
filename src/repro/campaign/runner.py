"""Campaign execution: retries, checkpoints, resume.

:class:`CampaignRunner` drains a :class:`~repro.campaign.spec.CampaignSpec`
in the calling thread (``serial``, the default), across a spawned
process pool (``process``), or cooperatively with other processes
sharing its store (``cluster``), persisting every completed task into
a :class:`~repro.campaign.store.ResultStore` *as it finishes* -- the
store is the checkpoint.  Killing a campaign at any point loses at
most the tasks currently in flight; re-running with ``resume=True``
answers finished tasks from the store (counted as ``cached``) and
executes only the remainder.  Because every task is a deterministic
pure function of its fields, a resumed campaign's results are
bit-identical to an uninterrupted run's.

Failure handling is per task: an exception inside a task is retried
up to ``retries`` times with exponential backoff
(``backoff_base_s * 2**attempt``, capped), and a task that exhausts
its retries is reported as ``failed`` without aborting the rest of
the campaign.

A runner built without a store checkpoints nothing: results stay in
the :class:`CampaignReport`, and no store entry, manifest or temp
directory is written (``repro-hetsim campaign`` without
``--store-dir``, and a tensor-store build given no store).

Alongside the store, the runner writes a *checkpoint manifest*
(``manifest-<spec_hash[:16]>.json`` at the store root): the spec, the
model version, and the hash of every completed task.  It is written
twice per run -- when the run starts (the tasks the store already
held) and when it ends, interrupted or not -- so a half-finished
campaign is inspectable without replaying it.  The manifest is
advisory: the fsync'd store entry is each task's checkpoint and the
only thing resume reads, and live progress is on the event stream.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._version import __version__
from ..errors import ModelError
from ..itrs.scenarios import get_scenario
from ..obs.metrics import get_registry
from ..obs.prof import FoldedProfile, acquire_sampler, release_sampler
from ..obs.stream import EventPublisher, bind_publisher, unbind_publisher
from ..obs.trace import get_tracer
from ..projection.engine import ProjectionResult, project
from ..projection.pareto import design_space_points, pareto_frontier
from ..projection.sensitivity import SensitivityConfig, run_sensitivity
from .spec import (
    CampaignSpec,
    CampaignTask,
    FigureTask,
    MaterializeTask,
    ParetoFrontTask,
    ParetoTask,
    SensitivityTask,
    SuccessiveHalvingTask,
    canonical_json,
    flat_asdict,
    task_hash,
)
from .store import ResultStore

__all__ = [
    "CampaignRunner",
    "CampaignReport",
    "TaskOutcome",
    "execute_task",
    "project_figure",
]

_EXECUTORS = ("serial", "process", "cluster")


def _spawn_context():
    """The start context of every campaign process pool.

    Always ``spawn``: ``fork`` would inherit locks, the metrics
    registry, and any event loop state, and makes Linux and macOS
    behave differently.  Pinning it keeps worker determinism
    identical across platforms (and matches the serving cluster's
    worker processes).  Imported here, so a process that runs no
    pool loads no ``multiprocessing``.
    """
    import multiprocessing

    return multiprocessing.get_context("spawn")


# -- task evaluation (module-level so it pickles into workers) -------------


def project_figure(task: FigureTask) -> ProjectionResult:
    """The projection behind one figure panel."""
    return project(
        task.workload,
        task.f,
        get_scenario(task.scenario),
        fft_size=task.fft_size,
        method=task.method,
    )


def _figure_payload(task: FigureTask) -> Dict[str, Any]:
    result = project_figure(task)
    series = []
    for line in result.series:
        cells = []
        for cell in line.cells:
            cells.append(
                {
                    "node": cell.node.label,
                    "node_nm": cell.node.node_nm,
                    "feasible": cell.point is not None,
                    "r": cell.point.r if cell.point else None,
                    "n": cell.point.n if cell.point else None,
                    "speedup": (
                        cell.point.speedup if cell.point else None
                    ),
                    "limiter": (
                        cell.limiter.value if cell.limiter else None
                    ),
                }
            )
        series.append(
            {
                "design": line.design.label,
                "short_label": line.design.short_label,
                "cells": cells,
            }
        )
    winner = result.winner()
    return {
        "kind": "figure",
        "task": flat_asdict(task),
        "nodes": result.node_labels(),
        "series": series,
        "winner": {
            "design": winner.design.short_label,
            "final_speedup": winner.final_speedup(),
        },
    }


def _pareto_payload(task: ParetoTask) -> Dict[str, Any]:
    points = design_space_points(
        task.workload,
        task.f,
        task.node_nm,
        get_scenario(task.scenario),
        fft_size=task.fft_size,
        r_max=task.r_max,
    )
    frontier = pareto_frontier(points)
    return {
        "kind": "pareto",
        "task": flat_asdict(task),
        "candidates": len(points),
        "frontier": [
            {
                "design": p.design.short_label,
                "r": p.r,
                "n": p.n,
                "speedup": p.speedup,
                "energy": p.energy,
            }
            for p in frontier
        ],
    }


def _sensitivity_payload(task: SensitivityTask) -> Dict[str, Any]:
    summary = run_sensitivity(
        task.workload,
        task.f,
        task.node_nm,
        get_scenario(task.scenario),
        fft_size=task.fft_size,
        config=SensitivityConfig(
            mu_sigma=task.mu_sigma,
            phi_sigma=task.phi_sigma,
            bandwidth_sigma=task.bandwidth_sigma,
            power_sigma=task.power_sigma,
            trials=task.trials,
            seed=task.seed,
        ),
        r_max=task.r_max,
    )
    payload: Dict[str, Any] = {
        "kind": "sensitivity",
        "task": flat_asdict(task),
    }
    payload.update(summary.payload())
    return payload


def execute_task(task: CampaignTask) -> Dict[str, Any]:
    """Evaluate one campaign task into its JSON-ready result payload.

    Deterministic: the payload depends only on the task's fields (and
    the model itself), never on wall-clock, ordering, or worker count.
    """
    if isinstance(task, FigureTask):
        return _figure_payload(task)
    if isinstance(task, ParetoTask):
        return _pareto_payload(task)
    if isinstance(task, SensitivityTask):
        return _sensitivity_payload(task)
    if isinstance(task, MaterializeTask):
        # Imported lazily: the tensorstore build path imports this
        # package back, so a top-level import would risk a cycle.
        from ..perf.tensorstore import materialize_task_payload

        return materialize_task_payload(task)
    if isinstance(task, ParetoFrontTask):
        # Lazy for the same reason: repro.dse imports campaign.spec.
        from ..dse.engine import execute_pareto_task

        return execute_pareto_task(task)
    if isinstance(task, SuccessiveHalvingTask):
        from ..dse.halving import execute_halving_task

        return execute_halving_task(task)
    raise ModelError(f"unknown campaign task type {type(task).__name__}")


def _run_with_retries(
    task: CampaignTask,
    retries: int,
    backoff_base_s: float,
    backoff_cap_s: float,
) -> Tuple[Dict[str, Any], int]:
    """``(payload, attempts)``; raises the last error when exhausted."""
    attempts = 0
    while True:
        attempts += 1
        try:
            return execute_task(task), attempts
        except Exception:
            if attempts > retries:
                raise
            delay = min(
                backoff_cap_s, backoff_base_s * (2 ** (attempts - 1))
            )
            if delay > 0:
                time.sleep(delay)


def _timed_run(
    task: CampaignTask,
    retries: int,
    backoff_base_s: float,
    backoff_cap_s: float,
) -> Tuple[Dict[str, Any], int, float]:
    """``(payload, attempts, started_unix)`` -- the worker-side entry.

    ``started_unix`` is stamped when the worker actually picks the
    task up; the parent subtracts its own submit timestamp to expose
    queue wait on the task's span.  Wall-clock is the one clock both
    sides of a process pool share.
    """
    started_unix = time.time()
    payload, attempts = _run_with_retries(
        task, retries, backoff_base_s, backoff_cap_s
    )
    return payload, attempts, started_unix


def _manifest_renderer(
    head: Dict[str, Any],
) -> Callable[[Sequence[str]], str]:
    """The checkpoint manifest's text as a function of the completed
    hashes: ``json.dumps(dict(head, completed=sorted(completed)),
    indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``completed`` sorts before every key of ``head``, so ``head`` is
    encoded once per run and each write splices only the sorted list
    in front of it (``indent`` forces the pure-Python encoder).
    """
    rest = json.dumps(head, indent=2, sort_keys=True)[1:]

    def render(completed: Sequence[str]) -> str:
        items = ",\n".join(
            f"    {json.dumps(digest)}" for digest in sorted(completed)
        )
        listed = f"[\n{items}\n  ]" if items else "[]"
        return '{\n  "completed": ' + listed + "," + rest + "\n"

    return render


# -- outcomes and reports --------------------------------------------------


@dataclass(frozen=True)
class TaskOutcome:
    """How one task of a campaign concluded.

    ``status`` is ``"executed"`` (freshly computed this run),
    ``"cached"`` (answered by the result store), or ``"failed"``
    (retries exhausted; ``error`` holds the message and ``result`` is
    None).
    """

    task: CampaignTask
    hash: str
    status: str
    result: Optional[Dict[str, Any]] = None
    attempts: int = 0
    error: Optional[str] = None
    #: Telemetry linkage, filled in at settle time: the task's
    #: ``campaign.task`` span identity and its submit-to-settle wall
    #: time.  None for outcomes produced outside a traced runner.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    duration_ms: Optional[float] = None


@dataclass
class CampaignReport:
    """Everything a finished (or failed) campaign run produced."""

    spec: CampaignSpec
    outcomes: List[TaskOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "executed")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def results(self) -> Dict[CampaignTask, Dict[str, Any]]:
        """Successful results keyed by task, in spec order."""
        return {
            o.task: o.result
            for o in self.outcomes
            if o.result is not None
        }

    def results_json(self) -> str:
        """Canonical JSON of the ordered results (bit-comparable)."""
        return canonical_json(
            [o.result for o in self.outcomes if o.result is not None]
        )


# -- the runner ------------------------------------------------------------


class CampaignRunner:
    """Execute campaign specs durably.

    Args:
        store: result store used for checkpointing and resume; with
            ``None`` the run checkpoints nothing (results live only in
            the report, and :meth:`manifest_path` raises
            :class:`~repro.errors.ModelError`).  The ``cluster``
            executor needs a durable one.
        workers: the ``process`` pool's width; ``None`` uses the CPU
            count, ``1`` runs the tasks serially.  Other executors
            ignore it.
        executor: ``"serial"`` (default) runs one task at a time in
            the calling thread; ``"process"`` spreads tasks across a
            spawned process pool, which repays its start-up (about
            0.7 s on two CPUs) only from a few seconds of serial work;
            ``"cluster"`` drains the spec cooperatively with any other
            ``--join`` process pointed at the same durable store (see
            :mod:`repro.cluster.executor`).
        lease_ttl_s: cluster executor only -- how long a claimed
            task's lease may go without a heartbeat before a peer may
            take it over.
        retries: per-task retry budget on top of the first attempt.
        backoff_base_s / backoff_cap_s: exponential-backoff schedule
            between attempts (``base * 2**attempt``, capped).
        resume: when True (default), tasks whose results are already
            in the store are *not* re-executed.
        progress: optional callback invoked after every settled task
            with ``(outcome, done_count, total_count)``; exceptions in
            the callback are the caller's problem (it runs inline).
        events: optional :class:`~repro.obs.stream.EventPublisher`
            bound as the ambient :func:`~repro.obs.stream.emit` target
            for the duration of the run, so nested code (DSE rungs,
            store lease accounting) publishes onto the campaign's
            event stream.  Serial and cluster tasks run in the thread
            that bound it; process-pool workers cannot publish live
            events across the process boundary (their settle events
            still stream -- settling happens in the parent).
        profile: when True (default), hold the shared process sampler
            (:func:`~repro.obs.prof.acquire_sampler`) for the run's
            duration; the run's window lands on :attr:`last_profile`
            tagged with the ``campaign.run`` trace id, and every
            ``campaign.task`` settle span carries the sampler ticks
            it consumed (``profile.samples``).  Sampling is strictly
            parent-side: spawn-pinned process-pool workers never run
            a sampler thread, so their stacks show up as the parent's
            pool-wait frames, not the task bodies.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        executor: str = "serial",
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        resume: bool = True,
        progress: Optional[
            Callable[[TaskOutcome, int, int], None]
        ] = None,
        lease_ttl_s: float = 10.0,
        events: Optional[EventPublisher] = None,
        profile: bool = True,
    ):
        if executor not in _EXECUTORS:
            raise ModelError(
                f"unknown executor {executor!r}; "
                f"expected one of {_EXECUTORS}"
            )
        if workers is not None and workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ModelError(f"retries must be >= 0, got {retries}")
        if lease_ttl_s <= 0:
            raise ModelError(
                f"lease_ttl_s must be positive, got {lease_ttl_s}"
            )
        if executor == "cluster" and (store is None or store.is_ephemeral):
            raise ModelError(
                "cluster executor needs a durable store directory "
                "shared with the joined peers (pass --store-dir)"
            )
        self.store = store
        self.workers = (
            workers if workers is not None else (os.cpu_count() or 1)
        )
        self.executor = executor
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.resume = resume
        self.progress = progress
        self.lease_ttl_s = lease_ttl_s
        self.events = events
        self.profile = profile
        #: The sampled profile of the most recent :meth:`run` window
        #: (None before the first run or when ``profile=False``).
        self.last_profile: Optional[FoldedProfile] = None
        self._sampler = None
        self._task_counter = get_registry().counter(
            "repro_campaign_tasks_total",
            "Campaign task outcomes by status",
        )

    # -- manifest ----------------------------------------------------------

    def manifest_path(self, spec: CampaignSpec) -> Path:
        """Where the checkpoint manifest for ``spec`` lives.

        Raises :class:`~repro.errors.ModelError` on a runner without a
        store, which writes no manifest.
        """
        if self.store is None:
            raise ModelError(
                "a campaign runner without a result store writes no "
                "checkpoint manifest"
            )
        return self._manifest_path(spec.spec_hash())

    def _manifest_path(self, spec_hash: str) -> Path:
        return self.store.directory / f"manifest-{spec_hash[:16]}.json"

    @staticmethod
    def _write_manifest(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # A private temp name, not path.with_suffix(".tmp"): joined
        # cluster processes checkpoint the same manifest concurrently,
        # and a shared tmp name lets one replace() steal the other's
        # file out from under it.
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent),
            prefix=f".{path.name}-",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _checkpointer(
        self,
        spec: CampaignSpec,
        spec_hash: str,
        hashes: Sequence[str],
    ) -> Callable[[Sequence[str]], None]:
        """The run's manifest writer, called with the completed hashes;
        without a store, one that writes nothing."""
        if self.store is None:
            return lambda completed: None
        # The manifest's fixed part, derived and encoded once for the
        # run's two manifest writes.
        path = self._manifest_path(spec_hash)
        render = _manifest_renderer(
            {
                "spec": spec.payload(),
                "spec_hash": spec_hash,
                "model_version": __version__,
                "total": len(hashes),
                "tasks": list(hashes),
            }
        )
        return lambda completed: self._write_manifest(
            path, render(completed)
        )

    def read_manifest(self, spec: CampaignSpec) -> Optional[Dict[str, Any]]:
        """The last checkpoint manifest for ``spec``, if any (None on a
        runner without a store)."""
        if self.store is None:
            return None
        try:
            raw = self.manifest_path(spec).read_text(encoding="utf-8")
            return json.loads(raw)
        except (OSError, ValueError):
            return None

    # -- execution ---------------------------------------------------------

    def run(self, spec: CampaignSpec) -> CampaignReport:
        """Drain ``spec``: resume from the store, execute the rest.

        Completed tasks are persisted to the store as they finish, so
        an interrupted run checkpoints everything that completed before
        the interruption.  The manifest is written when the run starts
        and once more when it ends, even when it ends by an exception.
        Without a store, nothing is read or written.

        Tracing: the whole run is one ``campaign.run`` span -- joined
        to the submitting request's trace when the caller attached one
        (``POST /v1/jobs``), a fresh trace otherwise (the CLI) -- and
        every task settles as a ``campaign.task`` child carrying its
        status, attempts, and queue wait.
        """
        start = time.perf_counter()
        tasks = spec.tasks()
        hashes = [task_hash(task) for task in tasks]
        spec_hash = spec.spec_hash()
        checkpoint = self._checkpointer(spec, spec_hash, hashes)
        sampler = acquire_sampler() if self.profile else None
        self._sampler = sampler
        window = sampler.mark() if sampler is not None else None
        try:
            with get_tracer().span(
                "campaign.run",
                attributes={
                    "spec_hash": spec_hash[:16],
                    "executor": self.executor,
                    "total": len(tasks),
                },
            ) as root:
                token = (
                    bind_publisher(self.events)
                    if self.events is not None
                    else None
                )
                try:
                    report = self._execute(
                        spec, tasks, hashes, checkpoint
                    )
                finally:
                    if token is not None:
                        unbind_publisher(token)
                root.set_attribute("executed", report.executed)
                root.set_attribute("cached", report.cached)
                root.set_attribute("failed", report.failed)
                if not report.ok:
                    root.status = "error"
                if sampler is not None and window is not None:
                    self.last_profile = sampler.window_since(
                        window, trace_id=root.trace_id
                    )
                    root.set_attribute(
                        "profile.samples", self.last_profile.samples
                    )
        finally:
            self._sampler = None
            if sampler is not None:
                release_sampler()
        report.elapsed_s = time.perf_counter() - start
        return report

    def _execute(
        self,
        spec: CampaignSpec,
        tasks: Sequence[CampaignTask],
        hashes: Sequence[str],
        checkpoint: Callable[[Sequence[str]], None],
    ) -> CampaignReport:
        outcomes: Dict[str, TaskOutcome] = {}
        completed: List[str] = []

        pending: List[Tuple[CampaignTask, str]] = []
        lookup = self.resume and self.store is not None
        for task, digest in zip(tasks, hashes):
            hit = self.store.get(digest) if lookup else None
            if hit is not None:
                outcomes[digest] = TaskOutcome(
                    task=task, hash=digest, status="cached", result=hit
                )
                completed.append(digest)
                self._task_counter.inc(status="cached")
                span = self._task_span(outcomes[digest])
                span.finish()
                outcomes[digest] = self._enrich(outcomes[digest], span)
            else:
                pending.append((task, digest))

        checkpoint(completed)
        total = len(tasks)
        # Settle-to-settle sampler tick deltas: how many profiler
        # samples elapsed while this task was the newest thing to
        # finish.  Coarse by design -- tasks overlap in a pool -- but
        # it ties the folded profile's time axis to task cadence.
        last_tick = [
            self._sampler.samples if self._sampler is not None else 0
        ]

        def _settle(
            outcome: TaskOutcome,
            submitted: Optional[Tuple[float, float]] = None,
            started_unix: Optional[float] = None,
        ) -> None:
            span = self._task_span(outcome, submitted, started_unix)
            if self._sampler is not None:
                tick = self._sampler.samples
                span.set_attribute(
                    "profile.samples", tick - last_tick[0]
                )
                last_tick[0] = tick
            with span:
                if outcome.status == "failed":
                    span.status = "error"
                if outcome.result is not None:
                    if self.store is not None:
                        # store.put's serialize phase nests under the
                        # task span via the attached context.
                        self.store.put(outcome.hash, outcome.result)
                    completed.append(outcome.hash)
            # Enrich after the span closed so the outcome carries the
            # final duration; the span is backdated to submit, making
            # duration_ms submit-to-settle wall time.
            outcome = self._enrich(outcome, span)
            outcomes[outcome.hash] = outcome
            self._task_counter.inc(status=outcome.status)
            if self.progress is not None:
                self.progress(outcome, len(outcomes), total)

        if self.progress is not None:
            done = 0
            for outcome in outcomes.values():
                done += 1
                self.progress(outcome, done, total)

        try:
            if pending:
                workers = min(self.workers, len(pending))
                if self.executor == "cluster":
                    # Imported lazily: repro.cluster pulls in the
                    # serving stack, which imports this module back.
                    from ..cluster.executor import run_cluster_pending

                    run_cluster_pending(self, pending, _settle)
                elif workers == 1 or self.executor == "serial":
                    self._run_serial(pending, _settle)
                else:
                    self._run_pooled(pending, workers, _settle)
        finally:
            # The store entry is each task's checkpoint; the manifest
            # records the run's outcome once, interrupted or not.
            checkpoint(completed)

        return CampaignReport(
            spec=spec,
            outcomes=[outcomes[digest] for digest in hashes],
        )

    @staticmethod
    def _enrich(outcome: TaskOutcome, span) -> TaskOutcome:
        """Stamp the settle span's identity and duration on an outcome."""
        duration_ms = (
            round(span.duration_s * 1e3, 6)
            if span.duration_s is not None
            else None
        )
        return replace(
            outcome,
            trace_id=span.trace_id,
            span_id=span.span_id,
            duration_ms=duration_ms,
        )

    def _task_span(
        self,
        outcome: TaskOutcome,
        submitted: Optional[Tuple[float, float]] = None,
        started_unix: Optional[float] = None,
    ):
        """One task's settle span, backdated to its submit instant."""
        span = get_tracer().span(
            "campaign.task",
            attributes={
                "hash": outcome.hash[:16],
                "kind": outcome.task.kind,
                "status": outcome.status,
                "attempts": outcome.attempts,
            },
        )
        if submitted is not None:
            span.backdate(*submitted)
            if started_unix is not None:
                span.set_attribute(
                    "queue_wait_ms",
                    round(
                        max(0.0, started_unix - submitted[0]) * 1e3, 3
                    ),
                )
        return span

    def _attempt(
        self, task: CampaignTask
    ) -> Tuple[Dict[str, Any], int, float]:
        return _timed_run(
            task, self.retries, self.backoff_base_s, self.backoff_cap_s
        )

    def _run_serial(
        self,
        pending: Sequence[Tuple[CampaignTask, str]],
        settle: Callable[..., None],
    ) -> None:
        for task, digest in pending:
            submitted = (time.time(), time.perf_counter())
            outcome, started_unix = self._outcome_for(
                task, digest, self._attempt
            )
            settle(outcome, submitted, started_unix)

    def _run_pooled(
        self,
        pending: Sequence[Tuple[CampaignTask, str]],
        workers: int,
        settle: Callable[..., None],
    ) -> None:
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_spawn_context()
        ) as pool:
            futures = {}
            for task, digest in pending:
                future = pool.submit(
                    _timed_run,
                    task,
                    self.retries,
                    self.backoff_base_s,
                    self.backoff_cap_s,
                )
                futures[future] = (
                    task,
                    digest,
                    (time.time(), time.perf_counter()),
                )
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in done:
                    task, digest, submitted = futures[future]
                    outcome, started_unix = self._outcome_for(
                        task, digest, lambda _t: future.result()
                    )
                    settle(outcome, submitted, started_unix)

    def _outcome_for(
        self,
        task: CampaignTask,
        digest: str,
        attempt: Callable[
            [CampaignTask], Tuple[Dict[str, Any], int, float]
        ],
    ) -> Tuple[TaskOutcome, Optional[float]]:
        try:
            payload, attempts, started_unix = attempt(task)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            return (
                TaskOutcome(
                    task=task,
                    hash=digest,
                    status="failed",
                    attempts=self.retries + 1,
                    error=f"{type(exc).__name__}: {exc}",
                ),
                None,
            )
        return (
            TaskOutcome(
                task=task,
                hash=digest,
                status="executed",
                result=payload,
                attempts=attempts,
            ),
            started_unix,
        )
