"""Async campaign jobs for the serving layer.

:class:`JobManager` runs campaigns *off the request path*: the service
answers ``POST /v1/jobs`` immediately with a queued
:class:`JobRecord`, a dedicated background thread per job drains the
campaign serially through a
:class:`~repro.campaign.runner.CampaignRunner` (so tasks settle in
spec order, and the request event loop never blocks on them), and
``GET /v1/jobs/{id}`` polls progress until the job settles.

All jobs of one manager share one
:class:`~repro.campaign.store.ResultStore`, so a re-submitted spec --
after a crash, a redeploy, or an identical request from another
client -- resumes instead of recomputing; the store's hit/miss
counters surface in ``GET /metrics``.

Thread safety: records are mutated only under the manager lock and
exposed to the event loop via snapshot payloads, never live objects.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..obs.context import (
    SpanContext,
    attach,
    current_context,
    detach,
    extract,
    inject,
    new_span_id,
    new_trace_id,
)
from ..obs.metrics import MetricsRegistry, percentile
from ..obs.stream import EventBus, EventPublisher
from .store import ResultStore

if TYPE_CHECKING:
    from .runner import TaskOutcome
    from .spec import CampaignSpec

__all__ = ["JobState", "JobRecord", "JobManager"]


class JobState:
    """The lifecycle states of a campaign job (string constants)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    TERMINAL = (SUCCEEDED, FAILED)


@dataclass
class JobRecord:
    """One submitted campaign and its observable progress."""

    job_id: str
    spec: CampaignSpec
    state: str = JobState.QUEUED
    #: The ``X-Request-Id`` of the submitting request, when the job
    #: arrived over HTTP; correlates the job with access logs/spans.
    request_id: Optional[str] = None
    #: The submitting request's trace id; the job's campaign spans
    #: join this trace.
    trace_id: Optional[str] = None
    created_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    total: int = 0
    done: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    error: Optional[str] = None
    #: Per-task summaries (hash/kind/status), filled as tasks settle.
    tasks: List[Dict[str, Any]] = field(default_factory=list)
    #: Full result payloads, present once the job succeeds.
    results: Optional[List[Dict[str, Any]]] = None
    #: Submit-to-settle wall times of settled tasks (ms), in settle
    #: order; feeds the ``task_ms`` percentiles in the job payload.
    durations_ms: List[float] = field(default_factory=list)


class JobManager:
    """Submit, execute, and observe campaign jobs.

    Args:
        store: shared result store; ``None`` builds one rooted at
            ``store_dir`` (or an ephemeral temp directory).
        store_dir: root for a manager-owned store when ``store`` is
            not given.
        registry: counts job lifecycle events
            (``repro_service_jobs_total``) and backs a manager-owned
            store; ``None`` keeps the job counts private.
        events: optional :class:`~repro.obs.stream.EventBus`; when
            given, every job publishes its lifecycle (queued, started,
            task settles/retries, finished) onto a stream named after
            its ``job_id``, durably mirrored into the result store's
            event log so cursor-0 replay survives retention trims.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        store_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
    ):
        self.store = (
            store
            if store is not None
            else ResultStore(store_dir, registry=registry)
        )
        self._lifecycle = (
            registry if registry is not None else MetricsRegistry()
        ).counter(
            "repro_service_jobs_total",
            "Campaign job lifecycle events by state",
        )
        self.events = events
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._seq = 0
        self._threads: List[threading.Thread] = []
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(
        self, spec: CampaignSpec, request_id: Optional[str] = None
    ) -> JobRecord:
        """Queue a campaign; returns the (already-registered) record.

        The submitting request's trace context (when there is one) is
        captured here and re-installed in the job thread, so the
        campaign's spans land in the submitting request's trace.
        """
        total = len(spec.tasks())  # validate eagerly: bad specs fail the POST
        context = current_context()
        if context is None:
            # No submitting request span (direct library use): mint a
            # root context so the job still gets exactly one trace the
            # stream's events and the campaign spans share.
            context = SpanContext(
                trace_id=new_trace_id(), span_id=new_span_id()
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is closed")
            self._seq += 1
            job_id = f"job-{self._seq:04d}-{spec.spec_hash()[:8]}"
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                request_id=request_id,
                trace_id=context.trace_id,
                total=total,
            )
            self._jobs[job_id] = record
            self._order.append(job_id)
            thread = threading.Thread(
                target=self._run, args=(record, inject(context)),
                name=f"repro-job-{self._seq}", daemon=True,
            )
            self._threads.append(thread)
        if self.events is not None:
            self.events.attach_store(
                job_id,
                sink=lambda line, _s=job_id: (
                    self.store.append_event_line(_s, line)
                ),
                reader=lambda cursor, _s=job_id: (
                    self.store.read_event_lines(_s, cursor)
                ),
            )
            self.events.publish(
                job_id,
                "job.queued",
                data={
                    "spec_hash": spec.spec_hash(),
                    "total": total,
                    "request_id": request_id,
                },
                trace_id=record.trace_id,
            )
        self._lifecycle.inc(state=JobState.QUEUED)
        thread.start()
        return record

    def _run(
        self, record: JobRecord, carrier: Optional[Dict[str, str]] = None
    ) -> None:
        # Re-install the submitting request's trace context: the job
        # thread was spawned bare, so the carrier is explicit.
        token = attach(extract(carrier)) if carrier else None
        try:
            self._run_traced(record)
        finally:
            if token is not None:
                detach(token)

    def _run_traced(self, record: JobRecord) -> None:
        # Imported here: a server that runs no job loads no campaign
        # engine (its submit path validates through the spec alone).
        from .runner import CampaignRunner

        with self._lock:
            record.state = JobState.RUNNING
            record.started_unix = time.time()
        publisher: Optional[EventPublisher] = None
        if self.events is not None:
            publisher = EventPublisher(
                bus=self.events,
                stream=record.job_id,
                trace_id=record.trace_id,
            )
            publisher.publish(
                "job.started", data={"total": record.total}
            )

        def _progress(outcome: TaskOutcome, done: int, total: int) -> None:
            with self._lock:
                record.total = total
                record.done = done
                record.executed += outcome.status == "executed"
                record.cached += outcome.status == "cached"
                record.failed += outcome.status == "failed"
                record.tasks.append(
                    {
                        "hash": outcome.hash,
                        "kind": outcome.task.kind,
                        "status": outcome.status,
                        "attempts": outcome.attempts,
                        "error": outcome.error,
                        "span_id": outcome.span_id,
                        "duration_ms": outcome.duration_ms,
                    }
                )
                if outcome.duration_ms is not None:
                    record.durations_ms.append(outcome.duration_ms)
            if publisher is not None:
                if outcome.attempts > 1:
                    publisher.publish(
                        "task.retry",
                        data={
                            "hash": outcome.hash,
                            "attempts": outcome.attempts,
                            "status": outcome.status,
                        },
                        span_id=outcome.span_id,
                        trace_id=outcome.trace_id,
                    )
                data: Dict[str, Any] = {
                    "hash": outcome.hash,
                    "kind": outcome.task.kind,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "duration_ms": outcome.duration_ms,
                    "done": done,
                    "total": total,
                }
                if outcome.error is not None:
                    data["error"] = outcome.error
                publisher.publish(
                    "task.settled",
                    data=data,
                    span_id=outcome.span_id,
                    trace_id=outcome.trace_id,
                )

        runner = CampaignRunner(
            store=self.store, progress=_progress, events=publisher
        )
        try:
            report = runner.run(record.spec)
        except Exception as exc:  # job-level failure (not per-task)
            with self._lock:
                record.state = JobState.FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                record.finished_unix = time.time()
            self._finish_stream(record, publisher)
            self._lifecycle.inc(state=JobState.FAILED)
            return
        with self._lock:
            record.finished_unix = time.time()
            record.total = len(report.outcomes)
            record.done = len(report.outcomes)
            if report.ok:
                record.state = JobState.SUCCEEDED
                record.results = [o.result for o in report.outcomes]
            else:
                record.state = JobState.FAILED
                record.error = (
                    f"{report.failed} of {len(report.outcomes)} tasks "
                    f"failed"
                )
        self._finish_stream(record, publisher)
        self._lifecycle.inc(state=record.state)

    def _finish_stream(
        self, record: JobRecord, publisher: Optional[EventPublisher]
    ) -> None:
        """Publish the terminal ``job.finished`` event and close."""
        if publisher is None:
            return
        with self._lock:
            data = {
                "state": record.state,
                "done": record.done,
                "total": record.total,
                "executed": record.executed,
                "cached": record.cached,
                "failed": record.failed,
                "error": record.error,
            }
        publisher.publish("job.finished", data=data)
        publisher.bus.close(record.job_id)

    # -- observation -------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def payload(
        self, record: JobRecord, include_results: bool = True
    ) -> Dict[str, Any]:
        """A JSON-ready snapshot of one job."""
        with self._lock:
            payload = {
                "job_id": record.job_id,
                "state": record.state,
                "request_id": record.request_id,
                "trace_id": record.trace_id,
                "spec": record.spec.payload(),
                "spec_hash": record.spec.spec_hash(),
                "created_unix": record.created_unix,
                "started_unix": record.started_unix,
                "finished_unix": record.finished_unix,
                "progress": {
                    "total": record.total,
                    "done": record.done,
                    "executed": record.executed,
                    "cached": record.cached,
                    "failed": record.failed,
                },
                "tasks": list(record.tasks),
                "error": record.error,
            }
            if record.durations_ms:
                samples = sorted(record.durations_ms)
                payload["task_ms"] = {
                    "count": len(samples),
                    "p50": round(percentile(samples, 0.5), 6),
                    "p90": round(percentile(samples, 0.9), 6),
                    "p99": round(percentile(samples, 0.99), 6),
                    "max": round(samples[-1], 6),
                }
            if include_results and record.results is not None:
                payload["results"] = record.results
            if self.events is not None:
                # The cursor a poller-turned-streamer should subscribe
                # from to see only what this snapshot does not already
                # show.
                payload["events_cursor"] = self.events.cursor(
                    record.job_id
                )
            return payload

    def list_payload(self) -> List[Dict[str, Any]]:
        """Snapshots of every job, oldest first, without results."""
        with self._lock:
            order = list(self._order)
        return [
            self.payload(self._jobs[job_id], include_results=False)
            for job_id in order
        ]

    def stats(self) -> Dict[str, Any]:
        """The ``/metrics`` section: job states + store counters."""
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            total = len(self._jobs)
        return {
            "total": total,
            "states": states,
            "store": self.store.stats_payload(),
        }

    # -- lifecycle ---------------------------------------------------------

    def is_open(self) -> bool:
        """True while the manager still accepts job submissions."""
        with self._lock:
            return not self._closed

    def store_ok(self) -> bool:
        """True when the result store's root is usable on disk.

        The readiness half of ``GET /healthz``: a store whose volume
        vanished means accepted jobs would lose their checkpoints.
        A root that does not exist yet is fine as long as its nearest
        existing ancestor is a writable directory (``put`` creates
        the rest on demand).
        """
        try:
            root = self.store.directory
        except OSError:
            return False
        if root.is_dir():
            return os.access(root, os.W_OK)
        parent = root.parent
        while not parent.exists() and parent != parent.parent:
            parent = parent.parent
        return parent.is_dir() and os.access(parent, os.W_OK)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every job thread; True when all have finished."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True

    def close(self, drain_timeout_s: float = 5.0) -> None:
        """Stop accepting jobs, drain the running ones, flush the store.

        Jobs still running after ``drain_timeout_s`` are abandoned (the
        store keeps whatever they checkpointed, so a restart resumes
        them); idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.join(timeout=drain_timeout_s)
        self.store.flush()
