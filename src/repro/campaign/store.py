"""Content-addressed on-disk result store for campaign tasks.

Every completed task's JSON payload lands at::

    <root>/<model-version>/<hash[:2]>/<hash>.json

keyed on the task's content hash (:func:`~repro.campaign.spec.task_hash`)
*and* the model version (:data:`repro._version.__version__`), so a
recalibrated or upgraded model never serves results computed by an
older one -- the version directory simply starts empty.

Durability properties:

* **Atomic writes** -- payloads are serialised to a temporary file in
  the destination directory and published with :func:`os.replace`, so
  a reader (or a resumed campaign) never observes a half-written
  entry, even if the writer is killed mid-write.
* **Corruption detection** -- each envelope embeds the SHA-256 of the
  canonical JSON of its result.  A torn, truncated, or bit-flipped
  file fails the checksum (or fails to parse at all) and is treated as
  a *miss*: the entry is quarantined (unlinked) and the task simply
  re-executes.  Corruption can degrade a resume back toward a cold
  run, but it can never produce a wrong result.
* **Exact statistics** -- hits, misses, writes, and corruptions are
  counted under a lock; the serving layer surfaces them in
  ``GET /metrics``.

The store is safe for concurrent writers on one filesystem (atomic
rename; last writer wins with an identical payload, since keys are
content hashes of deterministic computations).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

from .._version import __version__
from ..errors import ModelError
from ..obs.metrics import MetricsRegistry
from ..obs.metrics import get_registry as _global_registry
from ..obs.trace import get_tracer
from ..obs.stream import emit as emit_event
from .spec import canonical_json, sha256_text

__all__ = ["ResultStore", "StoreStats"]


class StoreStats(NamedTuple):
    """Counters for one store instance (since construction)."""

    hits: int
    misses: int
    writes: int
    corrupt: int


def _remove_tree(path: str, owner_pid: int) -> None:
    # A forked child inherits the finalizer; only the creator removes.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class ResultStore:
    """A content-addressed mapping from task hashes to JSON results.

    Args:
        directory: root of the store.  ``None`` creates a fresh
            private temporary directory on first use -- handy for
            one-shot campaigns and tests -- and removes it when the
            store is closed or collected, or at interpreter exit; pass
            a real path to make results durable across invocations (a
            given directory is never removed).
        model_version: the version dimension of the key; defaults to
            the running package's version.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        model_version: str = __version__,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._directory = Path(directory) if directory is not None else None
        self._ephemeral = directory is None
        self._cleanup: Optional[weakref.finalize] = None
        self.model_version = model_version
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._lease_events: Dict[str, int] = {}
        # Mirror every count into the shared obs registry (instruments
        # are get-or-create, so several stores simply add up there;
        # the per-instance fields above stay exact for stats()).
        self._events = (
            registry if registry is not None else _global_registry()
        ).counter(
            "repro_campaign_store_events_total",
            "Campaign result-store lookups and writes by result",
        )

    # -- layout ------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The store root (created on first access when ephemeral)."""
        if self._directory is None:
            path = tempfile.mkdtemp(prefix="repro-campaign-")
            self._directory = Path(path)
            self._cleanup = weakref.finalize(
                self, _remove_tree, path, os.getpid()
            )
        return self._directory

    def close(self) -> None:
        """Remove an ephemeral store's directory now; a store given a
        directory keeps it.  A closed ephemeral store that is used
        again starts over in a fresh temporary directory."""
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None
            self._directory = None

    @property
    def is_ephemeral(self) -> bool:
        """True when the store lives in a private temporary directory."""
        return self._ephemeral

    def path_for(self, task_hash: str) -> Path:
        """Where ``task_hash``'s result lives (may not exist yet)."""
        if len(task_hash) < 3:
            raise ModelError(f"malformed task hash {task_hash!r}")
        return (
            self.directory
            / self.model_version
            / task_hash[:2]
            / f"{task_hash}.json"
        )

    # -- read/write --------------------------------------------------------

    def get(self, task_hash: str) -> Optional[Any]:
        """The stored result for ``task_hash``, or None on a miss.

        A corrupt entry counts as both ``corrupt`` and ``miss``, is
        unlinked, and returns None so the caller re-executes the task.
        """
        path = self.path_for(task_hash)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            with self._lock:
                self._misses += 1
            self._events.inc(result="miss")
            return None
        result = self._verify(raw, task_hash)
        if result is None:
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            self._events.inc(result="corrupt")
            self._events.inc(result="miss")
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink is fine
                pass
            return None
        with self._lock:
            self._hits += 1
        self._events.inc(result="hit")
        return result

    def contains(self, task_hash: str) -> bool:
        """Existence check that does not touch the hit/miss counters."""
        return self.path_for(task_hash).exists()

    def put(self, task_hash: str, result: Any) -> Path:
        """Atomically persist ``result`` under ``task_hash``.

        The result must be JSON-representable (campaign payloads are);
        the envelope embeds a checksum over its canonical form.
        """
        with get_tracer().span("campaign.store.serialize"):
            body = canonical_json(result)
            # The canonical JSON of the envelope dict, spliced: its keys
            # sort in this order and ``body`` is already canonical, so
            # the result is encoded once, not twice plus a parse.
            envelope = (
                '{"checksum":' + canonical_json(sha256_text(body))
                + ',"model_version":' + canonical_json(self.model_version)
                + ',"result":' + body
                + ',"task_hash":' + canonical_json(task_hash) + "}"
            )
        path = self.path_for(task_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{task_hash[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(envelope)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self._writes += 1
        self._events.inc(result="write")
        return path

    def _verify(self, raw: str, task_hash: str) -> Optional[Any]:
        """Decode + checksum one envelope; None if anything is off."""
        try:
            envelope = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("task_hash") != task_hash:
            return None
        if envelope.get("model_version") != self.model_version:
            return None
        if "result" not in envelope or "checksum" not in envelope:
            return None
        body = canonical_json(envelope["result"])
        if sha256_text(body) != envelope["checksum"]:
            return None
        return envelope["result"]

    # -- maintenance -------------------------------------------------------

    def keys(self) -> List[str]:
        """Hashes stored under the current model version, sorted."""
        root = self.directory / self.model_version
        if not root.is_dir():
            return []
        return sorted(
            path.stem
            for path in root.glob("*/*.json")
        )

    def flush(self) -> None:
        """Force directory metadata to disk (writes are already synced)."""
        root = self.directory / self.model_version
        if not root.is_dir():
            return
        for directory in (root, *root.iterdir()):
            if not directory.is_dir():
                continue
            try:
                fd = os.open(directory, os.O_RDONLY)
            except OSError:  # pragma: no cover - platform-dependent
                continue
            try:
                os.fsync(fd)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            finally:
                os.close(fd)

    def stats(self) -> StoreStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return StoreStats(
                self._hits, self._misses, self._writes, self._corrupt
            )

    def stats_payload(self) -> Dict[str, int]:
        """The counters as a JSON-ready dict (``/metrics`` section)."""
        return dict(self.stats()._asdict())

    # -- event logs --------------------------------------------------------

    def event_log_path(self, stream: str) -> Path:
        """Where ``stream``'s durable event log lives (JSONL).

        Event logs ride in the store's version directory alongside the
        content-addressed results, so a campaign's full telemetry
        history shares the results' durability root.
        """
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in stream
        )
        if not safe:
            raise ModelError(f"malformed event stream name {stream!r}")
        return self.directory / self.model_version / "events" / f"{safe}.jsonl"

    def append_event_line(self, stream: str, line: str) -> None:
        """Append one canonical event line to ``stream``'s log.

        Lines are written exactly as published (plus a newline) so a
        replay from this log is byte-identical to the live feed.  The
        handle is opened per append: event volume is O(tasks) and the
        simplicity buys crash-consistency (a torn final line is
        skipped by :meth:`read_event_lines`).
        """
        path = self.event_log_path(stream)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def read_event_lines(self, stream: str, cursor: int = 0) -> List[str]:
        """Persisted event lines of ``stream`` with ``seq >= cursor``.

        Returns the canonical lines in order; a torn trailing line
        (crash mid-append) is silently dropped, matching the store's
        corruption-degrades-to-miss contract.
        """
        path = self.event_log_path(stream)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return []
        lines: List[str] = []
        for line in raw.splitlines():
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and int(doc.get("seq", -1)) >= cursor:
                lines.append(line)
        return lines

    # -- leases ------------------------------------------------------------

    def record_lease_event(self, event: str) -> None:
        """Count one lease lifecycle event (claimed/renewed/expired/...).

        Lease events share the store's event family
        (``repro_campaign_store_events_total{result="lease_<event>"}``)
        so one scrape covers the whole claim-execute-settle path, and
        are tallied per-instance for the campaign summary line.
        """
        with self._lock:
            self._lease_events[event] = self._lease_events.get(event, 0) + 1
        self._events.inc(result=f"lease_{event}")
        # Surface lease lifecycle on the ambient event stream (no-op
        # outside a streamed campaign).
        emit_event("lease.event", {"event": event})

    def lease_stats(self) -> Dict[str, int]:
        """Per-instance lease event counts (since construction)."""
        with self._lock:
            return dict(sorted(self._lease_events.items()))

    def __len__(self) -> int:
        return len(self.keys())
