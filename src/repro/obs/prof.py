"""repro.obs.prof -- a zero-dependency continuous sampling profiler.

The paper asks where a chip's area budget should go; the runtime twin
of that question is where wall-time actually goes across the scalar
optimizer, the batched grid, the tensor store, and the cluster
fleet.  Spans answer it coarsely (:func:`repro.obs.trace.phase_totals`
per span name); this module answers it at frame granularity:

* :class:`StackSampler` -- a daemon background thread that walks
  ``sys._current_frames()`` at a configurable rate (default
  :data:`DEFAULT_HZ`) and aggregates each observed thread stack into
  collapsed ``module:func:line`` call chains.
* :class:`FoldedProfile` -- an aggregated profile in the folded-stack
  interchange format (``frame;frame;frame count`` per line) consumed
  by ``flamegraph.pl`` and speedscope, with merge/diff-friendly
  per-frame self-time accounting.
* A process-global, refcounted sampler (:func:`acquire_sampler` /
  :func:`release_sampler`) so that every plane that wants sampling on
  (the service, a campaign, the CLI) shares ONE background thread.
* Phase tagging: while sampling is live, entering a span
  (:class:`repro.obs.trace.Span`) off an event-loop thread pushes its
  name for the current thread and sampled stacks gain a leading
  ``phase:<name>`` frame, so folded output decomposes by the same span
  names the traces use.

Everything is stdlib-only; the sampler is injectable (clock and frame
provider) so tests drive it deterministically without threads.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .metrics import get_registry

__all__ = [
    "DEFAULT_HZ",
    "FoldedProfile",
    "StackSampler",
    "acquire_sampler",
    "release_sampler",
    "get_sampler",
    "push_phase",
    "pop_phase",
    "tagging_active",
]

#: Default sampling rate.  67 Hz is deliberately not a divisor of
#: common periodic work (10/50/100 Hz timers) so samples do not alias
#: with scheduler ticks, and costs well under 1% of one core.
DEFAULT_HZ = 67.0

#: Frames deeper than this are truncated (root-most frames dropped) so
#: a pathological recursion cannot bloat the profile unboundedly.
DEFAULT_MAX_DEPTH = 64

Stack = Tuple[str, ...]

# ---------------------------------------------------------------------------
# Phase tagging (driven by repro.obs.trace.Span enter/exit)
# ---------------------------------------------------------------------------

#: Per-thread stack of active phase names.  Only the owning thread
#: writes its own list (GIL-atomic append/pop); the sampler thread
#: reads racily and tolerates concurrent mutation.
_PHASES: Dict[int, List[str]] = {}

#: True while at least one sampler is running; lets a span skip the
#: tagging dict entirely when nothing is listening.
_TAGGING = False


def tagging_active() -> bool:
    """True when a live sampler wants phase tags pushed."""
    return _TAGGING


def push_phase(name: str) -> None:
    """Mark the current thread as inside phase ``name``."""
    ident = threading.get_ident()
    stack = _PHASES.get(ident)
    if stack is None:
        stack = _PHASES[ident] = []
    stack.append(name)


def pop_phase() -> None:
    """Leave the innermost phase on the current thread."""
    ident = threading.get_ident()
    stack = _PHASES.get(ident)
    if stack:
        stack.pop()
    if not stack:
        _PHASES.pop(ident, None)


def _current_phase(ident: int) -> Optional[str]:
    """Racily read the innermost phase tag for a thread."""
    try:
        stack = _PHASES.get(ident)
        return stack[-1] if stack else None
    except (IndexError, RuntimeError):  # concurrent pop/resize
        return None


# ---------------------------------------------------------------------------
# Folded profiles
# ---------------------------------------------------------------------------


def frame_label(frame: Any) -> str:
    """``module:func:line`` for one frame object (duck-typed)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}:{frame.f_lineno}"


def collect_stack(frame: Any, max_depth: int = DEFAULT_MAX_DEPTH) -> Stack:
    """The call chain of ``frame``, root-first, depth-bounded.

    When the stack is deeper than ``max_depth`` the *root-most* frames
    are dropped (the leaf is where self-time attribution lives).
    """
    labels: List[str] = []
    while frame is not None and len(labels) < max_depth + 1:
        labels.append(frame_label(frame))
        frame = frame.f_back
    del labels[max_depth:]
    labels.reverse()
    return tuple(labels)


def strip_line(label: str) -> str:
    """``module:func`` from a ``module:func:line`` frame label.

    Phase and worker marker frames (``phase:x``, ``worker:w1``) have
    no line component and pass through unchanged.
    """
    parts = label.rsplit(":", 2)
    if len(parts) == 3 and parts[2].isdigit():
        return f"{parts[0]}:{parts[1]}"
    return label


class FoldedProfile:
    """An aggregated stack profile in folded (collapsed) form.

    ``counts`` maps root-first frame tuples to sample counts.  The
    text rendering -- one ``frame;frame;frame count`` line per unique
    stack, sorted -- is the interchange format of ``flamegraph.pl``
    and speedscope ("collapsed stacks").  ``hz`` converts counts to
    seconds; ``worker`` / ``trace_id`` attribute the window to a fleet
    member and a campaign trace.
    """

    __slots__ = ("counts", "samples", "hz", "duration_s", "worker", "trace_id")

    def __init__(
        self,
        counts: Optional[Dict[Stack, int]] = None,
        samples: int = 0,
        hz: float = DEFAULT_HZ,
        duration_s: float = 0.0,
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.counts: Dict[Stack, int] = dict(counts or {})
        self.samples = int(samples)
        self.hz = float(hz)
        self.duration_s = float(duration_s)
        self.worker = worker
        self.trace_id = trace_id

    # -- construction ----------------------------------------------------

    def add_stack(self, stack: Iterable[str], count: int = 1) -> None:
        key = tuple(stack)
        if not key:
            return
        self.counts[key] = self.counts.get(key, 0) + count

    def merge(
        self, other: "FoldedProfile", prefix: Optional[str] = None
    ) -> "FoldedProfile":
        """Fold ``other`` into this profile (in place; returns self).

        ``prefix`` (e.g. ``worker:w1``) is prepended as a synthetic
        root frame so merged fleet profiles keep per-worker
        attribution inside the flamegraph itself.
        """
        for stack, count in other.counts.items():
            key = (prefix,) + stack if prefix else stack
            self.counts[key] = self.counts.get(key, 0) + count
        self.samples += other.samples
        self.duration_s = max(self.duration_s, other.duration_s)
        return self

    # -- rendering -------------------------------------------------------

    def folded_lines(self) -> List[str]:
        """Deterministic folded-stack lines, lexicographically sorted."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.counts.items())
        ]

    def to_text(self) -> str:
        return "\n".join(self.folded_lines()) + ("\n" if self.counts else "")

    # -- analysis --------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Per-frame self-time in seconds, keyed ``module:func``.

        Self-time belongs to the leaf frame of each sampled stack; the
        line number is stripped so the key is stable across runs that
        shift code by a few lines.
        """
        per_sample = 1.0 / self.hz if self.hz > 0 else 0.0
        totals: Dict[str, float] = {}
        for stack, count in self.counts.items():
            leaf = strip_line(stack[-1])
            totals[leaf] = totals.get(leaf, 0.0) + count * per_sample
        return totals

    def total_seconds(self) -> float:
        per_sample = 1.0 / self.hz if self.hz > 0 else 0.0
        return sum(self.counts.values()) * per_sample

    def top_self(self, n: int = 10) -> List[Dict[str, Any]]:
        """The ``n`` frames with the most self-time, descending."""
        total = self.total_seconds()
        ranked = sorted(
            self.self_seconds().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            {
                "frame": frame,
                "self_s": round(seconds, 6),
                "self_pct": round(100.0 * seconds / total, 2)
                if total > 0
                else 0.0,
            }
            for frame, seconds in ranked[:n]
        ]

    # -- interchange -----------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The JSON document shipped on the wire and in BENCH rows."""
        doc: Dict[str, Any] = {
            "format": "folded",
            "samples": self.samples,
            "hz": self.hz,
            "duration_s": round(self.duration_s, 6),
            "stacks": len(self.counts),
            "folded": self.folded_lines(),
        }
        if self.worker is not None:
            doc["worker"] = self.worker
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    @classmethod
    def from_payload(cls, doc: Dict[str, Any]) -> "FoldedProfile":
        profile = cls(
            samples=int(doc.get("samples", 0)),
            hz=float(doc.get("hz", DEFAULT_HZ)),
            duration_s=float(doc.get("duration_s", 0.0)),
            worker=doc.get("worker"),
            trace_id=doc.get("trace_id"),
        )
        for line in doc.get("folded", []):
            stack, count = parse_folded_line(line)
            profile.add_stack(stack, count)
        return profile

    @classmethod
    def from_text(cls, text: str, hz: float = DEFAULT_HZ) -> "FoldedProfile":
        profile = cls(hz=hz)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            stack, count = parse_folded_line(line)
            profile.add_stack(stack, count)
            profile.samples += count
        return profile


def parse_folded_line(line: str) -> Tuple[Stack, int]:
    """One ``a;b;c N`` folded line -> (stack tuple, count).

    Raises ``ValueError`` on malformed input -- CI's profiling smoke
    leans on this as the format validator.
    """
    stack_text, sep, count_text = line.rpartition(" ")
    if not sep or not stack_text:
        raise ValueError(f"malformed folded line: {line!r}")
    count = int(count_text)
    if count < 1:
        raise ValueError(f"non-positive sample count in: {line!r}")
    return tuple(stack_text.split(";")), count


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------


class StackSampler:
    """A background stack sampler over ``sys._current_frames``.

    One daemon thread wakes ``hz`` times per second, snapshots every
    live thread's stack (except its own), and folds each into a shared
    counts table.  ``clock`` and ``frames_provider`` are injectable so
    tests can drive :meth:`sample_once` deterministically with fake
    frames and a fake clock -- no thread required.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        clock: Callable[[], float] = time.monotonic,
        frames_provider: Callable[[], Dict[int, Any]] = sys._current_frames,
        max_depth: int = DEFAULT_MAX_DEPTH,
        registry: Optional[Any] = None,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive (got {hz})")
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self._clock = clock
        self._frames = frames_provider
        self._lock = threading.Lock()
        self._counts: Dict[Stack, int] = {}
        self._samples = 0
        self._started_at: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        registry = registry if registry is not None else get_registry()
        self._sample_counter = registry.counter(
            "repro_profile_samples_total",
            "Stack samples taken by the continuous profiler",
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> bool:
        """Start the sampling thread; no-op (False) when running."""
        global _TAGGING
        if self.running:
            return False
        self._stop_event.clear()
        self._started_at = self._clock()
        _TAGGING = True
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return True

    def stop(self, timeout: float = 2.0) -> bool:
        """Stop the sampling thread; no-op (False) when not running."""
        global _TAGGING
        thread = self._thread
        if thread is None:
            return False
        self._stop_event.set()
        if thread.is_alive():
            thread.join(timeout)
        self._thread = None
        _TAGGING = False
        return True

    def _run(self) -> None:
        period = 1.0 / self.hz
        next_tick = self._clock() + period
        while not self._stop_event.is_set():
            delay = next_tick - self._clock()
            if delay > 0 and self._stop_event.wait(delay):
                break
            self.sample_once()
            next_tick += period
            now = self._clock()
            if next_tick < now:  # fell behind: skip, never burst
                next_tick = now + period

    # -- sampling --------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every live thread; returns stack count."""
        own = threading.get_ident()
        folded = 0
        try:
            frames = self._frames()
        except RuntimeError:  # interpreter tearing down
            return 0
        for ident, frame in frames.items():
            if ident == own:
                continue
            stack = collect_stack(frame, self.max_depth)
            if not stack:
                continue
            phase = _current_phase(ident)
            if phase is not None:
                stack = (f"phase:{phase}",) + stack
            with self._lock:
                self._counts[stack] = self._counts.get(stack, 0) + 1
            folded += 1
        with self._lock:
            self._samples += 1
        self._sample_counter.inc()
        return folded

    # -- windows ---------------------------------------------------------

    def mark(self) -> Dict[str, Any]:
        """A window marker: the full counts table at this instant.

        Pair with :meth:`window_since` to extract the profile of just
        the interval -- the mechanism behind ``GET /v1/profile``.
        """
        with self._lock:
            return {
                "counts": dict(self._counts),
                "samples": self._samples,
                "at": self._clock(),
            }

    def samples_since(self, marker: int) -> int:
        """Cheap delta of tick counts (per-task campaign accounting)."""
        with self._lock:
            return self._samples - marker

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def window_since(
        self,
        marker: Dict[str, Any],
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> FoldedProfile:
        """The profile accumulated since ``marker`` (see :meth:`mark`)."""
        with self._lock:
            counts = dict(self._counts)
            samples = self._samples
        before: Dict[Stack, int] = marker["counts"]
        delta: Dict[Stack, int] = {}
        for stack, count in counts.items():
            gained = count - before.get(stack, 0)
            if gained > 0:
                delta[stack] = gained
        return FoldedProfile(
            counts=delta,
            samples=samples - marker["samples"],
            hz=self.hz,
            duration_s=max(0.0, self._clock() - marker["at"]),
            worker=worker,
            trace_id=trace_id,
        )

    def profile(
        self,
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> FoldedProfile:
        """Everything sampled since :meth:`start` as one profile."""
        with self._lock:
            counts = dict(self._counts)
            samples = self._samples
        started = self._started_at
        duration = (
            max(0.0, self._clock() - started) if started is not None else 0.0
        )
        return FoldedProfile(
            counts=counts,
            samples=samples,
            hz=self.hz,
            duration_s=duration,
            worker=worker,
            trace_id=trace_id,
        )

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0
        self._started_at = self._clock()


# ---------------------------------------------------------------------------
# The process-global, refcounted sampler
# ---------------------------------------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_SAMPLER: Optional[StackSampler] = None
_GLOBAL_REFS = 0


def acquire_sampler(hz: float = DEFAULT_HZ) -> StackSampler:
    """Take a reference on the shared process sampler, starting it on
    the first acquisition.  Every plane that wants continuous sampling
    (the service, a campaign run, a CLI capture) acquires here so the
    process runs exactly one sampling thread regardless of how many
    services or runners coexist (tests routinely build several)."""
    global _GLOBAL_SAMPLER, _GLOBAL_REFS
    with _GLOBAL_LOCK:
        if _GLOBAL_SAMPLER is None or not _GLOBAL_SAMPLER.running:
            _GLOBAL_SAMPLER = StackSampler(hz=hz)
            _GLOBAL_SAMPLER.start()
        _GLOBAL_REFS += 1
        return _GLOBAL_SAMPLER


def release_sampler() -> bool:
    """Drop one reference; stops the thread when the last goes away."""
    global _GLOBAL_SAMPLER, _GLOBAL_REFS
    with _GLOBAL_LOCK:
        if _GLOBAL_REFS == 0:
            return False
        _GLOBAL_REFS -= 1
        if _GLOBAL_REFS == 0 and _GLOBAL_SAMPLER is not None:
            _GLOBAL_SAMPLER.stop()
            _GLOBAL_SAMPLER = None
            return True
        return False


def get_sampler() -> Optional[StackSampler]:
    """The shared sampler, or ``None`` when nothing acquired it."""
    with _GLOBAL_LOCK:
        return _GLOBAL_SAMPLER
