"""The unified metrics registry: counters, gauges, windowed histograms.

Every layer -- the serving front end, its grid calls, campaign
jobs and store, ``repro.perf.cache``, SLOs, spans -- registers named
instruments into a registry and records into them directly; the
registry renders them all, in either of two forms:

* :meth:`MetricsRegistry.snapshot` -- the JSON dict behind
  ``repro-hetsim metrics-dump`` and the router's own ``/metrics``
  section (a service's JSON ``GET /metrics`` body is shaped by
  :func:`repro.service.metrics.metrics_payload` over the same
  instruments);
* :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text
  exposition format behind ``GET /metrics?format=prom`` (histograms
  export as summaries with interpolated ``quantile`` samples).

Instruments are get-or-create by name, so independent components (two
:class:`~repro.campaign.store.ResultStore` instances, say) share one
counter family and their increments simply add.  Label sets follow the
Prometheus model: one instrument, many ``(label=value, ...)`` series.
An instrument validates and sorts a label set once, the first time a
write names it, and looks the series key up from then on; label values
must therefore come from a bounded set (a route, never a raw path).

Histograms keep a bounded window of recent observations (a
serving-horizon estimate, right for long-lived processes) plus
lifetime count/sum; quantiles interpolate linearly between closest
ranks (:func:`percentile`), which is also the fix for the seed's
nearest-rank p99 bias on small windows.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "render_merged",
    "validate_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default bounded-window width for histograms (samples per series).
DEFAULT_WINDOW = 2048

#: Quantiles exported for every histogram, everywhere.
EXPORT_QUANTILES = (0.5, 0.9, 0.99)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile of ``samples``.

    Matches ``numpy.percentile(..., method="linear")``: the q-th
    quantile sits at fractional rank ``q * (n - 1)`` of the sorted
    samples, interpolating between the two closest ranks.  Unlike the
    nearest-rank rule this does not bias high quantiles low on small
    windows (with 10 samples, nearest-rank p99 returns the *9th* value
    -- the maximum is unreachable).

    An empty sequence returns 0.0 (metrics export must never raise);
    one sample returns that sample for every q.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _render_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Instrument:
    """Shared shape: a name, help text, and per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        #: The caller's label items -> validated, sorted series key.
        self._bound: Dict[tuple, Tuple[Tuple[str, str], ...]] = {}

    def _bind(self, labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
        """The series key of a written label set, validated once.

        Keyed on the items as the caller passed them, so a repeated
        label set costs one dict lookup instead of a validation and a
        sort; only writes bind, so the map stays bounded by the
        instrument's own series.
        """
        items = tuple(labels.items())
        key = self._bound.get(items)
        if key is None:
            key = self._bound[items] = _label_key(labels)
        return key

    def _series(self) -> List[Tuple[Tuple[Tuple[str, str], ...], float]]:
        raise NotImplementedError

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        """Every (labels, value) pair, labels as plain dicts."""
        return [(dict(key), value) for key, value in self._series()]

    def snapshot_value(self) -> Any:
        """JSON form: a bare number without labels, else a dict."""
        series = self._series()
        if len(series) == 1 and not series[0][0]:
            return series[0][1]
        return {
            ",".join(f"{k}={v}" for k, v in key) or "": value
            for key, value in series
        }

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help or self.name}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in self._series():
            lines.append(
                f"{self.name}{_render_labels(key)} {_fmt(value)}"
            )
        return lines


class Counter(_Instrument):
    """A monotonically increasing sum (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        key = self._bind(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _series(self):
        with self._lock:
            if not self._values:
                return [((), 0.0)]
            return sorted(self._values.items())


class Gauge(_Instrument):
    """A value that can go both ways; optionally callback-backed.

    A callback gauge reads its value lazily at export time --
    :mod:`repro.perf.cache` uses this so the registry always reflects
    the live cache totals without double bookkeeping.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ):
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}
        self.callback = callback

    def set(self, value: float, **labels: str) -> None:
        key = self._bind(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._bind(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        if self.callback is not None:
            return float(self.callback())
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _series(self):
        if self.callback is not None:
            try:
                return [((), float(self.callback()))]
            except Exception:
                return [((), float("nan"))]
        with self._lock:
            if not self._values:
                return [((), 0.0)]
            return sorted(self._values.items())


class Histogram(_Instrument):
    """Bounded-window observations with lifetime count/sum.

    Quantiles are computed over the most recent ``window`` samples per
    label set; ``count``/``sum`` are lifetime totals, so rates stay
    derivable even after the window wraps.  Exported to Prometheus as
    a summary.
    """

    kind = "summary"

    def __init__(
        self, name: str, help: str = "", window: int = DEFAULT_WINDOW
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        super().__init__(name, help)
        self.window = window
        self._windows: Dict[Tuple[Tuple[str, str], ...], deque] = {}
        self._counts: Dict[Tuple[Tuple[str, str], ...], int] = {}
        self._sums: Dict[Tuple[Tuple[str, str], ...], float] = {}
        # Parallel per-sample trace ids (mostly None); kept in lockstep
        # with the value window so the slowest sample's trace is always
        # recoverable -- the exemplar a p99 spike links to.
        self._exemplar_ids: Dict[Tuple[Tuple[str, str], ...], deque] = {}

    def observe(
        self,
        value: float,
        trace_id: Optional[str] = None,
        **labels: str,
    ) -> None:
        key = self._bind(labels)
        with self._lock:
            window = self._windows.get(key)
            if window is None:
                window = self._windows[key] = deque(maxlen=self.window)
                self._exemplar_ids[key] = deque(maxlen=self.window)
            window.append(float(value))
            self._exemplar_ids[key].append(trace_id)
            self._counts[key] = self._counts.get(key, 0) + 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def totals(self) -> Dict[Tuple[Tuple[str, str], ...], Tuple[int, float]]:
        """Lifetime ``(count, sum)`` per label key, read atomically."""
        with self._lock:
            return {
                key: (count, self._sums[key])
                for key, count in self._counts.items()
            }

    def window_values(self, **labels: str) -> List[float]:
        """The bounded window's samples for one label set, in order."""
        key = _label_key(labels)
        with self._lock:
            return list(self._windows.get(key, ()))

    def exemplar(self, **labels: str) -> Optional[Tuple[float, str]]:
        """``(value, trace_id)`` of the slowest traced window sample.

        The exemplar is the largest sample in the current window that
        carried a trace id; None when nothing in the window did.
        """
        key = _label_key(labels)
        with self._lock:
            samples = list(self._windows.get(key, ()))
            ids = list(self._exemplar_ids.get(key, ()))
        best: Optional[Tuple[float, str]] = None
        for value, trace_id in zip(samples, ids):
            if trace_id is None:
                continue
            if best is None or value > best[0]:
                best = (value, trace_id)
        return best

    def series_summary(
        self, **labels: str
    ) -> Dict[str, float]:
        """count/sum/quantiles for one label set (JSON building block).

        When any window sample carried a trace id, the summary also
        includes an ``exemplar`` block linking the slowest such sample
        to its trace -- a p99 spike resolves straight to
        ``GET /v1/traces?trace_id=...``.
        """
        key = _label_key(labels)
        with self._lock:
            samples = list(self._windows.get(key, ()))
            count = self._counts.get(key, 0)
            total = self._sums.get(key, 0.0)
            ids = list(self._exemplar_ids.get(key, ()))
        summary = {"count": count, "sum": total}
        for q in EXPORT_QUANTILES:
            summary[f"p{int(q * 100)}"] = percentile(samples, q)
        best: Optional[Tuple[float, str]] = None
        for value, trace_id in zip(samples, ids):
            if trace_id is None:
                continue
            if best is None or value > best[0]:
                best = (value, trace_id)
        if best is not None:
            summary["exemplar"] = {
                "value": best[0],
                "trace_id": best[1],
            }
        return summary

    def label_sets(self) -> List[Dict[str, str]]:
        with self._lock:
            return [dict(key) for key in sorted(self._windows)]

    def snapshot_value(self) -> Any:
        sets = self.label_sets()
        if not sets:
            return {"count": 0, "sum": 0.0}
        if sets == [{}]:
            return self.series_summary()
        return {
            ",".join(f"{k}={v}" for k, v in sorted(s.items())): (
                self.series_summary(**s)
            )
            for s in sets
        }

    def _series(self):  # pragma: no cover - render() is overridden
        return []

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help or self.name}",
            f"# TYPE {self.name} summary",
        ]
        label_sets = self.label_sets() or [{}]
        for labels in label_sets:
            key = _label_key(labels)
            with self._lock:
                samples = list(self._windows.get(key, ()))
                count = self._counts.get(key, 0)
                total = self._sums.get(key, 0.0)
            for q in EXPORT_QUANTILES:
                q_key = _label_key({**labels, "quantile": f"{q:g}"})
                lines.append(
                    f"{self.name}{_render_labels(q_key)} "
                    f"{_fmt(percentile(samples, q))}"
                )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_fmt(total)}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {_fmt(count)}"
            )
        return lines


class MetricsRegistry:
    """Name -> instrument, with get-or-create semantics.

    Asking for an existing name returns the existing instrument
    (asking with a *different* instrument type raises -- that is
    always a bug).  Everything is thread-safe; the registry is shared
    by the event loop, job threads and the campaign runner.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            instrument = cls(name, *args, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help)
        if callback is not None:
            gauge.callback = callback
        return gauge

    def histogram(
        self, name: str, help: str = "", window: int = DEFAULT_WINDOW
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, window)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's JSON form, keyed by metric name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {
            name: instrument.snapshot_value()
            for name, instrument in instruments
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for _, instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n" if lines else ""


#: The process-wide registry every layer registers into.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide shared registry."""
    return _GLOBAL


def render_merged(*registries: MetricsRegistry) -> str:
    """One exposition over several registries (first wins per name).

    The serving layer renders its per-instance registry merged with
    the process-wide one (span phases, library collectors), and a
    metric family must appear exactly once per exposition.
    """
    seen: Dict[str, _Instrument] = {}
    for registry in registries:
        with registry._lock:
            instruments = list(registry._instruments.items())
        for name, instrument in instruments:
            seen.setdefault(name, instrument)
    lines: List[str] = []
    for _, instrument in sorted(seen.items()):
        lines.extend(instrument.render())
    return "\n".join(lines) + "\n" if lines else ""


# -- exposition-format validation ------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    # A label set: braces only outside quoted values, so a value may
    # hold any character (a route label like "/v1/jobs/{id}").
    r'(?P<labels>\{(?:[^{}"]|"(?:[^"\\]|\\.)*")*\})?'
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)
_VALID_TYPES = (
    "counter", "gauge", "summary", "histogram", "untyped",
)


def validate_prometheus(
    text: str, required: Optional[Sequence[str]] = None
) -> List[str]:
    """Check ``text`` against the Prometheus text format; returns the
    sample metric names.

    Raises ``ValueError`` naming the first offending line.  Covers the
    rules a scrape would trip over: sample syntax, label-pair syntax,
    parseable values, ``# TYPE`` declarations that precede their
    samples, and no duplicate TYPE lines.  ``required`` additionally
    asserts that each named metric family is present (either as a
    sample name, a declared type, or via its ``_sum``/``_count``/
    ``_bucket`` series) -- the CI smoke job uses this to pin the
    service and SLO families against a live
    ``GET /metrics?format=prom`` scrape.
    """
    if text and not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    typed: Dict[str, str] = {}
    seen: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            name = parts[2]
            if name in typed:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            typed[name] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and free comments
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        labels = match.group("labels")
        if labels:
            body = labels[1:-1].strip()
            if body:
                for pair in _split_label_pairs(body, lineno):
                    if not _LABEL_PAIR_RE.match(pair):
                        raise ValueError(
                            f"line {lineno}: malformed label {pair!r}"
                        )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: unparseable value {value!r}"
                ) from None
        base = name
        for suffix in ("_sum", "_count", "_bucket", "_total"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if typed and base not in typed and name not in typed:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        seen.append(name)
    if required:
        present = set(seen) | set(typed)
        for name in seen:
            for suffix in ("_sum", "_count", "_bucket"):
                if name.endswith(suffix):
                    present.add(name[: -len(suffix)])
        missing = sorted(set(required) - present)
        if missing:
            raise ValueError(
                f"exposition is missing required families: {missing}"
            )
    return seen


def _split_label_pairs(body: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes."""
    pairs: List[str] = []
    depth_quote = False
    current = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and depth_quote and i + 1 < len(body):
            current.append(ch)
            current.append(body[i + 1])
            i += 2
            continue
        if ch == '"':
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            pairs.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    if depth_quote:
        raise ValueError(f"line {lineno}: unterminated label quote")
    if current:
        pairs.append("".join(current).strip())
    return [p for p in pairs if p]
