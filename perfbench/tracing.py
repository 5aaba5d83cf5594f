"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` wraps a fixed list of public functions and methods of
``repro.service``, ``repro.perf``, ``repro.cluster``, ``repro.campaign``,
``repro.projection`` and ``repro.dse`` (see :data:`TARGETS`).  Each
call records one span: layer name, start and end on the system-wide
monotonic clock (``CLOCK_MONOTONIC`` on Linux, so spans from different
processes share a time axis), the enclosing span of the same
process, and a few attributes read from the arguments or the result.

Spans are kept in memory and written once, at interpreter exit, to
``<trace_dir>/spans-<pid>.jsonl``.  Nothing is written while the
program runs, so tracing costs only the wrappers themselves.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns
_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_ids = itertools.count(1)
#: (layer, start_ns, end_ns, span_id, parent_id, failed, attrs)
_spans: List[Tuple] = []


def _header(headers: Any, name: str) -> Optional[str]:
    if isinstance(headers, dict):
        return headers.get(name)
    return None


def _fastpath_attrs(args, kwargs, result) -> Dict[str, Any]:
    _self, method, path, headers, _body = args[:5]
    eligible = (
        method == "POST"
        and path in ("/v1/speedup", "/v1/sweep", "/v1/optimize")
        and _header(headers, "x-request-id") is None
        and (_header(headers, "connection") or "keep-alive").lower()
        != "close"
    )
    return {"eligible": eligible, "answered": result is not None}


def _app_attrs(args, kwargs, result) -> Dict[str, Any]:
    headers = args[4] if len(args) > 4 else kwargs.get("headers")
    return {
        "path": args[2].partition("?")[0],
        "status": result[0] if result else None,
        "rid": _header(headers, "x-request-id"),
    }


def _router_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {
        "path": args[2].partition("?")[0],
        "status": result[0] if result else None,
        "tid": result[2].get("X-Trace-Id") if result else None,
    }


def _tensor_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"outcome": "fallback" if result is None else result[1]}


def _hit_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _budget_attrs(args, kwargs, result) -> Dict[str, Any]:
    budgets = args[2] if len(args) > 2 else kwargs.get("budgets", ())
    return {"budgets": len(budgets)}


def _halving_attrs(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {}
    return {"full": result.full_evaluations, "configs": result.n_configs}


def _task_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"kind": args[0].kind}


def _put_attrs(args, kwargs, result) -> Dict[str, Any]:
    try:
        return {"bytes": os.stat(result).st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


def _run_attrs(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {}
    return {
        "tasks": len(result.outcomes),
        "failed": result.failed,
        "retried": sum(
            max(0, o.attempts - 1)
            for o in result.outcomes
            if o.status == "executed"
        ),
    }


#: (module, attribute path, layer, attribute reader).  Each is a public
#: function or method at a layer boundary; nothing else is wrapped.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.tensor", "TransportFastPath.response_bytes",
     "service.fastpath", _fastpath_attrs),
    ("repro.service.app", "ModelService.handle_request",
     "service.app", _app_attrs),
    ("repro.service.app", "ModelService.__init__", "service.boot", None),
    ("repro.service.tensor", "TensorServing.speedup_payload",
     "service.tensor", _tensor_attrs),
    ("repro.service.tensor", "TensorServing.sweep_payload",
     "service.tensor", _tensor_attrs),
    ("repro.service.tensor", "TensorServing.optimize_payload",
     "service.tensor", _tensor_attrs),
    ("repro.perf.tensorstore", "TensorStore.lookup",
     "perf.tensorstore", None),
    ("repro.service.respcache", "ResponseCache.get",
     "service.respcache", _hit_attrs),
    ("repro.service.batching", "MicroBatcher.evaluate",
     "service.batching", None),
    ("repro.perf.batch", "optimize_batch", "perf.batch", _budget_attrs),
    ("repro.perf.batch", "optimize_prefix_batch", "perf.batch",
     _budget_attrs),
    ("repro.projection.sensitivity", "run_sensitivity",
     "projection.sensitivity", None),
    ("repro.dse.engine", "evaluate_config", "dse.engine", None),
    ("repro.dse.halving", "successive_halving", "dse.halving",
     _halving_attrs),
    ("repro.campaign.runner", "execute_task", "campaign.execute",
     _task_attrs),
    ("repro.campaign.store", "ResultStore.put", "campaign.store",
     _put_attrs),
    ("repro.campaign.runner", "CampaignRunner.run", "campaign.run",
     _run_attrs),
    ("repro.cluster.router", "Router.handle_request", "cluster.router",
     _router_attrs),
    ("repro.cluster.supervisor", "WorkerSupervisor.start",
     "cluster.supervisor", None),
)


def _record(layer, start, end, span_id, parent, failed, reader, args,
            kwargs, result) -> None:
    attrs = None
    if reader is not None:
        try:
            attrs = reader(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            attrs = None
    _spans.append((layer, start, end, span_id, parent, failed, attrs))


def _wrap(fn: Callable, layer: str, reader: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span_id = next(_ids)
            token = _current.set(span_id)
            parent = token.old_value
            if parent is contextvars.Token.MISSING:
                parent = None
            result = None
            failed = True
            start = _now()
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = _now()
                _current.reset(token)
                _record(layer, start, end, span_id, parent, failed,
                        reader, args, kwargs, result)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = next(_ids)
        token = _current.set(span_id)
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = None
        result = None
        failed = True
        start = _now()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = _now()
            _current.reset(token)
            _record(layer, start, end, span_id, parent, failed, reader,
                    args, kwargs, result)

    return wrapper


def install(trace_dir: str) -> None:
    """Wrap every target and write this process's spans at exit.

    Module-level functions are also rebound wherever another
    ``repro`` module imported them by name, so calls through those
    names are traced too.
    """
    replaced: Dict[int, Callable] = {}
    for module_name, attr_path, layer, reader in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *outer, name = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if outer else getattr(owner, name)
        wrapped = _wrap(original, layer, reader)
        setattr(owner, name, wrapped)
        if not outer:
            replaced[id(original)] = wrapped
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and callable(value):
                setattr(module, attr, replaced[id(value)])
    path = Path(trace_dir) / f"spans-{os.getpid()}.jsonl"
    atexit.register(_dump, path)


def _dump(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for layer, start, end, span_id, parent, failed, attrs in _spans:
            handle.write(
                json.dumps(
                    [layer, start, end, span_id, parent, failed, attrs],
                    separators=(",", ":"),
                )
                + "\n"
            )


def load_spans(trace_dir: Path) -> List[Dict[str, Any]]:
    """Every span written under ``trace_dir``, tagged with its pid."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                layer, start, end, span_id, parent, failed, attrs = (
                    json.loads(line)
                )
                spans.append(
                    {
                        "layer": layer,
                        "start": start,
                        "end": end,
                        "id": (pid, span_id),
                        "parent": (pid, parent) if parent else None,
                        "failed": failed,
                        "attrs": attrs or {},
                        "pid": pid,
                    }
                )
    return spans
