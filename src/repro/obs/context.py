"""Trace-context propagation across the three execution hand-offs.

A trace context is the pair ``(trace_id, span_id)`` naming the span
that is "current" at a point of execution.  Model code changes hands
in three ways, and each needs its own propagation mechanism:

* **asyncio tasks** -- a :class:`contextvars.ContextVar` follows the
  task automatically (each task snapshots the context at creation),
  so concurrent requests never observe each other's span.
* **campaign job threads** -- a job submitted over HTTP runs on a
  thread of its own, which starts with an empty context, so the
  submitting request serialises its context into a plain-dict
  *carrier* (:func:`inject`) and the job thread re-installs it
  (:func:`extract`) before its campaign spans open
  (:mod:`repro.campaign.jobs`).
* **campaign process pools** -- a child process shares nothing, so
  no context crosses: the worker ships only the wall-clock instant it
  started the task, and the parent builds that task's
  ``campaign.task`` span at settle time, backdated to the submit
  instant (:mod:`repro.campaign.runner`).

Ids follow the W3C trace-context shape (128-bit trace id, 64-bit span
id, lowercase hex) so exported spans line up with external tooling,
without depending on any.
"""

from __future__ import annotations

import os
from contextvars import ContextVar, Token
from typing import Any, Dict, NamedTuple, Optional

__all__ = [
    "SpanContext",
    "new_trace_id",
    "new_span_id",
    "current_context",
    "attach",
    "detach",
    "inject",
    "extract",
]


class SpanContext(NamedTuple):
    """The identity of one span: which trace, which node in it."""

    trace_id: str
    span_id: str


#: The span currently enclosing this logical flow of execution.
_CURRENT: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_obs_span", default=None
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


def current_context() -> Optional[SpanContext]:
    """The enclosing span's context, or None outside any span."""
    return _CURRENT.get()


def attach(context: Optional[SpanContext]) -> Token:
    """Make ``context`` current; returns the token for :func:`detach`."""
    return _CURRENT.set(context)


def detach(token: Token) -> None:
    """Restore the context that was current before :func:`attach`."""
    _CURRENT.reset(token)


def inject(
    context: Optional[SpanContext] = None,
) -> Optional[Dict[str, str]]:
    """Serialise a context into a picklable carrier dict.

    Defaults to the current context; returns None when there is
    nothing to propagate (callers pass the None straight through).
    """
    context = context if context is not None else current_context()
    if context is None:
        return None
    return {"trace_id": context.trace_id, "span_id": context.span_id}


def extract(carrier: Optional[Dict[str, Any]]) -> Optional[SpanContext]:
    """Rebuild a :class:`SpanContext` from a carrier dict (or None).

    Malformed carriers (missing/empty ids) yield None rather than a
    broken parent link -- a lost trace beats a corrupt one.
    """
    if not carrier:
        return None
    trace_id = carrier.get("trace_id")
    span_id = carrier.get("span_id")
    if not trace_id or not span_id:
        return None
    return SpanContext(trace_id=str(trace_id), span_id=str(span_id))
