"""Per-request trace context, propagated with :mod:`contextvars`.

One client request should render as *one* story — across the HTTP
handler thread that admits it, the worker thread that runs it, the
supervised estimator calls inside the run, and (for pooled sweeps) the
process-pool hop.  The carrier is :class:`RequestContext`: an
immutable ``(trace_id, span_id, parent_span_id, request_id)`` tuple
bound to a context variable, so any code on the request's call path —
however deep — can stamp its telemetry with the right ``trace_id``
without threading an argument through every signature.

Two design points worth naming:

* **Span ids are pid-namespaced.**  ``new_span_id`` is a process-local
  counter prefixed with the process id.  Pool workers deliberately
  seed ``random`` identically for determinism (see
  :func:`repro.parallel.jobs.job_seed`), so any randomness-derived id
  would collide across workers; the pid prefix makes collisions
  structurally impossible instead of merely unlikely.
* **Contexts are plain data.**  ``to_payload``/``from_payload`` are
  string dicts, safe to pickle into a
  :class:`~repro.parallel.jobs.JobSpec` — which is how the context
  survives the process-pool boundary (a prerequisite for shipping it
  across a cluster later).

The module also hosts the *event sink*: a contextvar-scoped callback
that lets deep layers (the resilience supervisor) report structured
events (fallbacks, breaker short-circuits) to whatever observability
bundle owns the current request, without importing the service.
"""

from __future__ import annotations

import contextvars
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = [
    "RequestContext",
    "new_trace_id",
    "new_span_id",
    "current_context",
    "use_context",
    "EventSink",
    "use_event_sink",
    "emit_event",
]

_span_counter = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex) — unpredictable, globally unique."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh span id, namespaced by this process's pid.

    The counter is process-local; the pid prefix keeps ids from
    different pool workers (which share seeded RNG state by design)
    from ever colliding in a merged trace.
    """
    return "%x-%x" % (os.getpid(), next(_span_counter))


@dataclass(frozen=True)
class RequestContext:
    """Immutable trace coordinates of one request.

    ``trace_id`` names the whole request tree; ``span_id`` names the
    current operation within it; ``parent_span_id`` links the tree.
    ``request_id`` is the client-visible identifier, carried for log
    correlation (it is *not* part of span identity).
    """

    trace_id: str
    span_id: str
    parent_span_id: str = ""
    request_id: str = ""

    @classmethod
    def new(cls, request_id: str = "") -> "RequestContext":
        """Root context of a fresh request."""
        return cls(
            trace_id=new_trace_id(),
            span_id=new_span_id(),
            request_id=request_id,
        )

    def child(self) -> "RequestContext":
        """A child span context: same trace, new span, linked parent."""
        return replace(
            self, span_id=new_span_id(), parent_span_id=self.span_id
        )

    def to_payload(self) -> Dict[str, str]:
        """Picklable/JSON-able form (crosses the process-pool hop)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "request_id": self.request_id,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, str]) -> "RequestContext":
        return cls(
            trace_id=str(payload.get("trace_id", "")),
            span_id=str(payload.get("span_id", "")),
            parent_span_id=str(payload.get("parent_span_id", "")),
            request_id=str(payload.get("request_id", "")),
        )

    def trace_args(self) -> Dict[str, str]:
        """The args every span/log record on this request carries."""
        args = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id:
            args["parent_span_id"] = self.parent_span_id
        if self.request_id:
            args["request_id"] = self.request_id
        return args


_current: contextvars.ContextVar[Optional[RequestContext]] = (
    contextvars.ContextVar("repro_obs_context", default=None)
)


def current_context() -> Optional[RequestContext]:
    """The request context bound to this thread of execution, if any."""
    return _current.get()


@contextmanager
def use_context(context: Optional[RequestContext]) -> Iterator[None]:
    """Bind ``context`` for the duration of the ``with`` block."""
    token = _current.set(context)
    try:
        yield
    finally:
        _current.reset(token)


# ----------------------------------------------------------------------
# Event sink: deep layers report, the owning bundle listens.
# ----------------------------------------------------------------------

EventSink = Callable[[str, Dict[str, Any]], None]

_sink: contextvars.ContextVar[Optional[EventSink]] = contextvars.ContextVar(
    "repro_obs_sink", default=None
)


@contextmanager
def use_event_sink(sink: Optional[EventSink]) -> Iterator[None]:
    """Route :func:`emit_event` calls to ``sink`` inside the block."""
    token = _sink.set(sink)
    try:
        yield
    finally:
        _sink.reset(token)


def emit_event(name: str, **fields: Any) -> None:
    """Report a structured event to the bound sink (no-op if none).

    The current :class:`RequestContext`'s correlation fields are merged
    in automatically, so emitters never handle trace ids themselves.
    """
    sink = _sink.get()
    if sink is None:
        return
    context = _current.get()
    payload: Dict[str, Any] = dict(fields)
    if context is not None:
        for key, value in context.trace_args().items():
            payload.setdefault(key, value)
    sink(name, payload)
