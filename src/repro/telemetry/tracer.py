"""Span tracing for the co-estimation stack.

The tracer records *wall-clock* spans around the work the framework
does while estimating — master reactions, ISS invocations, gate-level
runs, bus kicks, strategy decisions — so that the cost structure the
paper's Tables 1/2 account for (where the CPU seconds go) is visible
per run instead of only in aggregate.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Components hold a tracer
   reference unconditionally; the disabled path is a :class:`NullTracer`
   whose methods are empty and whose ``span()`` returns one shared,
   pre-allocated no-op context manager.  Hot loops may additionally
   guard on :attr:`Tracer.enabled`, which is a plain class attribute.
2. **No I/O during the run.**  Events accumulate in lists; exporters
   (:mod:`repro.telemetry.export`) render them afterwards.
3. **Single-threaded simplicity.**  The master is single-threaded, so
   span nesting is exactly the call stack; the tracer keeps a depth
   counter only to annotate records, not to reconstruct trees.

Timestamps are microseconds since tracer creation (the Chrome
trace-event native unit), measured with ``time.perf_counter``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "SpanRecord", "Tracer", "NullTracer", "NULL_TRACER"]


class SpanRecord:
    """One finished span (plain record; exporters read the fields)."""

    __slots__ = ("name", "track", "start_us", "dur_us", "depth", "args")

    def __init__(
        self,
        name: str,
        track: str,
        start_us: float,
        dur_us: float,
        depth: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.track = track
        self.start_us = start_us
        self.dur_us = dur_us
        self.depth = depth
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanRecord(%s/%s %.1fus+%.1fus)" % (
            self.track, self.name, self.start_us, self.dur_us
        )


class Span:
    """An open span; use as a context manager or call :meth:`close`.

    Extra key/value payload can be attached while the span is open with
    :meth:`set`; it lands in the exported event's ``args``.
    """

    __slots__ = ("_tracer", "name", "track", "start_us", "args")

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.start_us = tracer._now_us()
        self.args = args

    def set(self, key: str, value: Any) -> None:
        """Attach one payload entry to the span."""
        if self.args is None:
            self.args = {}
        self.args[key] = value

    def close(self) -> None:
        tracer = self._tracer
        tracer._depth -= 1
        tracer.spans.append(
            SpanRecord(
                self.name,
                self.track,
                self.start_us,
                tracer._now_us() - self.start_us,
                tracer._depth,
                self.args,
            )
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans, instants, and counter samples in memory.

    Attributes:
        spans: finished :class:`SpanRecord` objects, close order.
        instants: ``(ts_us, name, track, args)`` point events.
        counters: ``(ts_us, name, series)`` samples; ``series`` maps a
            series label to its current value, rendered as a Chrome
            counter track (stacked in Perfetto).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self._depth = 0
        self.spans: List[SpanRecord] = []
        self.instants: List[tuple] = []
        self.counters: List[tuple] = []

    def _now_us(self) -> float:
        return (self._clock() - self._t0) * 1e6

    def span(self, name: str, track: str = "master",
             args: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; close it via ``with`` or :meth:`Span.close`."""
        self._depth += 1
        return Span(self, name, track, args)

    def instant(self, name: str, track: str = "master",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event (e.g. a cache hit, a bus grant)."""
        self.instants.append((self._now_us(), name, track, args))

    def counter(self, name: str, series: Dict[str, float]) -> None:
        """Record one sample of a counter track (e.g. energy so far)."""
        self.counters.append((self._now_us(), name, dict(series)))


class NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op.

    ``span()`` hands back one shared no-op span object, so the cost of
    an instrumented call site is two attribute lookups and an empty
    method call — unmeasurable next to a single ISS instruction.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, track: str = "master",
             args: Optional[Dict[str, Any]] = None) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name: str, track: str = "master",
                args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def counter(self, name: str, series: Dict[str, float]) -> None:
        pass


#: Process-wide disabled tracer; safe to share (it keeps no state).
NULL_TRACER = NullTracer()
