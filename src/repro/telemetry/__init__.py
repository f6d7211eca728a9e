"""Observability for the co-estimation stack.

The paper's evaluation is an accounting exercise — where do the CPU
seconds and the joules go, and what does each acceleration technique
save (Tables 1/2, Figures 6/7).  This package makes that accounting a
first-class, always-available artifact of every run:

* :mod:`repro.telemetry.tracer` — wall-clock span tracing of master
  reactions, ISS invocations, gate-level runs, bus kicks, and strategy
  decisions, with a near-zero-cost disabled mode;
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms (ISS calls, cache hit rates, sampling dispatch ratios,
  queue depths, per-reaction wall-clock), snapshot-able to dict/JSON;
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``, with energy as counter tracks);
* :mod:`repro.telemetry.report` — a human-readable end-of-run summary
  (hottest spans, strategy-effectiveness accounting).

Usage: build one :class:`Telemetry` bundle and hand it to any entry
point that accepts ``telemetry=`` (the simulation master, the
:class:`~repro.core.coestimator.PowerCoEstimator` facade, the CLI's
``--trace``/``--metrics`` flags)::

    from repro.telemetry import Telemetry
    from repro.telemetry.export import write_chrome_trace

    telemetry = Telemetry()
    result = estimator.estimate(stimuli, strategy="caching",
                                telemetry=telemetry)
    write_chrome_trace(telemetry.tracer, "trace.json")
    print(telemetry.metrics.to_json())

Every component defaults to the shared :data:`NULL_TELEMETRY` bundle,
whose tracer and registry are no-ops — the uninstrumented path does
not change.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
    DEFAULT_TIME_BUCKETS,
)
from repro.telemetry.export import (
    chrome_trace_events,
    render_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.report import aggregate_spans, render_report
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "chrome_trace_events",
    "render_chrome_trace",
    "write_chrome_trace",
    "aggregate_spans",
    "render_report",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_TIME_BUCKETS",
]


class Telemetry:
    """One run's tracer + metrics registry, passed as ``telemetry=``.

    ``Telemetry()`` enables both halves.  Pass ``NULL_TRACER`` /
    ``NULL_METRICS`` explicitly to enable only one (e.g. benchmark
    harnesses want counters but not megabytes of spans).
    """

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics

    @classmethod
    def metrics_only(cls) -> "Telemetry":
        """Counters/gauges/histograms without span recording."""
        return cls(tracer=NULL_TRACER)


class _NullTelemetry(Telemetry):
    """The disabled bundle every component defaults to."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(tracer=NULL_TRACER, metrics=NULL_METRICS)


#: Shared disabled bundle (stateless; safe as a default everywhere).
NULL_TELEMETRY = _NullTelemetry()
