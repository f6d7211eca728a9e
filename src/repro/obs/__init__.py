"""`repro.obs` — service-grade observability for the co-estimation stack.

PR-1 gave the framework *telemetry* (a tracer and a metrics registry
built for benchmark artifacts); the service layer made the framework a
long-running process.  This package closes the gap between the two:
production observability, organised around the question "what happened
to *this request*?".

* :mod:`repro.obs.context` — per-request trace context
  (``trace_id``/``span_id``) propagated via :mod:`contextvars` and
  picklable across the process-pool hop, plus the contextvar event
  sink deep layers report through.
* :mod:`repro.obs.prometheus` — text-exposition rendering of the
  metrics registry (labels encoded into instrument names), plus an
  exposition validator for tests and CI.
* :mod:`repro.obs.logging` — one-JSON-object-per-line structured logs,
  every line trace-correlated.
* :mod:`repro.obs.slo` — latency/availability objectives with
  burn-rate gauges.
* :mod:`repro.obs.flightrecorder` — a bounded in-memory ring of recent
  events, dumped atomically on failures for postmortems.
* :mod:`repro.obs.names` — the canonical metric/event name constants
  (the compatibility surface dashboards and alerts key on).

:class:`Observability` bundles the pieces into the single object the
service owns: one call site for "record this outcome", with the fan-out
to logger, recorder, SLO tracker, and labeled metrics handled here.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional

from repro.obs import names
from repro.obs.context import (
    EventSink,
    RequestContext,
    current_context,
    emit_event,
    new_span_id,
    new_trace_id,
    use_context,
    use_event_sink,
)
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.logging import JsonLogger, NullLogger, NULL_LOGGER
from repro.obs.names import (
    EVENT_BREAKER_TRANSITION,
    EVENT_FLIGHT_DUMP,
    METRIC_BREAKER_STATE,
    METRIC_BREAKER_TRANSITIONS,
    METRIC_ENERGY_ANSWERS,
    METRIC_FLIGHT_DUMPS,
    METRIC_FLIGHT_RECORDED,
    METRIC_HTTP_REQUESTS,
    METRIC_REQUEST_LATENCY_SECONDS,
)
from repro.obs.prometheus import (
    labeled,
    parse_labeled,
    prometheus_name,
    render_prometheus,
    validate_exposition,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "Observability",
    "RequestContext",
    "EventSink",
    "use_context",
    "use_event_sink",
    "current_context",
    "emit_event",
    "new_trace_id",
    "new_span_id",
    "JsonLogger",
    "NullLogger",
    "NULL_LOGGER",
    "SLOConfig",
    "SLOTracker",
    "FlightRecorder",
    "labeled",
    "parse_labeled",
    "prometheus_name",
    "render_prometheus",
    "validate_exposition",
    "names",
    "BREAKER_STATE_VALUES",
    "HELP_TEXT",
]

#: Numeric encoding of breaker states for the state gauge.
BREAKER_STATE_VALUES: Dict[str, float] = {
    "closed": 0.0,
    "half_open": 1.0,
    "open": 2.0,
}

#: ``# HELP`` strings for the exported metric families.
HELP_TEXT: Dict[str, str] = {
    names.METRIC_HTTP_REQUESTS:
        "HTTP requests by path and status",
    names.METRIC_ENERGY_ANSWERS:
        "Energy answers by system and provenance tier",
    names.METRIC_BREAKER_STATE:
        "Circuit-breaker state (0 closed, 1 half-open, 2 open)",
    names.METRIC_BREAKER_TRANSITIONS:
        "Circuit-breaker state transitions by site and target state",
    names.METRIC_QUEUE_DEPTH:
        "Instantaneous admission-queue depth",
    names.METRIC_QUEUE_WAIT_SECONDS:
        "Seconds spent queued before a worker took the request",
    names.METRIC_RUN_SECONDS:
        "Wall-clock seconds of the co-estimation run",
    names.METRIC_REQUEST_LATENCY_SECONDS:
        "End-to-end request latency in seconds",
    names.METRIC_SLO_LATENCY_BURN:
        "Latency SLO burn rate over the sliding window",
    names.METRIC_SLO_ERROR_BURN:
        "Availability SLO burn rate over the sliding window",
    names.METRIC_FLIGHT_RECORDED:
        "Events recorded by the flight recorder",
    names.METRIC_FLIGHT_DUMPS:
        "Flight-recorder dumps written to disk",
    names.METRIC_CLUSTER_WORKERS:
        "Cluster workers by membership state",
    names.METRIC_CLUSTER_HEARTBEAT_AGE:
        "Seconds since each worker's last heartbeat",
    names.METRIC_CLUSTER_WORKER_QUEUE_DEPTH:
        "Worker-reported queue depth from the latest heartbeat",
    names.METRIC_CLUSTER_REDISPATCHES:
        "Jobs re-dispatched away from dead or quarantined workers",
    names.METRIC_CLUSTER_QUARANTINES:
        "Workers quarantined by the limplock detector",
    names.METRIC_CLUSTER_SWEEP_DISPATCHES:
        "Sweep /run requests sent to workers (each a batch of points)",
    names.METRIC_CLUSTER_FAILOVERS:
        "Leadership takeovers completed by this coordinator",
    names.METRIC_CLUSTER_EPOCH:
        "Current leader epoch (monotonic across failovers)",
    names.METRIC_CLUSTER_LEASE_REMAINING:
        "Seconds left on the leadership lease (0 when not leading)",
    names.METRIC_CLUSTER_JOURNAL_ENTRIES:
        "Entries in the control-plane journal",
    names.METRIC_CLUSTER_REPLAY_SECONDS:
        "Seconds the last takeover spent replaying the journal",
    names.METRIC_CLUSTER_STALE_EPOCH:
        "Requests fenced with 409 stale-epoch",
}


class Observability:
    """The service's one-stop observability bundle.

    Owns the structured logger, flight recorder, and SLO tracker;
    writes labeled instruments into the (shared) metrics registry.
    Every recording method fans out to each consumer, so call sites
    stay one line.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        logger: Optional[JsonLogger] = None,
        slo: Optional[SLOConfig] = None,
        flight_capacity: int = 256,
        flight_dump_dir: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else NULL_LOGGER
        self.slo = SLOTracker(slo if slo is not None else SLOConfig())
        self.recorder = FlightRecorder(capacity=flight_capacity, clock=clock)
        self.flight_dump_dir = flight_dump_dir

    # -- event fan-out ---------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Record one structured event: log line + flight-recorder entry."""
        self.logger.event(name, **fields)
        self.recorder.record(name, **fields)

    def sink(self, name: str, fields: Dict[str, Any]) -> None:
        """:data:`~repro.obs.context.EventSink` adapter for deep layers."""
        self.event(name, **fields)

    # -- labeled metric recorders ---------------------------------------

    def record_http(self, path: str, status: int) -> None:
        self.metrics.counter(
            labeled(METRIC_HTTP_REQUESTS, path=path, status=str(status))
        ).inc()

    def record_answer(
        self, system: str, provenance: str, count: float = 1.0
    ) -> None:
        self.metrics.counter(
            labeled(METRIC_ENERGY_ANSWERS, system=system, provenance=provenance)
        ).inc(count)

    def record_outcome(self, status: int, latency_s: float) -> None:
        """Account one terminal response for SLOs and the latency histogram."""
        self.slo.record(status, latency_s)
        self.metrics.histogram(METRIC_REQUEST_LATENCY_SECONDS).observe(latency_s)

    def breaker_transition(self, site: str, old: str, new: str) -> None:
        self.metrics.gauge(
            labeled(METRIC_BREAKER_STATE, site=site)
        ).set(BREAKER_STATE_VALUES.get(new, -1.0))
        self.metrics.counter(
            labeled(METRIC_BREAKER_TRANSITIONS, site=site, to=new)
        ).inc()
        self.event(EVENT_BREAKER_TRANSITION, site=site, old=old, new=new)

    def sync_breaker_states(self, states: Mapping[str, str]) -> None:
        """Refresh the per-site state gauges from a breaker snapshot."""
        for site, state in states.items():
            self.metrics.gauge(
                labeled(METRIC_BREAKER_STATE, site=site)
            ).set(BREAKER_STATE_VALUES.get(state, -1.0))

    # -- export ----------------------------------------------------------

    def publish(self) -> None:
        """Refresh derived gauges (SLO burn rates, recorder counters)."""
        self.slo.publish(self.metrics)
        self.metrics.gauge(METRIC_FLIGHT_RECORDED).set(self.recorder.recorded)
        self.metrics.gauge(METRIC_FLIGHT_DUMPS).set(self.recorder.dumps)

    def render_metrics(self) -> str:
        """The ``/metrics`` response body (publishes derived gauges first)."""
        self.publish()
        return render_prometheus(self.metrics, help_text=HELP_TEXT)

    # -- postmortems -----------------------------------------------------

    def dump_flight(self, reason: str) -> Optional[str]:
        """Dump the flight recorder if a dump directory is configured.

        Returns the dump path, or None when dumping is disabled or the
        write failed (a broken postmortem path must never break the
        response path — the failure itself is logged).
        """
        if not self.flight_dump_dir:
            return None
        try:
            path = self.recorder.dump(self.flight_dump_dir, reason)
        except OSError as error:
            self.logger.event(
                EVENT_FLIGHT_DUMP, reason=reason, error=str(error), ok=False
            )
            return None
        self.event(EVENT_FLIGHT_DUMP, reason=reason, path=path, ok=True)
        return path
