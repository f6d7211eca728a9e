"""The long-running co-estimation server.

``repro serve`` turns the one-shot estimator into a shared facility: a
stdlib :class:`~http.server.ThreadingHTTPServer` front end (JSON API,
no new dependencies) over a bounded admission queue and a pool of
worker threads that run the same supervised master the CLI runs.

The request path, end to end::

    POST /estimate ─▶ parse ─▶ fingerprint ─▶ dedup ─▶ admission queue
                                  │                        │
                     (identical in-flight request:         │ full: 429 + Retry-After
                      coalesce, no queue slot)             │ higher-priority arrival:
                                                           │ shed lowest, 503 to victim
                                                  worker thread
                                                           │ deadline left? (504 if not)
                                               supervised co-estimation
                                        (per-request watchdog, circuit breakers,
                                         degradation ladder, provenance tags)
                                                           │
                                               200 + report  /  504  /  500

Robustness properties, each tested:

* bounded memory — the queue never exceeds ``queue_depth`` entries and
  every refusal is an explicit 429/503, never an unbounded buffer;
* deadline isolation — a request's remaining budget becomes the run's
  resilience watchdog, so one slow gate-level simulation degrades (with
  a provenance tag) instead of pinning a worker past the deadline;
* failure isolation — persistent per-site failures trip a circuit
  breaker keyed ``<system>:<site>``; an open breaker short-circuits
  straight onto the §4.2-cache / §4.1-macromodel rungs, answering
  degraded-but-tagged instead of erroring, and half-open probes find
  recovery on their own;
* graceful drain — SIGTERM stops admission, finishes what it can
  within the drain timeout, checkpoints the rest through the PR-3
  :class:`~repro.resilience.checkpoint.CheckpointWriter`, and exits 0.

Workers are *threads*, not processes: co-estimation runs are seconds
long and the service optimizes robustness and cache sharing (the
process-wide compile/synthesis/ISS caches and the warm-start energy
cache are shared by every request for free).  Throughput under the GIL
scales with the low-level simulators' time spent outside Python — for
CPU-bound saturation the front end is meant to be replicated, which is
why drain + checkpoint + idempotent dedup exist.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, cast

from repro.errors import ReproError
from repro.obs import Observability
from repro.obs.context import RequestContext, use_context, use_event_sink
from repro.obs.logging import JsonLogger, NULL_LOGGER
from repro.obs.names import (
    EVENT_ADMITTED,
    EVENT_COALESCED,
    EVENT_COMPLETED,
    EVENT_DEADLINE_EXPIRED,
    EVENT_DISPATCHED,
    EVENT_DRAIN_STEP,
    EVENT_FAILED,
    EVENT_REJECTED,
    EVENT_SHED,
    METRIC_ADMISSION_STATIC_COST_IN_FLIGHT,
    METRIC_ADMISSION_STATIC_COST_QUEUED,
    METRIC_ADMISSION_STATIC_COST_SECONDS_PER_UNIT,
)
from repro.obs.slo import SLOConfig
from repro.resilience.supervisor import WatchdogTimeout, call_with_watchdog
from repro.service.api import (
    BadRequest,
    EstimateRequest,
    estimate_answer,
    estimate_job,
    parse_request,
    request_fingerprint,
)
from repro.service.breaker import BreakerRegistry
from repro.service.dedup import InflightTable
from repro.service.httpbase import JsonRequestHandler, QuietHTTPServer
from repro.service.lifecycle import (
    DrainController,
    load_drain_checkpoint,
    serve_until_drained,
    write_drain_checkpoint,
)
from repro.service.queue import AdmissionQueue, QueueClosed, QueueFull
from repro.systems import build_bundle, system_names
from repro.telemetry import Telemetry

__all__ = [
    "ServiceConfig",
    "ServiceRejected",
    "PendingResult",
    "DrainReport",
    "CoEstimationService",
    "ServiceHTTPServer",
    "run_server",
]


#: Seconds-per-cost-unit rate used for Retry-After quotes before any
#: run has completed; replaced by the online EWMA after the first one.
DEFAULT_SECONDS_PER_COST_UNIT = 0.05


class ServiceRejected(ReproError):
    """A submission was refused (backpressure, drain, shed)."""

    def __init__(self, message: str, status: int, reason: str,
                 retry_after_s: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass
class ServiceConfig:
    """Tuning knobs of one service instance (see docs/service.md)."""

    workers: int = 2
    queue_depth: int = 8
    default_deadline_s: float = 30.0
    drain_timeout_s: float = 10.0
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    #: Optional per-low-level-call watchdog; the effective watchdog is
    #: ``min(call_watchdog_s, request's remaining deadline)``.
    call_watchdog_s: Optional[float] = None
    checkpoint_path: Optional[str] = None
    #: Latency/availability objectives tracked by the obs layer.
    slo: SLOConfig = field(default_factory=SLOConfig)
    #: When True, one JSON log line per request lifecycle event
    #: (admission, dispatch, completion, breaker transitions, drain).
    log_json: bool = False
    #: Flight-recorder ring size (recent events kept for postmortems).
    flight_recorder_capacity: int = 256
    #: Directory for flight-recorder dumps on 5xx/drain; None disables
    #: dumping (the in-memory ring and /debug endpoint still work).
    flight_dump_dir: Optional[str] = None
    #: Newest dumps kept on disk (older ones are pruned).
    flight_dump_keep: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        if self.flight_recorder_capacity < 1:
            raise ValueError("flight_recorder_capacity must be >= 1")


class PendingResult:
    """Completion handle shared by a primary and its coalesced followers."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.status: int = 0
        self.body: Dict[str, Any] = {}
        self.headers: Dict[str, str] = {}
        #: Correlation id of the request tree this result belongs to
        #: (set at admission; the HTTP layer echoes it as X-Trace-Id).
        self.trace_id: str = ""

    def resolve(self, status: int, body: Dict[str, Any],
                headers: Optional[Dict[str, str]] = None) -> None:
        if self._event.is_set():
            return  # first terminal outcome wins
        self.status = status
        self.body = body
        self.headers = dict(headers or {})
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        return self._event.is_set()


@dataclass
class _Entry:
    """One admitted request riding through queue and worker."""

    request: EstimateRequest
    fingerprint: str
    pending: PendingResult
    admitted_at: float
    context: Optional[RequestContext] = None
    #: Static admission weight of the request
    #: (:attr:`repro.lint.cost.CostReport.cost_units`).
    cost: float = 1.0

    @classmethod
    def new(cls, request: EstimateRequest, bundle: Any, admitted_at: float,
            cost: float = 1.0) -> "_Entry":
        """An entry with a fresh trace context and result handle."""
        context = RequestContext.new(request.request_id)
        entry = cls(request, request_fingerprint(bundle, request),
                    PendingResult(), admitted_at, context, cost)
        entry.pending.trace_id = context.trace_id
        return entry


@dataclass
class DrainReport:
    """Outcome of one graceful drain."""

    reason: str = ""
    drained_clean: bool = True
    completed: int = 0
    checkpointed: int = 0
    abandoned_in_flight: int = 0
    checkpoint_path: Optional[str] = None

    def summary(self) -> str:
        parts = [
            "drain (%s): %s" % (self.reason or "requested",
                                "clean" if self.drained_clean else "timed out"),
            "%d request(s) completed" % self.completed,
        ]
        if self.checkpointed:
            parts.append("%d checkpointed to %s"
                         % (self.checkpointed, self.checkpoint_path))
        if self.abandoned_in_flight:
            parts.append("%d abandoned in flight" % self.abandoned_in_flight)
        return ", ".join(parts)


class CoEstimationService:
    """Queue + workers + breakers + dedup + drain, HTTP-agnostic.

    The HTTP layer is a thin adapter over this class, so tests (and
    embedders) can drive admission, execution and drain directly.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 clock: Callable[[], float] = time.monotonic,
                 logger: Optional[JsonLogger] = None) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.clock = clock
        if logger is None:
            logger = JsonLogger() if self.config.log_json else NULL_LOGGER
        self.obs = Observability(
            metrics=self.telemetry.metrics,
            logger=logger,
            slo=self.config.slo,
            flight_capacity=self.config.flight_recorder_capacity,
            flight_dump_dir=self.config.flight_dump_dir,
            flight_keep=self.config.flight_dump_keep,
        )
        self.queue = AdmissionQueue(self.config.queue_depth)
        self.breakers = BreakerRegistry(
            failure_threshold=self.config.breaker_threshold,
            recovery_s=self.config.breaker_recovery_s,
            clock=clock,
            on_transition=self.obs.breaker_transition,
        )
        self.dedup = InflightTable()
        # Last few requests' worker-side span records, keyed by
        # trace_id — the /debug/trace/<id> postmortem view.  Bounded:
        # oldest evicted first.
        self._recent_traces: "OrderedDict[str, List[Tuple]]" = OrderedDict()
        self._recent_traces_cap = 32
        self.drain_controller = DrainController()
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._in_flight = 0
        self._in_flight_cost = 0.0
        self._avg_run_s = 0.0
        # Online seconds-per-cost-unit estimate (EWMA over completed
        # runs); 0.0 means "nothing learned yet" and _retry_after_s
        # falls back to DEFAULT_SECONDS_PER_COST_UNIT.
        self._seconds_per_cost_unit = 0.0
        # Per-system static admission weights, computed once — the
        # bundled systems are immutable, so their CostReports are too.
        self._static_costs: Dict[str, float] = {}
        self._completed = 0
        self._failed = 0
        self._expired = 0
        self._shed = 0
        self._provenance: Dict[str, int] = {}
        self._degraded_responses = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name="coest-worker-%d" % index,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def ready(self) -> bool:
        return (self._started and not self._stopped
                and not self.drain_controller.draining)

    def resume_from_checkpoint(self, path: str) -> int:
        """Re-enqueue the pending requests of a drain checkpoint.

        Resumed requests have no waiting client; they run for their
        side effects (warming the process-wide caches and the service's
        shadow statistics) and to honor the work-loss contract: a
        drained request is *deferred*, not dropped.
        """
        resumed = 0
        for payload in load_drain_checkpoint(path):
            try:
                request = EstimateRequest.from_payload(
                    payload, known_systems=system_names()
                )
                self.submit(request)
            except (BadRequest, ServiceRejected):
                continue
            resumed += 1
        return resumed

    # -- admission ------------------------------------------------------

    def submit(self, request: EstimateRequest) -> Tuple[PendingResult, bool]:
        """Admit one request; returns ``(pending, coalesced)``.

        Raises :class:`ServiceRejected` with the HTTP status to answer
        (503 draining, 429 queue full + Retry-After).
        """
        if not self._started:
            raise ServiceRejected("service not started", 503, "not_started")
        if self.drain_controller.draining or self._stopped:
            self._count("service.rejected.draining")
            raise ServiceRejected("service is draining", 503, "draining")
        bundle = build_bundle(request.system)
        cost = self._static_cost(request.system, bundle)
        entry = _Entry.new(request, bundle, self.clock(), cost)
        fingerprint = entry.fingerprint
        with use_context(entry.context):
            primary = self.dedup.admit(fingerprint, entry)
            if primary is not entry:
                self._count("service.coalesced")
                self.obs.event(
                    EVENT_COALESCED,
                    fingerprint=fingerprint,
                    primary_trace_id=(
                        primary.context.trace_id if primary.context else ""
                    ),
                )
                return primary.pending, True
            try:
                victim = self.queue.submit(entry, request.priority,
                                           cost=cost)
            except QueueFull:
                self.dedup.complete(fingerprint)
                self._count("service.rejected.queue_full")
                self.obs.event(
                    EVENT_REJECTED, reason="queue_full",
                    system=request.system, depth=self.queue.depth,
                    static_cost=round(cost, 4),
                )
                raise ServiceRejected(
                    "admission queue full", 429, "queue_full",
                    retry_after_s=self._retry_after_s(cost),
                ) from None
            except QueueClosed:
                self.dedup.complete(fingerprint)
                self._count("service.rejected.draining")
                self.obs.event(EVENT_REJECTED, reason="draining",
                               system=request.system)
                raise ServiceRejected(
                    "service is draining", 503, "draining"
                ) from None
            self._count("service.admitted")
            self._gauge("service.queue_depth", self.queue.depth)
            self.obs.event(
                EVENT_ADMITTED,
                system=request.system,
                strategy=request.strategy,
                priority=request.priority,
                depth=self.queue.depth,
                static_cost=round(cost, 4),
            )
            if victim is not None:
                self._finish_shed(victim)
        return entry.pending, False

    def _static_cost(self, system: str, bundle: Any) -> float:
        """Static admission weight of one request, cached per system.

        The weight is :attr:`repro.lint.cost.CostReport.cost_units` —
        a pure function of the design, so it is computed once.  Falls
        back to the neutral weight 1.0 when the analysis fails:
        admission *pricing* must never refuse work the estimator could
        still run.
        """
        with self._lock:
            cached = self._static_costs.get(system)
        if cached is not None:
            return cached
        try:
            from repro.lint.cost import compute_cost_report

            cost = compute_cost_report(bundle.network).cost_units
        except Exception:
            cost = 1.0
        with self._lock:
            self._static_costs[system] = cost
        return cost

    def _retry_after_s(self, incoming_cost: float = 0.0) -> int:
        """Retry-After quote from the *statically priced* backlog.

        The backlog is summed in cost units (queued + in flight + the
        refused request's own weight) and converted to seconds by the
        learned per-unit rate, divided across the workers — so a
        heavyweight design is quoted a longer back-off than a light
        one against the same queue.
        """
        with self._lock:
            rate = (self._seconds_per_cost_unit
                    or DEFAULT_SECONDS_PER_COST_UNIT)
            in_flight_cost = self._in_flight_cost
        backlog = self.queue.queued_cost + in_flight_cost + incoming_cost
        estimate = backlog * rate / max(1, self.config.workers)
        return max(1, int(estimate + 0.999))

    def _finish_shed(self, victim: _Entry) -> None:
        with self._lock:
            self._shed += 1
        self._count("service.shed")
        self.dedup.complete(victim.fingerprint)
        self._resolve(
            victim,
            503,
            {
                "status": "rejected",
                "reason": "load_shed",
                "request_id": victim.request.request_id,
                "detail": "shed for a higher-priority request under "
                          "queue pressure",
            },
            headers={"Retry-After": str(self._retry_after_s(victim.cost))},
            event=EVENT_SHED,
        )

    def _resolve(self, entry: _Entry, status: int, body: Dict[str, Any],
                 headers: Optional[Dict[str, str]] = None,
                 event: Optional[str] = None, **event_fields: Any) -> None:
        """Terminal-outcome funnel: every response goes through here.

        One call site per outcome keeps the observability contract
        honest — the trace id lands on the response, the SLO tracker
        and latency histogram see every terminal status, the lifecycle
        event is recorded under the request's context, and any
        server-side failure (5xx) triggers a flight-recorder dump.
        """
        headers = dict(headers or {})
        if entry.context is not None:
            headers.setdefault("X-Trace-Id", entry.context.trace_id)
        entry.pending.resolve(status, body, headers)
        latency_s = self.clock() - entry.admitted_at
        self.obs.record_outcome(status, latency_s)
        with use_context(entry.context):
            if event is not None:
                self.obs.event(
                    event, status=status,
                    latency_s=round(latency_s, 6), **event_fields
                )
            # 503 is routine backpressure (shed / draining) — not a
            # postmortem; the drain path writes its own single dump.
            if status >= 500 and status != 503:
                self.obs.dump_flight(str(body.get("reason") or status))

    # -- execution ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            entry = self.queue.take(timeout=0.1)
            if entry is None:
                if self.queue.closed or self._stopped:
                    return
                continue
            with self._lock:
                self._in_flight += 1
                self._in_flight_cost += entry.cost
            try:
                self._execute(entry)
            finally:
                self.dedup.complete(entry.fingerprint)
                with self._lock:
                    self._in_flight -= 1
                    self._in_flight_cost -= entry.cost
                self._gauge("service.queue_depth", self.queue.depth)

    def _execute(self, entry: _Entry) -> None:
        # The whole execution runs under the request's trace context and
        # with the obs bundle as the event sink, so spans, log lines and
        # supervisor events (fallbacks, breaker trips) all correlate.
        with use_context(entry.context), use_event_sink(self.obs.sink):
            self._execute_in_context(entry)

    def _execute_in_context(self, entry: _Entry) -> None:
        request = entry.request
        queue_wait = self.clock() - entry.admitted_at
        self._observe("service.queue_wait_seconds", queue_wait)
        remaining = request.deadline_s - queue_wait
        if remaining <= 0:
            self._expire(entry, "deadline of %.3fs expired after %.3fs in "
                         "the queue" % (request.deadline_s, queue_wait),
                         queue_seconds=round(queue_wait, 6))
            return
        watchdog_s = remaining
        if self.config.call_watchdog_s is not None:
            watchdog_s = min(watchdog_s, self.config.call_watchdog_s)
        breakers = self.breakers.scoped(request.system)
        spec = estimate_job(
            request, watchdog_s, breakers,
            trace=(entry.context.to_payload()
                   if entry.context is not None else None),
            collect_telemetry=self.telemetry.enabled,
        )
        from repro.parallel.pool import execute_spec

        self.obs.event(
            EVENT_DISPATCHED,
            system=request.system,
            strategy=request.strategy,
            queue_seconds=round(queue_wait, 6),
            deadline_remaining_s=round(remaining, 6),
        )
        started = self.clock()
        run_span = self.telemetry.tracer.span(
            "service.execute",
            track="service",
            args=dict(
                entry.context.trace_args() if entry.context else {},
                system=request.system,
            ),
        )
        try:
            # Outer backstop only: the in-run watchdog already bounds
            # every low-level call at `watchdog_s` and degrades instead
            # of hanging, so this fires only if the master itself wedges.
            report, run_seconds, _, job_spans = call_with_watchdog(
                lambda: execute_spec(spec), remaining + 1.0
            )
        except WatchdogTimeout:
            self._expire(entry, "run exceeded the %.3fs remaining deadline"
                         % remaining, detail="watchdog")
            return
        except Exception as exc:
            with self._lock:
                self._failed += 1
            self._count("service.failed")
            self._resolve(
                entry,
                500,
                {
                    "status": "error",
                    "reason": "estimation_failed",
                    "request_id": request.request_id,
                    "detail": "%s: %s" % (type(exc).__name__, exc),
                },
                event=EVENT_FAILED,
                error="%s: %s" % (type(exc).__name__, exc),
            )
            return
        finally:
            run_span.close()
        if entry.context is not None and job_spans:
            self._remember_trace(entry.context.trace_id, job_spans)
        body = estimate_answer(request, report, breakers, run_seconds)
        body["fingerprint"] = entry.fingerprint
        body["queue_seconds"] = queue_wait
        self._finish_ok(entry, body, self.clock() - started)

    def _expire(self, entry: _Entry, message: str,
                **event_fields: Any) -> None:
        with self._lock:
            self._expired += 1
        self._count("service.deadline_expired")
        self._resolve(
            entry,
            504,
            {
                "status": "error",
                "reason": "deadline_exceeded",
                "request_id": entry.request.request_id,
                "detail": message,
            },
            event=EVENT_DEADLINE_EXPIRED,
            **event_fields,
        )

    def _remember_trace(self, trace_id: str, spans: List[Tuple]) -> None:
        with self._lock:
            self._recent_traces[trace_id] = list(spans)
            while len(self._recent_traces) > self._recent_traces_cap:
                self._recent_traces.popitem(last=False)

    def trace_spans(self, trace_id: str) -> Optional[List[Tuple]]:
        """Worker-side span records of a recent request (None if gone)."""
        with self._lock:
            spans = self._recent_traces.get(trace_id)
            return list(spans) if spans is not None else None

    def _finish_ok(self, entry: _Entry, body: Dict[str, Any],
                   wall_s: float) -> None:
        provenance: Dict[str, int] = body["provenance"]
        degraded = bool(body["degraded"])
        with self._lock:
            self._completed += 1
            self._avg_run_s = (
                wall_s if self._avg_run_s == 0.0
                else 0.8 * self._avg_run_s + 0.2 * wall_s
            )
            rate = wall_s / max(entry.cost, 1e-9)
            self._seconds_per_cost_unit = (
                rate if self._seconds_per_cost_unit == 0.0
                else 0.8 * self._seconds_per_cost_unit + 0.2 * rate
            )
            for level, count in provenance.items():
                self._provenance[level] = (
                    self._provenance.get(level, 0) + count
                )
            if degraded:
                self._degraded_responses += 1
        self._count("service.completed")
        if degraded:
            self._count("service.degraded_responses")
        self._observe("service.run_seconds", wall_s)
        for level, count in sorted(provenance.items()):
            if count > 0:
                self.obs.record_answer(entry.request.system, level, count)
        self._resolve(
            entry,
            200,
            body,
            event=EVENT_COMPLETED,
            system=entry.request.system,
            degraded=degraded,
            run_seconds=round(body["run_seconds"], 6),
        )

    # -- drain ----------------------------------------------------------

    def drain(self, reason: str = "requested",
              timeout_s: Optional[float] = None) -> DrainReport:
        """Stop admitting, finish or checkpoint the backlog, stop workers.

        Idempotent with respect to the admission state; returns the
        :class:`DrainReport` the CLI prints before exiting 0.
        """
        self.drain_controller.request_drain(reason)
        self.obs.event(EVENT_DRAIN_STEP, step="requested", reason=reason)
        timeout = (self.config.drain_timeout_s
                   if timeout_s is None else timeout_s)
        deadline = self.clock() + timeout
        while self.clock() < deadline:
            with self._lock:
                busy = self._in_flight
            if self.queue.depth == 0 and busy == 0:
                break
            time.sleep(0.02)
        self.queue.close()
        self.obs.event(EVENT_DRAIN_STEP, step="queue_closed",
                       depth=self.queue.depth)
        leftovers: List[_Entry] = self.queue.drain_remaining()
        join_deadline = max(0.0, deadline - self.clock()) + 1.0
        for thread in self._threads:
            thread.join(join_deadline)
        self._stopped = True
        with self._lock:
            abandoned = self._in_flight
            completed = self._completed
        report = DrainReport(
            reason=self.drain_controller.reason or reason,
            drained_clean=(not leftovers and abandoned == 0),
            completed=completed,
            checkpointed=len(leftovers),
            abandoned_in_flight=abandoned,
            checkpoint_path=self.config.checkpoint_path,
        )
        if self.config.checkpoint_path is not None:
            write_drain_checkpoint(
                self.config.checkpoint_path,
                [entry.request.to_payload() for entry in leftovers],
                meta={
                    "reason": report.reason,
                    "completed": completed,
                    "abandoned_in_flight": abandoned,
                },
            )
        for entry in leftovers:
            self.dedup.complete(entry.fingerprint)
            self._resolve(
                entry,
                503,
                {
                    "status": "rejected",
                    "reason": "draining",
                    "request_id": entry.request.request_id,
                    "checkpointed": self.config.checkpoint_path is not None,
                },
                headers={"Retry-After": "30"},
                event=EVENT_REJECTED,
                reason="draining",
            )
        self._gauge("service.queue_depth", 0)
        self.obs.event(
            EVENT_DRAIN_STEP,
            step="finished",
            clean=report.drained_clean,
            completed=report.completed,
            checkpointed=report.checkpointed,
            abandoned=report.abandoned_in_flight,
        )
        self.obs.dump_flight("drain")
        return report

    # -- observability --------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """The /stats document (also the programmatic dashboard view)."""
        with self._lock:
            service = {
                "state": ("draining" if self.drain_controller.draining
                          else "ready" if self.ready else "stopped"),
                "workers": self.config.workers,
                "in_flight": self._in_flight,
                "completed": self._completed,
                "failed": self._failed,
                "deadline_expired": self._expired,
                "shed": self._shed,
                "degraded_responses": self._degraded_responses,
                "avg_run_seconds": self._avg_run_s,
            }
            admission = {
                "in_flight_cost": round(self._in_flight_cost, 4),
                "seconds_per_cost_unit": self._seconds_per_cost_unit,
                "static_costs": {
                    name: round(cost, 4)
                    for name, cost in sorted(self._static_costs.items())
                },
            }
            provenance = dict(self._provenance)
        admission["queued_cost"] = round(self.queue.queued_cost, 4)
        self._refresh_admission_gauges()
        self._gauge("service.queue_depth", self.queue.depth)
        self._gauge("service.breakers_open", self.breakers.open_count())
        self.obs.sync_breaker_states(self.breakers.states())
        self.obs.publish()
        recorder = self.obs.recorder
        return {
            "service": service,
            "admission": admission,
            "queue": self.queue.snapshot(),
            "dedup": self.dedup.snapshot(),
            "breakers": self.breakers.snapshot(),
            "breaker_states": self.breakers.states(),
            "provenance": provenance,
            "slo": self.obs.slo.snapshot(),
            "flight_recorder": {
                "capacity": recorder.capacity,
                "recorded": recorder.recorded,
                "dropped": recorder.dropped,
                "dumps": recorder.dumps,
                "dump_dir": self.config.flight_dump_dir,
            },
            "metrics": self.telemetry.metrics.snapshot(),
        }

    def metrics_exposition(self) -> str:
        """The Prometheus ``/metrics`` body (refreshes derived gauges)."""
        self._gauge("service.queue_depth", self.queue.depth)
        self._gauge("service.breakers_open", self.breakers.open_count())
        self._refresh_admission_gauges()
        self.obs.sync_breaker_states(self.breakers.states())
        return self.obs.render_metrics()

    def _refresh_admission_gauges(self) -> None:
        with self._lock:
            in_flight_cost = self._in_flight_cost
            rate = self._seconds_per_cost_unit
        self._gauge(METRIC_ADMISSION_STATIC_COST_QUEUED,
                    self.queue.queued_cost)
        self._gauge(METRIC_ADMISSION_STATIC_COST_IN_FLIGHT, in_flight_cost)
        self._gauge(METRIC_ADMISSION_STATIC_COST_SECONDS_PER_UNIT, rate)

    def _count(self, name: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(name).set(value)

    def _observe(self, name: str, value: float) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.histogram(name).observe(value)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class ServiceHTTPServer(QuietHTTPServer):
    """The HTTP server of ``repro serve``; carries the service reference."""

    def __init__(self, address: Tuple[str, int],
                 service: CoEstimationService,
                 quiet: bool = True) -> None:
        self.service = service
        super().__init__(address, _Handler, quiet=quiet)


#: Grace added to a request's deadline while a handler waits for its
#: pending result; a drain always resolves earlier.
WAIT_GRACE_S = 5.0


def answer_estimate(
    handler: JsonRequestHandler,
    submit: Callable[[EstimateRequest], Tuple[PendingResult, bool]],
    default_deadline_s: float,
    body: Any,
) -> None:
    """The ``POST /estimate`` flow of ``repro serve`` and the cluster
    coordinator: parse, ``submit`` (which raises
    :class:`ServiceRejected` to refuse), wait, answer."""
    server = cast(QuietHTTPServer, handler.server)
    with server.owed_answer():
        try:
            request = parse_request(
                body, known_systems=system_names(),
                default_deadline_s=default_deadline_s,
            )
        except BadRequest as exc:
            handler.respond_json(400, {"status": "error",
                                       "reason": str(exc)})
            return
        try:
            pending, coalesced = submit(request)
        except ServiceRejected as exc:
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = str(exc.retry_after_s)
            handler.respond_json(exc.status, {
                "status": "rejected",
                "reason": exc.reason,
                "request_id": request.request_id,
            }, headers)
            return
        server.waiting_on(pending)
        if not pending.wait(request.deadline_s + WAIT_GRACE_S):
            handler.respond_json(504, {
                "status": "error",
                "reason": "deadline_exceeded",
                "request_id": request.request_id,
            })
            return
        reply = dict(pending.body)
        if coalesced:
            reply["coalesced"] = True
        handler.respond_json(pending.status, reply, pending.headers)


class _Handler(JsonRequestHandler):
    KNOWN_PATHS = (
        "/estimate", "/healthz", "/readyz", "/stats", "/metrics",
        "/debug/flightrecorder", "/debug/trace",
    )

    @property
    def service(self) -> CoEstimationService:
        return self.server.service  # type: ignore[attr-defined]

    def record_http(self, label: str, status: int) -> None:
        self.service.obs.record_http(label, status)

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self.respond_json(200, {
                "status": "alive",
                "draining": self.service.drain_controller.draining,
            })
        elif self.path == "/readyz":
            if self.service.ready:
                self.respond_json(200, {"status": "ready"})
            else:
                reason = ("draining" if self.service.drain_controller.draining
                          else "not_started")
                self.respond_json(503, {"status": reason})
        elif self.path == "/stats":
            self.respond_json(200, self.service.stats_snapshot())
        elif self.path == "/metrics":
            self.respond_text(200, self.service.metrics_exposition())
        elif self.path == "/debug/flightrecorder":
            self.respond_json(200, self.service.obs.recorder.snapshot())
        elif self.path.startswith("/debug/trace/"):
            trace_id = self.path[len("/debug/trace/"):]
            spans = self.service.trace_spans(trace_id)
            if spans is None:
                self.respond_json(404, {
                    "status": "error",
                    "reason": "no recent trace %s" % trace_id,
                })
            else:
                self.respond_json(200, {
                    "trace_id": trace_id,
                    "spans": [list(span) for span in spans],
                })
        else:
            self.respond_json(404, {"status": "error",
                                "reason": "unknown path %s" % self.path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/estimate":
            self.respond_json(404, {"status": "error",
                                "reason": "unknown path %s" % self.path})
            return
        body = self.read_json_body()
        if body is None:
            return
        answer_estimate(self, self.service.submit,
                        self.service.config.default_deadline_s, body)


def run_server(
    host: str,
    port: int,
    config: Optional[ServiceConfig] = None,
    resume_path: Optional[str] = None,
    install_signals: bool = True,
    quiet: bool = False,
    ready_callback: Optional[
        Callable[["CoEstimationService", "ServiceHTTPServer"], None]
    ] = None,
) -> int:
    """Run the service until a drain is requested; returns the exit code.

    This is the body of ``repro serve``: start workers, optionally
    resume a drain checkpoint, serve HTTP, block until SIGTERM/SIGINT
    (or a programmatic ``drain_controller.request_drain``), then drain
    gracefully and exit 0.
    """
    service = CoEstimationService(config)
    service.start()
    if resume_path is not None:
        import os

        if os.path.exists(resume_path):
            resumed = service.resume_from_checkpoint(resume_path)
            if not quiet and resumed:
                print("resumed %d checkpointed request(s) from %s"
                      % (resumed, resume_path))
    httpd = ServiceHTTPServer((host, port), service, quiet=True)

    def ready() -> int:
        if not quiet:
            print("co-estimation service listening on http://%s:%d "
                  "(workers=%d queue=%d) — SIGTERM drains gracefully"
                  % (host, httpd.server_address[1], service.config.workers,
                     service.config.queue_depth), flush=True)
        if ready_callback is not None:
            ready_callback(service, httpd)
        return 0

    def drain() -> None:
        # Drain BEFORE the HTTP layer closes: the drain resolves every
        # pending request (finished, checkpointed, or shed) and the
        # handler threads need a live server to deliver those final
        # responses.  New submissions are already refused with 503 the
        # instant the drain flag is set.
        report = service.drain()
        if not quiet:
            print(report.summary(), flush=True)

    return serve_until_drained(
        httpd, service.drain_controller, "coest-http",
        install_signals=install_signals, on_ready=ready, on_drain=drain,
    )
