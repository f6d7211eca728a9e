"""The request frontend shared by ``repro serve`` and the cluster coordinator.

:class:`RequestFrontend` takes every estimate through one lifecycle —
refuse, coalesce, start, resolve, count — and :class:`FrontendHandler`
serves the routes both servers share.  A backend supplies only how a
request runs: :class:`~repro.service.server.CoEstimationService` queues
it for its worker threads, :class:`~repro.cluster.coordinator.
ClusterCoordinator` dispatches it over the hash ring on the handler
thread.  See docs/service.md, "One frontend, two backends".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, cast

from repro.errors import ReproError
from repro.obs import Observability
from repro.obs.context import RequestContext, use_context
from repro.obs.logging import JsonLogger, NULL_LOGGER
from repro.obs.names import (
    EVENT_COALESCED,
    EVENT_COMPLETED,
    EVENT_FAILED,
    EVENT_REJECTED,
)
from repro.service.api import (
    BadRequest,
    EstimateRequest,
    parse_request,
    request_fingerprint,
)
from repro.service.dedup import InflightTable
from repro.service.httpbase import JsonRequestHandler, QuietHTTPServer
from repro.service.lifecycle import DrainController
from repro.systems import build_bundle, system_names
from repro.telemetry import Telemetry

__all__ = [
    "ServiceRejected",
    "PendingResult",
    "Entry",
    "RequestFrontend",
    "FrontendHTTPServer",
    "FrontendHandler",
]


class ServiceRejected(ReproError):
    """A submission was refused (backpressure, drain, shed)."""

    def __init__(self, message: str, status: int, reason: str,
                 retry_after_s: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


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
class Entry:
    """One submitted request on its way through a backend."""

    request: EstimateRequest
    fingerprint: str
    pending: PendingResult
    admitted_at: float
    context: RequestContext
    #: Static admission weight of the request
    #: (:attr:`repro.lint.cost.CostReport.cost_units`).
    cost: float = 1.0


class RequestFrontend:
    """The request lifecycle, over a backend that runs the requests.

    A backend sets ``config`` (with ``log_json`` and
    ``default_deadline_s``) before calling ``__init__``, implements
    :meth:`refuse`, :meth:`start_entry`, :meth:`readyz_snapshot` and
    :meth:`backend_stats`, and may override the other hooks.
    """

    #: ``component`` of the JSON log lines.
    COMPONENT = "service"
    config: Any

    def __init__(self, clock: Callable[[], float],
                 logger: Optional[JsonLogger],
                 **observability: Any) -> None:
        self.telemetry = Telemetry.metrics_only()
        self.clock = clock
        if logger is None:
            logger = (JsonLogger(component=self.COMPONENT)
                      if self.config.log_json else NULL_LOGGER)
        self.obs = Observability(metrics=self.telemetry.metrics,
                                 logger=logger, **observability)
        self.dedup = InflightTable()
        self.drain_controller = DrainController()
        self._lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._provenance: Dict[str, int] = {}
        self._degraded_responses = 0

    # -- backend hooks ---------------------------------------------------

    def refuse(self, request: EstimateRequest) -> None:
        """Raise :class:`ServiceRejected` if no request is taken now."""
        raise NotImplementedError

    def start_entry(self, entry: Entry) -> None:
        """Run or enqueue a primary; every outcome ends in
        :meth:`resolve` and releases ``entry.fingerprint``."""
        raise NotImplementedError

    def note_run(self, entry: Entry, run_s: float) -> None:
        """Backend accounting of one answered run (``_lock`` held)."""

    def refresh_gauges(self) -> None:
        """Bring derived gauges up to date before an export."""

    def readyz_snapshot(self) -> Tuple[int, Dict[str, Any]]:
        raise NotImplementedError

    def backend_stats(self) -> Dict[str, Any]:
        """The backend's own sections of the /stats document."""
        raise NotImplementedError

    # -- the lifecycle ---------------------------------------------------

    def submit(self, request: EstimateRequest) -> Tuple[PendingResult, bool]:
        """Take one request; returns ``(pending, coalesced)``.

        Raises :class:`ServiceRejected` with the HTTP status to answer.
        An identical request already in flight (same fingerprint) is
        followed instead of started again.
        """
        self.refuse(request)
        bundle = build_bundle(request.system)
        context = RequestContext.new(request.request_id)
        entry = Entry(request, request_fingerprint(bundle, request),
                      PendingResult(), self.clock(), context)
        entry.pending.trace_id = context.trace_id
        with use_context(context):
            primary = self.dedup.admit(entry.fingerprint, entry)
            if primary is not entry:
                self._count("service.coalesced")
                self.obs.event(EVENT_COALESCED, fingerprint=entry.fingerprint,
                               primary_trace_id=primary.context.trace_id)
                return primary.pending, True
            self.start_entry(entry)
        return entry.pending, False

    def resolve(self, entry: Entry, status: int, body: Dict[str, Any],
                headers: Optional[Dict[str, str]] = None,
                event: Optional[str] = None, **event_fields: Any) -> None:
        """Terminal-outcome funnel: every response goes through here.

        One call site per outcome keeps the observability contract
        honest — the trace id lands on the response, the SLO tracker
        and latency histogram see every terminal status, the lifecycle
        event is recorded under the request's context, and any
        server-side failure (5xx) triggers a flight-recorder dump.  The
        answer is released last, so a client that has it finds the
        event and the dump already written.
        """
        headers = dict(headers or {})
        headers.setdefault("X-Trace-Id", entry.context.trace_id)
        latency_s = self.clock() - entry.admitted_at
        try:
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
        finally:
            entry.pending.resolve(status, body, headers)

    def reject(self, entry: Entry, reason: str, event: str = EVENT_REJECTED,
               headers: Optional[Dict[str, str]] = None,
               **extra: Any) -> None:
        """Answer 503 ``reason`` to a request that will not run."""
        self.resolve(entry, 503, dict(
            status="rejected", reason=reason,
            request_id=entry.request.request_id, **extra),
            headers=headers, event=event, reason=reason)

    def fail(self, entry: Entry, status: int, body: Dict[str, Any],
             **event_fields: Any) -> None:
        """Count one failed estimate and resolve it with ``status``."""
        with self._lock:
            self._failed += 1
        self._count("service.failed")
        self.resolve(entry, status, body, event=EVENT_FAILED, **event_fields)

    def finish(self, entry: Entry, status: int, body: Dict[str, Any],
               run_s: float, **event_fields: Any) -> None:
        """Account one estimate that ran, and resolve it with its
        answer: 200, or the failure ``status``."""
        if status != 200:
            self.fail(entry, status, body, **event_fields)
            return
        provenance: Dict[str, int] = body.get("provenance") or {}
        degraded = bool(body.get("degraded"))
        with self._lock:
            self._completed += 1
            self.note_run(entry, run_s)
            for level, count in provenance.items():
                self._provenance[level] = (
                    self._provenance.get(level, 0) + count
                )
            if degraded:
                self._degraded_responses += 1
        self._count("service.completed")
        if degraded:
            self._count("service.degraded_responses")
        self._observe("service.run_seconds", run_s)
        for level, count in sorted(provenance.items()):
            if count > 0:
                self.obs.record_answer(entry.request.system, level, count)
        self.resolve(entry, 200, body, event=EVENT_COMPLETED,
                     system=entry.request.system, degraded=degraded,
                     run_seconds=round(body.get("run_seconds") or 0.0, 6))

    # -- views -----------------------------------------------------------

    def healthz_snapshot(self) -> Dict[str, Any]:
        return {"status": "alive",
                "draining": self.drain_controller.draining}

    def stats_snapshot(self) -> Dict[str, Any]:
        """The /stats document (also the programmatic dashboard view)."""
        stats = self.backend_stats()
        with self._lock:
            provenance = dict(self._provenance)
        self.refresh_gauges()
        self.obs.publish()
        recorder = self.obs.recorder
        stats.update(
            dedup=self.dedup.snapshot(),
            provenance=provenance,
            slo=self.obs.slo.snapshot(),
            flight_recorder={
                "capacity": recorder.capacity,
                "recorded": recorder.recorded,
                "dropped": recorder.dropped,
                "dumps": recorder.dumps,
                "dump_dir": self.obs.flight_dump_dir,
            },
            metrics=self.telemetry.metrics.snapshot(),
        )
        return stats

    def metrics_exposition(self) -> str:
        """The Prometheus ``/metrics`` body (refreshes derived gauges)."""
        self.refresh_gauges()
        return self.obs.render_metrics()

    # -- metric helpers (no-ops under a null registry) -------------------

    def _count(self, name: str) -> None:
        self.telemetry.metrics.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        self.telemetry.metrics.gauge(name).set(value)

    def _observe(self, name: str, value: float) -> None:
        self.telemetry.metrics.histogram(name).observe(value)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class FrontendHTTPServer(QuietHTTPServer):
    """The HTTP server of one frontend (``server.frontend``)."""

    def __init__(self, address: Tuple[str, int], frontend: RequestFrontend,
                 handler_class: Any, quiet: bool = True) -> None:
        self.frontend = frontend
        super().__init__(address, handler_class, quiet=quiet)


#: Grace added to a request's deadline while a handler waits for its
#: pending result; a drain always resolves earlier.
WAIT_GRACE_S = 5.0


class FrontendHandler(JsonRequestHandler):
    """The routes every frontend serves.

    A server's handler calls :meth:`route_get` / :meth:`route_post`
    from its own ``do_GET`` / ``do_POST`` and answers its extra routes
    when they return False.
    """

    KNOWN_PATHS: Tuple[str, ...] = (
        "/estimate", "/healthz", "/readyz", "/stats", "/metrics",
        "/debug/flightrecorder",
    )

    @property
    def frontend(self) -> RequestFrontend:
        return self.server.frontend  # type: ignore[attr-defined]

    def record_http(self, label: str, status: int) -> None:
        self.frontend.obs.record_http(label, status)

    def route_get(self) -> bool:
        """Answer a shared GET route; False if the path is not one."""
        frontend = self.frontend
        if self.path == "/healthz":
            self.respond_json(200, frontend.healthz_snapshot())
        elif self.path == "/readyz":
            self.respond_json(*frontend.readyz_snapshot())
        elif self.path == "/stats":
            self.respond_json(200, frontend.stats_snapshot())
        elif self.path == "/metrics":
            self.respond_text(200, frontend.metrics_exposition())
        elif self.path == "/debug/flightrecorder":
            self.respond_json(200, frontend.obs.recorder.snapshot())
        else:
            return False
        return True

    def route_post(self, body: Any) -> bool:
        """Answer ``POST /estimate`` (parse, submit, wait); False for
        any other path."""
        if self.path != "/estimate":
            return False
        server = cast(QuietHTTPServer, self.server)
        with server.owed_answer():
            self.respond_json(*self._answer_estimate(server, body))
        return True

    def _answer_estimate(
        self, server: QuietHTTPServer, body: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            request = parse_request(
                body, known_systems=system_names(),
                default_deadline_s=self.frontend.config.default_deadline_s,
            )
        except BadRequest as exc:
            return 400, {"status": "error", "reason": str(exc)}, {}
        try:
            pending, coalesced = self.frontend.submit(request)
        except ServiceRejected as exc:
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = str(exc.retry_after_s)
            return exc.status, {"status": "rejected", "reason": exc.reason,
                                "request_id": request.request_id}, headers
        server.waiting_on(pending)
        if not pending.wait(request.deadline_s + WAIT_GRACE_S):
            return 504, {"status": "error", "reason": "deadline_exceeded",
                         "request_id": request.request_id}, {}
        reply = dict(pending.body)
        if coalesced:
            reply["coalesced"] = True
        return pending.status, reply, pending.headers
