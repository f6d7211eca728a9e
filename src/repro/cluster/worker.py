"""The cluster worker node (``repro worker``).

One worker is a thin HTTP shell around the existing single-process
execution funnel: every job it accepts — a sweep point or a service
estimate — runs through :func:`repro.parallel.pool.execute_spec`, the
same path ``repro explore --jobs N`` and ``repro serve`` use.  The
worker adds exactly three things:

* **registration + heartbeats** — it announces itself to the
  coordinator at startup (bounded retries with the resilience layer's
  deterministic backoff) and then heartbeats on a fixed interval,
  carrying queue depth, in-flight count, completed count and mean run
  seconds.  A heartbeat answered ``unknown`` (the coordinator declared
  this worker dead, quarantined it, or restarted) triggers a
  re-registration, which resets the coordinator-side statistics;
* **the warm-cache bridge** — before a cold warm-start job it pulls the
  coordinator's shared §4.2 cache tier (fingerprint-guarded adoption),
  and after a warm run it pushes its updated snapshot back, so cache
  convergence transfers across nodes;
* **decommission** — ``POST /decommission`` stops admission (503 on
  subsequent ``/run``), which makes the coordinator re-queue this
  worker's shard onto its ring successors (the checkpoint-backed shard
  handoff described in docs/cluster.md).

``--limp-s`` injects an artificial per-job *and* per-heartbeat delay —
the fault hook the limplock tests and the cluster smoke script use to
manufacture an alive-but-slow node.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, cast

from repro.parallel.jobs import JobError, spec_from_wire
from repro.parallel.pool import execute_spec
from repro.parallel.runners import seed_warm_cache, warm_cache_state
from repro.cluster.protocol import (
    JOB_KIND_ESTIMATE,
    JOB_KIND_SPEC,
    REASON_NOT_LEADER,
    REASON_STALE_EPOCH,
    STATUS_STALE_EPOCH,
    TransportError,
    get_json,
    post_json,
)
from repro.core.explorer import DesignPoint, design_point_payload
from repro.core.report import EnergyReport
from repro.resilience.supervisor import retry_backoff_s
from repro.service.api import (
    BadRequest,
    estimate_answer,
    estimate_job,
    parse_request,
)
from repro.service.breaker import BreakerRegistry
from repro.service.httpbase import JsonRequestHandler, QuietHTTPServer
from repro.service.lifecycle import DrainController, serve_until_drained
from repro.systems import system_names

__all__ = ["WorkerConfig", "ClusterWorker", "run_worker"]


@dataclass
class WorkerConfig:
    """Tuning knobs of one worker node (see docs/cluster.md)."""

    coordinator_url: str
    worker_id: str = ""
    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds between heartbeats; the coordinator's ``suspect_after_s``
    #: must exceed this or healthy workers flap to suspect.
    heartbeat_interval_s: float = 1.0
    #: Concurrent job slots; arrivals beyond this queue (and the queue
    #: depth rides the next heartbeat).
    slots: int = 1
    #: Fault injection: sleep this long before each run *and* before
    #: each heartbeat — manufactures an alive-but-slow (limplocked)
    #: node for tests and the cluster smoke script.
    limp_s: float = 0.0
    #: *Initial* registration retry budget (deterministic backoff
    #: between tries).  Once the worker has made contact, losing the
    #: coordinator is not fatal: re-registration retries without bound
    #: at the capped backoff, walking the peer list (docs/cluster-ha.md).
    register_retries: int = 10
    register_backoff_s: float = 0.1
    register_backoff_cap_s: float = 2.0
    #: Additional coordinator URLs (standbys) to fail over through.
    peers: List[str] = field(default_factory=list)
    #: Consecutive heartbeat transport failures before the worker walks
    #: the peer list looking for a new leader.
    heartbeat_miss_limit: int = 3
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    #: Participate in the coordinator's shared warm-cache tier.
    warm_tier: bool = True

    def __post_init__(self) -> None:
        if not self.worker_id:
            self.worker_id = "worker-%d" % os.getpid()
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.limp_s < 0:
            raise ValueError("limp_s must be non-negative")


class ClusterWorker:
    """HTTP-agnostic worker core (the handler is a thin adapter).

    Every job funnels through :func:`execute_spec`, so seeding is
    identical to the process pool's: re-dispatching a job to a
    different worker reproduces the original result byte for byte.
    """

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.url = ""  # set once the HTTP server knows its port
        #: The coordinator currently obeyed; starts at the configured
        #: URL and moves along ``peers`` on failover.
        self.coordinator_url = config.coordinator_url
        #: Highest leader epoch this worker has obeyed.  Jobs and
        #: heartbeats stamped with an older epoch are fenced with
        #: 409 ``stale-epoch`` — the guarantee that a deposed leader
        #: cannot run anything here (docs/cluster-ha.md).
        self.epoch = 0
        self.leader_id = ""
        self._hb_misses = 0
        self.drain = DrainController()
        self.breakers = BreakerRegistry(
            failure_threshold=config.breaker_threshold,
            recovery_s=config.breaker_recovery_s,
        )
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(config.slots)
        self._waiting = 0
        self._in_flight = 0
        self._completed = 0
        self._failed = 0
        self._mean_run_s = 0.0

    # -- load snapshot (heartbeat payload) -------------------------------

    def load_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "queue_depth": self._waiting,
                "in_flight": self._in_flight,
                "completed": self._completed,
                "failed": self._failed,
                "mean_run_s": round(self._mean_run_s, 6),
            }

    # -- registration / heartbeats ---------------------------------------

    def _candidate_coordinators(self) -> List[str]:
        """Current coordinator first, then the configured peer list."""
        candidates = [self.coordinator_url]
        for peer in [self.config.coordinator_url] + list(self.config.peers):
            if peer and peer not in candidates:
                candidates.append(peer)
        return candidates

    def _adopt_leader(self, url: str, reply: Dict[str, Any]) -> None:
        """Record the coordinator that just answered authoritatively."""
        self.coordinator_url = url
        epoch = int(reply.get("epoch") or 0)
        if epoch > self.epoch:
            self.epoch = epoch
        leader = str(reply.get("leader") or "")
        if leader:
            self.leader_id = leader

    def register_backoff_s(self, attempt: int) -> float:
        """Deterministic capped backoff for registration attempts.

        The attempt index is clamped before the exponent so an
        *unbounded* re-registration loop (a worker outliving a long
        coordinator outage) can never overflow ``2.0 ** attempt``; past
        the clamp the cap rules the value anyway.
        """
        return retry_backoff_s(
            "register:%s" % self.config.worker_id, min(attempt, 32),
            self.config.register_backoff_s,
            self.config.register_backoff_cap_s,
        )

    def _register_once(self) -> bool:
        """One registration pass across the candidate coordinators."""
        body = {"worker_id": self.config.worker_id, "url": self.url}
        queue = self._candidate_coordinators()
        tried = set()
        while queue:
            url = queue.pop(0)
            if url in tried:
                continue
            tried.add(url)
            try:
                status, reply = post_json(
                    url, "/cluster/register", body, timeout_s=5.0,
                )
            except TransportError:
                continue
            if status == 200:
                self._adopt_leader(url, reply)
                return True
            if status == 503 and reply.get("reason") == REASON_NOT_LEADER:
                hint = reply.get("leader_url")
                if isinstance(hint, str) and hint and hint not in tried:
                    queue.insert(0, hint)
        return False

    def register(self) -> bool:
        """Announce this worker to the coordinator (bounded retries).

        This is the *initial* contact: if no coordinator answers within
        the retry budget the worker exits 1 — a misconfigured URL
        should fail loudly, not spin forever.
        """
        for attempt in range(1, self.config.register_retries + 1):
            if self._register_once():
                return True
            time.sleep(self.register_backoff_s(attempt))
        return False

    def reregister(self) -> bool:
        """Re-announce after initial contact: unbounded, capped backoff.

        Once the worker has been part of the cluster, a vanished
        coordinator is expected churn (failover in progress), so this
        loop never gives up — it walks the peer list at the capped
        backoff until a leader answers or the worker itself drains.
        """
        attempt = 0
        while not self.drain.draining:
            attempt += 1
            if self._register_once():
                return True
            if self.drain.wait(self.register_backoff_s(attempt)):
                break
        return False

    def heartbeat_once(self) -> None:
        """One heartbeat; re-registers if the coordinator forgot us."""
        body = dict(self.load_snapshot(),
                    worker_id=self.config.worker_id,
                    epoch=self.epoch)
        try:
            status, reply = post_json(
                self.coordinator_url, "/cluster/heartbeat", body,
                timeout_s=5.0,
            )
        except TransportError:
            # Coordinator unreachable; tolerate a few misses (it may be
            # restarting), then walk the peer list for the new leader.
            self._hb_misses += 1
            if self._hb_misses >= self.config.heartbeat_miss_limit:
                self._hb_misses = 0
                self.reregister()
            return
        self._hb_misses = 0
        if status == 503 and reply.get("reason") == REASON_NOT_LEADER:
            # A standby answered (the leader moved): follow its hint or
            # walk the peers until the new leader registers us.
            self.reregister()
            return
        if status == STATUS_STALE_EPOCH \
                and reply.get("reason") == REASON_STALE_EPOCH:
            # We carry a newer epoch than this coordinator — it is the
            # deposed one.  Find the leader that gave us the epoch.
            self.reregister()
            return
        if status == 200:
            self._adopt_leader(self.coordinator_url, reply)
            if reply.get("status") == "unknown":
                # Declared dead or quarantined (or the coordinator
                # restarted): re-register, which resets the
                # coordinator's statistics for this worker — a
                # recovered limper starts with a clean latency record.
                self.reregister()

    def heartbeat_loop(self) -> None:
        while not self.drain.wait(self.config.heartbeat_interval_s):
            if self.config.limp_s > 0:
                time.sleep(self.config.limp_s)
            self.heartbeat_once()

    # -- job execution ---------------------------------------------------

    def handle_run(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Execute one wire job; returns ``(status, response_body)``."""
        if self.drain.draining:
            return 503, {
                "status": "rejected",
                "reason": "draining",
                "worker": self.config.worker_id,
            }
        kind = body.get("kind")
        if kind not in (JOB_KIND_SPEC, JOB_KIND_ESTIMATE):
            return 400, {
                "status": "error",
                "reason": "unknown job kind %r" % kind,
            }
        epoch = int(body.get("epoch") or 0)
        if epoch:  # absent/0 = HA disabled; nothing to fence against
            with self._lock:
                if epoch < self.epoch:
                    # A deposed leader is still dispatching: fence it.
                    # Never run the job — the real leader owns it now.
                    return STATUS_STALE_EPOCH, {
                        "status": "error",
                        "reason": REASON_STALE_EPOCH,
                        "epoch": self.epoch,
                        "worker": self.config.worker_id,
                    }
                if epoch > self.epoch:
                    self.epoch = epoch
                    self.leader_id = str(body.get("leader") or "")
        acquired = self._slots.acquire(blocking=False)
        if not acquired:
            with self._lock:
                self._waiting += 1
            self._slots.acquire()
            with self._lock:
                self._waiting -= 1
        with self._lock:
            self._in_flight += 1
        try:
            if self.config.limp_s > 0:
                time.sleep(self.config.limp_s)
            if kind == JOB_KIND_SPEC:
                status, reply = self._run_spec(body)
            else:
                status, reply = self._run_estimate(body)
        finally:
            with self._lock:
                self._in_flight -= 1
            self._slots.release()
        with self._lock:
            if status == 200:
                self._completed += 1
                run_s = float(reply.get("run_seconds", 0.0))
                self._mean_run_s = (
                    run_s if self._completed == 1
                    else 0.8 * self._mean_run_s + 0.2 * run_s
                )
            else:
                self._failed += 1
        reply.setdefault("worker", self.config.worker_id)
        return status, reply

    def _run_spec(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            spec = spec_from_wire(body.get("job"))
        except JobError as exc:
            return 400, {"status": "error", "reason": str(exc)}
        warm_key = ""
        if self.config.warm_tier and spec.payload.get("warm_start"):
            warm_key = str(spec.payload.get("warm_key") or "")
            if warm_key:
                self._pull_warm_tier(warm_key)
        try:
            value, seconds, _, _ = execute_spec(spec)
        except Exception as exc:  # noqa: BLE001 - job failure is data
            return 500, {
                "status": "error",
                "reason": "job_failed",
                "label": spec.label,
                "detail": "%s: %s" % (type(exc).__name__, exc),
            }
        if warm_key:
            self._push_warm_tier(warm_key)
        result = self._serialize_value(value)
        if result is None:
            return 500, {
                "status": "error",
                "reason": "unserializable_result",
                "label": spec.label,
                "detail": "job returned %r" % type(value).__name__,
            }
        return 200, {
            "status": "ok",
            "kind": JOB_KIND_SPEC,
            "label": spec.label,
            "run_seconds": seconds,
            "result": result,
        }

    @staticmethod
    def _serialize_value(value: Any) -> Optional[Dict[str, Any]]:
        import dataclasses
        import json

        if isinstance(value, DesignPoint):
            return {"type": "design_point",
                    "payload": design_point_payload(value)}
        if isinstance(value, EnergyReport):
            return {"type": "energy_report",
                    "payload": dataclasses.asdict(value)}
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            return None
        return {"type": "json", "payload": value}

    def _run_estimate(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            request = parse_request(
                body.get("request"), known_systems=system_names()
            )
        except BadRequest as exc:
            return 400, {"status": "error", "reason": str(exc)}
        # The request's deadline arms the in-run watchdog, and
        # persistent per-site failures trip this worker's own breakers.
        breakers = self.breakers.scoped(request.system)
        spec = estimate_job(request, request.deadline_s, breakers,
                            trace=body.get("trace"))
        try:
            report, seconds, _, _ = execute_spec(spec)
        except Exception as exc:  # noqa: BLE001 - job failure is data
            return 500, {
                "status": "error",
                "reason": "estimation_failed",
                "request_id": request.request_id,
                "detail": "%s: %s" % (type(exc).__name__, exc),
            }
        answer = estimate_answer(request, report, breakers, seconds)
        answer["kind"] = JOB_KIND_ESTIMATE
        return 200, answer

    # -- warm-cache tier bridge ------------------------------------------

    def _pull_warm_tier(self, warm_key: str) -> None:
        """Seed a cold local cache from the coordinator's tier."""
        try:
            status, reply = get_json(
                self.coordinator_url,
                "/cluster/cache?key=%s" % warm_key, timeout_s=5.0,
            )
        except TransportError:
            return
        state = reply.get("state") if status == 200 else None
        if isinstance(state, dict):
            seed_warm_cache(warm_key, state)

    def _push_warm_tier(self, warm_key: str) -> None:
        """Offer the local cache snapshot to the coordinator's tier."""
        state = warm_cache_state(warm_key)
        if state is None:
            return
        try:
            post_json(
                self.coordinator_url, "/cluster/cache",
                {"key": warm_key, "state": state,
                 "worker": self.config.worker_id},
                timeout_s=5.0,
            )
        except TransportError:
            pass

    # -- decommission ----------------------------------------------------

    def decommission(self, reason: str = "requested") -> Dict[str, Any]:
        self.drain.request_drain(reason)
        return dict(self.load_snapshot(),
                    status="draining",
                    worker=self.config.worker_id)


class _WorkerHandler(JsonRequestHandler):
    KNOWN_PATHS = ("/healthz", "/run", "/decommission")

    @property
    def worker(self) -> ClusterWorker:
        return self.server.worker  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self.respond_json(200, dict(
                self.worker.load_snapshot(),
                status="alive",
                worker=self.worker.config.worker_id,
                draining=self.worker.drain.draining,
                epoch=self.worker.epoch,
                coordinator=self.worker.coordinator_url,
            ))
        else:
            self.respond_json(404, {"status": "error",
                                    "reason": "unknown path %s" % self.path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/run":
            body = self.read_json_body()
            if body is None:
                return
            server = cast(QuietHTTPServer, self.server)
            with server.owed_answer():
                self.respond_json(*self.worker.handle_run(body))
        elif self.path == "/decommission":
            body = self.read_json_body()
            if body is None:
                return
            self.respond_json(
                200,
                self.worker.decommission(
                    str(body.get("reason", "requested"))
                ),
            )
        else:
            self.respond_json(404, {"status": "error",
                                    "reason": "unknown path %s" % self.path})


def run_worker(
    config: WorkerConfig,
    install_signals: bool = True,
    quiet: bool = False,
    ready_callback=None,
) -> int:
    """The body of ``repro worker``: serve jobs until drained.

    Binds the HTTP server (``port=0`` picks a free port), registers
    with the coordinator, heartbeats until a SIGTERM or a
    ``POST /decommission`` requests a drain, then exits 0.  A failed
    registration (coordinator unreachable after the retry budget)
    exits 1.
    """
    worker = ClusterWorker(config)
    httpd = QuietHTTPServer((config.host, config.port), _WorkerHandler)
    httpd.worker = worker  # type: ignore[attr-defined]
    worker.url = "http://%s:%d" % (config.host, httpd.server_address[1])

    def ready() -> int:
        if not worker.register():
            if not quiet:
                print("worker %s could not register with %s after %d "
                      "attempt(s)" % (config.worker_id,
                                      config.coordinator_url,
                                      config.register_retries), flush=True)
            return 1
        threading.Thread(
            target=worker.heartbeat_loop, name="cluster-worker-heartbeat",
            daemon=True,
        ).start()
        if not quiet:
            print("cluster worker %s serving on %s (slots=%d) — "
                  "coordinator %s"
                  % (config.worker_id, worker.url, config.slots,
                     config.coordinator_url), flush=True)
        if ready_callback is not None:
            ready_callback(worker, httpd)
        return 0

    # A drain refuses new /run calls with 503; the serve loop still lets
    # the runs in flight send their answers before the server goes away.
    try:
        return serve_until_drained(
            httpd, worker.drain, "cluster-worker-http",
            install_signals=install_signals, on_ready=ready,
        )
    finally:
        if not quiet:
            snapshot = worker.load_snapshot()
            print("worker %s drained (%s): %d job(s) completed, %d failed"
                  % (config.worker_id,
                     worker.drain.reason or "requested",
                     snapshot["completed"], snapshot["failed"]), flush=True)
