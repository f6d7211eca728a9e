"""Canonical metric and log-event names of the observability layer.

Every metric the service exports and every structured-log event it
emits is named here, once.  Dashboards, alerts, and the smoke tests
key on these strings, so they are part of the service's compatibility
surface: renaming one is a breaking change and belongs in a release
note, not a refactor.

Metric names are dotted (`service.queue_wait_seconds`); the Prometheus
exporter (:mod:`repro.obs.prometheus`) rewrites dots to underscores
and prefixes ``repro_`` at render time, so the dotted form stays the
single internal spelling.  Labeled instruments encode their labels
into the registry name via :func:`repro.obs.prometheus.labeled`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "METRIC_HTTP_REQUESTS",
    "METRIC_ENERGY_ANSWERS",
    "METRIC_BREAKER_STATE",
    "METRIC_BREAKER_TRANSITIONS",
    "METRIC_QUEUE_DEPTH",
    "METRIC_QUEUE_WAIT_SECONDS",
    "METRIC_ADMISSION_STATIC_COST_QUEUED",
    "METRIC_ADMISSION_STATIC_COST_IN_FLIGHT",
    "METRIC_ADMISSION_STATIC_COST_SECONDS_PER_UNIT",
    "METRIC_RUN_SECONDS",
    "METRIC_REQUEST_LATENCY_SECONDS",
    "METRIC_SLO_LATENCY_BURN",
    "METRIC_SLO_ERROR_BURN",
    "METRIC_FLIGHT_RECORDED",
    "METRIC_FLIGHT_DUMPS",
    "EVENT_ADMITTED",
    "EVENT_COALESCED",
    "EVENT_REJECTED",
    "EVENT_SHED",
    "EVENT_DISPATCHED",
    "EVENT_COMPLETED",
    "EVENT_FAILED",
    "EVENT_DEADLINE_EXPIRED",
    "EVENT_BREAKER_TRANSITION",
    "EVENT_ESTIMATOR_FALLBACK",
    "EVENT_ESTIMATOR_FAILURE",
    "EVENT_ESTIMATOR_SHORT_CIRCUIT",
    "EVENT_ESTIMATOR_TIMEOUT",
    "EVENT_DRAIN_STEP",
    "EVENT_FLIGHT_DUMP",
    "SERVICE_EVENTS",
    "METRIC_CLUSTER_WORKERS",
    "METRIC_CLUSTER_HEARTBEAT_AGE",
    "METRIC_CLUSTER_WORKER_QUEUE_DEPTH",
    "METRIC_CLUSTER_REDISPATCHES",
    "METRIC_CLUSTER_QUARANTINES",
    "METRIC_CLUSTER_FAILOVERS",
    "METRIC_CLUSTER_EPOCH",
    "METRIC_CLUSTER_LEASE_REMAINING",
    "METRIC_CLUSTER_JOURNAL_ENTRIES",
    "METRIC_CLUSTER_REPLAY_SECONDS",
    "METRIC_CLUSTER_STALE_EPOCH",
    "METRIC_CLUSTER_SWEEP_DISPATCHES",
    "EVENT_WORKER_REGISTERED",
    "EVENT_WORKER_STATE",
    "EVENT_WORKER_QUARANTINED",
    "EVENT_JOB_REDISPATCHED",
    "EVENT_SHARD_HANDOFF",
    "EVENT_SWEEP_STEP",
    "EVENT_LEADER_ELECTED",
    "EVENT_LEADER_DEPOSED",
    "EVENT_LEADER_RESIGNED",
    "EVENT_JOURNAL_REPLAYED",
    "EVENT_STALE_EPOCH",
    "EVENT_SWEEP_RECOVERED",
    "CLUSTER_EVENTS",
]

# -- metrics (registry names; Prometheus spelling derived at render) ----

#: HTTP requests by handler outcome.  Labels: ``path``, ``status``.
METRIC_HTTP_REQUESTS = "http.requests"

#: Energy answers by quality tier.  Labels: ``system``, ``provenance``.
#: This is the quantitative face of the degradation ladder: the ratio
#: of non-``exact`` tiers is the measured degradation rate.
METRIC_ENERGY_ANSWERS = "service.energy_answers"

#: Current breaker state as a number (0 closed, 1 half-open, 2 open).
#: Labels: ``site`` (``"<system>:<estimator>"``).
METRIC_BREAKER_STATE = "service.breaker_state"

#: Breaker state transitions.  Labels: ``site``, ``to``.
METRIC_BREAKER_TRANSITIONS = "service.breaker_transitions"

#: Instantaneous admission-queue depth (gauge).
METRIC_QUEUE_DEPTH = "service.queue_depth"

#: Time a request spent queued before a worker took it (histogram).
METRIC_QUEUE_WAIT_SECONDS = "service.queue_wait_seconds"

#: Cost-aware admission gauges (rendered as
#: ``repro_admission_static_cost_*``): summed static admission weight
#: (:attr:`repro.lint.cost.CostReport.cost_units`) of the queued and
#: in-flight requests, and the learned seconds-per-cost-unit rate the
#: Retry-After quotes are priced with.
METRIC_ADMISSION_STATIC_COST_QUEUED = "admission.static_cost_queued"
METRIC_ADMISSION_STATIC_COST_IN_FLIGHT = "admission.static_cost_in_flight"
METRIC_ADMISSION_STATIC_COST_SECONDS_PER_UNIT = (
    "admission.static_cost_seconds_per_unit"
)

#: Wall-clock of the co-estimation run itself (histogram).
METRIC_RUN_SECONDS = "service.run_seconds"

#: End-to-end latency, admission to terminal response (histogram).
METRIC_REQUEST_LATENCY_SECONDS = "service.request_latency_seconds"

#: SLO burn rates (gauge): observed bad fraction over the window,
#: divided by the objective's error budget.  1.0 = burning exactly the
#: budget; above 1.0 the objective will be missed if sustained.
METRIC_SLO_LATENCY_BURN = "slo.latency_burn_rate"
METRIC_SLO_ERROR_BURN = "slo.error_burn_rate"

#: Flight-recorder bookkeeping (published as gauges set to the
#: recorder's absolute totals on each export).
METRIC_FLIGHT_RECORDED = "flightrecorder.recorded"
METRIC_FLIGHT_DUMPS = "flightrecorder.dumps"

# -- structured-log / flight-recorder event names -----------------------

EVENT_ADMITTED = "request.admitted"
EVENT_COALESCED = "request.coalesced"
EVENT_REJECTED = "request.rejected"
EVENT_SHED = "request.shed"
EVENT_DISPATCHED = "request.dispatched"
EVENT_COMPLETED = "request.completed"
EVENT_FAILED = "request.failed"
EVENT_DEADLINE_EXPIRED = "request.deadline_expired"
EVENT_BREAKER_TRANSITION = "breaker.transition"
EVENT_ESTIMATOR_FALLBACK = "estimator.fallback"
EVENT_ESTIMATOR_FAILURE = "estimator.persistent_failure"
EVENT_ESTIMATOR_SHORT_CIRCUIT = "estimator.short_circuit"
EVENT_ESTIMATOR_TIMEOUT = "estimator.watchdog_timeout"
EVENT_DRAIN_STEP = "drain.step"
EVENT_FLIGHT_DUMP = "flightrecorder.dump"

# -- cluster metrics (coordinator-exported) -----------------------------

#: Workers per membership state.  Labels: ``state``.
METRIC_CLUSTER_WORKERS = "cluster.workers"

#: Seconds since each worker's last heartbeat (gauge).  Labels:
#: ``worker``.
METRIC_CLUSTER_HEARTBEAT_AGE = "cluster.heartbeat_age_seconds"

#: Worker-reported queue depth from the latest heartbeat (gauge).
#: Labels: ``worker``.
METRIC_CLUSTER_WORKER_QUEUE_DEPTH = "cluster.worker_queue_depth"

#: Jobs re-dispatched away from dead/quarantined workers (counter).
METRIC_CLUSTER_REDISPATCHES = "cluster.redispatches"

#: Workers quarantined by the limplock detector (counter).
METRIC_CLUSTER_QUARANTINES = "cluster.limplock_quarantines"

#: ``/run`` requests sweeps sent to workers, each carrying a batch of
#: points (counter).
METRIC_CLUSTER_SWEEP_DISPATCHES = "cluster.sweep_dispatches"

# -- coordinator high availability (docs/cluster-ha.md) -----------------

#: Leadership takeovers completed by this coordinator (counter).  The
#: HA smoke test asserts ``repro_cluster_failovers_total >= 1`` after a
#: SIGKILL of the active coordinator.
METRIC_CLUSTER_FAILOVERS = "cluster.failovers"

#: Current leader epoch (gauge).  Monotonic across failovers; every
#: dispatch and heartbeat is fenced against it.
METRIC_CLUSTER_EPOCH = "cluster.epoch"

#: Seconds left on the leadership lease (gauge; 0 when not leading).
METRIC_CLUSTER_LEASE_REMAINING = "cluster.lease_remaining_seconds"

#: Entries in the control-plane journal (gauge).
METRIC_CLUSTER_JOURNAL_ENTRIES = "cluster.journal_entries"

#: Wall-clock seconds the last takeover spent replaying the journal
#: (gauge; 0 until the first takeover).
METRIC_CLUSTER_REPLAY_SECONDS = "cluster.takeover_replay_seconds"

#: Requests fenced with 409 ``stale-epoch`` (counter) — evidence a
#: deposed leader tried to keep dispatching.
METRIC_CLUSTER_STALE_EPOCH = "cluster.stale_epoch_rejections"

# -- cluster structured-log / flight-recorder event names ---------------

EVENT_WORKER_REGISTERED = "worker.registered"
EVENT_WORKER_STATE = "worker.state_change"
EVENT_WORKER_QUARANTINED = "worker.quarantined"
EVENT_JOB_REDISPATCHED = "job.redispatched"
EVENT_SHARD_HANDOFF = "shard.handoff"
EVENT_SWEEP_STEP = "sweep.step"
EVENT_LEADER_ELECTED = "leader.elected"
EVENT_LEADER_DEPOSED = "leader.deposed"
EVENT_LEADER_RESIGNED = "leader.resigned"
EVENT_JOURNAL_REPLAYED = "journal.replayed"
EVENT_STALE_EPOCH = "epoch.stale_rejected"
EVENT_SWEEP_RECOVERED = "sweep.recovered"

#: Every event name the service can emit — the schema contract the
#: docs and the lint-adjacent tests check against.
SERVICE_EVENTS: Tuple[str, ...] = (
    EVENT_ADMITTED,
    EVENT_COALESCED,
    EVENT_REJECTED,
    EVENT_SHED,
    EVENT_DISPATCHED,
    EVENT_COMPLETED,
    EVENT_FAILED,
    EVENT_DEADLINE_EXPIRED,
    EVENT_BREAKER_TRANSITION,
    EVENT_ESTIMATOR_FALLBACK,
    EVENT_ESTIMATOR_FAILURE,
    EVENT_ESTIMATOR_SHORT_CIRCUIT,
    EVENT_ESTIMATOR_TIMEOUT,
    EVENT_DRAIN_STEP,
    EVENT_FLIGHT_DUMP,
)

#: Every event name the cluster coordinator can emit, *in addition to*
#: the service set (the coordinator reuses EVENT_COALESCED and the
#: drain events).  A separate tuple on purpose: the single-node
#: service's event contract is unchanged by the cluster layer.
CLUSTER_EVENTS: Tuple[str, ...] = (
    EVENT_WORKER_REGISTERED,
    EVENT_WORKER_STATE,
    EVENT_WORKER_QUARANTINED,
    EVENT_JOB_REDISPATCHED,
    EVENT_SHARD_HANDOFF,
    EVENT_SWEEP_STEP,
    EVENT_LEADER_ELECTED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_RESIGNED,
    EVENT_JOURNAL_REPLAYED,
    EVENT_STALE_EPOCH,
    EVENT_SWEEP_RECOVERED,
)
