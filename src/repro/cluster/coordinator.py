"""The cluster coordinator (``repro cluster``).

The coordinator fronts the same JSON/HTTP estimate protocol the
single-node service speaks, but instead of running jobs on local
threads it routes them to registered worker nodes:

* **consistent-hash sharding** — estimates route by their structural
  :func:`~repro.service.api.request_fingerprint`, sweep points by job
  label, so identical requests land on the same worker (cluster-wide
  in-flight coalescing stays effective) and each worker's
  process-local §4.2 caches stay hot for its shard;
* **failure detection and re-dispatch** — HDFS-style heartbeats drive
  the membership state machine (live/suspect/dead); a transport-level
  failure mid-job marks the worker dead and re-dispatches the job to
  the next worker on the ring.  Per-job seeds are deterministic
  (:func:`~repro.parallel.jobs.job_seed`), so a re-dispatched job
  reproduces the original result byte for byte.  HTTP-level errors are
  *never* re-dispatched — the job ran; its answer stands;
* **limplock quarantine** — a worker that stays alive but runs far
  slower than its peers (observed-latency EWMA above the peer median
  by the limp factor) is quarantined out of routing, so one limping
  node cannot drag cluster latency to its speed;
* **shard handoff** — sweeps flush a
  :class:`~repro.resilience.checkpoint.CheckpointWriter` per point
  under the *same signature* ``repro explore`` uses, so a partially
  drained shard resumes on any other worker — or on a single node —
  with byte-identical merged output;
* **the shared warm-cache tier** — workers push/pull §4.2 warm-start
  snapshots through the coordinator (fingerprint-guarded, wholesale
  adoption), transferring cache convergence across nodes;
* **high availability** — with a ``control_dir`` configured, every
  control-plane transition (membership, cache adoptions, sweeps in
  flight) is appended to a durable journal
  (:mod:`repro.cluster.journal`), leadership is held through a
  TTL lease (:mod:`repro.cluster.ha`), standby coordinators tail the
  leader's journal over HTTP and take over on lease expiry by
  replaying it, and every dispatch/heartbeat is **epoch-fenced** so a
  deposed leader is answered ``409 stale-epoch`` instead of splitting
  the brain.  See docs/cluster-ha.md.

The coordinator core is HTTP-agnostic with an injectable transport and
clock, so the failure machinery is unit-testable without sockets.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import labeled
from repro.obs.logging import JsonLogger
from repro.obs.names import (
    EVENT_FAILED,
    EVENT_JOB_REDISPATCHED,
    EVENT_JOURNAL_REPLAYED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_LEADER_RESIGNED,
    EVENT_SHARD_HANDOFF,
    EVENT_STALE_EPOCH,
    EVENT_SWEEP_RECOVERED,
    EVENT_SWEEP_STEP,
    EVENT_WORKER_QUARANTINED,
    EVENT_WORKER_REGISTERED,
    EVENT_WORKER_STATE,
    METRIC_CLUSTER_EPOCH,
    METRIC_CLUSTER_FAILOVERS,
    METRIC_CLUSTER_HEARTBEAT_AGE,
    METRIC_CLUSTER_JOURNAL_ENTRIES,
    METRIC_CLUSTER_LEASE_REMAINING,
    METRIC_CLUSTER_QUARANTINES,
    METRIC_CLUSTER_REDISPATCHES,
    METRIC_CLUSTER_REPLAY_SECONDS,
    METRIC_CLUSTER_STALE_EPOCH,
    METRIC_CLUSTER_SWEEP_DISPATCHES,
    METRIC_CLUSTER_WORKER_QUEUE_DEPTH,
    METRIC_CLUSTER_WORKERS,
)
from repro.cluster.ha import Lease, LeaseFile
from repro.cluster.journal import (
    KIND_CACHE_ADOPTED,
    KIND_LEADER_ELECTED,
    KIND_LEADER_RESIGNED,
    KIND_SWEEP_COMPLETED,
    KIND_SWEEP_STARTED,
    KIND_WORKER_REGISTERED,
    KIND_WORKER_STATE,
    ControlPlaneJournal,
    ControlPlaneState,
    JournalError,
    entries_to_wire,
)
from repro.errors import ReproError
from repro.cluster.hashring import HashRing
from repro.cluster.membership import (
    DEAD,
    DECOMMISSIONED,
    LIMPLOCKED,
    LIVE,
    SUSPECT,
    MembershipConfig,
    MembershipTable,
)
from repro.cluster.protocol import (
    JOB_KIND_ESTIMATE,
    JOB_KIND_SPEC,
    REASON_NOT_LEADER,
    REASON_STALE_EPOCH,
    STATUS_STALE_EPOCH,
    JsonSession,
    TransportError,
    get_json,
    post_json,
)
from repro.core.explorer import (
    design_point_from_payload,
    open_sweep_checkpoint,
    priority_permutations,
    sweep_jobs,
    sweep_summary_rows,
)
from repro.parallel.jobs import spec_to_wire
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.supervisor import retry_backoff_s
from repro.service.api import BadRequest, EstimateRequest
from repro.service.frontend import (
    Entry,
    FrontendHandler,
    FrontendHTTPServer,
    RequestFrontend,
    ServiceRejected,
)
from repro.service.lifecycle import serve_until_drained
from repro.systems import tcpip
from repro.telemetry import Telemetry

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ROLE_LEADER",
    "ROLE_STANDBY",
    "ROLE_FENCED",
    "run_coordinator",
    "run_cluster",
]

_ALL_STATES = (LIVE, SUSPECT, DEAD, LIMPLOCKED, DECOMMISSIONED)
_SWEEP_STRATEGIES = ("full", "caching", "macromodel", "sampling")

#: The fig.7 sweep's builder — the same one ``repro explore`` names.
_SWEEP_BUILDER = "repro.systems.tcpip:build_system"

#: Sweep dispatch batches (docs/cluster.md, "Sweep dispatch"): a thread
#: takes ``len(pending) // (_BATCH_SPREAD * workers)`` points, between 1
#: and ``_BATCH_MAX``, so sweeps of up to ``_BATCH_SPREAD`` points per
#: worker, and every sweep's tail, still go one point per request.
_BATCH_MAX = 8
_BATCH_SPREAD = 4

#: Coordinator roles under HA.  Without a ``control_dir`` the single
#: coordinator is permanently ``leader``; a ``fenced`` coordinator has
#: seen proof of a newer epoch and refuses the data plane until it
#: re-syncs and (maybe) wins a later election.
ROLE_LEADER = "leader"
ROLE_STANDBY = "standby"
ROLE_FENCED = "fenced"


@dataclass
class ClusterConfig:
    """Tuning knobs of one coordinator (see docs/cluster.md)."""

    #: Membership thresholds (suspect/dead ages, limplock factor).
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    #: Interval the refresher thread advances the membership state
    #: machine and republishes the cluster gauges at.
    refresh_interval_s: float = 0.5
    #: Heartbeat interval workers are told to use at registration.
    heartbeat_interval_s: float = 1.0
    #: How many times one job may be re-dispatched to another worker
    #: after transport failures before answering 502.
    redispatch_budget: int = 2
    #: Deterministic backoff between re-dispatch attempts.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Socket budget per dispatched sweep point (a batch gets this
    #: times its size).
    request_timeout_s: float = 120.0
    default_deadline_s: float = 30.0
    ring_replicas: int = 64
    log_json: bool = False
    #: High availability (docs/cluster-ha.md).  Setting ``control_dir``
    #: turns it on: the journal and the leadership lease live under it,
    #: and the HA loop runs.  ``None`` keeps the exact single-
    #: coordinator behaviour (always leader, epoch 1, no extra I/O).
    coordinator_id: str = ""
    control_dir: Optional[str] = None
    #: Start as a standby: tail the leader's journal and only contest
    #: the lease once it expires or is released.
    standby: bool = False
    #: Coordinator peer URLs handed to workers/clients for failover.
    peers: List[str] = field(default_factory=list)
    lease_ttl_s: float = 3.0
    lease_renew_s: float = 1.0
    journal_tail_interval_s: float = 0.25
    journal_segment_entries: int = 256
    #: Grace before a new leader re-runs orphaned sweeps on its own —
    #: gives the original client time to resubmit with ``resume``.
    orphan_grace_s: float = 5.0
    recover_orphan_sweeps: bool = True
    #: Flight-recorder dumps land here on 5xx answers (but 503) and on
    #: takeover/deposition.
    flight_dump_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.refresh_interval_s <= 0:
            raise ValueError("refresh_interval_s must be positive")
        if self.redispatch_budget < 0:
            raise ValueError("redispatch_budget must be non-negative")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if not self.coordinator_id:
            self.coordinator_id = "coord-%d" % os.getpid()
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.lease_renew_s <= 0 or self.lease_renew_s >= self.lease_ttl_s:
            raise ValueError(
                "lease_renew_s must sit inside (0, lease_ttl_s)")
        if self.journal_tail_interval_s <= 0:
            raise ValueError("journal_tail_interval_s must be positive")
        if self.standby and self.control_dir is None:
            raise ValueError("a standby coordinator needs a control_dir")


class _TransportSession:
    """The session shape over an injected per-exchange transport."""

    def __init__(self, transport: Callable[..., Tuple[int, Dict[str, Any]]],
                 url: str) -> None:
        self.transport = transport
        self.url = url

    def post(self, path: str, body: Dict[str, Any],
             timeout_s: float) -> Tuple[int, Dict[str, Any]]:
        return self.transport(self.url, path, body, timeout_s)

    def close(self) -> None:
        pass


@dataclass
class _SweepPlan:
    """Validated parameters of one ``POST /sweep``."""

    dma_sizes: List[int]
    num_packets: int
    packet_period_ns: float
    strategy: str
    warm_start: bool
    checkpoint_path: Optional[str]
    resume: bool

    def identity(self) -> Dict[str, Any]:
        """What makes two sweeps the same sweep (``resume`` excluded on
        purpose: resuming an interrupted sweep is the *same* sweep)."""
        return {
            "dma": list(self.dma_sizes),
            "packets": self.num_packets,
            "period_ns": self.packet_period_ns,
            "strategy": self.strategy,
            "warm_start": self.warm_start,
            "checkpoint": self.checkpoint_path,
        }


class ClusterCoordinator(RequestFrontend):
    """The cluster backend: membership + routing + re-dispatch + shard
    handoff, HTTP-agnostic.

    ``transport(url, path, body, timeout_s) -> (status, body)`` is
    injectable (tests drive the failure machinery with fakes); the
    default is the stdlib JSON client, which raises
    :class:`~repro.cluster.protocol.TransportError` on socket failures.
    """

    COMPONENT = "coordinator"

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
        transport=None,
        logger: Optional[JsonLogger] = None,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config or ClusterConfig()
        super().__init__(telemetry, clock, logger,
                         flight_dump_dir=self.config.flight_dump_dir)
        self.transport = transport if transport is not None else post_json
        # A sweep dispatch thread holds one session per round: a
        # keep-alive connection, or an injected transport per exchange.
        self._open_session: Callable[[str], Any] = (
            JsonSession if transport is None
            else partial(_TransportSession, transport))
        self.membership = MembershipTable(
            self.config.membership, clock=clock,
            on_transition=self._on_transition,
        )
        self._ring_lock = threading.Lock()
        self.ring = HashRing(self.config.ring_replicas)
        self._redispatches = 0
        self._quarantines = 0
        self._sweeps = 0
        self._sweep_points = 0
        self._sweep_dispatches = 0
        self._cache_lock = threading.Lock()
        self._cache_tier: Dict[str, Dict[str, Any]] = {}
        # -- high availability state (inert when control_dir is unset) --
        self.wall_clock = wall_clock
        self.url = ""
        self.journal: Optional[ControlPlaneJournal] = None
        self.lease: Optional[LeaseFile] = None
        self._ha_lock = threading.Lock()
        self._role = ROLE_LEADER
        self._epoch = 1
        self._failovers = 0
        self._stale_epochs = 0
        self._last_replay_s = 0.0
        self._restoring = False
        self._standby_since = 0.0
        self._active_sweeps: set = set()
        self._completed_sweeps: set = set()
        self._orphans: Dict[str, Dict[str, Any]] = {}
        if self.config.control_dir is not None:
            self.journal = ControlPlaneJournal(
                os.path.join(self.config.control_dir,
                             "journal-%s" % self.config.coordinator_id),
                segment_entries=self.config.journal_segment_entries,
            )
            self.lease = LeaseFile(
                self.config.control_dir, self.config.coordinator_id,
                ttl_s=self.config.lease_ttl_s, clock=wall_clock,
            )
            # Everybody starts as a standby; the HA loop (or a test
            # calling try_elect directly) promotes the lease winner.
            self._role = ROLE_STANDBY
            self._epoch = self.journal.tip_epoch()
            self._standby_since = wall_clock()
            self.drain_controller.add_hook(self._resign_on_drain)

    # -- high availability: roles and epochs -----------------------------

    @property
    def ha_enabled(self) -> bool:
        return self.journal is not None

    @property
    def role(self) -> str:
        return self._role

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def is_leader(self) -> bool:
        return self._role == ROLE_LEADER

    def set_url(self, url: str) -> None:
        """Record this coordinator's advertised URL (once bound)."""
        self.url = url
        if self.lease is not None:
            self.lease.url = url

    def leader_url_hint(self) -> str:
        """Best-effort URL of the current leader (for 503 answers)."""
        if self.is_leader:
            return self.url
        if self.lease is not None:
            lease = self.lease.read()
            if lease is not None and lease.holder and lease.url \
                    and not lease.expired(self.wall_clock()):
                return lease.url
        return ""

    def _not_leader_reply(self) -> Tuple[int, Dict[str, Any]]:
        return 503, {
            "status": "rejected",
            "reason": REASON_NOT_LEADER,
            "role": self._role,
            "epoch": self._epoch,
            "leader_url": self.leader_url_hint(),
        }

    def _journal_append(self, kind: str,
                        payload: Optional[Dict[str, Any]] = None) -> None:
        """Durably record one control-plane transition (leaders only).

        Standbys never append their own entries — their journal is a
        replica fed by :meth:`apply_replicated` — and replay-driven
        restores are suppressed so a takeover does not double the
        journal it just read.
        """
        if self.journal is None or self._restoring or not self.is_leader:
            return
        self.journal.append(kind, payload=payload, epoch=self._epoch)

    def _fence(self, observed_epoch: int, detail: str) -> None:
        """Stand down: proof of a newer epoch means we were deposed."""
        with self._ha_lock:
            if not self.ha_enabled or self._role == ROLE_FENCED:
                return
            was_leader = self.is_leader
            self._role = ROLE_FENCED
            with self._lock:
                self._stale_epochs += 1
        self.obs.metrics.counter(METRIC_CLUSTER_STALE_EPOCH).inc()
        self.obs.event(EVENT_STALE_EPOCH, observed_epoch=observed_epoch,
                       own_epoch=self._epoch, detail=detail)
        if was_leader:
            self.obs.event(EVENT_LEADER_DEPOSED,
                           coordinator=self.config.coordinator_id,
                           observed_epoch=observed_epoch, detail=detail)
            self.obs.dump_flight("deposed")

    # -- high availability: election and takeover ------------------------

    def try_elect(self) -> bool:
        """Contest the lease; on a win, replay the journal and lead."""
        if self.lease is None or self.journal is None or self.is_leader:
            return False
        acquired = self.lease.try_acquire(
            epoch_floor=self.journal.tip_epoch()
        )
        if acquired is None:
            return False
        self._become_leader(acquired)
        return True

    def _become_leader(self, lease: Lease) -> None:
        """Takeover: replay the journal, restore state, start leading.

        The restored membership/cache re-registrations are applied with
        journaling suppressed (the entries that taught us about them
        are already durable); only the ``leader-elected`` marker is
        appended, under the new epoch.
        """
        started = time.monotonic()
        state = self.journal.replay()
        self._restore_state(state)
        replay_s = time.monotonic() - started
        takeover = bool(state.previous_leaders(self.config.coordinator_id))
        with self._ha_lock:
            self._epoch = lease.epoch
            self._role = ROLE_LEADER
            self._last_replay_s = replay_s
            self._orphans = state.orphaned_sweeps()
            self._completed_sweeps.update(
                sweep_id for sweep_id, info in state.sweeps.items()
                if info["done"]
            )
            if takeover:
                with self._lock:
                    self._failovers += 1
        self._journal_append(KIND_LEADER_ELECTED, {
            "coordinator_id": self.config.coordinator_id,
            "url": self.url,
            "takeover": takeover,
            "replayed_entries": state.applied,
        })
        self.obs.event(
            EVENT_LEADER_ELECTED,
            coordinator=self.config.coordinator_id,
            epoch=self._epoch, takeover=takeover,
            replayed_entries=state.applied,
            orphaned_sweeps=sorted(self._orphans),
        )
        self.obs.event(EVENT_JOURNAL_REPLAYED, entries=state.applied,
                       seconds=round(replay_s, 6),
                       workers=len(state.workers),
                       cache_keys=len(state.cache_tier))
        if takeover:
            self.obs.metrics.counter(METRIC_CLUSTER_FAILOVERS).inc()
            self.obs.dump_flight("takeover")
        self._publish_ha_metrics()

    def _restore_state(self, state: ControlPlaneState) -> None:
        """Rebuild membership + warm-cache tier from a replayed fold."""
        self._restoring = True
        try:
            for worker_id, info in sorted(state.workers.items()):
                if not info["url"]:
                    continue
                self.membership.register(worker_id, info["url"])
                if info["state"] == DEAD:
                    self.membership.mark_dead(worker_id, "journal replay")
                elif info["state"] == DECOMMISSIONED:
                    self.membership.decommission(worker_id, "journal replay")
            with self._cache_lock:
                for key, slot in state.cache_tier.items():
                    self._cache_tier[key] = {
                        "state": dict(slot["state"]),
                        "entries": slot["entries"],
                        "worker": slot["worker"],
                        "updates": slot["updates"],
                    }
        finally:
            self._restoring = False

    # -- high availability: replication and recovery ---------------------

    def journal_entries_since(self, since: int) -> Tuple[int, Dict[str, Any]]:
        """``GET /cluster/journal?since=N`` — the standby tail feed."""
        if self.journal is None:
            return 404, {"status": "error", "reason": "ha_disabled"}
        entries = self.journal.entries_since(since)
        return 200, {
            "status": "ok",
            "entries": entries_to_wire(entries),
            "tip": self.journal.tip_seq(),
            "epoch": self._epoch,
            "role": self._role,
            "leader": (self.config.coordinator_id if self.is_leader else ""),
        }

    def apply_replicated(self, documents: List[Dict[str, Any]]) -> int:
        """Fold tailed wire entries into the local replica journal."""
        if self.journal is None:
            return 0
        appended = 0
        for document in documents:
            if self.journal.append_replicated(document):
                appended += 1
        return appended

    def _tail_leader(self, lease: Lease) -> None:
        """One standby tail step against the current leader."""
        if self.journal is None or not lease.url or lease.url == self.url:
            return
        try:
            status, body = get_json(
                lease.url,
                "/cluster/journal?since=%d" % self.journal.tip_seq(),
                timeout_s=self.config.request_timeout_s,
            )
        except ReproError:  # transport/protocol: the leader is flapping
            return
        if status != 200:
            return
        entries = body.get("entries")
        if isinstance(entries, list):
            try:
                self.apply_replicated(entries)
            except JournalError as exc:
                self.obs.event(EVENT_JOURNAL_REPLAYED, error=str(exc),
                               entries=0)

    def recover_orphaned_sweeps(
        self, grace_s: Optional[float] = None
    ) -> List[Tuple[str, int, Dict[str, Any]]]:
        """Re-dispatch sweeps orphaned by the previous leader's death.

        Waits ``grace_s`` first so a failover client that resubmits its
        own sweep (with ``resume``) wins the race; anything it resumed
        lands in ``_completed_sweeps``/``_active_sweeps`` and is
        skipped here.  Re-runs use the *same* sweep id, signature, and
        deterministic per-job seeds, so the merged rows are
        byte-identical to an uninterrupted run.
        """
        if grace_s is None:
            grace_s = self.config.orphan_grace_s
        if grace_s > 0 and self.drain_controller.wait(grace_s):
            return []
        results: List[Tuple[str, int, Dict[str, Any]]] = []
        with self._ha_lock:
            orphans = sorted(self._orphans.items())
        for sweep_id, info in orphans:
            if not self.is_leader or self.drain_controller.draining:
                break
            with self._ha_lock:
                if sweep_id in self._completed_sweeps \
                        or sweep_id in self._active_sweeps:
                    continue
            params = dict(info["params"])
            checkpoint = params.get("checkpoint")
            params["resume"] = bool(
                isinstance(checkpoint, str) and os.path.exists(checkpoint)
            )
            status, body = self.run_sweep(params)
            self.obs.event(EVENT_SWEEP_RECOVERED, sweep=sweep_id,
                           http_status=status,
                           status=str(body.get("status") or ""),
                           resumed=params["resume"])
            results.append((sweep_id, status, body))
        return results

    # -- high availability: the background loop --------------------------

    def ha_loop(self) -> None:
        """Renew-or-elect until drain; the body of the HA thread.

        Leaders renew the lease every ``lease_renew_s`` and fence
        themselves if it is lost.  Standbys tail the leader's journal,
        and contest the lease the moment it is free — except a
        configured ``--standby`` defers for one TTL after boot so the
        intended active coordinator claims first on a cold start.
        """
        if not self.ha_enabled:
            return
        while not self.drain_controller.draining:
            if self.is_leader:
                lease = self.lease.renew()
                if lease is None:
                    current = self.lease.read()
                    self._fence(
                        current.epoch if current is not None else self._epoch,
                        "leadership lease lost",
                    )
                else:
                    self._publish_ha_metrics()
                if self.drain_controller.wait(self.config.lease_renew_s):
                    return
            else:
                self._standby_step()
                if self.drain_controller.wait(
                        self.config.journal_tail_interval_s):
                    return

    def _standby_step(self) -> None:
        """One standby iteration: shadow the leader or try to succeed."""
        lease = self.lease.read()
        now = self.wall_clock()
        if lease is not None and lease.holder \
                and lease.holder != self.config.coordinator_id \
                and not lease.expired(now):
            self._tail_leader(lease)
            return
        if self.config.standby and lease is None \
                and now - self._standby_since < self.config.lease_ttl_s:
            return  # cold start: let the configured active claim first
        if self.try_elect() and self.config.recover_orphan_sweeps \
                and self._orphans:
            threading.Thread(
                target=self.recover_orphaned_sweeps,
                name="cluster-orphan-recovery", daemon=True,
            ).start()

    def _resign_on_drain(self, reason: str) -> None:
        """Drain hook: hand the journal tip and the lease to a successor."""
        if not self.ha_enabled or not self.is_leader:
            return
        self._journal_append(KIND_LEADER_RESIGNED, {
            "coordinator_id": self.config.coordinator_id,
            "tip_seq": self.journal.tip_seq(),
            "reason": reason,
        })
        self.lease.release()
        self.obs.event(EVENT_LEADER_RESIGNED,
                       coordinator=self.config.coordinator_id,
                       epoch=self._epoch, reason=reason)

    def _publish_ha_metrics(self) -> None:
        if not self.ha_enabled:
            return
        metrics = self.obs.metrics
        metrics.gauge(METRIC_CLUSTER_EPOCH).set(float(self._epoch))
        remaining = (self.lease.remaining_s() or 0.0) if self.is_leader \
            else 0.0
        metrics.gauge(METRIC_CLUSTER_LEASE_REMAINING).set(
            round(remaining, 3))
        metrics.gauge(METRIC_CLUSTER_JOURNAL_ENTRIES).set(
            float(len(self.journal)))
        metrics.gauge(METRIC_CLUSTER_REPLAY_SECONDS).set(
            round(self._last_replay_s, 6))

    def ha_snapshot(self) -> Dict[str, Any]:
        """The ``ha`` section of /stats, /readyz, and the smoke checks."""
        if not self.ha_enabled:
            return {"enabled": False}
        with self._lock:
            failovers = self._failovers
            stale = self._stale_epochs
        return {
            "enabled": True,
            "role": self._role,
            "coordinator_id": self.config.coordinator_id,
            "epoch": self._epoch,
            "leader": (self.config.coordinator_id if self.is_leader
                       else ""),
            "leader_url": self.leader_url_hint(),
            "lease_remaining_s": round(
                self.lease.remaining_s() or 0.0, 3),
            "journal_tip": self.journal.tip_seq(),
            "journal_entries": len(self.journal),
            "failovers": failovers,
            "stale_epoch_rejections": stale,
            "last_replay_s": round(self._last_replay_s, 6),
            "orphaned_sweeps": sorted(self._orphans),
        }

    # -- membership plumbing ---------------------------------------------

    def _on_transition(self, worker_id: str, old: str, new: str,
                       reason: str) -> None:
        with self._ring_lock:
            if new == LIVE:
                self.ring.add(worker_id)
            else:
                self.ring.remove(worker_id)
        if not old:
            self.obs.event(EVENT_WORKER_REGISTERED, worker=worker_id)
        elif new == LIMPLOCKED:
            with self._lock:
                self._quarantines += 1
            self.obs.metrics.counter(METRIC_CLUSTER_QUARANTINES).inc()
            self.obs.event(EVENT_WORKER_QUARANTINED, worker=worker_id,
                           reason=reason)
        else:
            self.obs.event(EVENT_WORKER_STATE, worker=worker_id,
                           old=old, new=new, reason=reason)
        # Durable transitions only: registrations (with the URL a
        # successor needs to route again) and terminal states.  Suspect
        # flaps are transient and stay out of the journal.
        if new == LIVE:
            self._journal_append(KIND_WORKER_REGISTERED, {
                "worker_id": worker_id,
                "url": self.membership.url_of(worker_id) or "",
            })
        elif new in (DEAD, DECOMMISSIONED, LIMPLOCKED):
            self._journal_append(KIND_WORKER_STATE, {
                "worker_id": worker_id, "state": new, "reason": reason,
            })

    def register_worker(self, worker_id: str,
                        url: str) -> Tuple[int, Dict[str, Any]]:
        if not worker_id or not url:
            return 400, {"status": "error",
                         "reason": "worker_id and url are required"}
        if self.ha_enabled and not self.is_leader:
            return self._not_leader_reply()
        self.membership.register(worker_id, url)
        return 200, {
            "status": "ok",
            "worker_id": worker_id,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            "epoch": self._epoch,
            "leader": self.config.coordinator_id,
            "peers": list(self.config.peers),
        }

    def heartbeat(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        worker_id = str(body.get("worker_id") or "")
        if self.ha_enabled:
            if not self.is_leader:
                return self._not_leader_reply()
            worker_epoch = int(body.get("epoch") or 0)
            if worker_epoch > self._epoch:
                # The worker has obeyed a newer leader: we were deposed
                # while our lease file said otherwise (e.g. clock skew).
                self._fence(worker_epoch,
                            "heartbeat from %s carried epoch %d"
                            % (worker_id, worker_epoch))
                return STATUS_STALE_EPOCH, {
                    "status": "error",
                    "reason": REASON_STALE_EPOCH,
                    "epoch": worker_epoch,
                }
        known = self.membership.heartbeat(
            worker_id,
            queue_depth=int(body.get("queue_depth") or 0),
            in_flight=int(body.get("in_flight") or 0),
            completed=int(body.get("completed") or 0),
            reported_run_s=float(body.get("mean_run_s") or 0.0),
        )
        return 200, {
            "status": "ok" if known else "unknown",
            "epoch": self._epoch,
            "leader": self.config.coordinator_id,
            "leader_url": self.url,
        }

    def refresh_membership(self) -> None:
        """Advance liveness/limplock; transitions fan out via the hook."""
        self.membership.refresh()

    def decommission_worker(
        self, worker_id: str, reason: str = "requested"
    ) -> Tuple[int, Dict[str, Any]]:
        """Planned removal: unroutable now; its in-progress shard is
        re-queued by the sweep engine (checkpoint-backed handoff)."""
        url = self.membership.url_of(worker_id)
        if not self.membership.decommission(worker_id, reason):
            return 404, {"status": "error",
                         "reason": "unknown worker %r" % worker_id}
        if url is not None:
            try:
                self.transport(url, "/decommission", {"reason": reason}, 5.0)
            except TransportError:
                pass  # it will be declared dead by heartbeat age instead
        return 200, {"status": "ok", "worker_id": worker_id,
                     "state": DECOMMISSIONED}

    # -- ring access (transitions mutate it from several threads) --------

    def _ring_preference(self, key: str) -> List[str]:
        with self._ring_lock:
            return self.ring.preference(key)

    # -- estimates -------------------------------------------------------

    def refuse(self, request: EstimateRequest) -> None:
        if self.drain_controller.draining:
            raise ServiceRejected("coordinator is draining", 503,
                                  "draining")
        if self.ha_enabled and not self.is_leader:
            raise ServiceRejected("this coordinator is %s, not the leader"
                                  % self._role, 503, REASON_NOT_LEADER)

    def start_entry(self, entry: Entry) -> None:
        """Dispatch a primary inline on the handler thread.  The ring
        routes by fingerprint, so replicas of this coordinator would
        land identical requests on the same worker too."""
        try:
            self._dispatch_estimate(entry)
        finally:
            self.dedup.complete(entry.fingerprint)

    def _dispatch_estimate(self, entry: Entry) -> None:
        request = entry.request
        wire = {
            "kind": JOB_KIND_ESTIMATE,
            "request": request.to_payload(),
            "trace": entry.context.to_payload(),
            "epoch": self._epoch,
            "leader": self.config.coordinator_id,
        }
        timeout_s = request.deadline_s + 5.0
        redispatches = 0
        while True:
            target = next(iter(self._ring_preference(entry.fingerprint)),
                          None)
            if target is None:
                self.reject(entry, "no_workers")
                return
            url = self.membership.url_of(target)
            if url is None:
                self.membership.mark_dead(target, "no url on record")
                continue
            started = self.clock()
            try:
                status, body = self.transport(url, "/run", wire, timeout_s)
            except TransportError as exc:
                # The worker vanished mid-job.  Safe to re-dispatch:
                # the job's seed is a pure function of its identity, so
                # a re-run on any worker is byte-identical.
                self.membership.mark_dead(
                    target, "estimate dispatch failed: %s" % exc
                )
                redispatches += 1
                self._note_redispatch(target, request.request_id, str(exc))
                if redispatches > self.config.redispatch_budget:
                    self.resolve(entry, 502, {
                        "status": "error",
                        "reason": "redispatch_budget_exhausted",
                        "request_id": request.request_id,
                        "detail": "%d dispatch attempt(s) failed"
                                  % redispatches,
                    }, event=EVENT_FAILED, redispatches=redispatches)
                    return
                time.sleep(retry_backoff_s(
                    "estimate:%s" % entry.fingerprint, redispatches,
                    self.config.backoff_base_s, self.config.backoff_cap_s,
                ))
                continue
            run_s = self.clock() - started
            self.membership.observe_run(target, run_s)
            if status == STATUS_STALE_EPOCH \
                    and body.get("reason") == REASON_STALE_EPOCH:
                # The worker obeys a newer leader: stand down, and send
                # the client to the peer list instead of a stale answer.
                self._fence(int(body.get("epoch") or 0),
                            "estimate dispatch fenced by %s" % target)
                self.reject(entry, REASON_NOT_LEADER,
                            leader_url=self.leader_url_hint())
                return
            if status == 503 and body.get("reason") == "draining":
                # The worker is decommissioning; its shard belongs to
                # its ring successor now.  Not a failure — no penalty
                # beyond the handoff.
                self.membership.decommission(target, "worker draining")
                redispatches += 1
                self.obs.event(EVENT_SHARD_HANDOFF, worker=target,
                               job=request.request_id, kind="estimate")
                if redispatches > self.config.redispatch_budget:
                    self.reject(entry, "no_workers")
                    return
                continue
            # The job ran — success or worker-side error, the answer
            # stands; re-dispatching a completed computation would be a
            # duplicate, not a retry.
            out = dict(body)
            out["fingerprint"] = entry.fingerprint
            out["cluster"] = {
                "worker": target,
                "redispatches": redispatches,
            }
            self.finish(entry, status, out, run_s, worker=target)
            return

    def _note_redispatch(self, worker_id: str, job: str,
                         detail: str) -> None:
        with self._lock:
            self._redispatches += 1
        self.membership.count_redispatch(worker_id)
        self.obs.metrics.counter(METRIC_CLUSTER_REDISPATCHES).inc()
        self.obs.event(EVENT_JOB_REDISPATCHED, worker=worker_id, job=job,
                       detail=detail)

    # -- sweeps ----------------------------------------------------------

    def run_sweep(self, params: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Run one fig.7 sweep sharded over the live workers.

        The jobs, their order and the checkpoint are built by the same
        code as :func:`~repro.core.explorer.parallel_sweep`
        (:func:`~repro.core.explorer.sweep_jobs`), so a cluster
        checkpoint resumes on a single node — and vice versa — and the
        summary rows are byte-identical to ``repro explore --out``
        regardless of worker deaths, re-dispatch order, or handoffs
        along the way.
        """
        try:
            plan = self._parse_sweep(params)
        except BadRequest as exc:
            return 400, {"status": "error", "reason": str(exc)}
        if self.ha_enabled and not self.is_leader:
            return self._not_leader_reply()
        sweep_id = self._sweep_id(plan)
        with self._ha_lock:
            self._active_sweeps.add(sweep_id)
        # Journal the sweep *before* dispatching: if this coordinator
        # dies mid-sweep, the entry (without a matching completion) is
        # exactly what tells the successor to re-dispatch it.
        self._journal_append(KIND_SWEEP_STARTED, {
            "sweep_id": sweep_id,
            "params": plan.identity(),
        })
        try:
            status, body = self._run_sweep(plan)
        finally:
            with self._ha_lock:
                self._active_sweeps.discard(sweep_id)
        body["sweep_id"] = sweep_id
        if status == 200 and body.get("status") == "ok":
            with self._ha_lock:
                self._completed_sweeps.add(sweep_id)
                self._orphans.pop(sweep_id, None)
            self._journal_append(KIND_SWEEP_COMPLETED, {
                "sweep_id": sweep_id,
                "points": int(body.get("completed") or 0),
            })
        return status, body

    @staticmethod
    def _sweep_id(plan: _SweepPlan) -> str:
        canonical = json.dumps(plan.identity(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def _run_sweep(self, plan: _SweepPlan) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            self._sweeps += 1
        jobs = sweep_jobs(
            _SWEEP_BUILDER, plan.dma_sizes,
            priority_permutations(list(tcpip.BUS_MASTERS)),
            strategy=plan.strategy, warm_start=plan.warm_start,
            builder_kwargs={
                "num_packets": plan.num_packets,
                "packet_period_ns": plan.packet_period_ns,
            },
        )
        specs = jobs.specs
        try:
            record, results = open_sweep_checkpoint(
                jobs, plan.checkpoint_path,
                plan.checkpoint_path if plan.resume else None,
            )
        except CheckpointError as exc:
            return 409, {"status": "error",
                         "reason": "checkpoint_mismatch",
                         "detail": str(exc)}
        errors: Dict[int, str] = {}
        restored = len(results)
        pending: List[int] = [i for i in range(len(specs))
                              if i not in results]
        lock = threading.Lock()
        workers_used: Dict[str, int] = {}

        def take_batch(worker_id: str, owners: Dict[int, Optional[str]],
                       workers: int) -> List[int]:
            """Pop the next batch for ``worker_id`` (``lock`` held).

            Shard affinity first (keeps the worker's local warm caches
            hot), then steal from the queue head.
            """
            size = min(_BATCH_MAX, max(
                1, len(pending) // (_BATCH_SPREAD * workers)))
            batch = [index for index in pending
                     if owners.get(index) == worker_id][:size]
            if len(batch) < size:
                batch += [index for index in pending
                          if owners.get(index) != worker_id
                          ][:size - len(batch)]
            taken = set(batch)
            pending[:] = [index for index in pending if index not in taken]
            return batch

        def requeue(batch: List[int]) -> None:
            with lock:
                pending[:0] = batch

        def settle(worker_id: str, index: int, answer: Any) -> Optional[int]:
            """Record one job's answer; the fencing epoch if it was
            refused as stale (the job did not run), else ``None``."""
            spec = specs[index]
            if not isinstance(answer, dict):
                answer = {"reason": "malformed job result"}
            status = answer.get("status")
            if status == STATUS_STALE_EPOCH \
                    and answer.get("reason") == REASON_STALE_EPOCH:
                return int(answer.get("epoch") or 0)
            result = answer.get("result") or {}
            payload = (result.get("payload")
                       if result.get("type") == "design_point" else None)
            error = None
            if status != 200:
                error = str(answer.get("detail") or answer.get("reason")
                            or "HTTP %s" % status)
            elif not isinstance(payload, dict):
                error = ("worker %s returned a non-design-point result"
                         % worker_id)
            if error is not None:
                with lock:
                    errors[index] = error
                return None
            with lock:
                results[index] = payload
                workers_used[worker_id] = workers_used.get(worker_id, 0) + 1
                record(spec.label, payload)
            with self._lock:
                self._sweep_points += 1
            self.obs.event(
                EVENT_SWEEP_STEP, label=spec.label, worker=worker_id,
                run_seconds=round(float(answer.get("run_seconds") or 0.0), 6),
            )
            return None

        def dispatch(worker_id: str, session: Any, batch: List[int]) -> bool:
            """Send one batch; ``False`` once this worker gets no more."""
            body = {
                "kind": JOB_KIND_SPEC,
                "jobs": [spec_to_wire(specs[index]) for index in batch],
                "epoch": self._epoch,
                "leader": self.config.coordinator_id,
            }
            with self._lock:
                self._sweep_dispatches += 1
            self.obs.metrics.counter(METRIC_CLUSTER_SWEEP_DISPATCHES).inc()
            started = self.clock()
            try:
                status, reply = session.post(
                    "/run", body, self.config.request_timeout_s * len(batch))
            except TransportError as exc:
                self.membership.mark_dead(
                    worker_id, "sweep dispatch failed: %s" % exc
                )
                requeue(batch)
                for index in batch:
                    self._note_redispatch(worker_id, specs[index].label,
                                          str(exc))
                return False
            # One limplock sample per job: the round trip split evenly.
            per_job_s = (self.clock() - started) / len(batch)
            for _ in batch:
                self.membership.observe_run(worker_id, per_job_s)
            if status == STATUS_STALE_EPOCH \
                    and reply.get("reason") == REASON_STALE_EPOCH:
                # Deposed mid-sweep: requeue the points (the new leader
                # re-dispatches them with the same seeds) and stop
                # driving this worker.
                self._fence(int(reply.get("epoch") or 0),
                            "sweep dispatch fenced by %s" % worker_id)
                requeue(batch)
                return False
            if status == 503:
                # Draining worker: hand its shard back for the ring
                # successors (the checkpoint already holds everything
                # it finished).
                self.membership.decommission(worker_id, "worker draining")
                requeue(batch)
                for index in batch:
                    self.obs.event(EVENT_SHARD_HANDOFF, worker=worker_id,
                                   job=specs[index].label, kind="sweep")
                return False
            answers = reply.get("results")
            if status != 200 or reply.get("status") != "ok" \
                    or not isinstance(answers, list) \
                    or len(answers) != len(batch):
                message = str(reply.get("detail") or reply.get("reason")
                              or "HTTP %d" % status)
                with lock:
                    for index in batch:
                        errors[index] = message
                return True
            stale: List[int] = []
            fenced_epoch = 0
            for index, answer in zip(batch, answers):
                epoch = settle(worker_id, index, answer)
                if epoch is not None:
                    stale.append(index)
                    fenced_epoch = max(fenced_epoch, epoch)
            if stale:
                # The worker obeyed a newer leader part-way through the
                # batch: what ran is recorded, the rest goes back.
                self._fence(fenced_epoch,
                            "sweep dispatch fenced by %s" % worker_id)
                requeue(stale)
                return False
            return True

        def run_for(worker_id: str, owners: Dict[int, Optional[str]],
                    workers: int) -> None:
            url = self.membership.url_of(worker_id)
            if url is None:
                return
            session = self._open_session(url)
            try:
                while True:
                    with lock:
                        batch = take_batch(worker_id, owners, workers)
                    if not batch or not dispatch(worker_id, session, batch):
                        return
            finally:
                session.close()

        # Dispatch rounds: one thread per routable worker; a thread
        # exits when its worker dies/drains (jobs re-queued) or no work
        # is left.  Each round re-reads membership, so workers that
        # register mid-sweep join and dead ones drop out.
        while True:
            if self.ha_enabled and not self.is_leader:
                break  # fenced mid-sweep; successor owns the rest
            with lock:
                if not pending:
                    break
            self.refresh_membership()
            routable = self.membership.routable()
            if not routable:
                break
            with self._ring_lock:
                owners = {index: self.ring.node_for(specs[index].label)
                          for index in pending}
            threads = [
                threading.Thread(target=run_for,
                                 args=(worker_id, owners, len(routable)),
                                 name="cluster-sweep-%s" % worker_id,
                                 daemon=True)
                for worker_id in routable
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        if self.ha_enabled and not self.is_leader:
            status, reply = self._not_leader_reply()
            reply["detail"] = (
                "fenced mid-sweep after %d of %d point(s); the "
                "checkpoint carries them to the new leader"
                % (len(results), len(specs))
            )
            return status, reply

        points = [design_point_from_payload(payload)
                  for payload in jobs.in_sweep_order(results)]
        complete = len(results) == len(specs) and not errors
        body: Dict[str, Any] = {
            "status": "ok" if complete else "partial",
            "total_points": len(specs),
            "completed": len(results),
            "restored": restored,
            "rows": sweep_summary_rows(points),
            "workers": dict(sorted(workers_used.items())),
            "redispatches": self._counters()["redispatches"],
            "checkpoint": plan.checkpoint_path,
        }
        if not complete:
            body["pending_labels"] = sorted(
                specs[index].label for index in range(len(specs))
                if index not in results and index not in errors
            )
            body["errors"] = {
                specs[index].label: message
                for index, message in sorted(errors.items())
            }
        return 200, body

    @staticmethod
    def _parse_sweep(params: Dict[str, Any]) -> _SweepPlan:
        if not isinstance(params, dict):
            raise BadRequest("sweep body must be a JSON object")
        dma = params.get("dma", [2, 8, 32, 128])
        if (not isinstance(dma, list) or not dma
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           and v > 0 for v in dma)):
            raise BadRequest("'dma' must be a non-empty list of positive "
                             "integers")
        packets = params.get("packets", 3)
        if isinstance(packets, bool) or not isinstance(packets, int) \
                or packets < 1:
            raise BadRequest("'packets' must be a positive integer")
        period_ns = params.get("period_ns", 30_000.0)
        if isinstance(period_ns, bool) \
                or not isinstance(period_ns, (int, float)) or period_ns <= 0:
            raise BadRequest("'period_ns' must be a positive number")
        strategy = params.get("strategy", "caching")
        if strategy not in _SWEEP_STRATEGIES:
            raise BadRequest("unknown strategy %r (choose from %s)"
                             % (strategy, ", ".join(_SWEEP_STRATEGIES)))
        warm_start = params.get("warm_start", False)
        if not isinstance(warm_start, bool):
            raise BadRequest("'warm_start' must be a boolean")
        checkpoint = params.get("checkpoint")
        if checkpoint is not None and not isinstance(checkpoint, str):
            raise BadRequest("'checkpoint' must be a path string")
        resume = params.get("resume", False)
        if not isinstance(resume, bool):
            raise BadRequest("'resume' must be a boolean")
        if resume and checkpoint is None:
            raise BadRequest("'resume' needs a 'checkpoint' path")
        return _SweepPlan(
            dma_sizes=list(dma),
            num_packets=packets,
            packet_period_ns=float(period_ns),
            strategy=strategy,
            warm_start=warm_start,
            checkpoint_path=checkpoint,
            resume=resume,
        )

    # -- warm-cache tier -------------------------------------------------

    def cache_get(self, key: str) -> Tuple[int, Dict[str, Any]]:
        with self._cache_lock:
            slot = self._cache_tier.get(key)
            state = dict(slot["state"]) if slot is not None else None
        return 200, {"status": "ok", "key": key, "state": state}

    def cache_put(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        key = body.get("key")
        state = body.get("state")
        worker = str(body.get("worker") or "")
        if not isinstance(key, str) or not key:
            return 400, {"status": "error", "reason": "'key' is required"}
        if (not isinstance(state, dict)
                or not isinstance(state.get("cache"), dict)
                or not isinstance(state.get("fingerprints"), dict)):
            return 400, {"status": "error",
                         "reason": "malformed cache state"}
        entries = len(state["cache"].get("entries") or [])
        with self._cache_lock:
            slot = self._cache_tier.get(key)
            # Newer fingerprints win wholesale (the design changed);
            # same fingerprints keep whichever snapshot converged
            # further.  Never merged: the §4.2 statistics are means.
            adopt = (
                slot is None
                or slot["state"]["fingerprints"] != state["fingerprints"]
                or entries >= slot["entries"]
            )
            if adopt:
                self._cache_tier[key] = {
                    "state": state,
                    "entries": entries,
                    "worker": worker,
                    "updates": (slot["updates"] + 1 if slot else 1),
                }
                updates = self._cache_tier[key]["updates"]
        if adopt:
            # Adoptions are durable: a successor replays them and the
            # warm tier survives the failover with its convergence.
            self._journal_append(KIND_CACHE_ADOPTED, {
                "key": key, "state": state, "entries": entries,
                "worker": worker, "updates": updates,
            })
        return 200, {"status": "ok", "adopted": adopt, "entries": entries}

    # -- views -----------------------------------------------------------

    def readyz_snapshot(self) -> Tuple[int, Dict[str, Any]]:
        """The /readyz document: per-worker membership + routability."""
        self.refresh_membership()
        workers = self.membership.snapshot()
        routable = self.membership.routable()
        states: Dict[str, List[str]] = {}
        for worker_id, state in sorted(self.membership.states().items()):
            states.setdefault(state, []).append(worker_id)
        body = {
            "workers": workers,
            "routable": routable,
            "states": states,
            "ha": self.ha_snapshot(),
        }
        if self.drain_controller.draining:
            return 503, dict(body, status="draining")
        if self.ha_enabled and not self.is_leader:
            return 503, dict(body, status=self._role,
                             reason=REASON_NOT_LEADER)
        if not routable:
            return 503, dict(body, status="no_workers")
        return 200, dict(body, status="ready")

    def _counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "completed": self._completed,
                "failed": self._failed,
                "coalesced": self.dedup.coalesced,
                "redispatches": self._redispatches,
                "quarantines": self._quarantines,
                "sweeps": self._sweeps,
                "sweep_points_completed": self._sweep_points,
                "sweep_dispatches": self._sweep_dispatches,
            }

    def _workers_by_state(self) -> Dict[str, int]:
        counts = dict.fromkeys(_ALL_STATES, 0)
        counts.update(Counter(self.membership.states().values()))
        return counts

    def healthz_snapshot(self) -> Dict[str, Any]:
        return dict(super().healthz_snapshot(), role="coordinator")

    def backend_stats(self) -> Dict[str, Any]:
        counts = self._workers_by_state()
        with self._cache_lock:
            cache_tier = {
                key: {"entries": slot["entries"],
                      "worker": slot["worker"],
                      "updates": slot["updates"]}
                for key, slot in sorted(self._cache_tier.items())
            }
        return {
            "cluster": dict(
                self._counters(),
                state=("draining" if self.drain_controller.draining
                       else "ready"),
                workers_by_state=counts,
            ),
            "ha": self.ha_snapshot(),
            "workers": self.membership.snapshot(),
            "cache_tier": cache_tier,
        }

    def refresh_gauges(self) -> None:
        """Refresh the cluster gauge families from membership."""
        self._publish_ha_metrics()
        metrics = self.obs.metrics
        counts = self._workers_by_state()
        for state, count in counts.items():
            metrics.gauge(
                labeled(METRIC_CLUSTER_WORKERS, state=state)
            ).set(count)
        for worker_id, age in sorted(
                self.membership.heartbeat_ages().items()):
            metrics.gauge(
                labeled(METRIC_CLUSTER_HEARTBEAT_AGE, worker=worker_id)
            ).set(round(age, 3))
        for worker_id, info in sorted(self.membership.snapshot().items()):
            metrics.gauge(
                labeled(METRIC_CLUSTER_WORKER_QUEUE_DEPTH, worker=worker_id)
            ).set(float(info["queue_depth"]))


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class _CoordinatorHandler(FrontendHandler):
    KNOWN_PATHS = FrontendHandler.KNOWN_PATHS + (
        "/sweep", "/cluster/register", "/cluster/heartbeat",
        "/cluster/cache", "/cluster/decommission", "/cluster/journal",
    )

    @property
    def coordinator(self) -> ClusterCoordinator:
        return self.server.frontend  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.route_get():
            return
        if self.path.startswith("/cluster/journal"):
            try:
                since = int(self.query_param("since", "0"))
            except ValueError:
                self.respond_json(400, {
                    "status": "error",
                    "reason": "'since' must be an integer",
                })
                return
            self.respond_json(*self.coordinator.journal_entries_since(since))
        elif self.path.startswith("/cluster/cache"):
            key = self.query_param("key")
            if not key:
                self.respond_json(400, {"status": "error",
                                        "reason": "'key' is required"})
                return
            self.respond_json(*self.coordinator.cache_get(key))
        else:
            self.respond_not_found()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self.read_json_body()
        if body is None or self.route_post(body):
            return
        if self.path == "/sweep":
            self.respond_json(*self.coordinator.run_sweep(body))
        elif self.path == "/cluster/register":
            self.respond_json(*self.coordinator.register_worker(
                str(body.get("worker_id") or ""), str(body.get("url") or "")
            ))
        elif self.path == "/cluster/heartbeat":
            self.respond_json(*self.coordinator.heartbeat(body))
        elif self.path == "/cluster/cache":
            self.respond_json(*self.coordinator.cache_put(body))
        elif self.path == "/cluster/decommission":
            self.respond_json(*self.coordinator.decommission_worker(
                str(body.get("worker") or ""),
                str(body.get("reason", "requested")),
            ))
        else:
            self.respond_not_found()


def run_coordinator(
    host: str,
    port: int,
    config: Optional[ClusterConfig] = None,
    install_signals: bool = True,
    quiet: bool = False,
    ready_callback=None,
) -> int:
    """The body of ``repro cluster`` (coordinator half).

    Serves HTTP, advances the membership state machine on the refresh
    interval, and blocks until SIGTERM/SIGINT (or a programmatic drain)
    — then exits 0.
    """
    coordinator = ClusterCoordinator(config)
    httpd = FrontendHTTPServer((host, port), coordinator, _CoordinatorHandler)
    coordinator.set_url("http://%s:%d" % (host, httpd.server_address[1]))

    def refresher() -> None:
        interval = coordinator.config.refresh_interval_s
        while not coordinator.drain_controller.wait(interval):
            coordinator.refresh_membership()
            coordinator.refresh_gauges()

    threading.Thread(
        target=refresher, name="cluster-refresh", daemon=True
    ).start()
    if coordinator.ha_enabled:
        threading.Thread(
            target=coordinator.ha_loop, name="cluster-ha", daemon=True
        ).start()

    def ready() -> int:
        if not quiet:
            ha_note = ""
            if coordinator.ha_enabled:
                ha_note = " ha=%s id=%s lease=%.1fs" % (
                    "standby" if coordinator.config.standby else "active",
                    coordinator.config.coordinator_id,
                    coordinator.config.lease_ttl_s,
                )
            print("cluster coordinator listening on http://%s:%d "
                  "(heartbeat=%.1fs suspect=%.1fs dead=%.1fs limp=%.1fx%s) "
                  "— SIGTERM drains gracefully"
                  % (host, httpd.server_address[1],
                     coordinator.config.heartbeat_interval_s,
                     coordinator.config.membership.suspect_after_s,
                     coordinator.config.membership.dead_after_s,
                     coordinator.config.membership.limp_factor,
                     ha_note), flush=True)
        if ready_callback is not None:
            ready_callback(coordinator, httpd)
        return 0

    try:
        return serve_until_drained(
            httpd, coordinator.drain_controller, "cluster-http",
            install_signals=install_signals, on_ready=ready,
        )
    finally:
        if not quiet:
            counters = coordinator._counters()
            print("coordinator drain (%s): %d estimate(s), %d sweep "
                  "point(s), %d redispatch(es)"
                  % (coordinator.drain_controller.reason or "requested",
                     counters["completed"],
                     counters["sweep_points_completed"],
                     counters["redispatches"]), flush=True)


def run_cluster(
    host: str,
    port: int,
    workers: int,
    config: Optional[ClusterConfig] = None,
    worker_slots: int = 1,
    quiet: bool = False,
    install_signals: bool = True,
) -> int:
    """The body of ``repro cluster``: coordinator + N worker processes.

    Workers are separate OS processes running ``python -m repro worker``
    pointed at the coordinator; they register themselves, so the
    coordinator needs no foreknowledge of them.  On drain the workers
    get SIGTERM (their own graceful path) and are killed only if they
    ignore it.
    """
    import os
    import signal
    import subprocess
    import sys

    if workers < 1:
        raise ValueError("workers must be >= 1")
    processes: List[subprocess.Popen] = []

    def spawn_workers(coordinator, httpd) -> None:
        url = "http://%s:%d" % (host, httpd.server_address[1])
        for index in range(workers):
            command = [
                sys.executable, "-m", "repro", "worker",
                "--coordinator", url,
                "--worker-id", "worker-%d" % index,
                "--slots", str(worker_slots),
            ]
            processes.append(subprocess.Popen(
                command, env=dict(os.environ)
            ))
        if not quiet:
            print("spawned %d worker process(es) against %s"
                  % (workers, url), flush=True)

    try:
        return run_coordinator(
            host, port, config=config, install_signals=install_signals,
            quiet=quiet, ready_callback=spawn_workers,
        )
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.time() + 5.0
        for process in processes:
            remaining = max(0.1, deadline - time.time())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
