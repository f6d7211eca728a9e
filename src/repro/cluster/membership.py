"""Worker membership: heartbeats, liveness, and limplock detection.

HDFS-style failure detection, adapted to the co-estimation cluster:

* every worker heartbeats the coordinator on a fixed interval, carrying
  its load (queue depth, in-flight runs, completed count, mean run
  seconds);
* a worker whose last heartbeat is older than ``suspect_after_s`` is
  **suspect** — kept in membership but removed from routing until it
  heartbeats again (late heartbeats are the cheap half of limplock
  handling);
* older than ``dead_after_s`` it is **dead** — its shard reassigns via
  the hash ring and any in-flight jobs re-dispatch to live workers;
* a worker that is alive but *pathologically slow* — coordinator-
  observed run latency above ``limp_factor`` × the median of its peers
  — is **limplocked**: quarantined out of routing even though its
  heartbeats still arrive.  A limping node that answers every probe is
  worse than a dead one (it drags every request to its speed), which
  is exactly the limplock failure mode described in the cluster
  literature; quarantine is sticky until the worker re-registers.

All timing runs on an injectable monotonic clock, so the state machine
is unit-testable without sleeping.
"""

from __future__ import annotations

import statistics
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LIVE",
    "SUSPECT",
    "DEAD",
    "LIMPLOCKED",
    "DECOMMISSIONED",
    "WorkerInfo",
    "MembershipTable",
]

LIVE = "live"
SUSPECT = "suspect"
DEAD = "dead"
LIMPLOCKED = "limplocked"
DECOMMISSIONED = "decommissioned"

#: States a request may be routed to.
ROUTABLE_STATES = (LIVE,)


@dataclass
class WorkerInfo:
    """Coordinator-side view of one worker."""

    worker_id: str
    url: str
    state: str = LIVE
    registered_at: float = 0.0
    last_heartbeat_at: float = 0.0
    heartbeats: int = 0
    #: Worker-reported load (latest heartbeat).
    queue_depth: int = 0
    in_flight: int = 0
    completed: int = 0
    reported_run_s: float = 0.0
    #: Coordinator-observed run latency (EWMA over dispatched jobs).
    observed_run_s: float = 0.0
    run_samples: int = 0
    quarantine_reason: str = ""
    #: Jobs re-dispatched away from this worker after it was declared
    #: dead or quarantined.
    redispatched_jobs: int = 0

    def snapshot(self, now: float) -> Dict[str, object]:
        return {
            "url": self.url,
            "state": self.state,
            "heartbeat_age_s": (
                round(now - self.last_heartbeat_at, 3)
                if self.heartbeats else None
            ),
            "heartbeats": self.heartbeats,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "completed": self.completed,
            "observed_run_s": round(self.observed_run_s, 6),
            "run_samples": self.run_samples,
            "quarantine_reason": self.quarantine_reason,
            "redispatched_jobs": self.redispatched_jobs,
        }


@dataclass
class MembershipConfig:
    """Liveness and limplock thresholds (see docs/cluster.md)."""

    #: Heartbeat older than this ⇒ suspect (unroutable until it returns).
    suspect_after_s: float = 3.0
    #: Heartbeat older than this ⇒ dead (shard reassigned, jobs
    #: re-dispatched).
    dead_after_s: float = 10.0
    #: Observed run latency above ``limp_factor`` × peer median ⇒
    #: limplocked.
    limp_factor: float = 4.0
    #: Minimum observed runs on a worker before it can be judged.
    limp_min_samples: int = 3
    #: Absolute slack added to the median test so microsecond jitter on
    #: near-instant jobs can never quarantine anyone.
    limp_min_gap_s: float = 0.05

    def __post_init__(self) -> None:
        if self.suspect_after_s <= 0:
            raise ValueError("suspect_after_s must be positive")
        if self.dead_after_s <= self.suspect_after_s:
            raise ValueError("dead_after_s must exceed suspect_after_s")
        if self.limp_factor <= 1.0:
            raise ValueError("limp_factor must exceed 1.0")
        if self.limp_min_samples < 1:
            raise ValueError("limp_min_samples must be >= 1")


class MembershipTable:
    """Thread-safe worker table with the liveness/limplock state machine.

    ``on_transition(worker_id, old_state, new_state, reason)`` fires
    outside the lock for every state change, so the coordinator can log
    and count without re-entering membership.
    """

    def __init__(self, config: Optional[MembershipConfig] = None,
                 clock: Callable[[], float] = None,
                 on_transition=None) -> None:
        import time as _time

        self.config = config or MembershipConfig()
        self.clock = clock if clock is not None else _time.monotonic
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._workers: Dict[str, WorkerInfo] = {}

    # -- registration / heartbeats --------------------------------------

    def register(self, worker_id: str, url: str) -> WorkerInfo:
        """Add (or resurrect) a worker as live with fresh statistics."""
        now = self.clock()
        with self._lock:
            old = self._workers.get(worker_id)
            old_state = old.state if old is not None else None
            info = WorkerInfo(
                worker_id=worker_id, url=url, state=LIVE,
                registered_at=now, last_heartbeat_at=now, heartbeats=1,
            )
            self._workers[worker_id] = info
        if old_state is not None and old_state != LIVE:
            self._fire(worker_id, old_state, LIVE, "re-registered")
        elif old_state is None:
            self._fire(worker_id, "", LIVE, "registered")
        return info

    def heartbeat(self, worker_id: str, queue_depth: int = 0,
                  in_flight: int = 0, completed: int = 0,
                  reported_run_s: float = 0.0) -> bool:
        """Record one heartbeat; returns False for unknown/evicted
        workers (the caller answers "re-register")."""
        now = self.clock()
        revived = None
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or info.state in (DEAD, DECOMMISSIONED,
                                              LIMPLOCKED):
                # Dead, decommissioned and quarantined workers must
                # re-register: resurrection resets their statistics, so
                # a recovered limper starts with a clean latency record.
                return False
            info.last_heartbeat_at = now
            info.heartbeats += 1
            info.queue_depth = queue_depth
            info.in_flight = in_flight
            info.completed = completed
            info.reported_run_s = reported_run_s
            if info.state == SUSPECT:
                revived = info
                info.state = LIVE
        if revived is not None:
            self._fire(worker_id, SUSPECT, LIVE, "heartbeat returned")
        return True

    def observe_run(self, worker_id: str, seconds: float) -> None:
        """Fold one coordinator-observed job latency into the worker."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return
            if info.run_samples == 0:
                info.observed_run_s = seconds
            else:
                info.observed_run_s = (0.7 * info.observed_run_s
                                       + 0.3 * seconds)
            info.run_samples += 1

    # -- state transitions ----------------------------------------------

    def refresh(self) -> List[Tuple[str, str, str, str]]:
        """Advance the liveness/limplock state machine; returns the
        transitions fired as ``(worker_id, old, new, reason)``."""
        now = self.clock()
        fired: List[Tuple[str, str, str, str]] = []
        with self._lock:
            for info in self._workers.values():
                if info.state not in (LIVE, SUSPECT):
                    continue
                age = now - info.last_heartbeat_at
                if age > self.config.dead_after_s:
                    fired.append((info.worker_id, info.state, DEAD,
                                  "no heartbeat for %.1fs" % age))
                    info.state = DEAD
                elif age > self.config.suspect_after_s \
                        and info.state == LIVE:
                    fired.append((info.worker_id, LIVE, SUSPECT,
                                  "heartbeat %.1fs late" % age))
                    info.state = SUSPECT
            fired.extend(self._limplock_check_locked())
        for transition in fired:
            self._fire(*transition)
        return fired

    def _limplock_check_locked(self) -> List[Tuple[str, str, str, str]]:
        """Quarantine live workers far above the peer latency median."""
        judged = [
            info for info in self._workers.values()
            if info.state == LIVE
            and info.run_samples >= self.config.limp_min_samples
        ]
        if len(judged) < 2:
            return []  # no peers ⇒ no median ⇒ no verdict
        fired = []
        for info in judged:
            peers = [peer.observed_run_s for peer in judged
                     if peer is not info]
            median = statistics.median(peers)
            threshold = max(median * self.config.limp_factor,
                            median + self.config.limp_min_gap_s)
            if info.observed_run_s > threshold:
                reason = ("run latency %.3fs vs peer median %.3fs "
                          "(limp factor %.1f)"
                          % (info.observed_run_s, median,
                             self.config.limp_factor))
                info.state = LIMPLOCKED
                info.quarantine_reason = reason
                fired.append((info.worker_id, LIVE, LIMPLOCKED, reason))
        return fired

    def mark_dead(self, worker_id: str, reason: str) -> bool:
        """Declare a worker dead (e.g. its socket refused mid-job)."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or info.state == DEAD:
                return False
            old = info.state
            info.state = DEAD
        self._fire(worker_id, old, DEAD, reason)
        return True

    def decommission(self, worker_id: str, reason: str = "requested") -> bool:
        """Planned removal: unroutable, shard handed off via checkpoint."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or info.state == DECOMMISSIONED:
                return False
            old = info.state
            info.state = DECOMMISSIONED
        self._fire(worker_id, old, DECOMMISSIONED, reason)
        return True

    def count_redispatch(self, worker_id: str, jobs: int = 1) -> None:
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                info.redispatched_jobs += jobs

    # -- views ----------------------------------------------------------

    def get(self, worker_id: str) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.get(worker_id)

    def routable(self) -> List[str]:
        """Worker ids requests may be sent to, sorted for determinism."""
        with self._lock:
            return sorted(
                worker_id for worker_id, info in self._workers.items()
                if info.state in ROUTABLE_STATES
            )

    def url_of(self, worker_id: str) -> Optional[str]:
        with self._lock:
            info = self._workers.get(worker_id)
            return info.url if info is not None else None

    def states(self) -> Dict[str, str]:
        with self._lock:
            return {worker_id: info.state
                    for worker_id, info in self._workers.items()}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The /readyz membership document (per-worker detail)."""
        now = self.clock()
        with self._lock:
            return {
                worker_id: info.snapshot(now)
                for worker_id, info in sorted(self._workers.items())
            }

    def heartbeat_ages(self) -> Dict[str, float]:
        now = self.clock()
        with self._lock:
            return {
                worker_id: now - info.last_heartbeat_at
                for worker_id, info in self._workers.items()
                if info.heartbeats
            }

    def _fire(self, worker_id: str, old: str, new: str,
              reason: str) -> None:
        if self.on_transition is not None:
            self.on_transition(worker_id, old, new, reason)
