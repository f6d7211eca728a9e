"""`repro.cluster` — distributed co-estimation: coordinator + workers.

The service layer made the framework a long-running process; this
package makes it a *cluster*.  A coordinator fronts the same JSON/HTTP
estimate protocol and shards work over N worker processes, each of
which reuses :func:`repro.parallel.pool.execute_spec` as its unit of
execution — the cluster is a distribution layer, not a second engine.

* :mod:`repro.cluster.hashring` — consistent hashing with virtual
  replicas; estimates route by request fingerprint, sweep points by
  job label, so identical requests coalesce cluster-wide and each
  worker's §4.2 caches stay hot for its shard.
* :mod:`repro.cluster.membership` — the worker state machine
  (live/suspect/dead/limplocked/decommissioned) driven by HDFS-style
  heartbeats, including the limplock detector that quarantines
  alive-but-slow workers.
* :mod:`repro.cluster.protocol` — the tiny JSON-over-HTTP wire layer
  (stdlib only) shared by both halves; socket-level failures surface
  as :class:`~repro.cluster.protocol.TransportError`, the signal that
  makes re-dispatch safe to decide.
* :mod:`repro.cluster.worker` — the worker process (``repro worker``):
  registers, heartbeats, runs jobs, drains gracefully.
* :mod:`repro.cluster.coordinator` — membership + routing +
  re-dispatch + sweep sharding with checkpoint-backed shard handoff
  (``repro cluster``).
* :mod:`repro.cluster.journal` — the append-only, fsync'd
  control-plane journal a standby replays to take over.
* :mod:`repro.cluster.ha` — lease-based leader election with a
  deterministic tiebreak, plus the peer-walking failover client;
  together with per-request epoch fencing this is the coordinator
  high-availability layer (docs/cluster-ha.md).

Determinism contract: every job's seed is a pure function of its
identity (:func:`repro.parallel.jobs.job_seed`), so a job re-dispatched
after a worker death — or resumed from a handed-off checkpoint —
reproduces its original result byte for byte.  See docs/cluster.md.
"""

from repro.cluster.coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ROLE_FENCED,
    ROLE_LEADER,
    ROLE_STANDBY,
    run_cluster,
    run_coordinator,
)
from repro.cluster.ha import Lease, LeaseFile
from repro.cluster.hashring import HashRing
from repro.cluster.journal import (
    ControlPlaneJournal,
    ControlPlaneState,
    JournalEntry,
    JournalError,
)
from repro.cluster.membership import (
    DEAD,
    DECOMMISSIONED,
    LIMPLOCKED,
    LIVE,
    SUSPECT,
    MembershipConfig,
    MembershipTable,
    WorkerInfo,
)
from repro.cluster.protocol import (
    JOB_KIND_ESTIMATE,
    JOB_KIND_SPEC,
    ProtocolError,
    TransportError,
    get_json,
    http_json,
    post_json,
)
from repro.cluster.worker import ClusterWorker, WorkerConfig, run_worker

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "run_coordinator",
    "run_cluster",
    "HashRing",
    "MembershipConfig",
    "MembershipTable",
    "WorkerInfo",
    "LIVE",
    "SUSPECT",
    "DEAD",
    "LIMPLOCKED",
    "DECOMMISSIONED",
    "JOB_KIND_ESTIMATE",
    "JOB_KIND_SPEC",
    "TransportError",
    "ProtocolError",
    "http_json",
    "post_json",
    "get_json",
    "WorkerConfig",
    "ClusterWorker",
    "run_worker",
    "ROLE_LEADER",
    "ROLE_STANDBY",
    "ROLE_FENCED",
    "Lease",
    "LeaseFile",
    "ControlPlaneJournal",
    "ControlPlaneState",
    "JournalEntry",
    "JournalError",
]
