"""Integration tests of the co-estimation cluster.

Real coordinator + real worker cores, no sockets: the coordinator's
injectable transport routes ``/run`` bodies straight into in-process
:class:`~repro.cluster.worker.ClusterWorker` instances.  That keeps the
full dispatch / re-dispatch / handoff machinery and the full worker
execution funnel (``execute_spec`` → the paper's estimators) under
test, while failures are injected deterministically instead of by
killing OS processes (scripts/cluster_smoke.py covers that layer).

The load-bearing property throughout is *byte-identity*: whatever the
cluster does — worker deaths, re-dispatch, drain handoffs, checkpoint
resume on different workers, limplock quarantines — the sweep summary
rows must equal a plain single-process ``parallel_sweep`` byte for
byte.
"""

import json
import threading

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.membership import (
    DEAD,
    DECOMMISSIONED,
    LIMPLOCKED,
    MembershipConfig,
)
from repro.cluster.protocol import TransportError
from repro.cluster.worker import ClusterWorker, WorkerConfig
from repro.core.explorer import (
    parallel_sweep,
    priority_permutations,
    sweep_summary_rows,
)
from repro.service.api import parse_request
from repro.systems import system_names, tcpip

BUILDER = "repro.systems.tcpip:build_system"
BUILDER_KWARGS = {"num_packets": 1, "packet_period_ns": 30_000.0}
SWEEP_PARAMS = {"dma": [2], "packets": 1, "period_ns": 30_000.0}
POINTS = 6  # one DMA size x 3! priority assignments


def canonical(rows):
    """The exact serialization ``repro explore --out`` writes."""
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def baseline_rows():
    """Single-process ground truth for the fig.7 slice under test."""
    points, _ = parallel_sweep(
        BUILDER,
        SWEEP_PARAMS["dma"],
        priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy="caching",
        jobs=1,
        builder_kwargs=dict(BUILDER_KWARGS),
    )
    assert len(points) == POINTS
    return canonical(sweep_summary_rows(points))


class InProcessCluster:
    """Coordinator + worker cores wired through a fake transport.

    ``fail`` holds worker ids whose next dispatch raises
    :class:`TransportError` (a crashed process); ``on_dispatch`` is a
    pre-dispatch hook the failure-injection tests use to kill or drain
    a worker at an exact point in the sweep.
    """

    def __init__(self, worker_ids, clock=None, **config):
        self.workers = {}
        self.fail = set()
        self.on_dispatch = None
        config.setdefault("backoff_base_s", 0.0)
        # No real heartbeats flow in-process, so liveness timeouts are
        # parked far away; deaths come from TransportError injection.
        config.setdefault(
            "membership",
            MembershipConfig(suspect_after_s=3600.0, dead_after_s=7200.0),
        )
        kwargs = {"transport": self._transport}
        if clock is not None:
            kwargs["clock"] = clock
        self.coordinator = ClusterCoordinator(ClusterConfig(**config),
                                              **kwargs)
        for worker_id in worker_ids:
            self.add_worker(worker_id)

    def add_worker(self, worker_id, **worker_kwargs):
        worker_kwargs.setdefault("warm_tier", False)
        worker = ClusterWorker(WorkerConfig(
            coordinator_url="http://coordinator.invalid",
            worker_id=worker_id, **worker_kwargs,
        ))
        self.workers[worker_id] = worker
        self.coordinator.register_worker(worker_id,
                                         "http://%s" % worker_id)
        return worker

    def _transport(self, url, path, body, timeout_s):
        worker_id = url.replace("http://", "")
        if self.on_dispatch is not None:
            self.on_dispatch(worker_id, path)
        if worker_id in self.fail:
            raise TransportError("worker %s unreachable" % worker_id)
        worker = self.workers[worker_id]
        if path == "/run":
            return worker.handle_run(body)
        if path == "/decommission":
            return 200, worker.decommission(
                str(body.get("reason") or "requested"))
        raise AssertionError("unexpected dispatch path %r" % path)


def make_estimate_request(**extra):
    body = {"system": "fig1", "strategy": "caching"}
    body.update(extra)
    return parse_request(body, known_systems=system_names())


def test_estimate_round_trips_through_a_real_worker():
    cluster = InProcessCluster(["w0", "w1"])
    pending, coalesced = cluster.coordinator.submit(make_estimate_request())
    assert pending.status == 200 and not coalesced
    body = pending.body
    assert body["status"] == "ok"
    assert body["total_energy_j"] > 0.0
    assert body["cluster"]["worker"] in ("w0", "w1")
    assert body["fingerprint"]
    # The same request is deterministic wherever it runs.
    again, _ = cluster.coordinator.submit(make_estimate_request())
    assert again.body["total_energy_j"] == body["total_energy_j"]
    assert again.body["cluster"]["worker"] == body["cluster"]["worker"]


def test_cluster_sweep_matches_single_node_byte_for_byte(baseline_rows):
    cluster = InProcessCluster(["w0", "w1", "w2"])
    status, body = cluster.coordinator.run_sweep(dict(SWEEP_PARAMS))
    assert status == 200
    assert body["status"] == "ok"
    assert body["completed"] == POINTS
    assert sum(body["workers"].values()) == POINTS
    assert canonical(body["rows"]) == baseline_rows


def test_worker_death_mid_sweep_redispatches_byte_identically(
        baseline_rows):
    cluster = InProcessCluster(["w0", "w1", "w2"])
    dispatches = {}
    victim = {}

    def kill_on_second_dispatch(worker_id, path):
        if path != "/run":
            return
        dispatches[worker_id] = dispatches.get(worker_id, 0) + 1
        victim.setdefault("id", worker_id)
        if worker_id == victim["id"] and dispatches[worker_id] == 2:
            cluster.fail.add(worker_id)  # crashes mid-job, job unfinished

    cluster.on_dispatch = kill_on_second_dispatch
    status, body = cluster.coordinator.run_sweep(dict(SWEEP_PARAMS))
    assert status == 200
    assert body["status"] == "ok", body
    assert canonical(body["rows"]) == baseline_rows
    states = cluster.coordinator.membership.states()
    assert states[victim["id"]] == DEAD
    assert body["redispatches"] >= 1
    assert victim["id"] not in body["workers"] or \
        body["workers"][victim["id"]] == 1


def test_draining_worker_hands_shard_off_without_penalty(baseline_rows):
    cluster = InProcessCluster(["w0", "w1", "w2"])
    dispatches = {}
    victim = {}

    def drain_before_second_dispatch(worker_id, path):
        if path != "/run":
            return
        dispatches[worker_id] = dispatches.get(worker_id, 0) + 1
        victim.setdefault("id", worker_id)
        if worker_id == victim["id"] and dispatches[worker_id] == 2:
            # Operator decommissions the node between two jobs: the
            # worker answers 503 and the coordinator hands its shard
            # to the ring successors.
            cluster.workers[worker_id].decommission("scale-down")

    cluster.on_dispatch = drain_before_second_dispatch
    status, body = cluster.coordinator.run_sweep(dict(SWEEP_PARAMS))
    assert status == 200
    assert body["status"] == "ok", body
    assert canonical(body["rows"]) == baseline_rows
    states = cluster.coordinator.membership.states()
    assert states[victim["id"]] == DECOMMISSIONED
    # A planned drain is a handoff, not a failure: nothing is counted
    # against the re-dispatch budget.
    assert body["redispatches"] == 0


def test_checkpoint_shard_handoff_across_workers(tmp_path, baseline_rows):
    """Satellite (c): a partially-drained shard checkpointed by one
    worker resumes on a *different* worker, and the merged output is
    byte-identical — including when the resuming process is the
    single-node ``repro explore`` path rather than a cluster."""
    checkpoint = str(tmp_path / "sweep.ckpt.jsonl")

    # Phase 1: a one-worker cluster crashes after two completed points.
    first = InProcessCluster(["alpha"])
    dispatches = {"n": 0}

    def crash_on_third_dispatch(worker_id, path):
        if path != "/run":
            return
        dispatches["n"] += 1
        if dispatches["n"] == 3:
            first.fail.add(worker_id)

    first.on_dispatch = crash_on_third_dispatch
    status, body = first.coordinator.run_sweep(
        dict(SWEEP_PARAMS, checkpoint=checkpoint))
    assert status == 200
    assert body["status"] == "partial"
    assert body["completed"] == 2
    assert len(body["pending_labels"]) == POINTS - 2

    # Phase 2: a fresh coordinator and a different worker resume from
    # the handed-off checkpoint; only the remaining points run.
    second = InProcessCluster(["beta"])
    status, body = second.coordinator.run_sweep(
        dict(SWEEP_PARAMS, checkpoint=checkpoint, resume=True))
    assert status == 200
    assert body["status"] == "ok", body
    assert body["restored"] == 2
    assert body["workers"] == {"beta": POINTS - 2}
    assert canonical(body["rows"]) == baseline_rows

    # Phase 3: the cluster checkpoint is signature-compatible with the
    # single-node explorer — ``repro explore --resume`` restores every
    # cluster-computed point without re-running anything.
    points, _ = parallel_sweep(
        BUILDER,
        SWEEP_PARAMS["dma"],
        priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy="caching",
        jobs=1,
        builder_kwargs=dict(BUILDER_KWARGS),
        resume_path=checkpoint,
    )
    assert canonical(sweep_summary_rows(points)) == baseline_rows


class ThreadLocalClock:
    """A per-thread fake clock.

    The coordinator measures a dispatch's latency in the dispatching
    thread (``clock()`` before and after the transport call), so
    advancing only the calling thread's clock attributes injected
    latency to exactly the worker being dispatched to — concurrent
    sweep threads never pollute each other's measurements."""

    def __init__(self, start=100.0):
        self._local = threading.local()
        self._start = start

    def __call__(self):
        return getattr(self._local, "now", self._start)

    def advance(self, seconds):
        self._local.now = self() + seconds


def test_limplock_quarantine_keeps_results_and_reroutes(baseline_rows):
    clock = ThreadLocalClock()
    cluster = InProcessCluster(
        ["w0", "w1", "limpy"],
        clock=clock,
        membership=MembershipConfig(
            suspect_after_s=3600.0, dead_after_s=7200.0,
            limp_factor=4.0, limp_min_samples=1, limp_min_gap_s=0.25,
        ),
    )

    def limp(worker_id, path):
        if path == "/run":
            # An alive-but-degraded node: 40x its peers' latency.
            clock.advance(2.0 if worker_id == "limpy" else 0.05)

    cluster.on_dispatch = limp
    status, body = cluster.coordinator.run_sweep(dict(SWEEP_PARAMS))
    assert status == 200
    assert body["status"] == "ok", body
    # Quarantine never discards completed work: the rows are intact.
    assert canonical(body["rows"]) == baseline_rows

    cluster.coordinator.refresh_membership()
    counters = cluster.coordinator._counters()
    assert counters["quarantines"] >= 1
    assert cluster.coordinator.membership.states()["limpy"] == LIMPLOCKED
    assert "limpy" not in cluster.coordinator.membership.routable()
    assert "limpy" not in cluster.coordinator.ring.nodes

    # The p99 story: follow-up traffic routes around the quarantined
    # node, so healthy requests never inherit its latency.
    cluster.on_dispatch = None
    pending, _ = cluster.coordinator.submit(make_estimate_request())
    assert pending.status == 200
    assert pending.body["cluster"]["worker"] != "limpy"


def test_warm_tier_converges_through_the_coordinator(monkeypatch):
    """A warm-start sweep pushes each worker's §4.2 cache snapshot to
    the coordinator tier, and a later cold worker pulls it."""
    cluster = InProcessCluster(["w0"])
    cluster.workers["w0"].config.warm_tier = True
    coordinator = cluster.coordinator

    def fake_get(url, path, timeout_s=5.0):
        assert path.startswith("/cluster/cache?key=")
        return coordinator.cache_get(path.split("key=", 1)[1])

    def fake_post(url, path, body, timeout_s=5.0):
        assert path == "/cluster/cache"
        return coordinator.cache_put(body)

    monkeypatch.setattr("repro.cluster.worker.get_json", fake_get)
    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)

    status, body = coordinator.run_sweep(
        dict(SWEEP_PARAMS, warm_start=True))
    assert status == 200 and body["status"] == "ok"
    warm_key = "%s/caching" % BUILDER
    status, reply = coordinator.cache_get(warm_key)
    assert status == 200
    state = reply["state"]
    assert state is not None and state["cache"]["entries"]


#: Keys only one caller adds to the shared estimate answer, and the
#: wall-clock ones; everything else must match byte for byte.
SERVICE_ONLY = {"fingerprint", "queue_seconds"}
WORKER_ONLY = {"kind", "worker"}


def _without_timing(body, drop):
    body = {key: value for key, value in body.items()
            if key not in drop and key != "run_seconds"}
    body["report"] = {key: value for key, value in body["report"].items()
                      if not key.endswith("_seconds")}
    return json.dumps(body, sort_keys=True)


@pytest.mark.parametrize("body", [
    {"system": "fig1", "strategy": "caching"},
    {"system": "tcpip", "strategy": "macromodel"},
    {"system": "fig1", "strategy": "full",
     "fault": {"rate": 0.3, "sites": ["hw", "iss"], "seed": 11,
               "retries": 0}},
])
def test_service_and_worker_give_the_same_answer(body):
    from repro.service import CoEstimationService, ServiceConfig

    request = parse_request(dict(body, request_id="same"),
                            known_systems=system_names())
    service = CoEstimationService(ServiceConfig(workers=1))
    service.start()
    try:
        pending, _ = service.submit(request)
        assert pending.wait(120.0)
    finally:
        service.drain(timeout_s=30.0)
    worker = ClusterWorker(WorkerConfig(
        coordinator_url="http://coordinator.invalid", worker_id="w0"))
    status, answer = worker.handle_run({
        "kind": "estimate", "request": request.to_payload(), "trace": None,
    })
    assert (pending.status, status) == (200, 200)
    assert set(pending.body) - set(answer) == SERVICE_ONLY
    assert set(answer) - set(pending.body) == WORKER_ONLY
    assert (_without_timing(pending.body, SERVICE_ONLY)
            == _without_timing(answer, WORKER_ONLY))


def test_single_node_checkpoint_resumes_on_the_cluster(tmp_path,
                                                        baseline_rows):
    """The reverse of the handoff above: ``repro explore --checkpoint``
    is interrupted, and the cluster's ``/sweep`` resumes its file."""
    checkpoint = str(tmp_path / "sweep.ckpt")

    class Interrupted(Exception):
        pass

    done = []

    def interrupt_after_two(result):
        done.append(result.label)
        if len(done) == 2:
            raise Interrupted()

    with pytest.raises(Interrupted):
        parallel_sweep(
            BUILDER,
            SWEEP_PARAMS["dma"],
            priority_permutations(list(tcpip.BUS_MASTERS)),
            strategy="caching",
            jobs=1,
            builder_kwargs=dict(BUILDER_KWARGS),
            checkpoint_path=checkpoint,
            on_point=interrupt_after_two,
        )

    cluster = InProcessCluster(["w0"])
    status, body = cluster.coordinator.run_sweep(
        dict(SWEEP_PARAMS, checkpoint=checkpoint, resume=True))
    assert status == 200
    assert body["status"] == "ok", body
    assert body["restored"] == 2
    assert body["workers"] == {"w0": POINTS - 2}
    assert canonical(body["rows"]) == baseline_rows
