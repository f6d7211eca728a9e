"""Integration test of coordinator failover (repro.cluster.ha).

The SIGKILL-equivalent scenario, in-process: a leader coordinator is
deposed *mid-sweep* (its workers fence its dispatches the moment they
have obeyed a newer epoch — exactly what a kill -9 plus a standby
election produces), and the successor replays the journal, restores
membership, and re-dispatches the orphaned sweep.

The acceptance bar is the chaos contract from docs/cluster-ha.md:

* every sweep job executes **exactly once** across both leaderships,
  and every dispatch of a given job carries the **same seed** — a
  failover must never run a job twice with different seeds;
* the merged rows are **byte-identical** to a single-process sweep;
* the deposed coordinator stays fenced: its data plane answers
  503 ``not_leader`` and it appends nothing more to its journal.

scripts/cluster_smoke.py drives the same scenario with real processes
and a real SIGKILL.
"""

import json

import pytest

from repro.cluster.coordinator import (
    ROLE_FENCED,
    ROLE_LEADER,
    ClusterConfig,
    ClusterCoordinator,
)
from repro.cluster.membership import LIVE, MembershipConfig
from repro.cluster.protocol import REASON_NOT_LEADER
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


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class HaHarness:
    """Two coordinator replicas over one worker set, no sockets.

    The shared transport routes dispatches into in-process
    :class:`ClusterWorker` cores and records every ``/run`` body, so
    the exactly-once / same-seed acceptance can be asserted over the
    union of both leaders' dispatches.
    """

    def __init__(self, tmp_path, worker_ids):
        self.clock = FakeClock()
        self.control_dir = str(tmp_path / "control")
        self.workers = {}
        self.dispatch_log = []  # (label, seed, status) per /run spec job
        self.on_dispatch = None
        for worker_id in worker_ids:
            self.workers[worker_id] = ClusterWorker(WorkerConfig(
                coordinator_url="http://coordinator.invalid",
                worker_id=worker_id, warm_tier=False,
            ))

    def make_coordinator(self, coordinator_id):
        return ClusterCoordinator(
            ClusterConfig(
                membership=MembershipConfig(suspect_after_s=3600.0,
                                            dead_after_s=7200.0),
                coordinator_id=coordinator_id,
                control_dir=self.control_dir,
                backoff_base_s=0.0,
                orphan_grace_s=0.0,
                recover_orphan_sweeps=False,  # driven explicitly below
            ),
            transport=self._transport,
            wall_clock=self.clock,
        )

    def _transport(self, url, path, body, timeout_s):
        worker_id = url.replace("http://", "")
        if self.on_dispatch is not None and path == "/run":
            self.on_dispatch(worker_id, body)
        worker = self.workers[worker_id]
        if path == "/run":
            status, reply = worker.handle_run(body)
            if body.get("kind") == "spec":
                answers = reply.get("results") or [{}] * len(body["jobs"])
                for job, answer in zip(body["jobs"], answers):
                    self.dispatch_log.append(
                        (job.get("label"), job.get("seed"),
                         answer.get("status", status))
                    )
            return status, reply
        if path == "/decommission":
            return 200, worker.decommission(
                str(body.get("reason") or "requested"))
        raise AssertionError("unexpected dispatch path %r" % path)

    def replicate(self, source, replica):
        status, body = source.journal_entries_since(
            replica.journal.tip_seq())
        assert status == 200
        return replica.apply_replicated(body["entries"])

    def assert_exactly_once_same_seed(self):
        """The chaos acceptance over the union of all dispatches."""
        seeds = {}
        executions = {}
        for label, seed, status in self.dispatch_log:
            seeds.setdefault(label, set()).add(seed)
            if status == 200:
                executions[label] = executions.get(label, 0) + 1
        for label, seen in sorted(seeds.items()):
            assert len(seen) == 1, (
                "job %r dispatched with %d different seeds" % (label,
                                                               len(seen))
            )
        assert set(executions) == set(seeds)
        for label, count in sorted(executions.items()):
            assert count == 1, (
                "job %r executed %d times" % (label, count)
            )


def test_takeover_mid_sweep_redispatches_exactly_once(tmp_path,
                                                      baseline_rows):
    """Satellite: kill the active mid-sweep (during its shard work),
    let the standby take over, and require byte-identical rows with
    every job executed exactly once."""
    harness = HaHarness(tmp_path, ["alpha"])
    checkpoint = str(tmp_path / "sweep.ckpt.jsonl")

    active = harness.make_coordinator("a")
    active.set_url("http://a")
    assert active.try_elect()
    assert active.role == ROLE_LEADER and active.epoch == 1
    active.register_worker("alpha", "http://alpha")

    # The standby shadows the leader's journal (as its tail loop would).
    standby = harness.make_coordinator("b")
    standby.set_url("http://b")
    harness.replicate(active, standby)

    # Mid-sweep, the worker learns of a newer epoch — the in-process
    # equivalent of `kill -9` on the active while the standby's
    # election reaches the worker set.  From then on the old leader's
    # dispatches are fenced with 409 stale-epoch.
    dispatches = {"n": 0}

    def depose_on_third_dispatch(worker_id, body):
        if body.get("kind") != "spec":
            return
        dispatches["n"] += 1
        if dispatches["n"] == 3:
            with harness.workers[worker_id]._lock:
                harness.workers[worker_id].epoch = 2

    harness.on_dispatch = depose_on_third_dispatch
    status, body = active.run_sweep(
        dict(SWEEP_PARAMS, checkpoint=checkpoint))
    harness.on_dispatch = None
    assert status == 503
    assert body["reason"] == REASON_NOT_LEADER
    assert "fenced mid-sweep" in body["detail"]
    assert active.role == ROLE_FENCED
    orphan_sweep_id = body["sweep_id"]

    # Journal state at the moment of death: the sweep is started, not
    # completed — exactly what tells the successor to re-dispatch it.
    harness.replicate(active, standby)
    fenced_tip = active.journal.tip_seq()

    # The lease expires (the deposed active stopped renewing) and the
    # standby takes over with a strictly higher epoch.
    harness.clock.advance(10.0)
    assert standby.try_elect()
    assert standby.role == ROLE_LEADER
    assert standby.epoch == 2
    assert standby.membership.states()["alpha"] == LIVE
    assert standby.membership.url_of("alpha") == "http://alpha"
    snapshot = standby.ha_snapshot()
    assert snapshot["failovers"] == 1
    assert snapshot["orphaned_sweeps"] == [orphan_sweep_id]

    # Takeover recovery: the orphan re-dispatches exactly once, resumes
    # the handed-off checkpoint, and the rows are byte-identical.
    recovered = standby.recover_orphaned_sweeps(grace_s=0.0)
    assert len(recovered) == 1
    sweep_id, status, body = recovered[0]
    assert sweep_id == orphan_sweep_id
    assert status == 200
    assert body["status"] == "ok", body
    assert body["sweep_id"] == orphan_sweep_id
    assert body["restored"] == 2  # the two points the old leader saved
    assert canonical(body["rows"]) == baseline_rows
    assert standby.ha_snapshot()["orphaned_sweeps"] == []

    harness.assert_exactly_once_same_seed()

    # The deposed coordinator stays fenced: no data plane, no journal.
    status, body = active.run_sweep(dict(SWEEP_PARAMS))
    assert status == 503 and body["reason"] == REASON_NOT_LEADER
    with pytest.raises(Exception) as excinfo:
        active.submit(parse_request(
            {"system": "fig1", "strategy": "caching"},
            known_systems=system_names(),
        ))
    assert getattr(excinfo.value, "status", None) == 503
    assert getattr(excinfo.value, "reason", None) == REASON_NOT_LEADER
    assert active.journal.tip_seq() == fenced_tip


def test_takeover_without_checkpoint_reruns_from_scratch(tmp_path,
                                                         baseline_rows):
    """A leader killed before any point completes: the successor
    re-runs the whole sweep (nothing to restore) — still exactly once
    per job, still byte-identical."""
    harness = HaHarness(tmp_path, ["alpha"])
    active = harness.make_coordinator("a")
    active.set_url("http://a")
    assert active.try_elect()
    active.register_worker("alpha", "http://alpha")
    standby = harness.make_coordinator("b")
    standby.set_url("http://b")

    def depose_immediately(worker_id, body):
        if body.get("kind") == "spec":
            with harness.workers[worker_id]._lock:
                harness.workers[worker_id].epoch = 2

    harness.on_dispatch = depose_immediately
    status, body = active.run_sweep(dict(SWEEP_PARAMS))
    harness.on_dispatch = None
    assert status == 503 and body["reason"] == REASON_NOT_LEADER

    harness.replicate(active, standby)
    harness.clock.advance(10.0)
    assert standby.try_elect()
    recovered = standby.recover_orphaned_sweeps(grace_s=0.0)
    assert len(recovered) == 1
    _, status, body = recovered[0]
    assert status == 200 and body["status"] == "ok", body
    assert body["restored"] == 0
    assert canonical(body["rows"]) == baseline_rows
    harness.assert_exactly_once_same_seed()
