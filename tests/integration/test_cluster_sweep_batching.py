"""Batched sweep dispatch: several points per ``/run``, per-job semantics.

A dispatch thread sends ``min(8, max(1, pending // (4 x workers)))``
points in one ``/run`` body and the worker answers one result per job.
Everything the one-point dispatch guaranteed must hold per job: rows
byte-identical to ``parallel_sweep``, every point executed exactly
once, re-dispatch of exactly the unfinished points, epoch fencing
between two jobs of a batch, per-job errors, and one limplock sample
per job.  The last test runs a real coordinator and worker over HTTP
and checks that each dispatch thread keeps one keep-alive connection.
"""

import http.client
import json
import threading
import time
from collections import Counter

import pytest

from repro.cluster import worker as worker_module
from repro.cluster.coordinator import (
    ROLE_FENCED,
    ClusterConfig,
    run_coordinator,
)
from repro.cluster.membership import MembershipConfig
from repro.cluster.protocol import REASON_NOT_LEADER
from repro.cluster.worker import WorkerConfig, run_worker
from repro.core.explorer import (
    parallel_sweep,
    priority_permutations,
    sweep_summary_rows,
)
from repro.systems import tcpip

from tests.integration.test_cluster_ha_failover import HaHarness
from tests.integration.test_cluster_integration import (
    BUILDER,
    BUILDER_KWARGS,
    InProcessCluster,
    canonical,
)

GRIDS = {
    6: {"dma": [2], "packets": 1, "period_ns": 30_000.0},
    42: {"dma": [2, 4, 8, 16, 32, 64, 128], "packets": 1,
         "period_ns": 30_000.0},
}


@pytest.fixture(scope="module")
def baselines():
    """Single-process rows of both grids."""
    rows = {}
    for points, params in GRIDS.items():
        swept, _ = parallel_sweep(
            BUILDER, params["dma"],
            priority_permutations(list(tcpip.BUS_MASTERS)),
            strategy="caching", jobs=1,
            builder_kwargs=dict(BUILDER_KWARGS),
        )
        assert len(swept) == points
        rows[points] = canonical(sweep_summary_rows(swept))
    return rows


@pytest.fixture
def executions(monkeypatch):
    """Labels run through the worker's ``execute_spec``, counted.

    ``hooks`` run after each execution with (call number, spec); a hook
    may raise to make that job fail.
    """
    counts = Counter()
    hooks = []
    lock = threading.Lock()
    original = worker_module.execute_spec

    def counting(spec):
        outcome = original(spec)
        with lock:
            counts[spec.label] += 1
            number = sum(counts.values())
        for hook in hooks:
            hook(number, spec)
        return outcome

    monkeypatch.setattr(worker_module, "execute_spec", counting)
    counting.counts = counts
    counting.hooks = hooks
    return counting


class BatchCluster(InProcessCluster):
    """The in-process cluster, logging each ``/run`` batch's labels.

    ``before_run(worker_id, labels)`` runs before a batch is delivered
    (and before an injected ``fail`` turns it into a transport error).
    """

    def __init__(self, worker_ids, **config):
        self.batches = []
        self.before_run = None
        self._log_lock = threading.Lock()
        super().__init__(worker_ids, **config)

    def _transport(self, url, path, body, timeout_s):
        if path == "/run" and body.get("kind") == "spec":
            worker_id = url.replace("http://", "")
            labels = [job["label"] for job in body["jobs"]]
            with self._log_lock:
                self.batches.append((worker_id, labels))
            if self.before_run is not None:
                self.before_run(worker_id, labels)
        return super()._transport(url, path, body, timeout_s)


@pytest.mark.parametrize("points", sorted(GRIDS))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batched_sweep_matches_single_node(baselines, executions, points,
                                           workers):
    cluster = BatchCluster(["w%d" % index for index in range(workers)])
    status, body = cluster.coordinator.run_sweep(dict(GRIDS[points]))
    assert status == 200
    assert body["status"] == "ok", body
    assert canonical(body["rows"]) == baselines[points]
    assert len(executions.counts) == points
    assert set(executions.counts.values()) == {1}
    dispatches = cluster.coordinator.stats_snapshot()["cluster"][
        "sweep_dispatches"]
    assert dispatches == len(cluster.batches)
    assert sum(len(labels) for _, labels in cluster.batches) == points
    if points == 42 and workers == 2:
        assert dispatches < 42
    assert ("repro_cluster_sweep_dispatches_total %d" % dispatches
            in cluster.coordinator.metrics_exposition())


def test_worker_death_redispatches_its_batch_once(baselines, executions):
    cluster = BatchCluster(["w0", "w1"])
    victim = {}
    failed = []
    killed = threading.Event()

    def kill_on_second_batch(worker_id, labels):
        victim.setdefault("id", worker_id)
        if worker_id != victim["id"]:
            # The other worker holds its first batch until the victim is
            # dead, so points are left for the victim's second batch.
            killed.wait(60.0)
            return
        if sum(1 for owner, _ in cluster.batches if owner == worker_id) == 2:
            failed.extend(labels)
            cluster.fail.add(worker_id)
            killed.set()

    cluster.before_run = kill_on_second_batch
    status, body = cluster.coordinator.run_sweep(dict(GRIDS[42]))
    assert status == 200
    assert body["status"] == "ok", body
    assert canonical(body["rows"]) == baselines[42]
    assert len(failed) > 1
    survivor_labels = Counter(
        label for owner, labels in cluster.batches
        if owner != victim["id"] for label in labels)
    for label in failed:
        assert survivor_labels[label] == 1, label
    assert set(executions.counts.values()) == {1}
    assert len(executions.counts) == 42
    assert body["redispatches"] == len(failed)


def test_epoch_raised_inside_a_batch_fences_and_requeues(
        tmp_path, baselines, executions):
    harness = HaHarness(tmp_path, ["alpha"])
    checkpoint = str(tmp_path / "sweep.ckpt.jsonl")
    active = harness.make_coordinator("a")
    active.set_url("http://a")
    assert active.try_elect()
    active.register_worker("alpha", "http://alpha")
    standby = harness.make_coordinator("b")
    standby.set_url("http://b")
    worker = harness.workers["alpha"]

    def depose_after_second_job(number, spec):
        if number == 2:
            with worker._lock:
                worker.epoch = 2

    executions.hooks.append(depose_after_second_job)
    status, body = active.run_sweep(dict(GRIDS[42], checkpoint=checkpoint))
    executions.hooks.clear()
    assert status == 503
    assert body["reason"] == REASON_NOT_LEADER
    assert "after 2 of 42 point(s)" in body["detail"]
    assert active.role == ROLE_FENCED
    # One batch went out: two jobs ran, the rest came back unrun.
    statuses = [entry[2] for entry in harness.dispatch_log]
    assert len(statuses) > 2
    assert statuses[:2] == [200, 200]
    assert set(statuses[2:]) == {409}
    assert sum(executions.counts.values()) == 2

    harness.replicate(active, standby)
    harness.clock.advance(10.0)
    assert standby.try_elect()
    (recovered,) = standby.recover_orphaned_sweeps(grace_s=0.0)
    _, status, body = recovered
    assert status == 200 and body["status"] == "ok", body
    assert body["restored"] == 2
    assert canonical(body["rows"]) == baselines[42]
    harness.assert_exactly_once_same_seed()


def test_a_failing_job_errors_only_its_own_label(executions):
    cluster = BatchCluster(["w0"])
    broken = {}

    def fail_second_job(number, spec):
        if number == 2:
            broken["label"] = spec.label
            raise RuntimeError("boom")

    executions.hooks.append(fail_second_job)
    status, body = cluster.coordinator.run_sweep(dict(GRIDS[42]))
    assert status == 200
    assert body["status"] == "partial"
    assert body["errors"] == {broken["label"]: "RuntimeError: boom"}
    assert body["completed"] == 41
    assert body["pending_labels"] == []
    (batch,) = [labels for _, labels in cluster.batches
                if broken["label"] in labels]
    assert len(batch) > 1
    snapshot = cluster.workers["w0"].load_snapshot()
    assert (snapshot["completed"], snapshot["failed"]) == (41, 1)


def test_limp_delay_is_in_every_per_job_sample():
    limp_s = 0.02
    cluster = BatchCluster(["w0"])
    cluster.workers["w0"].config.limp_s = limp_s
    samples = []
    observe = cluster.coordinator.membership.observe_run

    def recording(worker_id, seconds):
        samples.append(seconds)
        observe(worker_id, seconds)

    cluster.coordinator.membership.observe_run = recording
    status, body = cluster.coordinator.run_sweep(dict(GRIDS[42]))
    assert status == 200 and body["status"] == "ok", body
    assert max(len(labels) for _, labels in cluster.batches) > 1
    assert len(samples) == 42
    assert min(samples) >= limp_s


def _post(port, path, body, timeout_s=300.0):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout_s)
    try:
        connection.request("POST", path, body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_live_sweep_keeps_one_connection_per_dispatch_thread(baselines):
    """Real sockets: a coordinator and one worker, each on its own
    thread, exactly as ``repro cluster`` and ``repro worker`` run."""
    started = {}
    connections = {"opened": 0, "open": 0}
    lock = threading.Lock()

    def coordinator_ready(coordinator, httpd):
        started["coordinator"] = (coordinator, httpd.server_address[1])

    def worker_ready(worker, httpd):
        finish = httpd.finish_request

        def counted(request, client_address):
            with lock:
                connections["opened"] += 1
                connections["open"] += 1
            try:
                finish(request, client_address)
            finally:
                with lock:
                    connections["open"] -= 1

        httpd.finish_request = counted
        started["worker"] = worker

    threads = [threading.Thread(
        target=run_coordinator, daemon=True,
        args=("127.0.0.1", 0, ClusterConfig(membership=MembershipConfig())),
        kwargs={"install_signals": False, "quiet": True,
                "ready_callback": coordinator_ready})]
    threads[0].start()
    try:
        assert _wait_for(lambda: "coordinator" in started)
        coordinator, port = started["coordinator"]
        threads.append(threading.Thread(
            target=run_worker, daemon=True,
            args=(WorkerConfig(coordinator_url="http://127.0.0.1:%d" % port,
                               worker_id="w0", warm_tier=False),),
            kwargs={"install_signals": False, "quiet": True,
                    "ready_callback": worker_ready}))
        threads[1].start()
        assert _wait_for(lambda: coordinator.membership.routable() == ["w0"])

        status, body = _post(port, "/sweep", GRIDS[42])
        assert status == 200 and body["status"] == "ok", body
        assert canonical(body["rows"]) == baselines[42]
        assert coordinator._counters()["sweep_dispatches"] > 1
        assert connections["opened"] == 1  # one round, one thread
        assert _wait_for(lambda: connections["open"] == 0, timeout_s=10.0)
    finally:
        if "worker" in started:
            started["worker"].drain.request_drain("test over")
        if "coordinator" in started:
            started["coordinator"][0].drain_controller.request_drain(
                "test over")
        for thread in threads:
            thread.join(30.0)
    assert not any(thread.is_alive() for thread in threads)
