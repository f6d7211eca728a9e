"""Unit tests of the worker's high-availability behaviour.

Epoch fencing in ``handle_run``, leader adoption, peer-walking
re-registration, and the capped (overflow-proof) registration backoff.
Coordinator answers are faked by monkeypatching the wire functions.
"""

import pytest

from repro.cluster.protocol import (
    JOB_KIND_SPEC,
    REASON_NOT_LEADER,
    REASON_STALE_EPOCH,
    STATUS_STALE_EPOCH,
    TransportError,
)
from repro.cluster.worker import ClusterWorker, WorkerConfig


def make_worker(**kwargs):
    kwargs.setdefault("coordinator_url", "http://a")
    kwargs.setdefault("worker_id", "w0")
    kwargs.setdefault("warm_tier", False)
    kwargs.setdefault("register_backoff_s", 0.0)
    return ClusterWorker(WorkerConfig(**kwargs))


def spec_body(epoch=0, leader=""):
    body = {
        "kind": JOB_KIND_SPEC,
        "jobs": [{
            "fn": "repro.parallel.runners:run_noop",
            "payload": {},
            "label": "probe",
            "seed": 1,
        }],
    }
    if epoch:
        body["epoch"] = epoch
        body["leader"] = leader
    return body


# -- epoch fencing in the run path -------------------------------------


def test_stale_epoch_dispatch_is_fenced_never_run():
    worker = make_worker()
    worker.epoch = 5
    status, reply = worker.handle_run(spec_body(epoch=3, leader="old"))
    assert status == STATUS_STALE_EPOCH
    assert reply["reason"] == REASON_STALE_EPOCH
    assert reply["epoch"] == 5  # tells the deposed leader what beat it
    assert reply["worker"] == "w0"
    assert worker.load_snapshot()["completed"] == 0
    assert worker.load_snapshot()["failed"] == 0  # fencing is not a job


def test_newer_epoch_is_adopted_with_its_leader():
    worker = make_worker()
    worker.epoch = 1
    worker.leader_id = "a"
    status, reply = worker.handle_run(spec_body(epoch=2, leader="b"))
    assert worker.epoch == 2
    assert worker.leader_id == "b"
    # The job itself ran (or failed) normally — fencing only ever
    # applies to *older* epochs.
    assert status in (200, 500)


def test_epoch_zero_means_ha_disabled_no_fencing():
    worker = make_worker()
    worker.epoch = 5
    status, reply = worker.handle_run(spec_body())
    assert status != STATUS_STALE_EPOCH
    assert worker.epoch == 5


# -- registration backoff (satellite: overflow-proof cap) --------------


def test_register_backoff_is_capped_and_overflow_proof():
    worker = make_worker(register_backoff_s=0.1, register_backoff_cap_s=2.0)
    values = [worker.register_backoff_s(attempt)
              for attempt in (1, 2, 3, 10, 32)]
    assert all(0.0 <= value <= 2.0 for value in values)
    # The unbounded re-registration loop can push the attempt counter
    # arbitrarily high; 2.0 ** attempt must never be evaluated raw.
    for huge in (10 ** 3, 10 ** 6, 10 ** 9):
        assert 0.0 <= worker.register_backoff_s(huge) <= 2.0
    assert worker.register_backoff_s(10 ** 9) == \
        worker.register_backoff_s(32)  # clamped to the same exponent


# -- leader adoption + peer walking ------------------------------------


def test_register_walks_peers_and_adopts_the_answering_leader(monkeypatch):
    worker = make_worker(peers=["http://b", "http://c"])
    calls = []

    def fake_post(url, path, body, timeout_s=5.0):
        calls.append(url)
        assert path == "/cluster/register"
        if url == "http://a":
            raise TransportError("down")
        if url == "http://b":
            return 503, {"status": "rejected",
                         "reason": REASON_NOT_LEADER,
                         "leader_url": "http://c"}
        return 200, {"status": "ok", "epoch": 4, "leader": "c",
                     "heartbeat_interval_s": 1.0}

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    assert worker.register()
    assert calls == ["http://a", "http://b", "http://c"]
    assert worker.coordinator_url == "http://c"
    assert worker.epoch == 4
    assert worker.leader_id == "c"


def test_initial_registration_is_bounded(monkeypatch):
    worker = make_worker(register_retries=3)
    calls = []

    def fake_post(url, path, body, timeout_s=5.0):
        calls.append(url)
        raise TransportError("down")

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    assert worker.register() is False
    assert len(calls) == 3  # one candidate URL, three bounded passes


def test_reregistration_is_unbounded_until_drain(monkeypatch):
    worker = make_worker()
    attempts = {"n": 0}

    def fake_post(url, path, body, timeout_s=5.0):
        attempts["n"] += 1
        if attempts["n"] < 40:  # far beyond the initial retry budget
            raise TransportError("still down")
        return 200, {"status": "ok", "epoch": 2, "leader": "a"}

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    assert worker.reregister()
    assert attempts["n"] == 40
    assert worker.epoch == 2


def test_reregistration_stops_when_the_worker_drains(monkeypatch):
    worker = make_worker()

    def fake_post(url, path, body, timeout_s=5.0):
        worker.drain.request_drain("shutdown mid-retry")
        raise TransportError("down")

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    assert worker.reregister() is False


# -- heartbeats across a failover --------------------------------------


def test_heartbeat_not_leader_answer_triggers_reregistration(monkeypatch):
    worker = make_worker(peers=["http://b"])

    def fake_post(url, path, body, timeout_s=5.0):
        if path == "/cluster/heartbeat":
            assert body["epoch"] == worker.epoch
            return 503, {"status": "rejected",
                         "reason": REASON_NOT_LEADER,
                         "leader_url": "http://b"}
        assert path == "/cluster/register"
        if url == "http://b":
            return 200, {"status": "ok", "epoch": 3, "leader": "b"}
        return 503, {"status": "rejected", "reason": REASON_NOT_LEADER,
                     "leader_url": "http://b"}

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    worker.heartbeat_once()
    assert worker.coordinator_url == "http://b"
    assert worker.epoch == 3 and worker.leader_id == "b"


def test_heartbeat_misses_accumulate_to_the_limit_then_walk(monkeypatch):
    worker = make_worker(peers=["http://b"], heartbeat_miss_limit=3)
    registrations = []

    def fake_post(url, path, body, timeout_s=5.0):
        if path == "/cluster/register":
            registrations.append(url)
            return 200, {"status": "ok", "epoch": 2, "leader": "b"}
        raise TransportError("coordinator gone")

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    worker.heartbeat_once()
    worker.heartbeat_once()
    assert registrations == []  # tolerated: it may just be restarting
    worker.heartbeat_once()  # third consecutive miss: walk the peers
    assert registrations  # re-registered through the peer list
    assert worker.epoch == 2


def test_heartbeat_adopts_epoch_and_reregisters_when_unknown(monkeypatch):
    worker = make_worker()
    registrations = []

    def fake_post(url, path, body, timeout_s=5.0):
        if path == "/cluster/register":
            registrations.append(url)
            return 200, {"status": "ok", "epoch": 6, "leader": "a"}
        return 200, {"status": "unknown", "epoch": 6, "leader": "a",
                     "leader_url": "http://a"}

    monkeypatch.setattr("repro.cluster.worker.post_json", fake_post)
    worker.heartbeat_once()
    assert worker.epoch == 6
    assert registrations == ["http://a"]
