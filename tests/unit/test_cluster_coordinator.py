"""Unit tests of the coordinator core (repro.cluster.coordinator).

The transport is a fake — no sockets, no worker processes — so the
routing, re-dispatch, and cache-tier machinery is exercised directly.
"""

import threading

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.membership import DEAD, LIMPLOCKED, MembershipConfig
from repro.cluster.protocol import TransportError
from repro.service.api import parse_request
from repro.systems import system_names


def make_request(system="fig1", **extra):
    body = {"system": system, "strategy": "caching"}
    body.update(extra)
    return parse_request(body, known_systems=system_names())


def make_coordinator(transport, **config):
    config.setdefault("backoff_base_s", 0.0)  # no sleeping in unit tests
    return ClusterCoordinator(
        ClusterConfig(membership=MembershipConfig(), **config),
        transport=transport,
    )


def limp(coordinator, slow, fast):
    """Limplock ``slow`` the way the program does: observed run
    latencies far above its peer's, then a membership refresh."""
    for _ in range(coordinator.config.membership.limp_min_samples):
        coordinator.membership.observe_run(fast, 0.01)
        coordinator.membership.observe_run(slow, 1.0)
    coordinator.refresh_membership()


def test_estimate_routes_and_wraps_the_reply():
    seen = []

    def transport(url, path, body, timeout_s):
        seen.append((url, path, body["kind"]))
        return 200, {"status": "ok", "total_energy_j": 1.5}

    coordinator = make_coordinator(transport)
    coordinator.register_worker("w0", "http://a:1")
    pending, coalesced = coordinator.submit(make_request())
    assert not coalesced
    assert pending.status == 200
    assert pending.body["total_energy_j"] == 1.5
    assert pending.body["cluster"]["worker"] == "w0"
    assert pending.body["cluster"]["redispatches"] == 0
    assert pending.body["fingerprint"]
    assert seen == [("http://a:1", "/run", "estimate")]


def test_identical_requests_land_on_the_same_worker():
    targets = []

    def transport(url, path, body, timeout_s):
        targets.append(url)
        return 200, {"status": "ok"}

    coordinator = make_coordinator(transport)
    for worker in ("w0", "w1", "w2"):
        coordinator.register_worker(worker, "http://%s" % worker)
    for _ in range(4):
        coordinator.submit(make_request())
    assert len(set(targets)) == 1  # same fingerprint ⇒ same shard


def test_transport_failure_marks_dead_and_redispatches():
    dead_urls = set()

    def transport(url, path, body, timeout_s):
        if url in dead_urls:
            raise TransportError("connection refused")
        return 200, {"status": "ok"}

    coordinator = make_coordinator(transport)
    coordinator.register_worker("w0", "http://w0")
    coordinator.register_worker("w1", "http://w1")
    primary = coordinator._ring_preference(
        "fingerprint-probe"
    )  # warm call; actual primary found below
    request = make_request()
    # Kill whichever worker owns this request's shard.
    pending, _ = coordinator.submit(request)
    owner = pending.body["cluster"]["worker"]
    dead_urls.add("http://%s" % owner)
    survivor = "w1" if owner == "w0" else "w0"

    pending, _ = coordinator.submit(make_request())
    assert pending.status == 200
    assert pending.body["cluster"]["worker"] == survivor
    assert pending.body["cluster"]["redispatches"] == 1
    assert coordinator.membership.states()[owner] == DEAD
    assert coordinator.membership.get(owner).redispatched_jobs == 1
    assert coordinator._counters()["redispatches"] == 1
    assert primary  # silences the warm-call variable


def test_redispatch_budget_exhaustion_answers_502():
    def transport(url, path, body, timeout_s):
        raise TransportError("everything is down")

    coordinator = make_coordinator(transport, redispatch_budget=2)
    for worker in ("w0", "w1", "w2", "w3"):
        coordinator.register_worker(worker, "http://%s" % worker)
    pending, _ = coordinator.submit(make_request())
    assert pending.status == 502
    assert pending.body["reason"] == "redispatch_budget_exhausted"


def test_no_workers_answers_503():
    coordinator = make_coordinator(lambda *a: (_ for _ in ()).throw(
        AssertionError("must not dispatch")))
    pending, _ = coordinator.submit(make_request())
    assert pending.status == 503
    assert pending.body["reason"] == "no_workers"


def test_worker_error_reply_is_never_redispatched():
    """An HTTP-level error means the job ran; re-running a completed
    computation would be a duplicate, not a retry."""
    calls = []

    def transport(url, path, body, timeout_s):
        calls.append(url)
        return 500, {"status": "error", "reason": "estimation_failed"}

    coordinator = make_coordinator(transport)
    coordinator.register_worker("w0", "http://w0")
    coordinator.register_worker("w1", "http://w1")
    pending, _ = coordinator.submit(make_request())
    assert pending.status == 500
    assert len(calls) == 1
    assert coordinator._counters()["failed"] == 1
    assert coordinator._counters()["redispatches"] == 0


def test_draining_worker_hands_off_without_penalty():
    drained = {"w": None}

    def transport(url, path, body, timeout_s):
        if path == "/decommission":
            return 200, {"status": "draining"}
        if drained["w"] is not None and url == "http://%s" % drained["w"]:
            return 503, {"status": "rejected", "reason": "draining"}
        return 200, {"status": "ok"}

    coordinator = make_coordinator(transport)
    coordinator.register_worker("w0", "http://w0")
    coordinator.register_worker("w1", "http://w1")
    pending, _ = coordinator.submit(make_request())
    owner = pending.body["cluster"]["worker"]
    drained["w"] = owner
    pending, _ = coordinator.submit(make_request())
    assert pending.status == 200
    assert pending.body["cluster"]["worker"] != owner
    assert coordinator.membership.states()[owner] == "decommissioned"
    # A drain is planned, not a failure: no redispatch counted.
    assert coordinator._counters()["redispatches"] == 0


def test_concurrent_identical_requests_coalesce():
    release = threading.Event()
    dispatched = threading.Event()
    calls = []

    def transport(url, path, body, timeout_s):
        calls.append(url)
        dispatched.set()
        assert release.wait(10)
        return 200, {"status": "ok", "total_energy_j": 2.0}

    coordinator = make_coordinator(transport)
    coordinator.register_worker("w0", "http://w0")
    primary_result = {}

    def run_primary():
        pending, coalesced = coordinator.submit(make_request())
        primary_result["pending"] = pending
        primary_result["coalesced"] = coalesced

    thread = threading.Thread(target=run_primary, daemon=True)
    thread.start()
    assert dispatched.wait(10)
    follower, coalesced = coordinator.submit(make_request())
    assert coalesced is True
    release.set()
    thread.join(10)
    assert primary_result["coalesced"] is False
    assert follower is primary_result["pending"]  # same completion handle
    assert follower.wait(10)
    assert follower.body["total_energy_j"] == 2.0
    assert len(calls) == 1  # one dispatch served both clients
    assert coordinator.dedup.snapshot()["coalesced"] == 1


def test_draining_coordinator_rejects_submissions():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    coordinator.register_worker("w0", "http://w0")
    coordinator.drain_controller.request_drain("test")
    with pytest.raises(Exception) as excinfo:
        coordinator.submit(make_request())
    assert getattr(excinfo.value, "status", None) == 503


def test_readyz_reports_membership_states():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    status, body = coordinator.readyz_snapshot()
    assert status == 503 and body["status"] == "no_workers"
    coordinator.register_worker("w0", "http://w0")
    coordinator.register_worker("w1", "http://w1")
    limp(coordinator, "w1", "w0")
    status, body = coordinator.readyz_snapshot()
    assert status == 200 and body["status"] == "ready"
    assert body["routable"] == ["w0"]
    assert body["states"]["live"] == ["w0"]
    assert body["states"]["limplocked"] == ["w1"]
    assert body["workers"]["w1"]["quarantine_reason"].startswith(
        "run latency 1.000s vs peer median 0.010s")
    assert coordinator.membership.states()["w1"] == LIMPLOCKED
    coordinator.drain_controller.request_drain("bye")
    status, body = coordinator.readyz_snapshot()
    assert status == 503 and body["status"] == "draining"


def test_quarantine_transition_counts_and_unroutes():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    coordinator.register_worker("w0", "http://w0")
    coordinator.register_worker("w1", "http://w1")
    assert sorted(coordinator.ring.nodes) == ["w0", "w1"]
    limp(coordinator, "w1", "w0")
    assert coordinator.ring.nodes == ["w0"]  # transition synced the ring
    assert coordinator._counters()["quarantines"] == 1


def make_cache_state(fingerprints, entry_count):
    return {
        "fingerprints": fingerprints,
        "cache": {
            "config": {},
            "entries": [
                {"key": "k%d" % index, "count": 1, "mean_energy": 1.0,
                 "m2_energy": 0.0, "mean_cycles": 10.0, "m2_cycles": 0.0}
                for index in range(entry_count)
            ],
        },
    }


def test_cache_tier_put_get_roundtrip():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    status, body = coordinator.cache_get("builder/caching")
    assert status == 200 and body["state"] is None
    state = make_cache_state({"cfsm": "abc"}, 3)
    status, body = coordinator.cache_put(
        {"key": "builder/caching", "state": state, "worker": "w0"}
    )
    assert status == 200 and body["adopted"] is True
    assert body["entries"] == 3
    status, body = coordinator.cache_get("builder/caching")
    assert body["state"]["fingerprints"] == {"cfsm": "abc"}
    assert len(body["state"]["cache"]["entries"]) == 3


def test_cache_tier_keeps_the_more_converged_snapshot():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    coordinator.cache_put({"key": "k", "worker": "w0",
                           "state": make_cache_state({"f": "1"}, 5)})
    # Fewer entries under the same fingerprints: rejected.
    status, body = coordinator.cache_put(
        {"key": "k", "worker": "w1",
         "state": make_cache_state({"f": "1"}, 2)})
    assert body["adopted"] is False
    # Different fingerprints (the design changed): newest wins even
    # with fewer entries — stale convergence is worthless.
    status, body = coordinator.cache_put(
        {"key": "k", "worker": "w1",
         "state": make_cache_state({"f": "2"}, 1)})
    assert body["adopted"] is True
    _, body = coordinator.cache_get("k")
    assert body["state"]["fingerprints"] == {"f": "2"}


def test_cache_tier_rejects_malformed_state():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    status, _ = coordinator.cache_put({"key": "", "state": {}})
    assert status == 400
    status, _ = coordinator.cache_put({"key": "k", "state": {"cache": {}}})
    assert status == 400


def test_sweep_rejects_bad_parameters():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    for params in (
        {"dma": []},
        {"dma": [0]},
        {"dma": "2"},
        {"packets": 0},
        {"period_ns": -1},
        {"strategy": "warp"},
        {"warm_start": "yes"},
        {"resume": True},  # resume without checkpoint
        {"checkpoint": 7},
    ):
        status, body = coordinator.run_sweep(params)
        assert status == 400, params
        assert body["status"] == "error"


def test_stats_snapshot_shape():
    coordinator = make_coordinator(lambda *a: (200, {"status": "ok"}))
    coordinator.register_worker("w0", "http://w0")
    coordinator.submit(make_request())
    stats = coordinator.stats_snapshot()
    assert stats["cluster"]["completed"] == 1
    assert stats["cluster"]["state"] == "ready"
    assert stats["cluster"]["workers_by_state"]["live"] == 1
    assert "w0" in stats["workers"]
    assert stats["dedup"]["primaries"] == 1
    exposition = coordinator.metrics_exposition()
    assert 'repro_cluster_workers{state="live"} 1' in exposition
    assert "repro_cluster_heartbeat_age_seconds" in exposition
