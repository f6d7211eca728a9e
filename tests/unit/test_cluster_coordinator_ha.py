"""Unit tests of the coordinator's high-availability layer.

Roles, election, journal replication, epoch fencing, and the HA
observability surface — all against fake transports and a fake wall
clock (the lease never waits out a real TTL here).
"""

import pytest

from repro.cluster.coordinator import (
    ROLE_FENCED,
    ROLE_LEADER,
    ROLE_STANDBY,
    ClusterConfig,
    ClusterCoordinator,
)
from repro.cluster.journal import (
    KIND_LEADER_ELECTED,
    KIND_LEADER_RESIGNED,
    KIND_SWEEP_STARTED,
    KIND_WORKER_REGISTERED,
)
from repro.cluster.membership import DEAD, LIVE, MembershipConfig
from repro.cluster.protocol import (
    REASON_NOT_LEADER,
    REASON_STALE_EPOCH,
    STATUS_STALE_EPOCH,
)
from repro.obs.prometheus import validate_exposition
from repro.service.api import parse_request
from repro.systems import system_names


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def ok_transport(url, path, body, timeout_s):
    return 200, {"status": "ok", "total_energy_j": 1.0}


def make_request():
    return parse_request({"system": "fig1", "strategy": "caching"},
                         known_systems=system_names())


def make_ha_coordinator(tmp_path, coordinator_id, clock,
                        transport=ok_transport, **config):
    config.setdefault("backoff_base_s", 0.0)
    config.setdefault("orphan_grace_s", 0.0)
    config.setdefault("recover_orphan_sweeps", False)
    return ClusterCoordinator(
        ClusterConfig(
            membership=MembershipConfig(),
            coordinator_id=coordinator_id,
            control_dir=str(tmp_path / "control"),
            **config,
        ),
        transport=transport,
        wall_clock=clock,
    )


def replicate(source, replica):
    """One standby tail step, without HTTP: feed the wire entries."""
    status, body = source.journal_entries_since(replica.journal.tip_seq())
    assert status == 200
    return replica.apply_replicated(body["entries"])


# -- roles -------------------------------------------------------------


def test_control_dir_boots_as_standby_and_rejects_the_data_plane(tmp_path):
    coordinator = make_ha_coordinator(tmp_path, "a", FakeClock())
    assert coordinator.ha_enabled
    assert coordinator.role == ROLE_STANDBY
    assert not coordinator.is_leader

    with pytest.raises(Exception) as excinfo:
        coordinator.submit(make_request())
    assert getattr(excinfo.value, "status", None) == 503
    assert getattr(excinfo.value, "reason", None) == REASON_NOT_LEADER

    status, body = coordinator.run_sweep({"dma": [2], "packets": 1})
    assert status == 503 and body["reason"] == REASON_NOT_LEADER
    status, body = coordinator.register_worker("w0", "http://w0")
    assert status == 503 and body["reason"] == REASON_NOT_LEADER
    status, body = coordinator.heartbeat({"worker_id": "w0"})
    assert status == 503 and body["reason"] == REASON_NOT_LEADER
    status, body = coordinator.readyz_snapshot()
    assert status == 503 and body["status"] == ROLE_STANDBY
    assert body["reason"] == REASON_NOT_LEADER


def test_lease_ttl_must_exceed_the_renew_interval():
    for ttl in (0.5, 1.0):
        with pytest.raises(ValueError, match="--lease-ttl-s"):
            ClusterConfig(lease_ttl_s=ttl)
    assert ClusterConfig(lease_ttl_s=1.5).lease_ttl_s == 1.5


def test_without_control_dir_ha_is_inert(tmp_path):
    coordinator = ClusterCoordinator(
        ClusterConfig(membership=MembershipConfig(), backoff_base_s=0.0),
        transport=ok_transport,
    )
    assert not coordinator.ha_enabled
    assert coordinator.is_leader  # single-coordinator mode leads always
    assert coordinator.ha_snapshot() == {"enabled": False}
    status, body = coordinator.journal_entries_since(0)
    assert status == 404 and body["reason"] == "ha_disabled"


def test_election_claims_the_lease_and_journals_the_term(tmp_path):
    clock = FakeClock()
    coordinator = make_ha_coordinator(tmp_path, "a", clock)
    coordinator.set_url("http://a")
    assert coordinator.try_elect()
    assert coordinator.role == ROLE_LEADER
    assert coordinator.epoch == 1
    assert coordinator.try_elect() is False  # already leading

    status, body = coordinator.register_worker("w0", "http://w0")
    assert status == 200
    assert body["epoch"] == 1 and body["leader"] == "a"

    kinds = [entry.kind for entry in coordinator.journal.entries()]
    assert kinds == [KIND_LEADER_ELECTED, KIND_WORKER_REGISTERED]
    elected = coordinator.journal.entries()[0]
    assert elected.payload["coordinator_id"] == "a"
    assert elected.payload["takeover"] is False
    assert elected.epoch == 1


# -- replication + takeover --------------------------------------------


def make_cache_state(fingerprints, entry_count):
    return {
        "cache": {"entries": [{"n": i} for i in range(entry_count)],
                  "capacity": 64},
        "fingerprints": dict(fingerprints),
    }


def test_takeover_replays_membership_cache_and_orphans(tmp_path):
    clock = FakeClock()
    active = make_ha_coordinator(tmp_path, "a", clock)
    active.set_url("http://a")
    assert active.try_elect()
    active.register_worker("w0", "http://w0")
    active.register_worker("w1", "http://w1")
    active.membership.mark_dead("w1", "lost")
    status, body = active.cache_put({
        "key": "builder/caching", "worker": "w0",
        "state": make_cache_state({"model": "1"}, 3),
    })
    assert status == 200 and body["adopted"]
    # A sweep the dying leader started but never completed.
    active.journal.append(KIND_SWEEP_STARTED, {
        "sweep_id": "feedbeefcafe",
        "params": {"dma": [2], "packets": 1, "period_ns": 30000.0,
                   "strategy": "caching", "warm_start": False,
                   "checkpoint": None},
    }, epoch=active.epoch)

    standby = make_ha_coordinator(tmp_path, "b", clock)
    standby.set_url("http://b")
    assert replicate(active, standby) == len(active.journal)
    assert replicate(active, standby) == 0  # idempotent tail

    clock.advance(10.0)  # the active dies: its lease expires
    assert standby.try_elect()
    assert standby.role == ROLE_LEADER
    assert standby.epoch == 2  # strictly above every journaled epoch

    # Membership, the warm tier, and the orphan list all survived.
    assert standby.membership.states()["w0"] == LIVE
    assert standby.membership.url_of("w0") == "http://w0"
    assert standby.membership.states()["w1"] == DEAD
    status, reply = standby.cache_get("builder/caching")
    assert reply["state"] is not None
    assert len(reply["state"]["cache"]["entries"]) == 3

    snapshot = standby.ha_snapshot()
    assert snapshot["role"] == ROLE_LEADER
    assert snapshot["leader"] == "b"
    assert snapshot["failovers"] == 1
    assert snapshot["orphaned_sweeps"] == ["feedbeefcafe"]
    assert snapshot["last_replay_s"] >= 0.0

    elected = standby.journal.entries()[-1]
    assert elected.kind == KIND_LEADER_ELECTED
    assert elected.payload["takeover"] is True
    assert elected.epoch == 2


def test_recovery_skips_sweeps_a_client_already_resubmitted(tmp_path):
    clock = FakeClock()
    active = make_ha_coordinator(tmp_path, "a", clock)
    assert active.try_elect()
    active.journal.append(KIND_SWEEP_STARTED, {
        "sweep_id": "abc123abc123", "params": {"dma": [2]},
    }, epoch=1)
    standby = make_ha_coordinator(tmp_path, "b", clock)
    replicate(active, standby)
    clock.advance(10.0)
    assert standby.try_elect()
    assert standby.ha_snapshot()["orphaned_sweeps"] == ["abc123abc123"]
    # The failover client resubmitted (and finished) it first.
    standby._completed_sweeps.add("abc123abc123")
    assert standby.recover_orphaned_sweeps(grace_s=0.0) == []


# -- epoch fencing -----------------------------------------------------


def test_heartbeat_with_a_newer_epoch_fences_the_leader(tmp_path):
    clock = FakeClock()
    coordinator = make_ha_coordinator(tmp_path, "a", clock)
    assert coordinator.try_elect()
    coordinator.register_worker("w0", "http://w0")
    status, body = coordinator.heartbeat({"worker_id": "w0", "epoch": 9})
    assert status == STATUS_STALE_EPOCH
    assert body["reason"] == REASON_STALE_EPOCH
    assert coordinator.role == ROLE_FENCED
    assert coordinator.ha_snapshot()["stale_epoch_rejections"] == 1
    # Fenced means out of the data plane entirely.
    status, body = coordinator.run_sweep({"dma": [2], "packets": 1})
    assert status == 503 and body["reason"] == REASON_NOT_LEADER


def test_worker_409_fences_the_estimate_path(tmp_path):
    def fencing_transport(url, path, body, timeout_s):
        return STATUS_STALE_EPOCH, {
            "status": "error", "reason": REASON_STALE_EPOCH, "epoch": 5,
        }

    clock = FakeClock()
    coordinator = make_ha_coordinator(tmp_path, "a", clock,
                                      transport=fencing_transport)
    assert coordinator.try_elect()
    coordinator.register_worker("w0", "http://w0")
    pending, coalesced = coordinator.submit(make_request())
    assert not coalesced
    assert pending.status == 503
    assert pending.body["reason"] == REASON_NOT_LEADER
    assert coordinator.role == ROLE_FENCED


def test_plain_epochs_do_not_fence_the_leader(tmp_path):
    clock = FakeClock()
    coordinator = make_ha_coordinator(tmp_path, "a", clock)
    assert coordinator.try_elect()
    coordinator.register_worker("w0", "http://w0")
    status, body = coordinator.heartbeat({"worker_id": "w0", "epoch": 1})
    assert status == 200
    assert body["epoch"] == 1 and body["leader"] == "a"
    assert coordinator.role == ROLE_LEADER


# -- resignation -------------------------------------------------------


def test_drain_resigns_releases_the_lease_for_the_successor(tmp_path):
    clock = FakeClock()
    active = make_ha_coordinator(tmp_path, "a", clock)
    assert active.try_elect()
    standby = make_ha_coordinator(tmp_path, "b", clock)
    replicate(active, standby)

    active.drain_controller.request_drain("rollout")
    resigned = active.journal.entries()[-1]
    assert resigned.kind == KIND_LEADER_RESIGNED
    assert resigned.payload["reason"] == "rollout"
    lease = active.lease.read()
    assert lease is not None and lease.holder == ""

    # No TTL wait: the successor elects immediately after the release.
    assert standby.try_elect()
    assert standby.epoch == 2


# -- observability -----------------------------------------------------


def test_ha_sections_and_metrics_expose_the_takeover(tmp_path):
    clock = FakeClock()
    active = make_ha_coordinator(tmp_path, "a", clock)
    active.set_url("http://a")
    assert active.try_elect()
    active.register_worker("w0", "http://w0")
    standby = make_ha_coordinator(tmp_path, "b", clock)
    standby.set_url("http://b")
    replicate(active, standby)
    clock.advance(10.0)
    assert standby.try_elect()

    stats = standby.stats_snapshot()
    ha = stats["ha"]
    assert ha["enabled"] and ha["epoch"] == 2 and ha["failovers"] == 1
    status, readyz = standby.readyz_snapshot()
    assert readyz["ha"]["role"] == ROLE_LEADER

    exposition = standby.metrics_exposition()
    assert validate_exposition(exposition) == [], exposition
    assert "repro_cluster_epoch 2" in exposition
    assert "repro_cluster_failovers_total 1" in exposition
    assert "repro_cluster_journal_entries" in exposition
    assert "repro_cluster_lease_remaining_seconds" in exposition
    assert "repro_cluster_takeover_replay_seconds" in exposition


def test_stale_epoch_counter_reaches_the_exposition(tmp_path):
    clock = FakeClock()
    coordinator = make_ha_coordinator(tmp_path, "a", clock)
    assert coordinator.try_elect()
    coordinator.register_worker("w0", "http://w0")
    coordinator.heartbeat({"worker_id": "w0", "epoch": 9})
    exposition = coordinator.metrics_exposition()
    assert validate_exposition(exposition) == [], exposition
    assert "repro_cluster_stale_epoch_rejections_total 1" in exposition
