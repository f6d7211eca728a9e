"""Unit tests of leases (repro.cluster.ha).

All time flows through an injected fake wall clock, so lease expiry,
renewal, and the claim tiebreak are exercised deterministically.
"""

import pytest

from repro.cluster.ha import Lease, LeaseFile


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def lease_file(tmp_path, holder, clock, **kwargs):
    kwargs.setdefault("ttl_s", 3.0)
    return LeaseFile(str(tmp_path), holder, clock=clock, **kwargs)


# -- leases ------------------------------------------------------------


def test_acquire_renew_and_block_other_candidates(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock, url="http://a")
    beta = lease_file(tmp_path, "beta", clock)

    lease = alpha.try_acquire()
    assert lease is not None
    assert lease.holder == "alpha" and lease.epoch == 1
    assert lease.url == "http://a"
    assert lease.remaining(clock()) == pytest.approx(3.0)

    # A valid lease blocks everyone else, and renewal keeps it valid.
    clock.advance(2.0)
    assert beta.try_acquire() is None
    renewed = alpha.renew()
    assert renewed is not None and renewed.epoch == 1
    clock.advance(2.0)  # 4s after acquire, 2s after renew: still valid
    assert beta.try_acquire() is None


def test_expired_lease_is_taken_over_with_a_higher_epoch(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock)
    beta = lease_file(tmp_path, "beta", clock)
    assert alpha.try_acquire().epoch == 1
    clock.advance(3.5)  # past the TTL: alpha stopped renewing
    taken = beta.try_acquire()
    assert taken is not None
    assert taken.holder == "beta" and taken.epoch == 2
    # The deposed holder can no longer renew.
    assert alpha.renew() is None


def test_epoch_floor_keeps_takeovers_ahead_of_the_journal(tmp_path):
    clock = FakeClock()
    beta = lease_file(tmp_path, "beta", clock)
    taken = beta.try_acquire(epoch_floor=7)
    assert taken is not None and taken.epoch == 8


def test_release_lets_the_successor_elect_immediately(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock)
    beta = lease_file(tmp_path, "beta", clock)
    assert alpha.try_acquire() is not None
    alpha.release()
    # No TTL wait: the released lease is immediately free.
    taken = beta.try_acquire()
    assert taken is not None
    assert taken.holder == "beta" and taken.epoch == 2


def test_claim_tiebreak_smallest_id_wins_deterministically(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock)
    beta = lease_file(tmp_path, "beta", clock)
    # Both race for the free lease: alpha has already published its
    # claim when beta decides.  beta concedes to the smaller id.
    alpha._write_claim(clock())
    assert beta.try_acquire() is None
    won = alpha.try_acquire()
    assert won is not None and won.holder == "alpha"


def test_claims_expire_after_one_ttl(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock)
    beta = lease_file(tmp_path, "beta", clock)
    alpha._write_claim(clock())
    clock.advance(3.5)  # the stale claim no longer counts
    won = beta.try_acquire()
    assert won is not None and won.holder == "beta"


def test_unparseable_lease_reads_as_absent(tmp_path):
    clock = FakeClock()
    alpha = lease_file(tmp_path, "alpha", clock)
    with open(alpha.path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert alpha.read() is None
    assert alpha.try_acquire() is not None  # safe recovery: elect


def test_lease_payload_round_trip():
    lease = Lease(holder="a", url="http://a", epoch=3,
                  acquired_at=10.0, expires_at=13.0)
    assert Lease.from_payload(lease.to_payload()) == lease
    assert Lease.from_payload({"holder": "a"}) is None
