"""Coordinator high availability: leases, epochs, and failover clients.

The HA design (docs/cluster-ha.md) is three small mechanisms that
compose:

* **a lease file** (:class:`LeaseFile`) in a directory shared by the
  coordinator replicas.  The active leader renews it on a short
  interval; a standby that observes it expired (or released by a
  graceful drain) elects itself.  All writes go through
  :func:`repro.ioutil.atomic_write_json` — readers see a complete old
  lease or a complete new one, never a torn file.  When several
  standbys race for an expired lease they first publish *claims* and
  the **lexicographically smallest coordinator id wins** — a
  deterministic tiebreak, so a partitioned pair converges on the same
  verdict without talking to each other;
* **epochs**: every successful election bumps a monotonic epoch
  (``max(journal epoch, lease epoch) + 1``) recorded in both the lease
  and the journal.  Every dispatch and heartbeat carries the sender's
  epoch, and the stale side of any exchange is *fenced* with a
  409 ``stale-epoch`` answer — a deposed leader that still has sockets
  open cannot split the brain, because the workers stop obeying it the
  moment they have seen a newer epoch;
* **peer failover**: workers hold the full coordinator peer list and
  walk it on transport failure or a ``not_leader`` answer
  (:mod:`repro.cluster.worker`), so a failover needs no worker
  reconfiguration.

Wall-clock time (``time.time``) is used for lease expiry on purpose:
leases are compared *across processes*, where monotonic clocks are not
comparable.  The clock is injectable for tests.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ReproError
from repro.ioutil import atomic_write_json

__all__ = [
    "LeaseError",
    "Lease",
    "LeaseFile",
]

LEASE_FILENAME = "lease.json"
_CLAIM_PREFIX = "claim."
_CLAIM_SUFFIX = ".json"


class LeaseError(ReproError):
    """The lease directory cannot be used."""


@dataclass
class Lease:
    """One leadership term as recorded on disk."""

    holder: str
    url: str
    epoch: int
    acquired_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "holder": self.holder,
            "url": self.url,
            "epoch": self.epoch,
            "acquired_at": self.acquired_at,
            "expires_at": self.expires_at,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> Optional["Lease"]:
        try:
            return Lease(
                holder=str(payload["holder"]),
                url=str(payload.get("url") or ""),
                epoch=int(payload["epoch"]),
                acquired_at=float(payload["acquired_at"]),
                expires_at=float(payload["expires_at"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


class LeaseFile:
    """Lease acquisition/renewal against one shared file.

    ``try_acquire`` is the only entry point that can *change the
    holder*; ``renew`` only extends a lease this candidate already
    holds.  Both return the current :class:`Lease` on success and
    ``None`` on failure, never raising for contention.
    """

    def __init__(
        self,
        directory: str,
        holder_id: str,
        url: str = "",
        ttl_s: float = 3.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not holder_id:
            raise LeaseError("a lease candidate needs a holder id")
        if ttl_s <= 0:
            raise LeaseError("lease ttl must be positive")
        self.directory = os.path.abspath(directory)
        self.holder_id = holder_id
        self.url = url
        self.ttl_s = ttl_s
        self.clock = clock
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, LEASE_FILENAME)

    # -- reading ---------------------------------------------------------

    def read(self) -> Optional[Lease]:
        """The current lease, or None when absent/unparseable.

        Unparseable is treated as absent on purpose: every writer uses
        atomic replace, so a bad file means an operator edited it —
        electing a new leader is the safe recovery either way.
        """
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return Lease.from_payload(payload)

    def remaining_s(self) -> Optional[float]:
        lease = self.read()
        if lease is None:
            return None
        return lease.remaining(self.clock())

    # -- acquisition -----------------------------------------------------

    def try_acquire(self, epoch_floor: int = 0) -> Optional[Lease]:
        """Acquire (or renew) the lease; None when another holds it.

        A fresh acquisition bumps the epoch to
        ``max(previous lease epoch, epoch_floor) + 1`` — callers pass
        their journal's tip epoch as the floor so a takeover is always
        ahead of every entry the previous leader wrote.  Contention for
        a free lease resolves through claim files: smallest candidate
        id among the live claims wins, deterministically.
        """
        now = self.clock()
        current = self.read()
        if current is not None and current.holder == self.holder_id:
            return self._write(current.epoch, now)
        if current is not None and current.holder \
                and not current.expired(now):
            return None
        # The lease is free (absent, expired, or released).  Publish a
        # claim, then concede to any smaller claimant racing us.
        self._write_claim(now)
        winner = self._claim_winner(now)
        if winner != self.holder_id:
            return None
        # Re-check the lease after claiming: a racer that already won
        # and wrote the lease must not be overwritten.
        latest = self.read()
        if latest is not None and latest.holder \
                and latest.holder != self.holder_id \
                and not latest.expired(now):
            return None
        previous_epoch = current.epoch if current is not None else 0
        return self._write(max(previous_epoch, epoch_floor) + 1, now)

    def renew(self) -> Optional[Lease]:
        """Extend a held lease; None when it was lost to another."""
        now = self.clock()
        current = self.read()
        if current is None or current.holder != self.holder_id:
            return None
        return self._write(current.epoch, now)

    def release(self) -> None:
        """Hand the lease back (graceful drain): successor elects
        immediately instead of waiting out the TTL."""
        current = self.read()
        if current is None or current.holder != self.holder_id:
            return
        now = self.clock()
        atomic_write_json(self.path, Lease(
            holder="", url="", epoch=current.epoch,
            acquired_at=now, expires_at=now,
        ).to_payload())
        self._clear_claim()

    def _write(self, epoch: int, now: float) -> Lease:
        lease = Lease(
            holder=self.holder_id, url=self.url, epoch=epoch,
            acquired_at=now, expires_at=now + self.ttl_s,
        )
        atomic_write_json(self.path, lease.to_payload())
        # The claim served its purpose: clear it so it cannot outlive
        # this term and block a successor's election after a release.
        self._clear_claim()
        return lease

    # -- claims (deterministic tiebreak) ---------------------------------

    def _claim_path(self, holder_id: str) -> str:
        return os.path.join(
            self.directory, "%s%s%s" % (_CLAIM_PREFIX, holder_id,
                                        _CLAIM_SUFFIX)
        )

    def _write_claim(self, now: float) -> None:
        atomic_write_json(self._claim_path(self.holder_id),
                          {"holder": self.holder_id, "stamp": now})

    def _clear_claim(self) -> None:
        try:
            os.remove(self._claim_path(self.holder_id))
        except OSError:
            pass

    def _claim_winner(self, now: float) -> str:
        """Smallest candidate id among claims younger than one TTL."""
        candidates = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        for name in names:
            if not name.startswith(_CLAIM_PREFIX) \
                    or not name.endswith(_CLAIM_SUFFIX):
                continue
            try:
                with open(os.path.join(self.directory, name),
                          encoding="utf-8") as handle:
                    claim = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(claim, dict):
                continue
            stamp = claim.get("stamp")
            holder = str(claim.get("holder") or "")
            if not holder or not isinstance(stamp, (int, float)):
                continue
            if now - float(stamp) <= self.ttl_s:
                candidates.append(holder)
        return min(candidates) if candidates else self.holder_id
