"""The control-plane journal: the coordinator's durable memory.

PR 7 made the *data plane* survive failures — worker deaths re-dispatch,
shards hand off through checkpoints — but everything the coordinator
*knows* (membership, the shared §4.2 warm-cache tier, which sweeps are
in flight) lived only in its heap.  This module writes that knowledge
down as an append-only journal so a standby coordinator can replay it
and take over (:mod:`repro.cluster.ha`).

Layout: a journal is a directory of numbered segment files
(``segment-00000001.jsonl`` …), each holding newline-delimited JSON
entries.  Durability is two-tier:

* **the active tail** is appended in place — one line per entry,
  flushed and fsync'd before :meth:`ControlPlaneJournal.append`
  returns, so an acknowledged entry survives a crash.  A crash *during*
  the write can leave a torn final line; every entry therefore carries
  a CRC over its canonical body, and replay **discards** a checksummed-
  bad tail in the final segment instead of crashing (the entry was
  never acknowledged, so dropping it is correct).  A bad entry in the
  *middle* of the journal is real corruption and raises
  :class:`JournalError`;
* **sealed segments** are rewritten wholesale through
  :func:`repro.ioutil.atomic_write_text` (same-directory temp file,
  fsync, atomic rename, parent-directory fsync) when the tail rolls
  over, so every closed segment is a canonical, atomically-replaced
  artifact.

Entries are monotonically sequence-numbered and carry the **epoch** of
the leader that wrote them; a replicated entry (a standby tailing its
leader) keeps the original numbering via :meth:`append_replicated`.
Replay folds the entries into :class:`ControlPlaneState`, the
deterministic state machine both takeover and the standby's shadow view
use.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.ioutil import atomic_write_text, fsync_directory

__all__ = [
    "JournalError",
    "JournalEntry",
    "ControlPlaneJournal",
    "ControlPlaneState",
    "KIND_LEADER_ELECTED",
    "KIND_LEADER_RESIGNED",
    "KIND_WORKER_REGISTERED",
    "KIND_WORKER_STATE",
    "KIND_CACHE_ADOPTED",
    "KIND_SWEEP_STARTED",
    "KIND_SWEEP_COMPLETED",
]

#: Entry kinds — the control-plane transitions worth surviving a
#: coordinator death.  Estimates are deliberately absent: they are
#: synchronous, idempotent by fingerprint, and the failover client
#: simply re-submits them to the new leader.
KIND_LEADER_ELECTED = "leader-elected"
KIND_LEADER_RESIGNED = "leader-resigned"
KIND_WORKER_REGISTERED = "worker-registered"
KIND_WORKER_STATE = "worker-state"
KIND_CACHE_ADOPTED = "cache-adopted"
KIND_SWEEP_STARTED = "sweep-started"
KIND_SWEEP_COMPLETED = "sweep-completed"

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


class JournalError(ReproError):
    """The journal directory holds corrupt non-tail data."""


@dataclass
class JournalEntry:
    """One acknowledged control-plane transition."""

    seq: int
    epoch: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def body(self) -> Dict[str, Any]:
        return {"seq": self.seq, "epoch": self.epoch, "kind": self.kind,
                "payload": self.payload}

    def to_wire(self) -> Dict[str, Any]:
        """The checksummed line/HTTP form of this entry."""
        body = self.body()
        return dict(body, crc=_crc(body))

    @staticmethod
    def from_wire(document: Dict[str, Any]) -> "JournalEntry":
        """Parse + verify one wire/line document.

        Raises :class:`JournalError` on shape or checksum mismatch —
        callers decide whether that means "torn tail, discard" or
        "mid-journal corruption, refuse to run".
        """
        if not isinstance(document, dict):
            raise JournalError("journal entry is not an object")
        try:
            entry = JournalEntry(
                seq=int(document["seq"]),
                epoch=int(document["epoch"]),
                kind=str(document["kind"]),
                payload=dict(document.get("payload") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError("malformed journal entry: %s" % exc) from exc
        expected = _crc(entry.body())
        if document.get("crc") != expected:
            raise JournalError(
                "journal entry seq=%s fails its checksum "
                "(crc %r, expected %r)"
                % (document.get("seq"), document.get("crc"), expected)
            )
        return entry


def _crc(body: Dict[str, Any]) -> str:
    """CRC32 (hex) over the canonical JSON of an entry body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "%08x" % zlib.crc32(canonical.encode("utf-8"))


def _entry_line(entry: JournalEntry) -> str:
    return json.dumps(entry.to_wire(), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _segment_name(index: int) -> str:
    return "%s%08d%s" % (_SEGMENT_PREFIX, index, _SEGMENT_SUFFIX)


class ControlPlaneJournal:
    """Append-only, fsync'd, segmented journal in one directory.

    Thread-safe: the coordinator appends from HTTP handler threads, the
    HA loop reads tails concurrently.  All appends are durable before
    they return; see the module docstring for the crash contract.
    """

    def __init__(self, directory: str,
                 segment_entries: int = 256) -> None:
        if segment_entries < 1:
            raise ValueError("segment_entries must be >= 1")
        self.directory = os.path.abspath(directory)
        self.segment_entries = segment_entries
        self._lock = threading.RLock()
        self._entries: List[JournalEntry] = []
        self._discarded_tail = 0
        os.makedirs(self.directory, exist_ok=True)
        self._segments = self._segment_indices()
        self._load()
        self._active_index = (self._segments[-1] if self._segments else 1)
        # Replay trimmed a torn tail: rewrite the final segment so the
        # torn bytes never shadow a future append with the same seq.
        if self._discarded_tail:
            self._rewrite_segment(self._active_index)

    # -- reading ---------------------------------------------------------

    def _segment_indices(self) -> List[int]:
        indices = []
        for name in os.listdir(self.directory):
            if name.startswith(_SEGMENT_PREFIX) \
                    and name.endswith(_SEGMENT_SUFFIX):
                digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
                if digits.isdigit():
                    indices.append(int(digits))
        return sorted(indices)

    def _load(self) -> None:
        """Replay every segment; discard a checksummed-bad final tail."""
        for position, index in enumerate(self._segments):
            final_segment = position == len(self._segments) - 1
            path = os.path.join(self.directory, _segment_name(index))
            try:
                with open(path, encoding="utf-8") as handle:
                    lines = handle.readlines()
            except OSError as exc:
                raise JournalError(
                    "journal segment %r is unreadable: %s" % (path, exc)
                ) from exc
            for line_number, line in enumerate(lines):
                try:
                    document = json.loads(line)
                    entry = JournalEntry.from_wire(document)
                except (ValueError, JournalError) as exc:
                    if final_segment:
                        # A torn tail from a crash mid-append: the
                        # entry was never acknowledged.  Discard it and
                        # anything after it.
                        self._discarded_tail = len(lines) - line_number
                        return
                    raise JournalError(
                        "segment %r line %d is corrupt mid-journal: %s"
                        % (path, line_number + 1, exc)
                    ) from exc
                if self._entries and entry.seq != self._entries[-1].seq + 1:
                    raise JournalError(
                        "segment %r line %d breaks the sequence "
                        "(seq %d after %d)"
                        % (path, line_number + 1, entry.seq,
                           self._entries[-1].seq)
                    )
                self._entries.append(entry)

    def _segment_of(self, seq: int) -> int:
        """The segment index entry ``seq`` belongs to (1-based)."""
        return (seq - 1) // self.segment_entries + 1

    # -- appending -------------------------------------------------------

    def append(self, kind: str, payload: Optional[Dict[str, Any]] = None,
               epoch: int = 0) -> JournalEntry:
        """Durably append one new entry; returns it with its seq."""
        with self._lock:
            entry = JournalEntry(
                seq=self.tip_seq() + 1, epoch=epoch, kind=kind,
                payload=dict(payload or {}),
            )
            self._append_locked(entry)
            return entry

    def append_replicated(self, document: Dict[str, Any]) -> bool:
        """Append one tailed wire entry, preserving its numbering.

        Returns False (and appends nothing) for entries at or behind
        the local tip — tailing is idempotent.  Raises
        :class:`JournalError` on checksum failure or a sequence gap:
        a standby must never hold a journal with holes.
        """
        entry = JournalEntry.from_wire(document)
        with self._lock:
            tip = self.tip_seq()
            if entry.seq <= tip:
                return False
            if entry.seq != tip + 1:
                raise JournalError(
                    "replicated entry seq %d leaves a gap after %d"
                    % (entry.seq, tip)
                )
            self._append_locked(entry)
            return True

    def _append_locked(self, entry: JournalEntry) -> None:
        index = self._segment_of(entry.seq)
        if index != self._active_index:
            # Roll over: seal the finished segment through the atomic
            # rewrite (canonical bytes, atomic rename, parent fsync).
            self._rewrite_segment(self._active_index)
            self._active_index = index
        path = os.path.join(self.directory, _segment_name(index))
        created = not os.path.exists(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_entry_line(entry))
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            fsync_directory(self.directory)
            if index not in self._segments:
                self._segments.append(index)
        self._entries.append(entry)

    def _rewrite_segment(self, index: int) -> None:
        """Atomically rewrite one segment from the in-memory entries."""
        if index not in self._segments and not any(
                self._segment_of(entry.seq) == index
                for entry in self._entries):
            return
        lines = "".join(
            _entry_line(entry) for entry in self._entries
            if self._segment_of(entry.seq) == index
        )
        atomic_write_text(
            os.path.join(self.directory, _segment_name(index)), lines
        )
        if index not in self._segments:
            self._segments.append(index)

    # -- views -----------------------------------------------------------

    def tip_seq(self) -> int:
        with self._lock:
            return self._entries[-1].seq if self._entries else 0

    def tip_epoch(self) -> int:
        """The highest epoch any entry was written under."""
        with self._lock:
            return max((entry.epoch for entry in self._entries), default=0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def discarded_tail_entries(self) -> int:
        """Torn tail lines dropped by the last replay (postmortem info)."""
        return self._discarded_tail

    def entries(self) -> List[JournalEntry]:
        with self._lock:
            return list(self._entries)

    def entries_since(self, seq: int) -> List[JournalEntry]:
        """Entries with ``entry.seq > seq`` (the standby tail query)."""
        with self._lock:
            return [entry for entry in self._entries if entry.seq > seq]

    def replay(self) -> "ControlPlaneState":
        """Fold the whole journal into a fresh control-plane state."""
        state = ControlPlaneState()
        for entry in self.entries():
            state.apply(entry)
        return state


class ControlPlaneState:
    """Deterministic fold over journal entries.

    This is what a successor knows after replay: cluster membership
    (worker ids, URLs, last durable state), the warm-cache tier, the
    leadership history, and which sweeps were in flight when the
    previous leader died (``sweep-started`` without a matching
    ``sweep-completed``).
    """

    def __init__(self) -> None:
        self.epoch = 0
        self.leader_id = ""
        self.leaders: List[Tuple[int, str]] = []
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.cache_tier: Dict[str, Dict[str, Any]] = {}
        self.sweeps: Dict[str, Dict[str, Any]] = {}
        self.applied = 0

    def apply(self, entry: JournalEntry) -> None:
        self.applied += 1
        self.epoch = max(self.epoch, entry.epoch)
        payload = entry.payload
        if entry.kind == KIND_LEADER_ELECTED:
            self.leader_id = str(payload.get("coordinator_id") or "")
            self.leaders.append((entry.epoch, self.leader_id))
        elif entry.kind == KIND_LEADER_RESIGNED:
            if self.leader_id == payload.get("coordinator_id"):
                self.leader_id = ""
        elif entry.kind == KIND_WORKER_REGISTERED:
            worker_id = str(payload.get("worker_id") or "")
            if worker_id:
                self.workers[worker_id] = {
                    "url": str(payload.get("url") or ""),
                    "state": "live",
                }
        elif entry.kind == KIND_WORKER_STATE:
            worker_id = str(payload.get("worker_id") or "")
            if worker_id in self.workers:
                self.workers[worker_id]["state"] = str(
                    payload.get("state") or ""
                )
        elif entry.kind == KIND_CACHE_ADOPTED:
            key = str(payload.get("key") or "")
            state = payload.get("state")
            if key and isinstance(state, dict):
                self.cache_tier[key] = {
                    "state": state,
                    "entries": int(payload.get("entries") or 0),
                    "worker": str(payload.get("worker") or ""),
                    "updates": int(payload.get("updates") or 1),
                }
        elif entry.kind == KIND_SWEEP_STARTED:
            sweep_id = str(payload.get("sweep_id") or "")
            if sweep_id:
                self.sweeps[sweep_id] = {
                    "params": dict(payload.get("params") or {}),
                    "done": False,
                    "epoch": entry.epoch,
                }
        elif entry.kind == KIND_SWEEP_COMPLETED:
            sweep_id = str(payload.get("sweep_id") or "")
            if sweep_id in self.sweeps:
                self.sweeps[sweep_id]["done"] = True
        # Unknown kinds are skipped, not fatal: an older standby may
        # replay a newer leader's journal during a rolling upgrade.

    def orphaned_sweeps(self) -> Dict[str, Dict[str, Any]]:
        """Sweeps started but never completed — the takeover work list."""
        return {sweep_id: info for sweep_id, info in self.sweeps.items()
                if not info["done"]}

    def previous_leaders(self, coordinator_id: str) -> List[str]:
        """Distinct prior leader ids other than ``coordinator_id``."""
        seen: List[str] = []
        for _, leader in self.leaders:
            if leader and leader != coordinator_id and leader not in seen:
                seen.append(leader)
        return seen


def entries_to_wire(entries: Iterable[JournalEntry]) -> List[Dict[str, Any]]:
    """Wire (checksummed) form of ``entries`` for the tail endpoint."""
    return [entry.to_wire() for entry in entries]
