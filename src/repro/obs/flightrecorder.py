"""Postmortem flight recorder: a bounded ring of recent events.

Logs tell you what you chose to log at the verbosity you chose before
the incident; the flight recorder keeps the *last N events at full
detail* regardless of log level, in memory, at ring-buffer cost.  When
something goes wrong — a deadline expiry, a 5xx, an injected fault, a
drain — the service dumps the ring atomically to disk and the
postmortem starts from the actual event sequence instead of a
reconstruction.

Design constraints:

* **Bounded.**  A ``deque(maxlen=capacity)``; recording is O(1) and the
  recorder can never grow without limit, no matter the request rate.
  Overwritten events are counted (``dropped``) so a dump is honest
  about what it no longer holds.
* **Atomic dumps.**  Dumps go through
  :func:`repro.ioutil.atomic_write_json` — a crash mid-dump leaves the
  previous dump intact, never a half-written one.  Old dumps are pruned
  to the newest ``keep`` so an incident storm cannot fill the disk.
* **Trace-correlated.**  Every recorded event automatically carries the
  bound :class:`~repro.obs.context.RequestContext`'s fields, so a dump
  slices cleanly by ``trace_id``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List

from repro.ioutil import atomic_write_json
from repro.obs.context import current_context

__all__ = ["FlightRecorder", "DUMP_PREFIX"]

#: Dump filenames: ``flightrecorder-<reason>-<seq>.json``.
DUMP_PREFIX = "flightrecorder-"


def _sanitize_reason(reason: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in reason
    )
    return cleaned or "unknown"


class FlightRecorder:
    """Thread-safe bounded event ring with atomic postmortem dumps."""

    def __init__(
        self,
        capacity: int = 256,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self.recorded = 0
        self.dropped = 0
        self.dumps = 0

    def record(self, event: str, **fields: Any) -> None:
        """Append one event; correlation fields join automatically."""
        entry: Dict[str, Any] = {"event": event, "ts": self._clock()}
        context = current_context()
        if context is not None:
            for key, value in context.trace_args().items():
                entry.setdefault(key, value)
        for key, value in fields.items():
            entry.setdefault(key, value)
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(entry)
            self.recorded += 1

    def events(self) -> List[Dict[str, Any]]:
        """Copy of the ring, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._events]

    def snapshot(self) -> Dict[str, Any]:
        """The ``/debug/flightrecorder`` document."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "dumps": self.dumps,
                "events": [dict(entry) for entry in self._events],
            }

    def dump(self, directory: str, reason: str, keep: int = 8) -> str:
        """Atomically write the ring to ``directory``; returns the path.

        The dump is a self-describing JSON document (reason, counters,
        events oldest-first).  After writing, older dumps beyond the
        newest ``keep`` are deleted so incident storms stay disk-bounded.
        """
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            self.dumps += 1
            sequence = self.dumps
            document = {
                "reason": reason,
                "dumped_at": self._clock(),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "events": [dict(entry) for entry in self._events],
            }
        filename = "%s%s-%06d.json" % (
            DUMP_PREFIX, _sanitize_reason(reason), sequence
        )
        path = os.path.join(directory, filename)
        atomic_write_json(path, document)
        self._prune(directory, keep)
        return path

    @staticmethod
    def _prune(directory: str, keep: int) -> None:
        try:
            names = [
                name for name in os.listdir(directory)
                if name.startswith(DUMP_PREFIX) and name.endswith(".json")
            ]
        except OSError:
            return
        # The -<seq>.json suffix is zero-padded, so lexicographic order
        # is dump order for any realistic dump count.
        names.sort()
        for name in names[:-keep] if keep > 0 else names:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass
