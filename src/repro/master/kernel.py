"""Discrete-event kernel: a time-ordered queue with stable ties."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class QueueItem:
    """One scheduled occurrence."""

    time: float
    kind: str
    payload: Any = None


class EventQueue:
    """A deterministic discrete-event queue.

    Items scheduled at equal times pop in scheduling order (stable
    sequence numbers break ties), which keeps every co-simulation run
    reproducible.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = 0
        self.scheduled = 0
        self.dispatched = 0

    def schedule(self, time: float, kind: str, payload: Any = None) -> None:
        """Add an item at ``time``."""
        if time < 0:
            raise ValueError("cannot schedule at negative time %r" % time)
        heapq.heappush(self._heap, (time, self._sequence, QueueItem(time, kind, payload)))
        self._sequence += 1
        self.scheduled += 1

    def pop(self) -> QueueItem:
        """Remove and return the earliest item."""
        if not self._heap:
            raise IndexError("event queue is empty")
        _, _, item = heapq.heappop(self._heap)
        self.dispatched += 1
        return item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
