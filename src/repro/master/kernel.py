"""Discrete-event kernel: a time-ordered queue with stable ties."""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple


class EventQueue:
    """A deterministic discrete-event queue.

    Each scheduled occurrence is a plain ``(time, sequence, kind,
    payload)`` tuple on :attr:`heap`; consumers pop it with
    ``heapq.heappop(queue.heap)``.  Items scheduled at equal times pop
    in scheduling order (the unique sequence number breaks ties, so
    payloads are never compared), which keeps every co-simulation run
    reproducible.
    """

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, str, Any]] = []
        self._sequence = 0

    def schedule(self, time: float, kind: str, payload: Any = None) -> None:
        """Add an item at ``time``."""
        if time < 0:
            raise ValueError("cannot schedule at negative time %r" % time)
        heapq.heappush(self.heap, (time, self._sequence, kind, payload))
        self._sequence += 1
