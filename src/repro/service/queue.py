"""Bounded admission queue with backpressure and load shedding.

The service's memory ceiling lives here: the queue holds at most
``max_depth`` waiting requests, ever.  When it is full, the queue
answers with *explicit* backpressure instead of growing:

* an incoming request at a priority **no higher** than everything
  queued is refused (:class:`QueueFull` → HTTP 429 + ``Retry-After``);
* an incoming request at a **higher** priority than the lowest queued
  one *sheds* that victim — the victim's submitter gets an immediate
  503 instead of a slot, and the newcomer takes its place.  Under
  sustained overload the queue therefore converges to serving the
  highest-priority traffic, which is the standard load-shedding
  contract of a serving stack.

Ordering is priority-major, FIFO within a priority.  The structure is a
plain list scanned under a lock: ``max_depth`` is tens-to-hundreds, so
O(depth) take/shed is simpler and *provably* correct against the
"heap with arbitrary removal" alternative, and the lock hold times are
nanoseconds next to a co-estimation run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["QueueFull", "QueueClosed", "AdmissionQueue"]

#: How many (timestamp, depth) points the depth history retains.
DEPTH_HISTORY_LEN = 64


class QueueFull(ReproError):
    """The admission queue is at capacity and the request lost (429)."""


class QueueClosed(ReproError):
    """The queue no longer admits work (drain in progress, 503)."""


class AdmissionQueue:
    """Bounded, priority-ordered, thread-safe admission queue."""

    def __init__(
        self,
        max_depth: int,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._clock = clock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # (priority, seq, static cost units, item)
        self._items: List[Tuple[int, int, float, Any]] = []
        self._seq = 0
        self._closed = False
        # Lifetime accounting (read by /stats).
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.peak_depth = 0
        # Static-cost accounting: the queue tracks the summed admission
        # weight (repro.lint.cost units) of everything waiting, so the
        # service can quote Retry-After from the *work* queued instead
        # of the request count.
        self._queued_cost = 0.0
        self.admitted_cost = 0.0
        # Recent (timestamp, depth) points, one per depth change —
        # the /stats sparkline that shows *how* the queue filled, not
        # just where it stands now.  Bounded; O(1) per transition.
        self._depth_history: Deque[Tuple[float, int]] = deque(
            maxlen=DEPTH_HISTORY_LEN
        )

    def _record_depth_locked(self) -> None:
        self._depth_history.append((self._clock(), len(self._items)))

    # -- producer side --------------------------------------------------

    def submit(self, item: Any, priority: int,
               cost: float = 1.0) -> Optional[Any]:
        """Admit ``item``; returns the shed victim, if admission cost one.

        ``cost`` is the request's static admission weight
        (:attr:`repro.lint.cost.CostReport.cost_units`); the queue sums
        it into :attr:`queued_cost` for cost-aware backpressure quotes.
        Raises :class:`QueueFull` when the queue is at capacity and no
        queued entry has a strictly lower priority, :class:`QueueClosed`
        after :meth:`close`.
        """
        with self._not_empty:
            if self._closed:
                raise QueueClosed("admission queue is closed (draining)")
            victim = None
            if len(self._items) >= self.max_depth:
                index = self._lowest_priority_index()
                if self._items[index][0] >= priority:
                    self.rejected += 1
                    raise QueueFull(
                        "admission queue full (%d queued at priority >= %d)"
                        % (len(self._items), priority)
                    )
                _, _, victim_cost, victim = self._items.pop(index)
                self._queued_cost -= victim_cost
                self.shed += 1
            self._seq += 1
            self._items.append((priority, self._seq, cost, item))
            self.admitted += 1
            self._queued_cost += cost
            self.admitted_cost += cost
            if len(self._items) > self.peak_depth:
                self.peak_depth = len(self._items)
            self._record_depth_locked()
            self._not_empty.notify()
            return victim

    def _lowest_priority_index(self) -> int:
        """Index of the shed victim: lowest priority, newest arrival."""
        best = 0
        for index in range(1, len(self._items)):
            priority, seq, _, _ = self._items[index]
            if (priority, -seq) < (self._items[best][0], -self._items[best][1]):
                best = index
        return best

    # -- consumer side --------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Pop the best entry (highest priority, oldest within it).

        Blocks up to ``timeout`` (forever if ``None``); returns ``None``
        on timeout or when the queue is closed *and* empty — the worker
        shutdown signal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            best = 0
            for index in range(1, len(self._items)):
                priority, seq, _, _ = self._items[index]
                if (-priority, seq) < (-self._items[best][0],
                                       self._items[best][1]):
                    best = index
            _, _, cost, item = self._items.pop(best)
            self._queued_cost -= cost
            self._record_depth_locked()
            return item

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wake every blocked :meth:`take`."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def drain_remaining(self) -> List[Any]:
        """Remove and return everything still queued (drain checkpoint)."""
        with self._not_empty:
            items = [item for _, _, _, item in sorted(
                self._items, key=lambda entry: (-entry[0], entry[1])
            )]
            self._items.clear()
            self._queued_cost = 0.0
            self._record_depth_locked()
            return items

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def queued_cost(self) -> float:
        """Summed static cost units of everything currently waiting."""
        with self._lock:
            return self._queued_cost

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._items),
                "max_depth": self.max_depth,
                "peak_depth": self.peak_depth,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "queued_cost": round(self._queued_cost, 4),
                "admitted_cost": round(self.admitted_cost, 4),
                "closed": self._closed,
                "depth_history": [
                    [round(ts, 6), depth]
                    for ts, depth in self._depth_history
                ],
            }
