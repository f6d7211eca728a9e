"""FIFO regression tests for the deterministic event queue.

Items scheduled at equal timestamps must pop in scheduling order, and
the tie-break must never compare payloads (payloads are arbitrary —
dicts, events, closures — and most are not orderable).
"""

import heapq

import pytest

from repro.master.kernel import EventQueue


def pop_payload(queue):
    """Pop the earliest item the way the master's event loop does."""
    _time, _sequence, _kind, payload = heapq.heappop(queue.heap)
    return payload


class _Opaque:
    """Deliberately unorderable payload."""

    def __lt__(self, other):  # pragma: no cover - must never be called
        raise AssertionError("payloads must not be compared")


def test_equal_times_pop_in_scheduling_order():
    queue = EventQueue()
    for index in range(10):
        queue.schedule(5.0, "tick", index)
    assert [pop_payload(queue) for index in range(10)] == list(range(10))


def test_tie_break_never_compares_payloads():
    queue = EventQueue()
    payloads = [_Opaque() for _ in range(6)]
    for payload in payloads:
        queue.schedule(1.0, "tick", payload)
    # dict payloads are not comparable either
    queue.schedule(1.0, "tick", {"a": 1})
    queue.schedule(1.0, "tick", {"b": 2})
    popped = [pop_payload(queue) for _ in range(8)]
    assert popped[:6] == payloads
    assert popped[6:] == [{"a": 1}, {"b": 2}]


def test_fifo_within_time_and_order_across_times():
    queue = EventQueue()
    queue.schedule(2.0, "late", "c")
    queue.schedule(1.0, "early", "a")
    queue.schedule(1.0, "early", "b")
    queue.schedule(0.5, "first", "z")
    order = [pop_payload(queue) for _ in range(4)]
    assert order == ["z", "a", "b", "c"]


def test_interleaved_schedule_and_pop_keeps_fifo():
    queue = EventQueue()
    queue.schedule(1.0, "k", 1)
    queue.schedule(1.0, "k", 2)
    assert pop_payload(queue) == 1
    queue.schedule(1.0, "k", 3)
    assert [pop_payload(queue), pop_payload(queue)] == [2, 3]


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.schedule(-1.0, "bad")
