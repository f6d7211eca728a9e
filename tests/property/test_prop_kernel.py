"""Property tests: event queue and one-place buffers."""

import heapq

from hypothesis import given
from hypothesis import strategies as st

from repro.cfsm.events import Event, EventBuffer
from repro.master.kernel import EventQueue


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=200))
def test_queue_pops_in_time_order(times):
    queue = EventQueue()
    for index, time in enumerate(times):
        queue.schedule(time, "k", index)
    popped = [heapq.heappop(queue.heap) for _ in range(len(times))]
    assert [time for time, _, _, _ in popped] == sorted(times)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=50))
def test_queue_ties_pop_in_schedule_order(payloads):
    """Items at the same timestamp come out in scheduling order."""
    queue = EventQueue()
    for index, payload in enumerate(payloads):
        queue.schedule(5.0, "k", (index, payload))
    order = [heapq.heappop(queue.heap)[3][0] for _ in range(len(payloads))]
    assert order == list(range(len(payloads)))


@given(st.lists(st.tuples(st.sampled_from(["A", "B"]),
                          st.integers(0, 100)),
                min_size=1, max_size=60))
def test_one_place_buffer_keeps_latest(deliveries):
    buffer = EventBuffer(inputs=["A", "B"])
    latest = {}
    for name, value in deliveries:
        buffer.deliver(Event(name, value=value, time=0.0))
        latest[name] = value
    for name, value in latest.items():
        assert buffer.present(name)
        assert buffer.value(name) == value
    overwrites = len(deliveries) - len(latest)
    assert buffer.overwrite_count == overwrites


@given(st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=30))
def test_consume_clears_only_named_events(deliveries):
    buffer = EventBuffer(inputs=["A", "B"])
    for name in deliveries:
        buffer.deliver(Event(name, time=0.0))
    present_before = set(buffer.pending_names())
    buffer.consume(["A"])
    assert not buffer.present("A")
    assert buffer.present("B") == ("B" in present_before)
