"""Unit tests: event types, occurrences, one-place buffers."""

import pytest

from repro.cfsm.events import Event, EventBuffer, EventType


class TestEventType:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            EventType("")

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            EventType("E", width=0)

    def test_defaults(self):
        event_type = EventType("E")
        assert not event_type.has_value
        assert event_type.width == 16


class TestEvent:
    def test_at_stamps_time(self):
        event = Event("E", value=3)
        stamped = event.at(12.5)
        assert stamped.time == 12.5
        assert stamped.value == 3
        assert event.time is None  # original untouched


class TestEventBuffer:
    def make(self):
        return EventBuffer(inputs=["A", "B"])

    def test_deliver_and_present(self):
        buffer = self.make()
        buffer.deliver(Event("A", value=5, time=1.0))
        assert buffer.present("A")
        assert not buffer.present("B")
        assert buffer.value("A") == 5

    def test_unknown_event_rejected(self):
        buffer = self.make()
        with pytest.raises(KeyError):
            buffer.deliver(Event("X", time=0.0))

    def test_overwrite_counts(self):
        buffer = self.make()
        buffer.deliver(Event("A", value=1, time=0.0))
        buffer.deliver(Event("A", value=2, time=1.0))
        assert buffer.value("A") == 2
        assert buffer.overwrite_count == 1

    def test_consume_returns_values(self):
        buffer = self.make()
        buffer.deliver(Event("A", value=7, time=0.0))
        consumed = buffer.consume(["A", "B"])
        assert consumed == {"A": 7}
        assert not buffer.present("A")

    def test_value_of_absent_event_raises(self):
        buffer = self.make()
        with pytest.raises(KeyError):
            buffer.value("A")

    def test_clear(self):
        buffer = self.make()
        buffer.deliver(Event("A", time=0.0))
        buffer.deliver(Event("B", time=0.0))
        buffer.clear()
        assert buffer.pending_names() == []

    def test_snapshot_is_copy(self):
        buffer = self.make()
        buffer.deliver(Event("A", value=4, time=0.0))
        snapshot = buffer.snapshot()
        snapshot["A"] = 99
        assert buffer.value("A") == 4
