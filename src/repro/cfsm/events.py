"""Event types, event instances, and one-place event buffers.

CFSMs communicate exclusively through events.  An event has a name that
is global to the network (the POLIS convention: connections are made by
name) and may carry an integer value.  Receivers store incoming events
in *one-place buffers*: a newly delivered event overwrites any pending
occurrence of the same event that has not yet been consumed.  This
lossy, overwrite semantics is what makes the behaviour of reactive
systems timing-sensitive, and is the mechanism behind the paper's
motivating example (Section 2): the value of ``TIME`` observed by the
consumer depends on *when* the consumer reacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class EventType:
    """Static description of an event used in a network.

    Attributes:
        name: global event name (the wire label in the network).
        has_value: whether occurrences carry an integer value.
        width: bit width of the carried value (used by the bus model to
            compute switching activity and by HW synthesis for port
            sizing).
    """

    name: str
    has_value: bool = False
    width: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event type requires a non-empty name")
        if self.width <= 0:
            raise ValueError("event width must be positive, got %d" % self.width)


@dataclass(frozen=True)
class Event:
    """A single occurrence of an event.

    Attributes:
        name: name of the :class:`EventType` this occurrence belongs to.
        value: carried integer value (0 for pure events).
        time: emission timestamp in simulation time units (cycles of the
            master clock).  ``None`` for occurrences that have not been
            scheduled yet.
        source: name of the emitting CFSM, or ``"env"`` for stimuli.
    """

    name: str
    value: int = 0
    time: Optional[float] = None
    source: str = "env"

    def at(self, time: float) -> "Event":
        """Return a copy of this occurrence stamped with ``time``."""
        return Event(self.name, self.value, time, self.source)


@dataclass
class BufferedEvent:
    """An event occurrence held in a receiver's one-place buffer."""

    value: int
    time: float
    source: str
    overwrites: int = 0


@dataclass
class EventBuffer:
    """One-place input buffers for a single CFSM.

    Each input event name maps to at most one pending occurrence.  A
    delivery of an event that is already pending *overwrites* the stored
    occurrence (and the overwrite is counted, because lost events are a
    useful diagnostic for reactive systems).
    """

    inputs: List[str] = field(default_factory=list)
    _pending: Dict[str, BufferedEvent] = field(default_factory=dict)
    overwrite_count: int = 0

    def deliver(self, event: Event) -> None:
        """Store ``event``; overwrite any pending occurrence of it."""
        if event.name not in self.inputs:
            raise KeyError(
                "event %r is not an input of this buffer (inputs: %s)"
                % (event.name, ", ".join(self.inputs))
            )
        previous = self._pending.get(event.name)
        overwrites = 0
        if previous is not None:
            overwrites = previous.overwrites + 1
            self.overwrite_count += 1
        self._pending[event.name] = BufferedEvent(
            value=event.value,
            time=event.time if event.time is not None else 0.0,
            source=event.source,
            overwrites=overwrites,
        )

    def present(self, name: str) -> bool:
        """Whether an occurrence of ``name`` is pending."""
        return name in self._pending

    def value(self, name: str) -> int:
        """Value of the pending occurrence of ``name``.

        Raises ``KeyError`` when no occurrence is pending; transitions
        must only read values of events they were triggered by.
        """
        return self._pending[name].value

    def pending_names(self) -> List[str]:
        """Names of all pending events (sorted for determinism)."""
        return sorted(self._pending)

    def consume(self, names: Iterable[str]) -> Dict[str, int]:
        """Remove the named occurrences, returning ``{name: value}``."""
        consumed: Dict[str, int] = {}
        for name in names:
            entry = self._pending.pop(name, None)
            if entry is not None:
                consumed[name] = entry.value
        return consumed

    def clear(self) -> None:
        """Drop all pending occurrences (used by RESET handling)."""
        self._pending.clear()

    def snapshot(self) -> Dict[str, int]:
        """Copy of the pending ``{name: value}`` map (for tracing)."""
        return {name: entry.value for name, entry in self._pending.items()}
