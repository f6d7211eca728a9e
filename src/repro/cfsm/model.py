"""CFSM, transition, and network models.

A :class:`Cfsm` is a reactive process: a set of input/output events,
persistent integer variables, and transitions.  A :class:`Transition`
fires when all of its trigger events are pending in the process's
one-place input buffer and its optional guard holds; its body (an
s-graph) then executes atomically.

A :class:`Network` groups CFSMs, records the HW/SW mapping of each one
(the co-design partition), and declares which events travel over the
shared system bus and which variables live in shared memory.  These are
precisely the knobs the paper's co-estimation framework exposes: the
partition determines which component estimator is invoked per
transition, and the bus/shared-memory declarations determine the
traffic seen by the communication-architecture power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfsm.events import EventBuffer, EventType
from repro.cfsm.expr import Expression
from repro.cfsm.sgraph import ExecutionTrace, SGraph


class Implementation:
    """HW/SW mapping of a CFSM."""

    HW = "hw"
    SW = "sw"

    CHOICES = (HW, SW)

    @staticmethod
    def check(value: str) -> str:
        if value not in Implementation.CHOICES:
            raise ValueError(
                "implementation must be one of %s, got %r"
                % (Implementation.CHOICES, value)
            )
        return value


@dataclass
class Transition:
    """One atomic reaction of a CFSM.

    Attributes:
        name: transition label, unique within the owning CFSM.
        trigger: input event names that must all be pending.
        guard: optional boolean expression over variables and the values
            of the trigger events; the transition is enabled only when
            it evaluates non-zero.
        body: the s-graph executed when the transition fires.
        consumes: input events removed from the buffer when the
            transition fires.  Defaults to the trigger events plus every
            event whose value the body reads.
    """

    name: str
    trigger: Tuple[str, ...]
    body: SGraph
    guard: Optional[Expression] = None
    consumes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transition requires a name")
        self.trigger = tuple(self.trigger)
        if not self.consumes:
            consumed = list(self.trigger)
            for event in self.body.event_values_read():
                if event not in consumed:
                    consumed.append(event)
            if self.guard is not None:
                for event in self.guard.event_values():
                    if event not in consumed:
                        consumed.append(event)
            self.consumes = tuple(consumed)


@dataclass
class Cfsm:
    """A single codesign finite state machine.

    Attributes:
        name: process name, unique within the network.
        inputs: input event types by name.
        outputs: output event types by name.
        variables: persistent variables and their initial values.
        transitions: reactions in priority order (first enabled wins).
        shared_variables: variables resident in *shared memory*;
            accesses to them become bus transactions instead of local
            cache references.
        width: datapath bit width used by hardware synthesis.
        clock_period_ns: component clock period (HW blocks and the
            embedded processor may run at different rates).
    """

    name: str
    inputs: Dict[str, EventType] = field(default_factory=dict)
    outputs: Dict[str, EventType] = field(default_factory=dict)
    variables: Dict[str, int] = field(default_factory=dict)
    transitions: List[Transition] = field(default_factory=list)
    shared_variables: Set[str] = field(default_factory=set)
    width: int = 16
    clock_period_ns: float = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("CFSM requires a name")

    def make_buffer(self) -> EventBuffer:
        """Fresh one-place input buffer for this CFSM."""
        return EventBuffer(inputs=sorted(self.inputs))

    def initial_state(self) -> Dict[str, int]:
        """Fresh copy of the initial variable bindings."""
        return dict(self.variables)

    def enabled_transition(
        self, buffer: EventBuffer, state: Dict[str, int]
    ) -> Optional[Transition]:
        """First transition whose trigger and guard are satisfied."""
        for transition in self.transitions:
            if all(buffer.present(event) for event in transition.trigger):
                if transition.guard is None:
                    return transition
                env = dict(state)
                for event in transition.guard.event_values():
                    if not buffer.present(event):
                        break
                    env["@" + event] = buffer.value(event)
                else:
                    if transition.guard.evaluate(env):
                        return transition
        return None

    def react(
        self,
        transition: Transition,
        buffer: EventBuffer,
        state: Dict[str, int],
        shared=None,
    ) -> ExecutionTrace:
        """Execute ``transition`` against ``buffer``/``state``.

        This is the reference (behavioral) semantics: the environment is
        seeded with the values of every pending trigger event, the body
        runs, consumed events are removed, and ``state`` is updated in
        place.  ``shared`` provides the system's shared memory when the
        body performs bus-mapped accesses.
        """
        env: Dict[str, int] = dict(state)
        for event in transition.consumes:
            if buffer.present(event):
                env["@" + event] = buffer.value(event)
        trace = transition.body.execute(env, shared=shared)
        buffer.consume(transition.consumes)
        for name, value in trace.var_updates.items():
            state[name] = value
        return trace

    def transition_by_name(self, name: str) -> Transition:
        """Look up a transition by its label."""
        for transition in self.transitions:
            if transition.name == name:
                return transition
        raise KeyError("CFSM %r has no transition %r" % (self.name, name))


@dataclass
class Network:
    """A complete system: CFSMs, mapping, and integration architecture.

    Attributes:
        name: system name.
        cfsms: processes by name.
        mapping: per-process HW/SW implementation choice.
        bus_events: event names whose communication is mapped onto the
            shared system bus (others use dedicated point-to-point
            wires, which the bus power model ignores).
        environment_inputs: events driven by the testbench/environment.
    """

    name: str
    cfsms: Dict[str, Cfsm] = field(default_factory=dict)
    mapping: Dict[str, str] = field(default_factory=dict)
    bus_events: Set[str] = field(default_factory=set)
    environment_inputs: Set[str] = field(default_factory=set)
    #: Events with the paper's ``do ... watching RESET`` semantics: a
    #: delivery re-initializes every consumer that declares the event
    #: as an input (variables back to initial values, pending events
    #: dropped) instead of triggering a transition.
    reset_events: Set[str] = field(default_factory=set)

    def add(self, cfsm: Cfsm, mapping: str) -> None:
        """Register ``cfsm`` with the given HW/SW ``mapping``."""
        if cfsm.name in self.cfsms:
            raise ValueError("duplicate CFSM name %r" % cfsm.name)
        self.cfsms[cfsm.name] = cfsm
        self.mapping[cfsm.name] = Implementation.check(mapping)

    def implementation(self, cfsm_name: str) -> str:
        """HW/SW mapping of ``cfsm_name``."""
        return self.mapping[cfsm_name]

    def remap(self, cfsm_name: str, mapping: str) -> None:
        """Change the partition of one process (design exploration)."""
        if cfsm_name not in self.cfsms:
            raise KeyError("no CFSM named %r" % cfsm_name)
        self.mapping[cfsm_name] = Implementation.check(mapping)

    def software_cfsms(self) -> List[Cfsm]:
        """Processes mapped to embedded software (sorted by name)."""
        return [
            self.cfsms[name]
            for name in sorted(self.cfsms)
            if self.mapping.get(name) == Implementation.SW
        ]

    def hardware_cfsms(self) -> List[Cfsm]:
        """Processes mapped to application-specific hardware (sorted)."""
        return [
            self.cfsms[name]
            for name in sorted(self.cfsms)
            if self.mapping.get(name) == Implementation.HW
        ]

    def consumers_of(self, event_name: str) -> List[Cfsm]:
        """CFSMs that list ``event_name`` among their inputs."""
        return [
            cfsm
            for _, cfsm in sorted(self.cfsms.items())
            if event_name in cfsm.inputs
        ]

    def producers_of(self, event_name: str) -> List[Cfsm]:
        """CFSMs that list ``event_name`` among their outputs."""
        return [
            cfsm
            for _, cfsm in sorted(self.cfsms.items())
            if event_name in cfsm.outputs
        ]

    def external_inputs(self) -> Set[str]:
        """Events consumed somewhere but produced by no CFSM."""
        produced = set()
        consumed = set()
        for cfsm in self.cfsms.values():
            produced.update(cfsm.outputs)
            consumed.update(cfsm.inputs)
        return consumed - produced
