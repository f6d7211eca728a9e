"""Per-CFSM structural rules and cross-CFSM network analysis.

The per-CFSM checks are the historical :mod:`repro.cfsm.validate` set,
re-homed as rules ``CFSM001``-``CFSM011`` (their message texts are
preserved verbatim — :func:`repro.cfsm.validate.validate_network`
renders these diagnostics back into its legacy string form).  Two gaps
found while porting became new rules: ``CFSM012`` (valueless emit on a
valued event — the consumer silently reads 0) and ``CFSM013`` (a
``consumes`` list naming events outside the declared inputs).

The network-scope analysis covers what no single-process check can
see: write/write races on shared-memory words under nondeterministic
discrete-event ordering, multi-producer events racing in one-place
buffers, emitter/consumer type conflicts, and undriven/unconsumed
events at network scope.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfsm.expr import Const
from repro.cfsm.model import Cfsm, Network, Transition
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    SharedRead,
    SharedWrite,
    _expressions_of,
)
from repro.lint.diagnostics import Diagnostic, Location, make


def check_cfsm(cfsm: Cfsm, system: Optional[str] = None) -> List[Diagnostic]:
    """Per-process structural rules (CFSM001-CFSM013)."""
    diagnostics: List[Diagnostic] = []
    seen_transitions: Set[str] = set()
    for transition in cfsm.transitions:
        where = Location(system=system, cfsm=cfsm.name,
                         transition=transition.name)

        def report(code: str, message: str,
                   location: Location = where, **data: object) -> None:
            diagnostics.append(make(code, message, location, data=data))

        if transition.name in seen_transitions:
            report("CFSM001", "duplicate transition name")
        seen_transitions.add(transition.name)
        if not transition.trigger:
            report("CFSM002", "has no trigger events (would never fire)")
        for event in transition.trigger:
            if event not in cfsm.inputs:
                report("CFSM003",
                       "triggers on undeclared input %r" % event,
                       event=event)
        diagnostics.extend(_check_body(cfsm, transition, where))
        if transition.guard is not None:
            for name in transition.guard.variables():
                if name not in cfsm.variables:
                    report("CFSM011",
                           "guard reads undeclared variable %r" % name,
                           variable=name)
            for event in transition.guard.event_values():
                diagnostics.extend(
                    _check_value_read(cfsm, event, where)
                )
        for event in transition.consumes:
            if event not in cfsm.inputs:
                diagnostics.append(make(
                    "CFSM013",
                    "consume list names undeclared input %r" % event,
                    where, data={"event": event},
                ))
    for name in sorted(cfsm.shared_variables):
        if name not in cfsm.variables:
            diagnostics.append(make(
                "CFSM010",
                "shared variable %r is not declared" % name,
                Location(system=system, cfsm=cfsm.name, variable=name),
            ))
    return diagnostics


def _check_body(cfsm: Cfsm, transition: Transition,
                where: Location) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for stmt in transition.body.nodes():
        at = Location(system=where.system, cfsm=where.cfsm,
                      transition=where.transition, node=stmt.node_id)
        if isinstance(stmt, (Assign, SharedRead)) \
                and stmt.target not in cfsm.variables:
            diagnostics.append(make(
                "CFSM004",
                "assigns undeclared variable %r" % stmt.target,
                at, data={"variable": stmt.target},
            ))
        if isinstance(stmt, Emit):
            if stmt.event not in cfsm.outputs:
                diagnostics.append(make(
                    "CFSM005",
                    "emits undeclared output %r" % stmt.event,
                    at, data={"event": stmt.event},
                ))
            elif stmt.value is not None \
                    and not cfsm.outputs[stmt.event].has_value:
                diagnostics.append(make(
                    "CFSM006",
                    "emits a value on pure event %r" % stmt.event,
                    at, data={"event": stmt.event},
                ))
            elif stmt.value is None and cfsm.outputs[stmt.event].has_value:
                diagnostics.append(make(
                    "CFSM012",
                    "emits valued event %r without a value (consumers "
                    "read 0)" % stmt.event,
                    at, data={"event": stmt.event},
                ))
        for expression in _expressions_of(stmt):
            for name in expression.variables():
                if name not in cfsm.variables:
                    diagnostics.append(make(
                        "CFSM007",
                        "reads undeclared variable %r" % name,
                        at, data={"variable": name},
                    ))
            for event in expression.event_values():
                diagnostics.extend(_check_value_read(cfsm, event, at))
    return diagnostics


def _check_value_read(cfsm: Cfsm, event: str,
                      where: Location) -> List[Diagnostic]:
    if event not in cfsm.inputs:
        return [make("CFSM008",
                     "reads value of undeclared input %r" % event,
                     where, data={"event": event})]
    if not cfsm.inputs[event].has_value:
        return [make("CFSM009",
                     "reads value of pure event %r" % event,
                     where, data={"event": event})]
    return []


# -- network-scope analysis --------------------------------------------------


def check_network(network: Network) -> List[Diagnostic]:
    """Cross-CFSM wiring rules (NET101-NET109)."""
    system = network.name
    diagnostics: List[Diagnostic] = []

    for name, _ in sorted(network.cfsms.items()):
        if network.mapping.get(name) is None:
            diagnostics.append(make(
                "NET101", "has no HW/SW mapping",
                Location(system=system, cfsm=name),
            ))

    # Inputs nothing drives: not produced by a CFSM, not testbench-driven.
    dangling = network.external_inputs() - network.environment_inputs
    for event in sorted(dangling):
        consumers = ", ".join(c.name for c in network.consumers_of(event))
        diagnostics.append(make(
            "NET102",
            "event %r is consumed by [%s] but produced by no CFSM and "
            "not declared as an environment input" % (event, consumers),
            Location(system=system, event=event),
        ))

    known_events = _declared_event_names(network)
    for event in sorted(network.bus_events):
        if event not in known_events:
            diagnostics.append(make(
                "NET103",
                "bus event %r is not declared by any CFSM" % event,
                Location(system=system, event=event),
            ))

    for event in sorted(network.reset_events):
        if not network.consumers_of(event):
            diagnostics.append(make(
                "NET104",
                "reset event %r has no watching process" % event,
                Location(system=system, event=event),
            ))
        for _, cfsm in sorted(network.cfsms.items()):
            for transition in cfsm.transitions:
                if event in transition.trigger:
                    diagnostics.append(make(
                        "NET105",
                        "triggers on reset event %r" % event,
                        Location(system=system, cfsm=cfsm.name,
                                 transition=transition.name, event=event),
                    ))

    diagnostics.extend(_check_event_types(network))
    diagnostics.extend(_check_multi_producers(network))
    diagnostics.extend(_check_shared_write_races(network))
    diagnostics.extend(_check_unconsumed_outputs(network))
    return diagnostics


def _declared_event_names(network: Network) -> Set[str]:
    names: Set[str] = set()
    for cfsm in network.cfsms.values():
        names.update(cfsm.inputs)
        names.update(cfsm.outputs)
    return names


def _check_event_types(network: Network) -> List[Diagnostic]:
    """NET106: emitter/consumer declarations must agree per event."""
    declarations: Dict[str, List[Tuple[str, str, object]]] = {}
    for name, cfsm in sorted(network.cfsms.items()):
        for direction, collection in (("input", cfsm.inputs),
                                      ("output", cfsm.outputs)):
            for event, event_type in sorted(collection.items()):
                declarations.setdefault(event, []).append(
                    (name, direction, event_type)
                )
    diagnostics: List[Diagnostic] = []
    for event, rows in sorted(declarations.items()):
        types = {(row[2].has_value, row[2].width) for row in rows}
        if len(types) > 1:
            detail = "; ".join(
                "%s.%s: has_value=%s width=%d"
                % (name, direction, event_type.has_value, event_type.width)
                for name, direction, event_type in rows
            )
            diagnostics.append(make(
                "NET106",
                "event %r declared with conflicting types (%s)"
                % (event, detail),
                Location(system=network.name, event=event),
            ))
    return diagnostics


def _check_multi_producers(network: Network) -> List[Diagnostic]:
    """NET107: one event emitted by several processes races in the
    consumer's one-place buffer."""
    diagnostics: List[Diagnostic] = []
    for event in sorted(_declared_event_names(network)):
        producers = [c.name for c in network.producers_of(event)]
        if len(producers) > 1:
            diagnostics.append(make(
                "NET107",
                "event %r is emitted by %d processes (%s); delivery "
                "order into one-place buffers is nondeterministic"
                % (event, len(producers), ", ".join(producers)),
                Location(system=network.name, event=event),
                data={"producers": producers},
            ))
    return diagnostics


def _constant_write_addresses(
    cfsm: Cfsm,
) -> Dict[int, List[str]]:
    """Statically-known shared-memory write addresses per transition.

    Only :class:`Const` addresses are collected: variable addresses
    cannot be bounded without a value analysis, so they are excluded
    rather than reported speculatively (documented limitation).
    """
    addresses: Dict[int, List[str]] = {}
    for transition in cfsm.transitions:
        for stmt in transition.body.nodes():
            if isinstance(stmt, SharedWrite) \
                    and isinstance(stmt.address, Const):
                addresses.setdefault(stmt.address.value, []).append(
                    transition.name
                )
    return addresses


def _causally_ordered(a: Cfsm, t_a: str, b: Cfsm, t_b: str) -> bool:
    """Whether one transition's emissions (transitively within its own
    process are ignored) directly trigger the other.

    A direct emit→trigger edge is the paper's handshake idiom
    (producer stores, then announces; consumer reacts to the
    announcement): those writes are ordered per occurrence, so they are
    not reported as races.
    """
    def edge(src: Cfsm, src_t: str, dst: Cfsm, dst_t: str) -> bool:
        source = src.transition_by_name(src_t)
        emitted = set(source.body.events_emitted())
        target = dst.transition_by_name(dst_t)
        return bool(emitted & set(target.trigger))

    return edge(a, t_a, b, t_b) or edge(b, t_b, a, t_a)


def _check_shared_write_races(network: Network) -> List[Diagnostic]:
    """NET108: two processes writing one shared word, unordered."""
    diagnostics: List[Diagnostic] = []
    cfsms = sorted(network.cfsms.items())
    writes = {name: _constant_write_addresses(cfsm) for name, cfsm in cfsms}
    for index, (name_a, cfsm_a) in enumerate(cfsms):
        for name_b, cfsm_b in cfsms[index + 1:]:
            common = sorted(set(writes[name_a]) & set(writes[name_b]))
            racy_addresses: List[int] = []
            for address in common:
                pairs = [
                    (t_a, t_b)
                    for t_a in writes[name_a][address]
                    for t_b in writes[name_b][address]
                ]
                if any(not _causally_ordered(cfsm_a, t_a, cfsm_b, t_b)
                       for t_a, t_b in pairs):
                    racy_addresses.append(address)
            if racy_addresses:
                rendered = ", ".join("0x%x" % a for a in racy_addresses)
                diagnostics.append(make(
                    "NET108",
                    "processes %r and %r both write shared address(es) "
                    "%s with no event ordering between the writing "
                    "transitions" % (name_a, name_b, rendered),
                    Location(system=network.name, cfsm=name_a),
                    data={"other": name_b, "addresses": racy_addresses},
                ))
    return diagnostics


def _check_unconsumed_outputs(network: Network) -> List[Diagnostic]:
    """NET109: outputs no process consumes (primary outputs or typos)."""
    diagnostics: List[Diagnostic] = []
    consumed: Set[str] = set()
    for cfsm in network.cfsms.values():
        consumed.update(cfsm.inputs)
    for name, cfsm in sorted(network.cfsms.items()):
        for event in sorted(cfsm.outputs):
            if event not in consumed:
                diagnostics.append(make(
                    "NET109",
                    "output %r of %r is consumed by no process (primary "
                    "output, or dead wiring)" % (event, name),
                    Location(system=network.name, cfsm=name, event=event),
                ))
    return diagnostics
