"""Structural fingerprints of CFSMs and transition bodies.

Design-space exploration rebuilds the same system over and over with
slightly different parameters, and several acceleration layers (the
compiled-simulator cache, the codegen/synthesis caches, warm-started
energy caching) need a *value identity* for a CFSM: two CFSM objects
with equal fingerprints behave identically under simulation, synthesis
and code generation.

``repr`` alone is not enough — ``If``/``Loop`` statements summarize
their bodies as statement counts, so two transitions that differ only
inside a nested block would compare equal.  The walkers here descend
recursively; expression reprs are already fully recursive.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Tuple

from repro.cfsm.model import Cfsm, Transition
from repro.cfsm.sgraph import Emit, If, Loop, Statement


def statement_signature(stmt: Statement) -> tuple:
    """Recursive structural signature of one s-graph statement."""
    if isinstance(stmt, If):
        return (
            "if",
            repr(stmt.cond),
            tuple(statement_signature(child) for child in stmt.then),
            tuple(statement_signature(child) for child in stmt.els),
        )
    if isinstance(stmt, Loop):
        return (
            "loop",
            repr(stmt.count),
            tuple(statement_signature(child) for child in stmt.body),
        )
    if isinstance(stmt, Emit):
        # Emit's repr shows only the event name, not the value
        # expression — spell the value out explicitly.
        return (
            "emit",
            stmt.event,
            None if stmt.value is None else repr(stmt.value),
        )
    # Remaining leaves (Assign/SharedRead/SharedWrite) embed their
    # expressions in repr, and expression reprs are fully recursive.
    return (type(stmt).__name__, repr(stmt))


def transition_signature(transition: Transition) -> tuple:
    """Structural signature of one transition (trigger, guard, body)."""
    return (
        transition.name,
        tuple(transition.trigger),
        None if transition.guard is None else repr(transition.guard),
        tuple(transition.consumes),
        tuple(statement_signature(stmt) for stmt in transition.body.statements),
    )


#: Signatures of sealed CFSMs by ``id``; an entry leaves with its CFSM.
_SEALED: Dict[int, Tuple] = {}


def seal(cfsm: Cfsm) -> None:
    """Record the signature of ``cfsm`` and return it from now on.

    Only for a CFSM that is never mutated again, such as one of a
    bundle shared by :func:`repro.systems.shared_bundle`: every later
    :func:`cfsm_signature` of it returns the recorded signature.
    """
    key = id(cfsm)
    if key not in _SEALED:
        _SEALED[key] = _walk(cfsm)
        weakref.finalize(cfsm, _SEALED.pop, key, None)


def cfsm_signature(cfsm: Cfsm) -> Tuple:
    """Hashable value identity of a CFSM.

    Covers everything synthesis, code generation and simulation read:
    interface event types, variables and initial values, shared-memory
    residency, datapath width, clock, and every transition body
    recursively.
    """
    sealed = _SEALED.get(id(cfsm))
    return _walk(cfsm) if sealed is None else sealed


def _walk(cfsm: Cfsm) -> Tuple:
    return (
        cfsm.name,
        cfsm.width,
        cfsm.clock_period_ns,
        tuple(sorted((name, repr(t)) for name, t in cfsm.inputs.items())),
        tuple(sorted((name, repr(t)) for name, t in cfsm.outputs.items())),
        tuple(sorted(cfsm.variables.items())),
        tuple(sorted(cfsm.shared_variables)),
        tuple(transition_signature(t) for t in cfsm.transitions),
    )


def cfsm_digest(cfsm: Cfsm, *extras) -> str:
    """SHA-256 hex digest of a CFSM signature plus caller context.

    ``extras`` lets callers fold in whatever else their cached artifact
    depends on (a library signature, a power-model repr, a memory
    base); anything with a deterministic ``repr`` works.
    """
    payload = (cfsm_signature(cfsm),) + tuple(extras)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
