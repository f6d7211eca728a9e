"""Macro-operations: the unit of software macro-modeling.

POLIS compiles every s-graph into a sequence of *macro-operations* —
assignment of a variable to a variable (AVV), assignment of a constant
(AIVC), emission of an event (AEMIT), tests on a variable value that
evaluate true or false (TIVART / TIVARF), and calls into the library of
pre-defined arithmetic/relational/logical functions (ADD, SUB, EQ, ...).

The execution trace of a transition (see :mod:`repro.cfsm.sgraph`)
records the macro-operation stream it performed.  The software
macro-modeling acceleration technique (Section 4.1 of the paper)
estimates the energy and delay of a transition directly from this
stream using a pre-characterized parameter file, without invoking the
instruction set simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cfsm import expr as _expr


class MacroOpKind:
    """Names of the non-arithmetic POLIS macro-operations."""

    AVV = "AVV"  # assign variable := variable
    AIVC = "AIVC"  # assign variable := constant
    AEMIT = "AEMIT"  # emit an event (optionally carrying a value)
    ADETECT = "ADETECT"  # read the value of an input event
    TIVART = "TIVART"  # test on a variable value, outcome: true
    TIVARF = "TIVARF"  # test on a variable value, outcome: false
    TLOOPT = "TLOOPT"  # loop-bound test, outcome: continue
    TLOOPF = "TLOOPF"  # loop-bound test, outcome: exit
    ASHRD = "ASHRD"  # shared-memory word read (bus transaction)
    ASHWR = "ASHWR"  # shared-memory word write (bus transaction)

    CONTROL_OPS = (
        AVV, AIVC, AEMIT, ADETECT, TIVART, TIVARF, TLOOPT, TLOOPF, ASHRD, ASHWR,
    )


def all_macro_op_names() -> Tuple[str, ...]:
    """Every macro-operation name that may appear in a trace.

    This is the set the macro-model characterizer must cover: the
    control macro-operations plus the arithmetic/relational/logical
    library functions.
    """
    names = list(MacroOpKind.CONTROL_OPS)
    names.extend(_expr.binary_operator_names())
    names.extend(_expr.unary_operator_names())
    # Preserve order but drop duplicates defensively.
    seen = set()
    unique = []
    for name in names:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return tuple(unique)


@dataclass(frozen=True)
class MacroOp:
    """One macro-operation instance in an execution trace.

    Attributes:
        name: macro-operation name (one of :func:`all_macro_op_names`).
        operand: human-readable operand description (variable or event
            name), used for tracing and debugging only.
    """

    name: str
    operand: str = ""

    def __repr__(self) -> str:
        if self.operand:
            return "%s(%s)" % (self.name, self.operand)
        return self.name


_INTERNED: dict = {}


def interned_macro_op(name: str, operand: str = "") -> MacroOp:
    """Shared immutable instance for a (name, operand) pair.

    Traces append millions of macro-operations during long
    co-simulations; interning lets every trace share one object per
    (name, operand) pair.
    """
    key = (name, operand)
    op = _INTERNED.get(key)
    if op is None:
        op = MacroOp(name, operand)
        _INTERNED[key] = op
    return op
