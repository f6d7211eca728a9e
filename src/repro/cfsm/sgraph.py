"""S-graphs: the structured bodies of CFSM transitions.

An s-graph is a small structured program (assignments, event emissions,
two-way tests, and counted loops) executed atomically when a transition
fires.  Its execution is the *reference semantics* used by the
simulation master; the software code generator and the hardware
synthesizer must agree with it (this is checked by property-based
tests).

As POLIS synthesizes each s-graph into C, :meth:`SGraph.execute` runs
each body as one generated Python function: expressions are inlined,
and the static part of the trace (macro-operations and memory
references) is added as constant tuples.  The functions are cached
process-wide by body content, so each distinct body compiles once per
process, however many times its system is built.  A plain
tree-walking interpreter, kept in the test suite
(``tests/unit/test_sgraph_reference.py``), is the oracle the compiled
bodies are checked against.

Executing an s-graph produces an :class:`ExecutionTrace` that records

* the macro-operation stream (consumed by software macro-modeling),
* the *path signature* — the sequence of test outcomes — which is the
  lookup key used by energy/delay caching (Section 4.2),
* the memory references performed (fed to the cache simulator by the
  master, exactly as in the paper where the ISS assumes 100% hits and
  the cache simulator is attached directly to PTOLEMY),
* the events emitted, the variable updates, the loop iterations, and
  the shared-memory words read and written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfsm.actions import MacroOp, MacroOpKind, interned_macro_op
from repro.cfsm.expr import (
    _BINOP_FUNCS,
    BinaryOp,
    Const,
    EventValue,
    Expression,
    UnaryOp,
    Var,
    _coerce,
)
from repro.errors import ReproError
from repro.lru import LruCache

#: Safety bound on loop iterations; a behavioral model that exceeds it
#: almost certainly encodes a non-terminating reaction.
DEFAULT_MAX_ITERATIONS = 1_000_000


class SGraphError(ReproError):
    """Raised for malformed s-graphs or runaway executions."""


@dataclass(frozen=True)
class MemoryReference:
    """One variable access performed during execution.

    Attributes:
        name: variable name (or ``"@event"`` for an event mailbox read).
        is_write: ``True`` for stores, ``False`` for loads.
    """

    name: str
    is_write: bool


_REF_CACHE: Dict[Tuple[str, bool], MemoryReference] = {}


def _memory_ref(name: str, is_write: bool) -> MemoryReference:
    """Interned reference instances, shared by every trace."""
    key = (name, is_write)
    ref = _REF_CACHE.get(key)
    if ref is None:
        ref = MemoryReference(name, is_write)
        _REF_CACHE[key] = ref
    return ref


class Statement:
    """Base class for s-graph statements.

    ``node_id`` is assigned by :class:`SGraph` in depth-first order and
    mirrors the node numbering of the paper's Figure 4(a).
    """

    node_id: int = -1

    def _assign_ids(self, next_id: int) -> int:
        self.node_id = next_id
        return next_id + 1


class Assign(Statement):
    """``var := expr`` — an AVV/AIVC macro-operation plus operator calls."""

    def __init__(self, target: str, value) -> None:
        if not target:
            raise SGraphError("assignment requires a target variable name")
        self.target = target
        self.value: Expression = _coerce(value)

    def __repr__(self) -> str:
        return "Assign(%s := %r)" % (self.target, self.value)


class Emit(Statement):
    """``emit(event[, value])`` — an AEMIT macro-operation."""

    def __init__(self, event: str, value=None) -> None:
        if not event:
            raise SGraphError("emit requires an event name")
        self.event = event
        self.value: Optional[Expression] = None if value is None else _coerce(value)

    def __repr__(self) -> str:
        return "Emit(%s)" % self.event


class If(Statement):
    """Two-way test: TIVART when the condition holds, TIVARF otherwise."""

    def __init__(self, cond, then: Sequence[Statement], els: Sequence[Statement] = ()) -> None:
        self.cond: Expression = _coerce(cond)
        self.then = list(then)
        self.els = list(els)

    def _assign_ids(self, next_id: int) -> int:
        next_id = Statement._assign_ids(self, next_id)
        for stmt in self.then:
            next_id = stmt._assign_ids(next_id)
        for stmt in self.els:
            next_id = stmt._assign_ids(next_id)
        return next_id

    def __repr__(self) -> str:
        return "If(%r, then=%d stmts, else=%d stmts)" % (
            self.cond,
            len(self.then),
            len(self.els),
        )


class SharedRead(Statement):
    """``var := shared_memory[address]`` — a word read over the bus.

    Shared-memory accesses are the bus traffic of the system: the
    master groups the reads of one transition into DMA bursts and
    charges them to the shared-bus model instead of the local cache.
    """

    def __init__(self, target: str, address) -> None:
        if not target:
            raise SGraphError("shared read requires a target variable")
        self.target = target
        self.address: Expression = _coerce(address)

    def __repr__(self) -> str:
        return "SharedRead(%s := M[%r])" % (self.target, self.address)


class SharedWrite(Statement):
    """``shared_memory[address] := value`` — a word write over the bus."""

    def __init__(self, address, value) -> None:
        self.address: Expression = _coerce(address)
        self.value: Expression = _coerce(value)

    def __repr__(self) -> str:
        return "SharedWrite(M[%r] := %r)" % (self.address, self.value)


class Loop(Statement):
    """Counted loop: the body runs ``count`` times (0 if negative).

    The iteration count is *not* part of the path signature: the paper's
    energy-caching technique keys on the control path, so a path whose
    loop bound is data-dependent shows a spread-out energy histogram
    (Figure 4(b)) and is filtered out by the variance threshold.
    """

    def __init__(self, count, body: Sequence[Statement]) -> None:
        self.count: Expression = _coerce(count)
        self.body = list(body)

    def _assign_ids(self, next_id: int) -> int:
        next_id = Statement._assign_ids(self, next_id)
        for stmt in self.body:
            next_id = stmt._assign_ids(next_id)
        return next_id

    def __repr__(self) -> str:
        return "Loop(%r, body=%d stmts)" % (self.count, len(self.body))


@dataclass
class ExecutionTrace:
    """Everything observed while executing an s-graph once."""

    ops: List[MacroOp] = field(default_factory=list)
    path: Tuple = ()
    emitted: List[Tuple[str, int]] = field(default_factory=list)
    memory_refs: List[MemoryReference] = field(default_factory=list)
    var_updates: Dict[str, int] = field(default_factory=dict)
    loop_iterations: int = 0
    shared_reads: List[Tuple[int, int]] = field(default_factory=list)
    shared_writes: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def op_names(self) -> List[str]:
        """Macro-operation names in execution order."""
        return [op.name for op in self.ops]


class SGraph:
    """A transition body: an ordered list of statements.

    The constructor assigns node ids depth-first so that path
    signatures and hardware controller states are stable.
    """

    def __init__(self, statements: Sequence[Statement], max_iterations: int = DEFAULT_MAX_ITERATIONS) -> None:
        self.statements = list(statements)
        self.max_iterations = max_iterations
        self._run: Optional[Callable] = None
        next_id = 1
        for stmt in self.statements:
            next_id = stmt._assign_ids(next_id)
        self.node_count = next_id - 1

    def nodes(self) -> List[Statement]:
        """All statements in node-id order."""
        found: List[Statement] = []

        def collect(stmts: Sequence[Statement]) -> None:
            for stmt in stmts:
                found.append(stmt)
                if isinstance(stmt, If):
                    collect(stmt.then)
                    collect(stmt.els)
                elif isinstance(stmt, Loop):
                    collect(stmt.body)

        collect(self.statements)
        return sorted(found, key=lambda s: s.node_id)

    def uses_shared_memory(self) -> bool:
        """Whether the body contains shared-memory accesses."""
        return any(
            isinstance(stmt, (SharedRead, SharedWrite)) for stmt in self.nodes()
        )

    def events_emitted(self) -> List[str]:
        """Events possibly emitted anywhere in the body (sorted)."""
        return sorted({stmt.event for stmt in self.nodes() if isinstance(stmt, Emit)})

    def event_values_read(self) -> List[str]:
        """Event values possibly read anywhere in the body (sorted)."""
        names = set()
        for stmt in self.nodes():
            for expression in _expressions_of(stmt):
                names.update(expression.event_values())
        return sorted(names)

    def execute(self, env: Dict[str, int], shared=None) -> ExecutionTrace:
        """Run the body once under ``env`` and return the trace.

        ``env`` holds variable bindings plus ``"@event"`` keys for the
        values of the triggering events.  The environment is updated in
        place with assignments (mirroring the CFSM's persistent state).
        ``shared`` must provide ``read(addr)``/``write(addr, value)``
        when the body contains shared-memory statements.
        """
        run = self._run
        if run is None:
            run = self._run = compiled_body(self.statements, self.max_iterations)
        return run(env, shared)


# ---------------------------------------------------------------------------
# Compiled bodies.
# ---------------------------------------------------------------------------

#: Compiled transition bodies keyed by content: ``max_iterations`` and
#: the structural signature of every statement, the value identity the
#: codegen and synthesis caches also rely on.  Every build of a system
#: reuses the functions compiled for the first.  The functions keep no
#: state between calls, so threads share them.
_COMPILE_CACHE: LruCache[Callable] = LruCache(capacity=512)

SGRAPH_COMPILE_CACHE_STATS = _COMPILE_CACHE.stats


#: Comparisons; an ``If`` tests them without building the 0/1 value.
_COMPARISONS = {"EQ": "==", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}

#: Operators written out as Python.  Each form evaluates both operands,
#: left first, as ``Expression.evaluate`` does; DIV and MOD call their
#: :mod:`repro.cfsm.expr` definitions.
_BINOP_SOURCE = {
    "ADD": "({0} + {1})",
    "SUB": "({0} - {1})",
    "MUL": "({0} * {1})",
    "DIV": "DIV({0}, {1})",
    "MOD": "MOD({0}, {1})",
    "AND": "({0} & {1})",
    "OR": "({0} | {1})",
    "XOR": "({0} ^ {1})",
    "SHL": "({0} << ({1} & 31))",
    "SHR": "(({0} % 4294967296) >> ({1} & 31))",
    **{op: "(1 if {0} %s {1} else 0)" % symbol for op, symbol in _COMPARISONS.items()},
    "LAND": "((1 if {0} else 0) & (1 if {1} else 0))",
    "LOR": "((1 if {0} else 0) | (1 if {1} else 0))",
}

_UNOP_SOURCE = {
    "NEG": "(-{0})",
    "NOT": "(0 if {0} else 1)",
    "BNOT": "(~{0})",
}


def _unbound(error: KeyError, env: Dict[str, int], readers: Dict[str, Expression]) -> None:
    """Raise what the failed read's ``evaluate`` raises.

    ``readers`` maps every environment key the body reads to its
    ``Var``/``EventValue``.  Returns when ``error`` did not come from
    one of those reads (the caller then re-raises it unchanged).
    """
    if len(error.args) == 1 and isinstance(error.args[0], str):
        read = readers.get(error.args[0])
        if read is not None:
            try:
                read.evaluate(env)
            except KeyError as unbound:
                raise unbound from None


class _BodyCompiler:
    """Compiles one transition body to a Python function.

    Straight-line statements become plain code; the macro-operations
    and memory references they record are static, so each run of them
    adds one constant tuple to the trace.  A run ends where control
    flow begins: the tuple then holds everything up to and including
    the test's own operand reads.
    """

    def __init__(self, max_iterations: int) -> None:
        self.max_iterations = max_iterations
        #: Environment key -> the ``Var``/``EventValue`` reading it.
        self.readers: Dict[str, Expression] = {}
        self.namespace: Dict[str, object] = {
            "ExecutionTrace": ExecutionTrace,
            "SGraphError": SGraphError,
            "DIV": _BINOP_FUNCS["DIV"],
            "MOD": _BINOP_FUNCS["MOD"],
            "unbound": _unbound,
            "READERS": self.readers,
        }
        self.lines: List[str] = []
        self.ops: List[MacroOp] = []
        self.refs: List[MemoryReference] = []
        self.constants = 0

    def compile(self, statements: Sequence[Statement]) -> Callable:
        """``run(env, shared) -> ExecutionTrace`` for ``statements``."""
        self.block(statements, "  ")
        lines = [
            "def run(env, shared):",
            " ops = []",
            " refs = []",
            " path = []",
            " emitted = []",
            " updates = {}",
            " iterations = 0",
            " shared_reads = []",
            " shared_writes = []",
            " try:",
            *(self.lines or ["  pass"]),
            " except KeyError as error:",
            "  unbound(error, env, READERS)",
            "  raise",
            " return ExecutionTrace(ops=ops, path=tuple(path), emitted=emitted,"
            " memory_refs=refs, var_updates=updates, loop_iterations=iterations,"
            " shared_reads=shared_reads, shared_writes=shared_writes)",
        ]
        exec("\n".join(lines), self.namespace)  # noqa: S102 - generated by us
        return self.namespace["run"]  # type: ignore[return-value]

    # -- trace constants ------------------------------------------------------

    def flush(self, indent: str) -> None:
        """Add the pending macro-ops and references to the trace."""
        for pending, target in ((self.ops, "ops"), (self.refs, "refs")):
            if pending:
                name = "K%d" % self.constants
                self.constants += 1
                self.namespace[name] = tuple(pending)
                self.lines.append("%s%s += %s" % (indent, target, name))
                pending.clear()

    def op(self, name: str, operand: str = "") -> None:
        self.ops.append(interned_macro_op(name, operand))

    def ref(self, name: str, is_write: bool) -> None:
        self.refs.append(_memory_ref(name, is_write))

    # -- code -------------------------------------------------------------------

    def expr(self, expression: Expression) -> str:
        """Source evaluating ``expression``; records its trace prelude."""
        self.prelude(expression)
        return self.value(expression)

    def prelude(self, expression: Expression) -> None:
        """Record the reads and operator calls of evaluating ``expression``."""
        for name in expression.variables():
            self.ref(name, False)
        for event in expression.event_values():
            self.op(MacroOpKind.ADETECT, event)
            self.ref("@" + event, False)
        for name in expression.macro_ops():
            self.op(name)

    def test(self, expression: Expression) -> str:
        """Source with the truth value of ``expression``."""
        if isinstance(expression, BinaryOp) and expression.op in _COMPARISONS:
            return "(%s %s %s)" % (self.value(expression.left),
                                   _COMPARISONS[expression.op],
                                   self.value(expression.right))
        return self.value(expression)

    def value(self, expression: Expression) -> str:
        if isinstance(expression, Const):
            return "(%r)" % (expression.value,)
        if isinstance(expression, Var):
            self.readers[expression.name] = expression
            return "env[%r]" % expression.name
        if isinstance(expression, EventValue):
            self.readers[expression.env_key] = expression
            return "env[%r]" % expression.env_key
        if isinstance(expression, BinaryOp):
            return _BINOP_SOURCE[expression.op].format(
                self.value(expression.left), self.value(expression.right))
        if isinstance(expression, UnaryOp):
            return _UNOP_SOURCE[expression.op].format(self.value(expression.operand))
        raise SGraphError("unknown expression type %r" % type(expression).__name__)

    def block(self, statements: Sequence[Statement], indent: str) -> None:
        for stmt in statements:
            self.statement(stmt, indent)
        self.flush(indent)

    def statement(self, stmt: Statement, indent: str) -> None:
        emit_line = self.lines.append
        node = "n%d" % stmt.node_id
        if isinstance(stmt, Assign):
            value = self.expr(stmt.value)
            self.ref(stmt.target, True)
            kind = MacroOpKind.AIVC if isinstance(stmt.value, Const) else MacroOpKind.AVV
            self.op(kind, stmt.target)
            emit_line("%senv[%r] = updates[%r] = %s" % (indent, stmt.target, stmt.target, value))
        elif isinstance(stmt, Emit):
            value = "0" if stmt.value is None else self.expr(stmt.value)
            self.op(MacroOpKind.AEMIT, stmt.event)
            emit_line("%semitted.append((%r, %s))" % (indent, stmt.event, value))
        elif isinstance(stmt, SharedRead):
            self.require_shared("read", stmt, indent)
            address = self.expr(stmt.address)
            self.ref(stmt.target, True)
            self.op(MacroOpKind.ASHRD, stmt.target)
            emit_line("%saddress = %s" % (indent, address))
            emit_line("%senv[%r] = updates[%r] = value = shared.read(address)"
                      % (indent, stmt.target, stmt.target))
            emit_line("%sshared_reads.append((address, value))" % indent)
        elif isinstance(stmt, SharedWrite):
            self.require_shared("write", stmt, indent)
            address = self.expr(stmt.address)
            value = self.expr(stmt.value)
            self.op(MacroOpKind.ASHWR, node)
            emit_line("%saddress = %s" % (indent, address))
            emit_line("%svalue = %s" % (indent, value))
            emit_line("%sshared.write(address, value)" % indent)
            emit_line("%sshared_writes.append((address, value))" % indent)
        elif isinstance(stmt, If):
            self.prelude(stmt.cond)
            cond = self.test(stmt.cond)
            self.flush(indent)
            emit_line("%sif %s:" % (indent, cond))
            for branch, kind, outcome in ((stmt.then, MacroOpKind.TIVART, "T"),
                                          (stmt.els, MacroOpKind.TIVARF, "F")):
                if outcome == "F":
                    emit_line("%selse:" % indent)
                emit_line("%s path.append((%d, %r))" % (indent, stmt.node_id, outcome))
                self.op(kind, node)
                self.block(branch, indent + " ")
        elif isinstance(stmt, Loop):
            count = "count%d" % stmt.node_id
            emit_line("%s%s = max(0, %s)" % (indent, count, self.expr(stmt.count)))
            emit_line("%sif %s > %d:" % (indent, count, self.max_iterations))
            emit_line("%s raise SGraphError('loop at node %d requested %%d iterations"
                      " (max %d)' %% %s)" % (indent, stmt.node_id, self.max_iterations, count))
            emit_line("%siterations += %s" % (indent, count))
            self.flush(indent)
            emit_line("%sfor _ in range(%s):" % (indent, count))
            self.op(MacroOpKind.TLOOPT, node)
            self.block(stmt.body, indent + " ")
            self.op(MacroOpKind.TLOOPF, node)
        else:
            raise SGraphError("unknown statement type %r" % type(stmt).__name__)

    def require_shared(self, access: str, stmt: Statement, indent: str) -> None:
        self.lines.append("%sif shared is None: raise SGraphError(%r)" % (
            indent, "shared %s at node %d without a shared memory" % (access, stmt.node_id)))


def compiled_body(statements: Sequence[Statement], max_iterations: int) -> Callable:
    """The function ``run(env, shared) -> ExecutionTrace`` of a body."""
    from repro.cfsm.fingerprint import statement_signature  # imports this module

    key = (max_iterations, tuple(statement_signature(stmt) for stmt in statements))
    run = _COMPILE_CACHE.get(key)
    if run is None:
        run = _BodyCompiler(max_iterations).compile(statements)
        _COMPILE_CACHE.put(key, run)
    return run


# ---------------------------------------------------------------------------
# Construction helpers mirroring repro.cfsm.expr's lower-case builders.
# ---------------------------------------------------------------------------


def assign(target: str, value) -> Assign:
    """``target := value`` statement."""
    return Assign(target, value)


def emit(event: str, value=None) -> Emit:
    """``emit(event[, value])`` statement."""
    return Emit(event, value)


def if_(cond, then: Sequence[Statement], els: Sequence[Statement] = ()) -> If:
    """Two-way test statement."""
    return If(cond, then, els)


def loop(count, body: Sequence[Statement]) -> Loop:
    """Counted-loop statement."""
    return Loop(count, body)


def shared_read(target: str, address) -> SharedRead:
    """``target := shared_memory[address]`` statement."""
    return SharedRead(target, address)


def shared_write(address, value) -> SharedWrite:
    """``shared_memory[address] := value`` statement."""
    return SharedWrite(address, value)


def _expressions_of(stmt: Statement) -> List[Expression]:
    """All expression roots contained directly in ``stmt``."""
    if isinstance(stmt, Assign):
        return [stmt.value]
    if isinstance(stmt, Emit):
        return [] if stmt.value is None else [stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Loop):
        return [stmt.count]
    if isinstance(stmt, SharedRead):
        return [stmt.address]
    if isinstance(stmt, SharedWrite):
        return [stmt.address, stmt.value]
    return []
