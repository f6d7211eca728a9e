"""Bit-identity of compiled transition bodies against a reference.

:func:`reference_execute` is a tree-walking interpreter with the
documented s-graph semantics: it runs one statement at a time and
evaluates expressions with ``Expression.evaluate``.  ``SGraph.execute``
runs generated code instead and must reproduce every
:class:`ExecutionTrace` field, the final environment, the sequence of
shared-memory reads and writes, and every raised error (type and
message).  ``tests/integration/test_compiled_bodies.py`` swaps this
interpreter into whole co-estimation runs.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfsm.actions import MacroOpKind, interned_macro_op
from repro.cfsm.expr import (
    BinaryOp,
    Const,
    UnaryOp,
    add,
    binary_operator_names,
    const,
    div,
    event_value,
    land,
    lor,
    unary_operator_names,
    var,
)
from repro.cfsm.sgraph import (
    DEFAULT_MAX_ITERATIONS,
    Assign,
    Emit,
    ExecutionTrace,
    If,
    Loop,
    SGraph,
    SGraphError,
    SharedRead,
    SharedWrite,
    _memory_ref,
    assign,
    emit,
    if_,
    loop,
    shared_read,
    shared_write,
)

from tests.generators import (
    EVENT_IN,
    VAR_NAMES,
    hw_bodies,
    hw_values,
    sw_bodies,
    sw_values,
    var_bindings,
)


# -- the reference interpreter ------------------------------------------------


def reference_execute(graph, env, shared=None):
    """Run ``graph`` once under ``env``; same contract as ``SGraph.execute``."""
    trace = ExecutionTrace()
    path = []
    _run_block(graph, graph.statements, env, shared, trace, path)
    trace.path = tuple(path)
    return trace


def _run_block(graph, statements, env, shared, trace, path):
    for stmt in statements:
        _run_statement(graph, stmt, env, shared, trace, path)


def _run_statement(graph, stmt, env, shared, trace, path):
    node = "n%d" % stmt.node_id
    if isinstance(stmt, Assign):
        value = _eval(stmt.value, env, trace)
        env[stmt.target] = value
        trace.var_updates[stmt.target] = value
        trace.memory_refs.append(_memory_ref(stmt.target, True))
        kind = MacroOpKind.AIVC if isinstance(stmt.value, Const) else MacroOpKind.AVV
        trace.ops.append(interned_macro_op(kind, stmt.target))
    elif isinstance(stmt, Emit):
        value = 0 if stmt.value is None else _eval(stmt.value, env, trace)
        trace.emitted.append((stmt.event, value))
        trace.ops.append(interned_macro_op(MacroOpKind.AEMIT, stmt.event))
    elif isinstance(stmt, SharedRead):
        if shared is None:
            raise SGraphError(
                "shared read at node %d without a shared memory" % stmt.node_id)
        address = _eval(stmt.address, env, trace)
        value = shared.read(address)
        env[stmt.target] = value
        trace.var_updates[stmt.target] = value
        trace.shared_reads.append((address, value))
        trace.memory_refs.append(_memory_ref(stmt.target, True))
        trace.ops.append(interned_macro_op(MacroOpKind.ASHRD, stmt.target))
    elif isinstance(stmt, SharedWrite):
        if shared is None:
            raise SGraphError(
                "shared write at node %d without a shared memory" % stmt.node_id)
        address = _eval(stmt.address, env, trace)
        value = _eval(stmt.value, env, trace)
        shared.write(address, value)
        trace.shared_writes.append((address, value))
        trace.ops.append(interned_macro_op(MacroOpKind.ASHWR, node))
    elif isinstance(stmt, If):
        taken = bool(_eval(stmt.cond, env, trace))
        path.append((stmt.node_id, "T" if taken else "F"))
        kind = MacroOpKind.TIVART if taken else MacroOpKind.TIVARF
        trace.ops.append(interned_macro_op(kind, node))
        _run_block(graph, stmt.then if taken else stmt.els, env, shared, trace, path)
    elif isinstance(stmt, Loop):
        count = max(0, _eval(stmt.count, env, trace))
        if count > graph.max_iterations:
            raise SGraphError(
                "loop at node %d requested %d iterations (max %d)"
                % (stmt.node_id, count, graph.max_iterations))
        for _ in range(count):
            trace.ops.append(interned_macro_op(MacroOpKind.TLOOPT, node))
            trace.loop_iterations += 1
            _run_block(graph, stmt.body, env, shared, trace, path)
        trace.ops.append(interned_macro_op(MacroOpKind.TLOOPF, node))
    else:
        raise SGraphError("unknown statement type %r" % type(stmt).__name__)


def _eval(expression, env, trace):
    """Record the reads and operator calls of ``expression``; evaluate it."""
    trace.memory_refs.extend(_memory_ref(name, False) for name in expression.variables())
    for event in expression.event_values():
        trace.ops.append(interned_macro_op(MacroOpKind.ADETECT, event))
        trace.memory_refs.append(_memory_ref("@" + event, False))
    trace.ops.extend(interned_macro_op(name) for name in expression.macro_ops())
    return expression.evaluate(env)


# -- comparison ---------------------------------------------------------------


class RecordingShared:
    """Shared memory that logs every access; unwritten words read as
    a function of their address."""

    def __init__(self, fail_reads=False):
        self.words = {}
        self.log = []
        self.fail_reads = fail_reads

    def read(self, address):
        if self.fail_reads:
            raise KeyError("word %d" % address)
        value = self.words.get(address, 3 * address + 1)
        self.log.append(("read", address, value))
        return value

    def write(self, address, value):
        self.words[address] = value
        self.log.append(("write", address, value))


def outcome(execute, graph, env, shared):
    """Everything observable about one execution, as a repr string.

    ``repr`` keeps dict order and tells ``True`` from ``1``.
    """
    env = dict(env)
    try:
        trace = execute(graph, env, shared)
    except Exception as error:  # noqa: BLE001 - compared below
        result = ("raised", type(error).__name__, str(error))
    else:
        result = ("returned", [(field.name, getattr(trace, field.name))
                               for field in dataclasses.fields(trace)])
    log = None if shared is None else shared.log
    return repr((result, env, log))


def compiled_execute(graph, env, shared):
    return graph.execute(env, shared=shared)


def assert_same(statements, env, max_iterations=DEFAULT_MAX_ITERATIONS,
                with_shared=True, fail_reads=False):
    graph = SGraph(statements, max_iterations=max_iterations)

    def shared():
        return RecordingShared(fail_reads) if with_shared else None

    expected = outcome(reference_execute, graph, env, shared())
    assert outcome(compiled_execute, graph, env, shared()) == expected
    return expected


@st.composite
def environments(draw, values):
    """Bindings with some variables or the event value left unbound."""
    env = draw(var_bindings(values))
    for name in draw(st.sets(st.sampled_from(VAR_NAMES), max_size=2)):
        del env[name]
    event = draw(st.one_of(st.none(), values))
    if event is not None:
        env["@" + EVENT_IN] = event
    return env


MAX_ITERATIONS = st.sampled_from([DEFAULT_MAX_ITERATIONS, 3, 0])


class TestRandomBodies:
    @settings(max_examples=300)
    @given(sw_bodies(), environments(sw_values()), MAX_ITERATIONS,
           st.sampled_from([True, True, True, False]))
    def test_software_bodies(self, statements, env, max_iterations, with_shared):
        assert_same(statements, env, max_iterations, with_shared)

    @settings(max_examples=200)
    @given(hw_bodies(), environments(hw_values()), MAX_ITERATIONS,
           st.sampled_from([True, True, True, False]))
    def test_hardware_bodies(self, statements, env, max_iterations, with_shared):
        assert_same(statements, env, max_iterations, with_shared)


#: Operands around the edges of every operator's semantics: signs,
#: zero divisors, shift amounts past 31, the 32-bit wrap of SHR.
EDGE_VALUES = (0, 1, -1, 2, -7, 31, 33, 2 ** 32 - 1, 2 ** 32, -(2 ** 40), True)


class TestOperators:
    @pytest.mark.parametrize("op", binary_operator_names())
    def test_binary_operator(self, op):
        for left in EDGE_VALUES:
            for right in EDGE_VALUES:
                assert_same([assign("a", BinaryOp(op, var("x"), var("y"))),
                             if_(BinaryOp(op, var("y"), const(left)),
                                 [emit("T")], [emit("F")])],
                            {"x": left, "y": right})

    @pytest.mark.parametrize("op", unary_operator_names())
    def test_unary_operator(self, op):
        for value in EDGE_VALUES:
            assert_same([assign("a", UnaryOp(op, var("x"))),
                         if_(UnaryOp(op, var("x")), [emit("T")])],
                        {"x": value})

    def test_shared_access_order_with_computed_addresses(self):
        assert_same([shared_write(add(var("a"), const(1)), add(var("b"), event_value("IN"))),
                     shared_read("c", add(var("b"), var("a")))],
                    {"a": 2, "b": 3, "@IN": 4})


class TestErrorPaths:
    """Each error the compiled bodies must raise like the interpreter."""

    @pytest.mark.parametrize("statements, env, kwargs, message", [
        ([assign("a", const(1)), assign("b", add(var("c"), const(1)))],
         {}, {}, "\"variable 'c' is unbound\""),
        ([emit("OUT", event_value("IN"))],
         {"a": 0}, {}, "\"value of event 'IN' is not available in this transition\""),
        ([assign("a", const(2)), loop(var("a"), [emit("OUT")])],
         {}, {"max_iterations": 1}, "loop at node 2 requested 2 iterations (max 1)"),
        ([assign("a", const(0)), shared_read("b", const(4))],
         {}, {"with_shared": False}, "shared read at node 2 without a shared memory"),
        ([shared_write(const(4), const(5))],
         {}, {"with_shared": False}, "shared write at node 1 without a shared memory"),
        ([if_(var("a"), [shared_read("b", const(4))])],
         {"a": 1}, {"fail_reads": True}, "'word 4'"),
        ([assign("a", land(const(0), var("c")))],
         {}, {}, "\"variable 'c' is unbound\""),
        ([emit("OUT", lor(const(1), event_value("IN")))],
         {}, {}, "\"value of event 'IN' is not available in this transition\""),
    ])
    def test_error_matches_reference(self, statements, env, kwargs, message):
        result = assert_same(statements, env, **kwargs)
        assert repr(message) in result

    def test_error_keeps_earlier_updates(self):
        statements = [assign("a", const(7)), shared_write(var("a"), var("a")),
                      assign("b", div(var("a"), var("d")))]
        result = assert_same(statements, {})
        assert "'a': 7" in result and "('write', 7, 7)" in result
