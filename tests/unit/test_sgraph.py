"""Unit tests: s-graph statements, interpretation, and traces."""

import pytest

from repro.cfsm.actions import MacroOpKind
from repro.cfsm.expr import add, const, eq, event_value, gt, var
from repro.cfsm.sgraph import (
    SGraph,
    SGraphError,
    assign,
    emit,
    if_,
    loop,
    shared_read,
    shared_write,
)


class DictShared:
    def __init__(self):
        self.words = {}

    def read(self, address):
        return self.words.get(address, 0)

    def write(self, address, value):
        self.words[address] = value


class TestNodeNumbering:
    def test_depth_first_ids(self):
        graph = SGraph([
            assign("a", const(1)),                   # node 1
            if_(gt(var("a"), const(0)), [            # node 2
                assign("b", const(2)),               # node 3
            ], [
                assign("b", const(3)),               # node 4
            ]),
            loop(const(2), [assign("c", const(4))]),  # nodes 5, 6
        ])
        ids = [node.node_id for node in graph.nodes()]
        assert ids == [1, 2, 3, 4, 5, 6]
        assert graph.node_count == 6


class TestExecution:
    def test_assign_and_macro_ops(self):
        graph = SGraph([assign("a", add(var("b"), const(1)))])
        env = {"a": 0, "b": 4}
        trace = graph.execute(env)
        assert env["a"] == 5
        assert trace.op_names == ["ADD", "AVV"]
        assert trace.var_updates == {"a": 5}

    def test_constant_assign_is_aivc(self):
        graph = SGraph([assign("a", const(9))])
        trace = graph.execute({"a": 0})
        assert trace.op_names == [MacroOpKind.AIVC]

    def test_branch_outcomes_recorded_in_path(self):
        graph = SGraph([
            if_(eq(var("a"), const(1)), [emit("T")], [emit("F")]),
        ])
        taken = graph.execute({"a": 1})
        untaken = graph.execute({"a": 0})
        assert taken.path != untaken.path
        assert taken.emitted == [("T", 0)]
        assert untaken.emitted == [("F", 0)]
        assert MacroOpKind.TIVART in taken.op_names
        assert MacroOpKind.TIVARF in untaken.op_names

    def test_loop_count_not_in_path(self):
        """The cache key ignores loop trip counts (Section 4.2)."""
        graph = SGraph([loop(var("n"), [assign("a", add(var("a"), const(1)))])])
        short = graph.execute({"n": 1, "a": 0})
        long = graph.execute({"n": 5, "a": 0})
        assert short.path == long.path
        assert short.loop_iterations == 1
        assert long.loop_iterations == 5

    def test_negative_loop_count_runs_zero_times(self):
        graph = SGraph([loop(var("n"), [assign("a", const(1))])])
        env = {"n": -3, "a": 0}
        graph.execute(env)
        assert env["a"] == 0

    def test_loop_bound_guard(self):
        graph = SGraph([loop(var("n"), [assign("a", const(1))])],
                       max_iterations=10)
        with pytest.raises(SGraphError):
            graph.execute({"n": 11, "a": 0})

    def test_event_value_reads_tagged_env(self):
        graph = SGraph([assign("a", event_value("E"))])
        env = {"a": 0, "@E": 42}
        trace = graph.execute(env)
        assert env["a"] == 42
        assert MacroOpKind.ADETECT in trace.op_names

    def test_memory_refs_order(self):
        graph = SGraph([assign("a", add(var("b"), var("c")))])
        trace = graph.execute({"a": 0, "b": 1, "c": 2})
        names = [(ref.name, ref.is_write) for ref in trace.memory_refs]
        assert names == [("b", False), ("c", False), ("a", True)]


class TestSharedMemory:
    def test_read_write_roundtrip(self):
        shared = DictShared()
        graph = SGraph([
            shared_write(const(4), const(77)),
            shared_read("a", const(4)),
        ])
        env = {"a": 0}
        trace = graph.execute(env, shared=shared)
        assert env["a"] == 77
        assert trace.shared_writes == [(4, 77)]
        assert trace.shared_reads == [(4, 77)]

    def test_shared_without_memory_raises(self):
        graph = SGraph([shared_read("a", const(0))])
        with pytest.raises(SGraphError):
            graph.execute({"a": 0})

    def test_uses_shared_memory_detection(self):
        assert SGraph([shared_write(const(0), const(1))]).uses_shared_memory()
        assert not SGraph([assign("a", const(1))]).uses_shared_memory()


class TestIntrospection:
    def test_events_emitted(self):
        graph = SGraph([emit("X"), emit("Y", const(1))])
        assert graph.events_emitted() == ["X", "Y"]

    def test_event_values_read(self):
        graph = SGraph([assign("a", event_value("E"))])
        assert graph.event_values_read() == ["E"]
