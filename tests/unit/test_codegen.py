"""Unit tests: the s-graph to instruction compiler."""

import pytest

from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.expr import UnaryOp, add, const, eq, event_value, land, lt, mod, var
from repro.cfsm.sgraph import assign, emit, if_, loop, shared_read, shared_write
from repro.sw.codegen import (
    CodegenError,
    MemoryMap,
    SHARED_MEMORY_BASE,
    compile_cfsm,
    transition_label,
)
from repro.sw.iss import Iss


def make_cfsm(body, variables=None, name="unit"):
    builder = CfsmBuilder(name)
    builder.input("GO", has_value=True)
    builder.output("OUT", has_value=True)
    for var_name, initial in (variables or {"a": 0, "b": 0}).items():
        builder.var(var_name, initial)
    builder.transition("t", trigger=["GO"], body=body)
    return builder.build()


def run(cfsm, mailbox_value=0, extra_memory=None):
    compiled = compile_cfsm(cfsm)
    memory = {
        compiled.memory_map.variables[name]: value
        for name, value in cfsm.initial_state().items()
    }
    memory[compiled.memory_map.event_mailboxes["GO"]] = mailbox_value
    memory.update(extra_memory or {})
    iss = Iss(compiled.program)
    result = iss.run(transition_label(cfsm.name, "t"), memory)
    return compiled, memory, result


class TestMemoryMap:
    def test_layout_is_deterministic(self):
        cfsm = make_cfsm([assign("a", const(1))], {"a": 0, "b": 0})
        map_one = MemoryMap.for_cfsm(cfsm)
        map_two = MemoryMap.for_cfsm(cfsm)
        assert map_one.variables == map_two.variables
        assert map_one.size_words == len(map_one.variables) + 1 + 2

    def test_base_offsets(self):
        cfsm = make_cfsm([assign("a", const(1))])
        layout = MemoryMap.for_cfsm(cfsm, base=0x100)
        assert all(addr >= 0x100 for addr in layout.variables.values())

    def test_unknown_lookups_raise(self):
        cfsm = make_cfsm([assign("a", const(1))])
        layout = MemoryMap.for_cfsm(cfsm)
        with pytest.raises(KeyError):
            layout.variable_address("nope")
        with pytest.raises(KeyError):
            layout.mailbox_address("nope")


class TestCompilation:
    def test_assignment(self):
        cfsm = make_cfsm([assign("a", add(var("b"), const(3)))], {"a": 0, "b": 4})
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.variables["a"]] == 7

    def test_emit_writes_value_and_doorbell(self):
        cfsm = make_cfsm([emit("OUT", const(5))])
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.emit_values["OUT"]] == 5
        assert memory[compiled.memory_map.emit_doorbells["OUT"]] == 1

    def test_if_else(self):
        body = [if_(eq(event_value("GO"), const(1)),
                    [assign("a", const(10))],
                    [assign("a", const(20))])]
        cfsm = make_cfsm(body)
        compiled, memory, _ = run(cfsm, mailbox_value=1)
        assert memory[compiled.memory_map.variables["a"]] == 10
        compiled, memory, _ = run(cfsm, mailbox_value=2)
        assert memory[compiled.memory_map.variables["a"]] == 20

    def test_comparison_materialization(self):
        cfsm = make_cfsm([assign("a", lt(var("b"), const(5)))], {"a": 9, "b": 3})
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.variables["a"]] == 1

    def test_logical_ops(self):
        cfsm = make_cfsm(
            [assign("a", land(var("b"), UnaryOp("NOT", var("a"))))], {"a": 0, "b": 7}
        )
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.variables["a"]] == 1

    def test_mod_matches_semantics(self):
        cfsm = make_cfsm([assign("a", mod(const(-7), const(3)))])
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.variables["a"]] == -7 - int(-7 / 3) * 3

    def test_nested_loops(self):
        body = [loop(const(3), [loop(const(4), [
            assign("a", add(var("a"), const(1)))])])]
        cfsm = make_cfsm(body)
        compiled, memory, _ = run(cfsm)
        assert memory[compiled.memory_map.variables["a"]] == 12

    def test_loop_nesting_limit(self):
        body = [loop(const(1), [loop(const(1), [loop(const(1), [loop(const(1), [
            loop(const(1), [assign("a", const(1))])])])])])]
        cfsm = make_cfsm(body)
        with pytest.raises(CodegenError):
            compile_cfsm(cfsm)

    def test_shared_access_addressing(self):
        body = [
            shared_write(const(3), const(9)),
            shared_read("a", const(3)),
        ]
        cfsm = make_cfsm(body)
        compiled, memory, _ = run(cfsm)
        assert memory[SHARED_MEMORY_BASE + 3] == 9
        assert memory[compiled.memory_map.variables["a"]] == 9

    def test_each_transition_gets_entry_label(self):
        builder = CfsmBuilder("two")
        builder.input("A").input("B")
        builder.var("x", 0)
        builder.transition("ta", trigger=["A"], body=[assign("x", const(1))])
        builder.transition("tb", trigger=["B"], body=[assign("x", const(2))])
        compiled = compile_cfsm(builder.build())
        assert compiled.program.entry(transition_label("two", "ta")) >= 0
        assert compiled.program.entry(transition_label("two", "tb")) >= 0

    def test_generated_code_is_reasonably_sized(self):
        cfsm = make_cfsm([assign("a", add(var("b"), const(1)))])
        compiled = compile_cfsm(cfsm)
        # Naive codegen: load, seti, add, store, ret — about 5-8 words.
        assert 4 <= len(compiled.program.instructions) <= 12
