"""Unit tests: CFSM model, network, builder, and validation."""

import pytest

from repro.cfsm.builder import CfsmBuilder, NetworkBuilder
from repro.cfsm.events import Event
from repro.cfsm.expr import const, event_value, gt, var
from repro.cfsm.model import Implementation
from repro.cfsm.sgraph import assign, emit
from repro.cfsm.validate import NetworkValidationError, validate_network


def small_cfsm():
    builder = CfsmBuilder("proc")
    builder.input("GO", has_value=True)
    builder.output("DONE", has_value=True)
    builder.var("x", 0)
    builder.transition("t1", trigger=["GO"], body=[
        assign("x", event_value("GO")),
        emit("DONE", var("x")),
    ])
    return builder.build()


class TestCfsm:
    def test_enabled_transition_requires_trigger(self):
        cfsm = small_cfsm()
        buffer = cfsm.make_buffer()
        state = cfsm.initial_state()
        assert cfsm.enabled_transition(buffer, state) is None
        buffer.deliver(Event("GO", value=2, time=0.0))
        transition = cfsm.enabled_transition(buffer, state)
        assert transition is not None
        assert transition.name == "t1"

    def test_react_consumes_and_updates(self):
        cfsm = small_cfsm()
        buffer = cfsm.make_buffer()
        state = cfsm.initial_state()
        buffer.deliver(Event("GO", value=11, time=0.0))
        transition = cfsm.enabled_transition(buffer, state)
        trace = cfsm.react(transition, buffer, state)
        assert state["x"] == 11
        assert trace.emitted == [("DONE", 11)]
        assert not buffer.present("GO")

    def test_guard_blocks_transition(self):
        builder = CfsmBuilder("guarded")
        builder.input("GO", has_value=True)
        builder.var("count", 0)
        builder.transition(
            "t", trigger=["GO"], guard=gt(var("count"), const(0)), body=[]
        )
        cfsm = builder.build()
        buffer = cfsm.make_buffer()
        buffer.deliver(Event("GO", value=1, time=0.0))
        assert cfsm.enabled_transition(buffer, {"count": 0}) is None
        assert cfsm.enabled_transition(buffer, {"count": 1}) is not None

    def test_declaration_order_is_priority(self):
        builder = CfsmBuilder("prio")
        builder.input("A").input("B")
        builder.transition("first", trigger=["A"], body=[])
        builder.transition("second", trigger=["B"], body=[])
        cfsm = builder.build()
        buffer = cfsm.make_buffer()
        buffer.deliver(Event("A", time=0.0))
        buffer.deliver(Event("B", time=0.0))
        assert cfsm.enabled_transition(buffer, {}).name == "first"

    def test_transition_by_name(self):
        cfsm = small_cfsm()
        assert cfsm.transition_by_name("t1").name == "t1"
        with pytest.raises(KeyError):
            cfsm.transition_by_name("missing")

    def test_consumes_includes_value_reads(self):
        cfsm = small_cfsm()
        assert "GO" in cfsm.transitions[0].consumes


class TestNetwork:
    def build(self):
        net = NetworkBuilder("sys")
        a = net.cfsm("a", mapping=Implementation.SW)
        a.input("IN", has_value=True).output("MID", has_value=True)
        a.transition("t", trigger=["IN"], body=[emit("MID", event_value("IN"))])
        b = net.cfsm("b", mapping=Implementation.HW)
        b.input("MID", has_value=True).var("x", 0)
        b.transition("t", trigger=["MID"], body=[assign("x", event_value("MID"))])
        net.environment_input("IN")
        net.on_bus("MID")
        return net.build()

    def test_partition_queries(self):
        network = self.build()
        assert [c.name for c in network.software_cfsms()] == ["a"]
        assert [c.name for c in network.hardware_cfsms()] == ["b"]

    def test_consumers_and_producers(self):
        network = self.build()
        assert [c.name for c in network.consumers_of("MID")] == ["b"]
        assert [c.name for c in network.producers_of("MID")] == ["a"]

    def test_external_inputs(self):
        network = self.build()
        assert network.external_inputs() == {"IN"}

    def test_remap(self):
        network = self.build()
        network.remap("a", Implementation.HW)
        assert network.implementation("a") == Implementation.HW
        with pytest.raises(ValueError):
            network.remap("a", "fpga")

    def test_duplicate_name_rejected(self):
        net = NetworkBuilder("dup")
        net.cfsm("x", mapping=Implementation.SW)
        with pytest.raises(ValueError):
            net.cfsm("x", mapping=Implementation.SW)


class TestValidation:
    def test_undeclared_variable_flagged(self):
        builder = CfsmBuilder("bad")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[assign("ghost", const(1))])
        cfsm = builder.build()
        net = NetworkBuilder("n")
        wrapped = net.cfsm("ok", mapping=Implementation.SW)
        wrapped.input("GO")
        wrapped.transition("t", trigger=["GO"], body=[])
        network = net.build(validate=False)
        network.add(cfsm, Implementation.SW)
        issues = validate_network(network, strict=False)
        assert any("ghost" in issue for issue in issues)

    def test_dangling_input_flagged(self):
        net = NetworkBuilder("n")
        proc = net.cfsm("p", mapping=Implementation.SW)
        proc.input("NOWHERE")
        proc.transition("t", trigger=["NOWHERE"], body=[])
        with pytest.raises(NetworkValidationError) as info:
            net.build()
        assert "NOWHERE" in str(info.value)

    def test_emit_value_on_pure_event_flagged(self):
        builder = CfsmBuilder("bad")
        builder.input("GO")
        builder.output("PURE")  # no value
        builder.transition("t", trigger=["GO"], body=[emit("PURE", const(1))])
        cfsm = builder.build()
        from repro.lint.network_rules import check_cfsm

        issues = check_cfsm(cfsm)
        assert any("pure event" in issue.message for issue in issues)

    def test_undeclared_trigger_rejected_at_build(self):
        builder = CfsmBuilder("bad")
        with pytest.raises(ValueError):
            builder.transition("t", trigger=["MISSING"], body=[])
