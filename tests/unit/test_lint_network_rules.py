"""Unit tests: per-CFSM and cross-CFSM lint rules."""

from repro.cfsm.builder import CfsmBuilder, NetworkBuilder
from repro.cfsm.expr import const, event_value, gt, var
from repro.cfsm.model import Implementation, Transition
from repro.cfsm.sgraph import (
    SGraph,
    assign,
    emit,
    shared_write,
)
from repro.cfsm.validate import validate_network
from repro.lint.network_rules import check_cfsm, check_network


def codes(diagnostics):
    return {d.code for d in diagnostics}


def one(diagnostics, code):
    matches = [d for d in diagnostics if d.code == code]
    assert len(matches) == 1, "expected one %s, got %r" % (code, matches)
    return matches[0]


class TestCfsmRules:
    def test_clean_cfsm(self):
        builder = CfsmBuilder("ok")
        builder.input("GO", has_value=True).output("DONE", has_value=True)
        builder.var("x", 0)
        builder.transition("t", trigger=["GO"], body=[
            assign("x", event_value("GO")),
            emit("DONE", var("x")),
        ])
        assert check_cfsm(builder.build()) == []

    def test_duplicate_transition_name(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[])
        builder.transition("t", trigger=["GO"], body=[])
        finding = one(check_cfsm(builder.build()), "CFSM001")
        assert finding.location.transition == "t"

    def test_missing_trigger(self):
        builder = CfsmBuilder("p")
        builder.transition("t", trigger=[], body=[])
        assert "CFSM002" in codes(check_cfsm(builder.build()))

    def test_undeclared_trigger(self):
        # The fluent builder rejects this at declaration time, so
        # splice the transition in the way a hand-built model could.
        builder = CfsmBuilder("p")
        builder.input("GO")
        cfsm = builder.build()
        cfsm.transitions.append(Transition(
            name="bad", trigger=("GHOST",), body=SGraph([]),
        ))
        finding = one(check_cfsm(cfsm), "CFSM003")
        assert finding.data["event"] == "GHOST"

    def test_assign_undeclared_variable(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"],
                           body=[assign("ghost", const(1))])
        finding = one(check_cfsm(builder.build()), "CFSM004")
        assert finding.data["variable"] == "ghost"
        assert finding.location.node == 1

    def test_emit_undeclared_output(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[emit("NOPE")])
        assert "CFSM005" in codes(check_cfsm(builder.build()))

    def test_value_on_pure_event(self):
        builder = CfsmBuilder("p")
        builder.input("GO").output("PURE")
        builder.transition("t", trigger=["GO"],
                           body=[emit("PURE", const(1))])
        assert "CFSM006" in codes(check_cfsm(builder.build()))

    def test_valueless_emit_on_valued_event(self):
        builder = CfsmBuilder("p")
        builder.input("GO").output("DATA", has_value=True)
        builder.transition("t", trigger=["GO"], body=[emit("DATA")])
        assert "CFSM012" in codes(check_cfsm(builder.build()))

    def test_reads_undeclared_variable(self):
        builder = CfsmBuilder("p")
        builder.input("GO").output("DATA", has_value=True)
        builder.transition("t", trigger=["GO"],
                           body=[emit("DATA", var("ghost"))])
        assert "CFSM007" in codes(check_cfsm(builder.build()))

    def test_reads_undeclared_event_value(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.var("x", 0)
        builder.transition("t", trigger=["GO"],
                           body=[assign("x", event_value("OTHER"))])
        assert "CFSM008" in codes(check_cfsm(builder.build()))

    def test_reads_pure_event_value(self):
        builder = CfsmBuilder("p")
        builder.input("GO")  # pure
        builder.var("x", 0)
        builder.transition("t", trigger=["GO"],
                           body=[assign("x", event_value("GO"))])
        assert "CFSM009" in codes(check_cfsm(builder.build()))

    def test_undeclared_shared_variable(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[])
        cfsm = builder.build()
        cfsm.shared_variables.add("ghost")
        finding = one(check_cfsm(cfsm), "CFSM010")
        assert finding.location.variable == "ghost"

    def test_guard_reads_undeclared_variable(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[],
                           guard=gt(var("ghost"), const(0)))
        assert "CFSM011" in codes(check_cfsm(builder.build()))

    def test_consumes_undeclared_event(self):
        builder = CfsmBuilder("p")
        builder.input("GO")
        builder.transition("t", trigger=["GO"], body=[],
                           consumes=["OTHER"])
        assert "CFSM013" in codes(check_cfsm(builder.build()))


def network(validate=False, environment=("GO",), **kwargs):
    """Two-process network: env-driven ``a`` emits ``MID`` to ``b``."""
    net = NetworkBuilder("sys")
    a = net.cfsm("a", mapping=Implementation.SW)
    a.input("GO").output("MID", has_value=True)
    a.transition("t", trigger=["GO"], body=[emit("MID", const(1))])
    b = net.cfsm("b", mapping=Implementation.SW)
    b.input("MID", has_value=True).var("x", 0)
    b.transition("t", trigger=["MID"],
                 body=[assign("x", event_value("MID"))])
    net.environment_input(*environment)
    return net, net.build(validate=validate)


class TestNetworkRules:
    def test_clean_network(self):
        _, built = network()
        assert check_network(built) == []

    def test_unmapped_cfsm(self):
        _, built = network()
        del built.mapping["b"]
        finding = one(check_network(built), "NET101")
        assert finding.location.cfsm == "b"

    def test_undriven_input(self):
        _, built = network(environment=())
        finding = one(check_network(built), "NET102")
        assert finding.location.event == "GO"
        assert "'a'" in finding.message or "[a]" in finding.message

    def test_unknown_bus_event(self):
        _, built = network()
        built.bus_events.add("PHANTOM")
        finding = one(check_network(built), "NET103")
        assert finding.location.event == "PHANTOM"

    def test_unwatched_reset_event(self):
        _, built = network()
        built.reset_events.add("RESET")
        assert "NET104" in codes(check_network(built))

    def test_trigger_on_reset_event(self):
        _, built = network()
        built.reset_events.add("GO")
        built.environment_inputs.add("GO")
        finding = one(check_network(built), "NET105")
        assert finding.location.cfsm == "a"
        assert finding.location.transition == "t"

    def test_event_type_conflict(self):
        _, built = network()
        # b declares MID as an 8-bit input while a emits 16-bit values.
        built.cfsms["b"].inputs["MID"] = type(
            built.cfsms["b"].inputs["MID"]
        )("MID", has_value=True, width=8)
        finding = one(check_network(built), "NET106")
        assert finding.location.event == "MID"
        assert "width=8" in finding.message
        assert "width=16" in finding.message

    def test_multi_producer_event(self):
        net = NetworkBuilder("sys")
        for name in ("p1", "p2"):
            producer = net.cfsm(name, mapping=Implementation.SW)
            producer.input("GO").output("OUT", has_value=True)
            producer.transition("t", trigger=["GO"],
                                body=[emit("OUT", const(1))])
        consumer = net.cfsm("c", mapping=Implementation.SW)
        consumer.input("OUT", has_value=True).var("x", 0)
        consumer.transition("t", trigger=["OUT"],
                            body=[assign("x", event_value("OUT"))])
        net.environment_input("GO")
        finding = one(check_network(net.build(validate=False)), "NET107")
        assert finding.data["producers"] == ["p1", "p2"]

    def test_unconsumed_output(self):
        _, built = network()
        built.cfsms["a"].outputs["SPARE"] = type(
            built.cfsms["a"].outputs["MID"]
        )("SPARE", has_value=False, width=16)
        finding = one(check_network(built), "NET109")
        assert finding.location.event == "SPARE"


def racy_pair(handshake=False):
    """Two processes writing shared address 0x40; optionally ordered
    by an emit→trigger handshake from ``w1`` to ``w2``."""
    net = NetworkBuilder("race")
    w1 = net.cfsm("w1", mapping=Implementation.SW)
    w1.input("GO")
    body = [shared_write(const(0x40), const(1))]
    if handshake:
        w1.output("STORED")
        body.append(emit("STORED"))
    w1.transition("t", trigger=["GO"], body=body)
    w2 = net.cfsm("w2", mapping=Implementation.SW)
    w2.input("STORED" if handshake else "GO")
    w2.transition(
        "t", trigger=["STORED" if handshake else "GO"],
        body=[shared_write(const(0x40), const(2))],
    )
    net.environment_input("GO")
    return net.build(validate=False)


class TestSharedWriteRaces:
    def test_unordered_writes_reported(self):
        finding = one(check_network(racy_pair()), "NET108")
        assert finding.data["addresses"] == [0x40]
        assert finding.data["other"] == "w2"
        assert "0x40" in finding.message

    def test_handshake_suppresses(self):
        diagnostics = check_network(racy_pair(handshake=True))
        assert "NET108" not in codes(diagnostics)

    def test_distinct_addresses_do_not_race(self):
        built = racy_pair()
        [stmt] = built.cfsms["w2"].transitions[0].body.statements
        stmt.address = const(0x41)
        assert "NET108" not in codes(check_network(built))


class TestValidateFacade:
    """The legacy validate API rides on the lint rules."""

    def test_advisory_rules_not_in_validate(self):
        # NET108/NET109 are advisory: strict builds must not fail on
        # designs that validated before the lint subsystem existed.
        issues = validate_network(racy_pair(), strict=False)
        assert issues == []
