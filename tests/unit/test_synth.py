"""Unit tests: RTL lowering and structural synthesis."""

import pytest

from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.expr import add, const, event_value, lt, mul, var
from repro.cfsm.sgraph import assign, emit, if_, loop, shared_read
from repro.hw.estimator import (
    HW_RUN_MEMO_STATS,
    HardwarePowerSimulator,
    HwEstimatorError,
    clear_hw_run_memo,
)
from repro.hw.power import probabilistic_power, propagate_probabilities
from repro.hw.synth import (
    AluOp,
    DoneOp,
    EmitOp,
    RtlCompiler,
    SynthesisError,
    TestOp,
    synthesize_cfsm,
)


def make_cfsm(body, width=16):
    builder = CfsmBuilder("synth", width=width)
    builder.input("GO", has_value=True)
    builder.output("OUT", has_value=True)
    builder.var("a", 0).var("b", 3)
    builder.transition("t", trigger=["GO"], body=body)
    return builder.build()


class TestRtlCompiler:
    def test_assignment_lowered_to_single_alu_op(self):
        program = RtlCompiler(make_cfsm([assign("a", add(var("b"), const(1)))])).compile()
        alu_ops = [op for op in program.ops if isinstance(op, AluOp)]
        assert len(alu_ops) == 1
        assert alu_ops[0].dest == "a"
        assert alu_ops[0].op == "ADD"

    def test_every_transition_ends_with_done(self):
        program = RtlCompiler(make_cfsm([assign("a", const(1))])).compile()
        assert isinstance(program.ops[-1], DoneOp)

    def test_if_produces_test_with_two_targets(self):
        body = [if_(lt(var("a"), const(5)), [assign("a", const(1))],
                    [assign("a", const(2))])]
        program = RtlCompiler(make_cfsm(body)).compile()
        tests = [op for op in program.ops if isinstance(op, TestOp)]
        assert len(tests) == 1
        assert tests[0].next != tests[0].next_taken

    def test_loop_back_edge(self):
        body = [loop(const(3), [assign("a", add(var("a"), const(1)))])]
        program = RtlCompiler(make_cfsm(body)).compile()
        # The decrement op jumps backwards to the loop test.
        back_edges = [
            op for op in program.ops
            if isinstance(op, AluOp) and op.next < program.ops.index(op)
        ]
        assert back_edges

    def test_mul_rejected(self):
        with pytest.raises(SynthesisError):
            RtlCompiler(make_cfsm([assign("a", mul(var("a"), const(2)))])).compile()

    def test_reference_executor(self):
        body = [
            assign("a", const(0)),
            loop(const(4), [assign("a", add(var("a"), const(2)))]),
            emit("OUT", var("a")),
        ]
        program = RtlCompiler(make_cfsm(body)).compile()
        state = {"a": 0, "b": 3}
        cycles, emitted = program.execute("t", state, {"GO": 0})
        assert state["a"] == 8
        assert emitted == [("OUT", 8)]
        assert cycles > 4  # loop iterations each cost test + body + dec


class TestStructuralSynthesis:
    def test_ports_exposed(self):
        block = synthesize_cfsm(make_cfsm([emit("OUT", event_value("GO"))]))
        assert "t" in block.go_ports
        assert "GO" in block.input_ports
        assert "OUT" in block.value_ports
        assert "OUT" in block.strobe_ports
        assert "a" in block.register_ports

    def test_gate_counts_scale_with_width(self):
        narrow = synthesize_cfsm(make_cfsm([assign("a", add(var("a"), const(1)))],
                                           width=8))
        wide = synthesize_cfsm(make_cfsm([assign("a", add(var("a"), const(1)))],
                                         width=24))
        assert wide.netlist.gate_count > narrow.netlist.gate_count

    def test_netlist_passes_structural_check(self):
        block = synthesize_cfsm(make_cfsm([
            if_(lt(var("a"), const(3)), [emit("OUT", var("a"))]),
        ]))
        block.netlist.check()  # must not raise


class TestHardwareEstimator:
    def test_unknown_transition_rejected(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(1))]))
        with pytest.raises(KeyError):
            simulator.run_transition("nope")

    def test_missing_read_script_detected(self):
        cfsm = make_cfsm([shared_read("a", const(0))])
        simulator = HardwarePowerSimulator(cfsm)
        with pytest.raises(HwEstimatorError):
            simulator.run_transition("t", {"GO": 0}, read_values=[])

    def test_idle_energy_positive(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(1))]))
        assert simulator.idle_energy_per_cycle() > 0

    def test_invocation_statistics(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(7))]))
        simulator.run_transition("t", {"GO": 0})
        simulator.run_transition("t", {"GO": 0})
        assert simulator.invocations == 2
        assert simulator.total_cycles > 0
        assert simulator.total_energy > 0

    def test_poke_then_read_roundtrip(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(1))]))
        simulator.poke_variables({"b": 123})
        assert simulator.read_variable("b") == 123

    def test_poke_variables_cuts_each_value_to_register_width(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(1))]))
        simulator.poke_variables({"a": (1 << 16) + 5, "b": -1})
        assert simulator.read_variable("a") == 5
        assert simulator.read_variable("b") == (1 << 16) - 1

    def test_empty_poke_leaves_the_settle_flag_alone(self):
        simulator = HardwarePowerSimulator(make_cfsm([assign("a", const(1))]))
        assert not simulator._needs_settle
        simulator.poke_variables({})
        assert not simulator._needs_settle
        simulator.poke_variables({"b": 4})
        assert simulator._needs_settle


class TestRunMemo:
    """A replayed run leaves the simulator where re-simulation would."""

    @staticmethod
    def run_sequence(clear_between):
        cfsm = make_cfsm([
            assign("a", add(var("a"), event_value("GO"))),
            if_(lt(var("b"), var("a")), [emit("OUT", var("a"))]),
        ])

        def runs(simulator):
            yield simulator.run_transition("t", {"GO": 5})
            simulator.poke_variables({"b": 2})
            yield simulator.run_transition("t", {"GO": 1})

        clear_hw_run_memo()
        first = HardwarePowerSimulator(cfsm)
        results = list(runs(first))
        if clear_between:
            clear_hw_run_memo()
        # A fresh simulator repeats ``first``'s runs, the one after a poke
        # included: both are memo hits unless the memo was cleared.  The
        # runs after them (also after a poke) are misses.
        second = HardwarePowerSimulator(cfsm)
        results += list(runs(second))
        hits = HW_RUN_MEMO_STATS.hits
        results.append(second.run_transition("t", {"GO": 9}))
        second.poke_variables({"b": 7})
        results.append(second.run_transition("t", {"GO": 1}))
        assert HW_RUN_MEMO_STATS.hits == hits
        sim = second.simulator
        return (results, list(sim.values), sim.cycle, sim.total_energy,
                sim.total_toggles, second.read_variable("a"), hits)

    def test_memo_hits_then_misses_match_resimulation(self):
        replayed = self.run_sequence(clear_between=False)
        simulated = self.run_sequence(clear_between=True)
        assert replayed[-1] == 2
        assert simulated[-1] == 0
        assert replayed[:-1] == simulated[:-1]
        assert replayed[5] == 5 + 1 + 9 + 1


class TestProbabilisticPower:
    def test_probabilities_bounded(self):
        block = synthesize_cfsm(make_cfsm([
            assign("a", add(var("a"), var("b"))),
            emit("OUT", var("a")),
        ]))
        probabilities = propagate_probabilities(block.netlist)
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        assert probabilities[0] == 0.0
        assert probabilities[1] == 1.0

    def test_power_positive_and_scales_with_frequency(self):
        block = synthesize_cfsm(make_cfsm([assign("a", add(var("a"), const(1)))]))
        slow = probabilistic_power(block.netlist, 20e-9)
        fast = probabilistic_power(block.netlist, 10e-9)
        assert 0 < slow < fast
