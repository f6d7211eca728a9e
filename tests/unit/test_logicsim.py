"""Unit tests: the compiled gate-level simulator."""

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.hw.logicsim import CompiledSimulator
from repro.hw.netlist import NetlistBuilder


def adder_netlist(width=4):
    builder = NetlistBuilder("adder")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_add(a, b)
    builder.output_bus("sum", total)
    builder.output_bus("carry", [carry])
    return builder.build()


class TestCombinational:
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_adder_truth(self, a, b):
        simulator = CompiledSimulator(adder_netlist())
        simulator.step({"a": a, "b": b})
        assert simulator.peek("sum") == (a + b) & 0xF
        assert simulator.peek("carry") == (a + b) >> 4

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_subtractor_and_compare(self, a, b):
        builder = NetlistBuilder("sub")
        bus_a = builder.input_bus("a", 8)
        bus_b = builder.input_bus("b", 8)
        diff, no_borrow = builder.ripple_sub(bus_a, bus_b)
        builder.output_bus("diff", diff)
        builder.output_bus("ge", [no_borrow])
        builder.output_bus("eq", [builder.bus_eq(bus_a, bus_b)])
        simulator = CompiledSimulator(builder.build())
        simulator.step({"a": a, "b": b})
        assert simulator.peek("diff") == (a - b) & 0xFF
        assert simulator.peek("ge") == int(a >= b)
        assert simulator.peek("eq") == int(a == b)

    @given(st.integers(0, 255), st.integers(0, 7), st.booleans())
    def test_barrel_shifter(self, value, amount, left):
        builder = NetlistBuilder("shift")
        bus = builder.input_bus("v", 8)
        amt = builder.input_bus("n", 3)
        shifted = builder.barrel_shift(bus, amt, left=left)
        builder.output_bus("out", shifted)
        simulator = CompiledSimulator(builder.build())
        simulator.step({"v": value, "n": amount})
        expected = (value << amount) & 0xFF if left else value >> amount
        assert simulator.peek("out") == expected


class TestSequential:
    def counter_netlist(self, width=4):
        builder = NetlistBuilder("counter")
        enable = builder.input_bus("en", 1)[0]
        count_q = [builder.new_net("q%d" % i) for i in range(width)]
        plus_one, _ = builder.ripple_add(count_q, builder.const_bus(1, width))
        for index in range(width):
            d = builder.mux(enable, count_q[index], plus_one[index])
            builder.add_dff(d, count_q[index], 0)
        builder.output_bus("count", count_q)
        return builder.build()

    def test_counter_counts(self):
        # Inputs take effect at the *next* clock edge (standard
        # synchronous semantics), so the count lags the enable by one.
        simulator = CompiledSimulator(self.counter_netlist())
        simulator.step({"en": 1})  # enable seen; Q still at reset value
        for expected in range(10):
            assert simulator.peek("count") == expected & 0xF
            simulator.step({"en": 1})

    def test_counter_holds_when_disabled(self):
        simulator = CompiledSimulator(self.counter_netlist())
        simulator.step({"en": 1})
        simulator.step({"en": 1})
        simulator.step({"en": 0})  # last enabled increment lands here
        frozen = simulator.peek("count")
        simulator.step({"en": 0})
        simulator.step({"en": 0})
        assert simulator.peek("count") == frozen

    def test_rejected_step_changes_nothing(self):
        simulator = CompiledSimulator(self.counter_netlist())
        simulator.step({"en": 1})
        simulator.step({"en": 1})
        assert simulator.peek("count") == 1
        before = (list(simulator.values), simulator.cycle,
                  simulator.total_energy, simulator.total_toggles)
        with pytest.raises(KeyError):
            simulator.step({"en": 1, "nope": 1})
        assert (list(simulator.values), simulator.cycle,
                simulator.total_energy, simulator.total_toggles) == before
        simulator.step({"en": 1})
        assert simulator.peek("count") == 2

    def test_reset_restores_initial_state(self):
        simulator = CompiledSimulator(self.counter_netlist())
        simulator.step({"en": 1})
        simulator.step({"en": 1})
        simulator.reset()
        assert simulator.peek("count") == 0
        assert simulator.cycle == 0
        assert simulator.total_energy == 0.0


class TestEnergyAccounting:
    def test_energy_positive_when_switching(self):
        simulator = CompiledSimulator(adder_netlist())
        idle = simulator.step({"a": 0, "b": 0})
        active = simulator.step({"a": 15, "b": 15})
        assert active > idle
        assert simulator.total_energy >= active

    def test_quiet_cycle_costs_only_clock(self):
        netlist = adder_netlist()
        simulator = CompiledSimulator(netlist)
        simulator.step({"a": 3, "b": 4})
        quiet = simulator.step({"a": 3, "b": 4})
        # No DFFs in the adder: a quiet cycle is free.
        assert quiet == 0.0

    def test_toggle_counting(self):
        simulator = CompiledSimulator(adder_netlist())
        simulator.step({"a": 0, "b": 0})
        before = simulator.total_toggles
        simulator.step({"a": 15, "b": 0})
        assert simulator.total_toggles > before

    def test_unknown_port_rejected(self):
        simulator = CompiledSimulator(adder_netlist())
        with pytest.raises(KeyError):
            simulator.step({"nope": 1})
        with pytest.raises(KeyError):
            simulator.peek("nope")


class TestDeterminism:
    def test_same_stimulus_same_energy(self):
        first = CompiledSimulator(adder_netlist())
        second = CompiledSimulator(adder_netlist())
        stimulus = [(3, 9), (15, 1), (0, 0), (7, 7)]
        energy_first = [first.step({"a": a, "b": b}) for a, b in stimulus]
        energy_second = [second.step({"a": a, "b": b}) for a, b in stimulus]
        assert energy_first == energy_second
