"""Unit tests: Monte-Carlo (statistical) hardware power estimation."""

import pytest

from repro.hw.netlist import NetlistBuilder
from repro.hw.power import monte_carlo_power, probabilistic_power


def adder_netlist(width=8):
    builder = NetlistBuilder("adder")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_add(a, b)
    builder.output_bus("sum", total)
    builder.output_bus("carry", [carry])
    return builder.build()


class TestMonteCarlo:
    def test_converges_on_simple_netlist(self):
        result = monte_carlo_power(adder_netlist(), 10e-9, seed=3)
        assert result.converged
        assert result.average_power_w > 0
        assert result.cycles >= 64
        assert (result.confidence_halfwidth_w / result.average_power_w
                <= 0.05 + 1e-9)

    def test_deterministic_given_seed(self):
        first = monte_carlo_power(adder_netlist(), 10e-9, seed=7)
        second = monte_carlo_power(adder_netlist(), 10e-9, seed=7)
        assert first.average_power_w == second.average_power_w
        assert first.cycles == second.cycles

    def test_tighter_precision_needs_more_cycles(self):
        loose = monte_carlo_power(adder_netlist(), 10e-9,
                                  relative_precision=0.10, seed=5)
        tight = monte_carlo_power(adder_netlist(), 10e-9,
                                  relative_precision=0.02, seed=5)
        assert tight.cycles >= loose.cycles

    def test_agrees_with_probabilistic_within_factor(self):
        """Both estimators see the same netlist at p=0.5; the analytic
        estimate ignores spatial correlation so it may overshoot, but
        they must land within a small factor of each other."""
        netlist = adder_netlist()
        analytic = probabilistic_power(netlist, 10e-9)
        sampled = monte_carlo_power(netlist, 10e-9, seed=11,
                                    relative_precision=0.03)
        ratio = analytic / sampled.average_power_w
        assert 0.5 < ratio < 2.5, ratio

    def test_activity_scales_with_input_probability(self):
        quiet = monte_carlo_power(adder_netlist(), 10e-9,
                                  input_one_probability=0.05, seed=2,
                                  relative_precision=0.10)
        busy = monte_carlo_power(adder_netlist(), 10e-9,
                                 input_one_probability=0.5, seed=2,
                                 relative_precision=0.10)
        assert busy.average_power_w > quiet.average_power_w

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_power(adder_netlist(), 10e-9,
                              input_one_probability=1.5)
        with pytest.raises(ValueError):
            monte_carlo_power(adder_netlist(), 0.0)

    def test_max_cycles_cap(self):
        result = monte_carlo_power(
            adder_netlist(), 10e-9, relative_precision=1e-9,
            min_cycles=8, max_cycles=100, seed=1,
        )
        assert not result.converged
        assert result.cycles == 100
