"""Hardware power reporting, probabilistic, and statistical estimation.

Three estimation styles are provided, mirroring the options the paper
lists for the hardware power estimator:

* **Simulation-based** (the default used during co-estimation):
  :class:`repro.hw.estimator.HardwarePowerSimulator` runs the gate-level
  netlist and reports cycle-by-cycle energy from observed toggles.  The
  helpers in this module summarize such per-cycle traces.

* **Probabilistic** (for users who do not need cycle-by-cycle power):
  :func:`probabilistic_power` propagates signal probabilities through
  the netlist under a spatial/temporal independence assumption and
  returns the expected power, the classic aggregate-statistics approach
  referenced in the paper's Section 3.

* **Statistical (Monte-Carlo)**: :func:`monte_carlo_power` simulates
  the netlist under random input vectors until the estimate of the
  mean per-cycle power converges to a requested confidence interval —
  the statistical power-estimation style (McPOWER-like) the paper's
  Section 4.3 cites as prior art for hardware.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.netlist import CONST0, CONST1, Netlist


_PROB_FUNCS = {
    "INV": lambda p: 1.0 - p[0],
    "BUF": lambda p: p[0],
    "AND2": lambda p: p[0] * p[1],
    "NAND2": lambda p: 1.0 - p[0] * p[1],
    "OR2": lambda p: 1.0 - (1.0 - p[0]) * (1.0 - p[1]),
    "NOR2": lambda p: (1.0 - p[0]) * (1.0 - p[1]),
    "XOR2": lambda p: p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0]),
    "XNOR2": lambda p: 1.0 - (p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0])),
    "MUX2": lambda p: (1.0 - p[0]) * p[1] + p[0] * p[2],
}


def propagate_probabilities(
    netlist: Netlist, input_probabilities: Optional[Dict[str, float]] = None
) -> List[float]:
    """Signal probability of every net under independence assumptions.

    Args:
        netlist: the block to analyze.
        input_probabilities: probability that each primary-input *bit*
            is 1 (by port name, applied to every bit of the bus).
            Defaults to 0.5.  Flip-flop outputs are also assumed to be
            0.5 unless they hold their initial value trivially.

    Returns:
        A probability per net id.
    """
    probabilities = [0.5] * netlist.num_nets
    probabilities[CONST0] = 0.0
    probabilities[CONST1] = 1.0
    defaults = input_probabilities or {}
    for name, nets in netlist.input_ports.items():
        p_one = defaults.get(name, 0.5)
        for net in nets:
            probabilities[net] = p_one
    for gate in netlist.gates:
        inputs = [probabilities[net] for net in gate.inputs]
        probabilities[gate.output] = _PROB_FUNCS[gate.cell](inputs)
    return probabilities


def probabilistic_power(
    netlist: Netlist,
    clock_period_s: float,
    library: Optional[GateLibrary] = None,
    input_probabilities: Optional[Dict[str, float]] = None,
) -> float:
    """Expected average power in watts from aggregate signal statistics.

    Per-net switching activity is approximated by ``2 p (1 - p)`` (the
    zero-delay temporal-independence estimate); every transition is
    charged the driving cell's switched energy, and flip-flops draw
    clock energy each cycle.
    """
    lib = library or GateLibrary.default()
    probabilities = propagate_probabilities(netlist, input_probabilities)
    energy_per_cycle = 0.0
    for gate in netlist.gates:
        probability = probabilities[gate.output]
        activity = 2.0 * probability * (1.0 - probability)
        energy_per_cycle += activity * lib.cell(gate.cell).switch_energy(lib.vdd)
    dff_cell = lib.cell("DFF")
    for dff in netlist.dffs:
        probability = probabilities[dff.d]
        activity = 2.0 * probability * (1.0 - probability)
        energy_per_cycle += activity * dff_cell.switch_energy(lib.vdd)
        energy_per_cycle += DFF_CLOCK_ENERGY_J
    return energy_per_cycle / clock_period_s


@dataclass
class MonteCarloResult:
    """Outcome of a statistical power estimation run."""

    average_power_w: float
    confidence_halfwidth_w: float
    cycles: int
    converged: bool


def monte_carlo_power(
    netlist: Netlist,
    clock_period_s: float,
    library: Optional[GateLibrary] = None,
    input_one_probability: float = 0.5,
    relative_precision: float = 0.05,
    confidence_z: float = 1.96,
    min_cycles: int = 64,
    max_cycles: int = 20_000,
    warmup_cycles: int = 8,
    seed: int = 1,
) -> MonteCarloResult:
    """Average power from random-vector simulation with a stop rule.

    The netlist is clocked with independent random primary-input
    vectors (each bit 1 with ``input_one_probability``); per-cycle
    energies are accumulated until the ``confidence_z``-sigma interval
    of the running mean is within ``relative_precision`` of it, the
    standard Monte-Carlo stopping criterion of statistical power
    estimators.

    Returns the estimated average power, the confidence half-width,
    the number of measured cycles, and whether the stop rule was met
    before ``max_cycles``.
    """
    from repro.hw.logicsim import CompiledSimulator

    if not 0.0 <= input_one_probability <= 1.0:
        raise ValueError("input probability must lie in [0, 1]")
    if clock_period_s <= 0:
        raise ValueError("clock period must be positive")

    simulator = CompiledSimulator(netlist, library)
    rng = random.Random(seed)
    ports = sorted(netlist.input_ports)
    widths = {name: len(netlist.input_ports[name]) for name in ports}

    def random_inputs() -> Dict[str, int]:
        vector = {}
        for name in ports:
            value = 0
            for bit in range(widths[name]):
                if rng.random() < input_one_probability:
                    value |= 1 << bit
            vector[name] = value
        return vector

    for _ in range(warmup_cycles):
        simulator.step(random_inputs())

    count = 0
    mean = 0.0
    m2 = 0.0
    converged = False
    while count < max_cycles:
        energy = simulator.step(random_inputs())
        count += 1
        delta = energy - mean
        mean += delta / count
        m2 += delta * (energy - mean)
        if count >= min_cycles and mean > 0:
            std_error = math.sqrt(m2 / (count - 1) / count)
            if confidence_z * std_error <= relative_precision * mean:
                converged = True
                break

    power = mean / clock_period_s
    halfwidth = 0.0
    if count > 1:
        halfwidth = (
            confidence_z * math.sqrt(m2 / (count - 1) / count) / clock_period_s
        )
    return MonteCarloResult(
        average_power_w=power,
        confidence_halfwidth_w=halfwidth,
        cycles=count,
        converged=converged,
    )
