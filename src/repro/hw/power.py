"""Probabilistic hardware power estimation.

Co-estimation is simulation-based:
:class:`repro.hw.estimator.HardwarePowerSimulator` runs the gate-level
netlist and reports cycle-by-cycle energy from observed toggles.  For
users who do not need cycle-by-cycle power, :func:`probabilistic_power`
propagates signal probabilities through the netlist under a
spatial/temporal independence assumption and returns the expected
power, the classic aggregate-statistics approach referenced in the
paper's Section 3 (the §4.1 hardware macro-models are built from it).
"""

from __future__ import annotations

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
