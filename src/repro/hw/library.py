"""CMOS gate library with power-relevant cell data.

Cell capacitances and internal energies are representative of a 0.35um
standard-cell library (the technology generation of the paper's
experiments).  Per-toggle switched energy is ``1/2 * C_load * Vdd^2``
plus the cell's internal (short-circuit + internal node) energy; flip
flops additionally draw clock energy every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: Default supply voltage (volts) — the paper's experiments use 3.3 V.
DEFAULT_VDD = 3.3


@dataclass(frozen=True)
class Cell:
    """One library cell.

    Attributes:
        name: cell name (e.g. ``NAND2``).
        inputs: number of input pins.
        function: boolean function over the input bits.
        load_cap_f: output load capacitance in farads (wire + fanout
            estimate folded in).
        internal_energy_j: energy dissipated inside the cell per output
            transition, in joules.
    """

    name: str
    inputs: int
    function: Callable[..., int]
    load_cap_f: float
    internal_energy_j: float

    def evaluate(self, *bits: int) -> int:
        """Apply the cell function to input bits."""
        return self.function(*bits)

    def switch_energy(self, vdd: float = DEFAULT_VDD) -> float:
        """Energy in joules for one output transition."""
        return 0.5 * self.load_cap_f * vdd * vdd + self.internal_energy_j


#: Energy drawn from the clock network per flip-flop per cycle (joules).
DFF_CLOCK_ENERGY_J = 0.015e-12


def _standard_cells() -> Dict[str, Cell]:
    femto = 1e-15
    pico_j = 1e-12
    return {
        "INV": Cell("INV", 1, lambda a: a ^ 1, 12 * femto, 0.005 * pico_j),
        "BUF": Cell("BUF", 1, lambda a: a, 14 * femto, 0.006 * pico_j),
        "NAND2": Cell("NAND2", 2, lambda a, b: (a & b) ^ 1, 14 * femto, 0.008 * pico_j),
        "NOR2": Cell("NOR2", 2, lambda a, b: (a | b) ^ 1, 14 * femto, 0.009 * pico_j),
        "AND2": Cell("AND2", 2, lambda a, b: a & b, 16 * femto, 0.010 * pico_j),
        "OR2": Cell("OR2", 2, lambda a, b: a | b, 16 * femto, 0.011 * pico_j),
        "XOR2": Cell("XOR2", 2, lambda a, b: a ^ b, 20 * femto, 0.016 * pico_j),
        "XNOR2": Cell("XNOR2", 2, lambda a, b: (a ^ b) ^ 1, 20 * femto, 0.016 * pico_j),
        "MUX2": Cell(
            "MUX2", 3, lambda s, a, b: b if s else a, 18 * femto, 0.014 * pico_j
        ),
        # DFF's function is identity on D; sequencing is handled by the
        # simulator, which updates Q at the clock edge.
        "DFF": Cell("DFF", 1, lambda d: d, 22 * femto, 0.020 * pico_j),
    }


class GateLibrary:
    """A named collection of cells."""

    def __init__(self, cells: Dict[str, Cell] = None, vdd: float = DEFAULT_VDD) -> None:
        self.cells = cells if cells is not None else _standard_cells()
        self.vdd = vdd

    @classmethod
    def default(cls) -> "GateLibrary":
        """The standard 0.35um-flavoured library at 3.3 V."""
        return cls()

    def cell(self, name: str) -> Cell:
        """Look up a cell by name."""
        if name not in self.cells:
            raise KeyError("no cell named %r in library" % name)
        return self.cells[name]

    def signature(self) -> Tuple:
        """Hashable value identity of the library.

        Two libraries with equal signatures produce identical energy
        numbers for identical netlists (cell functions are fixed per
        cell name), so the signature is a safe cache key for compiled
        simulation code.
        """
        return (
            self.vdd,
            tuple(
                (name, cell.inputs, cell.load_cap_f, cell.internal_energy_j)
                for name, cell in sorted(self.cells.items())
            ),
        )
