"""SOC integration-architecture substrate (shared bus + arbiter + DMA).

Implements the paper's behavioral, parameterizable bus model: a shared
bus with a priority arbiter, optional DMA block transfers, and
per-line switching-activity tracking.  Bus power follows the paper's
formula ``P = 1/2 Vdd^2 f * sum_i Ceff(line_i) A(line_i)``: we count
actual toggles per line during co-simulation and charge
``1/2 Ceff Vdd^2`` per toggle.

All parameters (priorities, DMA block size, widths, capacitance) can be
changed between co-estimation runs without recompiling the system
description — the property the paper relies on for design-space
exploration (Section 5.3).
"""

from repro.bus.model import BusGrant, BusParameters, BusRequest
from repro.bus.arbiter import PriorityArbiter
from repro.bus.busmodel import SharedBus

__all__ = [
    "BusParameters",
    "BusRequest",
    "BusGrant",
    "PriorityArbiter",
    "SharedBus",
]
