"""The simulation master: the PTOLEMY role of the paper.

The master simulates the discrete-event behavioral model of the entire
system — it alone has the global view — and concurrently invokes and
synchronizes the component-level estimators: the ISS for software
processes (serialized by the RTOS model on the embedded processor),
the gate-level power simulator for hardware processes, the cache
simulator (fed memory references directly from behavioral execution),
and the shared-bus model.  The unit of synchronization is one CFSM
transition, exactly as in the paper's Section 3.
"""

from repro.master.kernel import EventQueue
from repro.master.rtos import RtosConfig, RtosScheduler
from repro.master.tracing import EnergyAccountant, EnergySample
from repro.master.master import MasterConfig, RunStats, SharedMemory, SimulationMaster
from repro.master.export import (
    export_energy_breakdown,
    export_power_csv,
    export_power_vcd,
)

__all__ = [
    "EventQueue",
    "RtosConfig",
    "RtosScheduler",
    "EnergyAccountant",
    "EnergySample",
    "MasterConfig",
    "SimulationMaster",
    "SharedMemory",
    "RunStats",
    "export_power_csv",
    "export_power_vcd",
    "export_energy_breakdown",
]
