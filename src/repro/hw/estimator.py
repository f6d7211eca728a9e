"""Hardware power simulator facade used by the simulation master.

Plays the role of the paper's modified SIS power simulator: the master
hands it one CFSM transition (plus the triggering event values) and
receives a cycle-by-cycle energy report.  Block state (the CFSM's
variable registers) persists across invocations inside the gate-level
netlist, exactly like a real hardware block between reactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.deadline import WatchdogTimeout, check_deadline, current_deadline
from repro.errors import ReproError

from repro.cfsm.model import Cfsm
from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.logicsim import CompiledSimulator
from repro.lru import LruCache
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.hw.synth import (
    MEM_DATA_IN,
    MEM_READ_REQ,
    MEM_WRITE_ADDR,
    MEM_WRITE_DATA,
    SynthesizedBlock,
    synthesize_cfsm_cached,
)

class HwEstimatorError(ReproError):
    """Raised when a transition does not complete in the netlist."""


#: Exact-state memo of gate-level transition runs, shared process-wide.
#:
#: The paper's §4.2 energy cache is *statistical*: it keys on the
#: control path and rejects entries whose energy spread exceeds the
#: variance threshold (Figure 4(b)), so data-dependent transitions are
#: re-simulated forever.  This memo is the complementary *exact* layer:
#: a gate-level run is a deterministic function of (compiled netlist,
#: architectural state, triggering input values, memory-read script),
#: so when an identical run recurs — which happens constantly during
#: design-space exploration, where neighbouring points feed the same
#: payloads through the same blocks — the recorded outcome and final
#: state can be replayed without touching the simulator.  Unlike the
#: statistical cache this is lossless: replayed runs are bit- and
#: joule-identical to re-simulation.
#:
#: Keyed by (netlist token, transition, DFF/PI state, inputs, read
#: script, cycle limit); values are (result, post-run net values as
#: ``bytes`` -- nets are single bits -- and toggle count).  Entries are
#: a KB or two each (the net snapshot, one byte per net).
_HW_RUN_MEMO: "LruCache[Tuple[HwRunResult, bytes, int]]" = LruCache(capacity=4096)

HW_RUN_MEMO_STATS = _HW_RUN_MEMO.stats


def clear_hw_run_memo() -> None:
    """Drop all memoized gate-level runs (tests and benchmarks)."""
    _HW_RUN_MEMO.clear()


@dataclass
class HwRunResult:
    """Statistics for one hardware transition execution."""

    cycles: int = 0
    energy: float = 0.0
    emitted: List[Tuple[str, int]] = field(default_factory=list)
    mem_read_addresses: List[int] = field(default_factory=list)
    mem_writes: List[Tuple[int, int]] = field(default_factory=list)


class HardwarePowerSimulator:
    """Gate-level power estimation for one hardware-mapped CFSM."""

    def __init__(
        self,
        cfsm: Cfsm,
        library: Optional[GateLibrary] = None,
        max_cycles_per_transition: int = 2_000_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cfsm = cfsm
        self.library = library or GateLibrary.default()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.block: SynthesizedBlock = synthesize_cfsm_cached(cfsm, self.library)
        self.simulator = CompiledSimulator(
            self.block.netlist, self.library, telemetry=self.telemetry
        )
        self.max_cycles_per_transition = max_cycles_per_transition
        #: Set by :meth:`poke_variables`: the combinational nets must be
        #: settled before the next simulated run.
        self._needs_settle = False
        self.invocations = 0
        self.total_cycles = 0
        self.total_energy = 0.0
        # Strobe/done polling happens every simulated cycle; resolve the
        # port-name -> net indirection once instead of sorting and
        # peeking per cycle (strobes and ``done`` are 1-bit ports).
        output_ports = self.block.netlist.output_ports
        self._strobe_watch: List[Tuple[str, int]] = [
            (event, output_ports[port][0])
            for event, port in sorted(self.block.strobe_ports.items())
        ]
        self._strobe_nets: Tuple[int, ...] = tuple(
            net for _, net in self._strobe_watch
        )
        self._done_net: int = output_ports["done"][0]
        self._register_nets: Dict[str, Sequence[int]] = {
            name: output_ports[port]
            for name, port in self.block.register_ports.items()
        }
        # Nets that fully determine a run: all flip-flop outputs plus
        # all primary-input nets (unmentioned input ports hold their
        # previous values across runs, so they are state too).  The
        # settled combinational nets are a pure function of these.
        netlist = self.block.netlist
        self._state_nets: List[int] = [dff.q for dff in netlist.dffs] + [
            net
            for _, nets in sorted(netlist.input_ports.items())
            for net in nets
        ]

    @property
    def gate_count(self) -> int:
        """Combinational cell count of the synthesized netlist."""
        return self.block.netlist.gate_count

    @property
    def dff_count(self) -> int:
        """Flip-flop count of the synthesized netlist."""
        return self.block.netlist.dff_count

    def idle_energy_per_cycle(self) -> float:
        """Clock-network energy burned per cycle while the block idles."""
        return DFF_CLOCK_ENERGY_J * self.block.netlist.dff_count

    def run_transition(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
    ) -> HwRunResult:
        """Simulate one transition at the gate level.

        Args:
            transition_name: which transition to start (the master has
                already determined that it is enabled).
            input_values: values of the triggering events, by event
                name; they are held constant on the input ports for the
                whole run, the way the master's vector exchange works in
                the paper's Figure 2(b).
            read_values: the words the block's shared-memory reads will
                return, in order.  The master knows them from behavioral
                execution and plays the bus interface on the memory
                ports (bus *timing* is charged by the master, not here).

        Returns:
            Cycle count, energy, and the emitted
            (event, value) pairs observed on the strobe/value ports.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_memoized(transition_name, input_values, read_values)
        with telemetry.tracer.span(
            "hw.run_transition",
            track="hw",
            args={"cfsm": self.cfsm.name, "transition": transition_name},
        ) as span:
            result = self._run_memoized(transition_name, input_values, read_values)
            span.set("cycles", result.cycles)
            span.set("energy_j", result.energy)
        metrics = telemetry.metrics
        metrics.counter("hw.invocations").inc()
        metrics.counter("hw.cycles").inc(result.cycles)
        return result

    def _run_memoized(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
    ) -> HwRunResult:
        """Replay an identical previous run, or simulate and record it."""
        sim = self.simulator
        # The key reads only the state nets.  Settling after a poke is a
        # pure function of them and writes none of them, so a poked state
        # is keyed as it stands, and only a simulated run settles it.
        values = sim.values
        key = (
            sim.netlist_token,
            transition_name,
            tuple(map(values.__getitem__, self._state_nets)),
            tuple(sorted((input_values or {}).items())),
            tuple(read_values or ()),
            self.max_cycles_per_transition,
        )
        entry = _HW_RUN_MEMO.get(key)
        metrics = self.telemetry.metrics if self.telemetry.enabled else None
        if entry is not None:
            if metrics is not None:
                metrics.counter("hw.run_memo.hits").inc()
            recorded, values_after, toggles = entry
            # A recorded run ends with a step: its end state is settled.
            sim.load(values_after, settled=True)
            self._needs_settle = False
            sim.cycle += recorded.cycles
            sim.total_energy += recorded.energy
            sim.total_toggles += toggles
            self.invocations += 1
            self.total_cycles += recorded.cycles
            self.total_energy += recorded.energy
            return HwRunResult(
                cycles=recorded.cycles,
                energy=recorded.energy,
                emitted=list(recorded.emitted),
                mem_read_addresses=list(recorded.mem_read_addresses),
                mem_writes=list(recorded.mem_writes),
            )
        if metrics is not None:
            metrics.counter("hw.run_memo.misses").inc()
        deadline = current_deadline()
        if deadline is not None:
            # A run its deadline stops is undone, as a memo replay
            # loads a run's end state.
            before = (bytes(values), self._needs_settle, sim.cycle,
                      sim.total_energy, sim.total_toggles)
        if self._needs_settle:
            # Flip-flop D inputs must follow the poked state before the
            # first clock edge.
            sim.settle()
            self._needs_settle = False
        toggles_before = sim.total_toggles
        try:
            result = self._run_transition(
                transition_name, input_values, read_values, deadline
            )
        except WatchdogTimeout:
            (net_values, self._needs_settle, sim.cycle, sim.total_energy,
             sim.total_toggles) = before
            sim.load(net_values)
            raise
        _HW_RUN_MEMO.put(key, (
            HwRunResult(
                cycles=result.cycles,
                energy=result.energy,
                emitted=list(result.emitted),
                mem_read_addresses=list(result.mem_read_addresses),
                mem_writes=list(result.mem_writes),
            ),
            bytes(values),
            sim.total_toggles - toggles_before,
        ))
        return result

    def _run_transition(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
        deadline: Optional[float] = None,
    ) -> HwRunResult:
        if transition_name not in self.block.go_ports:
            raise KeyError(
                "CFSM %r has no transition %r" % (self.cfsm.name, transition_name)
            )
        go = self.block.go_ports[transition_name]
        # Ports not given hold their values: only cycle 1 raises ``go``,
        # only cycle 2 drops it, and the data-in port changes only in the
        # cycle after a read strobe; every other cycle passes ``None``.
        inputs: Optional[Dict[str, int]] = {go: 1}
        mask = (1 << self.cfsm.width) - 1
        for event, value in (input_values or {}).items():
            port = self.block.input_ports.get(event)
            if port is not None:
                inputs[port] = value & mask
        data_in = "in_%s" % MEM_DATA_IN

        result = HwRunResult()
        total = 0.0
        cycles = 0
        script = list(read_values or [])
        script_pos = 0
        pending_strobes: List[str] = []
        pending_write_addr: Optional[int] = None
        sim = self.simulator
        step = sim.step
        values = sim.values
        strobe_watch = self._strobe_watch
        strobe_nets = self._strobe_nets
        done_net = self._done_net
        limit = self.max_cycles_per_transition
        while True:
            if cycles >= limit:
                raise HwEstimatorError(
                    "transition %s.%s exceeded %d cycles"
                    % (self.cfsm.name, transition_name, limit)
                )
            if deadline is not None:
                check_deadline(deadline)
            energy = step(inputs)
            inputs = {go: 0} if cycles == 0 else None
            cycles += 1
            total += energy

            # Emission values are registered, so a strobe seen in cycle
            # k is read from the value port after cycle k+1's edge.
            for event in pending_strobes:
                value = sim.peek(self.block.value_ports[event])
                if event == MEM_READ_REQ:
                    result.mem_read_addresses.append(value)
                elif event == MEM_WRITE_ADDR:
                    pending_write_addr = value
                elif event == MEM_WRITE_DATA:
                    result.mem_writes.append((pending_write_addr or 0, value))
                    pending_write_addr = None
                else:
                    result.emitted.append((event, value))
            if any(map(values.__getitem__, strobe_nets)):
                pending_strobes = [
                    event for event, net in strobe_watch if values[net]
                ]
                if MEM_READ_REQ in pending_strobes:
                    if script_pos >= len(script):
                        raise HwEstimatorError(
                            "transition %s.%s issued more memory reads than "
                            "the supplied read script"
                            % (self.cfsm.name, transition_name)
                        )
                    if inputs is None:
                        inputs = {}
                    inputs[data_in] = script[script_pos] & mask
                    script_pos += 1
            elif pending_strobes:
                pending_strobes = []
            if values[done_net]:
                break

        result.cycles = cycles
        result.energy = total

        self.invocations += 1
        self.total_cycles += result.cycles
        self.total_energy += result.energy
        return result

    def read_variable(self, name: str) -> int:
        """Current value of a CFSM variable register (for checking)."""
        return self.simulator.peek(self.block.register_ports[name])

    def poke_variables(self, values: Mapping[str, int]) -> None:
        """Force CFSM variable registers to the given values, by name.

        Used by acceleration strategies: when a cached estimate replaces
        a gate-level run, the netlist's architectural state is brought
        back in sync with the behavioral reference so that a later
        gate-level run starts from the right values.  Each value is cut
        to its register's width; the whole mapping is one
        :meth:`CompiledSimulator.load`.
        """
        if not values:
            return
        nets: List[int] = []
        bits: List[int] = []
        register_nets = self._register_nets
        for name, value in values.items():
            port_nets = register_nets[name]
            nets += port_nets
            bits += [(value >> index) & 1 for index in range(len(port_nets))]
        self.simulator.load(bits, nets)
        self._needs_settle = True
