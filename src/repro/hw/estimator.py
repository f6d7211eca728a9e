"""Hardware power simulator facade used by the simulation master.

Plays the role of the paper's modified SIS power simulator: the master
hands it one CFSM transition (plus the triggering event values) and
receives a cycle-by-cycle energy report.  Block state (the CFSM's
variable registers) persists across invocations inside the gate-level
netlist, exactly like a real hardware block between reactions.

A run returns only its cycles and energy, the two figures the master
takes from it.  What the transition emits, reads and writes comes from
the master's behavioural execution, so the estimator watches just two
output nets: the read-request strobe, to feed the next word of the read
script, and ``done``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
#: ``bytes`` -- nets are single bits).  Entries are a KB or two each
#: (the net snapshot, one byte per net).
_HW_RUN_MEMO: "LruCache[Tuple[HwRunResult, bytes]]" = LruCache(capacity=4096)

HW_RUN_MEMO_STATS = _HW_RUN_MEMO.stats


def clear_hw_run_memo() -> None:
    """Drop all memoized gate-level runs (tests and benchmarks)."""
    _HW_RUN_MEMO.clear()


@dataclass(frozen=True)
class HwRunResult:
    """What the master takes from one hardware transition run.

    Frozen, so that the run memo can hand out the recorded result itself.
    """

    cycles: int = 0
    energy: float = 0.0


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
        # The read-request strobe and ``done`` are polled every simulated
        # cycle; resolve their 1-bit ports to nets once.  A block that
        # never reads shared memory has no read strobe.
        output_ports = self.block.netlist.output_ports
        read_port = self.block.strobe_ports.get(MEM_READ_REQ)
        self._read_net: Optional[int] = (
            None if read_port is None else output_ports[read_port][0]
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
            The run's cycle count and energy.
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
            recorded, values_after = entry
            # A recorded run ends with a step: its end state is settled.
            sim.load(values_after, settled=True)
            self._needs_settle = False
            return recorded
        if metrics is not None:
            metrics.counter("hw.run_memo.misses").inc()
        deadline = current_deadline()
        if deadline is not None:
            # A run its deadline stops is undone, as a memo replay
            # loads a run's end state.
            before = (bytes(values), self._needs_settle)
        if self._needs_settle:
            # Flip-flop D inputs must follow the poked state before the
            # first clock edge.
            sim.settle()
            self._needs_settle = False
        try:
            result = self._run_transition(
                transition_name, input_values, read_values, deadline
            )
        except WatchdogTimeout:
            net_values, self._needs_settle = before
            sim.load(net_values)
            raise
        _HW_RUN_MEMO.put(key, (result, bytes(values)))
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

        total = 0.0
        cycles = 0
        script = read_values or ()
        script_pos = 0
        sim = self.simulator
        step = sim.step
        values = sim.values
        read_net = self._read_net
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
            if read_net is not None and values[read_net]:
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
            if values[done_net]:
                break
        return HwRunResult(cycles, total)

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
