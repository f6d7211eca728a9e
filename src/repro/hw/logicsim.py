"""Levelized compiled-code gate-level simulation with power accounting.

The simulator translates a netlist into straight-line Python once
(levelized compiled-code simulation, the classic acceleration used by
gate-level power estimators), then runs it once per clock cycle.  Every
net transition is detected against the previous settled state and
charged ``1/2 C V^2`` plus cell-internal energy; flip-flops additionally
draw clock energy every cycle.

The clock edge is compiled into one generator function and the gate
list into chunks of at most ``_CHUNK_SIZE`` gates, one generator
function each.  A running generator keeps the nets it drives (flip-flop
outputs, or its own gates' outputs) in local variables across cycles, so
a toggle test compares two locals; other nets are read from the ``values``
list, which every toggle still updates and which stays the
authoritative net state.  Out-of-band writes to that state go through
:meth:`CompiledSimulator.load`, which restarts the generators (reloading
their locals) lazily at the next evaluation.

The per-cycle energy sequence is exactly what the paper's modified SIS
power simulator reports back to the simulation master.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.netlist import CONST1, Netlist
from repro.telemetry import NULL_TELEMETRY, Telemetry

# Operand placeholders are filled with either a chunk-local variable
# (when the driving gate lives in the same chunk) or a ``v[net]`` load.
# Net values are the ints 0 and 1, on which ``and``/``or``/``1-`` are
# exact and cheaper than the bitwise operators.
_GATE_EXPR = {
    "INV": "1-{0}",
    "BUF": "{0}",
    "AND2": "({0} and {1})",
    "OR2": "({0} or {1})",
    "XOR2": "{0}^{1}",
    "XNOR2": "1-({0}^{1})",
    "NAND2": "1-({0} and {1})",
    "NOR2": "1-({0} or {1})",
    "MUX2": "({2} if {0} else {1})",
}

#: Gates per generated chunk kernel.  Bounded chunks keep each ``exec``
#: (and the compile-time memory spike) small.
_CHUNK_SIZE = 320

#: Cache of compiled kernels, keyed by (gate list, flip-flop wiring,
#: library signature, chunk size).  Iterative design-space exploration
#: instantiates the same synthesized blocks dozens of times (one master
#: per design point); the generated code depends only on the gates, the
#: flip-flops' D/Q nets (hard-coded in the clock-edge kernel) and the
#: cell energies, so every instantiation after the first can skip the
#: codegen/``exec`` step entirely.  The kernels are generator
#: *functions*: all state lives in the generator objects and the ``v``
#: list each simulator owns, which is what makes sharing them across
#: simulator instances safe.
#:
#: Values are ``(kernels, token)``: the token is a process-unique
#: integer naming this compiled netlist.  Downstream memoization (the
#: hardware estimator's exact-state run memo) keys on the token instead
#: of re-hashing the gate list; tokens are never reused, so entries for
#: an evicted netlist simply go stale and age out.
_COMPILE_CACHE: "OrderedDict[Tuple, Tuple[List, int]]" = OrderedDict()

_NEXT_NETLIST_TOKEN = 0

#: Bound on distinct netlists kept compiled (LRU eviction).
_COMPILE_CACHE_CAPACITY = 64


class CompileCacheStats:
    """Process-wide hit/miss accounting for the compile cache."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


COMPILE_CACHE_STATS = CompileCacheStats()


def clear_compile_cache() -> None:
    """Drop all cached compiled functions (tests and benchmarks)."""
    _COMPILE_CACHE.clear()
    COMPILE_CACHE_STATS.reset()


#: One toggle test, formatted with the new value's expression, the local
#: holding the driven net, the net and the cell name (a parameter bound
#: to the cell's switching energy).  Nets are single bits, so a changed
#: net is the complement of its old value.
_TOGGLE = "  if {0} != {1}: {1} ^= 1; v[{2}] = {1}; e += {3}; n += 1"


def _kernel(
    name: str, local_of: Dict[int, str], body: List[str], energies: Dict[str, float]
) -> Callable:
    """Compile one kernel generator function.

    It loads the nets in ``local_of`` into their locals, then runs
    ``body`` once per value sent in and yields ``(e, n)``.  Cell
    energies are parameter defaults named after the cell (read as
    locals), not float literals: parsing thousands of float literals is
    a large share of the ``exec`` time.
    """
    namespace: Dict[str, object] = dict(energies, NETS=tuple(local_of))
    lines = ["def %s(v, %s):" % (
        name, ", ".join("%s=%s" % (cell, cell) for cell in energies))]
    if local_of:
        lines.append(" %s, = map(v.__getitem__, NETS)" % ", ".join(local_of.values()))
    lines += [" e = yield", " while True:", "  n = 0", *body, "  e = yield e, n"]
    exec("\n".join(lines), namespace)  # noqa: S102 - generated by us
    return namespace[name]  # type: ignore[return-value]


class CompiledSimulator:
    """Cycle-based simulator for one synthesized block.

    Typical use by the hardware power estimator::

        sim = CompiledSimulator(netlist)
        sim.reset()
        energy = sim.step({"go": 1, "in_DATA": 0x42})
        done = sim.peek("done")

    ``values`` holds every net's current value and may be read at any
    time; write it only through :meth:`load`.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: Optional[GateLibrary] = None,
        pi_energy_j: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        netlist.check()
        self.netlist = netlist
        self.library = library or GateLibrary.default()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        buf = self.library.cell("BUF")
        self.pi_energy_j = (
            pi_energy_j if pi_energy_j is not None else buf.switch_energy(self.library.vdd)
        )
        self._clock_energy = DFF_CLOCK_ENERGY_J * netlist.dff_count
        self._kernels, self.netlist_token = self._compile_cached()
        #: ``send`` of the running latch generator and of the running
        #: chunk generators; ``None`` when their locals are stale (see
        #: :meth:`load`).
        self._latch_send: Optional[Callable] = None
        self._chunk_sends: List[Callable] = []
        self.values: List[int] = []
        self.cycle = 0
        self.total_energy = 0.0
        self.total_toggles = 0
        self.reset()

    # -- construction ---------------------------------------------------------

    def _compile_cached(self):
        """Compiled kernels plus netlist token, cached."""
        global _NEXT_NETLIST_TOKEN
        netlist = self.netlist
        key = (
            tuple(netlist.gates),
            tuple((dff.d, dff.q) for dff in netlist.dffs),
            self.library.signature(),
            _CHUNK_SIZE,
        )
        entry = _COMPILE_CACHE.get(key)
        metrics = self.telemetry.metrics
        if entry is not None:
            _COMPILE_CACHE.move_to_end(key)
            COMPILE_CACHE_STATS.hits += 1
            metrics.counter("hw.compile_cache.hits").inc()
            return entry
        COMPILE_CACHE_STATS.misses += 1
        metrics.counter("hw.compile_cache.misses").inc()
        _NEXT_NETLIST_TOKEN += 1
        entry = (self._compile(), _NEXT_NETLIST_TOKEN)
        _COMPILE_CACHE[key] = entry
        if len(_COMPILE_CACHE) > _COMPILE_CACHE_CAPACITY:
            _COMPILE_CACHE.popitem(last=False)
            COMPILE_CACHE_STATS.evictions += 1
        return entry

    def _compile(self) -> List[Callable]:
        """Generator functions: the clock edge, then one per gate chunk.

        Every kernel keeps the nets it drives in locals, loaded from
        ``v`` when the generator starts.  Each value sent in is the
        cycle's running energy; the kernel adds the energy of its
        toggles in netlist order and yields it with its toggle count.
        ``v`` is written on every toggle, keeping it authoritative for
        the estimator, the ports and the other kernels.
        """
        library = self.library

        def energies(cells) -> Dict[str, float]:
            return {
                cell: library.cell(cell).switch_energy(library.vdd)
                for cell in sorted(cells)
            }

        dffs = self.netlist.dffs
        # Clock edge: Q follows the settled D.  A D net that is itself
        # a Q net is snapshotted first, so DFF chains latch the pre-edge
        # state; every other D net is unaffected by Q writes.
        q_local = {dff.q: "q%d" % dff.q for dff in dffs}
        snapshots = sorted({dff.d for dff in dffs if dff.d in q_local})
        edge = ["  s%d = q%d" % (net, net) for net in snapshots]
        for dff in dffs:
            d = "s%d" % dff.d if dff.d in q_local else "v[%d]" % dff.d
            edge.append(_TOGGLE.format(d, q_local[dff.q], dff.q, "DFF"))
        kernels = [_kernel("_latch", q_local, edge, energies({"DFF"}))]

        gates = self.netlist.gates
        for start in range(0, len(gates), _CHUNK_SIZE):
            chunk = gates[start:start + _CHUNK_SIZE]
            t_local = {gate.output: "t%d" % gate.output for gate in chunk}
            body = []
            for gate in chunk:
                operands = [
                    t_local.get(net) or "v[%d]" % net for net in gate.inputs
                ]
                body.append(_TOGGLE.format(
                    _GATE_EXPR[gate.cell].format(*operands),
                    t_local[gate.output], gate.output, gate.cell,
                ))
            kernels.append(_kernel(
                "_chunk", t_local, body, energies({gate.cell for gate in chunk})
            ))
        return kernels

    # -- state ------------------------------------------------------------------

    def load(self, values: Sequence[int], nets: Optional[Sequence[int]] = None) -> None:
        """Overwrite net state out of band, charging no energy.

        With ``nets`` omitted ``values`` replaces every net's value;
        otherwise ``values[i]`` is written to net ``nets[i]``.  The
        kernels' locals go stale and are reloaded from ``values`` at the
        next evaluation.  Combinational nets are not re-evaluated: call
        :meth:`settle` when the written nets feed logic.
        """
        if nets is None:
            self.values[:] = values
        else:
            current = self.values
            for net, value in zip(nets, values):
                current[net] = value
        self._latch_send = None

    def _start(self) -> Callable:
        """Start the kernels from ``values``; returns the latch ``send``."""
        sends = []
        for kernel in self._kernels:
            generator = kernel(self.values)
            next(generator)
            sends.append(generator.send)
        self._latch_send = sends[0]
        self._chunk_sends = sends[1:]
        return sends[0]

    # -- simulation -------------------------------------------------------------

    def reset(self) -> None:
        """Return to the initial state and settle the logic."""
        values = [0] * self.netlist.num_nets
        values[CONST1] = 1
        for dff in self.netlist.dffs:
            values[dff.q] = dff.init
        self.load(values)
        self.settle()
        self.cycle = 0
        self.total_energy = 0.0
        self.total_toggles = 0

    def settle(self) -> None:
        """Re-evaluate combinational logic without charging energy.

        Required after out-of-band state pokes (see
        ``HardwarePowerSimulator.poke_variable``): flip-flop D inputs
        must be made consistent with the poked Q values before the next
        clock edge, otherwise the edge would restore stale state.
        """
        if self._latch_send is None:
            self._start()
        for send in self._chunk_sends:
            send(0.0)

    def step(self, inputs: Optional[Dict[str, int]] = None) -> float:
        """Advance one clock cycle; returns the energy in joules.

        ``inputs`` maps primary-input port names to bus values; ports
        not mentioned hold their previous values.  An unknown port name
        raises ``KeyError`` before any state changes.
        """
        input_ports = self.netlist.input_ports
        if inputs:
            for name in inputs:
                if name not in input_ports:
                    raise KeyError("no input port named %r" % name)
        latch = self._latch_send
        if latch is None:
            latch = self._start()
        energy, toggles = latch(self._clock_energy)

        # New primary-input values for this cycle.
        if inputs:
            v = self.values
            for name, value in inputs.items():
                for index, net in enumerate(input_ports[name]):
                    bit = (value >> index) & 1
                    if v[net] != bit:
                        energy += self.pi_energy_j
                        toggles += 1
                        v[net] = bit

        # One running gate-energy sum, in netlist order, across chunks.
        gate_energy = 0.0
        for send in self._chunk_sends:
            gate_energy, chunk_toggles = send(gate_energy)
            toggles += chunk_toggles
        energy += gate_energy

        self.cycle += 1
        self.total_energy += energy
        self.total_toggles += toggles
        return energy

    def peek(self, port: str) -> int:
        """Current value of an output port bus (LSB-first)."""
        nets = self.netlist.output_ports.get(port)
        if nets is None:
            raise KeyError("no output port named %r" % port)
        value = 0
        for index, net in enumerate(nets):
            value |= self.values[net] << index
        return value

    def peek_nets(self, nets: Sequence[int]) -> int:
        """Bus value over arbitrary nets (for white-box tests)."""
        value = 0
        for index, net in enumerate(nets):
            value |= self.values[net] << index
        return value
