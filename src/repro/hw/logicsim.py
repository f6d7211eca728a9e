"""Levelized, activity-driven compiled-code gate-level simulation.

The simulator translates a netlist into straight-line Python once
(levelized compiled-code simulation, the classic acceleration used by
gate-level power estimators), then runs it once per clock cycle.  Every
net transition is detected against the previous settled state and
charged ``1/2 C V^2`` plus cell-internal energy; flip-flops additionally
draw clock energy every cycle.

Like the paper's event-driven power simulator, a cycle evaluates only
the gates whose inputs changed: each gate has a dirty flag guarding its
line of code, and every toggle (a gate output, a flip-flop output at the
clock edge, a primary input in :meth:`CompiledSimulator.step`) sets the
flags of the gates that read the toggled net.  A gate that is not dirty
already holds the value its inputs give, so skipping it skips no toggle,
and the toggles that do happen are still charged in netlist order: the
per-cycle energies are the float sums a full evaluation gives.

The clock edge is activity-driven the same way.  A flip-flop whose D
net no flip-flop drives has a flag that whatever toggles the D net sets,
and the edge compares D with Q only while it is set; a flip-flop that
holds (D is its own Q) gets no code, and one whose D is another
flip-flop's Q compares a pre-edge snapshot every cycle.  Every
flip-flop toggle adds the same energy, so the sums do not change.

The clock edge is compiled into generator functions of at most
``_CHUNK_SIZE`` flip-flops and the gate list into chunks of at most
``_CHUNK_SIZE`` gates, one generator function each.  A running generator
keeps the nets it drives (flip-flop outputs, or its own gates' outputs)
in local variables across cycles, so a toggle test compares two locals;
other nets are read from the ``values`` list, which every toggle still
updates and which stays the authoritative net state.  The dirty flags
are closure cells, one per gate and one per flip-flop, that each
simulator creates and binds into its own copies of the kernels, so a
kernel can mark flags of any other kernel.  Out-of-band writes to the
net state go through :meth:`CompiledSimulator.load`, which flags the
gates they may have made inconsistent and restarts the generators
(reloading their locals and flagging every flip-flop) lazily at the next
evaluation.

The per-cycle energy sequence is exactly what the paper's modified SIS
power simulator reports back to the simulation master.
"""

from __future__ import annotations

import builtins
from itertools import repeat
from operator import itemgetter
from types import CellType, CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.netlist import CONST1, Netlist, NetlistKey
from repro.lru import LruCache
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

#: Gates per generated chunk kernel, and flip-flops per clock-edge
#: kernel.  Bounded chunks keep each compile (and the compile-time
#: memory spike) small: the guarded code of 320 gates peaked 3 MB higher
#: than that of 160, and chunks of 128 keep building tcpip's master
#: about 0.4 MB below chunks of 160.
_CHUNK_SIZE = 128


class _KernelCode(NamedTuple):
    """One compiled kernel, before a simulator binds its flags."""

    code: CodeType
    #: Parameter defaults: the loader of the nets held in locals, then
    #: the cell energies.
    defaults: Tuple[object, ...]
    #: Netlist position of the gate behind each of ``code.co_freevars``.
    flags: Tuple[int, ...]


class _Compiled(NamedTuple):
    #: The clock-edge kernels, then one kernel per gate chunk.
    kernels: Tuple[_KernelCode, ...]
    #: How many of ``kernels`` are clock-edge kernels.
    edges: int
    #: Flag positions of the gates and flip-flops reading each net that
    #: no gate drives (flip-flop outputs and primary inputs): the flags
    #: to set when a primary input or a load changes the net.
    readers: Dict[int, Tuple[int, ...]]


#: Cache of compiled kernels, keyed by (netlist content key, library
#: signature, chunk size).  Iterative design-space exploration
#: instantiates the same synthesized blocks dozens of times (one master
#: per design point); the generated code depends only on the gates, the
#: flip-flops' D/Q nets (hard-coded in the clock-edge kernel) and the
#: cell energies, so every instantiation after the first can skip the
#: codegen/compile step entirely.  The content key
#: (:class:`~repro.hw.netlist.NetlistKey`) is taken once per netlist and
#: hashes in O(1).  The entries are code objects: each simulator binds
#: them to its own flag cells, and the generators it starts from them
#: and the ``v`` list it owns hold all other state, which is what makes
#: sharing them across simulator instances safe.
#:
#: Values are ``(compiled, token, content key)``: the token is a
#: process-unique integer naming this compiled netlist.  Downstream
#: memoization (the hardware estimator's exact-state run memo) keys on
#: the token instead of re-hashing the gate list; tokens are never
#: reused, so entries for an evicted netlist simply go stale and age
#: out.  The stored content key is adopted by equal netlists that hit
#: (see :meth:`CompiledSimulator._compile_cached`).  At most 64
#: netlists stay compiled (LRU eviction).
_COMPILE_CACHE: LruCache[Tuple[_Compiled, int, NetlistKey]] = LruCache(capacity=64)

_NEXT_NETLIST_TOKEN = 0

COMPILE_CACHE_STATS = _COMPILE_CACHE.stats

#: Globals of every kernel, which reads only locals, parameters and
#: flag cells.
_KERNEL_GLOBALS: Dict[str, object] = {"__builtins__": builtins}


def clear_compile_cache() -> None:
    """Drop all cached compiled functions (tests and benchmarks)."""
    _COMPILE_CACHE.clear()


#: One toggle test, formatted with the new value's expression, the local
#: holding the driven net, the net, the cell name (a parameter bound to
#: the cell's switching energy) and the fanout marks.  Nets are single
#: bits, so a changed net is the complement of its old value.
_TOGGLE = "if {0} != {1}: {1} ^= 1; v[{2}] = {1}; e += {3}; n += 1{4}"


def _kernel(
    name: str,
    local_of: Dict[int, str],
    own: Sequence[int],
    touched: Sequence[int],
    body: List[str],
    energies: Dict[str, float],
) -> _KernelCode:
    """Compile one kernel generator function, called as ``(v, dirty)``.

    It loads the nets in ``local_of`` into their locals and, if
    ``dirty``, sets the flags at positions ``own``; then it runs ``body``
    once per value sent in and yields ``(e, n)``.  Flag ``gI`` belongs
    to the gate at position I, or, from the gate count on, to the
    flip-flop at position I minus the gate count; the kernel declares only
    the ``touched`` flags, as free variables (parameters of an
    enclosing function that is compiled but never run).  Cell energies
    are parameters named after the cell (read as locals), not float
    literals: parsing thousands of float literals is a large share of
    the compile time.
    """
    flags = ", ".join("g%d" % index for index in touched)
    lines = [
        "def _flags(%s):" % flags,
        " def %s(v, dirty, NETS, %s):" % (name, ", ".join(energies)),
    ]
    if touched:
        lines.append("  nonlocal " + flags)
    # ``e`` and ``n`` come first, so they get one-byte local indices.
    lines.append("  e = n = 0")
    if len(local_of) > 1:
        lines.append("  %s, = NETS(v)" % ", ".join(local_of.values()))
    elif local_of:
        lines.append("  %s = NETS(v)" % (*local_of.values(),))
    if own:
        lines.append("  if dirty: %s = True" % " = ".join("g%d" % i for i in own))
    lines += ["  e = yield", "  while True:", "   n = 0"]
    lines += ["   " + line for line in body]
    lines.append("   e = yield e, n")
    module = compile("\n".join(lines), "<%s>" % name, "exec")
    code = next(
        const
        for outer in module.co_consts if isinstance(outer, CodeType)
        for const in outer.co_consts if isinstance(const, CodeType)
    )
    return _KernelCode(
        code,
        (itemgetter(*local_of) if local_of else None, *energies.values()),
        tuple(int(flag[1:]) for flag in code.co_freevars),
    )


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
        self.netlist = netlist
        self.library = library or GateLibrary.default()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        buf = self.library.cell("BUF")
        self.pi_energy_j = (
            pi_energy_j if pi_energy_j is not None else buf.switch_energy(self.library.vdd)
        )
        self._clock_energy = DFF_CLOCK_ENERGY_J * netlist.dff_count
        self._compiled, self.netlist_token = self._compile_cached()
        #: This simulator's flags, one cell per gate and then one per
        #: flip-flop, by netlist position, and the kernels bound to them;
        #: made by the first :meth:`_start`.
        self._flags: List[CellType] = []
        self._kernels: List[Callable] = []
        #: ``send`` of the running clock-edge generators, ``None`` when
        #: the kernels' locals are stale (see :meth:`load`), and of the
        #: running chunk generators.
        self._edge_sends: Optional[List[Callable]] = None
        self._chunk_sends: List[Callable] = []
        #: Whether the next start flags every gate (see :meth:`load`).
        self._dirty = True
        self.values: List[int] = []
        self.cycle = 0
        self.total_energy = 0.0
        self.total_toggles = 0
        self.reset()

    # -- construction ---------------------------------------------------------

    def _compile_cached(self) -> Tuple[_Compiled, int]:
        """Compiled kernels plus netlist token, cached.

        Freezing checks the netlist once and takes its content key; a
        frozen netlist cannot change, so later simulators skip both.
        """
        global _NEXT_NETLIST_TOKEN
        netlist = self.netlist
        content_key = netlist.freeze()
        key = (content_key, self.library.signature(), _CHUNK_SIZE)
        entry = _COMPILE_CACHE.get(key)
        metrics = self.telemetry.metrics
        if entry is not None:
            metrics.counter("hw.compile_cache.hits").inc()
            compiled, token, stored_key = entry
            # An equal netlist (other flip-flop inits) compiled first:
            # share its key object, so the next lookup matches by
            # identity instead of comparing every gate.
            netlist.content_key = stored_key
            return compiled, token
        metrics.counter("hw.compile_cache.misses").inc()
        _NEXT_NETLIST_TOKEN += 1
        compiled = self._compile()
        _COMPILE_CACHE.put(key, (compiled, _NEXT_NETLIST_TOKEN, content_key))
        return compiled, _NEXT_NETLIST_TOKEN

    def _compile(self) -> _Compiled:
        """Generator functions: the clock edge, then one per gate chunk.

        Every kernel keeps the nets it drives in locals, loaded from
        ``v`` when the generator starts.  Each value sent in is the
        cycle's running energy; the kernel adds the energy of its
        toggles in netlist order and yields it with its toggle count.
        ``v`` is written on every toggle, keeping it authoritative for
        the estimator, the ports and the other kernels, and every toggle
        marks the gates and flip-flops reading the toggled net.  A
        kernel runs a gate, or compares a flagged flip-flop's D with Q,
        only while its flag is set, and clears the flag first.
        """
        library = self.library

        def energies(cells) -> Dict[str, float]:
            return {
                cell: library.cell(cell).switch_energy(library.vdd)
                for cell in sorted(cells)
            }

        gates = self.netlist.gates
        # Flag positions of the gates (and below, flip-flops) reading
        # each net.
        readers: Dict[int, List[int]] = {}
        for index, gate in enumerate(gates):
            for net in dict.fromkeys(gate.inputs):
                readers.setdefault(net, []).append(index)

        def marks(net: int) -> str:
            marked = readers.get(net)
            if not marked:
                return ""
            return "; %s = True" % " = ".join("g%d" % index for index in marked)

        dffs = self.netlist.dffs
        q_nets = {dff.q for dff in dffs}
        # Clock edge: Q follows the settled D.  A flip-flop whose D is
        # its own Q holds, and gets no code.  One whose D is another
        # flip-flop's Q (a chain) reads a snapshot taken before any Q
        # is written, so all chain flip-flops go to the first edge
        # kernel, which runs first.  Every other flip-flop is guarded by
        # the flag at the gate count plus its netlist position, which the
        # toggles of its D net set.  Every toggle adds the same ``DFF``
        # energy, so skipping and reordering flip-flops keeps the sums.
        chain = [(None, dff) for dff in dffs if dff.d in q_nets and dff.d != dff.q]
        guarded = [
            (position, dff) for position, dff in enumerate(dffs, len(gates))
            if dff.d not in q_nets
        ]
        for position, dff in guarded:
            readers.setdefault(dff.d, []).append(position)
        snapshots = sorted({dff.d for _, dff in chain})
        latched = chain + guarded
        first = max(_CHUNK_SIZE, len(chain))
        edges = [latched[:first]] + [
            latched[start:start + _CHUNK_SIZE]
            for start in range(first, len(latched), _CHUNK_SIZE)
        ]
        kernels: List[_KernelCode] = []
        for edge_dffs in edges:
            q_local = {dff.q: "q%d" % dff.q for _, dff in edge_dffs}
            edge = [] if kernels else [
                "s%d = %s" % (net, q_local.get(net) or "v[%d]" % net)
                for net in snapshots
            ]
            guards: List[int] = []
            touched: Dict[int, None] = {}
            for position, dff in edge_dffs:
                toggle = _TOGGLE.format(
                    "s%d" % dff.d if position is None else "v[%d]" % dff.d,
                    q_local[dff.q], dff.q, "DFF", marks(dff.q),
                )
                if position is None:
                    edge.append(toggle)
                else:
                    guards.append(position)
                    edge += ["if g%d:" % position, " g%d = False" % position,
                             " " + toggle]
                touched.update(dict.fromkeys(readers.get(dff.q, ())))
            touched.update(dict.fromkeys(guards))
            kernels.append(_kernel(
                "_edge", q_local, guards, list(touched), edge, energies({"DFF"})
            ))

        for start in range(0, len(gates), _CHUNK_SIZE):
            chunk = gates[start:start + _CHUNK_SIZE]
            t_local = {gate.output: "t%d" % gate.output for gate in chunk}
            own = range(start, start + len(chunk))
            touched = dict.fromkeys(own)
            body = []
            for index, gate in zip(own, chunk):
                out = gate.output
                operands = [t_local.get(net) or "v[%d]" % net for net in gate.inputs]
                toggle = _TOGGLE.format(
                    _GATE_EXPR[gate.cell].format(*operands),
                    t_local[out], out, gate.cell, marks(out),
                )
                body += ["if g%d:" % index, " g%d = False" % index, " " + toggle]
                touched.update(dict.fromkeys(readers.get(out, ())))
            kernels.append(_kernel(
                "_chunk", t_local, own, list(touched), body,
                energies({gate.cell for gate in chunk}),
            ))
        undriven = [dff.q for dff in dffs]
        for nets in self.netlist.input_ports.values():
            undriven += nets
        return _Compiled(
            tuple(kernels), len(edges),
            {net: tuple(readers.get(net, ())) for net in undriven},
        )

    # -- state ------------------------------------------------------------------

    def load(
        self,
        values: Sequence[int],
        nets: Optional[Sequence[int]] = None,
        settled: bool = False,
    ) -> None:
        """Overwrite net state out of band, charging no energy.

        With ``nets`` omitted ``values`` replaces every net's value;
        otherwise ``values[i]`` is written to net ``nets[i]``.  The
        kernels' locals go stale and are reloaded from ``values`` at the
        next evaluation.  Combinational nets are not re-evaluated before
        that: call :meth:`settle` when the written nets feed logic.

        After a full load the next evaluation runs every gate, unless
        ``settled`` declares that every gate output in ``values``
        already follows its inputs, as in a state that a step or a
        settle left; a wrong declaration gives wrong energies, not an
        error.  After a partial load it runs the gates reading each
        flip-flop output or primary input whose value changed, or every
        gate if the load changed a gate's output; a partial load that
        changes nothing leaves the kernels running.
        """
        if nets is None:
            self.values[:] = values
            self._dirty = not settled
            self._edge_sends = None
            return
        current = self.values
        readers = self._compiled.readers
        flags = self._flags
        for net, value in zip(nets, values):
            if current[net] != value:
                current[net] = value
                self._edge_sends = None
                marked = readers.get(net)
                if marked is None:
                    self._dirty = True
                elif flags:
                    for index in marked:
                        flags[index].cell_contents = True

    def _start(self) -> List[Callable]:
        """Start the kernels from ``values``; returns the edge kernels' sends.

        Every flip-flop is flagged on every start.  Every gate is flagged
        after a full load that was not declared settled, and on the first
        start, which binds the kernels.
        """
        kernels = self._kernels
        if not kernels:
            # A flag's cell is shared by every kernel that reads or marks
            # it.
            netlist = self.netlist
            flags = self._flags = list(map(
                CellType, repeat(True, netlist.gate_count + netlist.dff_count)
            ))
            kernels[:] = [
                FunctionType(
                    kernel.code, _KERNEL_GLOBALS, kernel.code.co_name,
                    kernel.defaults, tuple(map(flags.__getitem__, kernel.flags)),
                )
                for kernel in self._compiled.kernels
            ]
        sends = []
        edges = self._compiled.edges
        for position, kernel in enumerate(kernels):
            generator = kernel(self.values, position < edges or self._dirty)
            next(generator)
            sends.append(generator.send)
        self._chunk_sends = sends[edges:]
        self._edge_sends = sends[:edges]
        return self._edge_sends

    # -- simulation -------------------------------------------------------------

    def reset(self) -> None:
        """Return to the initial state and settle the logic.

        The settled state depends only on the netlist, so it is computed
        by the first reset on a netlist and copied by every later one;
        the kernels then start at the next evaluation, as after
        :meth:`load`.
        """
        netlist = self.netlist
        settled = netlist.reset_values
        if settled is None:
            values = [0] * netlist.num_nets
            values[CONST1] = 1
            for dff in netlist.dffs:
                values[dff.q] = dff.init
            self.load(values)
            self.settle()
            netlist.reset_values = tuple(self.values)
        else:
            self.load(settled, settled=True)
        self.cycle = 0
        self.total_energy = 0.0
        self.total_toggles = 0

    def settle(self) -> None:
        """Re-evaluate combinational logic without charging energy.

        Required after out-of-band state pokes (see
        ``HardwarePowerSimulator.poke_variables``): flip-flop D inputs
        must be made consistent with the poked Q values before the next
        clock edge, otherwise the edge would restore stale state.
        """
        if self._edge_sends is None:
            self._start()
        for send in self._chunk_sends:
            send(0.0)

    def step(self, inputs: Optional[Dict[str, int]] = None) -> float:
        """Advance one clock cycle; returns the energy in joules.

        ``inputs`` maps primary-input port names to bus values; ports
        not mentioned hold their previous values.  An unknown port name
        raises ``KeyError`` before any state changes.
        """
        if inputs:
            input_ports = self.netlist.input_ports
            try:
                driven = [(input_ports[name], value) for name, value in inputs.items()]
            except KeyError as error:
                raise KeyError("no input port named %r" % error.args[0]) from None
        edge_sends = self._edge_sends
        if edge_sends is None:
            edge_sends = self._start()
        energy = self._clock_energy
        toggles = 0
        for send in edge_sends:
            energy, edge_toggles = send(energy)
            toggles += edge_toggles

        # New primary-input values for this cycle.
        if inputs:
            v = self.values
            readers = self._compiled.readers
            flags = self._flags
            for nets, value in driven:
                for net in nets:
                    bit = value & 1
                    value >>= 1
                    if v[net] != bit:
                        energy += self.pi_energy_j
                        toggles += 1
                        v[net] = bit
                        for reader in readers[net]:
                            flags[reader].cell_contents = True

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
