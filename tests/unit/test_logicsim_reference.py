"""Bit-identity of the compiled gate-level kernel against a reference.

:class:`ReferenceSimulator` is a plain interpreter over
``netlist.gates`` with the simulator's documented semantics: all D
values are read before any Q is written, primary inputs are applied
after the clock edge, and gate energies are summed as one running float
in netlist order and added once to the clock + flip-flop + input
subtotal.  ``CompiledSimulator`` must reproduce its per-cycle energies
exactly (float equality), its toggle counts and its net values, also
across out-of-band writes, and also when it skips the gates whose inputs
did not change (sparse stimuli).
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cfsm.builder import CfsmBuilder
from repro.hw import logicsim
from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.logicsim import CompiledSimulator
from repro.hw.netlist import CONST1, Dff, Gate, Netlist, NetlistBuilder
from repro.hw.synth import clear_synth_cache, synthesize_cfsm_cached
from repro.systems import build_bundle, tcpip

from tests.generators import EVENT_IN, EVENT_OUT, VAR_NAMES, hw_bodies

_CELL_FUNCTIONS = {
    "INV": lambda a: a ^ 1,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: a ^ b ^ 1,
    "NAND2": lambda a, b: (a & b) ^ 1,
    "NOR2": lambda a, b: (a | b) ^ 1,
    "MUX2": lambda sel, a, b: b if sel else a,
}

#: (bundled system, hardware process) pairs: every bundled HW netlist.
BUNDLED = [
    ("tcpip", "checksum"),
    ("automotive", "odometer"),
    ("automotive", "speedometer"),
    ("fig1", "consumer"),
    ("fig1", "timer"),
]


class ReferenceSimulator:
    """Interpreted gate-level simulator with the compiled one's semantics."""

    def __init__(self, netlist, library=None):
        library = library or GateLibrary.default()
        self.netlist = netlist
        self.gate_energy = [
            library.cell(gate.cell).switch_energy(library.vdd)
            for gate in netlist.gates
        ]
        self.dff_energy = library.cell("DFF").switch_energy(library.vdd)
        self.pi_energy = library.cell("BUF").switch_energy(library.vdd)
        self.clock_energy = DFF_CLOCK_ENERGY_J * netlist.dff_count
        self.reset()

    def reset(self):
        values = [0] * self.netlist.num_nets
        values[CONST1] = 1
        for dff in self.netlist.dffs:
            values[dff.q] = dff.init
        self.values = values
        self.settle()
        self.total_toggles = 0

    def settle(self):
        self._evaluate()

    def _evaluate(self):
        values = self.values
        energy = 0.0
        toggles = 0
        for gate, gate_energy in zip(self.netlist.gates, self.gate_energy):
            new = _CELL_FUNCTIONS[gate.cell](*(values[net] for net in gate.inputs))
            if new != values[gate.output]:
                values[gate.output] = new
                energy += gate_energy
                toggles += 1
        return energy, toggles

    def step(self, inputs):
        values = self.values
        energy = self.clock_energy
        toggles = 0
        latched = [values[dff.d] for dff in self.netlist.dffs]
        for dff, bit in zip(self.netlist.dffs, latched):
            if values[dff.q] != bit:
                values[dff.q] = bit
                energy += self.dff_energy
                toggles += 1
        for name, value in inputs.items():
            for index, net in enumerate(self.netlist.input_ports[name]):
                bit = (value >> index) & 1
                if values[net] != bit:
                    values[net] = bit
                    energy += self.pi_energy
                    toggles += 1
        gate_energy, gate_toggles = self._evaluate()
        self.total_toggles += toggles + gate_toggles
        return energy + gate_energy


def random_inputs(netlist, rng):
    return {
        name: rng.getrandbits(len(nets))
        for name, nets in sorted(netlist.input_ports.items())
    }


def assert_same_step(sim, ref, inputs, context):
    energy = sim.step(inputs)
    expected = ref.step(inputs)
    assert energy == expected, "%s: energy %r != %r" % (context, energy, expected)
    assert sim.values == ref.values, context


class SparseInputs:
    """Inputs held for random stretches, one bit flipped at a time.

    Most gates then see no input change for many cycles, so the
    compiled kernel skips them.
    """

    def __init__(self, netlist, rng):
        self.rng = rng
        self.widths = {name: len(nets)
                       for name, nets in sorted(netlist.input_ports.items())}
        self.current = random_inputs(netlist, rng)
        self.hold = 0

    def __call__(self, netlist, rng):
        if self.hold:
            self.hold -= 1
        elif self.widths:
            name = self.rng.choice(sorted(self.widths))
            self.current[name] ^= 1 << self.rng.randrange(self.widths[name])
            self.hold = self.rng.randrange(1, 16)
        return dict(self.current)


def drive(netlist, seed, cycles, interleave=False, sparse=False,
          settled_restores=False):
    """Step both simulators under seeded random stimuli and compare.

    With ``interleave``, out-of-band writes land between steps the way
    the hardware estimator issues them: a register poke followed by a
    settle, a poke without a settle, a memo-style restore of a full
    earlier snapshot, and a reset.  ``settled_restores`` declares the
    restored snapshots settled, as the estimator's memo replay does
    (each was taken after a step).  ``sparse`` drives
    :class:`SparseInputs` instead of new random inputs every cycle.
    """
    rng = random.Random(seed)
    sim = CompiledSimulator(netlist)
    ref = ReferenceSimulator(netlist)
    inputs = SparseInputs(netlist, rng) if sparse else random_inputs
    assert sim.values == ref.values
    snapshots = []
    q_nets = [dff.q for dff in netlist.dffs]
    writable = list(range(CONST1 + 1, netlist.num_nets))
    for cycle in range(cycles):
        context = "%s seed %d cycle %d" % (netlist.name, seed, cycle)
        if interleave:
            action = rng.randrange(8)
            if action == 0 and q_nets:
                nets = rng.sample(q_nets, min(len(q_nets), 8))
                bits = [rng.getrandbits(1) for _ in nets]
                sim.load(bits, nets)
                sim.settle()
                for net, bit in zip(nets, bits):
                    ref.values[net] = bit
                ref.settle()
            elif action == 1 and writable:
                nets = rng.sample(writable, min(len(writable), 4))
                bits = [rng.getrandbits(1) for _ in nets]
                sim.load(bits, nets)
                for net, bit in zip(nets, bits):
                    ref.values[net] = bit
            elif action == 2:
                snapshots.append(list(sim.values))
            elif action == 3 and snapshots:
                snapshot = rng.choice(snapshots)
                sim.load(snapshot, settled=settled_restores)
                ref.values[:] = snapshot
            elif action == 4 and rng.random() < 0.2:
                sim.reset()
                ref.reset()
            assert sim.values == ref.values, context
        assert_same_step(sim, ref, inputs(netlist, rng), context)


def bundled_netlist(system, process):
    network = build_bundle(system).network
    return synthesize_cfsm_cached(network.cfsms[process]).netlist


def build_cfsm(body):
    builder = CfsmBuilder("refprop", width=16)
    builder.input(EVENT_IN, has_value=True)
    builder.output(EVENT_OUT, has_value=True)
    for name in VAR_NAMES:
        builder.var(name, 0)
    builder.transition("t", trigger=[EVENT_IN], body=body)
    return builder.build()


class TestBundledNetlists:
    @pytest.mark.parametrize("system,process", BUNDLED)
    def test_matches_reference(self, system, process):
        drive(bundled_netlist(system, process), seed=0xD5, cycles=150)

    @pytest.mark.parametrize("system,process", BUNDLED)
    def test_matches_reference_across_out_of_band_writes(self, system, process):
        drive(bundled_netlist(system, process), seed=0x5E, cycles=150,
              interleave=True)

    @pytest.mark.parametrize("system,process", BUNDLED)
    def test_matches_reference_under_sparse_stimuli(self, system, process):
        drive(bundled_netlist(system, process), seed=0x5A, cycles=300,
              sparse=True)

    @pytest.mark.parametrize("system,process", BUNDLED)
    def test_sparse_stimuli_across_settled_restores(self, system, process):
        drive(bundled_netlist(system, process), seed=0x5B, cycles=200,
              interleave=True, sparse=True, settled_restores=True)

    def test_sparse_stimuli_with_small_chunks(self, monkeypatch):
        monkeypatch.setattr(logicsim, "_CHUNK_SIZE", 7)
        drive(bundled_netlist("tcpip", "checksum"), seed=0x5C, cycles=200,
              interleave=True, sparse=True, settled_restores=True)

    def test_checksum_spans_several_chunks(self):
        # The cross-chunk running energy sum is only exercised by a
        # netlist larger than one chunk.
        netlist = bundled_netlist("tcpip", "checksum")
        assert len(netlist.gates) > 2 * logicsim._CHUNK_SIZE


class TestOutOfBandWrites:
    """A load re-evaluates exactly what it may have made inconsistent."""

    @staticmethod
    def settled_pair(netlist, seed=11, cycles=8):
        sim, ref = CompiledSimulator(netlist), ReferenceSimulator(netlist)
        rng = random.Random(seed)
        inputs = random_inputs(netlist, rng)
        for cycle in range(cycles):
            inputs = random_inputs(netlist, rng)
            assert_same_step(sim, ref, inputs, "warm-up %d" % cycle)
        return sim, ref, inputs

    def test_wrong_value_on_a_quiet_gate_net_is_re_evaluated(self):
        # An AND gate whose inputs hold: its driven net is loaded with
        # the wrong value, so only re-running that gate restores it.
        builder = NetlistBuilder("quiet")
        a, b = builder.input_bus("a", 1)[0], builder.input_bus("b", 1)[0]
        both = builder.gate("AND2", a, b)
        builder.output_bus("y", [builder.gate("INV", both)])
        netlist = builder.build()
        sim, ref = CompiledSimulator(netlist), ReferenceSimulator(netlist)
        assert_same_step(sim, ref, {"a": 1, "b": 1}, "settle")
        assert_same_step(sim, ref, {"a": 1, "b": 1}, "quiet")
        sim.load([0], [both])
        ref.values[both] = 0
        assert_same_step(sim, ref, {"a": 1, "b": 1}, "after the load")
        assert sim.values[both] == 1
        assert sim.peek("y") == 0

    def test_wrong_value_on_any_checksum_gate_net(self):
        netlist = bundled_netlist("tcpip", "checksum")
        sim, ref, inputs = self.settled_pair(netlist)
        for index, gate in enumerate(netlist.gates[::97]):
            wrong = 1 - sim.values[gate.output]
            sim.load([wrong], [gate.output])
            ref.values[gate.output] = wrong
            assert_same_step(sim, ref, inputs, "gate %d" % index)

    def test_poke_that_changes_nothing_keeps_the_kernels(self):
        netlist = bundled_netlist("tcpip", "checksum")
        sim, ref, inputs = self.settled_pair(netlist)
        q_nets = [dff.q for dff in netlist.dffs]
        running = sim._edge_sends
        sim.load([sim.values[net] for net in q_nets], q_nets)
        sim.settle()
        assert sim._edge_sends is running
        assert_same_step(sim, ref, inputs, "after the poke")

    def test_full_load_of_an_unsettled_state(self):
        # Random net values: no gate output follows its inputs, so a
        # load not declared settled must re-run every gate.
        netlist = bundled_netlist("tcpip", "checksum")
        sim, ref, inputs = self.settled_pair(netlist)
        rng = random.Random(13)
        state = [rng.getrandbits(1) for _ in range(netlist.num_nets)]
        state[:CONST1 + 1] = [0, 1]
        sim.load(state)
        ref.values[:] = state
        assert_same_step(sim, ref, inputs, "after the load")

    def test_settled_restore_of_an_earlier_state(self):
        netlist = bundled_netlist("tcpip", "checksum")
        sim, ref, _ = self.settled_pair(netlist)
        snapshot = bytes(sim.values)
        rng = random.Random(12)
        for cycle in range(6):
            assert_same_step(sim, ref, random_inputs(netlist, rng),
                             "drift %d" % cycle)
        sim.load(snapshot, settled=True)
        ref.values[:] = snapshot
        for cycle in range(20):
            assert_same_step(sim, ref, random_inputs(netlist, rng),
                             "restored %d" % cycle)


class TestSharedCompileCache:
    """Netlists with equal gates but different flip-flop wiring.

    The clock-edge kernel hard-codes every D and Q net, so such
    netlists must not share cached kernels.
    """

    @staticmethod
    def wired(dffs, gates=()):
        return Netlist(
            "wired", num_nets=7, gates=list(gates), dffs=list(dffs),
            input_ports={"ab": [2, 3]},
        )

    def check_each(self, netlists):
        # Compile all of them before driving any, so a shared cache
        # entry would be picked up.
        sims = [CompiledSimulator(netlist) for netlist in netlists]
        for netlist, sim in zip(netlists, sims):
            ref = ReferenceSimulator(netlist)
            rng = random.Random(7)
            for cycle in range(16):
                assert_same_step(
                    sim, ref, random_inputs(netlist, rng),
                    "%r cycle %d" % (netlist.dffs, cycle),
                )

    def test_same_gates_different_d_nets(self):
        gates = [Gate("AND2", (2, 4), 5), Gate("XOR2", (3, 4), 6)]
        self.check_each([
            self.wired([Dff(5, 4)], gates),
            self.wired([Dff(6, 4)], gates),
        ])

    def test_gateless_netlists(self):
        self.check_each([
            self.wired([Dff(2, 4)]),
            self.wired([Dff(3, 4), Dff(4, 5)]),
            self.wired([]),
        ])


def seeded_energies(sim, ref, seed, cycles=60):
    """Step both under one seeded input sequence; assert equal energies."""
    rng = random.Random(seed)
    for cycle in range(cycles):
        assert_same_step(sim, ref, random_inputs(sim.netlist, rng),
                         "%s cycle %d" % (sim.netlist.name, cycle))


class TestSettledResetState:
    """Warm simulators copy the netlist's settled reset state.

    The first simulator on a netlist settles it once; later ones (on the
    same netlist, or on one with equal gates but other flip-flop inits
    that shares its compiled kernels) must start from exactly the state
    the reference interpreter settles to.
    """

    def test_second_simulator_on_the_same_netlist(self):
        netlist = bundled_netlist("tcpip", "checksum")
        CompiledSimulator(netlist).step()
        warm = CompiledSimulator(netlist)
        ref = ReferenceSimulator(netlist)
        assert warm.values == ref.values
        seeded_energies(warm, ref, seed=3)
        warm.reset()
        ref.reset()
        assert warm.values == ref.values
        seeded_energies(warm, ref, seed=4)

    def test_equal_gates_different_inits(self):
        clear_synth_cache()
        logicsim.clear_compile_cache()
        small, large = (
            synthesize_cfsm_cached(
                tcpip.build_system(dma_block_words=dma).network.cfsms["checksum"]
            ).netlist
            for dma in (2, 128)
        )
        assert small.gates == large.gates
        assert [d.init for d in small.dffs] != [d.init for d in large.dffs]
        cold = CompiledSimulator(small)
        warm = CompiledSimulator(large)
        assert logicsim.COMPILE_CACHE_STATS.snapshot()["hits"] == 1
        assert warm.netlist_token == cold.netlist_token
        # The hit adopted the stored key object.
        assert large.content_key is small.content_key
        for sim, netlist in ((cold, small), (warm, large)):
            ref = ReferenceSimulator(netlist)
            assert sim.values == ref.values
            seeded_energies(sim, ref, seed=5)
            sim.reset()
            ref.reset()
            assert sim.values == ref.values
            seeded_energies(sim, ref, seed=6)

    def test_warm_simulators_do_not_alias_values(self):
        netlist = bundled_netlist("fig1", "consumer")
        first, second = CompiledSimulator(netlist), CompiledSimulator(netlist)
        assert first.values is not second.values
        before = list(second.values)
        rng = random.Random(8)
        for _ in range(10):
            first.step(random_inputs(netlist, rng))
        assert first.values != before
        assert second.values == before
        assert list(netlist.reset_values) == before

    def test_libraries_get_their_own_kernels(self):
        netlist = bundled_netlist("fig1", "consumer")
        sims = {}
        for vdd in (3.3, 1.65):
            library = GateLibrary(vdd=vdd)
            sims[vdd] = CompiledSimulator(netlist, library)
            seeded_energies(sims[vdd], ReferenceSimulator(netlist, library), seed=9)
        assert sims[3.3]._kernels is not sims[1.65]._kernels
        assert sims[3.3].netlist_token != sims[1.65].netlist_token


class TestGeneratedNetlists:
    @given(hw_bodies(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, body, seed, interleave):
        netlist = synthesize_cfsm_cached(build_cfsm(list(body))).netlist
        drive(netlist, seed, cycles=24, interleave=interleave)

    @given(hw_bodies(), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_with_small_chunks(self, body, seed):
        # Chunks of a few gates put almost every fanin and every energy
        # hand-off across a chunk boundary.
        netlist = synthesize_cfsm_cached(build_cfsm(list(body))).netlist
        assume(len(netlist.gates) > 7)
        chunk_size = logicsim._CHUNK_SIZE
        logicsim._CHUNK_SIZE = 7
        try:
            drive(netlist, seed, cycles=24, interleave=True)
        finally:
            logicsim._CHUNK_SIZE = chunk_size

    @given(hw_bodies(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_under_sparse_stimuli(self, body, seed, interleave):
        netlist = synthesize_cfsm_cached(build_cfsm(list(body))).netlist
        drive(netlist, seed, cycles=48, interleave=interleave, sparse=True,
              settled_restores=True)

    @given(hw_bodies(), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_sparse_stimuli_with_small_chunks(self, body, seed):
        netlist = synthesize_cfsm_cached(build_cfsm(list(body))).netlist
        assume(len(netlist.gates) > 7)
        chunk_size = logicsim._CHUNK_SIZE
        logicsim._CHUNK_SIZE = 7
        try:
            drive(netlist, seed, cycles=48, interleave=True, sparse=True,
                  settled_restores=True)
        finally:
            logicsim._CHUNK_SIZE = chunk_size


_ARITY = {"INV": 1, "BUF": 1, "MUX2": 3}

#: Where a generated flip-flop's D comes from.
_D_SOURCES = ("gate", "input", "const1", "own", "other")


@st.composite
def edge_netlists(draw):
    """Small netlists whose flip-flops read every kind of D net.

    D nets are gate outputs, primary inputs, ``CONST1``, the flip-flop's
    own Q (a hold) and other flip-flops' Q (chains); the first two
    flip-flops may be wired as a swap.
    """
    net = CONST1 + 1
    input_ports = {}
    for index in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 3))
        input_ports["in%d" % index] = list(range(net, net + width))
        net += width
    primary = [pi for nets in input_ports.values() for pi in nets]
    q_nets = list(range(net, net + draw(st.integers(1, 8))))
    net += len(q_nets)
    defined = [0, CONST1] + primary + q_nets
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        cell = draw(st.sampled_from(sorted(_CELL_FUNCTIONS)))
        operands = st.sampled_from(defined)
        inputs = tuple(draw(operands) for _ in range(_ARITY.get(cell, 2)))
        gates.append(Gate(cell, inputs, net))
        defined.append(net)
        net += 1
    dffs = []
    for q in q_nets:
        source = draw(st.sampled_from(_D_SOURCES))
        if source == "gate" and gates:
            d = draw(st.sampled_from([gate.output for gate in gates]))
        elif source in ("gate", "input"):
            d = draw(st.sampled_from(primary))
        elif source == "const1":
            d = CONST1
        elif source == "own":
            d = q
        else:
            d = draw(st.sampled_from(q_nets))
        dffs.append(Dff(d, q, draw(st.integers(0, 1))))
    if len(q_nets) > 1 and draw(st.booleans()):
        dffs[0] = Dff(q_nets[1], q_nets[0], dffs[0].init)
        dffs[1] = Dff(q_nets[0], q_nets[1], dffs[1].init)
    return Netlist("edge", num_nets=net, gates=gates, dffs=dffs,
                   input_ports=input_ports, output_ports={"q": q_nets})


def drive_edges(netlist, seed, cycles):
    """Sparse stimuli between Q pokes, settles and full loads.

    Each cycle passes only the input ports whose value changed, so most
    cycles leave every primary input alone.  Between steps, flip-flop
    outputs are poked (then usually settled), and the whole net state
    is replaced by an earlier settled snapshot or by random bits that
    follow no gate.
    """
    rng = random.Random(seed)
    sim = CompiledSimulator(netlist)
    ref = ReferenceSimulator(netlist)
    stimuli = SparseInputs(netlist, rng)
    q_nets = [dff.q for dff in netlist.dffs]
    applied = {}
    snapshots = []
    for cycle in range(cycles):
        context = "seed %d cycle %d" % (seed, cycle)
        action = rng.randrange(8)
        if action == 0:
            nets = rng.sample(q_nets, rng.randint(1, len(q_nets)))
            bits = [rng.getrandbits(1) for _ in nets]
            sim.load(bits, nets)
            for net, bit in zip(nets, bits):
                ref.values[net] = bit
            if rng.random() < 0.8:
                sim.settle()
                ref.settle()
        elif action == 1:
            snapshots.append(list(sim.values))
        elif action == 2 and snapshots:
            snapshot = rng.choice(snapshots)
            sim.load(snapshot, settled=True)
            ref.values[:] = snapshot
        elif action == 3:
            state = [0, 1] + [rng.getrandbits(1)
                              for _ in range(netlist.num_nets - 2)]
            sim.load(state)
            ref.values[:] = state
        assert sim.values == ref.values, context
        current = stimuli(netlist, rng)
        changed = {name: value for name, value in current.items()
                   if applied.get(name) != value}
        applied.update(changed)
        assert_same_step(sim, ref, changed, context)


class TestClockEdge:
    """Only flip-flops whose D may have changed are compared at the edge."""

    @given(edge_netlists(), st.sampled_from([2, 3, logicsim._CHUNK_SIZE]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, netlist, chunk_size, seed):
        # Small chunks split the flip-flops over several edge kernels and
        # put D nets' drivers in other kernels than their flip-flops.
        saved = logicsim._CHUNK_SIZE
        logicsim._CHUNK_SIZE = chunk_size
        try:
            drive_edges(netlist, seed, cycles=40)
        finally:
            logicsim._CHUNK_SIZE = saved

    @pytest.mark.parametrize("chunk_size", [2, logicsim._CHUNK_SIZE])
    def test_every_d_source(self, chunk_size, monkeypatch):
        # in0 drives nets 2-3, flip-flops nets 4-11, gates nets 12-13.
        monkeypatch.setattr(logicsim, "_CHUNK_SIZE", chunk_size)
        netlist = Netlist(
            "sources", num_nets=14,
            gates=[Gate("XOR2", (2, 4), 12), Gate("AND2", (3, 9), 13)],
            dffs=[
                Dff(5, 4, 1), Dff(4, 5),  # a swap
                Dff(5, 6),                # a chain off the swap
                Dff(2, 7),                # a primary input
                Dff(CONST1, 8),           # a constant
                Dff(12, 9, 1),            # a gate output
                Dff(10, 10, 1),           # a hold
                Dff(13, 11),              # a gate reading a flip-flop
            ],
            input_ports={"in0": [2, 3]},
            output_ports={"q": list(range(4, 12))},
        )
        for seed in range(8):
            drive_edges(netlist, seed, cycles=60)
