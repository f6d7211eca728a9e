"""Bit-identity of the compiled gate-level kernel against a reference.

:class:`ReferenceSimulator` is a plain interpreter over
``netlist.gates`` with the simulator's documented semantics: all D
values are read before any Q is written, primary inputs are applied
after the clock edge, and gate energies are summed as one running float
in netlist order and added once to the clock + flip-flop + input
subtotal.  ``CompiledSimulator`` must reproduce its per-cycle energies
exactly (float equality), its toggle counts and its net values, also
across out-of-band writes.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cfsm.builder import CfsmBuilder
from repro.hw import logicsim
from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.logicsim import CompiledSimulator
from repro.hw.netlist import CONST1, Dff, Gate, Netlist
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
    toggles_before = sim.total_toggles
    ref_toggles_before = ref.total_toggles
    energy = sim.step(inputs)
    expected = ref.step(inputs)
    assert energy == expected, "%s: energy %r != %r" % (context, energy, expected)
    assert (
        sim.total_toggles - toggles_before == ref.total_toggles - ref_toggles_before
    ), context
    assert sim.values == ref.values, context


def drive(netlist, seed, cycles, interleave=False):
    """Step both simulators under seeded random stimuli and compare.

    With ``interleave``, out-of-band writes land between steps the way
    the hardware estimator issues them: a register poke followed by a
    settle, a poke without a settle, a memo-style restore of a full
    earlier snapshot, and a reset.
    """
    rng = random.Random(seed)
    sim = CompiledSimulator(netlist)
    ref = ReferenceSimulator(netlist)
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
                sim.load(snapshot)
                ref.values[:] = snapshot
            elif action == 4 and rng.random() < 0.2:
                sim.reset()
                ref.reset()
            assert sim.values == ref.values, context
        assert_same_step(sim, ref, random_inputs(netlist, rng), context)


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

    def test_checksum_spans_several_chunks(self):
        # The cross-chunk running energy sum is only exercised by a
        # netlist larger than one chunk.
        netlist = bundled_netlist("tcpip", "checksum")
        assert len(netlist.gates) > 2 * logicsim._CHUNK_SIZE


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
