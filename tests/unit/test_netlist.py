"""Unit tests: netlist construction and the gate library."""

import pytest

from repro.hw.library import Cell, GateLibrary
from repro.hw.logicsim import CompiledSimulator
from repro.hw.netlist import CONST0, CONST1, Dff, Gate, Netlist, NetlistBuilder, NetlistError


class TestGateLibrary:
    def test_default_cells_present(self):
        library = GateLibrary.default()
        for name in ("INV", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "MUX2", "DFF"):
            assert name in library.cell_names()

    def test_cell_functions(self):
        library = GateLibrary.default()
        assert library.cell("INV").evaluate(0) == 1
        assert library.cell("NAND2").evaluate(1, 1) == 0
        assert library.cell("XOR2").evaluate(1, 0) == 1
        assert library.cell("MUX2").evaluate(0, 5, 9) == 5
        assert library.cell("MUX2").evaluate(1, 5, 9) == 9

    def test_switch_energy_scales_with_vdd(self):
        cell = GateLibrary.default().cell("INV")
        assert cell.switch_energy(3.3) > cell.switch_energy(1.8)

    def test_unknown_cell(self):
        with pytest.raises(KeyError):
            GateLibrary.default().cell("NAND9")


class TestConstantFolding:
    def test_and_with_constants(self):
        builder = NetlistBuilder("t")
        net = builder.input_bus("a", 1)[0]
        assert builder.and_(net, CONST0) == CONST0
        assert builder.and_(net, CONST1) == net
        assert builder.and_(net, net) == net

    def test_xor_with_constants(self):
        builder = NetlistBuilder("t")
        net = builder.input_bus("a", 1)[0]
        assert builder.xor_(net, CONST0) == net
        assert builder.xor_(net, net) == CONST0
        # XOR with 1 becomes an inverter gate.
        inverted = builder.xor_(net, CONST1)
        assert inverted not in (net, CONST0, CONST1)

    def test_not_of_constants(self):
        builder = NetlistBuilder("t")
        assert builder.not_(CONST0) == CONST1
        assert builder.not_(CONST1) == CONST0

    def test_mux_folding(self):
        builder = NetlistBuilder("t")
        a, b = builder.input_bus("ab", 2)
        assert builder.mux(CONST0, a, b) == a
        assert builder.mux(CONST1, a, b) == b
        assert builder.mux(a, b, b) == b


class TestTreesAndBuses:
    def test_or_tree_empty_and_single(self):
        builder = NetlistBuilder("t")
        assert builder.or_tree([]) == CONST0
        net = builder.input_bus("a", 1)[0]
        assert builder.or_tree([net]) == net

    def test_and_tree_empty(self):
        builder = NetlistBuilder("t")
        assert builder.and_tree([]) == CONST1

    def test_const_bus_encoding(self):
        builder = NetlistBuilder("t")
        bus = builder.const_bus(0b1010, 4)
        assert bus == [CONST0, CONST1, CONST0, CONST1]

    def test_adder_width_mismatch(self):
        builder = NetlistBuilder("t")
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 3)
        with pytest.raises(NetlistError):
            builder.ripple_add(a, b)

    def test_duplicate_ports_rejected(self):
        builder = NetlistBuilder("t")
        builder.input_bus("a", 1)
        with pytest.raises(NetlistError):
            builder.input_bus("a", 1)


class TestStructuralChecks:
    def test_check_catches_undefined_reads(self):
        builder = NetlistBuilder("t")
        bad_net = 500  # never defined
        builder.netlist.num_nets = 501
        builder.gate("INV", bad_net)
        with pytest.raises(NetlistError):
            builder.build()

    @pytest.mark.parametrize("driven", ["gate", "input", "dff"])
    def test_check_rejects_a_second_driver(self, driven):
        builder = NetlistBuilder("t")
        a, b = builder.input_bus("ab", 2)
        out = builder.and_(a, b)
        q = builder.new_net()
        builder.add_dff(out, q)
        target = {"gate": out, "input": b, "dff": q}[driven]
        builder.netlist.gates.append(Gate("INV", (a,), target))
        with pytest.raises(NetlistError) as excinfo:
            builder.build()
        assert excinfo.value.net == target

    @pytest.mark.parametrize("gates,inputs,dffs,net", [
        ([Gate("INV", (2,), 5)], [2], [], 5),
        ([], [2, 3], [], 3),
        ([], [2], [Dff(d=2, q=7)], 7),
        ([Gate("INV", (2,), -1)], [2], [], -1),
    ], ids=["gate", "input", "dff", "negative"])
    def test_check_rejects_nets_outside_the_net_range(self, gates, inputs, dffs, net):
        netlist = Netlist(
            name="bad", num_nets=3, gates=gates, dffs=dffs,
            input_ports={"a": inputs}, output_ports={"y": [net]},
        )
        with pytest.raises(NetlistError) as excinfo:
            netlist.check()
        assert excinfo.value.net == net
        assert excinfo.value.context == {"component": "bad", "net": net}
        # The simulator's first use checks it too, instead of failing
        # with a bare IndexError.
        with pytest.raises(NetlistError):
            CompiledSimulator(netlist)

    def test_built_netlist_is_frozen(self):
        builder = NetlistBuilder("t")
        a, b = builder.input_bus("ab", 2)
        builder.dff(builder.and_(a, b))
        netlist = builder.build()
        with pytest.raises(AttributeError):
            netlist.gates.append(Gate("INV", (a,), builder.new_net()))
        with pytest.raises(AttributeError):
            netlist.dffs.append(Dff(d=a, q=builder.new_net()))
        assert netlist.freeze() is netlist.content_key

    def test_stats(self):
        builder = NetlistBuilder("t")
        a, b = builder.input_bus("ab", 2)
        out = builder.and_(a, b)
        builder.dff(out)
        builder.output_bus("q", [out])
        netlist = builder.build()
        stats = netlist.stats()
        assert stats["AND2"] == 1
        assert stats["DFF"] == 1
        assert stats["total"] == 2
