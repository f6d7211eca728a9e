"""Integration tests: whole-design lint over the bundled systems.

Three layers:

* golden-lint — the exact finding set of every bundled system is
  pinned, so a rule regression (new false positive, lost finding)
  shows up as a readable diff;
* a deliberately-broken design must surface all four analysis
  families (race, dead transition, combinational loop, missing
  macro-op) through every report format;
* the Section 4.2 claim — the statically predicted path-table size
  equals the energy cache's dynamic population on the Figure 7
  workload once every live path has been exercised.
"""

import json
import types

import pytest

from repro.cfsm.builder import NetworkBuilder
from repro.cfsm.expr import Const, add, const
from repro.cfsm.model import Implementation
from repro.cfsm.sgraph import SharedWrite, emit, shared_write
from repro.core import PowerCoEstimator
from repro.core.caching import CachingStrategy, EnergyCacheConfig
from repro.core.macromodel import MacroCost, ParameterFile
from repro.hw.netlist import Gate, Netlist
from repro.lint.emitters import render_json, render_sarif, render_text
from repro.lint.passes import run_lint
from repro.lint.paths import cacheability_report
from repro.systems import automotive, producer_consumer, tcpip
from repro.systems.tcpip import HEADER_CHECKSUM


def fingerprintless(result):
    """(code, qualified location) pairs — the golden comparison key."""
    return sorted(
        (d.code, d.location.qualified_name()) for d in result.diagnostics
    )


class TestGoldenLint:
    """Exact expected findings per bundled system.

    Every system must be *clean* in the CI sense: notes are expected
    (primary outputs, synthesis dead gates, a documented constant
    branch) but warnings and errors are not.
    """

    def assert_clean(self, result):
        assert result.exit_code == 0
        assert result.count("error") == 0
        assert result.count("warning") == 0

    def test_fig1(self):
        result = run_lint(producer_consumer.build_system(
            num_packets=4).network)
        self.assert_clean(result)
        assert fingerprintless(result) == [
            ("NET109", "fig1_example/consumer[event:BYTE_DONE]"),
            ("NL304", "fig1_example/netlist:consumer_netlist"),
            ("NL304", "fig1_example/netlist:timer_netlist"),
        ]

    def test_tcpip(self):
        result = run_lint(tcpip.build_system(dma_block_words=16).network)
        self.assert_clean(result)
        assert fingerprintless(result) == [
            # The checksum datapath carries constant-zero AND legs the
            # bit-level fixpoint proves dead (capped per-net findings
            # plus the per-netlist aggregate).
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net258"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net275"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net292"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net309"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net343"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net360"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net377"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net394"),
            ("DF502", "tcpip_nic/checksum/netlist:checksum_netlist"),
            ("NET109", "tcpip_nic/ip_check[event:CHK_ERR]"),
            ("NET109", "tcpip_nic/ip_check[event:PKT_OK]"),
            ("NET109", "tcpip_nic/ip_check[event:TX_READY]"),
            ("NL304", "tcpip_nic/netlist:checksum_netlist"),
            # block_done's mode test: without the outgoing flow, mode
            # is statically 0, so the incoming arm is always taken.
            ("SG203", "tcpip_nic/ip_check/block_done@n4"),
        ]

    def test_tcpip_with_outgoing(self):
        result = run_lint(tcpip.build_system(
            dma_block_words=16, include_outgoing=True, num_outgoing=2
        ).network)
        self.assert_clean(result)
        # The outgoing flow makes mode two-valued: the SG203 note must
        # disappear (the branch is now genuinely exercised both ways).
        assert "SG203" not in {d.code for d in result.diagnostics}
        assert fingerprintless(result) == [
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net283"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net302"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net321"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net340"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net378"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net397"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net416"),
            ("DF501", "tcpip_nic/checksum/netlist:checksum_netlist@net435"),
            ("DF502", "tcpip_nic/checksum/netlist:checksum_netlist"),
            ("NET109", "tcpip_nic/ip_check[event:CHK_ERR]"),
            ("NET109", "tcpip_nic/ip_check[event:PKT_OK]"),
            ("NET109", "tcpip_nic/ip_check[event:TX_READY]"),
            ("NL304", "tcpip_nic/netlist:checksum_netlist"),
        ]

    def test_automotive(self):
        result = run_lint(automotive.build_system().network)
        self.assert_clean(result)
        assert fingerprintless(result) == [
            ("NL304", "automotive_dashboard/netlist:odometer_netlist"),
            ("NL304", "automotive_dashboard/netlist:speedometer_netlist"),
        ]


def broken_network():
    """A design with one defect per analysis family.

    * ``writer_a``/``writer_b`` both store to shared word 0x40 with no
      handshake — NET108;
    * ``writer_a.never`` is shadowed by ``writer_a.store`` — SG201;
    * ``hw_unit`` synthesizes (stubbed) into a combinational loop —
      NL301;
    * the shared writes emit ASHWR, which the (pruned) macro-model
      table does not price — MM401.
    """
    net = NetworkBuilder("broken_soc")
    writer_a = net.cfsm("writer_a", mapping=Implementation.SW)
    writer_a.input("GO").output("TICK")
    writer_a.transition("store", trigger=["GO"], body=[
        shared_write(const(0x40), const(1)),
        emit("TICK"),
    ])
    writer_a.transition("never", trigger=["GO"], body=[
        shared_write(const(0x41), const(9)),
    ])
    writer_b = net.cfsm("writer_b", mapping=Implementation.SW)
    writer_b.input("GO")
    writer_b.transition("store", trigger=["GO"], body=[
        shared_write(const(0x40), const(2)),
    ])
    hw_unit = net.cfsm("hw_unit", mapping=Implementation.HW)
    hw_unit.input("TICK")
    hw_unit.transition("t", trigger=["TICK"], body=[])
    net.environment_input("GO")
    return net.build(validate=False)


def loopy_block():
    """A fake synthesized block whose netlist contains a cycle."""
    netlist = Netlist(
        name="hw_unit_netlist",
        num_nets=8,
        gates=[Gate("INV", (5,), 4), Gate("INV", (4,), 5)],
        output_ports={"y": [4]},
    )
    return types.SimpleNamespace(netlist=netlist, value_ports={},
                                 input_ports={})


class TestBrokenSystem:
    @pytest.fixture()
    def result(self, monkeypatch):
        import repro.core.macromodel as macromodel
        import repro.hw.synth as synth

        pruned = ParameterFile({
            name: MacroCost()
            for name in macromodel.all_macro_op_names()
            if name != "ASHWR"
        })
        monkeypatch.setattr(
            macromodel.MacroModelCharacterizer, "characterize",
            lambda self: pruned,
        )
        monkeypatch.setattr(
            synth, "synthesize_cfsm_cached", lambda cfsm: loopy_block()
        )
        return run_lint(broken_network())

    def test_all_four_families_found(self, result):
        found = {d.code for d in result.diagnostics}
        assert {"NET108", "SG201", "NL301", "MM401"} <= found

    def test_exit_code_is_error(self, result):
        assert result.exit_code == 2
        assert result.max_severity == "error"

    def test_findings_attributed(self, result):
        by_code = {d.code: d for d in result.diagnostics}
        assert by_code["NET108"].data["addresses"] == [0x40]
        assert by_code["SG201"].location.transition == "never"
        assert by_code["SG201"].data["shadowed_by"] == "store"
        assert by_code["NL301"].location.netlist == "hw_unit_netlist"
        assert by_code["MM401"].data["op"] == "ASHWR"

    def test_all_formats_report_all_codes(self, result):
        expected = {"NET108", "SG201", "NL301", "MM401"}
        text = render_text(result.diagnostics, title=result.system)
        assert all(code in text for code in expected)
        payload = json.loads(render_json(result.diagnostics))
        assert expected <= {d["code"] for d in payload["diagnostics"]}
        sarif = json.loads(render_sarif(result.diagnostics))
        assert expected <= {
            r["ruleId"] for r in sarif["runs"][0]["results"]
        }


class TestCacheabilityPrediction:
    """§4.2: static path count == dynamic energy-cache table size."""

    def run_cached(self, bundle):
        strategy = CachingStrategy(EnergyCacheConfig())
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        estimator.estimate(
            bundle.stimuli(),
            strategy=strategy,
            shared_memory_image=bundle.shared_memory_image,
        )
        return set(strategy.cache.entries)

    def corrupt_checksum(self, network):
        """Make create_pack store a wrong checksum into the header.

        Only the *value expression* of the SharedWrite changes, so
        node ids — and therefore every path signature — are untouched:
        the corrupted run populates the same key space, just reaching
        the CHK_ERR arm that a clean run never can.
        """
        transition = network.cfsms["create_pack"].transition_by_name(
            "receive_packet")
        for stmt in transition.body.nodes():
            if isinstance(stmt, SharedWrite) \
                    and isinstance(stmt.address, Const) \
                    and stmt.address.value == HEADER_CHECKSUM:
                stmt.value = add(stmt.value, const(1))
                return
        raise AssertionError("checksum store not found")

    def test_static_prediction(self):
        report = cacheability_report(
            tcpip.build_system(dma_block_words=16).network)
        assert not report.unbounded
        assert report.row_for("ip_check", "block_done").path_count == 3
        assert report.row_for("checksum", "process_block").path_count == 2
        assert report.row_for("create_pack", "receive_packet").path_count == 1
        assert report.predicted_table_size("path") == 8
        assert report.predicted_table_size("transition") == 5

    def test_dynamic_table_matches_prediction(self):
        # Figure 7 workload: 3 packets, 16-word DMA blocks, seed 2000.
        bundle = tcpip.build_system(dma_block_words=16)
        predicted = cacheability_report(bundle.network) \
            .predicted_table_size("path")

        keys = self.run_cached(bundle)
        # The clean run cannot take the checksum-mismatch arm: the
        # stored and recomputed checksums always agree by construction.
        assert len(keys) == predicted - 1

        corrupted = tcpip.build_system(dma_block_words=16)
        self.corrupt_checksum(corrupted.network)
        keys |= self.run_cached(corrupted)
        assert len(keys) == predicted

        # The keys really are (cfsm, transition, path-signature)
        # triples covering every live transition.
        assert {(key[0], key[1]) for key in keys} == {
            ("create_pack", "receive_packet"),
            ("ip_check", "prepare_packet"),
            ("ip_check", "block_done"),
            ("checksum", "start_packet"),
            ("checksum", "process_block"),
        }
