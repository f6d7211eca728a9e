"""Integration: RESET semantics, outgoing TCP/IP flow, partition
exploration, and peak/handshake correlation."""

import pytest

from repro.analysis.correlate import peak_bus_correlation
from repro.cfsm.events import Event
from repro.core import PartitionExplorer, PowerCoEstimator
from repro.master.master import MasterConfig, SimulationMaster
from repro.systems import producer_consumer, tcpip


class TestReset:
    def test_reset_reinitializes_watching_processes(self):
        network = producer_consumer.build_network(num_packets=3)
        master = SimulationMaster(network, config=MasterConfig())
        stimuli = [Event("TIMER_TICK", time=1000.0 * i) for i in range(1, 30)]
        stimuli += [Event("START", time=50.0 + 500.0 * i) for i in range(40)]
        stimuli += [Event("RESET", time=9000.0)]
        stimuli.sort(key=lambda event: event.time)
        master.run(stimuli)
        # After the reset the producer's packet budget was restored and
        # consumed again: it ran both before and after the reset, and
        # the post-reset budget is partially spent.
        producer_runs = master.stats.transitions["producer"]
        assert producer_runs >= 2
        assert master.processes["producer"].state["pkts_left"] < 3
        # Timer restarted from zero at 9 us: final count reflects only
        # post-reset ticks.
        ticks_after = sum(1 for e in stimuli
                          if e.name == "TIMER_TICK" and e.time > 9000.0)
        assert master.processes["timer"].state["now"] == ticks_after

    def test_reset_resynchronizes_low_level_state(self):
        network = producer_consumer.build_network(num_packets=2)
        master = SimulationMaster(network, config=MasterConfig())
        stimuli = [Event("TIMER_TICK", time=1000.0 * i) for i in range(1, 10)]
        stimuli += [Event("RESET", time=5000.0)]
        stimuli.sort(key=lambda event: event.time)
        master.run(stimuli)
        timer = master.processes["timer"]
        assert timer.hw.read_variable("now") == timer.state["now"]

    def test_reset_event_cannot_trigger_transitions(self):
        from repro.cfsm.builder import NetworkBuilder
        from repro.cfsm.model import Implementation
        from repro.cfsm.validate import NetworkValidationError

        net = NetworkBuilder("bad")
        proc = net.cfsm("p", mapping=Implementation.SW)
        proc.input("RESET")
        proc.transition("t", trigger=["RESET"], body=[])
        net.environment_input("RESET")
        net.watching("RESET")
        with pytest.raises(NetworkValidationError):
            net.build()


class TestOutgoingFlow:
    @pytest.fixture(scope="class")
    def run(self):
        bundle = tcpip.build_system(
            dma_block_words=8, num_packets=2,
            include_outgoing=True, num_outgoing=2,
            packet_period_ns=250_000.0,
        )
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        return estimator.estimate(bundle.stimuli(), strategy="full")

    def test_host_packets_transmitted(self, run):
        assert run.report.transitions["host_if"] == 2

    def test_outgoing_header_stamped(self, run):
        checksum = run.master.shared_memory.words.get(
            tcpip.OUT_HEADER_CHECKSUM
        )
        assert checksum is not None and checksum > 0

    def test_incoming_flow_unaffected(self, run):
        assert run.report.transitions["create_pack"] == 2
        # Two PKT_OK and two TX_READY leave the system: four "lost"
        # (environment-bound) events.
        assert run.report.lost_events == 4

    def test_checksum_hardware_is_shared(self, run):
        """One checksum block serves both directions: its transition
        count covers incoming and outgoing blocks plus the starts."""
        sizes_in = [e.value for e in tcpip.build_system(
            dma_block_words=8, num_packets=2, include_outgoing=True,
            num_outgoing=2, packet_period_ns=250_000.0).stimuli()
            if e.name == "PACKET_IN"]
        assert run.report.transitions["checksum"] > sum(
            (s + 7) // 8 for s in sizes_in
        )


class TestPartitionExploration:
    def test_ranking_and_restoration(self):
        bundle = producer_consumer.build_system(num_packets=2)
        explorer = PartitionExplorer(bundle.network, bundle.config,
                                     bundle.stimuli_factory)
        points = explorer.sweep([
            {"consumer": "hw"},
            {"consumer": "sw"},
        ], strategy="caching")
        ranked = PartitionExplorer.ranking(points)
        assert len(ranked) == 2
        # Hardware consumer is cheaper than running it on the shared
        # processor alongside the producer.
        assert ranked[0].assignment == {"consumer": "hw"}
        # Original mapping restored.
        assert bundle.network.mapping["consumer"] == "hw"

    def test_macromodel_preserves_partition_ranking(self):
        """The paper's claim: macro-modeling's relative accuracy also
        holds when ranking HW/SW partitions."""
        bundle = producer_consumer.build_system(num_packets=2)
        explorer = PartitionExplorer(bundle.network, bundle.config,
                                     bundle.stimuli_factory)
        assignments = [{"consumer": "hw"}, {"consumer": "sw"}]
        full_rank = [p.label for p in PartitionExplorer.ranking(
            explorer.sweep(assignments, strategy="full"))]
        macro_rank = [p.label for p in PartitionExplorer.ranking(
            explorer.sweep(assignments, strategy="macromodel"))]
        assert full_rank == macro_rank


class TestPeakCorrelation:
    def test_peaks_coincide_with_bus_handshakes(self):
        """The paper's observation: power peaks line up with arbiter
        handshake activity."""
        bundle = tcpip.build_system(dma_block_words=4, num_packets=3)
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        run = estimator.estimate(bundle.stimuli(), strategy="full")
        correlation = peak_bus_correlation(
            run.master.accountant, bin_ns=2000.0, peak_fraction=0.1
        )
        assert correlation.peak_bins > 0
        assert correlation.lift > 1.2, correlation
        assert (correlation.peak_bins_with_activity / correlation.peak_bins
                > correlation.activity_bin_fraction)

    def test_parameter_validation(self):
        from repro.master.tracing import EnergyAccountant

        with pytest.raises(ValueError):
            peak_bus_correlation(EnergyAccountant(), 100.0, peak_fraction=0.0)
