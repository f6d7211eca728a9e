"""Integration: separate-estimation machinery and the explorer."""

import pytest

from repro.core import DesignSpaceExplorer, PowerCoEstimator, SeparateEstimator
from repro.core.explorer import priority_label, priority_permutations
from repro.systems import tcpip


class TestSeparateMachinery:
    def test_trace_capture_is_timing_independent(self):
        bundle = tcpip.build_system(dma_block_words=8, num_packets=2)
        separate = SeparateEstimator(bundle.network, bundle.config)
        reactions = separate.capture_traces(bundle.stimuli())
        assert reactions
        # Zero-delay capture still produces every component's trace.
        components = {record.cfsm for record in reactions}
        assert components == {"create_pack", "ip_check", "checksum"}

    def test_separate_report_totals(self):
        bundle = tcpip.build_system(dma_block_words=8, num_packets=2)
        separate = SeparateEstimator(bundle.network, bundle.config)
        report = separate.estimate(bundle.stimuli())
        assert report.total_energy_j > 0
        for name in ("create_pack", "ip_check", "checksum"):
            assert report.component_energy(name) > 0
            assert report.reactions_by_component[name] > 0


class TestPriorityPermutations:
    def test_three_masters_give_six_assignments(self):
        assignments = priority_permutations(["a", "b", "c"])
        assert len(assignments) == 6
        assert len({tuple(sorted(p.items())) for p in assignments}) == 6

    def test_label(self):
        assert priority_label({"x": 1, "y": 0}) == "y > x"


class TestExplorer:
    @pytest.fixture(scope="class")
    def explorer(self):
        bundle = tcpip.build_system(dma_block_words=8, num_packets=2)
        return DesignSpaceExplorer(
            bundle.network, bundle.config, bundle.stimuli_factory
        )

    def test_evaluate_single_point(self, explorer):
        point = explorer.evaluate(
            16, {"create_pack": 0, "ip_check": 1, "checksum": 2},
            strategy="caching",
        )
        assert point.dma_block_words == 16
        assert point.total_energy_j > 0
        assert "create_pack" in point.priority_label

    def test_sweep_covers_grid(self, explorer):
        points = [
            explorer.evaluate(dma, priorities, strategy="caching")
            for priorities in priority_permutations(["create_pack", "ip_check"])
            for dma in [8, 32]
        ]
        assert len({(p.dma_block_words, p.priority_label) for p in points}) == 4
        minimum = DesignSpaceExplorer.minimum_energy_point(points)
        assert minimum in points
        assert all(minimum.total_energy_j <= p.total_energy_j for p in points)

    def test_bigger_dma_never_costs_more_energy(self, explorer):
        priorities = {"create_pack": 0, "ip_check": 1, "checksum": 2}
        small = explorer.evaluate(2, priorities, strategy="caching")
        large = explorer.evaluate(64, priorities, strategy="caching")
        assert large.total_energy_j < small.total_energy_j

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer.minimum_energy_point([])
