"""Unit tests: analysis statistics and energy reports."""

import pytest

from repro.analysis.stats import (
    Histogram,
    linear_fit,
    mean,
    ranking_preserved,
    spearman_rank_correlation,
)
from repro.core.report import EnergyReport


class TestMoments:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestHistogram:
    def test_binning(self):
        histogram = Histogram.of([0.0, 0.1, 0.9, 1.0], bins=2)
        assert sum(histogram.counts) == 4
        assert histogram.counts == [2, 2]

    def test_concentrated_vs_spread(self):
        concentrated = Histogram.of([5.0] * 50 + [5.1], bins=10)
        spread = Histogram.of(list(range(50)), bins=10)
        assert concentrated.spread_score() < spread.spread_score()

    def test_render_has_rows(self):
        text = Histogram.of([1, 2, 3], bins=3).render()
        assert len(text.splitlines()) == 3

    def test_empty_and_constant(self):
        assert Histogram.of([], bins=4).counts == [0, 0, 0, 0]
        constant = Histogram.of([7.0, 7.0], bins=4)
        assert sum(constant.counts) == 2


class TestRankStatistics:
    def test_spearman_perfect(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_spearman_with_ties(self):
        rho = spearman_rank_correlation([1, 1, 2], [5, 5, 9])
        assert rho == pytest.approx(1.0)

    def test_ranking_preserved(self):
        assert ranking_preserved([1, 5, 3], [10, 50, 30])
        assert not ranking_preserved([1, 5, 3], [10, 20, 30])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [1, 2])
        with pytest.raises(ValueError):
            ranking_preserved([1], [1, 2])


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r = linear_fit([0, 1, 2], [1, 3, 5])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r == pytest.approx(1.0)

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 1], [2, 3])


def make_report(label, energy, wall, components=None):
    return EnergyReport(
        label=label,
        total_energy_j=energy,
        by_component=dict(components or {"p": energy}),
        by_category={"sw": energy},
        end_time_ns=1000.0,
        wall_seconds=wall,
        low_level_seconds=wall * 0.8,
        transitions={"p": 3},
        iss_invocations=3,
        hw_invocations=0,
        strategy_name="full",
        strategy_stats={},
    )


class TestEnergyReport:
    def test_speedup(self):
        baseline = make_report("base", 1e-6, 10.0)
        fast = make_report("fast", 1e-6, 2.0)
        assert fast.speedup_over(baseline) == pytest.approx(5.0)

    def test_energy_error(self):
        baseline = make_report("base", 1.0e-6, 1.0)
        estimate = make_report("est", 1.2e-6, 1.0)
        assert estimate.energy_error_vs(baseline) == pytest.approx(20.0)

    def test_average_power(self):
        report = make_report("r", 1e-6, 1.0)
        assert report.average_power_w() == pytest.approx(1e-6 / 1e-6)

    def test_pretty_contains_components(self):
        report = make_report("r", 1e-6, 1.0, components={"alpha": 1e-6})
        assert "alpha" in report.pretty()
        assert "strategy" in report.pretty()

    def test_total_transitions(self):
        assert make_report("r", 1e-6, 1.0).total_transitions == 3

    def test_json_round_trip(self):
        report = make_report("r", 1e-6, 1.0, components={"p": 1e-6})
        restored = EnergyReport.from_json(report.to_json())
        assert restored.total_energy_j == report.total_energy_j
        assert restored.by_component == report.by_component
        assert restored.transitions == report.transitions
        assert restored.label == report.label
