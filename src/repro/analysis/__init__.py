"""Statistics helpers used by the experiment harness."""

from repro.analysis.correlate import PeakCorrelation, peak_bus_correlation
from repro.analysis.stats import (
    Histogram,
    linear_fit,
    mean,
    ranking_preserved,
    spearman_rank_correlation,
)

__all__ = [
    "Histogram",
    "mean",
    "spearman_rank_correlation",
    "linear_fit",
    "ranking_preserved",
    "peak_bus_correlation",
    "PeakCorrelation",
]
