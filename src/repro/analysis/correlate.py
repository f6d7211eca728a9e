"""Correlating functional activity with power (paper, Section 5.3).

"Another useful application of our environment is that it can
highlight peak periods in power consumption, and correlate functional
information with power information.  For example ... the peaks in
power consumption are associated with the points in time when the
modules handshake with the arbiter."

The helpers here quantify exactly that observation from a finished
run's energy accounting: which time bins are power peaks, which bins
contain bus (arbiter) activity, and how much more likely a peak bin is
to coincide with bus activity than an average bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.master.tracing import EnergyAccountant


@dataclass
class PeakCorrelation:
    """Result of a peak/activity correlation analysis."""

    peak_bins: int
    peak_bins_with_activity: int
    activity_bin_fraction: float
    lift: float


def activity_bins(
    accountant: EnergyAccountant,
    bin_ns: float,
    component: str,
    end_ns: Optional[float] = None,
) -> List[bool]:
    """Whether each time bin contains any activity of ``component``."""
    if bin_ns <= 0:
        raise ValueError("bin size must be positive")
    horizon = end_ns
    if horizon is None:
        horizon = max((s.end_ns for s in accountant.samples), default=0.0)
    bins = max(1, int(horizon / bin_ns) + 1)
    active = [False] * bins
    for sample in accountant.samples:
        if sample.component != component:
            continue
        first = min(bins - 1, int(sample.start_ns / bin_ns))
        last = min(bins - 1, int(max(sample.start_ns, sample.end_ns - 1e-9)
                                 / bin_ns))
        for index in range(first, last + 1):
            active[index] = True
    return active


def peak_bus_correlation(
    accountant: EnergyAccountant,
    bin_ns: float,
    peak_fraction: float = 0.1,
    bus_component: str = "_bus",
) -> PeakCorrelation:
    """How strongly power peaks coincide with bus/arbiter handshakes.

    Args:
        accountant: energy accounting of a finished co-simulation.
        bin_ns: waveform bin size.
        peak_fraction: the top fraction of non-empty bins (by power)
            treated as "peaks".
        bus_component: the accounting component holding bus energy.

    Returns:
        Counts plus the *lift*: the probability that a peak bin has bus
        activity divided by the probability that any bin does.  A lift
        well above 1 reproduces the paper's observation.
    """
    if not 0.0 < peak_fraction <= 1.0:
        raise ValueError("peak fraction must be in (0, 1]")
    waveform = accountant.power_waveform(bin_ns)
    active = activity_bins(accountant, bin_ns, bus_component)
    length = min(len(waveform), len(active))
    powered = [
        (power, index)
        for index, (_, power) in enumerate(waveform[:length])
        if power > 0.0
    ]
    if not powered:
        return PeakCorrelation(0, 0, 0.0, 0.0)
    powered.sort(reverse=True)
    peak_count = max(1, int(len(powered) * peak_fraction))
    peak_indexes = [index for _, index in powered[:peak_count]]
    peaks_with_activity = sum(1 for index in peak_indexes if active[index])
    baseline = sum(1 for _, index in powered if active[index]) / len(powered)
    fraction = peaks_with_activity / peak_count
    lift = fraction / baseline if baseline > 0 else float("inf")
    return PeakCorrelation(
        peak_bins=peak_count,
        peak_bins_with_activity=peaks_with_activity,
        activity_bin_fraction=baseline,
        lift=lift,
    )
