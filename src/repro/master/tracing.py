"""Energy bookkeeping and power waveforms.

The master records one :class:`EnergySample` per charged activity
(transition computation, bus burst, cache activity, RTOS overhead,
idle clocking).  The accountant aggregates totals per component and per
category and can render time-binned power waveforms — the "energy and
power waveforms for the various parts of the system" the paper's
visual display shows.

When constructed with a :class:`~repro.telemetry.tracer.Tracer`, the
accountant additionally emits one counter-track sample per charge, so
an exported Chrome trace shows cumulative energy by category as a
stacked counter track above the span timeline (see
:mod:`repro.telemetry.export`).
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.telemetry.tracer import NULL_TRACER, Tracer


class EnergySample(NamedTuple):
    """One attributed slice of energy."""

    component: str
    category: str  # "sw", "hw", "bus", "cache", "rtos", "idle"
    start_ns: float
    end_ns: float
    energy_j: float
    tag: str = ""
    #: Accuracy rung that produced the number: "exact", "cached",
    #: "macromodel", or "degraded" ("" for charges with no estimator,
    #: e.g. bus bursts and idle clocking).
    provenance: str = ""


class EnergyAccountant:
    """Aggregates energy samples by component and category."""

    def __init__(self, keep_samples: bool = True,
                 tracer: Optional[Tracer] = None) -> None:
        self.keep_samples = keep_samples
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.samples: List[EnergySample] = []
        self.by_component: Dict[str, float] = {}
        self.by_category: Dict[str, float] = {}
        self.by_provenance: Dict[str, float] = {}
        self.total_energy = 0.0

    def add(
        self,
        component: str,
        category: str,
        start_ns: float,
        end_ns: float,
        energy_j: float,
        tag: str = "",
        provenance: str = "",
    ) -> None:
        """Record one energy contribution."""
        if energy_j < 0:
            raise ValueError("negative energy sample")
        if not math.isfinite(energy_j):
            # A single NaN/inf would silently poison every total and
            # waveform bin downstream; fail at the source instead.
            raise ValueError("non-finite energy sample: %r" % energy_j)
        if self.keep_samples:
            self.samples.append(
                EnergySample(
                    component, category, start_ns, end_ns, energy_j, tag, provenance
                )
            )
        self.by_component[component] = self.by_component.get(component, 0.0) + energy_j
        self.by_category[category] = self.by_category.get(category, 0.0) + energy_j
        if provenance:
            self.by_provenance[provenance] = (
                self.by_provenance.get(provenance, 0.0) + energy_j
            )
        self.total_energy += energy_j
        if self.tracer.enabled:
            self.tracer.counter(
                "energy_uJ",
                {cat: value * 1e6 for cat, value in self.by_category.items()},
            )

    def component_energy(self, component: str) -> float:
        """Total energy attributed to ``component``."""
        return self.by_component.get(component, 0.0)

    def publish_metrics(self, registry) -> None:
        """Write the energy totals into a telemetry metrics registry.

        One exported artifact then carries both the cost counters and
        the energy breakdown, instead of the accountant and the
        registry being two disjoint APIs.
        """
        registry.gauge("energy.total_j").set(self.total_energy)
        for category, energy in self.by_category.items():
            registry.gauge("energy.by_category.%s_j" % category).set(energy)
        for component, energy in self.by_component.items():
            registry.gauge("energy.by_component.%s_j" % component).set(energy)
        for provenance, energy in self.by_provenance.items():
            registry.gauge("energy.by_provenance.%s_j" % provenance).set(energy)

    def power_waveform(
        self,
        bin_ns: float,
        end_ns: Optional[float] = None,
        component: Optional[str] = None,
    ) -> List[Tuple[float, float]]:
        """Average power per time bin, as (bin start ns, watts) pairs.

        Each sample's energy is spread uniformly over its duration;
        instantaneous samples land entirely in their bin.  Runs in
        O(samples + bins): interior (fully covered) bins are applied
        through a difference array instead of per-bin scans, so one
        run-long sample (e.g. hardware idle clocking) costs O(1).
        """
        if not self.keep_samples:
            raise RuntimeError("waveforms require keep_samples=True")
        if bin_ns <= 0:
            raise ValueError("bin size must be positive")
        horizon = end_ns
        if horizon is None:
            horizon = max((s.end_ns for s in self.samples), default=0.0)
        bins = max(1, int(horizon / bin_ns) + 1)
        window_end = bins * bin_ns
        energy_bins = [0.0] * bins
        slab = [0.0] * (bins + 1)  # rate-per-bin difference array
        for sample in self.samples:
            if component is not None and sample.component != component:
                continue
            start = sample.start_ns
            end = max(sample.end_ns, start)
            if end == start:
                index = min(bins - 1, int(start / bin_ns))
                energy_bins[index] += sample.energy_j
                continue
            # Clip to the binned window; energy outside it is dropped,
            # proportionally to the uniform spread.
            clipped_start = min(max(start, 0.0), window_end)
            clipped_end = min(max(end, 0.0), window_end)
            if clipped_end <= clipped_start:
                continue
            rate = sample.energy_j / (end - start)
            first = min(bins - 1, int(clipped_start / bin_ns))
            last = min(bins - 1, int(clipped_end / bin_ns))
            if first == last:
                energy_bins[first] += rate * (clipped_end - clipped_start)
                continue
            energy_bins[first] += rate * ((first + 1) * bin_ns - clipped_start)
            energy_bins[last] += rate * (clipped_end - last * bin_ns)
            if last - first > 1:
                slab[first + 1] += rate * bin_ns
                slab[last] -= rate * bin_ns
        running = 0.0
        for index in range(bins):
            running += slab[index]
            energy_bins[index] += running
        return [
            (index * bin_ns, energy / (bin_ns * 1e-9))
            for index, energy in enumerate(energy_bins)
        ]
