"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the telemetry layer: while the
tracer answers "where did the time go", the registry answers "how many
and how big" — ISS invocations, energy-cache hit rates, sampling
dispatch ratios, event-queue depths, per-reaction wall-clock
distributions.  Everything snapshots to a plain dict (and JSON) so
benchmark artifacts and dashboards can consume one format.

Instruments are created on first use and identified by name; asking
for an existing name with a different instrument type is an error (the
usual registry contract).  A :class:`NullMetricsRegistry` provides the
disabled path: shared no-op instruments, empty snapshots.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram buckets for durations in *seconds*: 1us .. 10s,
#: roughly half-decade steps.  Chosen to straddle the costs observed in
#: this framework (an ISS call is ~100us-10ms, a gate-level run more).
DEFAULT_TIME_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, ratios, totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    Buckets are upper bounds in ascending order; an implicit overflow
    bucket catches everything above the last bound.  Percentiles are
    estimated by linear interpolation inside the containing bucket
    (the Prometheus convention), with the recorded ``min``/``max``
    tightening the first and last occupied buckets so that small
    sample sets do not report values outside the observed range.
    """

    __slots__ = ("name", "bounds", "counts", "overflow",
                 "count", "sum", "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(upper <= lower for lower, upper in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if math.isnan(value):
            # A NaN would silently poison sum/mean/min/max and every
            # percentile derived from them; refuse it loudly instead.
            raise ValueError("histogram %r cannot observe NaN" % self.name)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Linear scan: bucket lists are short (~15) and observations on
        # hot paths dominate on the left; binary search buys nothing.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (``0 <= p <= 100``)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = self.bounds[index]
                # The global min lives in the first occupied bucket and
                # the global max in the last, so clamping with both is
                # safe for every bucket and keeps estimates inside the
                # observed range.
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        # Rank falls in the overflow bucket: the best bound is max.
        return self.max

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Named instruments plus dict/JSON snapshots.

    Instrument *creation* is thread-safe (the co-estimation service's
    worker threads share one registry): a lock guards the first-use
    registration so two threads racing on a new name get the same
    instrument.  Updates (``inc``/``set``/``observe``) stay lock-free —
    they are single-field float mutations on hot paths, and the GIL
    already keeps them from corrupting; at worst a concurrent snapshot
    reads a value one update stale.
    """

    enabled = True

    def __init__(self) -> None:
        self._creation_lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._creation_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    self._check_free(name, self._gauges, self._histograms)
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._creation_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    self._check_free(name, self._counters, self._histograms)
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._creation_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    self._check_free(name, self._counters, self._gauges)
                    instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    @staticmethod
    def _check_free(name: str, *families: Dict) -> None:
        for family in families:
            if name in family:
                raise ValueError(
                    "metric %r already registered as a different type" % name
                )

    # -- export --------------------------------------------------------------

    def histogram_instruments(self) -> Dict[str, Histogram]:
        """Live histogram instruments by name (Prometheus export reads
        bucket counts, which the summary snapshot deliberately omits)."""
        with self._creation_lock:
            return dict(self._histograms)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every instrument (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def flat(self) -> Dict[str, float]:
        """Counters and gauges as one flat name->value mapping."""
        values: Dict[str, float] = {}
        values.update((n, c.value) for n, c in self._counters.items())
        values.update((n, g.value) for n, g in self._gauges.items())
        return values


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def histogram_instruments(self) -> Dict[str, Histogram]:
        return {}


#: Process-wide disabled registry; safe to share (it keeps no state).
NULL_METRICS = NullMetricsRegistry()
