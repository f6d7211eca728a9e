"""Energy and delay caching (Section 4.2 of the paper).

During co-simulation, a lookup table keyed on the *execution path* of a
transition (process, transition, branch-outcome signature) accumulates
the mean and variance of the energy and delay reported by the low-level
simulators.  Once a path has been simulated at least
``thresh_iss_calls`` times and its variance is below
``thresh_variance``, the cached mean replaces further ISS / gate-level
invocations.

Both thresholds are user parameters, exactly as in the paper, and
control the aggressiveness/accuracy trade-off: a data-dependent path
(e.g. a loop whose trip count varies) keeps a high variance and is
never served from the cache, which is what the spread-out histogram of
Figure 4(b) illustrates.

Running statistics use Welford's algorithm, so the cache is
numerically stable over millions of updates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cfsm.fingerprint import cfsm_digest, cfsm_signature
from repro.core.strategy import Estimate, EstimationJob, EstimationStrategy


@dataclass
class EnergyCacheConfig:
    """User parameters of the caching technique.

    Attributes:
        thresh_variance: maximum *relative* variance (variance divided
            by squared mean) for a path to be served from the cache.
            The relative form makes one threshold meaningful for both
            nano-joule software paths and pico-joule hardware paths.
        thresh_iss_calls: minimum number of low-level simulations of a
            path before its cached statistics may be used.
    """

    thresh_variance: float = 0.02
    thresh_iss_calls: int = 3
    granularity: str = "path"

    GRANULARITIES = ("path", "transition")

    def __post_init__(self) -> None:
        if self.thresh_variance < 0:
            raise ValueError("variance threshold must be non-negative")
        if self.thresh_iss_calls < 1:
            raise ValueError("need at least one low-level call per path")
        if self.granularity not in self.GRANULARITIES:
            raise ValueError(
                "granularity must be one of %s" % (self.GRANULARITIES,)
            )


@dataclass
class _PathStats:
    """Welford accumulators for one path."""

    count: int = 0
    mean_energy: float = 0.0
    m2_energy: float = 0.0
    mean_cycles: float = 0.0
    m2_cycles: float = 0.0

    def update(self, energy: float, cycles: int) -> None:
        self.count += 1
        delta = energy - self.mean_energy
        self.mean_energy += delta / self.count
        self.m2_energy += delta * (energy - self.mean_energy)
        delta_c = cycles - self.mean_cycles
        self.mean_cycles += delta_c / self.count
        self.m2_cycles += delta_c * (cycles - self.mean_cycles)

    @property
    def variance_energy(self) -> float:
        # One sample carries no spread information; by convention its
        # variance is 0 so that thresh_iss_calls alone controls how
        # aggressively single-observation paths may be cached.
        if self.count < 2:
            return 0.0
        return self.m2_energy / (self.count - 1)

    @property
    def relative_variance(self) -> float:
        if self.mean_energy == 0.0:
            return 0.0 if self.m2_energy == 0.0 else float("inf")
        return self.variance_energy / (self.mean_energy * self.mean_energy)


class EnergyCache:
    """The path-keyed energy/delay lookup table."""

    def __init__(self, config: Optional[EnergyCacheConfig] = None) -> None:
        self.config = config or EnergyCacheConfig()
        self.entries: Dict[Tuple, _PathStats] = {}
        self.hits = 0
        self.low_level_calls = 0

    def lookup(self, key: Tuple) -> Optional[Tuple[float, int]]:
        """Cached (energy, cycles) for ``key``, or ``None``.

        ``None`` means the path must still be simulated: either it has
        not been seen often enough, or its energy variance exceeds the
        threshold (Figure 4(c)'s pseudo-code).
        """
        stats = self.entries.get(key)
        if stats is None:
            return None
        if stats.count < self.config.thresh_iss_calls:
            return None
        if stats.relative_variance > self.config.thresh_variance:
            return None
        self.hits += 1
        return stats.mean_energy, int(round(stats.mean_cycles))

    def update(self, key: Tuple, energy: float, cycles: int) -> None:
        """Fold one measured execution into the path's statistics."""
        stats = self.entries.get(key)
        if stats is None:
            stats = _PathStats()
            self.entries[key] = stats
        stats.update(energy, cycles)
        self.low_level_calls += 1

    def path_statistics(self, key: Tuple) -> Optional[_PathStats]:
        """Raw accumulators for one path (for analyses/tests)."""
        return self.entries.get(key)

    @property
    def paths(self) -> int:
        """Number of distinct paths observed."""
        return len(self.entries)

    # -- persistence ---------------------------------------------------------
    #
    # The paper's use case is *iterative* design exploration: the same
    # system is co-estimated again and again with different bus/RTOS
    # parameters.  Because a path's computation cost does not depend on
    # those parameters (bus and cache effects are charged by the
    # master, not folded into the path energy), a cache warmed in one
    # run can legally seed the next session.

    def to_payload(self) -> Dict:
        """JSON-able snapshot of the cache contents (and thresholds).

        This is the unit of cache exchange: the warm-start file format
        wraps it (:meth:`to_json`) and the cluster coordinator's shared
        cache tier ships it between nodes verbatim.
        """
        return {
            "config": {
                "thresh_variance": self.config.thresh_variance,
                "thresh_iss_calls": self.config.thresh_iss_calls,
                "granularity": self.config.granularity,
            },
            "entries": [
                {
                    "key": _key_to_json(key),
                    "count": stats.count,
                    "mean_energy": stats.mean_energy,
                    "m2_energy": stats.m2_energy,
                    "mean_cycles": stats.mean_cycles,
                    "m2_cycles": stats.m2_cycles,
                }
                for key, stats in self.entries.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "EnergyCache":
        """Restore a cache from its :meth:`to_payload` snapshot."""
        config = EnergyCacheConfig(**payload["config"])
        cache = cls(config)
        for entry in payload["entries"]:
            stats = _PathStats(
                count=entry["count"],
                mean_energy=entry["mean_energy"],
                m2_energy=entry["m2_energy"],
                mean_cycles=entry["mean_cycles"],
                m2_cycles=entry["m2_cycles"],
            )
            cache.entries[_key_from_json(entry["key"])] = stats
        return cache

    def to_json(self) -> str:
        """Serialize the cache contents (and thresholds) to JSON."""
        import json

        return json.dumps(self.to_payload(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EnergyCache":
        """Restore a cache serialized with :meth:`to_json`."""
        import json

        return cls.from_payload(json.loads(text))


def _key_to_json(key: Tuple):
    """Tuples nest (path signatures); JSON needs tagged lists."""
    if isinstance(key, tuple):
        return {"t": [_key_to_json(item) for item in key]}
    return key


def _key_from_json(value):
    if isinstance(value, dict):
        return tuple(_key_from_json(item) for item in value["t"])
    return value


class CachingStrategy(EstimationStrategy):
    """Co-estimation accelerated with energy and delay caching."""

    name = "caching"

    def __init__(
        self,
        config: Optional[EnergyCacheConfig] = None,
        cache: Optional[EnergyCache] = None,
    ) -> None:
        # An externally supplied cache enables *warm starts*: several
        # runs (e.g. explorer design points differing only in bus
        # parameters) share one converging table.  Its hit/low-level
        # counters then accumulate across those runs.
        if cache is not None and config is not None:
            raise ValueError("pass either a config or a prewarmed cache, not both")
        self.cache = cache if cache is not None else EnergyCache(config)

    def estimate(self, job: EstimationJob) -> Estimate:
        if self.cache.config.granularity == "path":
            key = job.path_key
        else:
            # Coarser, per-transition granularity (ablation study):
            # distinct control paths share one cache entry, so the
            # variance test has to reject branchy transitions instead
            # of caching each path separately.
            key = (job.cfsm.name, job.transition.name)
        tracer = self.telemetry.tracer
        cached = self.cache.lookup(key)
        if cached is not None:
            energy, cycles = cached
            if tracer.enabled:
                tracer.instant("cache.hit", track="strategy",
                               args={"cfsm": job.cfsm.name,
                                     "transition": job.transition.name})
            return Estimate(cycles=cycles, energy=energy, ran_low_level=False)
        if tracer.enabled:
            tracer.instant("cache.miss", track="strategy",
                           args={"cfsm": job.cfsm.name,
                                 "transition": job.transition.name})
        measured = job.run_low_level()
        self.cache.update(key, measured.energy, measured.cycles)
        return measured

    def statistics(self) -> Dict[str, float]:
        return {
            "cache_hits": float(self.cache.hits),
            "low_level_calls": float(self.cache.low_level_calls),
            "distinct_paths": float(self.cache.paths),
        }

    def publish_metrics(self) -> None:
        registry = self.telemetry.metrics
        hits = self.cache.hits
        misses = self.cache.low_level_calls
        lookups = hits + misses
        registry.gauge("strategy.cache.hits").set(hits)
        registry.gauge("strategy.cache.misses").set(misses)
        registry.gauge("strategy.cache.lookups").set(lookups)
        registry.gauge("strategy.cache.distinct_paths").set(self.cache.paths)
        registry.gauge("strategy.cache_hit_rate").set(
            hits / lookups if lookups else 0.0
        )

    def reset(self) -> None:
        # Detaches from any shared (warm-start) cache on purpose:
        # a reset strategy must observe cold-cache behaviour.
        self.cache = EnergyCache(self.cache.config)


# -- warm-started caching across design points ------------------------------
#
# Iterative communication-architecture exploration (Section 5.3)
# re-estimates the *same* system under different bus parameters.  The
# paper's energy cache keys on execution paths, and path energies do not
# depend on bus parameters: bus conflicts, DMA bursts and cache misses
# are charged by the simulation master on top of the path energy, never
# folded into it.  A cache converged at one design point is therefore
# legally reusable at every other point that differs only in bus
# parameters — *if* the rest of the system is identical.  The
# fingerprint below is the validity guard: it captures every
# energy-relevant input except the bus parameters, recursively down to
# transition bodies (the tcpip builder, for instance, bakes the DMA
# block size into s-graph constants, so two DMA sizes fingerprint
# differently even though their transition names coincide).


def _config_signature(config) -> tuple:
    """The non-bus knobs of a master configuration.

    ``config.bus_params`` is deliberately excluded — it is exactly what
    the design-space explorer sweeps, and bus costs are charged by the
    master on top of the cached path energies.
    """
    return (
        config.cpu_clock_period_ns,
        repr(config.cache_config),
        repr(config.rtos),
        repr(config.power_model),
        config.library.signature(),
        config.charge_hw_idle,
        config.zero_delay,
        config.zero_delay_epsilon_ns,
    )


def cfsm_warm_start_fingerprint(network, config, cfsm_name: str) -> str:
    """Validity digest of one CFSM's cached path energies.

    A cached (cfsm, transition, path) energy depends on the CFSM's own
    structure, its HW/SW mapping, and the global estimation context —
    never on sibling CFSMs: inter-process effects (event timing, bus
    conflicts, cache misses) are charged by the master per occurrence,
    on top of the cached energy.  That makes per-CFSM sharing sound
    even when another process in the network changed (e.g. only the
    DMA driver bakes the block size into its body, so its cache entries
    are dropped while every other process keeps its converged paths).
    """
    return cfsm_digest(
        network.cfsms[cfsm_name],
        network.mapping.get(cfsm_name),
        _config_signature(config),
    )


def system_fingerprint(network, config) -> str:
    """Digest of everything that shapes path energies except bus params.

    Two (network, config) pairs with equal fingerprints may legally
    share an :class:`EnergyCache`; the excluded knobs
    (``config.bus_params``) are exactly the ones the design-space
    explorer sweeps.
    """
    payload = (
        "repro-warm-start-v1",
        (
            network.name,
            tuple(sorted(network.mapping.items())),
            tuple(sorted(network.bus_events)),
            tuple(sorted(network.environment_inputs)),
            tuple(sorted(network.reset_events)),
            tuple(cfsm_signature(cfsm)
                  for _, cfsm in sorted(network.cfsms.items())),
        ),
        _config_signature(config),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


class WarmStartCache:
    """Explicit opt-in sharing of one energy cache across runs.

    Usage (what ``DesignSpaceExplorer`` does when ``warm_start=True``)::

        warm = WarmStartCache()
        for point in points:
            strategy = warm.strategy_for(network, point_config)
            estimator.estimate(stimuli, strategy=strategy)

    The validity guard works per CFSM: before every run each process is
    fingerprinted (structure + mapping + estimation context, bus
    parameters excluded), and only the cache entries of processes whose
    fingerprint *changed* are dropped.  Sweeping bus priorities keeps
    everything; sweeping the DMA block size drops only the process that
    bakes the block size into its body.  Sharing is never silently
    wrong, only silently absent.
    """

    def __init__(self, config: Optional[EnergyCacheConfig] = None) -> None:
        self.config = config
        self._cache: Optional[EnergyCache] = None
        self._fingerprints: Dict[str, str] = {}
        self.adoptions = 0
        self.invalidations = 0
        self.evicted_entries = 0

    @property
    def cache(self) -> Optional[EnergyCache]:
        """The currently shared cache (``None`` before the first run)."""
        return self._cache

    @property
    def fingerprints(self) -> Dict[str, str]:
        """Per-CFSM fingerprints the current cache was converged under."""
        return dict(self._fingerprints)

    def strategy_for(self, network, config) -> CachingStrategy:
        """A caching strategy backed by the shared cache, guard applied."""
        fingerprints = {
            name: cfsm_warm_start_fingerprint(network, config, name)
            for name in sorted(network.cfsms)
        }
        if self._cache is None:
            self._cache = EnergyCache(self.config)
        else:
            stale = {
                name
                for name in set(fingerprints) | set(self._fingerprints)
                if fingerprints.get(name) != self._fingerprints.get(name)
            }
            if stale:
                self.invalidations += 1
                before = len(self._cache.entries)
                # Both cache key granularities lead with the CFSM name.
                self._cache.entries = {
                    key: stats
                    for key, stats in self._cache.entries.items()
                    if key[0] not in stale
                }
                self.evicted_entries += before - len(self._cache.entries)
            if len(self._cache.entries) > 0 or not stale:
                self.adoptions += 1
        self._fingerprints = fingerprints
        return CachingStrategy(cache=self._cache)

    # -- cross-node exchange (the cluster's shared cache tier) ---------

    @property
    def entry_count(self) -> int:
        return len(self._cache.entries) if self._cache is not None else 0

    def export_state(self) -> Optional[Dict]:
        """JSON-able (fingerprints, cache) snapshot; ``None`` when cold.

        The fingerprints travel *with* the entries, so an importing
        node applies the same per-CFSM validity guard the local path
        applies: adopted entries whose CFSM changed are evicted on the
        next :meth:`strategy_for`, never silently reused.
        """
        if self._cache is None or not self._cache.entries:
            return None
        return {
            "fingerprints": dict(self._fingerprints),
            "cache": self._cache.to_payload(),
        }

    def adopt_state(self, state: Dict) -> int:
        """Replace this cache with an exported snapshot; returns the
        adopted entry count.  The §4.2 statistics are means — merging
        two converged tables would double-count observations, so
        adoption is wholesale, guarded by the shipped fingerprints."""
        self._cache = EnergyCache.from_payload(state["cache"])
        self._fingerprints = dict(state.get("fingerprints") or {})
        self.adoptions += 1
        return len(self._cache.entries)
