"""Deterministic fault injection at the component-estimator boundaries.

The co-estimation master synchronizes four kinds of component engines
— the gate-level power simulator (``"hw"``), the instruction-set
simulator (``"iss"``), the cache simulator (``"cache"``), and the
shared-bus model (``"bus"``).  In a production deployment any of them
can fail: a licensed simulator dies, a characterization server hangs,
a numeric bug returns garbage.  This module makes those failures a
*testable input*: a :class:`FaultPlan` describes which boundaries fail,
how, and how often, and a :class:`FaultInjector` replays that plan
deterministically during a run.

Determinism contract: each site draws from its own RNG stream seeded
from ``(plan.seed, site)``, so the fault schedule of a site depends
only on the plan and on that site's invocation order — never on the
interleaving with other sites, wall-clock time, or Python hash
randomization.  The same seed always yields the same fault schedule,
which is what lets CI assert exact failure paths.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
]

#: The boundaries the master exposes to injection.
FAULT_SITES = ("hw", "iss", "cache", "bus")

#: ``exception`` raises :class:`InjectedFault` from the component call;
#: ``hang`` sleeps inside the call (only until the watchdog's deadline
#: when one is configured, then times out); ``corrupt`` lets the call
#: succeed but poisons the returned energy value (caught by the
#: supervisor's validator).
FAULT_KINDS = ("exception", "hang", "corrupt")

#: Corruption modes for ``kind="corrupt"``.
CORRUPTIONS = ("nan", "negative", "scale")


class InjectedFault(ReproError):
    """Raised by the injector in place of a component-estimator result."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault source at one site.

    Attributes:
        site: which boundary fails (one of :data:`FAULT_SITES`).
        kind: failure mode (one of :data:`FAULT_KINDS`).
        probability: per-invocation firing probability (0 disables the
            probabilistic trigger).
        schedule: explicit 1-based invocation numbers at which the
            fault fires regardless of ``probability`` — for tests that
            need a fault at an exact point.
        hang_s: sleep duration of a ``hang`` fault.
        corruption: what a ``corrupt`` fault does to the energy value
            (``nan``, ``negative``, or ``scale`` by ``scale_factor``).
        scale_factor: multiplier of the ``scale`` corruption.
    """

    site: str
    kind: str = "exception"
    probability: float = 0.0
    schedule: Tuple[int, ...] = ()
    hang_s: float = 0.05
    corruption: str = "nan"
    scale_factor: float = 1e9

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                "unknown fault site %r (choose from %s)" % (self.site, FAULT_SITES)
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (choose from %s)" % (self.kind, FAULT_KINDS)
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(
                "unknown corruption %r (choose from %s)"
                % (self.corruption, CORRUPTIONS)
            )
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")

    def corrupt_energy(self, energy: float) -> float:
        """The poisoned value this spec turns ``energy`` into."""
        if self.corruption == "nan":
            return float("nan")
        if self.corruption == "negative":
            return -abs(energy) - 1e-12
        return energy * self.scale_factor


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable description of every fault source in a run.

    Plans are plain data: they travel inside job specs to pool workers
    and into :class:`~repro.master.master.MasterConfig`, and each run
    builds its own :class:`FaultInjector` from the plan, so concurrent
    runs never share mutable injection state.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def uniform(
        cls,
        sites: Iterable[str],
        rate: float,
        seed: int = 0,
        kind: str = "exception",
        hang_s: float = 0.05,
    ) -> "FaultPlan":
        """One ``kind`` fault source per site, all at ``rate``."""
        return cls(
            seed=seed,
            specs=tuple(
                FaultSpec(site=site, kind=kind, probability=rate,
                          hang_s=hang_s)
                for site in sites
            ),
        )

    def sites(self) -> Tuple[str, ...]:
        """The distinct sites this plan can fault, in plan order."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.site not in seen:
                seen.append(spec.site)
        return tuple(seen)


def _site_seed(seed: int, site: str) -> int:
    """Stable per-site RNG seed (independent of PYTHONHASHSEED)."""
    return (seed ^ zlib.crc32(site.encode("utf-8"))) & 0xFFFFFFFF


@dataclass
class FaultCounters:
    """Injection accounting of one run."""

    invocations: Dict[str, int] = field(default_factory=dict)
    injected: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        for site, count in sorted(self.invocations.items()):
            flat["invocations.%s" % site] = float(count)
        for (site, kind), count in sorted(self.injected.items()):
            flat["injected.%s.%s" % (site, kind)] = float(count)
        return flat


class FaultInjector:
    """Replays a :class:`FaultPlan` during one run.

    The supervisor calls :meth:`draw` once per supervised component
    invocation; the returned :class:`FaultSpec` (or ``None``) tells it
    what to do.  Retried invocations draw again, so a site with a 10%
    fault rate and one retry fails persistently about 1% of the time —
    exactly the compounding a real flaky component shows.
    """

    def __init__(self, plan: FaultPlan, telemetry=None) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._telemetry = telemetry
        self._specs_by_site: Dict[str, List[FaultSpec]] = {}
        for spec in plan.specs:
            self._specs_by_site.setdefault(spec.site, []).append(spec)
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(_site_seed(plan.seed, site))
            for site in self._specs_by_site
        }

    def draw(self, site: str) -> Optional[FaultSpec]:
        """Decide whether this invocation of ``site`` faults.

        Increments the site's invocation counter, checks every spec's
        explicit schedule and probability (in plan order), and returns
        the first spec that fires.  Probabilistic draws consume one RNG
        sample per spec per invocation whether or not they fire, so the
        schedule is a pure function of the invocation index.
        """
        specs = self._specs_by_site.get(site)
        if not specs:
            return None
        invocation = self.counters.invocations.get(site, 0) + 1
        self.counters.invocations[site] = invocation
        rng = self._rngs[site]
        fired: Optional[FaultSpec] = None
        for spec in specs:
            scheduled = invocation in spec.schedule
            probabilistic = (
                spec.probability > 0.0 and rng.random() < spec.probability
            )
            if fired is None and (scheduled or probabilistic):
                fired = spec
        if fired is not None:
            key = (site, fired.kind)
            self.counters.injected[key] = self.counters.injected.get(key, 0) + 1
            telemetry = self._telemetry
            if telemetry is not None and telemetry.enabled:
                telemetry.metrics.counter("resilience.fault.%s" % site).inc()
                telemetry.metrics.counter("resilience.faults_injected").inc()
        return fired

    def make_fault(self, spec: FaultSpec, component: str = "",
                   sim_time_ns: Optional[float] = None) -> InjectedFault:
        """The exception an ``exception``-kind fault raises."""
        return InjectedFault(
            "injected %s fault at the %s boundary (invocation %d)"
            % (spec.kind, spec.site,
               self.counters.invocations.get(spec.site, 0)),
            component=component or None,
            sim_time_ns=sim_time_ns,
        )
