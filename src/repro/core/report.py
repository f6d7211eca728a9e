"""Energy reports: the output of one co-estimation run.

An :class:`EnergyReport` snapshots everything the paper's tool
displays: per-component and per-category energy, transition and
simulator-invocation counts, bus/cache/RTOS statistics, the CPU time
spent in low-level simulation, and (optionally) power waveforms.
Reports compare against each other to produce the speedup and error
columns of Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class EnergyReport:
    """Result summary of one co-estimation run."""

    label: str
    total_energy_j: float
    by_component: Dict[str, float]
    by_category: Dict[str, float]
    end_time_ns: float
    wall_seconds: float
    low_level_seconds: float
    transitions: Dict[str, int]
    iss_invocations: int
    hw_invocations: int
    strategy_name: str
    strategy_stats: Dict[str, float]
    bus_stats: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    rtos_stats: Dict[str, float] = field(default_factory=dict)
    lost_events: int = 0
    truncated: bool = False
    #: Transition counts by estimate provenance (exact/cached/
    #: macromodel/degraded) — the run's accuracy fingerprint.
    provenance: Dict[str, int] = field(default_factory=dict)
    #: Energy attributed per provenance level (joules).
    by_provenance: Dict[str, float] = field(default_factory=dict)
    #: Resilience-layer counters (faults injected, retries, watchdog
    #: timeouts, fallbacks per rung, component bypasses).
    resilience_stats: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_master(cls, master, label: str = "") -> "EnergyReport":
        """Snapshot a finished :class:`SimulationMaster`."""
        stats = master.stats
        bus = master.bus
        report = cls(
            label=label or master.network.name,
            total_energy_j=master.accountant.total_energy,
            by_component=dict(master.accountant.by_component),
            by_category=dict(master.accountant.by_category),
            end_time_ns=stats.end_time_ns,
            wall_seconds=stats.wall_seconds,
            low_level_seconds=stats.low_level_seconds,
            transitions=dict(stats.transitions),
            iss_invocations=stats.iss_invocations,
            hw_invocations=stats.hw_invocations,
            strategy_name=master.strategy.name,
            strategy_stats=dict(stats.strategy),
            lost_events=stats.lost_events,
            truncated=stats.truncated,
            provenance=dict(stats.provenance),
            by_provenance=dict(master.accountant.by_provenance),
            resilience_stats=dict(stats.resilience),
        )
        report.bus_stats = {
            "energy_j": bus.total_energy,
            "grants": float(bus.total_grants),
            "words": float(bus.total_words),
            "busy_cycles": float(bus.total_busy_cycles),
            "utilization": bus.utilization(stats.end_time_ns),
        }
        cache = master.cache
        report.cache_stats = {
            "accesses": float(cache.accesses),
            "misses": float(cache.misses),
            "hit_rate": cache.hit_rate,
            "energy_j": cache.total_energy,
            "stall_cycles": float(cache.total_stall_cycles),
        }
        report.rtos_stats = {
            "dispatches": float(master.rtos.dispatches),
            "context_switches": float(master.rtos.context_switches),
            "overhead_cycles": float(master.rtos.overhead_cycles),
        }
        return report

    # -- derived quantities ---------------------------------------------------

    def component_energy(self, name: str) -> float:
        """Energy attributed to one component (0 if unknown)."""
        return self.by_component.get(name, 0.0)

    @property
    def total_transitions(self) -> int:
        return sum(self.transitions.values())

    def average_power_w(self) -> float:
        """System average power over the simulated interval."""
        if self.end_time_ns <= 0:
            return 0.0
        return self.total_energy_j / (self.end_time_ns * 1e-9)

    # -- comparisons -------------------------------------------------------------

    def speedup_over(self, baseline: "EnergyReport") -> float:
        """CPU-time speedup of this run relative to ``baseline``.

        This is the paper's speedup metric: the ratio of co-estimation
        CPU times (baseline / accelerated).
        """
        if self.wall_seconds <= 0:
            return float("inf")
        return baseline.wall_seconds / self.wall_seconds

    def energy_error_vs(self, baseline: "EnergyReport") -> float:
        """Absolute relative error of the total energy estimate (%).

        The paper's Table 2 error metric: the accelerated estimate
        compared against the unaccelerated (Orig.) co-estimation.
        """
        if baseline.total_energy_j == 0:
            return 0.0 if self.total_energy_j == 0 else float("inf")
        return abs(self.total_energy_j - baseline.total_energy_j) / abs(
            baseline.total_energy_j
        ) * 100.0

    # -- rendering -------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the report for external tooling/dashboards."""
        import dataclasses
        import json

        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnergyReport":
        """Restore a report serialized with :meth:`to_json`."""
        import json

        return cls(**json.loads(text))

    def summary_lines(self) -> List[str]:
        """Human-readable multi-line summary."""
        lines = [
            "Energy report: %s (strategy: %s)" % (self.label, self.strategy_name),
            "  total energy     : %.6g mJ" % (self.total_energy_j * 1e3),
            "  simulated time   : %.6g us" % (self.end_time_ns * 1e-3),
            "  avg system power : %.6g mW" % (self.average_power_w() * 1e3),
            "  wall-clock time  : %.3f s (low-level: %.3f s)"
            % (self.wall_seconds, self.low_level_seconds),
            "  transitions      : %d   ISS calls: %d   gate-level calls: %d"
            % (self.total_transitions, self.iss_invocations, self.hw_invocations),
        ]
        if self.provenance:
            lines.append(
                "  provenance       : "
                + "  ".join(
                    "%s=%d" % (level, self.provenance[level])
                    for level in sorted(self.provenance)
                )
            )
        nonzero_resilience = {
            key: value for key, value in self.resilience_stats.items() if value
        }
        if nonzero_resilience:
            lines.append(
                "  resilience       : "
                + "  ".join(
                    "%s=%g" % (key, nonzero_resilience[key])
                    for key in sorted(nonzero_resilience)
                )
            )
        for name in sorted(self.by_component):
            lines.append(
                "    %-18s %.6g uJ" % (name, self.by_component[name] * 1e6)
            )
        return lines

    def pretty(self) -> str:
        """The summary as one string."""
        return "\n".join(self.summary_lines())
