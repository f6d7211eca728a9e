"""RTOS model for the software partition.

All software-mapped CFSMs share one embedded processor.  The RTOS model
serializes their transitions, charges dispatch and context-switch
overhead, and selects the next runnable process according to the
configured scheduling policy — the paper lists the scheduling policy
and priorities among the RTOS parameters the user sets in POLIS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class SchedulingPolicy:
    """Supported scheduler policies."""

    STATIC_PRIORITY = "static_priority"
    FIFO = "fifo"
    ROUND_ROBIN = "round_robin"

    ALL = (STATIC_PRIORITY, FIFO, ROUND_ROBIN)


@dataclass
class RtosConfig:
    """RTOS parameters.

    Attributes:
        policy: one of :class:`SchedulingPolicy`.
        priorities: per-process priority (lower value runs first) for
            the static-priority policy.
        dispatch_cycles: scheduler overhead charged per dispatch.
        context_switch_cycles: extra overhead when the dispatched
            process differs from the previously running one.
    """

    policy: str = SchedulingPolicy.STATIC_PRIORITY
    priorities: Dict[str, int] = field(default_factory=dict)
    dispatch_cycles: int = 12
    context_switch_cycles: int = 40

    def __post_init__(self) -> None:
        if self.policy not in SchedulingPolicy.ALL:
            raise ValueError("unknown scheduling policy %r" % self.policy)


class RtosScheduler:
    """Ready queue and dispatch accounting for the shared processor."""

    def __init__(self, config: Optional[RtosConfig] = None) -> None:
        self.config = config or RtosConfig()
        self._ready: List[str] = []
        self._arrival: Dict[str, int] = {}
        self._arrival_counter = 0
        self.last_dispatched: Optional[str] = None
        self.dispatches = 0
        self.context_switches = 0
        self.overhead_cycles = 0

    def make_ready(self, process: str) -> None:
        """Mark ``process`` runnable (idempotent)."""
        if process not in self._ready:
            self._ready.append(process)
            self._arrival[process] = self._arrival_counter
            self._arrival_counter += 1

    def remove(self, process: str) -> None:
        """Drop ``process`` from the ready queue if present."""
        if process in self._ready:
            self._ready.remove(process)

    def has_ready(self) -> bool:
        """Whether any process is runnable."""
        return bool(self._ready)

    def pick(self) -> Optional[str]:
        """Choose (and remove) the next process to dispatch.

        Returns ``None`` when the ready queue is empty.  Overhead
        cycles are accumulated in :attr:`overhead_cycles`; the master
        converts them to time and energy.
        """
        if not self._ready:
            return None
        config = self.config
        if config.policy == SchedulingPolicy.STATIC_PRIORITY:
            chosen = min(
                self._ready,
                key=lambda p: (config.priorities.get(p, 100), self._arrival[p]),
            )
        elif config.policy == SchedulingPolicy.FIFO:
            chosen = min(self._ready, key=lambda p: self._arrival[p])
        else:  # round robin: rotate after the last dispatched process
            ordered = sorted(self._ready)
            chosen = ordered[0]
            if self.last_dispatched is not None:
                for name in ordered:
                    if name > self.last_dispatched:
                        chosen = name
                        break
        self._ready.remove(chosen)
        self.dispatches += 1
        overhead = config.dispatch_cycles
        if self.last_dispatched is not None and self.last_dispatched != chosen:
            overhead += config.context_switch_cycles
            self.context_switches += 1
        self.overhead_cycles += overhead
        self.last_dispatched = chosen
        self._last_overhead = overhead
        return chosen

    @property
    def last_overhead_cycles(self) -> int:
        """Overhead charged by the most recent :meth:`pick`."""
        return getattr(self, "_last_overhead", 0)
