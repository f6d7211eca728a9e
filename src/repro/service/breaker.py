"""Per-component-estimator circuit breakers.

A long-lived co-estimation service keeps calling the same component
estimators (the ISS, the gate-level simulator) across thousands of
requests.  When one of those sites fails *persistently* — a broken
netlist, a corrupted library, an injected 100%-fault-rate chaos plan —
retrying it on every transition of every request burns the per-request
deadline on work that is known to fail.  The PR-3 supervision layer
already degrades a failed call down the cached → macromodel →
analytical ladder; the breaker adds the *cross-request* memory:

* ``closed`` — normal operation, calls flow through;
* ``open`` — after ``failure_threshold`` consecutive persistent
  failures, the site is short-circuited: supervised calls skip the
  doomed low-level invocation and answer directly from the degradation
  ladder (tagged ``cached``/``macromodel``/``degraded`` provenance);
* ``half-open`` — after ``recovery_s`` the next call is admitted as a
  single probe; success closes the breaker, failure re-opens it.

The breaker object implements the minimal protocol the resilience
supervisor consumes (``allow`` / ``record_success`` /
``record_failure``), so :class:`~repro.resilience.supervisor.
ResilientEstimator` stays decoupled from this module: any object with
those three methods can ride on ``ResilienceConfig.breaker_registry``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "BreakerRegistry",
    "ScopedBreakers",
]

#: Breaker states, in increasing order of distrust.
BREAKER_STATES = ("closed", "half_open", "open")


class CircuitBreaker:
    """One breaker guarding one component-estimator site.

    Thread-safe: a service worker pool consults the same breaker from
    many threads.  ``clock`` is injectable so tests never sleep.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        recovery_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_s < 0:
            raise ValueError("recovery_s must be non-negative")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        # Lifetime accounting (exposed by /stats).
        self.opens = 0
        self.short_circuits = 0
        self.probes = 0

    def _set_state(self, new_state: str) -> Optional[Tuple[str, str]]:
        """Change state under the lock; returns the (old, new) edge.

        Returns None when nothing changed.  The caller is responsible
        for reporting the edge to ``on_transition`` *after* releasing
        the lock — observers log and touch metrics, and holding a hot
        breaker lock across foreign code invites deadlocks.
        """
        old_state = self._state
        if old_state == new_state:
            return None
        self._state = new_state
        return old_state, new_state

    def _notify(self, edge: Optional[Tuple[str, str]]) -> None:
        if edge is not None and self._on_transition is not None:
            self._on_transition(self.name, edge[0], edge[1])

    # -- protocol consumed by ResilientEstimator -----------------------

    def allow(self) -> bool:
        """May a supervised call run its low-level estimator now?

        Open breakers admit a single probe once ``recovery_s`` has
        elapsed (transitioning to half-open); every other caller is
        short-circuited until the probe reports back.
        """
        edge: Optional[Tuple[str, str]] = None
        try:
            with self._lock:
                if self._state == "closed":
                    return True
                if self._state == "open":
                    if self._clock() - self._opened_at >= self.recovery_s:
                        edge = self._set_state("half_open")
                        self._probe_in_flight = True
                        self.probes += 1
                        return True
                    self.short_circuits += 1
                    return False
                # half-open: exactly one probe at a time.
                if self._probe_in_flight:
                    self.short_circuits += 1
                    return False
                self._probe_in_flight = True
                self.probes += 1
                return True
        finally:
            self._notify(edge)

    def record_success(self) -> None:
        """A supervised exact call completed: close (or stay closed)."""
        with self._lock:
            edge = self._set_state("closed")
            self._consecutive_failures = 0
            self._probe_in_flight = False
        self._notify(edge)

    def record_failure(self) -> None:
        """A supervised call failed persistently (retries exhausted)."""
        edge: Optional[Tuple[str, str]] = None
        with self._lock:
            if self._state == "half_open":
                # The probe failed: straight back to open.
                edge = self._trip()
            else:
                self._consecutive_failures += 1
                if (
                    self._state == "closed"
                    and self._consecutive_failures >= self.failure_threshold
                ):
                    edge = self._trip()
        self._notify(edge)

    def _trip(self) -> Optional[Tuple[str, str]]:
        edge = self._set_state("open")
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self._consecutive_failures = 0
        self.opens += 1
        return edge

    # -- introspection --------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self.opens,
                "short_circuits": self.short_circuits,
                "probes": self.probes,
            }


class BreakerRegistry:
    """Lazily created breakers, keyed by site name, shared service-wide.

    Keys are free-form strings; the service uses ``"<system>:<site>"``
    so a broken gate-level simulator for one system never trips the
    breaker of another.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        #: Called as ``(site, old_state, new_state)`` on every breaker
        #: state change, outside the breaker's lock.  Assignable after
        #: construction (the service wires its observability bundle in).
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def _dispatch_transition(self, site: str, old: str, new: str) -> None:
        callback = self.on_transition
        if callback is not None:
            callback(site, old, new)

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name,
                    failure_threshold=self.failure_threshold,
                    recovery_s=self.recovery_s,
                    clock=self._clock,
                    on_transition=self._dispatch_transition,
                )
            return breaker

    def states(self) -> Dict[str, str]:
        """Current state of every known breaker, keyed by site."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.state for name, breaker in sorted(breakers.items())}

    def peek(self, name: str) -> Optional[CircuitBreaker]:
        """The breaker for ``name`` if it exists (no creation)."""
        with self._lock:
            return self._breakers.get(name)

    def scoped(self, prefix: str) -> "ScopedBreakers":
        """A per-system view usable as ``ResilienceConfig.breaker_registry``."""
        return ScopedBreakers(self, prefix)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in sorted(breakers.items())}

    def open_count(self) -> int:
        with self._lock:
            breakers = list(self._breakers.values())
        return sum(1 for breaker in breakers if breaker.state == "open")


class ScopedBreakers:
    """Registry view that prepends ``"<prefix>:"`` to every site name.

    :class:`~repro.resilience.supervisor.ResilientEstimator` asks its
    ``breaker_registry`` for plain site names (``hw``, ``iss``); the
    service needs those partitioned per system.  This adapter is what a
    request's :class:`~repro.resilience.supervisor.ResilienceConfig`
    actually carries.
    """

    def __init__(self, registry: BreakerRegistry, prefix: str) -> None:
        self._registry = registry
        self.prefix = prefix

    def get(self, site: str) -> CircuitBreaker:
        return self._registry.get("%s:%s" % (self.prefix, site))

    def states(self) -> Dict[str, str]:
        """State of every breaker in this scope, keyed by full name."""
        scope = self.prefix + ":"
        return {name: state for name, state in self._registry.states().items()
                if name.startswith(scope)}
