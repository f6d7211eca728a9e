"""Set-associative cache simulator with energy and stall accounting.

The simulator is deliberately fast (dictionary tag stores, true-LRU via
access counters) because, as in the paper, it is invoked for every
memory reference the master extracts from behavioral execution — it
must never become the bottleneck the low-level simulators are.  Hits,
the common case, allocate nothing: every hit returns the simulator's
one shared (frozen) hit outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional
from repro.errors import ReproError

from repro.telemetry import NULL_TELEMETRY, Telemetry


class CacheConfigError(ReproError):
    """Raised for invalid cache geometries."""


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and cost parameters.

    Attributes:
        size_bytes: total capacity.
        line_bytes: line (block) size.
        associativity: ways per set.
        word_bytes: addressable word size used by the CFSM memory maps.
        hit_energy_j: energy per hit access.
        miss_energy_j: extra energy per miss (tag miss + line fill
            control; the main-memory/bus traffic itself is charged by
            the caller).
        miss_penalty_cycles: processor stall cycles per miss.
        write_back: write-back with dirty bits when True, else
            write-through.
    """

    size_bytes: int = 4096
    line_bytes: int = 16
    associativity: int = 2
    word_bytes: int = 4
    hit_energy_j: float = 0.12e-9
    miss_energy_j: float = 0.95e-9
    miss_penalty_cycles: int = 8
    write_back: bool = True

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "associativity", "word_bytes"):
            if not _is_power_of_two(getattr(self, name)):
                raise CacheConfigError("%s must be a power of two" % name)
        if self.line_bytes > self.size_bytes:
            raise CacheConfigError("line larger than cache")
        if self.line_bytes < self.word_bytes:
            raise CacheConfigError("line smaller than a word")

    @property
    def num_sets(self) -> int:
        lines = self.size_bytes // self.line_bytes
        return max(1, lines // self.associativity)


@dataclass(frozen=True, slots=True)
class CacheAccess:
    """Outcome of one access (immutable: hits share one instance)."""

    hit: bool
    writeback: bool = False
    energy_j: float = 0.0
    stall_cycles: int = 0


@dataclass
class _Line:
    tag: int
    dirty: bool = False
    last_used: int = 0


class CacheSimulator:
    """A fast set-associative cache model."""

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or CacheConfig()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        # ``access`` is the framework's hottest call site; bind the two
        # instruments once instead of a registry lookup per reference.
        if self.telemetry.enabled:
            self._hit_counter = self.telemetry.metrics.counter("datacache.hits")
            self._miss_counter = self.telemetry.metrics.counter("datacache.misses")
        else:
            self._hit_counter = None
            self._miss_counter = None
        # ``num_sets`` is a derived property; freeze the geometry and
        # costs into plain attributes — ``access`` reads them once per
        # memory reference.
        config = self.config
        self._num_sets = config.num_sets
        self._word_bytes = config.word_bytes
        self._line_bytes = config.line_bytes
        self._hit_energy = config.hit_energy_j
        self._dirty_on_write = config.write_back
        self._hit = CacheAccess(hit=True, energy_j=config.hit_energy_j)
        self._sets: List[Dict[int, _Line]] = [
            {} for _ in range(self._num_sets)
        ]
        self._tick = 0
        self.reads = 0
        self.writes = 0
        self.read_misses = 0
        self.write_misses = 0
        self.writebacks = 0
        self.total_energy = 0.0
        self.total_stall_cycles = 0

    # -- public API ------------------------------------------------------------

    def access(self, word_address: int, is_write: bool) -> CacheAccess:
        """Look up one word; updates statistics and LRU state."""
        self._tick += 1
        line_number = (word_address * self._word_bytes) // self._line_bytes
        num_sets = self._num_sets
        lines = self._sets[line_number % num_sets]
        tag = line_number // num_sets
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

        line = lines.get(tag)
        if line is not None:
            line.last_used = self._tick
            if is_write and self._dirty_on_write:
                line.dirty = True
            # Hits stall for zero cycles: only the energy accumulates.
            self.total_energy += self._hit_energy
            if self._hit_counter is not None:
                self._hit_counter.inc()
            return self._hit

        # Miss: fill, possibly evicting the LRU way.
        config = self.config
        if is_write:
            self.write_misses += 1
        else:
            self.read_misses += 1
        writeback = False
        if len(lines) >= config.associativity:
            victim_tag = min(lines, key=lambda t: lines[t].last_used)
            victim = lines.pop(victim_tag)
            if victim.dirty:
                writeback = True
                self.writebacks += 1
        lines[tag] = _Line(
            tag=tag, dirty=is_write and config.write_back, last_used=self._tick
        )
        outcome = CacheAccess(
            hit=False,
            writeback=writeback,
            energy_j=config.hit_energy_j + config.miss_energy_j,
            stall_cycles=config.miss_penalty_cycles,
        )
        self.total_energy += outcome.energy_j
        self.total_stall_cycles += outcome.stall_cycles
        if self._miss_counter is not None:
            self._miss_counter.inc()
        return outcome

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        """Total misses so far."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction (1.0 when no accesses yet)."""
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.misses / self.accesses

    def reset_statistics(self) -> None:
        """Clear counters but keep cache contents."""
        self.reads = self.writes = 0
        self.read_misses = self.write_misses = 0
        self.writebacks = 0
        self.total_energy = 0.0
        self.total_stall_cycles = 0

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines."""
        dirty = sum(
            1 for lines in self._sets for line in lines.values() if line.dirty
        )
        self._sets = [{} for _ in range(self._num_sets)]
        return dirty
