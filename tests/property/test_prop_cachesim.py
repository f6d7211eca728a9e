"""Property tests: cache simulator invariants, and an oracle.

:class:`ReferenceCache` keeps the straightforward ``access`` (one new
outcome object per access, separate locate and accounting helpers)
that the allocation-free simulator must match exactly.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cachesim import CacheAccess, CacheConfig, CacheSimulator


@dataclasses.dataclass
class _RefLine:
    tag: int
    dirty: bool = False
    last_used: int = 0


class ReferenceCache:
    """Set-associative true-LRU cache, one new outcome per access."""

    def __init__(self, config):
        self.config = config
        self._sets = [{} for _ in range(config.num_sets)]
        self._tick = 0
        self.reads = self.writes = 0
        self.read_misses = self.write_misses = 0
        self.writebacks = 0
        self.total_energy = 0.0
        self.total_stall_cycles = 0

    def _locate(self, word_address):
        config = self.config
        line_number = (word_address * config.word_bytes) // config.line_bytes
        return line_number % config.num_sets, line_number // config.num_sets

    def access(self, word_address, is_write):
        self._tick += 1
        set_index, tag = self._locate(word_address)
        lines = self._sets[set_index]
        config = self.config
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

        line = lines.get(tag)
        if line is not None:
            line.last_used = self._tick
            if is_write and config.write_back:
                line.dirty = True
            outcome = CacheAccess(hit=True, energy_j=config.hit_energy_j)
            self._account(outcome)
            return outcome

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
        lines[tag] = _RefLine(
            tag=tag, dirty=is_write and config.write_back, last_used=self._tick
        )
        outcome = CacheAccess(
            hit=False,
            writeback=writeback,
            energy_j=config.hit_energy_j + config.miss_energy_j,
            stall_cycles=config.miss_penalty_cycles,
        )
        self._account(outcome)
        return outcome

    def _account(self, outcome):
        self.total_energy += outcome.energy_j
        self.total_stall_cycles += outcome.stall_cycles


_POWERS = [2 ** k for k in range(2, 11)]


@st.composite
def cache_configs(draw):
    size = draw(st.sampled_from(_POWERS))
    line = draw(st.sampled_from([p for p in _POWERS if p <= min(size, 64)]))
    return CacheConfig(
        size_bytes=size,
        line_bytes=line,
        associativity=draw(st.sampled_from([1, 2, 4, 8])),
        hit_energy_j=draw(st.sampled_from([0.12e-9, 0.1e-9, 0.37e-10])),
        miss_energy_j=draw(st.sampled_from([0.95e-9, 0.3e-9])),
        miss_penalty_cycles=draw(st.integers(0, 20)),
        write_back=draw(st.booleans()),
    )


@given(
    cache_configs(),
    st.lists(st.tuples(st.integers(0, 2047), st.booleans()), max_size=400),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference_access(config, stream):
    cache, reference = CacheSimulator(config), ReferenceCache(config)
    for address, is_write in stream:
        outcome = cache.access(address, is_write)
        assert outcome == reference.access(address, is_write)
    for name in ("reads", "writes", "read_misses", "write_misses",
                 "writebacks", "total_stall_cycles"):
        assert getattr(cache, name) == getattr(reference, name), name
    assert cache.total_energy == reference.total_energy


def test_hit_outcome_is_immutable():
    cache = CacheSimulator()
    cache.access(3, False)
    hit = cache.access(3, True)
    assert hit.hit and cache.access(3, False) is hit
    with pytest.raises(dataclasses.FrozenInstanceError):
        hit.stall_cycles = 8
    assert cache.access(3, False) == CacheAccess(
        hit=True, energy_j=cache.config.hit_energy_j
    )


def access_streams():
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=4095),
                  st.booleans()),
        min_size=1,
        max_size=300,
    )


@given(access_streams())
def test_counter_consistency(stream):
    cache = CacheSimulator(CacheConfig(size_bytes=512, line_bytes=16,
                                       associativity=2))
    for address, is_write in stream:
        cache.access(address, is_write)
    assert cache.accesses == len(stream)
    assert cache.reads + cache.writes == cache.accesses
    assert cache.read_misses <= cache.reads
    assert cache.write_misses <= cache.writes
    assert 0.0 <= cache.hit_rate <= 1.0
    assert cache.total_energy > 0.0


@given(access_streams())
def test_immediate_rereference_hits(stream):
    """An access immediately repeated is always a hit."""
    cache = CacheSimulator(CacheConfig(size_bytes=512, line_bytes=16,
                                       associativity=2))
    for address, is_write in stream:
        cache.access(address, is_write)
        again = cache.access(address, False)
        assert again.hit


@given(st.integers(min_value=0, max_value=1000))
def test_single_address_misses_once(address):
    cache = CacheSimulator()
    first = cache.access(address, False)
    assert not first.hit
    for _ in range(5):
        assert cache.access(address, False).hit
    assert cache.misses == 1


@given(access_streams())
def test_bigger_cache_never_misses_more(stream):
    """Inclusion-ish sanity: doubling capacity cannot increase misses
    for an LRU cache with the same line size and associativity scaled."""
    small = CacheSimulator(CacheConfig(size_bytes=256, line_bytes=16,
                                       associativity=2))
    large = CacheSimulator(CacheConfig(size_bytes=1024, line_bytes=16,
                                       associativity=8))
    for address, is_write in stream:
        small.access(address, is_write)
        large.access(address, is_write)
    assert large.misses <= small.misses


@given(access_streams())
def test_flush_returns_dirty_count_and_clears(stream):
    cache = CacheSimulator(CacheConfig(write_back=True))
    for address, is_write in stream:
        cache.access(address, is_write)
    dirty = cache.flush()
    assert dirty >= 0
    # After a flush everything misses again.
    address = stream[0][0]
    assert not cache.access(address, False).hit
