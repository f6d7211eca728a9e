"""Unit tests: cache simulator configuration, RTOS scheduler, tracing."""

import pytest

from repro.cache.cachesim import CacheConfig, CacheConfigError, CacheSimulator
from repro.master.rtos import RtosConfig, RtosScheduler, SchedulingPolicy
from repro.master.tracing import EnergyAccountant


class TestCacheConfig:
    def test_power_of_two_enforced(self):
        with pytest.raises(CacheConfigError):
            CacheConfig(size_bytes=1000)
        with pytest.raises(CacheConfigError):
            CacheConfig(associativity=3)

    def test_line_bounds(self):
        with pytest.raises(CacheConfigError):
            CacheConfig(size_bytes=16, line_bytes=32)
        with pytest.raises(CacheConfigError):
            CacheConfig(line_bytes=2, word_bytes=4)

    def test_num_sets(self):
        config = CacheConfig(size_bytes=1024, line_bytes=32, associativity=4)
        assert config.num_sets == 8


class TestCacheBehaviour:
    def test_lru_eviction(self):
        # Direct-mapped-ish: 2 sets, 1 way, 4-byte lines of 1 word.
        config = CacheConfig(size_bytes=8, line_bytes=4, associativity=1,
                             word_bytes=4)
        cache = CacheSimulator(config)
        cache.access(0, False)   # set 0
        cache.access(2, False)   # set 0, evicts word 0
        result = cache.access(0, False)
        assert not result.hit

    def test_writeback_on_dirty_eviction(self):
        config = CacheConfig(size_bytes=8, line_bytes=4, associativity=1,
                             word_bytes=4, write_back=True)
        cache = CacheSimulator(config)
        cache.access(0, True)    # dirty
        result = cache.access(2, False)  # evicts dirty line
        assert result.writeback
        assert cache.writebacks == 1

    def test_write_through_never_writes_back(self):
        config = CacheConfig(size_bytes=8, line_bytes=4, associativity=1,
                             word_bytes=4, write_back=False)
        cache = CacheSimulator(config)
        cache.access(0, True)
        result = cache.access(2, False)
        assert not result.writeback

    def test_miss_penalty_and_energy(self):
        cache = CacheSimulator()
        miss = cache.access(0, False)
        hit = cache.access(0, False)
        assert miss.stall_cycles == cache.config.miss_penalty_cycles
        assert hit.stall_cycles == 0
        assert miss.energy_j > hit.energy_j


class TestRtos:
    def test_static_priority_order(self):
        scheduler = RtosScheduler(RtosConfig(priorities={"a": 5, "b": 1}))
        scheduler.make_ready("a")
        scheduler.make_ready("b")
        assert scheduler.pick() == "b"
        assert scheduler.pick() == "a"
        assert scheduler.pick() is None

    def test_fifo_order(self):
        scheduler = RtosScheduler(RtosConfig(policy=SchedulingPolicy.FIFO))
        scheduler.make_ready("z")
        scheduler.make_ready("a")
        assert scheduler.pick() == "z"

    def test_round_robin_rotates(self):
        scheduler = RtosScheduler(RtosConfig(policy=SchedulingPolicy.ROUND_ROBIN))
        scheduler.make_ready("a")
        scheduler.make_ready("b")
        first = scheduler.pick()
        scheduler.make_ready(first)
        second = scheduler.pick()
        assert {first, second} == {"a", "b"}

    def test_context_switch_overhead(self):
        config = RtosConfig(dispatch_cycles=10, context_switch_cycles=40)
        scheduler = RtosScheduler(config)
        scheduler.make_ready("a")
        scheduler.pick()
        assert scheduler.last_overhead_cycles == 10  # first dispatch
        scheduler.make_ready("a")
        scheduler.pick()
        assert scheduler.last_overhead_cycles == 10  # same task: no switch
        scheduler.make_ready("b")
        scheduler.pick()
        assert scheduler.last_overhead_cycles == 50  # switch a -> b
        assert scheduler.context_switches == 1

    def test_ready_is_idempotent(self):
        scheduler = RtosScheduler()
        scheduler.make_ready("a")
        scheduler.make_ready("a")
        assert scheduler.pick() == "a"
        assert not scheduler.has_ready()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            RtosConfig(policy="lottery")


class TestEnergyAccountant:
    def test_totals_by_component_and_category(self):
        accountant = EnergyAccountant()
        accountant.add("p", "sw", 0.0, 10.0, 1e-9)
        accountant.add("p", "sw", 10.0, 20.0, 2e-9)
        accountant.add("q", "hw", 0.0, 5.0, 4e-9)
        assert accountant.component_energy("p") == pytest.approx(3e-9)
        assert accountant.by_category["hw"] == pytest.approx(4e-9)
        assert accountant.total_energy == pytest.approx(7e-9)

    def test_negative_energy_rejected(self):
        accountant = EnergyAccountant()
        with pytest.raises(ValueError):
            accountant.add("p", "sw", 0.0, 1.0, -1e-9)

    def test_waveform_conserves_energy(self):
        accountant = EnergyAccountant()
        accountant.add("p", "sw", 0.0, 100.0, 5e-9)
        accountant.add("p", "sw", 250.0, 260.0, 1e-9)
        waveform = accountant.power_waveform(bin_ns=50.0)
        total = sum(power * 50e-9 for _, power in waveform)
        assert total == pytest.approx(6e-9, rel=1e-9)

    def test_waveform_component_filter(self):
        accountant = EnergyAccountant()
        accountant.add("p", "sw", 0.0, 10.0, 5e-9)
        accountant.add("q", "hw", 0.0, 10.0, 50e-9)
        waveform_p = accountant.power_waveform(10.0, component="p")
        total_p = sum(power * 10e-9 for _, power in waveform_p)
        assert total_p == pytest.approx(5e-9, rel=1e-9)
