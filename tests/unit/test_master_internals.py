"""Unit tests: master internals, workloads, and report plumbing."""

import dataclasses

import pytest

from repro.cfsm.events import Event
from repro.master.master import (
    MasterConfig,
    SharedMemory,
    SimulationMaster,
    _contiguous_runs,
)
from repro.estimation import FullStrategy
from repro.systems import producer_consumer, tcpip, workloads


class TestContiguousRuns:
    def test_empty(self):
        assert _contiguous_runs([]) == []

    def test_single_run(self):
        runs = _contiguous_runs([(4, 10), (5, 11), (6, 12)])
        assert runs == [(4, [10, 11, 12])]

    def test_split_on_gap(self):
        runs = _contiguous_runs([(0, 1), (1, 2), (5, 3)])
        assert runs == [(0, [1, 2]), (5, [3])]

    def test_descending_addresses_split(self):
        runs = _contiguous_runs([(3, 1), (2, 2), (1, 3)])
        assert len(runs) == 3

    def test_repeated_address_splits(self):
        runs = _contiguous_runs([(7, 1), (7, 2)])
        assert runs == [(7, [1]), (7, [2])]


class TestCacheAddresses:
    def test_references_resolve_like_the_memory_map_lookup(self):
        """Every software memory reference resolves to the address the
        memory map gives it: ``@event`` names through the mailboxes."""
        bundle = tcpip.build_system(dma_block_words=8, num_packets=1)
        config = dataclasses.replace(bundle.config, record_reactions=True)
        master = SimulationMaster(bundle.network, FullStrategy(), config)
        master.run(bundle.stimuli())
        mailbox_reads = 0
        for reaction in master.reactions:
            process = master.processes[reaction.cfsm]
            if process.compiled is None:
                continue
            memory_map = process.compiled.memory_map
            for reference in reaction.trace.memory_refs:
                name = reference.name
                if name.startswith("@"):
                    expected = memory_map.event_mailboxes.get(name[1:])
                    mailbox_reads += expected is not None
                else:
                    expected = memory_map.variables.get(name)
                assert process.cache_addresses.get(name) == expected, name
        assert mailbox_reads > 0


class TestSharedMemory:
    def test_read_write_and_counters(self):
        memory = SharedMemory()
        memory.write(5, 42)
        assert memory.read(5) == 42
        assert memory.read(99) == 0
        assert memory.writes == 1
        assert memory.reads == 2

    def test_load_is_not_counted(self):
        memory = SharedMemory()
        memory.load(10, [1, 2, 3])
        assert memory.words[11] == 2
        assert memory.reads == 0
        assert memory.writes == 0


class TestWorkloads:
    def test_periodic_spacing(self):
        events = workloads.periodic("T", 100.0, 5, start_ns=50.0)
        assert [event.time for event in events] == [50, 150, 250, 350, 450]

    def test_packet_arrivals_deterministic(self):
        first = workloads.packet_arrivals(5, 100.0, seed=1)
        second = workloads.packet_arrivals(5, 100.0, seed=1)
        assert [e.value for e in first] == [e.value for e in second]
        different = workloads.packet_arrivals(5, 100.0, seed=2)
        assert ([e.value for e in first] != [e.value for e in different])

    def test_packet_sizes_in_range(self):
        events = workloads.packet_arrivals(50, 10.0, size_range=(8, 16),
                                           seed=3)
        assert all(8 <= event.value <= 16 for event in events)

    def test_merge_sorts_by_time(self):
        merged = workloads.merge(
            [Event("A", time=30.0)],
            [Event("B", time=10.0), Event("C", time=20.0)],
        )
        assert [event.time for event in merged] == [10.0, 20.0, 30.0]

    def test_wheel_pulses_follow_profile(self):
        events = workloads.wheel_pulses(
            10_000.0, [(0.0, 1000.0), (0.5, 200.0)], seed=5
        )
        first_half = [e for e in events if e.time < 5000.0]
        second_half = [e for e in events if e.time >= 5000.0]
        assert len(second_half) > len(first_half)

    def test_fuel_samples_drain(self):
        events = workloads.fuel_samples(100_000.0, 1000.0, level_start=100,
                                        drain_per_sample=1, noise=0, seed=1)
        assert events[0].value > events[-1].value


class TestZeroDelayMode:
    def test_no_low_level_engines_built(self):
        network = producer_consumer.build_network(num_packets=1)
        config = MasterConfig(zero_delay=True, record_reactions=True)
        master = SimulationMaster(network, config=config)
        assert master.processes["producer"].iss is None
        assert master.processes["consumer"].hw is None

    def test_records_reactions_with_traces(self):
        network = producer_consumer.build_network(num_packets=1)
        config = MasterConfig(zero_delay=True, record_reactions=True)
        master = SimulationMaster(network, config=config)
        master.run([Event("START", time=10.0),
                    Event("TIMER_TICK", time=20.0)])
        assert master.reactions
        record = master.reactions[0]
        assert record.cfsm in network.cfsms
        assert record.trace.ops

    def test_zero_delay_attributes_no_energy(self):
        network = producer_consumer.build_network(num_packets=1)
        master = SimulationMaster(network,
                                  config=MasterConfig(zero_delay=True))
        master.run([Event("START", time=10.0)])
        assert master.total_energy() == 0.0


class TestConfigHandling:
    def test_config_replace_for_sweeps(self):
        base = MasterConfig()
        changed = dataclasses.replace(base, cpu_clock_period_ns=20.0)
        assert changed.cpu_clock_period_ns == 20.0
        assert base.cpu_clock_period_ns == 10.0
        # Mutable members are shared unless replaced — the explorer
        # always swaps bus_params wholesale, never mutates in place.
        assert changed.bus_params is base.bus_params

    def test_masters_are_single_use_but_isolated(self):
        bundle = producer_consumer.build_system(num_packets=1)
        first = SimulationMaster(bundle.network, config=bundle.config)
        second = SimulationMaster(bundle.network, config=bundle.config)
        first.run(bundle.stimuli())
        # The second master's state is untouched by the first's run.
        assert second.processes["producer"].state["pkts_left"] == 1
        assert second.total_energy() == 0.0
