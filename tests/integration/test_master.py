"""Integration: simulation-master mechanics on purpose-built networks."""

import dataclasses
import hashlib
import json

import pytest

from repro.bus.model import BusParameters
from repro.cfsm.builder import NetworkBuilder
from repro.cfsm.events import Event
from repro.cfsm.expr import add, const, event_value, var
from repro.cfsm.model import Implementation
from repro.cfsm.sgraph import assign, emit, loop, shared_read, shared_write
from repro.core.coestimator import PowerCoEstimator
from repro.master.master import MasterConfig, MasterError, SimulationMaster
from repro.master.rtos import RtosConfig
from repro.systems import tcpip


def relay_network(on_bus=False):
    """env -> sw relay -> hw sink, optionally over the bus."""
    net = NetworkBuilder("relay")
    relay = net.cfsm("relay", mapping=Implementation.SW)
    relay.input("IN", has_value=True).output("MID", has_value=True)
    relay.var("x", 0)
    relay.transition("fwd", trigger=["IN"], body=[
        assign("x", add(event_value("IN"), const(1))),
        emit("MID", var("x")),
    ])
    sink = net.cfsm("sink", mapping=Implementation.HW, width=16)
    sink.input("MID", has_value=True)
    sink.var("total", 0)
    sink.transition("take", trigger=["MID"], body=[
        assign("total", add(var("total"), event_value("MID"))),
    ])
    net.environment_input("IN")
    if on_bus:
        net.on_bus("MID")
    return net.build()


class TestEventFlow:
    def test_values_flow_through_partitions(self):
        network = relay_network()
        master = SimulationMaster(network, config=MasterConfig())
        master.run([Event("IN", value=10, time=0.0),
                    Event("IN", value=20, time=50_000.0)])
        assert master.processes["sink"].state["total"] == 11 + 21
        # Hardware registers mirror the behavioral state.
        assert master.processes["sink"].hw.read_variable("total") == 32

    def test_bus_mapped_event_delays_delivery(self):
        direct = SimulationMaster(relay_network(on_bus=False), config=MasterConfig())
        direct.run([Event("IN", value=1, time=0.0)])
        bussed = SimulationMaster(relay_network(on_bus=True), config=MasterConfig())
        bussed.run([Event("IN", value=1, time=0.0)])
        assert bussed.stats.end_time_ns > direct.stats.end_time_ns
        assert bussed.bus.total_grants == 1
        assert direct.bus.total_grants == 0

    def test_stimulus_requires_timestamp(self):
        master = SimulationMaster(relay_network(), config=MasterConfig())
        with pytest.raises(MasterError):
            master.run([Event("IN", value=1)])

    def test_events_to_nowhere_counted_lost(self):
        master = SimulationMaster(relay_network(), config=MasterConfig())
        master.run([Event("UNKNOWN", value=1, time=0.0)])
        assert master.stats.lost_events == 1

    def test_dispatch_guard_truncates(self):
        network = relay_network()
        config = MasterConfig(max_dispatches=3)
        master = SimulationMaster(network, config=config)
        stats = master.run([Event("IN", value=i, time=float(i) * 10)
                            for i in range(100)])
        assert stats.truncated


class TestSharedMemoryFlow:
    def shared_network(self):
        net = NetworkBuilder("shmem")
        writer = net.cfsm("writer", mapping=Implementation.SW)
        writer.input("GO", has_value=True)
        writer.output("DONE")
        writer.var("i", 0)
        writer.transition("w", trigger=["GO"], body=[
            assign("i", const(0)),
            loop(event_value("GO"), [
                shared_write(var("i"), add(var("i"), const(100))),
                assign("i", add(var("i"), const(1))),
            ]),
            emit("DONE"),
        ])
        reader = net.cfsm("reader", mapping=Implementation.HW, width=16)
        reader.input("DONE")
        reader.var("acc", 0).var("w", 0)
        reader.transition("r", trigger=["DONE"], body=[
            shared_read("w", const(0)),
            assign("acc", add(var("acc"), var("w"))),
        ])
        net.environment_input("GO")
        return net.build()

    def test_shared_traffic_hits_bus_and_memory(self):
        master = SimulationMaster(self.shared_network(), config=MasterConfig())
        master.run([Event("GO", value=4, time=0.0)])
        assert master.shared_memory.words[0] == 100
        assert master.processes["reader"].state["acc"] == 100
        assert master.bus.total_words == 5  # 4 writes + 1 read
        assert master.accountant.by_category.get("bus", 0) > 0

    def test_dma_size_changes_grants(self):
        counts = {}
        for dma in (1, 4):
            config = MasterConfig(bus_params=BusParameters(dma_block_words=dma))
            master = SimulationMaster(self.shared_network(), config=config)
            master.run([Event("GO", value=8, time=0.0)])
            counts[dma] = master.bus.total_grants
        assert counts[1] > counts[4]


class TestRtosIntegration:
    def two_task_network(self):
        net = NetworkBuilder("tasks")
        for name in ("task_a", "task_b"):
            task = net.cfsm(name, mapping=Implementation.SW)
            task.input("TICK")
            task.var("n", 0)
            task.transition("t", trigger=["TICK"], body=[
                loop(const(10), [assign("n", add(var("n"), const(1)))]),
            ])
        net.environment_input("TICK")
        return net.build()

    def test_processor_serializes_software(self):
        config = MasterConfig(rtos=RtosConfig(priorities={"task_a": 0,
                                                          "task_b": 1}))
        master = SimulationMaster(self.two_task_network(), config=config)
        master.run([Event("TICK", time=0.0)])
        # Both tasks ran, and the scheduler charged overhead.
        assert master.stats.transitions == {"task_a": 1, "task_b": 1}
        assert master.rtos.dispatches == 2
        assert master.rtos.context_switches >= 1
        assert master.accountant.by_category.get("rtos", 0) > 0
        # Their executions cannot overlap in time: samples are disjoint.
        samples = [s for s in master.accountant.samples
                   if s.component.startswith("task_")]
        samples.sort(key=lambda s: s.start_ns)
        assert samples[0].end_ns <= samples[1].start_ns + 1e-9

    def test_priority_decides_who_runs_first(self):
        config = MasterConfig(rtos=RtosConfig(priorities={"task_b": 0,
                                                          "task_a": 1}))
        master = SimulationMaster(self.two_task_network(), config=config)
        master.run([Event("TICK", time=0.0)])
        samples = [s for s in master.accountant.samples
                   if s.component.startswith("task_")]
        first = min(samples, key=lambda s: s.start_ns)
        assert first.component == "task_b"


class TestIdleCharging:
    def test_hw_idle_energy_charged(self):
        network = relay_network()
        master = SimulationMaster(network, config=MasterConfig())
        master.run([Event("IN", value=1, time=0.0),
                    Event("IN", value=1, time=500_000.0)])
        assert master.accountant.by_category.get("idle", 0) > 0

    def test_idle_charging_can_be_disabled(self):
        network = relay_network()
        config = MasterConfig(charge_hw_idle=False)
        master = SimulationMaster(network, config=config)
        master.run([Event("IN", value=1, time=0.0)])
        assert master.accountant.by_category.get("idle", 0) == 0


class TestTruncationPins:
    """A run cut by a horizon or a dispatch cap is pinned bit for bit.

    The figures were recorded before the event loop popped plain heap
    tuples: which item is dropped at the cut, how many events were
    handled and the whole report (wall-clock fields aside) must not
    move with the loop's bookkeeping.
    """

    @staticmethod
    def cut_run(until_ns=None, max_dispatches=None):
        bundle = tcpip.build_system(num_packets=2)
        if max_dispatches is not None:
            bundle.config.max_dispatches = max_dispatches
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        result = estimator.estimate(
            bundle.stimuli(), "full", until_ns=until_ns,
            shared_memory_image=bundle.shared_memory_image,
        )
        payload = {
            key: value
            for key, value in dataclasses.asdict(result.report).items()
            if not key.endswith("_seconds")
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=repr).encode()
        ).hexdigest()
        stats = result.master.stats
        return (stats.truncated, stats.dispatched, stats.end_time_ns,
                len(result.master.queue.heap), digest)

    def test_until_ns_cuts_tcpip_midway(self):
        # The uncut run handles 128 events and ends at 167,320 ns.
        assert self.cut_run(until_ns=30_000.0) == (
            True, 64, 29_970.0, 1,
            "475ad4fbc50f65fc8e816fd5cd7ec4197b2e37a7be66207dcbaee79f5a9baff2",
        )

    def test_max_dispatches_cuts_tcpip_midway(self):
        assert self.cut_run(max_dispatches=50) == (
            True, 50, 27_830.0, 3,
            "fe7c0a169f5881486a627f2ad57dff92feb3324f3fb16ab5cc41f3a0f1ad25d5",
        )
