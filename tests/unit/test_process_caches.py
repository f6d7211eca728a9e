"""Unit tests for the process-wide hot-path caches.

Seven caches accelerate repeated co-estimation: compiled-simulator,
synthesis, codegen, ISS decode, compiled s-graph bodies, and the exact
hardware and ISS run memos.  Each keeps ``Stats`` hit/miss accounting and (when telemetry is on)
mirrors it into the metrics registry.  Caching must never change a
single reported number — warm runs replay losslessly.
"""

import dataclasses
import sys
import threading

import pytest

from repro import lru
from repro.cfsm import sgraph
from repro.cfsm.expr import add, const, gt, var
from repro.cfsm.sgraph import (
    SGRAPH_COMPILE_CACHE_STATS,
    SGraph,
    assign,
    compiled_body,
    emit,
    if_,
    loop,
)
from repro.cfsm.model import Implementation
from repro.core import PowerCoEstimator
from repro.core.caching import WarmStartCache
from repro.hw import logicsim
from repro.hw.estimator import (
    HW_RUN_MEMO_STATS,
    HardwarePowerSimulator,
    _HW_RUN_MEMO,
)
from repro.hw.logicsim import COMPILE_CACHE_STATS, CompiledSimulator
from repro.hw.netlist import Gate, Netlist, NetlistBuilder
from repro.hw.synth import SYNTH_CACHE_STATS
from repro.master import MasterConfig, SimulationMaster
from repro.sw.codegen import CODEGEN_CACHE_STATS
from repro.sw.iss import (
    DECODE_CACHE_STATS,
    ISS_RUN_MEMO_STATS,
)
from repro.systems import tcpip
from repro.telemetry import Telemetry

ALL_STATS = {
    "compile": COMPILE_CACHE_STATS,
    "synth": SYNTH_CACHE_STATS,
    "codegen": CODEGEN_CACHE_STATS,
    "iss_decode": DECODE_CACHE_STATS,
    "hw_run_memo": HW_RUN_MEMO_STATS,
    "iss_run_memo": ISS_RUN_MEMO_STATS,
    "sgraph_compile": SGRAPH_COMPILE_CACHE_STATS,
}

#: Metrics-registry counters each cache maintains when telemetry is on.
COUNTER_NAMES = {
    "compile": "hw.compile_cache",
    "iss_decode": "iss.decode_cache",
    "hw_run_memo": "hw.run_memo",
    "iss_run_memo": "iss.run_memo",
}


def _run(telemetry=None):
    bundle = tcpip.build_system(
        dma_block_words=8, num_packets=1, packet_period_ns=30_000.0
    )
    estimator = PowerCoEstimator(bundle.network, bundle.config)
    result = estimator.estimate(
        bundle.stimuli(), strategy="caching", telemetry=telemetry
    )
    return result.report


def _canonical(report):
    """Report as a dict, wall-clock fields (nondeterministic) dropped."""
    payload = dataclasses.asdict(report)
    return {
        key: value
        for key, value in payload.items()
        if not key.endswith("_seconds")
    }


class TestColdWarm:
    def test_warm_run_hits_every_cache_and_replays_exactly(self):
        lru.clear_process_caches()
        cold_report = _run()
        cold = {name: s.snapshot() for name, s in ALL_STATS.items()}
        for name, snapshot in cold.items():
            assert snapshot["misses"] > 0, name

        telemetry = Telemetry.metrics_only()
        warm_report = _run(telemetry=telemetry)
        warm = {name: s.snapshot() for name, s in ALL_STATS.items()}
        for name in ALL_STATS:
            assert warm[name]["hits"] > cold[name]["hits"], name

        # Exact replay: not a single reported number moves.
        assert _canonical(warm_report) == _canonical(cold_report)

        # The same accounting is visible through the metrics registry.
        counters = telemetry.metrics.snapshot()["counters"]
        for name, prefix in COUNTER_NAMES.items():
            assert counters.get(prefix + ".hits", 0) > 0, name

    def test_clear_resets_stats_and_forces_misses(self):
        lru.clear_process_caches()
        _run()
        lru.clear_process_caches()
        for name, stats in ALL_STATS.items():
            snapshot = stats.snapshot()
            assert snapshot["hits"] == 0, name
            assert snapshot["misses"] == 0, name
        _run()
        assert COMPILE_CACHE_STATS.misses > 0
        assert DECODE_CACHE_STATS.misses > 0


class TestWarmStartCache:
    def _build(self, dma, priorities=None):
        return tcpip.build_system(
            dma_block_words=dma,
            num_packets=1,
            packet_period_ns=30_000.0,
            priorities=priorities,
        )

    def test_same_system_adopts_cache(self):
        warm = WarmStartCache()
        bundle = self._build(8)
        first = warm.strategy_for(bundle.network, bundle.config)
        assert warm.cache is not None
        again = warm.strategy_for(bundle.network, bundle.config)
        assert again.cache is first.cache
        assert warm.adoptions >= 1
        assert warm.invalidations == 0

    def test_priority_change_keeps_cache_valid(self):
        # Bus priorities live outside the per-CFSM fingerprints: the
        # converged energy statistics stay adoptable.
        warm = WarmStartCache()
        a = self._build(8, priorities={"create_pack": 0, "ip_check": 1,
                                       "checksum": 2})
        warm.strategy_for(a.network, a.config)
        b = self._build(8, priorities={"checksum": 0, "ip_check": 1,
                                       "create_pack": 2})
        warm.strategy_for(b.network, b.config)
        assert warm.invalidations == 0
        assert warm.adoptions >= 1

    def test_dma_change_invalidates_stale_processes_only(self):
        warm = WarmStartCache()
        a = self._build(4)
        strategy = warm.strategy_for(a.network, a.config)
        # Converge some entries by actually running.
        estimator = PowerCoEstimator(a.network, a.config)
        estimator.estimate(a.stimuli(), strategy=strategy)
        fingerprints_before = warm.fingerprints

        b = self._build(16)
        warm.strategy_for(b.network, b.config)
        assert warm.invalidations == 1
        # The DMA block size is baked into the coordination logic, so at
        # least one CFSM fingerprint must differ — but not all of them.
        changed = {
            name
            for name in fingerprints_before
            if warm.fingerprints.get(name) != fingerprints_before[name]
        }
        assert changed
        assert changed != set(fingerprints_before)


class TestRunMemoExactness:
    def test_memoized_reruns_are_bit_identical(self):
        lru.clear_process_caches()
        first = _run()
        replayed = _run()
        assert HW_RUN_MEMO_STATS.hits > 0
        assert _canonical(replayed) == _canonical(first)
        # Energy totals compare exactly (floats, no tolerance).
        assert replayed.total_energy_j == first.total_energy_j

    def test_replayed_run_restores_net_values_as_a_list(self):
        lru.clear_process_caches()
        bundle = tcpip.build_system(dma_block_words=8, num_packets=1)
        cfsm = bundle.network.cfsms["checksum"]
        first = HardwarePowerSimulator(cfsm)
        second = HardwarePowerSimulator(cfsm)
        transition = cfsm.transitions[0].name
        first.run_transition(transition)
        hits = HW_RUN_MEMO_STATS.hits
        second.run_transition(transition)
        assert HW_RUN_MEMO_STATS.hits == hits + 1
        assert type(second.simulator.values) is list
        assert second.simulator.values == first.simulator.values
        # Net values are single bits: the memo keeps them as bytes.
        (entry,) = _HW_RUN_MEMO._entries.values()
        assert isinstance(entry[1], bytes)


class TestNetlistKeyedOnce:
    def test_second_master_rehashes_and_rechecks_nothing(self, monkeypatch):
        """A rebuilt design point reuses the netlist's key and checks.

        Synthesis hits return the same netlist, whose compile-cache hit
        matches its content key by identity: no gate is hashed or
        compared and no netlist is checked again.
        """
        lru.clear_process_caches()

        def network():
            return tcpip.build_system(dma_block_words=8, num_packets=1).network

        first = network()
        hw_blocks = sum(
            mapping == Implementation.HW for mapping in first.mapping.values()
        )
        assert hw_blocks >= 1
        SimulationMaster(first, config=MasterConfig())

        calls = {"hash": 0, "eq": 0, "check": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Gate, "__hash__", counting("hash", Gate.__hash__))
        monkeypatch.setattr(Gate, "__eq__", counting("eq", Gate.__eq__))
        monkeypatch.setattr(Netlist, "check", counting("check", Netlist.check))
        hits = COMPILE_CACHE_STATS.hits
        SimulationMaster(network(), config=MasterConfig())
        assert calls == {"hash": 0, "eq": 0, "check": 0}
        assert COMPILE_CACHE_STATS.hits == hits + hw_blocks


def _one_gate_netlist(cell):
    builder = NetlistBuilder("gate")
    inputs = builder.input_bus("x", 2)
    builder.output_bus("y", [builder.gate(cell, inputs[0], inputs[1])])
    return builder.build()


class TestConcurrentEviction:
    def test_hits_survive_eviction_by_another_thread(self, monkeypatch):
        """Three threads share a two-entry compile cache over four netlists.

        Another thread may evict a key between a hit's lookup and its LRU
        touch.  Before the shared LRU helper that raised ``KeyError`` in
        at least one thread on most runs; the race is probabilistic, so an
        unfixed cache can also pass this test by luck.
        """
        lru.clear_process_caches()
        monkeypatch.setattr(logicsim._COMPILE_CACHE, "capacity", 2)
        netlists = [_one_gate_netlist(cell)
                    for cell in ("AND2", "OR2", "XOR2", "NAND2")]
        errors = []

        def construct(offset):
            try:
                for index in range(4000):
                    CompiledSimulator(netlists[(index + offset) % 4])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=construct, args=(offset,))
                       for offset in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert COMPILE_CACHE_STATS.evictions > 0


def _bodies(network):
    return [transition.body
            for _, cfsm in sorted(network.cfsms.items())
            for transition in cfsm.transitions]


class TestSgraphCompileCache:
    def test_separately_built_systems_share_compiled_bodies(self):
        lru.clear_process_caches()
        first = tcpip.build_system(dma_block_words=8, num_packets=1)
        PowerCoEstimator(first.network, first.config).estimate(
            first.stimuli(), strategy="caching",
            shared_memory_image=first.shared_memory_image)
        misses = SGRAPH_COMPILE_CACHE_STATS.misses
        assert misses > 0

        second = tcpip.build_system(dma_block_words=8, num_packets=1)
        PowerCoEstimator(second.network, second.config).estimate(
            second.stimuli(), strategy="caching",
            shared_memory_image=second.shared_memory_image)
        assert SGRAPH_COMPILE_CACHE_STATS.misses == misses
        assert SGRAPH_COMPILE_CACHE_STATS.hits >= misses
        shared = [a._run for a, b in zip(_bodies(first.network),
                                          _bodies(second.network))
                  if a._run is not None and a._run is b._run]
        assert len(shared) == misses

    @pytest.mark.parametrize("make", [
        lambda inner: [if_(gt(var("a"), const(0)), [assign("b", inner)])],
        lambda inner: [if_(gt(var("a"), const(5)), [], [emit("X", inner)])],
        lambda inner: [loop(const(2), [assign("b", add(var("b"), inner))])],
    ])
    def test_bodies_differing_inside_nested_blocks_do_not_share(self, make):
        lru.clear_process_caches()
        one, two = SGraph(make(const(1))), SGraph(make(const(2)))
        env = {"a": 1, "b": 0}
        assert one.execute(dict(env)) != two.execute(dict(env))
        assert one._run is not two._run
        assert SGRAPH_COMPILE_CACHE_STATS.misses == 2

    def test_bounded_under_concurrent_eviction(self, monkeypatch):
        """Three threads share a two-entry cache over four bodies."""
        lru.clear_process_caches()
        monkeypatch.setattr(sgraph._COMPILE_CACHE, "capacity", 2)
        bodies = [[assign("a", add(var("a"), const(step)))] for step in range(4)]
        errors = []

        def compile_bodies(offset):
            try:
                for index in range(2000):
                    step = (index + offset) % 4
                    env = {"a": 0}
                    compiled_body(bodies[step], 10)(env, None)
                    assert env == {"a": step}
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_bodies, args=(offset,))
                       for offset in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert SGRAPH_COMPILE_CACHE_STATS.evictions > 0
        assert len(sgraph._COMPILE_CACHE) <= 2


class TestProcessCacheRegistry:
    def test_every_module_level_cache_is_registered_and_cleared(self):
        """``repro.lru.clear_process_caches`` reaches every module cache."""
        import importlib
        import pkgutil

        import repro

        caches = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.__main__":
                continue
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if isinstance(value, lru.LruCache):
                    caches["%s.%s" % (info.name, name)] = value
        assert "repro.sw.iss._MODEL_TOKENS" in caches
        for name, cache in caches.items():
            assert cache in lru._PROCESS_CACHES, name
            cache.put(("registry-probe", name), 0)
            cache.get(("registry-probe", name))
        lru.clear_process_caches()
        for name, cache in caches.items():
            assert len(cache) == 0, name
            assert cache.stats.snapshot() == {
                "hits": 0, "misses": 0, "evictions": 0}, name
