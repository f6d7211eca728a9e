"""The process-wide memo of built system bundles.

Sweep points, estimate jobs and the service front end share one bundle
per (builder spec, kwargs), so the memo must never merge two different
builds, never hand out a bundle a run has changed, and stay safe when
service threads run on one bundle at once.
"""

import copy
import dataclasses
import hashlib
import threading
from collections import OrderedDict

import pytest

from repro import lru
from repro.cfsm.fingerprint import cfsm_signature
from repro.core.explorer import priority_permutations
from repro.parallel.jobs import resolve_callable
from repro.parallel.runners import run_estimate
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import ResilienceConfig
from repro.service.api import (
    parse_request,
    request_fingerprint,
    workload_signature,
)
from repro.systems import (
    _BUNDLE_MEMO,
    _memo_key,
    build_bundle,
    builder_spec,
    shared_bundle,
    system_names,
    tcpip,
)

STRATEGIES = ("full", "caching", "macromodel", "sampling")
TCPIP = "repro.systems.tcpip:build_system"
FIG7_DMA_SIZES = (2, 4, 8, 16, 32, 64, 128)


def fresh_bundle(system):
    """A direct builder call: never memoized, always new objects."""
    builder, kwargs = builder_spec(system)
    return resolve_callable(builder)(**dict(kwargs))


def walked_signatures(network):
    """Signatures walked now (a deep copy is never sealed)."""
    return {name: cfsm_signature(copy.deepcopy(cfsm))
            for name, cfsm in network.cfsms.items()}


def config_state(config):
    """A comparable copy of a master configuration (the gate library
    compares by its signature)."""
    return (dataclasses.replace(copy.deepcopy(config), library=None),
            config.library.signature())


def canonical(report):
    """The report without its wall-clock fields."""
    return {key: value for key, value in dataclasses.asdict(report).items()
            if not key.endswith("_seconds")}


class TestMemoKey:
    def test_type_distinct_kwargs_never_share_an_entry(self):
        pairs = [
            ({"flag": 1}, {"flag": True}),
            ({"flag": 0}, {"flag": False}),
            ({"flag": 1}, {"flag": 1.0}),
            ({"range": (24, 64)}, {"range": [24, 64]}),
            ({"map": {"a": 1}}, {"map": {"a": True}}),
            ({"map": {1: "a"}}, {"map": {"1": "a"}}),
            ({"flag": None}, {"flag": "None"}),
            ({"map": {1: 0, "a": 0}}, {"map": {"1": 0, "a": 0}}),
        ]
        for left, right in pairs:
            assert _memo_key(TCPIP, left) != _memo_key(TCPIP, right), (
                left, right)

    def test_equal_kwargs_share_a_key_whatever_the_dict_order(self):
        a = {"dma_block_words": 8, "priorities": {"x": 0, "y": 1}}
        b = {"priorities": {"y": 1, "x": 0}, "dma_block_words": 8}
        assert _memo_key(TCPIP, a) == _memo_key(TCPIP, b)

    def test_non_plain_values_and_callables_are_never_keyed(self):
        assert _memo_key(TCPIP, {"obj": object()}) is None
        assert _memo_key(TCPIP, {"seq": [1, object()]}) is None
        assert _memo_key(TCPIP, {"map": OrderedDict(a=1)}) is None
        assert _memo_key(tcpip.build_system, {}) is None

    def test_type_distinct_builds_are_distinct_bundles(self):
        lists = shared_bundle(TCPIP, {"size_range": [24, 64]})
        tuples = shared_bundle(TCPIP, {"size_range": (24, 64)})
        assert lists is not tuples
        assert shared_bundle(TCPIP, {"size_range": [24, 64]}) is lists
        assert shared_bundle(TCPIP, {"size_range": (24, 64)}) is tuples

    def test_non_plain_kwargs_and_callable_builders_build_fresh(self):
        priorities = OrderedDict(tcpip.PAPER_OPTIMAL_PRIORITIES)
        kwargs = {"priorities": priorities}
        assert shared_bundle(TCPIP, kwargs) is not shared_bundle(TCPIP, kwargs)
        assert (shared_bundle(tcpip.build_system)
                is not shared_bundle(tcpip.build_system))

    def test_build_bundle_shares_and_builders_do_not(self):
        assert build_bundle("fig1") is build_bundle("fig1")
        assert fresh_bundle("fig1") is not fresh_bundle("fig1")

    def test_clear_process_caches_empties_the_memo(self):
        build_bundle("fig1")
        assert len(_BUNDLE_MEMO) > 0
        before = build_bundle("fig1")
        lru.clear_process_caches()
        assert len(_BUNDLE_MEMO) == 0
        assert build_bundle("fig1") is not before


def test_runs_leave_shared_bundles_unchanged():
    """4 systems x 4 strategies, plus one seeded fault plan: every
    shared bundle's CFSMs, mapping, configuration and memory image
    are what a fresh build gives."""
    lru.clear_process_caches()
    snapshots = {}
    for system in system_names():
        bundle = build_bundle(system)
        snapshots[system] = (
            config_state(bundle.config),
            dict(bundle.network.mapping),
            dict(bundle.shared_memory_image or {}),
        )
        builder, kwargs = builder_spec(system)
        for strategy in STRATEGIES:
            run_estimate(builder, dict(kwargs), strategy=strategy)
    plan = FaultPlan.uniform(("hw", "iss", "cache", "bus"), 0.2, seed=7)
    builder, kwargs = builder_spec("tcpip")
    run_estimate(builder, dict(kwargs), strategy="full",
                 resilience=ResilienceConfig(fault_plan=plan, max_retries=1))
    for system in system_names():
        bundle = build_bundle(system)
        fresh = fresh_bundle(system)
        config, mapping, memory = snapshots[system]
        assert walked_signatures(bundle.network) == walked_signatures(
            fresh.network), system
        assert (config_state(bundle.config) == config
                == config_state(fresh.config)), system
        assert bundle.network.mapping == mapping == fresh.network.mapping
        assert dict(bundle.shared_memory_image or {}) == memory == dict(
            fresh.shared_memory_image or {}), system


def test_two_threads_on_one_bundle_match_fresh_builds():
    builder, kwargs = builder_spec("tcpip")
    expected = {}
    for strategy in ("full", "caching"):
        lru.clear_process_caches()
        fresh = fresh_bundle("tcpip")
        from repro.core.coestimator import PowerCoEstimator

        result = PowerCoEstimator(fresh.network, fresh.config).estimate(
            fresh.stimuli(), strategy=strategy,
            shared_memory_image=fresh.shared_memory_image)
        expected[strategy] = canonical(result.report)
    lru.clear_process_caches()
    shared = build_bundle("tcpip")
    reports = {}
    errors = []
    barrier = threading.Barrier(2)

    def estimate(strategy):
        try:
            barrier.wait()
            reports[strategy] = canonical(
                run_estimate(builder, dict(kwargs), strategy=strategy))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=estimate, args=(strategy,))
               for strategy in expected]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert build_bundle("tcpip") is shared
    assert reports == expected


@pytest.mark.parametrize("dma", FIG7_DMA_SIZES)
def test_priority_orders_build_identical_cfsms(dma):
    """A sweep point's priorities only reach the bus parameters, which
    is why one bundle per DMA size serves all six orders."""
    orders = priority_permutations(list(tcpip.BUS_MASTERS))
    signatures = [
        walked_signatures(tcpip.build_system(dma_block_words=dma,
                                             priorities=order).network)
        for order in orders
    ]
    assert len(orders) == 6
    assert all(signature == signatures[0] for signature in signatures)


def reference_fingerprint(bundle, request):
    """``request_fingerprint`` as it was before the bundle half was
    computed once per bundle: every part recomputed per request."""
    network = bundle.network
    cfsms = tuple(
        cfsm_signature(network.cfsms[name]) for name in sorted(network.cfsms)
    )
    implementations = tuple(
        (name, str(network.implementation(name)))
        for name in sorted(network.cfsms)
    )
    memory = tuple(sorted((bundle.shared_memory_image or {}).items()))
    fault = None
    if request.fault_plan is not None:
        fault = (
            tuple(
                (spec.site, spec.kind, spec.probability, spec.hang_s)
                for spec in request.fault_plan.specs
            ),
            request.fault_plan.seed,
            request.fault_retries,
        )
    payload = (
        request.system,
        request.strategy,
        cfsms,
        implementations,
        memory,
        workload_signature(bundle.stimuli()),
        fault,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("system", system_names())
def test_fingerprints_are_byte_identical_to_the_reference(system):
    seen = set()
    for strategy in STRATEGIES:
        for fault in (None, {"rate": 0.25, "sites": ["hw", "bus"],
                             "seed": 3, "retries": 2}):
            body = {"system": system, "strategy": strategy}
            if fault is not None:
                body["fault"] = fault
            request = parse_request(body, known_systems=system_names())
            for bundle in (build_bundle(system), fresh_bundle(system)):
                fingerprint = request_fingerprint(bundle, request)
                assert fingerprint == reference_fingerprint(bundle, request)
            seen.add(fingerprint)
    assert len(seen) == 2 * len(STRATEGIES)
