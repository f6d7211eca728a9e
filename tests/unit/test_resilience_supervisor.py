"""Supervised estimator calls: watchdog, retry, validation, ladder."""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.macromodel import MacromodelStrategy, ParameterFile
from repro.deadline import check_deadline, current_deadline
from repro.estimation import Estimate
from repro.hw.library import GateLibrary
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.supervisor import (
    CorruptedEstimate,
    EstimatorUnavailable,
    ResilienceConfig,
    ResilientEstimator,
    WatchdogTimeout,
    call_with_watchdog,
)
from repro.sw.power_model import InstructionPowerModel
from repro.systems import build_bundle
from repro.telemetry import Telemetry


def _estimator(**config_kwargs):
    return ResilientEstimator(
        ResilienceConfig(**config_kwargs), power_model=InstructionPowerModel()
    )


def _job(path_key=("cfsm", "t", ("s0", "s1")), op_names=("add", "load")):
    return SimpleNamespace(
        path_key=path_key,
        cfsm=SimpleNamespace(name=path_key[0]),
        transition=SimpleNamespace(name=path_key[1]),
        op_names=tuple(op_names),
    )


class TestWatchdog:
    def test_none_budget_calls_directly(self):
        assert call_with_watchdog(lambda: 41 + 1, None) == 42

    def test_fast_call_succeeds(self):
        assert call_with_watchdog(lambda: "ok", 5.0) == "ok"

    def test_exception_propagates(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            call_with_watchdog(boom, 5.0)

    def test_slow_call_times_out(self):
        with pytest.raises(WatchdogTimeout):
            call_with_watchdog(lambda: time.sleep(5.0), 0.05)


class TestSupervision:
    def test_retry_then_success(self):
        estimator = _estimator(max_retries=2)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return Estimate(cycles=4, energy=1e-9, ran_low_level=True)

        supervised = estimator.supervise(
            "hw", "dma", flaky, path_key=("dma", "t", ())
        )
        estimate = supervised()
        assert estimate.energy == 1e-9
        assert estimator.retries == 2
        assert estimator.failures == 0

    def test_persistent_failure_raises_unavailable(self):
        estimator = _estimator(max_retries=1)

        def broken():
            raise RuntimeError("dead estimator")

        supervised = estimator.supervise(
            "iss", "producer", broken, path_key=("producer", "t", ()),
            sim_time_ns=100.0,
        )
        with pytest.raises(EstimatorUnavailable) as excinfo:
            supervised()
        assert excinfo.value.component == "producer"
        assert excinfo.value.sim_time_ns == 100.0
        assert estimator.retries == 1
        assert estimator.failures == 1

    def test_injected_exception_fault(self):
        plan = FaultPlan(specs=[FaultSpec(site="hw", schedule=(1,))])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=0),
            power_model=InstructionPowerModel(),
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        with pytest.raises(EstimatorUnavailable) as excinfo:
            supervised()
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        # Invocation 2 is past the schedule: succeeds.
        assert supervised().energy == 1e-9

    def test_corrupted_estimate_rejected(self):
        plan = FaultPlan(specs=[
            FaultSpec(site="hw", kind="corrupt", corruption="negative",
                      schedule=(1,)),
        ])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=1),
            power_model=InstructionPowerModel(),
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        # Attempt 1 corrupts (negative energy -> CorruptedEstimate),
        # retry succeeds.
        assert supervised().energy == 1e-9
        assert estimator.corrupted == 1
        assert estimator.retries == 1

    def test_validator_bounds(self):
        estimator = _estimator(max_retries=0, max_energy_j=1e-6)

        def huge():
            return Estimate(cycles=1, energy=1.0, ran_low_level=True)

        with pytest.raises(EstimatorUnavailable):
            estimator.supervise("hw", "dma", huge)()
        assert estimator.corrupted == 1

    def test_watchdog_timeout_counted(self):
        estimator = _estimator(max_retries=0, watchdog_s=0.05)

        def slow():
            # Polls its deadline the way the ISS and gate-level loops do.
            deadline = current_deadline()
            while True:
                check_deadline(deadline)
                time.sleep(0.001)

        supervised = estimator.supervise("iss", "producer", slow)
        with pytest.raises(EstimatorUnavailable):
            supervised()
        assert estimator.watchdog_timeouts == 1


class TestDegradationLadder:
    def test_cached_rung_uses_shadow_mean(self):
        estimator = _estimator()
        key = ("cfsm", "t", ("s0", "s1"))
        supervised = estimator.supervise(
            "iss", "cfsm", lambda: Estimate(10, 2e-9, True), path_key=key
        )
        supervised()
        supervised = estimator.supervise(
            "iss", "cfsm", lambda: Estimate(14, 4e-9, True), path_key=key
        )
        supervised()

        estimate = estimator.fallback(_job(path_key=key))
        assert estimate.provenance == "cached"
        assert estimate.energy == pytest.approx(3e-9)
        assert estimate.cycles == 12
        assert not estimate.ran_low_level

    def test_cached_rung_falls_back_to_transition_mean(self):
        estimator = _estimator()
        seen_key = ("cfsm", "t", ("s0",))
        estimator.supervise(
            "iss", "cfsm", lambda: Estimate(8, 5e-9, True), path_key=seen_key
        )()
        # Same (cfsm, transition) but an unseen path: transition-level
        # exact-run mean answers.
        estimate = estimator.fallback(_job(path_key=("cfsm", "t", ("s9",))))
        assert estimate.provenance == "cached"
        assert estimate.energy == pytest.approx(5e-9)

    def test_macromodel_rung(self):
        fake = SimpleNamespace(
            estimate=lambda job: Estimate(cycles=7, energy=6e-10,
                                          ran_low_level=False)
        )
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: fake,
        )
        estimate = estimator.fallback(_job())
        assert estimate.provenance == "macromodel"
        assert estimate.energy == 6e-10
        assert estimator.fallbacks == {"macromodel": 1}

    def test_degraded_rung_when_macromodel_build_fails(self):
        def broken_factory():
            raise RuntimeError("no characterization data")

        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=broken_factory,
        )
        job = _job(op_names=("add", "load", "store"))
        estimate = estimator.fallback(job)
        assert estimate.provenance == "degraded"
        assert estimate.cycles == 2 + 3
        assert 0 < estimate.energy <= estimator.config.max_energy_j
        # The failed build is permanent; no second factory call.
        estimator.fallback(job)
        assert estimator.fallbacks == {"degraded": 2}

    def test_per_job_macromodel_failure_keeps_rung_armed(self):
        calls = {"n": 0}

        def sometimes(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("this job only")
            return Estimate(cycles=3, energy=1e-10, ran_low_level=False)

        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: SimpleNamespace(estimate=sometimes),
        )
        assert estimator.fallback(_job()).provenance == "degraded"
        assert estimator.fallback(_job()).provenance == "macromodel"

    def test_full_ladder_order(self):
        """cached beats macromodel beats degraded."""
        fake = SimpleNamespace(
            estimate=lambda job: Estimate(3, 1e-10, False)
        )
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: fake,
        )
        key = ("cfsm", "t", ("s0",))
        # No exact runs yet: macromodel answers.
        assert estimator.fallback(_job(path_key=key)).provenance == "macromodel"
        # After one exact run the cached rung takes precedence.
        estimator.supervise(
            "iss", "cfsm", lambda: Estimate(5, 2e-9, True), path_key=key
        )()
        assert estimator.fallback(_job(path_key=key)).provenance == "cached"


@dataclass
class _ShadowStats:
    """Reference running mean of exact results (Welford, mean only)."""

    count: int = 0
    mean_energy: float = 0.0
    mean_cycles: float = 0.0

    def update(self, energy: float, cycles: int) -> None:
        self.count += 1
        self.mean_energy += (energy - self.mean_energy) / self.count
        self.mean_cycles += (cycles - self.mean_cycles) / self.count


#: Three paths through each of two transitions; path "c" is never run,
#: so it is always answered from its transition's mean (or not cached).
_ORACLE_PATHS = [
    ("cfsm", transition, (branch,))
    for transition in ("t0", "t1")
    for branch in ("a", "b", "c")
]


class TestCachedRungOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from([k for k in _ORACLE_PATHS if k[2] != ("c",)]),
            st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
            st.integers(min_value=0, max_value=100_000),
        ),
        max_size=30,
    ))
    def test_fallback_matches_running_mean(self, runs):
        fake = SimpleNamespace(estimate=lambda job: Estimate(1, 0.0, False))
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: fake,
        )
        by_path, by_transition = {}, {}
        for key, energy, cycles in runs:
            estimator.supervise(
                "iss", "cfsm",
                lambda e=energy, c=cycles: Estimate(c, e, True),
                path_key=key,
            )()
            by_path.setdefault(key, _ShadowStats()).update(energy, cycles)
            by_transition.setdefault(key[:2], _ShadowStats()).update(
                energy, cycles
            )
        for key in _ORACLE_PATHS:
            oracle = by_path.get(key) or by_transition.get(key[:2])
            estimate = estimator.fallback(_job(path_key=key))
            if oracle is None:
                assert estimate.provenance == "macromodel"
                continue
            assert estimate.provenance == "cached"
            assert estimate.energy == oracle.mean_energy
            assert estimate.cycles == int(round(oracle.mean_cycles))


class TestMacromodelRungLibrary:
    def test_hw_fallback_uses_the_configured_library(self):
        library = GateLibrary(vdd=1.8)
        bundle = build_bundle("tcpip")
        cfsm = bundle.network.cfsms["checksum"]
        job = SimpleNamespace(
            kind="hw",
            cfsm=cfsm,
            transition=cfsm.transitions[0],
            path_key=("checksum", cfsm.transitions[0].name, ()),
            op_names=("AVV", "AVV", "ASHRD"),
        )
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=bundle.config.power_model,
            library=library,
        )
        estimate = estimator.fallback(job)
        assert estimate.provenance == "macromodel"
        expected = MacromodelStrategy(ParameterFile(), library=library)
        assert estimate.energy == expected.estimate(job).energy
        default = MacromodelStrategy(ParameterFile()).estimate(job)
        assert estimate.energy != default.energy


class TestBypassAndAccounting:
    def test_component_ok_without_plan(self):
        estimator = _estimator()
        assert estimator.component_ok("cache")
        assert estimator.bypasses == {}

    def test_component_ok_counts_bypasses(self):
        plan = FaultPlan(specs=[FaultSpec(site="bus", schedule=(1, 3))])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan),
            power_model=InstructionPowerModel(),
        )
        results = [estimator.component_ok("bus") for _ in range(4)]
        assert results == [False, True, False, True]
        assert estimator.bypasses == {"bus": 2}

    def test_statistics_and_metrics(self):
        plan = FaultPlan(specs=[FaultSpec(site="hw", schedule=(1,))])
        telemetry = Telemetry.metrics_only()
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=1),
            power_model=InstructionPowerModel(),
            telemetry=telemetry,
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        supervised()  # attempt 1 faults, retry succeeds
        stats = estimator.statistics()
        assert stats["retries"] == 1.0
        # Each attempt draws the schedule once: two invocations total.
        assert stats["fault.invocations.hw"] == 2.0
        assert stats["fault.injected.hw.exception"] == 1.0
        estimator.publish_metrics()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["resilience.stats.retries"] == 1.0
        assert snapshot["counters"]["resilience.retries"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(watchdog_s=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_energy_j=-1.0)
