"""Fault-injection determinism and plan semantics."""

import pytest

from repro.errors import ReproError
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)


def _schedule(plan, site, invocations):
    """Which invocation numbers of ``site`` fault under ``plan``."""
    injector = FaultInjector(plan)
    fired = []
    for invocation in range(1, invocations + 1):
        if injector.draw(site) is not None:
            fired.append(invocation)
    return fired


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan.uniform(["iss"], 0.3, seed=42)
        assert _schedule(plan, "iss", 200) == _schedule(plan, "iss", 200)

    def test_different_seed_different_schedule(self):
        a = _schedule(FaultPlan.uniform(["iss"], 0.3, seed=1), "iss", 200)
        b = _schedule(FaultPlan.uniform(["iss"], 0.3, seed=2), "iss", 200)
        assert a != b

    def test_sites_draw_independent_streams(self):
        """A site's schedule must not depend on other sites' draws."""
        plan = FaultPlan.uniform(["iss", "hw"], 0.3, seed=7)
        solo = _schedule(plan, "iss", 100)

        interleaved = FaultInjector(plan)
        fired = []
        for invocation in range(1, 101):
            interleaved.draw("hw")  # interleave another site's draws
            interleaved.draw("hw")
            if interleaved.draw("iss") is not None:
                fired.append(invocation)
        assert fired == solo

    def test_rate_roughly_honored(self):
        plan = FaultPlan.uniform(["hw"], 0.2, seed=3)
        fired = _schedule(plan, "hw", 2000)
        assert 0.15 < len(fired) / 2000 < 0.25


class TestSchedulesAndSpecs:
    def test_explicit_schedule_fires_exactly(self):
        plan = FaultPlan(specs=[FaultSpec(site="iss", schedule=(2, 5))])
        assert _schedule(plan, "iss", 8) == [2, 5]

    def test_unknown_site_never_faults(self):
        plan = FaultPlan.uniform(["iss"], 1.0)
        injector = FaultInjector(plan)
        assert injector.draw("hw") is None

    def test_counters(self):
        plan = FaultPlan(specs=[FaultSpec(site="hw", schedule=(1, 2, 3))])
        injector = FaultInjector(plan)
        for _ in range(5):
            injector.draw("hw")
        assert injector.counters.invocations["hw"] == 5
        assert injector.counters.injected[("hw", "exception")] == 3
        snapshot = injector.counters.snapshot()
        assert snapshot["invocations.hw"] == 5.0
        assert snapshot["injected.hw.exception"] == 3.0

    def test_make_fault_carries_context(self):
        plan = FaultPlan(specs=[FaultSpec(site="iss", schedule=(1,))])
        injector = FaultInjector(plan)
        spec = injector.draw("iss")
        fault = injector.make_fault(spec, component="producer", sim_time_ns=12.5)
        assert isinstance(fault, InjectedFault)
        assert isinstance(fault, ReproError)
        assert fault.component == "producer"
        assert fault.sim_time_ns == 12.5
        assert "iss" in str(fault)

    def test_corruption_modes(self):
        nan = FaultSpec(site="hw", kind="corrupt", corruption="nan")
        neg = FaultSpec(site="hw", kind="corrupt", corruption="negative")
        scale = FaultSpec(site="hw", kind="corrupt", corruption="scale",
                          scale_factor=1e6)
        assert nan.corrupt_energy(1e-9) != nan.corrupt_energy(1e-9)  # NaN
        assert neg.corrupt_energy(1e-9) < 0
        assert scale.corrupt_energy(1e-9) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="gpu")
        with pytest.raises(ValueError):
            FaultSpec(site="hw", kind="meltdown")
        with pytest.raises(ValueError):
            FaultSpec(site="hw", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="hw", kind="corrupt", corruption="zero")

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.uniform(["hw", "iss"], 0.1, seed=9)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert _schedule(clone, "hw", 50) == _schedule(plan, "hw", 50)

    def test_plan_sites(self):
        plan = FaultPlan(specs=[
            FaultSpec(site="hw"), FaultSpec(site="iss"), FaultSpec(site="hw"),
        ])
        assert plan.sites() == ("hw", "iss")
