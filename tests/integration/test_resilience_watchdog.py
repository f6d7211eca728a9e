"""Supervised runs of whole systems under the inline watchdog.

Every ISS and gate-level call of a supervised run is bounded by a
deadline polled on the caller's thread: no call starts a thread, and
an injected hang ends at the deadline with nothing left running, so a
run with hang faults is as reproducible as one without.
"""

import dataclasses
import threading

from repro.parallel.runners import run_estimate
from repro.resilience import FaultPlan, ResilienceConfig
from repro.systems import builder_spec

HANGS = FaultPlan.uniform(["hw", "iss"], 0.3, seed=7, kind="hang",
                          hang_s=30.0)


def _report(system, strategy, watchdog_s):
    builder, kwargs = builder_spec(system)
    report = run_estimate(
        builder, dict(kwargs), strategy=strategy,
        resilience=ResilienceConfig(watchdog_s=watchdog_s, fault_plan=HANGS),
    )
    return report


def _canonical(report):
    payload = dataclasses.asdict(report)
    return repr({key: value for key, value in payload.items()
                 if not key.endswith("_seconds")})


def test_supervised_calls_start_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    report = _report("tcpip", "full", 0.05)
    assert report.resilience_stats["watchdog_timeouts"] > 0
    assert started == []


def test_hang_faulted_runs_are_byte_identical_and_leave_no_thread():
    # Budgets far above any real call of the system (tcpip's slowest
    # cold gate-level run takes ~15 ms, automotive's calls under 1 ms),
    # so only the injected hangs time out; each costs one budget.
    for system, strategy, watchdog_s in (("tcpip", "full", 0.25),
                                         ("automotive", "caching", 0.05)):
        threads_before = set(threading.enumerate())
        first = _report(system, strategy, watchdog_s)
        second = _report(system, strategy, watchdog_s)
        assert set(threading.enumerate()) <= threads_before, system
        assert first.resilience_stats["watchdog_timeouts"] > 0, system
        assert _canonical(first) == _canonical(second), system
