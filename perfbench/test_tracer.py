"""Self-time arithmetic of the benchmark tracer on fake spans.

Run with ``python -m pytest perfbench/test_tracer.py``.
"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds


@pytest.fixture
def clocked():
    clock = FakeClock()
    return clock, tracing.Tracer(clock=clock)


def test_nested_spans_charge_self_time(clocked):
    clock, tracer = clocked
    tracer.enter(tracing.UNATTRIBUTED)
    clock.advance(1.0)
    tracer.enter("master.self_s")
    clock.advance(2.0)
    tracer.enter("hw.step_s")
    clock.advance(3.0)
    tracer.exit()
    clock.advance(0.5)
    tracer.exit()
    clock.advance(0.25)
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["self_s"] == {tracing.UNATTRIBUTED: 1.25,
                              "master.self_s": 2.5, "hw.step_s": 3.0}
    assert snap["wall_s"] == pytest.approx(6.75)
    assert sum(snap["self_s"].values()) == pytest.approx(snap["wall_s"])


def test_recursive_spans_count_each_level_once(clocked):
    clock, tracer = clocked

    def recurse(depth: int) -> None:
        tracer.enter("cfsm.react_s")
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)
        clock.advance(1.0)
        tracer.exit()

    recurse(3)
    snap = tracer.snapshot()
    assert snap["self_s"] == {"cfsm.react_s": 8.0}
    assert snap["spans"] == {"cfsm.react_s": 4}
    assert snap["wall_s"] == 8.0


def test_waits_leave_the_parent_and_the_wall(clocked):
    clock, tracer = clocked
    tracer.enter("service.self_s")
    clock.advance(1.0)
    tracer.enter("wait", wait=True)
    clock.advance(5.0)
    tracer.exit()
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["self_s"] == {"service.self_s": 1.0}
    assert snap["wait_s"] == 5.0
    assert snap["wall_s"] == 1.0


def test_two_threads_keep_separate_stacks(clocked):
    clock, tracer = clocked
    entered = threading.Barrier(2)
    advanced = threading.Barrier(3)

    def worker(bucket: str, inner: str) -> None:
        tracer.enter(bucket)
        tracer.enter(inner)
        entered.wait()
        advanced.wait()
        tracer.exit()
        tracer.exit()

    threads = [threading.Thread(target=worker, args=("service.self_s",
                                                      "hw.step_s")),
               threading.Thread(target=worker, args=("service.self_s",
                                                      "sw.iss_s"))]
    for thread in threads:
        thread.start()
    clock.advance(0.0)
    while entered.n_waiting:  # both threads are inside their inner span
        pass
    clock.advance(2.0)
    advanced.wait()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    snap = tracer.snapshot()
    # Each thread's outer span contained exactly its own inner span.
    assert snap["self_s"] == {"service.self_s": 0.0, "hw.step_s": 2.0,
                              "sw.iss_s": 2.0}
    assert snap["wall_s"] == 4.0


def test_watchdog_thread_inherits_the_callers_stack(clocked):
    clock, tracer = clocked

    def call_with_watchdog(fn, timeout_s):
        if timeout_s is None:
            return fn()
        outcome = {}
        thread = threading.Thread(target=lambda: outcome.update(v=fn()))
        clock.advance(0.5)  # thread start
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        clock.advance(0.25)  # wake-up
        return outcome["v"]

    wrapped = tracing.watchdog_wrapper(tracer, call_with_watchdog)

    def guarded():
        clock.advance(1.0)
        tracer.enter("hw.step_s")
        clock.advance(4.0)
        tracer.exit()
        return 7

    tracer.enter("master.self_s")
    assert wrapped(guarded, 1.0) == 7
    assert wrapped(lambda: 8, None) == 8  # no timeout: not traced
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["self_s"] == {"master.self_s": 1.0, "hw.step_s": 4.0,
                              "resilience.watchdog_s": 0.75}
    assert snap["counts"] == {"resilience.calls": 1}
    assert snap["wall_s"] == 5.75


def test_merge_sums_processes():
    first = {"self_s": {"a": 1.0}, "total_s": {"a": 1.0}, "spans": {"a": 1},
             "counts": {"n": 2}, "wall_s": 1.0, "wait_s": 0.0}
    second = {"self_s": {"a": 2.0, "b": 1.0}, "total_s": {"a": 3.0, "b": 1.0},
              "spans": {"a": 1, "b": 3}, "counts": {}, "wall_s": 3.0,
              "wait_s": 0.5}
    merged = tracing.merge_snapshots([first, second])
    assert merged["self_s"] == {"a": 3.0, "b": 1.0}
    assert merged["total_s"] == {"a": 4.0, "b": 1.0}
    assert merged["spans"] == {"a": 2, "b": 3}
    assert merged["counts"] == {"n": 2}
    assert merged["wall_s"] == 4.0 and merged["wait_s"] == 0.5
