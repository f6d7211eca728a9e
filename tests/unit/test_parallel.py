"""Unit tests for the process-pool execution engine."""

import os
import time

import pytest

from repro.parallel import (
    JobError,
    JobResult,
    JobSpec,
    PoolStats,
    job_seed,
    merge_metrics_snapshots,
    merged_chrome_trace_events,
    resolve_callable,
    run_jobs,
)


# -- worker entry points (module-level so they pickle by reference) ----------

def _add(a, b):
    return a + b


def _rng():
    import random

    return random.random()


def _boom():
    raise RuntimeError("intentional job failure")


def _crash_once(marker):
    """Hard-kill the worker on the first attempt, succeed on the second."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return "recovered"


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _fail_once(marker):
    """Raise (a clean exception, not a crash) on the first attempt."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("first attempt fails")
    return "ok"


# -- jobs --------------------------------------------------------------------

class TestJobPrimitives:
    def test_resolve_callable_passthrough(self):
        assert resolve_callable(_add) is _add

    def test_resolve_callable_by_name(self):
        fn = resolve_callable("os.path:join")
        assert fn("a", "b") == os.path.join("a", "b")

    def test_resolve_callable_rejects_garbage(self):
        with pytest.raises(JobError):
            resolve_callable("no-colon-here")
        with pytest.raises(JobError):
            resolve_callable("not_a_module_xyz:fn")
        with pytest.raises(JobError):
            resolve_callable("os.path:no_such_attr")

    def test_job_seed_is_stable_and_label_dependent(self):
        assert job_seed(7, "a") == job_seed(7, "a")
        assert job_seed(7, "a") != job_seed(7, "b")
        assert job_seed(7, "a") != job_seed(8, "a")
        assert 0 <= job_seed(123456789, "x") <= 0x7FFFFFFF


# -- inline (jobs=1) ---------------------------------------------------------

class TestInline:
    def test_values_in_spec_order(self):
        specs = [JobSpec(fn=_add, payload={"a": i, "b": 1}, label="j%d" % i)
                 for i in range(5)]
        results = run_jobs(specs, jobs=1)
        assert [r.value for r in results] == [1, 2, 3, 4, 5]
        assert all(r.ok for r in results)
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_failure_is_reported_not_raised(self):
        results = run_jobs([JobSpec(fn=_boom, label="bad", max_retries=0)])
        assert not results[0].ok
        assert "intentional job failure" in results[0].error

    def test_inline_retry(self, tmp_path):
        marker = str(tmp_path / "fail_once")
        stats = PoolStats()
        results = run_jobs(
            [JobSpec(fn=_fail_once, payload={"marker": marker},
                     label="flaky", max_retries=1)],
            stats=stats,
        )
        assert results[0].value == "ok"
        assert results[0].attempts == 2
        assert stats.retries == 1


# -- pooled (jobs>1) ---------------------------------------------------------

class TestPool:
    def test_values_in_spec_order_across_workers(self):
        specs = [JobSpec(fn=_add, payload={"a": i, "b": 10}, label="j%d" % i)
                 for i in range(8)]
        stats = PoolStats()
        results = run_jobs(specs, jobs=3, stats=stats)
        assert [r.value for r in results] == [10 + i for i in range(8)]
        assert stats.completed == 8
        assert stats.workers == 3
        assert len({r.worker_pid for r in results}) > 1

    def test_seeded_rng_independent_of_jobs(self):
        specs = [JobSpec(fn=_rng, label="r%d" % i, seed=job_seed(42, "r%d" % i))
                 for i in range(4)]
        sequential = [r.value for r in run_jobs(specs, jobs=1)]
        pooled = [r.value for r in run_jobs(specs, jobs=4)]
        assert sequential == pooled

    def test_worker_crash_is_retried_on_fresh_worker(self, tmp_path):
        marker = str(tmp_path / "crash_marker")
        stats = PoolStats()
        specs = [JobSpec(fn=_crash_once, payload={"marker": marker},
                         label="crashy", max_retries=2)]
        specs += [JobSpec(fn=_add, payload={"a": i, "b": 0}, label="n%d" % i)
                  for i in range(3)]
        results = run_jobs(specs, jobs=2, stats=stats)
        assert results[0].value == "recovered"
        assert results[0].attempts == 2
        assert stats.crashes == 1
        assert [r.value for r in results[1:]] == [0, 1, 2]

    def test_timeout_kills_and_fails_after_retries(self):
        stats = PoolStats()
        specs = [
            JobSpec(fn=_sleep, payload={"seconds": 30.0}, label="stuck",
                    timeout_s=0.3, max_retries=1),
            JobSpec(fn=_add, payload={"a": 1, "b": 1}, label="fine"),
        ]
        started = time.perf_counter()
        results = run_jobs(specs, jobs=2, stats=stats)
        wall = time.perf_counter() - started
        assert not results[0].ok
        assert "timeout" in results[0].error
        assert results[0].attempts == 2
        assert results[1].value == 2
        assert stats.timeouts == 2  # initial attempt + retry
        assert wall < 10.0  # nowhere near the 30s sleep

    def test_job_exception_does_not_kill_worker(self):
        stats = PoolStats()
        specs = [JobSpec(fn=_boom, label="bad", max_retries=0)]
        specs += [JobSpec(fn=_add, payload={"a": i, "b": 0}, label="n%d" % i)
                  for i in range(4)]
        results = run_jobs(specs, jobs=2, stats=stats)
        assert not results[0].ok
        assert [r.value for r in results[1:]] == [0, 1, 2, 3]
        assert stats.crashes == 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_jobs([], jobs=0)


# -- telemetry merge ---------------------------------------------------------

class TestMerge:
    def test_merge_metrics_counters_add_gauges_max(self):
        a = {"counters": {"x": 2.0}, "gauges": {"depth": 3.0},
             "histograms": {}}
        b = {"counters": {"x": 5.0, "y": 1.0}, "gauges": {"depth": 7.0},
             "histograms": {}}
        merged = merge_metrics_snapshots([a, None, b])
        assert merged["counters"] == {"x": 7.0, "y": 1.0}
        assert merged["gauges"] == {"depth": 7.0}

    def test_merge_histogram_summaries(self):
        h1 = {"count": 2.0, "sum": 2.0, "mean": 1.0, "min": 0.5, "max": 1.5,
              "p50": 1.0, "p90": 1.4, "p99": 1.5}
        h2 = {"count": 2.0, "sum": 6.0, "mean": 3.0, "min": 2.0, "max": 4.0,
              "p50": 3.0, "p90": 3.8, "p99": 4.0}
        merged = merge_metrics_snapshots(
            [{"counters": {}, "gauges": {}, "histograms": {"t": h1}},
             {"counters": {}, "gauges": {}, "histograms": {"t": h2}}]
        )
        t = merged["histograms"]["t"]
        assert t["count"] == 4.0
        assert t["sum"] == 8.0
        assert t["mean"] == 2.0
        assert t["min"] == 0.5 and t["max"] == 4.0
        assert t["p50"] == 2.0  # count-weighted average
        assert t["approximate"] is True

    def test_merged_trace_groups_by_worker_pid(self):
        spans = [("run", "main", 0, 100, 0, {})]
        results = [
            JobResult(label="a", index=0, worker_pid=111, spans=spans,
                      started_offset_s=0.0),
            JobResult(label="b", index=1, worker_pid=222, spans=spans,
                      started_offset_s=0.5),
            JobResult(label="c", index=2, worker_pid=111, spans=None),
        ]
        events = merged_chrome_trace_events(results)
        pids = {e["pid"] for e in events}
        assert pids == {111, 222}
        names = [e for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"]
        assert {e["args"]["name"] for e in names} == {"worker 111",
                                                      "worker 222"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        # Span timestamps are shifted by the job's start offset.
        by_pid = {e["pid"]: e for e in slices}
        assert by_pid[111]["ts"] == 0
        assert by_pid[222]["ts"] == 500000
        assert by_pid[222]["args"]["job"] == "b"

    def test_merged_obs_span_ids_pass_through(self):
        # Ids minted by repro.obs.context already carry the producing
        # process's pid (<pid-hex>-<counter-hex>): globally unique, and
        # parent links may legitimately cross processes (service thread
        # -> pool worker).  Those must survive the merge untouched.
        spans = [
            ("run", "main", 0, 100, 0,
             {"span_id": "1a2b-3", "parent_span_id": "ffee-1"}),
        ]
        results = [
            JobResult(label="a", index=0, worker_pid=111, spans=spans,
                      started_offset_s=0.0),
        ]
        (event,) = [e for e in merged_chrome_trace_events(results)
                    if e["ph"] == "X"]
        assert event["args"]["span_id"] == "1a2b-3"
        assert event["args"]["parent_span_id"] == "ffee-1"
