"""The process-pool execution engine.

``run_jobs(specs, jobs=N)`` executes independent :class:`JobSpec`s and
returns :class:`JobResult`s in spec order.

* ``jobs=1`` (the default) runs everything inline in the calling
  process — no fork, no pickling, byte-identical to the plain
  sequential code path.
* ``jobs>1`` forks worker processes (``fork`` start method where
  available, so workers inherit the parent's warmed process-wide
  caches for free) connected by queues.  Each worker executes one job
  at a time; the master enforces per-job wall-clock timeouts, detects
  worker crashes, respawns workers, and retries the affected job on a
  fresh worker up to ``spec.max_retries`` times.

Determinism: job seeds come from the spec (see
:func:`repro.parallel.jobs.job_seed`), so results do not depend on
which worker ran a job or in what order jobs finished.  Results are
always returned in spec order.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.context import RequestContext, use_context
from repro.parallel.jobs import JobResult, JobSpec, resolve_callable
from repro.resilience.supervisor import WatchdogTimeout, call_with_watchdog
from repro.telemetry import Telemetry

#: How often the master polls the result queue while jobs are in
#: flight; bounds timeout-detection latency.
_POLL_INTERVAL_S = 0.05

#: Grace period after ``terminate`` before escalating to ``kill``.
_TERMINATE_GRACE_S = 2.0


@dataclass
class PoolStats:
    """Bookkeeping of one ``run_jobs`` call (attached to the results)."""

    jobs: int = 0
    workers: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    wall_seconds: float = 0.0
    worker_pids: List[int] = field(default_factory=list)

    def snapshot(self) -> Dict[str, float]:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "wall_seconds": self.wall_seconds,
        }


def execute_spec(
    spec: JobSpec,
) -> Tuple[Any, float, Optional[Dict], Optional[List[Tuple]]]:
    """Run one spec in this process; returns (value, seconds, metrics, spans).

    This is the single job-execution path: pool workers, the inline
    ``jobs=1`` runner, and the co-estimation service's worker threads
    all funnel through it, so seeding, telemetry collection, and payload
    handling behave identically everywhere a job can run.
    """
    fn = resolve_callable(spec.fn)
    random.seed(spec.seed)
    telemetry: Optional[Telemetry] = None
    kwargs = dict(spec.payload)
    if spec.collect_telemetry:
        telemetry = Telemetry()
        kwargs.setdefault("telemetry", telemetry)
    # Rehydrate the originating request's trace context (if the spec
    # carries one) as a *child* span of the dispatcher's span: spans and
    # events recorded inside the job — even in a forked pool worker —
    # then correlate back to the request that caused them.
    context = (
        RequestContext.from_payload(spec.trace).child()
        if spec.trace else None
    )
    started = time.perf_counter()
    with use_context(context):
        value = fn(**kwargs)
    seconds = time.perf_counter() - started
    metrics = None
    spans = None
    if telemetry is not None:
        metrics = telemetry.metrics.snapshot()
        trace_args = context.trace_args() if context is not None else {}
        spans = [
            (s.name, s.track, s.start_us, s.dur_us, s.depth,
             dict(trace_args, **(s.args or {})) if trace_args else s.args)
            for s in telemetry.tracer.spans
        ]
    return value, seconds, metrics, spans


def _worker_main(task_queue, results) -> None:
    """Worker loop: one job at a time until the ``None`` sentinel.

    ``results`` is this worker's private pipe to the master; a send
    completes before the job that follows it runs.
    """
    pid = os.getpid()
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, spec = item
        results.send(("started", pid, index, time.time()))
        try:
            value, seconds, metrics, spans = execute_spec(spec)
            results.send(("done", pid, index, value, seconds, metrics, spans))
        except BaseException:
            # Report and keep serving: an exception is a *job* failure,
            # not a worker failure (crashes are detected by exitcode).
            results.send(("error", pid, index, traceback.format_exc()))


def _run_inline(
    specs: List[JobSpec],
    stats: PoolStats,
    on_result=None,
) -> List[JobResult]:
    """The ``jobs=1`` path: plain sequential execution, no processes.

    ``spec.timeout_s`` is honored here too, via the resilience layer's
    wall-clock watchdog: a timed-out attempt counts as a timeout and is
    retried like in the pooled path.  (The hung attempt's thread cannot
    be killed in-process; it is abandoned, exactly as a supervised
    component estimator would be.)
    """
    results: List[JobResult] = []
    pool_start = time.perf_counter()
    for index, spec in enumerate(specs):
        attempts = 0
        result = JobResult(label=spec.label, index=index, worker_pid=os.getpid())
        while True:
            attempts += 1
            result.started_offset_s = time.perf_counter() - pool_start
            try:
                value, seconds, metrics, spans = call_with_watchdog(
                    lambda: execute_spec(spec), spec.timeout_s
                )
                result.value = value
                result.seconds = seconds
                result.metrics = metrics
                result.spans = spans
                result.error = None
                stats.completed += 1
                break
            except WatchdogTimeout:
                stats.timeouts += 1
                result.error = (
                    "job %d (%s) exceeded its %.1fs timeout"
                    % (index, spec.label, spec.timeout_s)
                )
                if attempts > spec.max_retries:
                    stats.failed += 1
                    break
                stats.retries += 1
            except Exception:
                result.error = traceback.format_exc()
                if attempts > spec.max_retries:
                    stats.failed += 1
                    break
                stats.retries += 1
        result.attempts = attempts
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


class _Pool:
    """Fork/join worker management for one ``run_jobs`` call.

    Every worker owns a *private* task queue: the master decides which
    worker runs which job, so when a worker dies the master knows —
    from its own dispatch bookkeeping, not from worker messages —
    exactly which job was lost.

    Every worker also owns a *private* result pipe.  A shared result
    queue's writers share one cross-process lock, which a worker dying
    mid-write (``os._exit`` in a job, a timeout kill) leaves held: every
    other worker then blocks and the run hangs.  A private pipe only
    ends in end-of-file.
    """

    def __init__(self, workers: int) -> None:
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # pid -> (process, task queue, result pipe's read end)
        self.workers: Dict[int, Tuple[Any, Any, Any]] = {}
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> int:
        task_queue = self.ctx.Queue()
        reader, writer = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_worker_main,
            args=(task_queue, writer),
            daemon=True,
        )
        process.start()
        writer.close()  # the worker's exit now reads as end-of-file
        self.workers[process.pid] = (process, task_queue, reader)
        return process.pid

    def send(self, pid: int, item: Any) -> None:
        self.workers[pid][1].put(item)

    def receive(self, timeout: float) -> List[Tuple]:
        """The ready workers' messages, waiting up to ``timeout``."""
        readers = [entry[2] for entry in self.workers.values()]
        messages = []
        for reader in multiprocessing.connection.wait(readers, timeout):
            try:
                messages.append(reader.recv())
            except (EOFError, OSError):
                pass  # the worker died; crash detection retries its job
        return messages

    def _close(self, entry: Tuple[Any, Any, Any]) -> None:
        entry[1].close()
        entry[2].close()

    def kill_worker(self, pid: int) -> None:
        entry = self.workers.pop(pid, None)
        if entry is None:
            return
        process = entry[0]
        process.terminate()
        process.join(_TERMINATE_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join()
        self._close(entry)

    def dead_workers(self) -> List[int]:
        return [
            pid
            for pid, entry in self.workers.items()
            if not entry[0].is_alive()
        ]

    def reap(self, pid: int) -> None:
        entry = self.workers.pop(pid, None)
        if entry is not None:
            entry[0].join()
            self._close(entry)

    def shutdown(self) -> None:
        for entry in self.workers.values():
            entry[1].put(None)
        deadline = time.time() + _TERMINATE_GRACE_S
        for entry in list(self.workers.values()):
            entry[0].join(max(0.0, deadline - time.time()))
        for pid in list(self.workers):
            self.kill_worker(pid)


def run_jobs(
    specs: List[JobSpec],
    jobs: int = 1,
    stats: Optional[PoolStats] = None,
    on_result=None,
) -> List[JobResult]:
    """Execute ``specs`` with up to ``jobs`` workers; results in spec order.

    Failed jobs (exceptions, crashes, timeouts — after exhausting their
    retry budget) come back with ``result.error`` set; no exception is
    raised so one bad design point cannot abort a long sweep.  Pass a
    :class:`PoolStats` to observe retry/timeout/crash accounting.

    ``on_result`` is called with each finalized :class:`JobResult` as
    soon as it is known (completion order, not spec order) — the hook
    checkpoint writers use to flush incrementally.  An exception from
    the callback aborts the run (workers are shut down first).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    stats = stats if stats is not None else PoolStats()
    stats.jobs = len(specs)
    started = time.perf_counter()
    try:
        if jobs == 1 or len(specs) <= 1:
            stats.workers = 1
            return _run_inline(specs, stats, on_result=on_result)
        return _run_pooled(
            specs, min(jobs, len(specs)), stats, started, on_result=on_result
        )
    finally:
        stats.wall_seconds = time.perf_counter() - started


def _run_pooled(
    specs: List[JobSpec],
    workers: int,
    stats: PoolStats,
    pool_start: float,
    on_result=None,
) -> List[JobResult]:
    stats.workers = workers
    pool = _Pool(workers)
    stats.worker_pids = sorted(pool.workers)
    wall_start = time.time()

    results: Dict[int, JobResult] = {}
    attempts_by_index: Dict[int, int] = {i: 1 for i in range(len(specs))}
    pending: List[int] = list(reversed(range(len(specs))))  # pop() in order
    # Master-side dispatch bookkeeping: pid -> [index, started_at].
    # started_at is the dispatch time, refined by the worker's
    # "started" message (the difference is queue latency).
    in_flight: Dict[int, List] = {}
    idle: List[int] = sorted(pool.workers)

    def dispatch() -> None:
        while idle and pending:
            pid = idle.pop()
            index = pending.pop()
            in_flight[pid] = [index, time.time()]
            pool.send(pid, (index, specs[index]))

    def fail_or_retry(index: int, reason: str) -> None:
        spec = specs[index]
        if attempts_by_index[index] <= spec.max_retries:
            stats.retries += 1
            attempts_by_index[index] += 1
            pending.append(index)
        else:
            stats.failed += 1
            results[index] = JobResult(
                label=spec.label,
                index=index,
                error=reason,
                attempts=attempts_by_index[index],
                worker_pid=0,
            )
            if on_result is not None:
                on_result(results[index])

    try:
        dispatch()
        while len(results) < len(specs):
            for message in pool.receive(_POLL_INTERVAL_S):
                kind, pid = message[0], message[1]
                if kind == "started":
                    _, _, index, started_at = message
                    state = in_flight.get(pid)
                    if state is not None and state[0] == index:
                        state[1] = started_at
                elif kind == "done":
                    _, _, index, value, seconds, metrics, spans = message
                    state = in_flight.pop(pid, None)
                    if pid in pool.workers:
                        idle.append(pid)
                    if index in results:
                        continue  # first completion won (timeout race)
                    started_at = state[1] if state else wall_start
                    stats.completed += 1
                    results[index] = JobResult(
                        label=specs[index].label,
                        index=index,
                        value=value,
                        worker_pid=pid,
                        attempts=attempts_by_index[index],
                        seconds=seconds,
                        started_offset_s=max(0.0, started_at - wall_start),
                        metrics=metrics,
                        spans=spans,
                    )
                    if on_result is not None:
                        on_result(results[index])
                elif kind == "error":
                    _, _, index, reason = message
                    in_flight.pop(pid, None)
                    if pid in pool.workers:
                        idle.append(pid)
                    if index not in results:
                        fail_or_retry(index, reason)

            # Crash detection: a worker died (killed, OOM, os._exit).
            for pid in pool.dead_workers():
                pool.reap(pid)
                if pid in idle:
                    idle.remove(pid)
                state = in_flight.pop(pid, None)
                if state is not None:
                    stats.crashes += 1
                    index = state[0]
                    if index not in results:
                        fail_or_retry(
                            index,
                            "worker %d crashed while running job %d (%s)"
                            % (pid, index, specs[index].label),
                        )
                if len(results) < len(specs):
                    idle.append(pool._spawn())

            # Timeout enforcement: kill the worker, retry the job.
            now = time.time()
            for pid, (index, started_at) in list(in_flight.items()):
                timeout = specs[index].timeout_s
                if timeout is not None and now > started_at + timeout:
                    stats.timeouts += 1
                    in_flight.pop(pid)
                    pool.kill_worker(pid)
                    if pid in idle:
                        idle.remove(pid)
                    if index not in results:
                        fail_or_retry(
                            index,
                            "job %d (%s) exceeded its %.1fs timeout"
                            % (index, specs[index].label, timeout),
                        )
                    if len(results) < len(specs):
                        idle.append(pool._spawn())

            dispatch()
    finally:
        pool.shutdown()
    return [results[i] for i in range(len(specs))]
