"""Merging per-worker telemetry into one cross-process view.

Workers ship two artifacts home with each :class:`JobResult`:

* a metrics-registry snapshot (``{"counters": .., "gauges": ..,
  "histograms": ..}``) — merged by :func:`merge_metrics_snapshots`;
* the raw span tuples of the job's tracer — rendered into one Chrome
  trace by :func:`merged_chrome_trace_events`, where every worker
  becomes its own Perfetto *process* (pid = worker pid) so the parallel
  timeline is visible at a glance.

Span timestamps are tracer-relative (each worker's tracer starts at
zero when the job begins).  The merge shifts each job's spans by the
job's start offset within the pool run, so slices line up on one shared
wall-clock axis.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.parallel.jobs import JobResult

__all__ = [
    "merge_metrics_snapshots",
    "merged_chrome_trace_events",
    "write_merged_chrome_trace",
]


def merge_metrics_snapshots(
    snapshots: Iterable[Optional[Dict[str, Dict]]],
) -> Dict[str, Dict]:
    """Combine registry snapshots from many workers into one.

    Counters add (they are event counts), gauges take the maximum (they
    are levels — peak queue depth, final cache size — where "max over
    workers" is the conservative aggregate), and histogram summaries
    add their ``count``/``sum`` and recompute the mean; percentiles
    cannot be merged exactly from summaries, so the merge keeps a
    count-weighted average and labels the result dict with
    ``"approximate": True``.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, summary in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                merged = dict(summary)
                merged["approximate"] = True
                histograms[name] = merged
                continue
            old_count = merged["count"]
            new_count = summary["count"]
            total = old_count + new_count
            merged["sum"] += summary["sum"]
            merged["min"] = min(merged["min"], summary["min"])
            merged["max"] = max(merged["max"], summary["max"])
            if total:
                for key in ("p50", "p90", "p99"):
                    merged[key] = (
                        merged[key] * old_count + summary[key] * new_count
                    ) / total
            merged["count"] = total
            merged["mean"] = merged["sum"] / total if total else 0.0
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def merged_chrome_trace_events(
    results: Iterable[JobResult],
) -> List[Dict[str, Any]]:
    """Chrome trace events for all jobs, one Perfetto process per worker.

    Each worker pid becomes a trace ``pid`` with a ``process_name``
    metadata record; within a worker, tracks keep their names as
    threads.  Jobs that carried no spans contribute nothing.
    """
    events: List[Dict[str, Any]] = []
    # (pid -> process metadata emitted), (pid, track) -> tid.
    named_pids: Dict[int, bool] = {}
    tids: Dict[Any, int] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = 1 + sum(1 for existing in tids if existing[0] == pid)
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid

    for result in results:
        if not result.spans:
            continue
        pid = result.worker_pid or 0
        if pid not in named_pids:
            named_pids[pid] = True
            events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": "worker %d" % pid},
                }
            )
        offset_us = int(result.started_offset_s * 1e6)
        for name, track, start_us, dur_us, _depth, args in result.spans:
            event: Dict[str, Any] = {
                "ph": "X",
                "ts": start_us + offset_us,
                "dur": dur_us,
                "pid": pid,
                "tid": tid_for(pid, track),
                "name": name,
                "cat": track,
            }
            merged_args = dict(args) if args else {}
            merged_args.setdefault("job", result.label)
            event["args"] = merged_args
            events.append(event)
    return events


def write_merged_chrome_trace(results: Iterable[JobResult], path: str) -> str:
    """Atomically write the merged Chrome trace JSON to ``path``."""
    from repro.ioutil import atomic_write_text

    return atomic_write_text(path, json.dumps(merged_chrome_trace_events(results)))
