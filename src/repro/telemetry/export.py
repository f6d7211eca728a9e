"""Trace exporter: Chrome trace-event JSON.

The Chrome trace-event format (the JSON-array flavour) is understood
by Perfetto (https://ui.perfetto.dev) and the legacy
``chrome://tracing`` viewer.  Every tracer track becomes a named
"thread" of one process; spans render as nested slices, instants as
markers, and counter samples as counter tracks — which is how the
accountant's per-category energy shows up as a stacked area chart
above the span timeline.

Every exported event carries the full ``{"ph", "ts", "pid", "tid",
"name"}`` quintet (metadata events included, with ``ts: 0``) so that
strict validators accept the file.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.ioutil import atomic_write_text
from repro.telemetry.tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "render_chrome_trace",
    "write_chrome_trace",
]

#: The pid all tracks share (the framework is one process).
TRACE_PID = 1

#: tid reserved for counter tracks (Perfetto keys counters by name,
#: but the viewer wants a valid tid on every event).
COUNTER_TID = 0


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable track-name -> tid assignment (sorted, 1-based)."""
    tracks = sorted(
        {span.track for span in tracer.spans}
        | {track for _, _, track, _ in tracer.instants}
    )
    return {track: index + 1 for index, track in enumerate(tracks)}


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Render a tracer's records as Chrome trace-event dicts."""
    tids = _track_ids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "ts": 0,
            "pid": TRACE_PID,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    for span in tracer.spans:
        event: Dict[str, Any] = {
            "ph": "X",
            "ts": span.start_us,
            "dur": span.dur_us,
            "pid": TRACE_PID,
            "tid": tids[span.track],
            "name": span.name,
            "cat": span.track,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    for ts_us, name, track, args in tracer.instants:
        event = {
            "ph": "i",
            "ts": ts_us,
            "pid": TRACE_PID,
            "tid": tids[track],
            "name": name,
            "cat": track,
            "s": "t",
        }
        if args:
            event["args"] = args
        events.append(event)
    for ts_us, name, series in tracer.counters:
        events.append(
            {
                "ph": "C",
                "ts": ts_us,
                "pid": TRACE_PID,
                "tid": COUNTER_TID,
                "name": name,
                "args": series,
            }
        )
    return events


def render_chrome_trace(tracer: Tracer) -> str:
    """The trace as one JSON array string (the file Perfetto loads)."""
    return json.dumps(chrome_trace_events(tracer))


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Atomically write the Chrome trace JSON to ``path``.

    The previous trace at ``path`` survives intact if this process
    dies mid-write (see :mod:`repro.ioutil`).
    """
    return atomic_write_text(path, render_chrome_trace(tracer))

