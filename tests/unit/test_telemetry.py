"""Unit tests: span tracer, Chrome trace export, and telemetry report."""

import json

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    NULL_TRACER,
    Telemetry,
    Tracer,
    aggregate_spans,
    chrome_trace_events,
    render_chrome_trace,
    render_report,
    write_chrome_trace,
)
from repro.telemetry.tracer import _NULL_SPAN


class FakeClock:
    """Deterministic clock: advances by ``step`` seconds per call."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_span_records_name_track_and_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("reaction:producer", track="master") as span:
            span.set("cycles", 42)
        assert len(tracer.spans) == 1
        record = tracer.spans[0]
        assert record.name == "reaction:producer"
        assert record.track == "master"
        assert record.dur_us > 0
        assert record.args == {"cycles": 42}

    def test_nested_spans_record_depth_and_close_inner_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [record.name for record in tracer.spans]
        assert names == ["inner", "outer"]
        depths = {record.name: record.depth for record in tracer.spans}
        assert depths == {"outer": 0, "inner": 1}

    def test_explicit_close(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("manual", track="iss")
        span.close()
        assert tracer.spans[0].name == "manual"

    def test_instants_and_counters(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("cache.hit", track="strategy", args={"k": 1})
        tracer.counter("energy_uJ", {"sw": 1.5, "hw": 0.5})
        assert len(tracer.instants) == 1
        assert len(tracer.counters) == 1
        assert tracer.spans == []
        # Counter samples are copied, not aliased.
        _, _, series = tracer.counters[0]
        assert series == {"sw": 1.5, "hw": 0.5}

    def test_timestamps_are_monotonic_microseconds(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        tracer.instant("first")
        tracer.instant("second")
        assert tracer.instants[1][0] > tracer.instants[0][0]
        # 0.5 s per clock tick -> timestamps in the 1e5 us range.
        assert tracer.instants[0][0] >= 5e5


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("ignored", args={"x": 1}) as span:
            span.set("y", 2)
        NULL_TRACER.instant("ignored")
        NULL_TRACER.counter("ignored", {"a": 1})
        assert NULL_TRACER.spans == NULL_TRACER.instants == NULL_TRACER.counters == []
        assert NULL_TRACER.enabled is False

    def test_null_span_is_shared_singleton(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second is _NULL_SPAN

    def test_null_telemetry_bundle_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.tracer is NULL_TRACER
        assert NULL_TELEMETRY.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_enabled_bundle_defaults(self):
        telemetry = Telemetry()
        assert telemetry.enabled is True
        assert telemetry.tracer.enabled is True
        metrics_only = Telemetry.metrics_only()
        assert metrics_only.tracer is NULL_TRACER
        assert metrics_only.metrics.enabled is True


def _sample_tracer():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("reaction:producer", track="master", args={"t_ns": 0.0}):
        with tracer.span("iss.run", track="iss"):
            pass
    tracer.instant("cache.hit", track="strategy")
    tracer.counter("energy_uJ", {"sw": 2.0})
    tracer.counter("energy_uJ", {"sw": 3.0, "hw": 1.0})
    return tracer


class TestChromeExport:
    def test_every_event_has_required_keys(self):
        events = chrome_trace_events(_sample_tracer())
        assert events, "expected a non-empty event list"
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event, (key, event)

    def test_render_is_valid_json_array(self):
        text = render_chrome_trace(_sample_tracer())
        events = json.loads(text)
        assert isinstance(events, list)

    def test_thread_metadata_names_tracks(self):
        events = chrome_trace_events(_sample_tracer())
        metadata = [e for e in events if e["ph"] == "M"]
        named = {e["args"]["name"] for e in metadata}
        assert {"master", "iss", "strategy"} <= named

    def test_spans_become_complete_events_with_durations(self):
        events = chrome_trace_events(_sample_tracer())
        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert "reaction:producer" in complete
        assert "iss.run" in complete
        assert complete["iss.run"]["dur"] > 0
        # Distinct tracks land on distinct tids.
        assert complete["iss.run"]["tid"] != complete["reaction:producer"]["tid"]

    def test_counter_track_present_on_tid_zero(self):
        events = chrome_trace_events(_sample_tracer())
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2
        assert all(e["tid"] == 0 for e in counters)
        assert counters[-1]["args"] == {"sw": 3.0, "hw": 1.0}

    def test_write_chrome_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(_sample_tracer(), path)
        with open(path) as handle:
            events = json.load(handle)
        assert any(e["ph"] == "C" for e in events)


class TestReport:
    def test_aggregate_spans_totals_and_order(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("iss.run", track="iss"):
                pass
        with tracer.span("hw.run_transition", track="hw"):
            pass
        rows = aggregate_spans(tracer)
        by_key = {key: (count, total, mean) for key, count, total, mean in rows}
        assert by_key["iss/iss.run"][0] == 3
        assert by_key["hw/hw.run_transition"][0] == 1
        # Sorted by total time, descending.
        totals = [total for _, _, total, _ in rows]
        assert totals == sorted(totals, reverse=True)

    def test_render_report_sections(self):
        telemetry = Telemetry(tracer=_sample_tracer())
        telemetry.metrics.gauge("strategy.cache.lookups").set(10)
        telemetry.metrics.gauge("strategy.cache.hits").set(4)
        telemetry.metrics.gauge("strategy.cache.misses").set(6)
        telemetry.metrics.gauge("strategy.cache_hit_rate").set(0.4)
        telemetry.metrics.gauge("iss_calls").set(6)
        telemetry.metrics.histogram("master.reaction_seconds").observe(0.01)
        text = render_report(telemetry)
        assert "Hottest spans" in text
        assert "energy cache" in text
        assert "hit_rate=0.400" in text
        assert "ISS invocations" in text
        assert "master.reaction_seconds" in text

    def test_render_report_empty_bundle(self):
        text = render_report(Telemetry(tracer=Tracer(clock=FakeClock())))
        assert text.startswith("Telemetry report")
