"""Acceptance tests of the observability layer, end to end.

The ISSUE's acceptance scenarios:

* one correlated trace tree per request — every span a request causes,
  including spans recorded inside pool worker *processes*, carries the
  request's ``trace_id``;
* ``/metrics`` over real HTTP is valid Prometheus text exposition and
  covers provenance tiers, breaker states, and queue behavior;
* a deadline-exceeded request triggers an atomic flight-recorder dump
  a postmortem can start from.
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.obs.flightrecorder import DUMP_PREFIX
from repro.obs.names import EVENT_DEADLINE_EXPIRED
from repro.obs.prometheus import validate_exposition
from repro.parallel import JobSpec, job_seed, run_jobs
from repro.parallel.merge import merged_chrome_trace_events
from repro.obs.context import RequestContext
from repro.service import CoEstimationService, ServiceConfig
from repro.service.api import parse_request
from repro.service.server import ServiceHTTPServer
from repro.systems import builder_spec, system_names

KNOWN = system_names()


def req(body):
    return parse_request(body, known_systems=KNOWN)


@pytest.fixture
def service(tmp_path):
    instance = CoEstimationService(
        ServiceConfig(workers=1, queue_depth=4, default_deadline_s=60.0,
                      drain_timeout_s=30.0,
                      flight_dump_dir=str(tmp_path / "dumps"))
    )
    instance.start()
    yield instance
    instance.drain(timeout_s=30.0)


@pytest.fixture
def http_service(service):
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service, quiet=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield service, httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()


def http_get(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def http_post(port, path, body, timeout=120):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("POST", path, body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestTraceTree:
    def test_one_correlated_trace_tree_per_request(self, http_service):
        _, port = http_service
        status, headers, raw = http_post(
            port, "/estimate", {"system": "fig1", "strategy": "caching"}
        )
        assert status == 200
        trace_id = headers.get("X-Trace-Id")
        assert trace_id, "response must carry its trace id"

        status, _, raw = http_get(port, "/debug/trace/%s" % trace_id)
        assert status == 200
        document = json.loads(raw)
        assert document["trace_id"] == trace_id
        spans = document["spans"]
        assert spans, "a real run must record spans"
        for span in spans:
            args = span[5]
            assert args["trace_id"] == trace_id
        # The job-level span context is one node: every span links to
        # the same request tree (one span_id/parent pair per job).
        job_span_ids = {span[5]["span_id"] for span in spans}
        assert len(job_span_ids) == 1
        parents = {span[5]["parent_span_id"] for span in spans}
        assert len(parents) == 1

    def test_unknown_trace_is_a_404(self, http_service):
        _, port = http_service
        status, _, _ = http_get(port, "/debug/trace/deadbeef")
        assert status == 404

    def test_correlation_survives_the_pool_boundary(self):
        contexts = [RequestContext.new("req-%d" % index)
                    for index in range(2)]
        builder, builder_kwargs = builder_spec("fig1")
        specs = [
            JobSpec(
                fn="repro.parallel.runners:run_estimate",
                payload={
                    "builder": builder,
                    "builder_kwargs": dict(builder_kwargs),
                    "strategy": "caching",
                    "label": "job-%d" % index,
                },
                label="job-%d" % index,
                seed=job_seed(0, "job-%d" % index),
                collect_telemetry=True,
                trace=context.to_payload(),
            )
            for index, context in enumerate(contexts)
        ]
        results = run_jobs(specs, jobs=2)
        assert all(result.ok for result in results), [
            result.error for result in results
        ]
        for context, result in zip(contexts, results):
            assert result.spans, "worker must ship spans home"
            for span in result.spans:
                args = span[5]
                assert args["trace_id"] == context.trace_id
                assert args["parent_span_id"] == context.span_id
        # Both jobs ran the same deterministic work, but their span ids
        # must never alias in the merged cross-process trace.
        events = [event for event in merged_chrome_trace_events(results)
                  if event["ph"] == "X"]
        by_trace = {}
        for event in events:
            by_trace.setdefault(
                event["args"]["trace_id"], set()
            ).add(event["args"]["span_id"])
        assert set(by_trace) == {c.trace_id for c in contexts}
        ids_a, ids_b = by_trace.values()
        assert not ids_a & ids_b, "span ids aliased across workers"


class TestMetricsEndpoint:
    def test_metrics_is_valid_exposition_covering_the_run(
        self, http_service
    ):
        _, port = http_service
        status, _, _ = http_post(
            port, "/estimate", {"system": "fig1", "strategy": "caching"}
        )
        assert status == 200
        status, headers, raw = http_get(port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        text = raw.decode("utf-8")
        assert validate_exposition(text) == [], validate_exposition(text)
        # Provenance-tier counters, labeled by system.
        assert 'repro_service_energy_answers_total{provenance=' in text
        assert 'system="fig1"' in text
        # Queue + breaker + SLO + HTTP instrument families.
        assert "repro_service_queue_depth " in text
        assert "# TYPE repro_service_queue_wait_seconds histogram" in text
        assert "repro_slo_latency_burn_rate " in text
        assert "repro_slo_error_burn_rate " in text
        assert 'repro_http_requests_total{path="/estimate",status="200"} 1' \
            in text
        assert "repro_flightrecorder_recorded " in text

    def test_flightrecorder_endpoint_reports_the_ring(self, http_service):
        _, port = http_service
        status, _, _ = http_post(
            port, "/estimate", {"system": "fig1", "strategy": "caching"}
        )
        assert status == 200
        status, _, raw = http_get(port, "/debug/flightrecorder")
        assert status == 200
        document = json.loads(raw)
        assert document["capacity"] == 256
        assert document["recorded"] >= 2  # admitted + completed at least
        assert document["dropped"] == 0
        events = {event["event"] for event in document["events"]}
        assert "request.admitted" in events
        assert "request.completed" in events


class TestDeadlineDump:
    def test_deadline_exceeded_dumps_the_flight_recorder(self, service):
        dump_dir = service.config.flight_dump_dir
        # Pin the single worker with a real run, then let a queued
        # request's tiny deadline lapse before a worker can take it.
        # Every gate-level call of the blocker hangs 5 ms (well inside
        # its deadline), so the run outlasts 10 ms however warm the
        # process caches are.
        blocker, _ = service.submit(req({"system": "fig1",
                                         "strategy": "full",
                                         "fault": {"rate": 1.0,
                                                   "sites": ["hw"],
                                                   "kind": "hang",
                                                   "hang_s": 0.005,
                                                   "retries": 0}}))
        doomed, _ = service.submit(req({"system": "tcpip",
                                        "strategy": "caching",
                                        "deadline_s": 0.01}))
        assert doomed.wait(120.0)
        assert doomed.status == 504
        assert doomed.body["reason"] == "deadline_exceeded"
        assert doomed.headers["X-Trace-Id"] == doomed.trace_id

        # The dump is written after the 504 is resolved; under load the
        # directory may not exist yet when the client returns, so poll.
        deadline = time.monotonic() + 30.0
        dumps = []
        while time.monotonic() < deadline:
            if os.path.isdir(dump_dir):
                dumps = [name for name in os.listdir(dump_dir)
                         if name.startswith(DUMP_PREFIX)]
                if dumps:
                    break
            time.sleep(0.05)
        assert len(dumps) == 1
        assert "deadline_exceeded" in dumps[0]
        with open(os.path.join(dump_dir, dumps[0])) as handle:
            document = json.load(handle)
        assert document["reason"] == "deadline_exceeded"
        # The dump holds the doomed request's event sequence; the
        # postmortem can slice the ring by its trace id.
        matching = [event for event in document["events"]
                    if event.get("trace_id") == doomed.trace_id]
        assert any(event["event"] == EVENT_DEADLINE_EXPIRED
                   for event in matching)
        assert any(event["event"] == "request.admitted"
                   for event in matching)
        assert blocker.wait(120.0)
        assert blocker.status == 200
