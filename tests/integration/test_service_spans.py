"""A long-running service keeps no per-request tracer spans.

``repro serve`` defaults to ``Telemetry.metrics_only()``: nothing reads
a process-wide span list, so one span per request would only grow for
the life of the server.  Each request's own spans still reach
``/debug/trace/<id>`` (a bounded ring of recent requests).
"""

import http.client
import json
import threading

from repro.service import CoEstimationService, ServiceConfig
from repro.service.server import ServiceHTTPServer

REQUESTS = 5


def call(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(method, path,
                           body=None if body is None else json.dumps(body))
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def test_requests_leave_no_spans_and_debug_trace_still_answers():
    service = CoEstimationService(ServiceConfig(workers=1))
    service.start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    port = httpd.server_address[1]
    try:
        trace_ids = []
        for index in range(REQUESTS):
            status, headers, _ = call(port, "POST", "/estimate", {
                "system": "fig1", "strategy": "caching",
                "request_id": "spans-%d" % index})
            assert status == 200
            trace_ids.append(headers["X-Trace-Id"])
        assert service.telemetry.enabled
        assert service.telemetry.tracer.event_count == 0
        for trace_id in trace_ids:
            status, _, body = call(port, "GET", "/debug/trace/%s" % trace_id)
            assert status == 200
            assert json.loads(body)["spans"]
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.drain(timeout_s=30.0)
