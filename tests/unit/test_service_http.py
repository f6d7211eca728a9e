"""The stdlib HTTP front end over a fake-executor service."""

import json
import http.client
import threading
import time

import pytest

from repro.service import (
    CoEstimationService,
    PendingResult,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.httpbase import JsonRequestHandler, QuietHTTPServer

from tests.unit.test_service_server import FakeExecutor


@pytest.fixture
def http_service(monkeypatch):
    fake = FakeExecutor()
    monkeypatch.setattr("repro.parallel.pool.execute_spec", fake)
    service = CoEstimationService(
        ServiceConfig(workers=1, queue_depth=4, default_deadline_s=10.0,
                      drain_timeout_s=2.0)
    )
    service.start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield service, httpd.server_address[1], fake
    httpd.shutdown()
    httpd.server_close()
    fake.release.set()
    service.drain(timeout_s=2.0)


def call(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), \
            json.loads(data) if data else {}
    finally:
        connection.close()


class TestRoutes:
    def test_healthz(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "alive", "draining": False}

    def test_readyz_ready_then_draining(self, http_service):
        service, port, _ = http_service
        status, _, body = call(port, "GET", "/readyz")
        assert (status, body["status"]) == (200, "ready")
        service.drain_controller.request_drain("test")
        status, _, body = call(port, "GET", "/readyz")
        assert (status, body["status"]) == (503, "draining")

    def test_stats_document(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "GET", "/stats")
        assert status == 200
        assert set(body) >= {"service", "queue", "dedup", "breakers",
                             "provenance", "metrics"}
        assert body["queue"]["max_depth"] == 4

    def test_unknown_path_404(self, http_service):
        _, port, _ = http_service
        assert call(port, "GET", "/nope")[0] == 404
        assert call(port, "POST", "/nope")[0] == 404


class TestEstimateEndpoint:
    def test_estimate_ok(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "fig1", "strategy": "full"})
        assert status == 200
        assert body["status"] == "ok"
        assert body["system"] == "fig1"
        assert body["provenance"] == {"exact": 4}
        assert "fingerprint" in body

    def test_malformed_json_400(self, http_service):
        _, port, _ = http_service
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        try:
            connection.request("POST", "/estimate", body="{not json")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in body["reason"]
        finally:
            connection.close()

    def test_unknown_system_400(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "warp-core"})
        assert status == 400
        assert "unknown system" in body["reason"]

    def test_draining_503(self, http_service):
        service, port, _ = http_service
        service.drain_controller.request_drain("test")
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "fig1"})
        assert status == 503
        assert body["reason"] == "draining"

    def test_coalesced_flag_surfaces(self, http_service):
        _, port, fake = http_service
        fake.release.clear()  # hold the primary in the worker
        results = []

        def post():
            results.append(call(port, "POST", "/estimate",
                                {"system": "fig1"}))

        threads = [threading.Thread(target=post) for _ in range(2)]
        for thread in threads:
            thread.start()
        assert fake.wait_for_calls(1)
        fake.release.set()
        for thread in threads:
            thread.join(15.0)
        statuses = sorted(r[0] for r in results)
        assert statuses == [200, 200]
        assert len(fake.calls) == 1  # one run answered both clients
        assert sum(1 for r in results if r[2].get("coalesced")) == 1


class TestSettle:
    def test_waits_for_resolved_answers_not_for_runs_in_flight(self):
        server = QuietHTTPServer(("127.0.0.1", 0), JsonRequestHandler)
        pending = PendingResult()
        waiting, answered = threading.Event(), threading.Event()

        def handler():
            with server.owed_answer():
                server.waiting_on(pending)
                waiting.set()
                pending.wait(15.0)
                time.sleep(0.3)  # writing the answer
                answered.set()

        thread = threading.Thread(target=handler, daemon=True)
        try:
            thread.start()
            assert waiting.wait(5.0)
            started = time.monotonic()
            server.settle(10.0)  # the run is still in flight: no wait
            assert time.monotonic() - started < 5.0
            pending.resolve(503, {"status": "rejected"})
            server.settle(10.0)  # resolved: wait until it is written
            assert answered.is_set()
        finally:
            pending.resolve(503, {})
            thread.join(15.0)
            server.server_close()
        assert not thread.is_alive()
