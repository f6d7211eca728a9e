"""The request-frontend contract, held by both backends.

``repro serve`` (:class:`CoEstimationService`, here over a fake
``execute_spec``) and the cluster coordinator
(:class:`ClusterCoordinator`, here over a fake worker transport) take a
request through the same lifecycle (:mod:`repro.service.frontend`).
Each case below runs against both: coalescing, the trace-id header,
the ``request.completed`` event, the per-provenance energy-answer
metric, the flight-recorder dump on a 5xx, failure accounting, and the
503 while draining.  The event and the dump are in place when the
answer is released.
"""

import os
import threading

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.protocol import TransportError
from repro.core.report import EnergyReport
from repro.obs import labeled
from repro.obs.names import (
    EVENT_COALESCED,
    EVENT_COMPLETED,
    EVENT_FAILED,
    METRIC_ENERGY_ANSWERS,
)
from repro.service import CoEstimationService, ServiceConfig, ServiceRejected
from repro.service.api import parse_request
from repro.systems import system_names

PROVENANCE = {"exact": 3, "cached": 1}


def make_request():
    return parse_request({"system": "fig1", "strategy": "caching"},
                         known_systems=system_names())


def make_report():
    return EnergyReport(
        label="fake", total_energy_j=1.25e-6,
        by_component={"proc": 1.25e-6}, by_category={"hw": 1.25e-6},
        end_time_ns=1000.0, wall_seconds=0.01, low_level_seconds=0.0,
        transitions={"proc": 4}, iss_invocations=0, hw_invocations=4,
        strategy_name="caching", strategy_stats={},
        provenance=dict(PROVENANCE),
        by_provenance={"exact": 1.0e-6, "cached": 0.25e-6},
    )


class Backend:
    """One frontend plus the fake that runs its requests.

    ``hold`` makes runs block until ``release``; ``broken`` makes them
    fail the way the backend's runs fail (an exception in the service,
    dead workers behind the coordinator).
    """

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.broken = False
        self.runs = 0
        self.started = threading.Semaphore(0)

    def run(self) -> None:
        self.runs += 1
        self.started.release()
        assert self.gate.wait(10.0), "the test never released the run"

    def submit_in_thread(self):
        """Submit from another thread (the coordinator runs inline)."""
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(
                result=self.frontend.submit(make_request())))
        thread.start()
        return thread, outcome


class ServiceBackend(Backend):
    def __init__(self, monkeypatch, dump_dir: str) -> None:
        super().__init__()

        def execute_spec(spec):
            self.run()
            if self.broken:
                raise RuntimeError("simulator exploded")
            return make_report(), 0.01, None, None

        monkeypatch.setattr("repro.parallel.pool.execute_spec", execute_spec)
        self.frontend = CoEstimationService(ServiceConfig(
            workers=1, queue_depth=4, default_deadline_s=10.0,
            drain_timeout_s=2.0, flight_dump_dir=dump_dir))
        self.frontend.start()

    def close(self) -> None:
        self.gate.set()
        self.frontend.drain(timeout_s=2.0)


class CoordinatorBackend(Backend):
    def __init__(self, monkeypatch, dump_dir: str) -> None:
        super().__init__()

        def transport(url, path, body, timeout_s):
            self.run()
            if self.broken:
                raise TransportError("connection refused")
            return 200, {
                "status": "ok", "total_energy_j": 1.25e-6,
                "provenance": dict(PROVENANCE), "degraded": True,
                "run_seconds": 0.01,
            }

        self.frontend = ClusterCoordinator(
            ClusterConfig(backoff_base_s=0.0, redispatch_budget=0,
                          flight_dump_dir=dump_dir),
            transport=transport,
        )
        self.frontend.register_worker("w0", "http://w0")

    def close(self) -> None:
        self.gate.set()


@pytest.fixture(params=["service", "coordinator"])
def backend(request, monkeypatch, tmp_path):
    kind = {"service": ServiceBackend, "coordinator": CoordinatorBackend}
    instance = kind[request.param](monkeypatch, str(tmp_path))
    yield instance
    instance.close()


def answered(pending):
    """Wait for the answer: the lifecycle event and any flight dump are
    written before it is released."""
    assert pending.wait(10.0)
    return pending


def recorded(frontend, name):
    return [event for event in frontend.obs.recorder.events()
            if event["event"] == name]


def test_identical_in_flight_requests_coalesce(backend):
    backend.gate.clear()
    thread, primary = backend.submit_in_thread()
    assert backend.started.acquire(timeout=10.0)
    follower, coalesced = backend.frontend.submit(make_request())
    assert coalesced
    backend.gate.set()
    thread.join(10.0)
    pending, primary_coalesced = primary["result"]
    assert not primary_coalesced
    assert follower is pending
    assert answered(pending).status == 200
    assert backend.runs == 1
    assert backend.frontend.dedup.snapshot()["coalesced"] == 1
    [event] = recorded(backend.frontend, EVENT_COALESCED)
    assert event["primary_trace_id"] == pending.trace_id


def test_answer_carries_the_trace_id(backend):
    pending, _ = backend.frontend.submit(make_request())
    trace_id = answered(pending).headers["X-Trace-Id"]
    assert trace_id == pending.trace_id
    assert len(trace_id) == 32


def test_completed_event_is_recorded_under_the_trace(backend):
    pending, _ = backend.frontend.submit(make_request())
    answered(pending)
    [event] = recorded(backend.frontend, EVENT_COMPLETED)
    assert event["trace_id"] == pending.trace_id
    assert event["status"] == 200
    assert event["system"] == "fig1"
    assert backend.frontend.stats_snapshot()["provenance"] == PROVENANCE


def test_energy_answers_are_counted_per_provenance(backend):
    pending, _ = backend.frontend.submit(make_request())
    answered(pending)
    counters = backend.frontend.telemetry.metrics.snapshot()["counters"]
    for level, count in PROVENANCE.items():
        name = labeled(METRIC_ENERGY_ANSWERS, system="fig1",
                       provenance=level)
        assert counters[name] == count
    assert ("repro_service_energy_answers_total"
            in backend.frontend.metrics_exposition())


def test_server_error_dumps_the_flight_recorder(backend, tmp_path):
    backend.broken = True
    pending, _ = backend.frontend.submit(make_request())
    assert answered(pending).status in (500, 502)
    dumps = [name for name in os.listdir(str(tmp_path))
             if name.startswith("flightrecorder-")]
    assert len(dumps) == 1
    assert pending.body["reason"] in dumps[0]
    assert backend.frontend.obs.recorder.dumps == 1


def test_failed_estimate_is_counted_in_stats(backend):
    # The coordinator's 502 after its re-dispatch budget and the
    # service's 500 both count as failed, with a request.failed event.
    backend.broken = True
    pending, _ = backend.frontend.submit(make_request())
    assert answered(pending).status in (500, 502)
    section = {ServiceBackend: "service", CoordinatorBackend: "cluster"}
    stats = backend.frontend.stats_snapshot()[section[type(backend)]]
    assert stats["failed"] == 1
    assert stats["completed"] == 0
    [event] = recorded(backend.frontend, EVENT_FAILED)
    assert event["trace_id"] == pending.trace_id
    assert event["status"] == pending.status
    counters = backend.frontend.telemetry.metrics.snapshot()["counters"]
    assert counters["service.failed"] == 1


def test_draining_frontend_refuses_with_503(backend):
    backend.frontend.drain_controller.request_drain("test")
    with pytest.raises(ServiceRejected) as refused:
        backend.frontend.submit(make_request())
    assert refused.value.status == 503
    assert refused.value.reason == "draining"
    assert backend.runs == 0
