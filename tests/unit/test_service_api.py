"""Request validation and the idempotency fingerprint."""

import pytest

from repro.errors import ReproError
from repro.service.api import (
    BadRequest,
    EstimateRequest,
    parse_request,
    request_fingerprint,
    workload_signature,
)
from repro.systems import build_bundle, producer_consumer, system_names

KNOWN = system_names()


class TestParseRequest:
    def test_minimal_request(self):
        request = parse_request({"system": "fig1"}, known_systems=KNOWN)
        assert request.system == "fig1"
        assert request.strategy == "caching"
        assert request.priority == 1
        assert request.fault_plan is None
        assert request.request_id.startswith("req-")

    def test_full_request(self):
        request = parse_request(
            {
                "system": "tcpip",
                "strategy": "full",
                "priority": "high",
                "deadline_s": 12.5,
                "request_id": "client-7",
                "fault": {"rate": 0.5, "sites": ["hw"], "seed": 9,
                          "retries": 2},
            },
            known_systems=KNOWN,
        )
        assert request.priority == 2
        assert request.deadline_s == 12.5
        assert request.request_id == "client-7"
        assert request.fault_plan is not None
        assert request.fault_plan.seed == 9
        assert request.fault_retries == 2
        assert all(s.site == "hw" for s in request.fault_plan.specs)

    def test_default_deadline_honored(self):
        request = parse_request({"system": "fig1"}, known_systems=KNOWN,
                                default_deadline_s=7.0)
        assert request.deadline_s == 7.0

    def test_zero_rate_means_no_plan(self):
        request = parse_request(
            {"system": "fig1", "fault": {"rate": 0.0}}, known_systems=KNOWN
        )
        assert request.fault_plan is None

    def test_hang_fault_kind(self):
        request = parse_request(
            {"system": "fig1",
             "fault": {"rate": 1.0, "sites": ["hw"], "kind": "hang",
                       "hang_s": 2.5}},
            known_systems=KNOWN,
        )
        (spec,) = request.fault_plan.specs
        assert spec.kind == "hang"
        assert spec.hang_s == 2.5

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("not a dict", "JSON object"),
            ({}, "'system'"),
            ({"system": 3}, "'system'"),
            ({"system": "nope"}, "unknown system"),
            ({"system": "fig1", "strategy": "psychic"}, "unknown strategy"),
            ({"system": "fig1", "priority": "urgent"}, "unknown priority"),
            ({"system": "fig1", "priority": 1.5}, "'priority'"),
            ({"system": "fig1", "deadline_s": "soon"}, "'deadline_s'"),
            ({"system": "fig1", "deadline_s": 0}, "positive"),
            ({"system": "fig1", "deadline_s": -3}, "positive"),
            ({"system": "fig1", "fault": "all"}, "'fault'"),
            ({"system": "fig1", "fault": {"rate": 2.0}}, "[0, 1]"),
            ({"system": "fig1", "fault": {"rate": "x"}}, "'fault.rate'"),
            ({"system": "fig1", "fault": {"rate": 0.5, "sites": ["gpu"]}},
             "unknown fault sites"),
            ({"system": "fig1", "fault": {"rate": 0.5, "seed": "x"}},
             "'fault.seed'"),
            ({"system": "fig1", "fault": {"rate": 0.5, "retries": -1}},
             "'fault.retries'"),
            ({"system": "fig1", "fault": {"rate": 0.5, "kind": "gremlin"}},
             "unknown fault kind"),
            ({"system": "fig1", "fault": {"rate": 0.5, "kind": "hang",
                                          "hang_s": -1}},
             "'fault.hang_s'"),
            ({"system": "fig1", "request_id": 7}, "'request_id'"),
        ],
    )
    def test_named_validation_errors(self, body, fragment):
        with pytest.raises(BadRequest) as excinfo:
            parse_request(body, known_systems=KNOWN)
        assert fragment in str(excinfo.value)

    def test_bad_request_is_repro_error(self):
        with pytest.raises(ReproError):
            parse_request({}, known_systems=KNOWN)


class TestPayloadRoundTrip:
    def test_plain_request(self):
        original = parse_request(
            {"system": "fig1", "strategy": "full", "priority": "low",
             "deadline_s": 9.0, "request_id": "r1"},
            known_systems=KNOWN,
        )
        rebuilt = EstimateRequest.from_payload(original.to_payload(),
                                               known_systems=KNOWN)
        assert rebuilt == original

    def test_fault_request(self):
        original = parse_request(
            {"system": "tcpip", "fault": {"rate": 0.25, "sites": ["hw",
             "iss"], "seed": 3, "retries": 2}},
            known_systems=KNOWN,
        )
        rebuilt = EstimateRequest.from_payload(original.to_payload(),
                                               known_systems=KNOWN)
        assert rebuilt.fault_plan == original.fault_plan
        assert rebuilt.fault_retries == original.fault_retries

    def test_hang_fault_request(self):
        original = parse_request(
            {"system": "tcpip",
             "fault": {"rate": 1.0, "sites": ["hw"], "kind": "hang",
                       "hang_s": 4.0}},
            known_systems=KNOWN,
        )
        rebuilt = EstimateRequest.from_payload(original.to_payload(),
                                               known_systems=KNOWN)
        assert rebuilt.fault_plan == original.fault_plan


class TestFingerprint:
    def test_same_computation_same_fingerprint(self):
        bundle_a = build_bundle("fig1")
        # A fresh, identical build (``build_bundle`` shares one bundle).
        bundle_b = producer_consumer.build_system(num_packets=4)
        assert bundle_b is not bundle_a
        req = parse_request({"system": "fig1"}, known_systems=KNOWN)
        assert (request_fingerprint(bundle_a, req)
                == request_fingerprint(bundle_b, req))

    def test_scheduling_fields_excluded(self):
        bundle = build_bundle("fig1")
        base = parse_request({"system": "fig1"}, known_systems=KNOWN)
        rescheduled = parse_request(
            {"system": "fig1", "priority": "high", "deadline_s": 1.0,
             "request_id": "other"},
            known_systems=KNOWN,
        )
        assert (request_fingerprint(bundle, base)
                == request_fingerprint(bundle, rescheduled))

    def test_strategy_changes_fingerprint(self):
        bundle = build_bundle("fig1")
        a = parse_request({"system": "fig1", "strategy": "full"},
                          known_systems=KNOWN)
        b = parse_request({"system": "fig1", "strategy": "caching"},
                          known_systems=KNOWN)
        assert (request_fingerprint(bundle, a)
                != request_fingerprint(bundle, b))

    def test_fault_plan_changes_fingerprint(self):
        """A chaos request must never coalesce with a clean one."""
        bundle = build_bundle("fig1")
        clean = parse_request({"system": "fig1"}, known_systems=KNOWN)
        chaos = parse_request(
            {"system": "fig1", "fault": {"rate": 1.0, "sites": ["hw"]}},
            known_systems=KNOWN,
        )
        reseeded = parse_request(
            {"system": "fig1", "fault": {"rate": 1.0, "sites": ["hw"],
                                         "seed": 5}},
            known_systems=KNOWN,
        )
        prints = {request_fingerprint(bundle, r)
                  for r in (clean, chaos, reseeded)}
        assert len(prints) == 3

    def test_different_systems_differ(self):
        req_a = parse_request({"system": "fig1"}, known_systems=KNOWN)
        req_b = parse_request({"system": "tcpip"}, known_systems=KNOWN)
        assert (request_fingerprint(build_bundle("fig1"), req_a)
                != request_fingerprint(build_bundle("tcpip"), req_b))

    def test_workload_signature_tracks_stimuli(self):
        stimuli_a = build_bundle("fig1").stimuli()
        stimuli_b = build_bundle("fig1").stimuli()
        assert workload_signature(stimuli_a) == workload_signature(stimuli_b)
        assert (workload_signature(stimuli_a[:-1])
                != workload_signature(stimuli_a))
