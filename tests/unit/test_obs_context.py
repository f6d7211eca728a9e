"""Request-context propagation and the contextvar event sink."""

import os
import pickle
import threading

from repro.obs.context import (
    RequestContext,
    current_context,
    emit_event,
    new_span_id,
    new_trace_id,
    use_context,
    use_event_sink,
)


class TestIds:
    def test_trace_ids_unique_and_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 32
            int(trace_id, 16)  # hex or raise

    def test_span_ids_carry_the_pid(self):
        span_id = new_span_id()
        pid_part, _, counter_part = span_id.partition("-")
        assert int(pid_part, 16) == os.getpid()
        assert int(counter_part, 16) > 0

    def test_span_ids_unique_within_a_process(self):
        ids = {new_span_id() for _ in range(256)}
        assert len(ids) == 256


class TestRequestContext:
    def test_new_roots_a_trace(self):
        context = RequestContext.new("req-1")
        assert context.request_id == "req-1"
        assert context.parent_span_id == ""
        assert context.trace_id and context.span_id

    def test_child_keeps_trace_and_links_parent(self):
        root = RequestContext.new("req-1")
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id
        assert child.request_id == "req-1"

    def test_payload_round_trip(self):
        root = RequestContext.new("req-2").child()
        restored = RequestContext.from_payload(root.to_payload())
        assert restored == root

    def test_payload_is_picklable(self):
        payload = RequestContext.new("req-3").to_payload()
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_trace_args_omit_empty_fields(self):
        root = RequestContext(trace_id="t", span_id="s")
        assert root.trace_args() == {"trace_id": "t", "span_id": "s"}
        linked = RequestContext(trace_id="t", span_id="s",
                                parent_span_id="p", request_id="r")
        assert linked.trace_args()["parent_span_id"] == "p"
        assert linked.trace_args()["request_id"] == "r"


class TestPropagation:
    def test_bind_and_restore(self):
        assert current_context() is None
        context = RequestContext.new()
        with use_context(context):
            assert current_context() is context
            with use_context(None):
                assert current_context() is None
            assert current_context() is context
        assert current_context() is None

    def test_threads_do_not_inherit_by_default(self):
        seen = []
        with use_context(RequestContext.new()):
            thread = threading.Thread(
                target=lambda: seen.append(current_context())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestEventSink:
    def test_emit_is_a_noop_without_a_sink(self):
        emit_event("anything", detail=1)  # must not raise

    def test_emit_reaches_the_bound_sink(self):
        events = []
        with use_event_sink(lambda name, fields: events.append((name, fields))):
            emit_event("estimator.fallback", level="cached")
        assert events == [("estimator.fallback", {"level": "cached"})]

    def test_emit_merges_trace_fields(self):
        events = []
        context = RequestContext.new("req-9")
        with use_context(context), use_event_sink(
            lambda name, fields: events.append(fields)
        ):
            emit_event("x", trace_id="explicit-wins")
        (fields,) = events
        assert fields["trace_id"] == "explicit-wins"
        assert fields["span_id"] == context.span_id
        assert fields["request_id"] == "req-9"

    def test_sink_unbinds_on_exit(self):
        events = []
        with use_event_sink(lambda name, fields: events.append(name)):
            pass
        emit_event("after")
        assert events == []
