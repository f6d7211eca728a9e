"""Unit tests: bus parameters, arbiter, DMA, and the timeline model."""

import pytest

from repro.bus.arbiter import PriorityArbiter
from repro.bus.busmodel import SharedBus
from repro.bus.dma import block_sizes, blocks_needed
from repro.bus.model import BusParameters, BusRequest


class TestBusParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            BusParameters(addr_width=0)
        with pytest.raises(ValueError):
            BusParameters(dma_block_words=0)

    def test_with_dma_preserves_other_fields(self):
        base = BusParameters(addr_width=12, priorities={"a": 0})
        changed = base.with_dma(64)
        assert changed.dma_block_words == 64
        assert changed.addr_width == 12
        assert changed.priorities == {"a": 0}
        assert base.dma_block_words != 64 or base.dma_block_words == 64

    def test_with_priorities(self):
        base = BusParameters()
        changed = base.with_priorities({"x": 2})
        assert changed.priorities == {"x": 2}
        assert base.priorities == {}

    def test_energy_per_toggle(self):
        params = BusParameters(vdd=2.0, line_capacitance_f=1e-9)
        assert params.energy_per_toggle() == pytest.approx(0.5 * 1e-9 * 4.0)

    def test_paper_figure7_point(self):
        params = BusParameters.paper_figure7(dma_block_words=128)
        assert params.vdd == 3.3
        assert params.line_capacitance_f == 10e-9
        assert params.addr_width == 8
        assert params.data_width == 8
        assert params.dma_block_words == 128


class TestDma:
    def test_block_sizes_cover_words(self):
        assert list(block_sizes(10, True, 4)) == [4, 4, 2]
        assert list(block_sizes(10, False, 4)) == [1] * 10
        assert list(block_sizes(0, True, 4)) == []

    def test_blocks_needed(self):
        assert blocks_needed(10, True, 4) == 3
        assert blocks_needed(0, True, 4) == 0
        assert blocks_needed(5, False, 4) == 5

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            list(block_sizes(-1, True, 4))


class TestArbiter:
    def make_request(self, master, time, request_id=0):
        return BusRequest(master, True, 0, [1], time, request_id)

    def test_priority_wins(self):
        arbiter = PriorityArbiter({"hi": 0, "lo": 5})
        pending = [self.make_request("lo", 0.0, 0), self.make_request("hi", 1.0, 1)]
        assert arbiter.pick(pending).master == "hi"

    def test_fifo_among_equal_priorities(self):
        arbiter = PriorityArbiter({})
        pending = [self.make_request("a", 5.0, 1), self.make_request("b", 2.0, 0)]
        assert arbiter.pick(pending).master == "b"

    def test_empty_pick_rejected(self):
        with pytest.raises(ValueError):
            PriorityArbiter().pick([])

    def test_wait_accounting(self):
        arbiter = PriorityArbiter()
        request = self.make_request("m", 10.0)
        arbiter.record_grant(request, 25.0)
        assert arbiter.wait_ns["m"] == 15.0
        assert arbiter.grants["m"] == 1


class TestSharedBus:
    def test_dma_size_reduces_arbitrations(self):
        words = list(range(32))
        small = SharedBus(BusParameters(dma_block_words=2))
        large = SharedBus(BusParameters(dma_block_words=16))
        small.submit("m", True, 0, words, 0.0)
        large.submit("m", True, 0, words, 0.0)
        small.advance(float("inf"))
        large.advance(float("inf"))
        assert small.total_grants == 16
        assert large.total_grants == 2
        assert small.total_busy_cycles > large.total_busy_cycles

    def test_priority_preemption_between_bursts(self):
        """A higher-priority master grabs the bus at a burst boundary."""
        params = BusParameters(dma_block_words=2,
                               priorities={"hi": 0, "lo": 1})
        bus = SharedBus(params)
        bus.submit("lo", True, 0, list(range(8)), 0.0)
        burst_ns = (params.handshake_cycles + params.memory_latency_cycles
                    + 2) * params.clock_period_ns
        bus.submit("hi", True, 0x40, [1, 2], burst_ns * 0.5)
        grants = bus.advance(float("inf"))
        by_master = {g.request.master: g for g in grants}
        # hi finishes before lo despite arriving later.
        assert by_master["hi"].end_ns < by_master["lo"].end_ns

    def test_grant_wait_time(self):
        bus = SharedBus(BusParameters(dma_block_words=8))
        bus.submit("a", True, 0, [1] * 8, 0.0)
        bus.submit("b", True, 0, [1] * 8, 0.0)
        grants = bus.advance(float("inf"))
        second = max(grants, key=lambda g: g.end_ns)
        assert second.wait_ns > 0

    def test_empty_transfer_rejected(self):
        bus = SharedBus()
        with pytest.raises(ValueError):
            bus.submit("m", True, 0, [], 0.0)

    def test_advance_respects_horizon(self):
        bus = SharedBus(BusParameters(dma_block_words=4))
        bus.submit("m", True, 0, [1] * 4, 1000.0)
        assert bus.advance(500.0) == []
        assert len(bus.advance(2000.0)) == 1

