"""Property tests: shared-bus timeline invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bus.busmodel import SharedBus
from repro.bus.dma import blocks_needed
from repro.bus.model import BusParameters


def transfer_lists():
    return st.lists(
        st.tuples(
            st.sampled_from(["m0", "m1", "m2"]),
            st.integers(min_value=0, max_value=200),  # base address
            st.lists(st.integers(0, 255), min_size=1, max_size=20),
            st.floats(min_value=0, max_value=10_000, allow_nan=False),
        ),
        min_size=1,
        max_size=15,
    )


@given(transfer_lists(), st.integers(min_value=1, max_value=16))
def test_all_requests_complete_with_consistent_accounting(transfers, dma):
    params = BusParameters(dma_block_words=dma,
                           priorities={"m0": 0, "m1": 1, "m2": 2})
    bus = SharedBus(params)
    transfers = sorted(transfers, key=lambda t: t[3])
    total_words = 0
    expected_blocks = 0
    for master, base, words, time in transfers:
        bus.submit(master, True, base, words, time)
        total_words += len(words)
        expected_blocks += blocks_needed(len(words), True, dma)
    grants = bus.advance(float("inf"))
    assert len(grants) == len(transfers)
    assert bus.total_words == total_words
    assert bus.total_grants == expected_blocks
    assert not bus.pending
    # Grants never start before submission and never overlap.
    intervals = []
    for grant in grants:
        assert grant.start_ns >= grant.request.submitted_ns
        assert grant.end_ns > grant.start_ns
        intervals.append((grant.start_ns, grant.end_ns, grant.request.master))
    # Busy time equals the sum of per-grant cycles.
    per_block = params.handshake_cycles + params.memory_latency_cycles
    min_cycles = expected_blocks * per_block + total_words
    assert bus.total_busy_cycles == min_cycles


@given(transfer_lists())
def test_energy_monotone_in_traffic(transfers):
    """More transfers never reduce total bus energy."""
    params = BusParameters(dma_block_words=4)
    transfers = sorted(transfers, key=lambda t: t[3])
    bus_all = SharedBus(params)
    bus_half = SharedBus(params)
    half = max(1, len(transfers) // 2)
    for index, (master, base, words, time) in enumerate(transfers):
        bus_all.submit(master, True, base, words, time)
        if index < half:
            bus_half.submit(master, True, base, words, time)
    bus_all.advance(float("inf"))
    bus_half.advance(float("inf"))
    assert bus_all.total_energy >= bus_half.total_energy


@given(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=32),
       st.integers(min_value=0, max_value=1 << 10),
       st.integers(min_value=1, max_value=8))
def test_line_activity_counts_hamming_toggles(words, base, dma):
    """Bus energy is exactly the line toggles of the values moved.

    Each DMA burst charges one arbitration, the address lines flipped
    to reach its first address, and the data lines flipped by each of
    its words, both buses masked to their widths (8 bits here, so wider
    values exercise the mask).  The oracle sums in the model's order.
    """
    params = BusParameters.paper_figure7(dma)
    bus = SharedBus(params)
    bus.submit("m", True, base, words, 0.0)
    bus.advance(float("inf"))
    addr_mask = (1 << params.addr_width) - 1
    data_mask = (1 << params.data_width) - 1
    per_toggle = params.energy_per_toggle()
    expected = 0.0
    last_addr = last_data = 0
    for first in range(0, len(words), dma):
        address = (base + first) & addr_mask
        energy = params.arbitration_energy_j
        energy += bin(last_addr ^ address).count("1") * per_toggle
        last_addr = address
        for word in words[first:first + dma]:
            word &= data_mask
            energy += bin(last_data ^ word).count("1") * per_toggle
            last_data = word
        expected += energy
    assert bus.total_energy == expected


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=128))
def test_blocks_needed_matches_ceiling(words, dma):
    import math
    assert blocks_needed(words, True, dma) == math.ceil(words / dma)
    assert blocks_needed(words, False, dma) == words
