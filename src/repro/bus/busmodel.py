"""The shared-bus timeline model.

The bus is a queued resource: masters submit word transfers, the
arbiter grants the bus one DMA burst at a time (so higher-priority
masters can grab it between bursts of a long transfer), and every
granted burst advances a busy-until timeline.  Each burst is charged
for the address and data line toggles of the actual values moved (the
Hamming distance to the previous value on each bus), which sums the
switching activity ``A(line_i)`` of the paper's bus power formula over
the lines.

The simulation master drives the model with two calls:

* :meth:`SharedBus.submit` when a transition produces a transfer, and
* :meth:`SharedBus.advance` before dispatching events at a new time,
  collecting completed grants to schedule their continuation events;

and reads :attr:`SharedBus.next_start_ns` to schedule the next one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bus.arbiter import PriorityArbiter
from repro.bus.dma import blocks_needed
from repro.bus.model import BusGrant, BusParameters, BusRequest
from repro.telemetry import NULL_TELEMETRY, Telemetry


@dataclass
class _Progress:
    first_start_ns: float
    blocks: int = 0
    cycles: int = 0
    energy_j: float = 0.0


class SharedBus:
    """Priority-arbitrated shared bus with DMA bursts."""

    def __init__(
        self,
        params: Optional[BusParameters] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.params = params or BusParameters()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.arbiter = PriorityArbiter(self.params.priorities,
                                       policy=self.params.arbitration)
        self.pending: List[BusRequest] = []
        self.busy_until_ns = 0.0
        self.total_energy = 0.0
        self.total_busy_cycles = 0
        self.total_words = 0
        self.total_grants = 0
        self._last_addr = 0
        self._last_data = 0
        self._next_id = 0
        self._progress: Dict[int, _Progress] = {}
        #: When the next burst can start: ``busy_until_ns`` or the
        #: earliest pending submission, whichever is later (infinity
        #: with nothing pending).  :meth:`submit` and :meth:`advance`
        #: keep it current.
        self.next_start_ns = math.inf

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        master: str,
        is_write: bool,
        base_address: int,
        words: List[int],
        time_ns: float,
    ) -> BusRequest:
        """Queue a transfer of ``words`` starting at ``base_address``."""
        if not words:
            raise ValueError("bus transfer needs at least one word")
        request = BusRequest(
            master=master,
            is_write=is_write,
            base_address=base_address,
            words=list(words),
            submitted_ns=time_ns,
            request_id=self._next_id,
        )
        self._next_id += 1
        self.pending.append(request)
        start = max(time_ns, self.busy_until_ns)
        if start < self.next_start_ns:
            self.next_start_ns = start
        return request

    # -- timeline ------------------------------------------------------------

    def advance(self, now_ns: float) -> List[BusGrant]:
        """Serve every burst that can start at or before ``now_ns``.

        Returns completed requests as grants; a grant's ``end_ns`` may
        lie slightly beyond ``now_ns`` when its final burst started
        before ``now_ns`` — the caller schedules the completion event
        at that future time.
        """
        completed: List[BusGrant] = []
        pending = self.pending
        while pending:
            # One pass: the requests submitted by the time the bus
            # frees, and failing those the earliest submitted ones.
            start = self.busy_until_ns
            ready = []
            earliest = math.inf
            first: List[BusRequest] = []
            for request in pending:
                submitted = request.submitted_ns
                if submitted <= start:
                    ready.append(request)
                elif submitted < earliest:
                    earliest = submitted
                    first = [request]
                elif submitted == earliest:
                    first.append(request)
            if not ready:
                start = earliest
                ready = first
            if start > now_ns:
                self.next_start_ns = start
                return completed
            grant = self._serve_burst(self.arbiter.pick(ready), start)
            if grant is not None:
                completed.append(grant)
        self.next_start_ns = math.inf
        return completed

    def _serve_burst(self, request: BusRequest, start_ns: float) -> Optional[BusGrant]:
        params = self.params
        progress = self._progress.get(request.request_id)
        if progress is None:
            progress = _Progress(first_start_ns=start_ns)
            self._progress[request.request_id] = progress
            self.arbiter.record_grant(request, start_ns)

        burst_words = params.dma_block_words if params.dma_enabled else 1
        count = min(burst_words, request.remaining)
        words = request.words[request.words_done:request.words_done + count]
        address = request.base_address + request.words_done

        energy = params.arbitration_energy_j
        energy += self._drive_address(address)
        for word in words:
            energy += self._drive_data(word)

        cycles = (
            params.handshake_cycles
            + params.memory_latency_cycles
            + count * params.cycles_per_word
        )
        self.busy_until_ns = start_ns + cycles * params.clock_period_ns
        self.total_busy_cycles += cycles
        self.total_energy += energy
        self.total_words += count
        self.total_grants += 1
        progress.blocks += 1
        progress.cycles += cycles
        progress.energy_j += energy
        request.words_done += count

        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("bus.bursts").inc()
            telemetry.metrics.counter("bus.words").inc(count)

        if request.remaining > 0:
            return None
        self.pending.remove(request)
        self._progress.pop(request.request_id)
        grant = BusGrant(
            request=request,
            start_ns=progress.first_start_ns,
            end_ns=self.busy_until_ns,
            blocks=progress.blocks,
            bus_cycles=progress.cycles,
            energy_j=progress.energy_j,
        )
        if telemetry.enabled:
            telemetry.metrics.counter("bus.grants").inc()
            telemetry.tracer.instant(
                "bus.grant",
                track="bus",
                args={
                    "master": request.master,
                    "words": len(request.words),
                    "start_ns": grant.start_ns,
                    "end_ns": grant.end_ns,
                    "energy_j": grant.energy_j,
                },
            )
        return grant

    # -- line activity ------------------------------------------------------------

    def _drive_address(self, address: int) -> float:
        mask = (1 << self.params.addr_width) - 1
        toggles = ((self._last_addr ^ address) & mask).bit_count()
        self._last_addr = address & mask
        return toggles * self.params.energy_per_toggle()

    def _drive_data(self, word: int) -> float:
        mask = (1 << self.params.data_width) - 1
        toggles = ((self._last_data ^ word) & mask).bit_count()
        self._last_data = word & mask
        return toggles * self.params.energy_per_toggle()

    # -- reporting ------------------------------------------------------------

    def expected_blocks(self, total_words: int) -> int:
        """Arbitrations a transfer of ``total_words`` will need."""
        return blocks_needed(
            total_words, self.params.dma_enabled, self.params.dma_block_words
        )

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of elapsed time the bus was driving a burst."""
        if elapsed_ns <= 0:
            return 0.0
        busy_ns = self.total_busy_cycles * self.params.clock_period_ns
        return min(1.0, busy_ns / elapsed_ns)
