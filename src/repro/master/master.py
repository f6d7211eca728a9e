"""The co-simulation master.

``SimulationMaster`` simulates the discrete-event behavioral model of a
CFSM network and synchronizes the component power estimators around it,
one CFSM transition at a time:

* software transitions are serialized on the embedded processor by the
  RTOS model and estimated by the ISS (or an acceleration strategy);
* hardware transitions run concurrently on their synthesized blocks and
  are estimated by the gate-level power simulator (or a strategy);
* memory references extracted from behavioral execution feed the cache
  simulator directly (the ISS assumes 100% hits, as in the paper);
* shared-memory accesses and bus-mapped events become transactions on
  the shared-bus model, whose grants gate transition completion times.

Because behavioral execution is the reference semantics, acceleration
strategies can skip low-level simulation without perturbing system
behaviour — they only trade accuracy of the *cycle and energy numbers*,
which is exactly the trade-off the paper's Section 4 explores.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple
from repro.errors import EstimatorUnavailable, ReproError

from repro.bus.busmodel import SharedBus
from repro.bus.model import BusParameters
from repro.cache.cachesim import CacheConfig, CacheSimulator
from repro.cfsm.events import Event
from repro.cfsm.model import Cfsm, Implementation, Network, Transition
from repro.cfsm.sgraph import ExecutionTrace
from repro.estimation import Estimate, EstimationJob, EstimationStrategy, FullStrategy
from repro.hw.estimator import HardwarePowerSimulator
from repro.hw.library import GateLibrary
from repro.master.kernel import EventQueue
from repro.master.rtos import RtosConfig, RtosScheduler
from repro.master.tracing import EnergyAccountant
from repro.sw.codegen import (
    SHARED_MEMORY_BASE,
    CompiledCfsm,
    compile_cfsm_cached,
    transition_label,
)
from repro.sw.iss import Iss
from repro.sw.power_model import InstructionPowerModel
from repro.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.resilience.supervisor import ResilienceConfig, ResilientEstimator


class MasterError(ReproError):
    """Raised for co-simulation configuration or runtime errors."""


class SharedMemory:
    """The system's shared memory, owned by the master."""

    def __init__(self) -> None:
        self.words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read(self, address: int) -> int:
        self.reads += 1
        return self.words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self.writes += 1
        self.words[address] = value

    def load(self, base: int, values: List[int]) -> None:
        """Bulk-initialize (testbench helper; not counted as traffic)."""
        for offset, value in enumerate(values):
            self.words[base + offset] = value


class _MaskedSharedMemory:
    """Width-masking view of shared memory for hardware processes.

    A synthesized block's memory ports are exactly ``width`` bits wide,
    so a hardware process can neither observe nor drive bits above its
    datapath width.  Routing behavioral shared accesses through this
    view keeps the reference semantics identical to what the netlist
    sees (the gate-level simulator masks its read script the same way).
    """

    def __init__(self, inner: SharedMemory, mask: int) -> None:
        self._inner = inner
        self._mask = mask

    def read(self, address: int) -> int:
        return self._inner.read(address) & self._mask

    def write(self, address: int, value: int) -> None:
        self._inner.write(address, value & self._mask)


@dataclass
class MasterConfig:
    """Co-simulation parameters."""

    cpu_clock_period_ns: float = 10.0
    bus_params: BusParameters = field(default_factory=BusParameters)
    cache_config: Optional[CacheConfig] = field(default_factory=CacheConfig)
    rtos: RtosConfig = field(default_factory=RtosConfig)
    power_model: InstructionPowerModel = field(
        default_factory=InstructionPowerModel.default_sparclite
    )
    library: GateLibrary = field(default_factory=GateLibrary.default)
    keep_samples: bool = True
    max_dispatches: int = 2_000_000
    charge_hw_idle: bool = True
    record_reactions: bool = False
    zero_delay: bool = False
    zero_delay_epsilon_ns: float = 0.001
    #: Optional resilience layer: fault injection, watchdog/retry
    #: supervision of the component estimators, and the graceful
    #: degradation ladder (see :mod:`repro.resilience`).
    resilience: Optional[ResilienceConfig] = None


@dataclass
class ReactionRecord:
    """One logged behavioral reaction (for separate estimation)."""

    cfsm: str
    transition: str
    consumed_values: Dict[str, int]
    trace: ExecutionTrace
    time_ns: float


@dataclass
class RunStats:
    """Counters collected during one co-simulation run."""

    transitions: Dict[str, int] = field(default_factory=dict)
    iss_invocations: int = 0
    hw_invocations: int = 0
    low_level_seconds: float = 0.0
    wall_seconds: float = 0.0
    end_time_ns: float = 0.0
    dispatched: int = 0
    truncated: bool = False
    lost_events: int = 0
    strategy: Dict[str, float] = field(default_factory=dict)
    #: Transition counts by estimate provenance (exact/cached/...).
    provenance: Dict[str, int] = field(default_factory=dict)
    #: Resilience-layer counters (faults, retries, fallbacks, ...).
    resilience: Dict[str, float] = field(default_factory=dict)


class _Process:
    """Per-CFSM runtime state inside the master."""

    def __init__(self, cfsm: Cfsm, kind: str) -> None:
        self.cfsm = cfsm
        self.kind = kind
        self.buffer = cfsm.make_buffer()
        self.state = cfsm.initial_state()
        self.busy = False
        self.compiled: Optional[CompiledCfsm] = None
        #: Data-cache address of each memory-reference name
        #: (``"@event"`` for a mailbox), from ``compiled.memory_map``.
        self.cache_addresses: Dict[str, int] = {}
        self.iss: Optional[Iss] = None
        self.memory: Dict[int, int] = {}
        self.hw: Optional[HardwarePowerSimulator] = None
        self.active_cycles = 0.0


class SimulationMaster:
    """Runs power co-estimation for one network configuration."""

    _MEMORY_STRIDE = 0x1000

    def __init__(
        self,
        network: Network,
        strategy: Optional[EstimationStrategy] = None,
        config: Optional[MasterConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.network = network
        self.strategy = strategy or FullStrategy()
        self.config = config or MasterConfig()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.strategy.attach_telemetry(self.telemetry)
        self.queue = EventQueue()
        self.accountant = EnergyAccountant(
            keep_samples=self.config.keep_samples,
            tracer=self.telemetry.tracer,
        )
        self.shared_memory = SharedMemory()
        self.bus = SharedBus(self.config.bus_params, telemetry=self.telemetry)
        self.cache = (
            CacheSimulator(self.config.cache_config, telemetry=self.telemetry)
            if self.config.cache_config is not None
            else None
        )
        self.rtos = RtosScheduler(self.config.rtos)
        self.resilience: Optional[ResilientEstimator] = None
        if self.config.resilience is not None:
            # Imported here: runs without a resilience layer never load it.
            from repro.resilience import supervisor

            self.resilience = supervisor.ResilientEstimator(
                self.config.resilience,
                power_model=self.config.power_model,
                library=self.config.library,
                telemetry=self.telemetry,
            )
        self.stats = RunStats()
        self.reactions: List[ReactionRecord] = []

        self._processor_busy = False
        self._pending_reads: Dict[int, Dict] = {}
        self._pending_events: Dict[int, Tuple[str, int, str]] = {}
        self._bus_kick_scheduled_at = -1.0
        self._now = 0.0

        # Map bus-mapped events onto distinct "addresses" so that the
        # address-bus switching activity is meaningful.
        self._bus_event_addresses = {
            name: index for index, name in enumerate(sorted(network.bus_events))
        }

        self.processes: Dict[str, _Process] = {}
        base = self._MEMORY_STRIDE
        for name in sorted(network.cfsms):
            cfsm = network.cfsms[name]
            kind = network.implementation(name)
            process = _Process(cfsm, kind)
            if kind == Implementation.SW:
                if not self.config.zero_delay:
                    process.compiled = compile_cfsm_cached(cfsm, memory_base=base)
                    memory_map = process.compiled.memory_map
                    process.cache_addresses = dict(memory_map.variables)
                    process.cache_addresses.update(
                        ("@" + event, address)
                        for event, address in memory_map.event_mailboxes.items()
                    )
                    process.iss = Iss(
                        process.compiled.program,
                        self.config.power_model,
                        telemetry=self.telemetry,
                    )
                    process.memory = {
                        process.compiled.memory_map.variables[var]: value
                        for var, value in cfsm.initial_state().items()
                    }
                base += self._MEMORY_STRIDE
            else:
                if not self.config.zero_delay:
                    process.hw = HardwarePowerSimulator(
                        cfsm, self.config.library, telemetry=self.telemetry
                    )
            self.processes[name] = process

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, stimuli: List[Event], until_ns: Optional[float] = None) -> RunStats:
        """Co-simulate with the given environment stimuli.

        Args:
            stimuli: environment events (each with a ``time`` stamp).
            until_ns: optional simulation-time horizon.

        Returns:
            The collected :class:`RunStats`; detailed energy lives in
            :attr:`accountant` and component statistics on the bus,
            cache, and RTOS objects.
        """
        started = _time.perf_counter()
        for stimulus in stimuli:
            if stimulus.time is None:
                raise MasterError("stimulus %r has no timestamp" % (stimulus,))
            self.queue.schedule(stimulus.time, "deliver", stimulus)

        telemetry = self.telemetry
        depth_histogram = (
            telemetry.metrics.histogram(
                "master.queue_depth",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            )
            if telemetry.enabled
            else None
        )

        handlers = {
            "deliver": self._on_deliver,
            "try": self._on_try,
            "dispatch": self._on_dispatch,
            "complete": self._on_complete,
            "buskick": self._on_buskick,
        }
        heap = self.queue.heap
        pop = heapq.heappop
        stats = self.stats
        max_dispatches = self.config.max_dispatches
        horizon = float("inf") if until_ns is None else until_ns
        while heap:
            if stats.dispatched >= max_dispatches:
                stats.truncated = True
                break
            if depth_histogram is not None:
                depth_histogram.observe(len(heap))
            time, _, kind, payload = pop(heap)
            if time > horizon:
                stats.truncated = True
                break
            if time > self._now:
                self._now = time
            stats.dispatched += 1
            handlers[kind](time, payload)

        self.stats.end_time_ns = self._now
        self._charge_hw_idle()
        self._charge_bus_and_cache_summaries()
        self.stats.strategy = self.strategy.statistics()
        if self.resilience is not None:
            self.stats.resilience = self.resilience.statistics()
        self.stats.wall_seconds = _time.perf_counter() - started
        if telemetry.enabled:
            self._publish_metrics()
        return self.stats

    def total_energy(self) -> float:
        """Total system energy accumulated so far (joules)."""
        return self.accountant.total_energy

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_deliver(self, now: float, event: Event) -> None:
        consumers = self.network.consumers_of(event.name)
        if not consumers:
            self.stats.lost_events += 1
            return
        if event.name in self.network.reset_events:
            for cfsm in consumers:
                self._reset_process(cfsm.name)
            return
        for cfsm in consumers:
            process = self.processes[cfsm.name]
            delivered = event.at(now)
            if process.kind != Implementation.SW and delivered.value is not None:
                # A synthesized block's event-value ports are ``width``
                # bits wide: the netlist can only observe the masked
                # word.  Masking at delivery keeps the behavioral
                # reference in lock-step with the gate-level engine for
                # out-of-range values (e.g. negative words from a
                # software producer).
                mask = (1 << cfsm.width) - 1
                if delivered.value & mask != delivered.value:
                    delivered = Event(
                        delivered.name, delivered.value & mask, now, delivered.source
                    )
            before = process.buffer.overwrite_count
            process.buffer.deliver(delivered)
            if process.buffer.overwrite_count > before:
                self.stats.lost_events += 1
            self.queue.schedule(now, "try", cfsm.name)

    def _reset_process(self, name: str) -> None:
        """``watching RESET``: re-initialize one process.

        The behavioral state returns to its initial values, pending
        events are dropped, and the low-level engines' architectural
        state is brought back in sync.  A transition already in flight
        completes (its energy was spent), but reacts from fresh state
        afterwards.
        """
        process = self.processes[name]
        process.state = process.cfsm.initial_state()
        process.buffer.clear()
        if process.kind == Implementation.SW:
            self.rtos.remove(name)
            if process.compiled is not None:
                memory_map = process.compiled.memory_map
                for var, value in process.state.items():
                    process.memory[memory_map.variables[var]] = value
        elif process.hw is not None:
            process.hw.poke_variables(process.state)

    def _on_try(self, now: float, name: str) -> None:
        process = self.processes[name]
        if process.busy:
            return
        transition = process.cfsm.enabled_transition(process.buffer, process.state)
        if transition is None:
            if process.kind == Implementation.SW:
                self.rtos.remove(name)
            return
        if process.kind == Implementation.SW:
            # Mark ready now but dispatch through the queue, so that
            # every process enabled at this same instant is in the
            # ready set before the scheduler picks — otherwise arrival
            # order would silently override the RTOS priorities.
            self.rtos.make_ready(name)
            self.queue.schedule(now, "dispatch", None)
        else:
            self._start_transition(name, now, rtos_overhead_cycles=0)

    def _on_dispatch(self, now: float, _payload=None) -> None:
        self._dispatch_processor(now)

    def _dispatch_processor(self, now: float) -> None:
        if self._processor_busy or not self.rtos.has_ready():
            return
        name = self.rtos.pick()
        if name is None:
            return
        process = self.processes[name]
        transition = process.cfsm.enabled_transition(process.buffer, process.state)
        if transition is None:
            # The enabling events were consumed by an earlier dispatch
            # of the same process; try the next candidate.
            self._dispatch_processor(now)
            return
        self._start_transition(name, now, rtos_overhead_cycles=self.rtos.last_overhead_cycles)

    def _on_complete(self, now: float, payload) -> None:
        name, emissions = payload
        process = self.processes[name]
        process.busy = False
        for event_name, value in emissions:
            self._emit_event(name, event_name, value, now)
        if process.kind == Implementation.SW:
            self._processor_busy = False
            self.queue.schedule(now, "dispatch", None)
        self.queue.schedule(now, "try", name)

    def _on_buskick(self, now: float, _payload=None) -> None:
        self._bus_kick_scheduled_at = -1.0
        grants = self.bus.advance(now)
        for grant in grants:
            self.accountant.add(
                "_bus",
                "bus",
                grant.start_ns,
                grant.end_ns,
                grant.energy_j,
                tag=grant.request.master,
            )
            request_id = grant.request.request_id
            if request_id in self._pending_reads:
                record = self._pending_reads.pop(request_id)
                record["remaining"] -= 1
                record["last_end"] = max(record["last_end"], grant.end_ns)
                if record["remaining"] == 0:
                    record["finish"](record["last_end"])
            elif request_id in self._pending_events:
                event_name, value, source = self._pending_events.pop(request_id)
                self.queue.schedule(
                    grant.end_ns,
                    "deliver",
                    Event(event_name, value, grant.end_ns, source),
                )
        self._schedule_bus_kick(now)

    # ------------------------------------------------------------------
    # Transition execution
    # ------------------------------------------------------------------

    def _start_transition(self, name: str, now: float, rtos_overhead_cycles: int) -> None:
        process = self.processes[name]
        cfsm = process.cfsm
        transition = cfsm.enabled_transition(process.buffer, process.state)
        if transition is None:
            return
        process.busy = True
        if process.kind == Implementation.SW:
            self._processor_busy = True

        tracer = self.telemetry.tracer
        span = None
        wall_started = 0.0
        if tracer.enabled:
            wall_started = _time.perf_counter()
            span = tracer.span(
                "reaction:%s" % name,
                track="master",
                args={"transition": transition.name,
                      "kind": str(process.kind),
                      "t_ns": now},
            )

        consumed_values = {
            event: process.buffer.value(event)
            for event in transition.consumes
            if process.buffer.present(event)
        }
        pre_state = dict(process.state)
        shared = self.shared_memory
        if process.kind != Implementation.SW:
            # Same width discipline as event delivery: the block's
            # memory ports clip shared words to the datapath width.
            shared = _MaskedSharedMemory(shared, (1 << cfsm.width) - 1)
        trace = cfsm.react(transition, process.buffer, process.state, shared=shared)
        if process.kind != Implementation.SW:
            # Register writes in the netlist are masked to ``width``
            # bits; fold the behavioral state the same way so a later
            # transition branches on the value the hardware holds.
            mask = (1 << cfsm.width) - 1
            for var, value in trace.var_updates.items():
                masked = value & mask
                trace.var_updates[var] = masked
                process.state[var] = masked
        self.stats.transitions[name] = self.stats.transitions.get(name, 0) + 1
        if self.config.record_reactions:
            self.reactions.append(
                ReactionRecord(name, transition.name, dict(consumed_values), trace, now)
            )

        emissions = list(trace.emitted)
        if process.kind != Implementation.SW:
            # Emission value ports are width-bits wide as well.
            mask = (1 << cfsm.width) - 1
            emissions = [(event, value & mask) for event, value in emissions]

        estimate = self._estimate(process, transition, trace, consumed_values, pre_state)

        # Cache simulation from behavioral memory references (SW only).
        stall_cycles = 0
        cache_energy = 0.0
        if (
            process.kind == Implementation.SW
            and self.cache is not None
            and not self.config.zero_delay
            and trace.memory_refs
            and self._component_ok("cache")
        ):
            stall_cycles, cache_energy = self._simulate_cache(process, trace)

        period = (
            self.config.cpu_clock_period_ns
            if process.kind == Implementation.SW
            else cfsm.clock_period_ns
        )
        if self.config.zero_delay:
            compute_ns = self.config.zero_delay_epsilon_ns
            rtos_energy = 0.0
        else:
            compute_cycles = estimate.cycles + stall_cycles + rtos_overhead_cycles
            compute_ns = compute_cycles * period
            rtos_energy = self.config.power_model.fill_energy(rtos_overhead_cycles)
        process.active_cycles += compute_ns / period if period > 0 else 0.0

        def finish(start_compute_ns: float) -> None:
            end_ns = start_compute_ns + compute_ns
            self.accountant.add(
                name, process.kind, start_compute_ns, end_ns, estimate.energy,
                tag=transition.name, provenance=estimate.provenance,
            )
            if cache_energy:
                self.accountant.add(
                    "_cache", "cache", start_compute_ns, end_ns, cache_energy, tag=name
                )
            if rtos_energy:
                self.accountant.add(
                    "_rtos", "rtos", start_compute_ns, end_ns, rtos_energy, tag=name
                )
            if (
                trace.shared_writes
                and not self.config.zero_delay
                and self._component_ok("bus")
            ):
                for base, words in _contiguous_runs(trace.shared_writes):
                    self.bus.submit(name, True, base, words, end_ns)
                self._schedule_bus_kick(end_ns)
            self.queue.schedule(end_ns, "complete", (name, emissions))

        if (
            trace.shared_reads
            and not self.config.zero_delay
            and self._component_ok("bus")
        ):
            runs = _contiguous_runs(trace.shared_reads)
            record = {
                "remaining": len(runs),
                "last_end": now,
                "finish": finish,
            }
            for base, words in runs:
                request = self.bus.submit(name, False, base, words, now)
                self._pending_reads[request.request_id] = record
            self._schedule_bus_kick(now)
        else:
            finish(now)

        if span is not None:
            span.set("cycles", estimate.cycles)
            span.set("energy_j", estimate.energy)
            span.set("ran_low_level", estimate.ran_low_level)
            span.close()
            self.telemetry.metrics.histogram("master.reaction_seconds").observe(
                _time.perf_counter() - wall_started
            )

    def _estimate(
        self,
        process: _Process,
        transition: Transition,
        trace: ExecutionTrace,
        consumed_values: Dict[str, int],
        pre_state: Dict[str, int],
    ) -> Estimate:
        if self.config.zero_delay:
            return Estimate(cycles=1, energy=0.0, ran_low_level=False)
        name = process.cfsm.name

        if process.kind == Implementation.SW:
            def run_low_level() -> Estimate:
                started = _time.perf_counter()
                memory_map = process.compiled.memory_map
                for event, value in consumed_values.items():
                    if event in memory_map.event_mailboxes:
                        process.memory[memory_map.event_mailboxes[event]] = value
                for address, value in trace.shared_reads:
                    process.memory[SHARED_MEMORY_BASE + address] = value
                result = process.iss.run(
                    transition_label(name, transition.name), process.memory
                )
                self.stats.iss_invocations += 1
                self.stats.low_level_seconds += _time.perf_counter() - started
                return Estimate(result.cycles, result.energy, True)
        else:
            def run_low_level() -> Estimate:
                started = _time.perf_counter()
                process.hw.poke_variables(pre_state)
                result = process.hw.run_transition(
                    transition.name,
                    consumed_values,
                    read_values=[value for _, value in trace.shared_reads],
                )
                self.stats.hw_invocations += 1
                self.stats.low_level_seconds += _time.perf_counter() - started
                return Estimate(result.cycles, result.energy, True)

        if self.resilience is not None:
            site = "iss" if process.kind == Implementation.SW else "hw"
            run_low_level = self.resilience.supervise(
                site,
                name,
                run_low_level,
                path_key=(name, transition.name, trace.path),
                sim_time_ns=self._now,
            )

        job = EstimationJob(
            cfsm=process.cfsm,
            transition=transition,
            trace=trace,
            kind=process.kind,
            run_low_level=run_low_level,
        )
        tracer = self.telemetry.tracer
        if tracer.enabled:
            with tracer.span(
                "estimate:%s" % self.strategy.name,
                track="strategy",
                args={"cfsm": name, "transition": transition.name},
            ) as estimate_span:
                estimate = self._estimate_supervised(job)
                estimate_span.set("ran_low_level", estimate.ran_low_level)
                estimate_span.set("provenance", estimate.provenance)
        else:
            estimate = self._estimate_supervised(job)
        self.stats.provenance[estimate.provenance] = (
            self.stats.provenance.get(estimate.provenance, 0) + 1
        )

        # Keep the low-level engines' architectural state in sync with
        # the behavioral reference even when they were skipped.
        if process.kind == Implementation.SW and process.compiled is not None:
            memory_map = process.compiled.memory_map
            for var, value in trace.var_updates.items():
                process.memory[memory_map.variables[var]] = value
        elif process.kind == Implementation.HW and not estimate.ran_low_level:
            process.hw.poke_variables(process.state)
        return estimate

    def _estimate_supervised(self, job: EstimationJob) -> Estimate:
        """Ask the strategy, riding the degradation ladder on failure.

        With a resilience layer armed, a persistently failed component
        estimator becomes a fallback estimate instead of an aborted run.
        Every estimate leaves with a provenance tag; strategies that
        didn't set one get it derived here (low-level run → ``exact``;
        macro-modeling → ``macromodel``; caching and sampling replay
        prior statistics → ``cached``).
        """
        try:
            estimate = self.strategy.estimate(job)
        except EstimatorUnavailable:
            if self.resilience is None:
                raise
            estimate = self.resilience.fallback(job)
        if not estimate.provenance:
            if estimate.ran_low_level:
                estimate.provenance = "exact"
            elif self.strategy.name == "macromodel":
                estimate.provenance = "macromodel"
            else:
                estimate.provenance = "cached"
        return estimate

    def _simulate_cache(
        self, process: _Process, trace: ExecutionTrace
    ) -> Tuple[int, float]:
        tracer = self.telemetry.tracer
        span = None
        if tracer.enabled and trace.memory_refs:
            span = tracer.span(
                "cache.simulate",
                track="master",
                args={"cfsm": process.cfsm.name,
                      "references": len(trace.memory_refs)},
            )
        addresses = process.cache_addresses
        access = self.cache.access
        stall_cycles = 0
        energy = 0.0
        for reference in trace.memory_refs:
            address = addresses.get(reference.name)
            if address is None:
                continue
            outcome = access(address, reference.is_write)
            stall_cycles += outcome.stall_cycles
            energy += outcome.energy_j
        if span is not None:
            span.set("stall_cycles", stall_cycles)
            span.close()
        return stall_cycles, energy

    # ------------------------------------------------------------------
    # Emission and bus plumbing
    # ------------------------------------------------------------------

    def _component_ok(self, site: str) -> bool:
        """Fault-gate one cache/bus boundary use (True without faults).

        A faulted invocation is *bypassed*: the run proceeds without
        that component's timing/energy contribution, and the bypass is
        counted so reports show how much accounting was lost.
        """
        if self.resilience is None:
            return True
        return self.resilience.component_ok(site)

    def _emit_event(self, source: str, event_name: str, value: int, now: float) -> None:
        if (
            event_name in self.network.bus_events
            and not self.config.zero_delay
            and self._component_ok("bus")
        ):
            address = self._bus_event_addresses[event_name]
            request = self.bus.submit(source, True, address, [value], now)
            self._pending_events[request.request_id] = (event_name, value, source)
            self._schedule_bus_kick(now)
        else:
            self.queue.schedule(now, "deliver", Event(event_name, value, now, source))

    def _schedule_bus_kick(self, now: float) -> None:
        next_time = self.bus.next_start_ns
        if next_time == math.inf:
            return
        if next_time <= now:
            next_time = now
        if (
            self._bus_kick_scheduled_at < 0
            or next_time < self._bus_kick_scheduled_at - 1e-12
        ):
            self.queue.schedule(next_time, "buskick", None)
            self._bus_kick_scheduled_at = next_time
            tracer = self.telemetry.tracer
            if tracer.enabled:
                tracer.instant(
                    "bus.kick_scheduled",
                    track="bus",
                    args={"at_ns": next_time,
                          "pending": len(self.bus.pending)},
                )

    # ------------------------------------------------------------------
    # Metrics publication
    # ------------------------------------------------------------------

    def _publish_metrics(self) -> None:
        """Write run counters into the metrics registry.

        Called once at end of run (never on the hot path) so the
        snapshot always agrees with :class:`RunStats` and with the
        strategy's :meth:`~repro.estimation.EstimationStrategy.statistics`.
        """
        metrics = self.telemetry.metrics
        stats = self.stats
        metrics.gauge("iss_calls").set(stats.iss_invocations)
        metrics.gauge("hw_sim_calls").set(stats.hw_invocations)
        metrics.gauge("master.transitions").set(sum(stats.transitions.values()))
        metrics.gauge("master.dispatched").set(stats.dispatched)
        metrics.gauge("master.lost_events").set(stats.lost_events)
        metrics.gauge("master.end_time_ns").set(stats.end_time_ns)
        metrics.gauge("master.wall_seconds").set(stats.wall_seconds)
        metrics.gauge("master.low_level_seconds").set(stats.low_level_seconds)
        if self.cache is not None:
            metrics.gauge("datacache.accesses").set(self.cache.accesses)
            metrics.gauge("datacache.hit_rate").set(self.cache.hit_rate)
            metrics.gauge("datacache.stall_cycles").set(
                self.cache.total_stall_cycles
            )
        metrics.gauge("bus.total_busy_cycles").set(self.bus.total_busy_cycles)
        metrics.gauge("bus.utilization").set(
            self.bus.utilization(stats.end_time_ns)
        )
        metrics.gauge("rtos.context_switches").set(
            getattr(self.rtos, "context_switches", 0)
        )
        for level, count in stats.provenance.items():
            metrics.gauge("provenance.%s" % level).set(count)
        if self.resilience is not None:
            self.resilience.publish_metrics()
        self.strategy.publish_metrics()
        self.accountant.publish_metrics(metrics)

    # ------------------------------------------------------------------
    # End-of-run charges
    # ------------------------------------------------------------------

    def _charge_hw_idle(self) -> None:
        if not self.config.charge_hw_idle or self.config.zero_delay:
            return
        for name, process in sorted(self.processes.items()):
            if process.kind != Implementation.HW or process.hw is None:
                continue
            period = process.cfsm.clock_period_ns
            total_cycles = self.stats.end_time_ns / period if period > 0 else 0.0
            idle_cycles = max(0.0, total_cycles - process.active_cycles)
            idle_energy = idle_cycles * process.hw.idle_energy_per_cycle()
            if idle_energy > 0:
                self.accountant.add(
                    name, "idle", 0.0, self.stats.end_time_ns, idle_energy
                )

    def _charge_bus_and_cache_summaries(self) -> None:
        # Bus grant energies are charged as they complete; anything
        # still pending at the horizon is flushed here.
        grants = self.bus.advance(float("inf"))
        for grant in grants:
            self.accountant.add(
                "_bus", "bus", grant.start_ns, grant.end_ns, grant.energy_j,
                tag=grant.request.master,
            )


def _contiguous_runs(accesses: List[Tuple[int, int]]) -> List[Tuple[int, List[int]]]:
    """Group (address, value) pairs into contiguous ascending runs."""
    runs: List[Tuple[int, List[int]]] = []
    for address, value in accesses:
        if runs:
            base, words = runs[-1]
            if address == base + len(words):
                words.append(value)
                continue
        runs.append((address, [value]))
    return runs
