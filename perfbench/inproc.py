"""Child process of the in-process workloads: ``estimate-stream`` and
``explore-fig7``.

The parent (``run.py``) starts this script once per set-up sample and
times it from spawn to the ``READY`` line.  Without ``--setup-only`` the
child goes on:

1. **Counter window**: the first ``window_ops`` operations run under the
   tracer, which counts the deterministic counters (and, with
   ``--trace 1``, is the traced phase that gives the per-layer metrics).
2. Untraced: the tracer is removed and operations continue for
   ``--seconds`` — the end-to-end phase.
   Traced: the same window is replayed untraced from cold caches to
   give ``trace.overhead_ratio``.

The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from typing import Any, Dict, List

import common
import tracer as tracing

DETERMINISTIC = ("hw.calls", "hw.cycles", "hw.memo_hits", "sw.iss_cycles",
                 "master.events", "cache.accesses", "bus.grants")


#: Packet sizes in words: the default range of the ``tcpip`` builder.
PACKET_WORDS = (24, 64)


@dataclasses.dataclass
class OpResult:
    """One operation.  Times are in reference seconds (``common.timed``)."""

    points: int
    transitions: int
    failed: int
    seconds: float
    latencies_ms: List[float]
    payload: Any


class StimulusSeeds:
    """Packet-stimulus seeds drawn from the workload seed, one per op.

    Only seeds whose packets total within one word per packet of the
    mean size are kept: every operation gets new stimuli but about the
    same amount of work, so runs with different workload seeds compare.
    """

    def __init__(self, seed: int, packets: int) -> None:
        self._rng = random.Random(seed)
        self._packets = packets
        self._seeds: List[int] = []

    def __getitem__(self, index: int) -> int:
        from repro.systems import workloads

        target = self._packets * sum(PACKET_WORDS) / 2
        while len(self._seeds) <= index:
            candidate = self._rng.randrange(1 << 30)
            events = workloads.packet_arrivals(
                self._packets, 1.0, size_range=PACKET_WORDS, seed=candidate)
            if abs(sum(event.value for event in events) - target) <= self._packets:
                self._seeds.append(candidate)
        return self._seeds[index]


class EstimateStream:
    """``PowerCoEstimator.estimate`` on ``tcpip`` (full), new stimuli per op."""

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.stimulus_seeds = StimulusSeeds(seed, params["packets_per_estimate"])

    def setup(self) -> None:
        from repro.core.coestimator import PowerCoEstimator
        from repro.estimation import FullStrategy
        from repro.master.master import SimulationMaster
        from repro.systems import tcpip

        self.bundle = tcpip.build_system()
        self.estimator = PowerCoEstimator(self.bundle.network,
                                          self.bundle.config)
        # Synthesis, netlist compile and codegen happen on construction.
        SimulationMaster(self.bundle.network, FullStrategy(),
                         self.bundle.config)

    def stimuli(self, index: int):
        from repro.systems import tcpip, workloads

        return workloads.packet_arrivals(
            self.params["packets_per_estimate"],
            tcpip.DEFAULT_PACKET_PERIOD_NS,
            size_range=PACKET_WORDS,
            seed=self.stimulus_seeds[index],
        )

    def op(self, index: int, telemetry=None) -> OpResult:
        stimuli = self.stimuli(index)
        result, seconds, _ = common.timed(lambda: self.estimator.estimate(
            stimuli, strategy="full",
            shared_memory_image=self.bundle.shared_memory_image,
            telemetry=telemetry,
        ))
        report = result.report
        exact = set(report.provenance) == {"exact"}
        return OpResult(
            points=1,
            transitions=sum(report.transitions.values()),
            failed=0 if exact else 1,
            seconds=seconds,
            latencies_ms=[seconds * 1000.0],
            payload=common.without_timing(dataclasses.asdict(report)),
        )


class ExploreFig7:
    """The Fig. 7 sweep through ``parallel_sweep(jobs=1)``."""

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.stimulus_seeds = StimulusSeeds(seed, params["packets"])

    def setup(self) -> None:
        from repro.estimation import FullStrategy
        from repro.master.master import SimulationMaster
        from repro.systems import tcpip

        for dma in self.params["dma"]:
            bundle = tcpip.build_system(dma_block_words=dma)
            SimulationMaster(bundle.network, FullStrategy(), bundle.config)

    def op(self, index: int) -> OpResult:
        from repro.core import explorer
        from repro.systems import tcpip

        # A probe after every point scales the point between it and the
        # probe before (``JobResult.seconds`` excludes the probes).
        scales: Dict[str, float] = {}
        last_probe = [common.probe_s()]

        def on_point(result) -> None:
            probe = common.probe_s()
            scales[result.label] = 2 * common.PROBE_REF_S / (last_probe[0]
                                                             + probe)
            last_probe[0] = probe

        points, results = explorer.parallel_sweep(
            "repro.systems.tcpip:build_system",
            self.params["dma"],
            explorer.priority_permutations(list(tcpip.BUS_MASTERS)),
            strategy="caching",
            jobs=1,
            builder_kwargs={"num_packets": self.params["packets"],
                            "seed": self.stimulus_seeds[index]},
            on_point=on_point,
        )
        done = [point for point in points if point is not None]
        seconds = [result.seconds * scales[result.label] for result in results]
        return OpResult(
            points=len(done),
            transitions=sum(sum(point.report.transitions.values())
                            for point in done),
            failed=self.params["points_per_sweep"] - len(done),
            seconds=sum(seconds),
            latencies_ms=[value * 1000.0 for value in seconds],
            payload=explorer.sweep_summary_rows(done),
        )


WORKLOADS = {"estimate-stream": EstimateStream, "explore-fig7": ExploreFig7}


def run_window(workload, tracer: tracing.Tracer, count: int):
    """``count`` ops inside one benchmark root span; returns (results,
    reference seconds, deterministic counter deltas)."""
    counts_before = dict(tracer.counts)
    stats_before = tracing.memo_stats()
    tracer.enter(tracing.UNATTRIBUTED)
    results = [workload.op(index) for index in range(count)]
    tracer.exit()
    counts = {name: tracer.counts.get(name, 0) - counts_before.get(name, 0)
              for name in DETERMINISTIC}
    counts.update(tracing.stats_delta(stats_before))
    return results, sum(result.seconds for result in results), {
        name: int(counts[name]) for name in DETERMINISTIC}


def telemetry_overhead(workload: EstimateStream, ops: int) -> float:
    """Time per estimate with a live ``Telemetry()`` over the null bundle."""
    from repro.hw.estimator import clear_hw_run_memo
    from repro.telemetry import Telemetry

    seconds = {"null": 0.0, "enabled": 0.0}
    for index in range(ops):
        order = ("null", "enabled") if index % 2 == 0 else ("enabled", "null")
        for variant in order:
            clear_hw_run_memo()
            telemetry = Telemetry() if variant == "enabled" else None
            seconds[variant] += workload.op(index, telemetry=telemetry).seconds
    return seconds["enabled"] / seconds["null"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    params = common.load_config()["workloads"][args.workload]["params"]

    common.use_source_tree()
    tracer = tracing.Tracer()
    installation = None
    stats_at_start = tracing.memo_stats()
    if args.trace:
        installation = tracing.install(tracer)
        tracer.enter(tracing.UNATTRIBUTED)
    workload = WORKLOADS[args.workload](params, args.seed)
    workload.setup()
    if args.trace:
        tracer.exit()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if installation is None:
        installation = tracing.install(tracer)
    window_ops = params["window_ops"]
    phase_started = time.perf_counter()
    window, window_s, counters = run_window(workload, tracer, window_ops)
    out: Dict[str, Any] = {
        # Taken after a fixed amount of work: the exact memo keeps
        # growing with every operation the timed phase fits in.
        "peak_rss_mb": common.peak_rss_mb_self(),
        "counters": counters,
        "digest": common.digest([result.payload for result in window]),
        "window_failed": sum(result.failed for result in window),
        "window_attempted": sum(max(result.points, 1) for result in window),
    }
    if args.trace:
        # The traced phase goes on past the counter window for the
        # run's length.
        index = window_ops
        tracer.enter(tracing.UNATTRIBUTED)
        while time.perf_counter() - phase_started < args.seconds:
            result = workload.op(index)
            out["window_failed"] += result.failed
            out["window_attempted"] += max(result.points, 1)
            index += 1
        tracer.exit()
    installation.remove()
    if args.trace:
        out["trace"] = tracer.snapshot()
        out["trace"]["counts"].update(tracing.stats_delta(stats_at_start))
        common.cold_caches()
        replay = WORKLOADS[args.workload](params, args.seed)
        replay.setup()
        replay_s = sum(replay.op(index).seconds for index in range(window_ops))
        out["trace_overhead_ratio"] = window_s / replay_s
        if args.workload == "estimate-stream":
            out["telemetry_overhead_ratio"] = telemetry_overhead(
                replay, params["telemetry_ops"])
    else:
        results: List[OpResult] = []
        index = window_ops
        started = time.perf_counter()
        while time.perf_counter() - started < args.seconds:
            results.append(workload.op(index))
            index += 1
        out["busy_s"] = sum(result.seconds for result in results)
        out["points"] = sum(result.points for result in results)
        out["attempted"] = sum(max(result.points, 1) for result in results)
        out["failed"] = sum(result.failed for result in results)
        out["transitions"] = sum(result.transitions for result in results)
        out["latencies_ms"] = [latency for result in results
                               for latency in result.latencies_ms]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
