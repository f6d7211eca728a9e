"""The repository benchmark: four workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload estimate-stream --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` is a separate run under the span tracer
(``tracer.py``) that reports per-layer self times and counts.  Both
check the program's outputs.  The human-readable lines come first; the
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, their parameters and the reason each was chosen live in
``perfbench/config.json``; ``perfbench/README.md`` explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("transitions_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("hw.step_s", "s"), ("hw.cycles", "count"), ("hw.step_us_per_cycle", "us"),
    ("hw.run_self_s", "s"), ("hw.calls", "count"), ("hw.memo_hits", "count"),
    ("hw.memo_hit_ratio", "ratio"),
    ("hw.synth_s", "s"), ("hw.compile_s", "s"), ("hw.compile_misses", "count"),
    ("sw.iss_s", "s"), ("sw.iss_calls", "count"), ("sw.iss_cycles", "count"),
    ("sw.codegen_s", "s"),
    ("cfsm.react_s", "s"), ("cfsm.reactions", "count"),
    ("master.self_s", "s"), ("master.events", "count"),
    ("bus.s", "s"), ("bus.grants", "count"),
    ("cache.access_s", "s"), ("cache.accesses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("core.strategy_self_s", "s"), ("core.estimates", "count"),
    ("core.low_level_ratio", "ratio"), ("core.facade_s", "s"),
    ("resilience.watchdog_s", "s"), ("resilience.calls", "count"),
    ("parallel.execute_overhead_s", "s"), ("parallel.sweep_s", "s"),
    ("service.self_s", "s"), ("service.queue_ms", "ms"),
    ("service.run_ms", "ms"), ("service.overhead_ms", "ms"),
    ("service.coalesced_ratio", "ratio"), ("service.rejected", "count"),
    ("cluster.worker_self_s", "s"), ("cluster.overhead_s", "s"),
    ("cluster.redispatches", "count"), ("cluster.worker_skew", "ratio"),
    ("cluster.coordinator_cpu_s", "s"),
    ("telemetry.enabled_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"), ("trace.wall_s", "s"),
    ("unattributed_s", "s"), ("client.late_ms", "ms"),
]

#: Span buckets of the tracer, each reported as its own metric.
BUCKETS = {name for name, unit in PER_LAYER if unit == "s"} - {
    "trace.wall_s", "cluster.overhead_s", "cluster.coordinator_cpu_s"}


# -- in-process workloads ------------------------------------------------------


def run_inproc(name: str, cfg: Dict[str, Any], seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    params = cfg["params"]
    repeats = 1 if trace else params["setup_repeats"]
    setups: List[float] = []
    lines: List[str] = []
    for attempt in range(repeats):
        argv = [sys.executable, os.path.join(common.HERE, "inproc.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(int(trace))]
        if attempt + 1 < repeats:
            argv.append("--setup-only")
        def start(argv=argv):
            child = subprocess.Popen(argv, cwd=common.ROOT,
                                     env=common.child_env(),
                                     stdout=subprocess.PIPE, text=True)
            return child, child.stdout.readline()

        (child, ready), setup_s, _ = common.timed(start)
        setups.append(setup_s)
        try:
            lines = child.stdout.read().splitlines()
        finally:
            child.stdout.close()
            code = child.wait()
        if ready.strip() != "READY" or code != 0:
            raise RuntimeError("%s child exited %d" % (name, code))
    out = json.loads(lines[-1])
    out["setups_s"] = setups
    if trace:
        out["attempted"] = out["window_attempted"]
        out["failed"] = out["window_failed"]
        out["extra"] = {"trace.overhead_ratio": out["trace_overhead_ratio"]}
        if "telemetry_overhead_ratio" in out:
            out["extra"]["telemetry.enabled_overhead_ratio"] = (
                out["telemetry_overhead_ratio"])
        return out
    busy = out["busy_s"]
    limit = params["latency_limit_ms"]
    good = sum(1 for latency in out["latencies_ms"] if latency <= limit)
    out["attempted"] += out["window_attempted"]
    out["failed"] += out["window_failed"]
    out["transitions_per_s"] = out["transitions"] / busy
    out["points_per_s"] = out["points"] / busy
    out["goodput_rps"] = max(0, good - out["failed"]) / busy
    return out


def run_workload(name: str, cfg: Dict[str, Any], seed: int, seconds: float,
                 trace: bool, workdir: str) -> Dict[str, Any]:
    if name in ("estimate-stream", "explore-fig7"):
        return run_inproc(name, cfg, seed, seconds, trace)
    common.use_source_tree()
    import services

    runner = {"serve-mix": services.run_serve_mix,
              "cluster-sweep": services.run_cluster_sweep}[name]
    return runner(cfg, seed, seconds, trace, workdir)


# -- metrics -------------------------------------------------------------------


def end_to_end(out: Dict[str, Any], notes: List[str]) -> Dict[str, float]:
    latencies = out["latencies_ms"]
    tail_ms, percentile, samples = common.tail(latencies)
    notes.append("setup_s is the median of %d set-ups: %s"
                 % (len(out["setups_s"]),
                    ", ".join("%.3f" % value for value in out["setups_s"])))
    notes.append("latency over %d samples; latency_tail_ms is p%.1f"
                 " (%d samples beyond it)"
                 % (samples, percentile, 10 if samples > 10 else 0))
    return {
        "setup_s": common.median(out["setups_s"]),
        "transitions_per_s": out["transitions_per_s"],
        "points_per_s": out["points_per_s"],
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": tail_ms,
        "goodput_rps": out["goodput_rps"],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(out: Dict[str, Any], notes: List[str]) -> Tuple[Dict[str, float],
                                                              bool]:
    snap = out["trace"]
    self_s, counts = snap["self_s"], snap["counts"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for bucket in BUCKETS:
        metrics[bucket] = self_s.get(bucket, 0.0)
    for name in ("hw.cycles", "hw.calls", "hw.memo_hits", "hw.compile_misses",
                 "sw.iss_calls", "sw.iss_cycles", "cfsm.reactions",
                 "master.events", "bus.grants", "cache.accesses",
                 "core.estimates", "resilience.calls"):
        metrics[name] = counts.get(name, 0)
    metrics["hw.step_us_per_cycle"] = ratio(metrics["hw.step_s"] * 1e6,
                                            metrics["hw.cycles"])
    metrics["hw.memo_hit_ratio"] = ratio(metrics["hw.memo_hits"],
                                         metrics["hw.calls"])
    metrics["cache.hit_ratio"] = ratio(counts.get("cache.hits", 0),
                                       metrics["cache.accesses"])
    metrics["core.low_level_ratio"] = ratio(counts.get("core.low_level_runs", 0),
                                            metrics["core.estimates"])
    metrics["trace.wall_s"] = snap["wall_s"]
    metrics.update(out.get("extra", {}))

    unknown = sorted(set(self_s) - BUCKETS)
    attributed = sum(self_s.values())
    tolerance = 1e-6 * max(1.0, snap["wall_s"])
    balanced = not unknown and abs(attributed - snap["wall_s"]) <= tolerance
    notes.append("layer self times sum to %.6f s; traced wall %.6f s%s"
                 % (attributed, snap["wall_s"],
                    "" if not unknown else "; unknown buckets %s" % unknown))
    return metrics, balanced


def check_expected(name: str, seed: int, out: Dict[str, Any],
                   notes: List[str]) -> bool:
    path = os.path.join(common.HERE, "expected.json")
    with open(path) as handle:
        recorded = json.load(handle).get(name, {}).get(str(seed))
    notes.append("counters %s" % json.dumps(out["counters"], sort_keys=True))
    if recorded is None:
        notes.append("digest %s (no recorded value for seed %d)"
                     % (out["digest"], seed))
        return True
    same = (recorded["digest"] == out["digest"]
            and recorded["counters"] == out["counters"])
    notes.append("digest %s and counters %s the recorded values"
                 % (out["digest"], "match" if same else "DO NOT match"))
    return same


def record_expected(name: str, seed: int, out: Dict[str, Any]) -> None:
    path = os.path.join(common.HERE, "expected.json")
    with open(path) as handle:
        recorded = json.load(handle)
    recorded.setdefault(name, {})[str(seed)] = {
        "digest": out["digest"], "counters": out["counters"]}
    for workload in recorded:
        recorded[workload] = dict(sorted(recorded[workload].items(),
                                         key=lambda item: int(item[0])))
    with open(path, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    config = common.load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digest and counters in "
                             "perfbench/expected.json instead of checking")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print("perfbench: no program source under %s" % common.SRC,
              file=sys.stderr)
        return 2

    workdir = os.path.join(common.ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        out = run_workload(args.workload, config["workloads"][args.workload],
                           args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    notes: List[str] = []
    if args.record:
        record_expected(args.workload, args.seed, out)
    correct = check_expected(args.workload, args.seed, out, notes)
    if args.trace:
        values, balanced = per_layer(out, notes)
        correct = correct and balanced
        units = PER_LAYER
    else:
        values = end_to_end(out, notes)
        units = END_TO_END
    correct = correct and out["failed"] == 0

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, unit in units:
        print("  %-34s %14.6g %s" % (name, values[name], unit))
    for note in notes:
        print("  # " + note)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
