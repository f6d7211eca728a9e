"""The server workloads: ``serve-mix`` and ``cluster-sweep``.

Both drive real ``repro`` processes over HTTP from this process.  With
``--trace 1`` the servers run under ``launch.py``, clear their span
aggregates on ``SIGUSR1`` when the measured phase starts, and write them
out on graceful drain.  The program's outputs are checked against the
same computation done in this process (under the tracer, which also
gives the deterministic counters of the workload's inputs).
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import random
import signal
import threading
import time
from typing import Any, Dict, List, Optional

import common
import tracer as tracing

SYSTEMS = ("fig1", "tcpip", "tcpip-out", "automotive")
STRATEGIES = ("full", "caching", "macromodel", "sampling")
PRIORITIES = ("low", "normal", "high")


def _repro_argv(command: List[str], dump: Optional[str]) -> List[str]:
    if dump is None:
        return ["-m", "repro"] + command
    return [os.path.join(common.HERE, "launch.py"), dump] + command


def _counted_reference(fn, warm_up: bool):
    """Run ``fn()`` under a fresh tracer; returns (value, wall seconds,
    deterministic counters).

    With ``warm_up``, an untraced pass first pays the one-time costs
    (imports, lazily built tables), so that the wall time compares with
    :func:`_overhead_ratio`'s untraced pass.  The counted pass always
    starts from cold program caches.
    """
    from inproc import DETERMINISTIC

    if warm_up:
        fn()
        common.cold_caches()
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    stats_before = tracing.memo_stats()
    tracer.enter(tracing.UNATTRIBUTED)
    started = time.perf_counter()
    try:
        value = fn()
    finally:
        wall = time.perf_counter() - started
        tracer.exit()
        installation.remove()
    snapshot = tracer.snapshot()
    snapshot["counts"].update(tracing.stats_delta(stats_before))
    counters = {name: int(snapshot["counts"].get(name, 0))
                for name in DETERMINISTIC}
    return value, wall, counters


def _restart_traces(servers: List[common.Server]) -> None:
    """Clear the servers' span aggregates between set-up and the phase.

    The pauses let the last set-up request finish its bookkeeping
    first: a span open across the reset would be counted in the wall
    time but not its earlier children.
    """
    time.sleep(0.3)
    for server in servers:
        server.signal(signal.SIGUSR1)
    time.sleep(0.3)


def _overhead_ratio(fn, traced_wall: float) -> float:
    """Traced wall time over the same work untraced from cold caches."""
    common.cold_caches()
    started = time.perf_counter()
    fn()
    return traced_wall / (time.perf_counter() - started)


# -- serve-mix ----------------------------------------------------------------


@dataclasses.dataclass
class Request:
    due_s: float
    system: str
    strategy: str
    priority: str


def serve_schedule(params: Dict[str, Any], seed: int,
                   seconds: float) -> List[Request]:
    """Seeded open-loop schedule.

    Requests come in blocks of the 16 (system, strategy) pairs in a
    seeded order.  In block ``b`` strategy ``b mod 4`` of every system
    is sent as two identical requests due at the same instant (they
    coalesce in flight), so every run of a whole number of four blocks
    offers the same mix.  Items are spaced ``1/rate`` apart with seeded
    jitter of ``jitter`` of the gap.
    """
    rng = random.Random(seed)
    gap = 1.0 / params["rate_per_s"]
    combos = [(system, strategy) for system in SYSTEMS
              for strategy in STRATEGIES]
    blocks = max(1, int(seconds * params["rate_per_s"]) // len(combos))
    schedule: List[Request] = []
    slot = 0
    for block in range(blocks):
        order = combos[:]
        rng.shuffle(order)
        paired = {(system, STRATEGIES[block % len(STRATEGIES)])
                  for system in SYSTEMS}
        for system, strategy in order:
            due = (slot + rng.uniform(-params["jitter"], params["jitter"])) * gap
            priority = rng.choice(PRIORITIES)
            copies = 2 if (system, strategy) in paired else 1
            for _ in range(copies):
                schedule.append(Request(max(0.0, due), system, strategy,
                                        priority))
            slot += 1
    schedule.sort(key=lambda request: request.due_s)
    return schedule


class InFlight:
    """Requests the client has outstanding (``with`` one per request)."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def __enter__(self) -> None:
        with self._lock:
            self._count += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._count -= 1

    def __bool__(self) -> bool:
        return self._count > 0


def _serve_setup(params: Dict[str, Any], dump: Optional[str],
                 in_flight: InFlight):
    started = time.perf_counter()
    server = common.Server(
        _repro_argv(["serve", "--port", "0",
                     "--workers", str(params["workers"]),
                     "--queue-depth", str(params["queue_depth"])], dump),
        banner="listening on",
    )
    try:
        common.wait_until(
            lambda: common.http_json(server.url, "GET", "/readyz")[0] == 200)
        for system in SYSTEMS:
            for strategy in STRATEGIES:
                with in_flight:
                    status, body = common.http_json(
                        server.url, "POST", "/estimate",
                        {"system": system, "strategy": strategy})
                if status != 200:
                    raise RuntimeError("warm-up %s/%s answered %d: %s"
                                       % (system, strategy, status, body))
    except BaseException:
        server.stop()
        raise
    return server, started, time.perf_counter()


def _open_loop(url: str, schedule: List[Request], connections: int,
               in_flight: InFlight):
    """Send ``schedule`` from ``connections`` threads; returns records."""
    pending: "queue.Queue[Optional[Request]]" = queue.Queue()
    for request in schedule:
        pending.put(request)
    for _ in range(connections):
        pending.put(None)
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            request = pending.get()
            if request is None:
                return
            due = origin + request.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                with in_flight:
                    status, body = common.http_json(url, "POST", "/estimate", {
                        "system": request.system,
                        "strategy": request.strategy,
                        "priority": request.priority})
            except OSError as exc:
                status, body = 0, {"reason": str(exc)}
            done = time.perf_counter()
            with lock:
                records.append({"request": request, "status": status,
                                "body": body, "due": due, "sent": sent,
                                "done": done})

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - origin


def serve_reference():
    """In-process ``run_estimate`` of every (system, strategy) pair.

    Like the service, each run is armed with a watchdog, which adds the
    (all-zero) resilience counters to the report.
    """
    from repro.parallel.runners import run_estimate
    from repro.resilience.supervisor import ResilienceConfig
    from repro.systems import builder_spec

    answers = {}
    for system in SYSTEMS:
        builder, kwargs = builder_spec(system)
        for strategy in STRATEGIES:
            report = run_estimate(builder, dict(kwargs), strategy=strategy,
                                  label="%s/%s" % (system, strategy),
                                  resilience=ResilienceConfig(watchdog_s=60.0))
            answers[(system, strategy)] = common.without_timing(
                dataclasses.asdict(report))
    return answers


def run_serve_mix(cfg: Dict[str, Any], seed: int, seconds: float,
                  trace: bool, workdir: str) -> Dict[str, Any]:
    params = cfg["params"]
    setups: List[float] = []
    repeats = 1 if trace else params["setup_repeats"]
    dump = os.path.join(workdir, "serve.json") if trace else None
    server = None
    in_flight = InFlight()
    probe = common.ProbeThread(busy=lambda: bool(in_flight))
    try:
        for attempt in range(repeats):
            server, started, ended = _serve_setup(params, dump, in_flight)
            setups.append((ended - started) * probe.scale(started, ended))
            if attempt + 1 < repeats:
                server.stop()
                server = None
        schedule = serve_schedule(params, seed, seconds)
        if trace:
            _restart_traces([server])
        records, phase_s = _open_loop(server.url, schedule,
                                      params["connections"], in_flight)
        peak_rss = common.peak_rss_mb(server.pid)
    finally:
        probe.stop()
        if server is not None:
            server.stop()
    for record in records:
        record["latency_s"] = (record["done"] - record["due"]) * probe.scale(
            record["due"], record["done"])

    reference, ref_wall, counters = _counted_reference(serve_reference,
                                                       warm_up=trace)
    limit_s = params["latency_limit_ms"] / 1000.0
    served = [r for r in records if r["status"] == 200]
    failed = len(records) - len(served)
    good = 0
    transitions = 0
    for record in served:
        body, request = record["body"], record["request"]
        expected = reference[(request.system, request.strategy)]
        if (common.without_timing(body["report"]) != expected
                or body["total_energy_j"] != expected["total_energy_j"]):
            failed += 1
            continue
        transitions += sum(body["report"]["transitions"].values())
        if record["latency_s"] <= limit_s:
            good += 1
    latencies_ms = [r["latency_s"] * 1000.0 for r in served]
    out: Dict[str, Any] = {
        "attempted": len(records), "failed": failed,
        "counters": counters,
        "digest": common.digest(sorted(
            [list(key), value] for key, value in reference.items())),
    }
    if not trace:
        out.update({
            "setups_s": setups, "peak_rss_mb": peak_rss,
            "transitions_per_s": transitions / phase_s,
            "points_per_s": len(served) / phase_s,
            "latencies_ms": latencies_ms,
            "goodput_rps": good / phase_s,
        })
        return out
    with open(dump) as handle:
        out["trace"] = json.load(handle)
    queue_ms = [r["body"]["queue_seconds"] * 1000.0 for r in served]
    run_ms = [r["body"]["run_seconds"] * 1000.0 for r in served]
    overhead_ms = [(r["done"] - r["sent"] - r["body"]["queue_seconds"]
                    - r["body"]["run_seconds"]) * 1000.0 for r in served]
    out["extra"] = {
        "service.queue_ms": common.median(queue_ms),
        "service.run_ms": common.median(run_ms),
        "service.overhead_ms": common.median(overhead_ms),
        "service.coalesced_ratio": (
            sum(1 for r in served if r["body"].get("coalesced"))
            / max(1, len(served))),
        "service.rejected": sum(1 for r in records
                                if r["status"] in (429, 503)),
        "client.late_ms": common.median([(r["sent"] - r["due"]) * 1000.0
                                         for r in records]),
        "trace.overhead_ratio": _overhead_ratio(serve_reference, ref_wall),
    }
    return out


# -- cluster-sweep ----------------------------------------------------------------


def _cluster_setup(params: Dict[str, Any], sweep_body, trace_dir):
    started = time.perf_counter()
    servers: List[common.Server] = []
    try:
        coordinator = common.Server(
            ["-m", "repro", "cluster", "--port", "0", "--workers", "0"],
            banner="listening on")
        servers.append(coordinator)
        for index in range(params["workers"]):
            dump = (os.path.join(trace_dir, "worker-%d.json" % index)
                    if trace_dir else None)
            servers.append(common.Server(
                _repro_argv(["worker", "--coordinator", coordinator.url,
                             "--worker-id", "worker-%d" % index,
                             "--slots", str(params["slots"])], dump),
                banner="serving on"))

        def all_live() -> bool:
            status, body = common.http_json(coordinator.url, "GET", "/readyz")
            return (status == 200
                    and len(body.get("routable") or []) == params["workers"])

        common.wait_until(all_live)
        status, reply = common.http_json(coordinator.url, "POST", "/sweep",
                                         sweep_body)
        if status != 200 or reply.get("status") != "ok":
            raise RuntimeError("warm-up sweep answered %d: %s"
                               % (status, reply.get("status")))
    except BaseException:
        common.stop_all(servers)
        raise
    return servers, started, time.perf_counter()


def sweep_body(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The run's ``/sweep`` request: the packet period is drawn from the
    seed, within 3% of the configured one."""
    period_ns = round(params["period_ns"]
                      * random.Random(seed).uniform(0.97, 1.03), 1)
    return {"dma": params["dma"], "packets": params["packets"],
            "period_ns": period_ns, "strategy": "caching"}


def cluster_reference(body: Dict[str, Any]) -> str:
    """In-process ``parallel_sweep`` rows of one sweep, as canonical JSON."""
    from repro.core import explorer
    from repro.systems import tcpip

    points, _ = explorer.parallel_sweep(
        "repro.systems.tcpip:build_system", body["dma"],
        explorer.priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy=body["strategy"], jobs=1,
        builder_kwargs={"num_packets": body["packets"],
                        "packet_period_ns": body["period_ns"]},
    )
    return json.dumps(explorer.sweep_summary_rows(points), sort_keys=True)


def run_cluster_sweep(cfg: Dict[str, Any], seed: int, seconds: float,
                      trace: bool, workdir: str) -> Dict[str, Any]:
    params = cfg["params"]
    body = sweep_body(params, seed)
    setups: List[float] = []
    repeats = 1 if trace else params["setup_repeats"]
    servers: List[common.Server] = []
    sweeps: List[Dict[str, Any]] = []
    probe = common.ProbeThread()
    try:
        for attempt in range(repeats):
            servers, started, ended = _cluster_setup(
                params, body, workdir if trace else None)
            setups.append((ended - started) * probe.scale(started, ended))
            if attempt + 1 < repeats:
                common.stop_all(servers)
                servers = []
        coordinator, workers = servers[0], servers[1:]
        if trace:
            _restart_traces(workers)
        cpu_before = common.cpu_seconds(coordinator.pid)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            sweep_started = time.perf_counter()
            status, reply = common.http_json(coordinator.url, "POST",
                                             "/sweep", body)
            sweeps.append({"status": status, "reply": reply,
                           "start": sweep_started, "end": time.perf_counter()})
        coordinator_cpu = common.cpu_seconds(coordinator.pid) - cpu_before
        peak_rss = sum(common.peak_rss_mb(server.pid) for server in servers)
    finally:
        probe.stop()
        common.stop_all(servers)
    for sweep in sweeps:
        sweep["seconds"] = (sweep["end"] - sweep["start"]) * probe.scale(
            sweep["start"], sweep["end"])

    reference, ref_wall, counters = _counted_reference(
        lambda: cluster_reference(body), warm_up=trace)
    limit_s = params["latency_limit_ms"] / 1000.0
    points_per_sweep = params["points_per_sweep"]
    failed = 0
    transitions = 0
    good_points = 0
    per_worker: Dict[str, int] = {}
    for sweep in sweeps:
        reply = sweep["reply"]
        rows = reply.get("rows") or []
        if (sweep["status"] != 200 or reply.get("status") != "ok"
                or json.dumps(rows, sort_keys=True) != reference):
            failed += points_per_sweep
            continue
        transitions += sum(sum(row["report"]["transitions"].values())
                           for row in rows)
        for worker, count in reply.get("workers", {}).items():
            per_worker[worker] = per_worker.get(worker, 0) + count
        if sweep["seconds"] <= limit_s:
            good_points += points_per_sweep
    busy = sum(sweep["seconds"] for sweep in sweeps)
    out: Dict[str, Any] = {
        "attempted": points_per_sweep * len(sweeps), "failed": failed,
        "counters": counters,
        "digest": common.digest(reference),
    }
    if not trace:
        out.update({
            "setups_s": setups, "peak_rss_mb": peak_rss,
            "transitions_per_s": transitions / busy,
            "points_per_s": points_per_sweep * len(sweeps) / busy,
            "latencies_ms": [sweep["seconds"] * 1000.0 for sweep in sweeps],
            "goodput_rps": good_points / busy,
        })
        return out
    dumps = []
    for index in range(params["workers"]):
        with open(os.path.join(workdir, "worker-%d.json" % index)) as handle:
            dumps.append(json.load(handle))
    out["trace"] = tracing.merge_snapshots(dumps)
    worker_exec_s = out["trace"]["total_s"].get(
        "parallel.execute_overhead_s", 0.0)
    last = sweeps[-1]["reply"] if sweeps else {}
    out["extra"] = {
        "cluster.overhead_s": (sum(sweep["end"] - sweep["start"]
                                   for sweep in sweeps)
                               - worker_exec_s / params["workers"]),
        "cluster.redispatches": int(last.get("redispatches") or 0),
        "cluster.worker_skew": (max(per_worker.values())
                                / max(1, min(per_worker.values()))
                                if len(per_worker) == params["workers"]
                                else 0.0),
        "cluster.coordinator_cpu_s": coordinator_cpu,
        "trace.overhead_ratio": _overhead_ratio(
            lambda: cluster_reference(body), ref_wall),
    }
    return out
