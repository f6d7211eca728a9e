"""Command-line interface: ``python -m repro <command>``.

Commands operate on the built-in example systems:

* ``describe <system>`` — print the network, partition, and
  implementation sizes.
* ``estimate <system> [--strategy S] [--waveform-csv PATH]`` — run
  power co-estimation and print the energy report.
* ``explore [--dma ...] [--strategy S]`` — sweep the TCP/IP bus
  design space and report the minimum-energy configuration.
* ``characterize`` — run the software macro-model characterization and
  print the parameter file (the paper's Figure 3 artifact).
* ``lint <system> [--format text|json|sarif] [--baseline PATH]
  [--cost]`` — run the whole-design static analyzer (see
  docs/static-analysis.md); the exit code is 2 for errors, 1 for
  warnings, 0 otherwise.  ``--cost`` appends the static cost report
  (cycle/energy bounds, cache-table size, admission weight).
* ``serve [--port N] [--workers N] [--queue-depth N]`` — run the
  long-lived co-estimation service (JSON over HTTP, bounded admission
  queue, circuit breakers, graceful SIGTERM drain; see
  docs/service.md).
* ``cluster [--workers N]`` — run the distributed coordinator plus N
  worker processes (consistent-hash sharding, heartbeat failure
  detection, re-dispatch, limplock quarantine; see docs/cluster.md).
* ``worker --coordinator URL`` — run one standalone cluster worker
  against an existing coordinator.

``estimate`` and ``explore`` run the fast lint subset as a pre-flight
gate over the system they are about to run; ``serve`` and ``cluster``
run it over *every* bundled system at startup (they accept requests
for any of them) and refuse to start on error-severity findings.
``--no-preflight`` opts out everywhere.

Systems: ``fig1`` (producer/timer/consumer), ``tcpip``, ``tcpip-out``
(TCP/IP with the outgoing path enabled), ``automotive``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cfsm.describe import describe_network, implementation_statistics
from repro.core import PowerCoEstimator
from repro.ioutil import atomic_write_text
from repro.core.explorer import (
    DesignSpaceExplorer,
    parallel_sweep,
    priority_permutations,
)
from repro.core.macromodel import MacroModelCharacterizer
from repro.master.export import export_power_csv, export_power_vcd
from repro.parallel import (
    JobSpec,
    PoolStats,
    job_seed,
    merge_metrics_snapshots,
    run_jobs,
    write_merged_chrome_trace,
)
from repro.systems import build_bundle, builder_spec, system_names, tcpip
from repro.systems.bundle import SystemBundle
from repro.telemetry import Telemetry, render_report, write_chrome_trace


def _bundle(name: str) -> SystemBundle:
    try:
        return build_bundle(name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from None


def cmd_describe(args: argparse.Namespace) -> int:
    bundle = _bundle(args.system)
    stats = implementation_statistics(bundle.network) if args.sizes else None
    print(describe_network(bundle.network, stats))
    return 0


def _fault_plan(args: argparse.Namespace):
    """The :class:`~repro.resilience.FaultPlan` the fault flags describe."""
    rate = getattr(args, "fault_rate", 0.0) or 0.0
    if rate <= 0:
        return None
    from repro.resilience import FaultPlan

    return FaultPlan.uniform(args.fault_sites, rate, seed=args.fault_seed)


def _preflight(network, args: argparse.Namespace, metrics=None,
               label: Optional[str] = None) -> None:
    """Fast-lint gate before expensive runs (opt out: --no-preflight).

    Errors abort the run (the same malformations would surface later
    as confusing mid-simulation failures); warnings and notes print a
    one-line summary and let the run proceed.
    """
    if getattr(args, "no_preflight", False):
        return
    from repro.lint.diagnostics import Severity
    from repro.lint.passes import run_lint

    result = run_lint(network, fast_only=True, metrics=metrics)
    errors = result.count(Severity.ERROR)
    if errors:
        from repro.lint.emitters import render_text

        sys.stderr.write(render_text(result.diagnostics,
                                     title="pre-flight %s" % network.name))
        raise SystemExit(
            "pre-flight lint found %d error(s) in %r; fix them or rerun "
            "with --no-preflight" % (errors, network.name)
        )
    remainder = len(result.diagnostics)
    if remainder:
        print("pre-flight lint: %d advisory finding(s) in %r "
              "(run `repro lint %s` for details)"
              % (remainder, network.name, label or network.name))


def _preflight_service(args: argparse.Namespace, what: str) -> None:
    """Startup lint gate for the long-lived services.

    ``serve`` and ``cluster`` accept requests for any bundled system,
    so every one of them is fast-linted before the listener binds: an
    error-severity design is refused where the operator can see it
    instead of failing confusingly per-request.  ``--no-preflight``
    opts out, same as the one-shot commands.
    """
    if getattr(args, "no_preflight", False):
        return
    from repro.lint.diagnostics import Severity
    from repro.lint.emitters import render_text
    from repro.lint.passes import run_lint

    for name in system_names():
        network = _bundle(name).network
        result = run_lint(network, fast_only=True)
        errors = result.count(Severity.ERROR)
        if errors:
            sys.stderr.write(render_text(
                result.diagnostics, title="pre-flight %s" % network.name))
            raise SystemExit(
                "pre-flight lint found %d error(s) in %r; %s refuses to "
                "start (rerun with --no-preflight to override)"
                % (errors, name, what)
            )


def _degraded_levels(report) -> List[str]:
    """Provenance levels below ``exact`` that contributed to ``report``.

    ``--fail-on-degraded`` turns these into a non-zero exit.  Replay
    strategies (caching/sampling/macromodel) tag their replayed
    estimates ``cached``/``macromodel`` by design, so the guard is
    meant for ``--strategy full`` runs, where every healthy estimate is
    ``exact`` and anything else means the resilience ladder answered.
    """
    return sorted(
        level
        for level, count in report.provenance.items()
        if level != "exact" and count > 0
    )


def cmd_estimate(args: argparse.Namespace) -> int:
    if len(args.system) > 1:
        if _fault_plan(args) is not None:
            raise SystemExit(
                "--fault-rate needs a single system (got %d)" % len(args.system)
            )
        return _estimate_many(args)
    bundle = _bundle(args.system[0])
    config = bundle.config
    fault_plan = _fault_plan(args)
    if fault_plan is not None:
        from dataclasses import replace

        from repro.resilience import ResilienceConfig

        config = replace(
            config,
            resilience=ResilienceConfig(
                fault_plan=fault_plan, max_retries=args.fault_retries
            ),
        )
    estimator = PowerCoEstimator(bundle.network, config)
    telemetry = None
    if args.trace or args.metrics or args.telemetry_report:
        telemetry = Telemetry()
    _preflight(bundle.network, args,
               metrics=telemetry.metrics if telemetry else None,
               label=args.system[0])
    result = estimator.estimate(
        bundle.stimuli(),
        strategy=args.strategy,
        shared_memory_image=bundle.shared_memory_image,
        telemetry=telemetry,
    )
    print(result.report.pretty())
    if telemetry is not None:
        if args.trace:
            write_chrome_trace(telemetry.tracer, args.trace)
            print("wrote %s (load in Perfetto / chrome://tracing)" % args.trace)
        if args.metrics:
            atomic_write_text(args.metrics, telemetry.metrics.to_json() + "\n")
            print("wrote %s" % args.metrics)
        print()
        print(render_report(telemetry))
    if args.waveform_csv:
        atomic_write_text(
            args.waveform_csv,
            export_power_csv(result.master.accountant, bin_ns=args.bin_ns),
        )
        print("wrote %s" % args.waveform_csv)
    if args.waveform_vcd:
        atomic_write_text(
            args.waveform_vcd,
            export_power_vcd(result.master.accountant, bin_ns=args.bin_ns),
        )
        print("wrote %s" % args.waveform_vcd)
    if args.fail_on_degraded:
        levels = _degraded_levels(result.report)
        if levels:
            print("FAIL: %d estimate(s) with provenance below exact (%s) "
                  "(--fail-on-degraded)"
                  % (sum(result.report.provenance[level] for level in levels),
                     ", ".join(levels)))
            return 3
    return 0


def _estimate_many(args: argparse.Namespace) -> int:
    """Fan independent system estimates out over the process pool."""
    for option in ("waveform_csv", "waveform_vcd", "trace", "metrics"):
        if getattr(args, option, None):
            raise SystemExit(
                "--%s needs a single system (got %d)"
                % (option.replace("_", "-"), len(args.system))
            )
    specs = []
    for name in args.system:
        builder, builder_kwargs = builder_spec(name)
        specs.append(
            JobSpec(
                fn="repro.parallel.runners:run_estimate",
                payload={
                    "builder": builder,
                    "builder_kwargs": builder_kwargs,
                    "strategy": args.strategy,
                    "label": name,
                },
                label=name,
                seed=job_seed(0, name),
            )
        )
    stats = PoolStats()
    results = run_jobs(specs, jobs=args.jobs, stats=stats)
    failed = 0
    degraded: List[str] = []
    for result in results:
        if result.ok:
            print(result.value.pretty())
            print()
            if _degraded_levels(result.value):
                degraded.append(result.label)
        else:
            failed += 1
            print("%s FAILED:\n%s" % (result.label, result.error))
    print("%d system(s) in %.2fs with %d worker(s)"
          % (stats.completed, stats.wall_seconds, stats.workers))
    if failed:
        return 1
    if args.fail_on_degraded and degraded:
        print("FAIL: degraded provenance in %s (--fail-on-degraded)"
              % ", ".join(degraded))
        return 3
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    # SIGTERM becomes an in-band SystemExit so a kill mid-sweep unwinds
    # through the pool's `finally` (no orphaned workers) after the
    # per-point checkpoint flush — the sweep stays resumable.
    import threading as _threading

    restore_signals = None
    if _threading.current_thread() is _threading.main_thread():
        from repro.service.lifecycle import raise_on_signals

        restore_signals = raise_on_signals()
    try:
        return _explore_body(args)
    finally:
        if restore_signals is not None:
            restore_signals()


def _explore_body(args: argparse.Namespace) -> int:
    _preflight(
        tcpip.build_system(
            dma_block_words=args.dma[0],
            num_packets=args.packets,
            packet_period_ns=args.period_ns,
        ).network,
        args,
        label="tcpip",
    )
    assignments = priority_permutations(list(tcpip.BUS_MASTERS))
    stats = PoolStats()
    points, results = parallel_sweep(
        "repro.systems.tcpip:build_system",
        args.dma,
        assignments,
        strategy=args.strategy,
        jobs=args.jobs,
        warm_start=args.warm_start,
        builder_kwargs={
            "num_packets": args.packets,
            "packet_period_ns": args.period_ns,
        },
        timeout_s=args.timeout_s,
        collect_telemetry=bool(args.trace or args.metrics),
        stats=stats,
        checkpoint_path=args.checkpoint,
        resume_path=args.resume,
        fault_plan=_fault_plan(args),
        fault_retries=args.fault_retries,
    )
    restored = sum(
        1 for result in results if result.ok and result.attempts == 0
    )
    if restored:
        print("%d point(s) restored from %s" % (restored, args.resume))
    failures = [result for result in results if not result.ok]
    for result in failures:
        print("point %s FAILED:\n%s" % (result.label, result.error))
    points = [point for point in points if point is not None]
    for point in points:
        print("dma=%4d  %-40s %10.3f uJ"
              % (point.dma_block_words, point.priority_label,
                 point.total_energy_j * 1e6))
    if points:
        best = DesignSpaceExplorer.minimum_energy_point(points)
        print("minimum: dma=%d, %s (%.3f uJ)"
              % (best.dma_block_words, best.priority_label,
                 best.total_energy_j * 1e6))
    if args.jobs > 1:
        print("%d points in %.2fs with %d workers (%d retries)"
              % (stats.completed, stats.wall_seconds, stats.workers,
                 stats.retries))
    if args.trace:
        write_merged_chrome_trace(results, args.trace)
        print("wrote %s (load in Perfetto / chrome://tracing)" % args.trace)
    if args.metrics:
        import json as _json

        merged = merge_metrics_snapshots(r.metrics for r in results)
        atomic_write_text(
            args.metrics,
            _json.dumps(merged, indent=1, sort_keys=True) + "\n",
        )
        print("wrote %s" % args.metrics)
    if args.out:
        _write_sweep_summary(args.out, points)
        print("wrote %s" % args.out)
    return 1 if failures else 0


def _write_sweep_summary(path: str, points) -> None:
    """Atomically write the deterministic sweep summary as JSON.

    Timing fields (``wall_seconds``, ``low_level_seconds``) are
    excluded, so an interrupted-and-resumed sweep produces a summary
    byte-identical to an uninterrupted one.  The cluster coordinator
    emits the same rows (:func:`repro.core.explorer.sweep_summary_rows`),
    which is what the cluster smoke test diffs against this file.
    """
    import json as _json

    from repro.core.explorer import sweep_summary_rows

    atomic_write_text(
        path,
        _json.dumps(sweep_summary_rows(points), indent=1, sort_keys=True)
        + "\n",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint <system>`` — the whole-design static analyzer."""
    from repro.lint.baseline import load_baseline, write_baseline
    from repro.lint.emitters import EMITTERS
    from repro.lint.passes import run_lint

    bundle = _bundle(args.system)
    baseline = load_baseline(args.baseline) if args.baseline else None
    telemetry = Telemetry() if args.metrics else None
    result = run_lint(
        bundle.network,
        fast_only=args.fast,
        baseline=baseline,
        metrics=telemetry.metrics if telemetry else None,
    )
    if args.write_baseline:
        accepted = result.diagnostics + result.suppressed
        write_baseline(args.write_baseline, accepted)
        print("wrote %s (%d finding(s) accepted)"
              % (args.write_baseline, len(accepted)))
        return 0
    emitter = EMITTERS[args.format]
    text = emitter(result.diagnostics,
                   suppressed=len(result.suppressed),
                   title=bundle.network.name)
    if args.output:
        atomic_write_text(args.output, text)
        print("wrote %s" % args.output)
    else:
        print(text, end="")
    if args.metrics:
        atomic_write_text(args.metrics, telemetry.metrics.to_json() + "\n")
        print("wrote %s" % args.metrics)
    if args.cost or args.cost_output:
        from repro.lint.cost import compute_cost_report

        cost_report = compute_cost_report(bundle.network)
        if args.cost:
            print(cost_report.render())
        if args.cost_output:
            import json as _json

            atomic_write_text(
                args.cost_output,
                _json.dumps(cost_report.to_payload(), indent=1,
                            sort_keys=True) + "\n",
            )
            print("wrote %s" % args.cost_output)
    return result.exit_code


def cmd_characterize(args: argparse.Namespace) -> int:
    characterizer = MacroModelCharacterizer()
    parameter_file = characterizer.characterize()
    text = parameter_file.serialize()
    if args.output:
        atomic_write_text(args.output, text)
        print("wrote %s" % args.output)
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the long-running co-estimation service."""
    from repro.obs.slo import SLOConfig
    from repro.service import ServiceConfig, run_server

    _preflight_service(args, "serve")
    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline_s=args.deadline_s,
        drain_timeout_s=args.drain_timeout_s,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery_s=args.breaker_recovery_s,
        checkpoint_path=args.checkpoint,
        slo=SLOConfig(
            latency_threshold_s=args.slo_latency_s,
            latency_objective=args.slo_latency_objective,
            availability_objective=args.slo_error_objective,
            window_s=args.slo_window_s,
        ),
        log_json=args.log_json,
        flight_recorder_capacity=args.flight_recorder_capacity,
        flight_dump_dir=args.flight_dump_dir,
    )
    return run_server(
        args.host,
        args.port,
        config=config,
        resume_path=args.resume,
    )


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster`` — coordinator + N local worker processes."""
    from repro.cluster import ClusterConfig, run_cluster
    from repro.cluster.membership import MembershipConfig

    _preflight_service(args, "cluster")
    config = ClusterConfig(
        membership=MembershipConfig(
            suspect_after_s=args.suspect_after_s,
            dead_after_s=args.dead_after_s,
            limp_factor=args.limp_factor,
        ),
        heartbeat_interval_s=args.heartbeat_s,
        redispatch_budget=args.redispatch_budget,
        log_json=args.log_json,
        coordinator_id=args.coordinator_id or "",
        control_dir=args.control_dir,
        standby=args.standby,
        peers=list(args.peer or []),
        lease_ttl_s=args.lease_ttl_s,
        flight_dump_dir=args.flight_dump_dir,
    )
    if args.standby or args.workers == 0:
        # A standby (or a coordinator-only node) spawns no workers of
        # its own: the workers belong to the cluster, not the leader,
        # and re-register with whoever holds the lease.
        from repro.cluster import run_coordinator

        return run_coordinator(args.host, args.port, config=config)
    return run_cluster(
        args.host,
        args.port,
        workers=args.workers,
        config=config,
        worker_slots=args.slots,
    )


def cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker`` — one standalone cluster worker process."""
    from repro.cluster import WorkerConfig, run_worker

    config = WorkerConfig(
        coordinator_url=args.coordinator,
        worker_id=args.worker_id or "",
        host=args.host,
        port=args.port,
        heartbeat_interval_s=args.heartbeat_s,
        slots=args.slots,
        limp_s=args.limp_s,
        peers=list(args.peer or []),
    )
    return run_worker(config)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-injection flags shared by ``estimate`` and ``explore``."""
    group = parser.add_argument_group("fault injection (chaos testing)")
    group.add_argument("--fault-rate", type=float, default=0.0,
                       metavar="P",
                       help="per-invocation fault probability at each "
                            "injected boundary (0 disables injection)")
    group.add_argument("--fault-seed", type=int, default=0, metavar="N",
                       help="fault-schedule seed (same seed, same faults)")
    group.add_argument("--fault-sites", nargs="+",
                       default=["hw", "iss", "cache", "bus"],
                       choices=["hw", "iss", "cache", "bus"],
                       metavar="SITE",
                       help="which estimator boundaries to fault "
                            "(default: all four)")
    group.add_argument("--fault-retries", type=int, default=1, metavar="N",
                       help="supervised retries per faulted invocation "
                            "before degrading (0 makes every injected "
                            "fault visible as a non-exact provenance tag)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOC power co-estimation (Lajolo et al., DATE 2000)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    describe = commands.add_parser("describe", help="print a system summary")
    describe.add_argument("system", choices=system_names())
    describe.add_argument("--sizes", action="store_true",
                          help="compile/synthesize and report sizes")
    describe.set_defaults(func=cmd_describe)

    estimate = commands.add_parser("estimate", help="run co-estimation")
    estimate.add_argument("system", nargs="+", choices=system_names(),
                          help="one or more systems; several fan out "
                               "over --jobs workers")
    estimate.add_argument("--strategy", default="full",
                          choices=PowerCoEstimator.STRATEGIES)
    estimate.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for multi-system runs "
                               "(default: 1, sequential)")
    estimate.add_argument("--waveform-csv", metavar="PATH")
    estimate.add_argument("--waveform-vcd", metavar="PATH")
    estimate.add_argument("--bin-ns", type=float, default=1000.0)
    estimate.add_argument("--trace", metavar="FILE",
                          help="write a Chrome trace-event JSON file "
                               "(Perfetto / chrome://tracing)")
    estimate.add_argument("--metrics", metavar="FILE",
                          help="write the metrics registry snapshot as JSON")
    estimate.add_argument("--telemetry-report", action="store_true",
                          help="collect telemetry and print the "
                               "end-of-run report without writing files")
    estimate.add_argument("--no-preflight", action="store_true",
                          help="skip the fast pre-flight lint gate")
    estimate.add_argument("--fail-on-degraded", action="store_true",
                          help="exit 3 when any estimate's provenance is "
                               "below exact — a CI guard against silent "
                               "degradation (use with --strategy full; "
                               "replay strategies tag cached/macromodel "
                               "by design)")
    _add_fault_arguments(estimate)
    estimate.set_defaults(func=cmd_estimate)

    explore = commands.add_parser(
        "explore", help="sweep the TCP/IP bus design space"
    )
    explore.add_argument("--dma", type=int, nargs="+",
                         default=[2, 8, 32, 128])
    explore.add_argument("--packets", type=int, default=3)
    explore.add_argument("--period-ns", type=float, default=30_000.0)
    explore.add_argument("--strategy", default="caching",
                         choices=PowerCoEstimator.STRATEGIES)
    explore.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default: 1 — sequential, "
                              "byte-identical to the single-process path)")
    explore.add_argument("--warm-start", action="store_true",
                         help="share the converged energy cache across "
                              "design points (per worker, validity-"
                              "guarded; see docs/parallelism.md)")
    explore.add_argument("--trace", metavar="FILE",
                         help="write a merged Chrome trace-event JSON "
                              "file; each worker is one Perfetto process")
    explore.add_argument("--metrics", metavar="FILE",
                         help="write the merged per-worker metrics "
                              "snapshot as JSON")
    explore.add_argument("--out", metavar="FILE",
                         help="write the deterministic sweep summary "
                              "(per-point reports without timing) as JSON")
    explore.add_argument("--checkpoint", metavar="FILE",
                         help="atomically rewrite FILE after every "
                              "completed point so the sweep survives kills")
    explore.add_argument("--resume", metavar="FILE",
                         help="load completed points from a checkpoint "
                              "and re-run only the unfinished ones")
    explore.add_argument("--timeout-s", type=float, default=None,
                         metavar="S",
                         help="wall-clock budget per design point "
                              "(enforced in both --jobs 1 and pooled modes)")
    explore.add_argument("--no-preflight", action="store_true",
                         help="skip the fast pre-flight lint gate")
    _add_fault_arguments(explore)
    explore.set_defaults(func=cmd_explore)

    lint = commands.add_parser(
        "lint", help="run the whole-design static analyzer"
    )
    lint.add_argument("system", choices=system_names())
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (default: text)")
    lint.add_argument("--baseline", metavar="PATH",
                      help="suppress findings accepted in this baseline "
                           "file (see docs/static-analysis.md)")
    lint.add_argument("--write-baseline", metavar="PATH",
                      help="accept every current finding into PATH "
                           "and exit 0")
    lint.add_argument("--fast", action="store_true",
                      help="run only the fast passes (no synthesis, "
                           "no macro-model characterization) — the "
                           "same subset the pre-flight gate uses")
    lint.add_argument("--output", metavar="PATH",
                      help="write the report to PATH instead of stdout")
    lint.add_argument("--metrics", metavar="FILE",
                      help="write per-rule hit counters as a metrics "
                           "registry JSON snapshot")
    lint.add_argument("--cost", action="store_true",
                      help="append the static cost report: per-component "
                           "cycle and energy bounds, the Section 4.2 "
                           "cache-table size, and the admission weight "
                           "the service prices Retry-After with")
    lint.add_argument("--cost-output", metavar="PATH",
                      help="write the cost report as JSON to PATH")
    lint.set_defaults(func=cmd_lint)

    characterize = commands.add_parser(
        "characterize", help="build the SW macro-model parameter file"
    )
    characterize.add_argument("--output", metavar="PATH")
    characterize.set_defaults(func=cmd_characterize)

    serve = commands.add_parser(
        "serve", help="run the long-lived co-estimation service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8090,
                       help="TCP port; 0 picks a free one (default: 8090)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent estimation worker threads "
                            "(default: 2)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="admission queue capacity; beyond it requests "
                            "get 429 + Retry-After (default: 8)")
    serve.add_argument("--deadline-s", type=float, default=30.0, metavar="S",
                       help="default per-request deadline, queue wait "
                            "included (default: 30)")
    serve.add_argument("--drain-timeout-s", type=float, default=10.0,
                       metavar="S",
                       help="how long a SIGTERM drain may spend finishing "
                            "queued work before checkpointing the rest "
                            "(default: 10)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       metavar="N",
                       help="consecutive supervised failures that open a "
                            "site's circuit breaker (default: 3)")
    serve.add_argument("--breaker-recovery-s", type=float, default=30.0,
                       metavar="S",
                       help="open time before a half-open probe "
                            "(default: 30)")
    serve.add_argument("--checkpoint", metavar="FILE",
                       help="write unfinished requests here on drain")
    obs_group = serve.add_argument_group("observability")
    obs_group.add_argument("--log-json", action="store_true",
                           help="emit one JSON log line per request "
                                "lifecycle event (trace-correlated)")
    obs_group.add_argument("--slo-latency-s", type=float, default=5.0,
                           metavar="S",
                           help="latency SLO threshold: a request slower "
                                "than this burns latency budget "
                                "(default %(default)s)")
    obs_group.add_argument("--slo-latency-objective", type=float,
                           default=0.95, metavar="F",
                           help="fraction of requests that must meet the "
                                "latency threshold (default %(default)s)")
    obs_group.add_argument("--slo-error-objective", type=float,
                           default=0.99, metavar="F",
                           help="fraction of requests that must not end "
                                "in a 5xx (default %(default)s)")
    obs_group.add_argument("--slo-window-s", type=float, default=300.0,
                           metavar="S",
                           help="sliding window of the SLO burn rates "
                                "(default %(default)s)")
    obs_group.add_argument("--flight-recorder-capacity", type=int,
                           default=256, metavar="N",
                           help="events kept in the in-memory flight "
                                "recorder ring (default %(default)s)")
    obs_group.add_argument("--flight-dump-dir", metavar="DIR",
                           help="directory for flight-recorder dumps on "
                                "500/504/drain (omit to disable dumps)")
    serve.add_argument("--resume", metavar="FILE",
                       help="re-enqueue the requests of a drain checkpoint "
                            "at startup")
    serve.add_argument("--no-preflight", action="store_true",
                       help="skip the startup fast-lint gate over the "
                            "bundled systems")
    serve.set_defaults(func=cmd_serve)

    cluster = commands.add_parser(
        "cluster",
        help="run the distributed coordinator plus N worker processes",
    )
    cluster.add_argument("--host", default="127.0.0.1",
                         help="coordinator bind address "
                              "(default: 127.0.0.1)")
    cluster.add_argument("--port", type=int, default=8095,
                         help="coordinator TCP port; 0 picks a free one "
                              "(default: 8095)")
    cluster.add_argument("--workers", type=int, default=3, metavar="N",
                         help="worker processes to spawn (default: 3)")
    cluster.add_argument("--slots", type=int, default=1, metavar="N",
                         help="concurrent job slots per worker "
                              "(default: 1)")
    cluster.add_argument("--heartbeat-s", type=float, default=1.0,
                         metavar="S",
                         help="worker heartbeat interval "
                              "(default %(default)s)")
    cluster.add_argument("--suspect-after-s", type=float, default=3.0,
                         metavar="S",
                         help="heartbeat age that marks a worker suspect "
                              "(default %(default)s)")
    cluster.add_argument("--dead-after-s", type=float, default=10.0,
                         metavar="S",
                         help="heartbeat age that declares a worker dead "
                              "and re-dispatches its jobs "
                              "(default %(default)s)")
    cluster.add_argument("--limp-factor", type=float, default=4.0,
                         metavar="X",
                         help="latency multiple over the peer median that "
                              "quarantines a limping worker "
                              "(default %(default)s)")
    cluster.add_argument("--redispatch-budget", type=int, default=2,
                         metavar="N",
                         help="re-dispatches allowed per job after "
                              "transport failures (default %(default)s)")
    cluster.add_argument("--coordinator-id", default="", metavar="ID",
                         help="stable coordinator identity for HA "
                              "(default: coord-<pid>); the smallest id "
                              "wins a contested election")
    cluster.add_argument("--control-dir", default=None, metavar="DIR",
                         help="shared directory for the control-plane "
                              "journal and leadership lease; setting it "
                              "enables coordinator HA "
                              "(see docs/cluster-ha.md)")
    cluster.add_argument("--standby", action="store_true",
                         help="start as a standby: tail the leader's "
                              "journal and take over only when the "
                              "lease expires or is released")
    cluster.add_argument("--peer", action="append", default=[],
                         metavar="URL",
                         help="another coordinator's URL (repeatable); "
                              "handed to workers and clients for "
                              "failover")
    cluster.add_argument("--lease-ttl-s", type=float, default=3.0,
                         metavar="S",
                         help="leadership lease TTL; a dead leader is "
                              "succeeded within this long (default: 3.0)")
    cluster.add_argument("--flight-dump-dir", default=None, metavar="DIR",
                         help="write flight-recorder dumps here on 5xx "
                              "answers and takeover/deposition")
    cluster.add_argument("--log-json", action="store_true",
                         help="emit one JSON log line per cluster event "
                              "(registrations, state changes, "
                              "re-dispatches, quarantines)")
    cluster.add_argument("--no-preflight", action="store_true",
                         help="skip the startup fast-lint gate over the "
                              "bundled systems")
    cluster.set_defaults(func=cmd_cluster)

    worker = commands.add_parser(
        "worker", help="run one standalone cluster worker"
    )
    worker.add_argument("--coordinator", required=True, metavar="URL",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8095")
    worker.add_argument("--worker-id", default="", metavar="ID",
                        help="stable worker identity "
                             "(default: worker-<pid>)")
    worker.add_argument("--host", default="127.0.0.1",
                        help="worker bind address (default: 127.0.0.1)")
    worker.add_argument("--port", type=int, default=0,
                        help="worker TCP port; 0 picks a free one "
                             "(default: 0)")
    worker.add_argument("--heartbeat-s", type=float, default=1.0,
                        metavar="S",
                        help="heartbeat interval (default %(default)s)")
    worker.add_argument("--slots", type=int, default=1, metavar="N",
                        help="concurrent job slots (default: 1)")
    worker.add_argument("--peer", action="append", default=[],
                        metavar="URL",
                        help="additional coordinator URL to fail over "
                             "through (repeatable)")
    worker.add_argument("--limp-s", type=float, default=0.0, metavar="S",
                        help="fault injection: sleep S seconds before "
                             "every job and heartbeat — makes this worker "
                             "limp for quarantine testing (default: 0)")
    worker.set_defaults(func=cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
