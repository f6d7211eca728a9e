"""Outside-in span tracer: per-layer self time from wrapped entry points.

The tracer never edits the program.  :func:`install` replaces public
entry points of the ``repro`` modules (class methods, and module-level
names at the sites that import them) with wrappers that open a span
around the original call.  Each span is charged to one *bucket* — a
per-layer metric name such as ``hw.step_s``.

Self time of a span is its duration minus the durations of the spans
it directly contains.  Every thread keeps its own span stack, so the
service's worker threads do not see each other's spans.  A thread
started by ``call_with_watchdog`` inherits its caller's stack, so the
guarded call nests under the watchdog span that spawned it.

A span can also be a *wait* (a blocking hand-off to another thread or
process).  A wait is subtracted from its parent like any child, but is
charged to no bucket.  With ``wall_s`` the sum of the outermost span
durations of all threads minus all waits, the invariant is::

    sum(self_s.values()) == wall_s          (up to float rounding)

The ``unattributed_s`` bucket is the benchmark's own root span: time
inside the measured phase that no wrapped entry point claims.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed_s"


class _Span:
    __slots__ = ("bucket", "start", "child", "wait")

    def __init__(self, bucket: str, start: float, wait: bool) -> None:
        self.bucket = bucket
        self.start = start
        self.child = 0.0
        self.wait = wait


class Tracer:
    """Span stacks per thread plus process-wide aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop all aggregates (open spans keep running)."""
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.total_s: Dict[str, float] = defaultdict(float)
            self.spans: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)
            self.wall_s = 0.0
            self.wait_s = 0.0

    # -- span stack -------------------------------------------------------

    def stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, stack: List[_Span]) -> None:
        """Make this thread continue ``stack`` (a snapshot of another's)."""
        self._local.stack = list(stack)

    def enter(self, bucket: str, wait: bool = False) -> None:
        self.stack().append(_Span(bucket, self.clock(), wait))

    def exit(self) -> None:
        stack = self.stack()
        span = stack.pop()
        duration = self.clock() - span.start
        with self._lock:
            if span.wait:
                self.wait_s += duration
            else:
                self.self_s[span.bucket] += duration - span.child
                self.total_s[span.bucket] += duration
                self.spans[span.bucket] += 1
            if stack:
                stack[-1].child += duration
            else:
                self.wall_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def current_bucket(self) -> str:
        """Bucket of the innermost open span on this thread."""
        stack = self.stack()
        return stack[-1].bucket if stack else UNATTRIBUTED

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "spans": dict(self.spans),
                "counts": dict(self.counts),
                "wall_s": self.wall_s - self.wait_s,
                "wait_s": self.wait_s,
            }


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the snapshots of several processes."""
    merged: Dict[str, Any] = {"self_s": defaultdict(float),
                              "total_s": defaultdict(float),
                              "spans": defaultdict(int),
                              "counts": defaultdict(float),
                              "wall_s": 0.0, "wait_s": 0.0}
    for snap in snapshots:
        for key in ("self_s", "total_s", "spans", "counts"):
            for name, value in snap[key].items():
                merged[key][name] += value
        merged["wall_s"] += snap["wall_s"]
        merged["wait_s"] += snap["wait_s"]
    for key in ("self_s", "total_s", "spans", "counts"):
        merged[key] = dict(merged[key])
    return merged


# -- wrapping ---------------------------------------------------------------

Hook = Callable[[Tracer, tuple, Any], None]


def span_wrapper(tracer: Tracer, fn: Callable, bucket: str,
                 after: Optional[Hook] = None, wait: bool = False) -> Callable:
    """``fn`` inside a span of ``bucket``; ``after(tracer, args, result)``
    runs inside the span once ``fn`` returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(bucket, wait=wait)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        finally:
            tracer.exit()

    wrapper.perfbench_span = True
    return wrapper


def watchdog_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """Wrap ``call_with_watchdog(fn, timeout_s)``.

    The guarded ``fn`` runs on a fresh thread.  It adopts the caller's
    stack and runs in a span charged to the layer that asked for the
    watchdog, so ``resilience.watchdog_s`` holds only the watchdog's
    own cost: thread start, hand-off and wake-up.  Calls without a
    timeout run ``fn`` inline and are not traced.
    """

    @functools.wraps(fn)
    def wrapper(guarded, timeout_s, *args, **kwargs):
        if timeout_s is None:
            return fn(guarded, timeout_s, *args, **kwargs)
        caller = tracer.current_bucket()
        tracer.count("resilience.calls")
        tracer.enter("resilience.watchdog_s")
        stack = tracer.stack()

        def run_guarded():
            tracer.adopt(stack)
            tracer.enter(caller)
            try:
                return guarded()
            finally:
                tracer.exit()

        try:
            return fn(run_guarded, timeout_s, *args, **kwargs)
        finally:
            tracer.exit()

    wrapper.perfbench_span = True
    return wrapper


# -- the wrapped entry points --------------------------------------------------


def _count_calls(name: str) -> Hook:
    return lambda tracer, args, result: tracer.count(name)


def _after_iss(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sw.iss_calls")
    tracer.count("sw.iss_cycles", result.cycles)


def _after_master_run(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("master.events", args[0].stats.dispatched)


def _after_bus_advance(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("bus.grants", len(result))


def _after_cache(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("cache.accesses")
    if result.hit:
        tracer.count("cache.hits")


def _after_strategy(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.estimates")
    if result.ran_low_level:
        tracer.count("core.low_level_runs")


#: (module, attribute path, bucket, after-hook).  A dotted attribute is a
#: method on a class; a plain one is a module-level name, patched at
#: every module listed (the import sites).
SPANS: List[Tuple[str, str, str, Optional[Hook]]] = [
    ("repro.hw.logicsim", "CompiledSimulator.step", "hw.step_s",
     _count_calls("hw.cycles")),
    ("repro.hw.logicsim", "CompiledSimulator.__init__", "hw.compile_s", None),
    ("repro.hw.estimator", "HardwarePowerSimulator.run_transition",
     "hw.run_self_s", _count_calls("hw.calls")),
    ("repro.hw.estimator", "synthesize_cfsm_cached", "hw.synth_s", None),
    ("repro.sw.iss", "Iss.run", "sw.iss_s", _after_iss),
    ("repro.master.master", "compile_cfsm_cached", "sw.codegen_s", None),
    ("repro.cfsm.model", "Cfsm.react", "cfsm.react_s",
     _count_calls("cfsm.reactions")),
    ("repro.master.master", "SimulationMaster.__init__", "master.self_s", None),
    ("repro.master.master", "SimulationMaster.run", "master.self_s",
     _after_master_run),
    ("repro.bus.busmodel", "SharedBus.submit", "bus.s", None),
    ("repro.bus.busmodel", "SharedBus.advance", "bus.s", _after_bus_advance),
    ("repro.cache.cachesim", "CacheSimulator.access", "cache.access_s",
     _after_cache),
    ("repro.estimation", "FullStrategy.estimate", "core.strategy_self_s",
     _after_strategy),
    ("repro.core.caching", "CachingStrategy.estimate", "core.strategy_self_s",
     _after_strategy),
    ("repro.core.macromodel", "MacromodelStrategy.estimate",
     "core.strategy_self_s", _after_strategy),
    ("repro.core.sampling", "SamplingStrategy.estimate",
     "core.strategy_self_s", _after_strategy),
    ("repro.core.coestimator", "PowerCoEstimator.estimate", "core.facade_s",
     None),
    ("repro.core.explorer", "DesignSpaceExplorer.evaluate", "core.facade_s",
     None),
    ("repro.parallel.runners", "run_estimate", "core.facade_s", None),
    ("repro.parallel.runners", "run_explorer_point", "core.facade_s", None),
    ("repro.core.explorer", "parallel_sweep", "parallel.sweep_s", None),
    ("repro.parallel.pool", "execute_spec", "parallel.execute_overhead_s",
     None),
    ("repro.cluster.worker", "execute_spec", "parallel.execute_overhead_s",
     None),
    ("repro.service.server", "_Handler.do_POST", "service.self_s", None),
    ("repro.service.server", "_Handler.do_GET", "service.self_s", None),
    ("repro.service.server", "CoEstimationService._execute", "service.self_s",
     None),
    ("repro.cluster.worker", "_WorkerHandler.do_POST", "cluster.worker_self_s",
     None),
]

#: Blocking hand-offs: charged to no layer.
WAITS: List[Tuple[str, str]] = [
    ("repro.service.server", "PendingResult.wait"),
]

#: Import sites of ``call_with_watchdog``.
WATCHDOG_SITES = ["repro.resilience.supervisor", "repro.service.server",
                  "repro.parallel.pool"]


class Installation:
    """The patches applied by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        if getattr(original, "perfbench_span", False):
            raise RuntimeError("%s.%s is already wrapped" % (owner, attr))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`SPANS`, :data:`WAITS` and the
    watchdog import sites.

    All modules are imported before the first patch: a module imported
    later would bind an already wrapped name at its import site, and
    wrapping that again would nest two spans for one call.
    """
    for module_name in [entry[0] for entry in SPANS + WAITS] + WATCHDOG_SITES:
        importlib.import_module(module_name)
    installation = Installation()
    for module_name, path, bucket, after in SPANS:
        owner, attr = _resolve(module_name, path)
        installation.patch(owner, attr, span_wrapper(
            tracer, owner.__dict__[attr], bucket, after))
    for module_name, path in WAITS:
        owner, attr = _resolve(module_name, path)
        installation.patch(owner, attr, span_wrapper(
            tracer, owner.__dict__[attr], "wait", wait=True))
    for module_name in WATCHDOG_SITES:
        owner, attr = _resolve(module_name, "call_with_watchdog")
        installation.patch(owner, attr, watchdog_wrapper(
            tracer, owner.__dict__[attr]))
    return installation


def memo_stats() -> Dict[str, int]:
    """Process-wide hit/miss counters of the exact memo and compile cache."""
    from repro.hw.estimator import HW_RUN_MEMO_STATS
    from repro.hw.logicsim import COMPILE_CACHE_STATS

    return {"hw.memo_hits": HW_RUN_MEMO_STATS.hits,
            "hw.compile_misses": COMPILE_CACHE_STATS.misses}


def stats_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = memo_stats()
    return {name: after[name] - before[name] for name in after}
