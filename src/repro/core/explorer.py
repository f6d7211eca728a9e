"""Communication-architecture design-space exploration (Section 5.3).

The explorer sweeps bus parameters — DMA block size and arbitration
priority assignments — re-running power co-estimation for each
configuration *without recompiling the system description*, exactly the
iterative use-case the paper's acceleration techniques exist for.

Two execution modes:

* :meth:`DesignSpaceExplorer.sweep` — sequential, in-process;
* :func:`parallel_sweep` — the same cross product fanned out over the
  :mod:`repro.parallel` process pool, returning points in the same
  order as the sequential sweep.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cfsm.events import Event
from repro.cfsm.model import Network
from repro.core.caching import WarmStartCache
from repro.core.coestimator import PowerCoEstimator
from repro.core.report import EnergyReport
from repro.core.strategy import EstimationStrategy
from repro.master.master import MasterConfig


@dataclass
class DesignPoint:
    """One evaluated configuration."""

    dma_block_words: int
    priorities: Dict[str, int]
    priority_label: str
    report: EnergyReport

    @property
    def total_energy_j(self) -> float:
        return self.report.total_energy_j


def priority_permutations(masters: Sequence[str]) -> List[Dict[str, int]]:
    """All strict priority orderings of ``masters``.

    Three bus masters yield the paper's six assignments.
    """
    assignments = []
    for order in itertools.permutations(masters):
        assignments.append({name: rank for rank, name in enumerate(order)})
    return assignments


def priority_label(priorities: Dict[str, int]) -> str:
    """Human-readable ``a > b > c`` rendering of an assignment."""
    ordered = sorted(priorities, key=lambda name: priorities[name])
    return " > ".join(ordered)


class DesignSpaceExplorer:
    """Exhaustive sweep over DMA sizes and priority assignments."""

    def __init__(
        self,
        network: Network,
        base_config: MasterConfig,
        stimuli_factory: Callable[[], List[Event]],
        shared_memory_image: Optional[Dict[int, int]] = None,
    ) -> None:
        self.network = network
        self.base_config = base_config
        self.stimuli_factory = stimuli_factory
        self.shared_memory_image = shared_memory_image
        self.exploration_seconds = 0.0

    def evaluate(
        self,
        dma_block_words: int,
        priorities: Dict[str, int],
        strategy: Union[str, EstimationStrategy, None] = None,
        warm_start: Optional[WarmStartCache] = None,
        telemetry=None,
    ) -> DesignPoint:
        """Co-estimate one (DMA size, priority assignment) point.

        With ``warm_start``, the point runs under a caching strategy
        backed by the shared (validity-guarded) energy cache instead of
        a fresh one, overriding ``strategy``.
        """
        bus_params = self.base_config.bus_params.with_dma(dma_block_words)
        bus_params = bus_params.with_priorities(priorities)
        config = replace(self.base_config, bus_params=bus_params)
        if warm_start is not None:
            strategy = warm_start.strategy_for(self.network, config)
        estimator = PowerCoEstimator(self.network, config)
        result = estimator.estimate(
            self.stimuli_factory(),
            strategy=strategy,
            shared_memory_image=self.shared_memory_image,
            label="dma=%d,%s" % (dma_block_words, priority_label(priorities)),
            telemetry=telemetry,
        )
        return DesignPoint(
            dma_block_words=dma_block_words,
            priorities=dict(priorities),
            priority_label=priority_label(priorities),
            report=result.report,
        )

    def sweep(
        self,
        dma_sizes: Iterable[int],
        priority_assignments: Iterable[Dict[str, int]],
        strategy: Union[str, EstimationStrategy, None] = None,
        warm_start: Optional[WarmStartCache] = None,
        telemetry=None,
    ) -> List[DesignPoint]:
        """Exhaustively evaluate the cross product of the two sweeps."""
        started = _time.perf_counter()
        points = []
        for priorities in priority_assignments:
            for dma in dma_sizes:
                points.append(
                    self.evaluate(
                        dma,
                        priorities,
                        strategy=strategy,
                        warm_start=warm_start,
                        telemetry=telemetry,
                    )
                )
        self.exploration_seconds = _time.perf_counter() - started
        return points

    @staticmethod
    def minimum_energy_point(points: Sequence[DesignPoint]) -> DesignPoint:
        """The lowest-total-energy configuration of a sweep."""
        if not points:
            raise ValueError("no design points evaluated")
        return min(points, key=lambda point: point.total_energy_j)


def _builder_id(builder: Union[str, Callable]) -> str:
    """Stable identity of a system builder for checkpoint signatures."""
    if isinstance(builder, str):
        return builder
    return "%s:%s" % (
        getattr(builder, "__module__", "?"),
        getattr(builder, "__qualname__", getattr(builder, "__name__", "?")),
    )


def design_point_payload(point: DesignPoint) -> Dict[str, Any]:
    """A JSON-serializable snapshot of one finished design point."""
    import dataclasses

    return {
        "dma_block_words": point.dma_block_words,
        "priorities": dict(point.priorities),
        "priority_label": point.priority_label,
        "report": dataclasses.asdict(point.report),
    }


def sweep_summary_rows(points: Sequence[DesignPoint]) -> List[Dict[str, Any]]:
    """Deterministic summary rows of a sweep (no timing fields).

    Timing (``*_seconds``) is excluded, so a resumed, re-dispatched, or
    cluster-sharded sweep produces rows byte-identical to an
    uninterrupted single-process run — the property the kill-mid-sweep
    tests assert.  ``repro explore --out`` and the cluster coordinator's
    ``/sweep`` response both emit exactly these rows.
    """
    import dataclasses

    rows = []
    for point in points:
        report = {
            key: value
            for key, value in dataclasses.asdict(point.report).items()
            if not key.endswith("_seconds")
        }
        rows.append(
            {
                "dma_block_words": point.dma_block_words,
                "priority_label": point.priority_label,
                "total_energy_j": point.total_energy_j,
                "report": report,
            }
        )
    return rows


def design_point_from_payload(payload: Dict[str, Any]) -> DesignPoint:
    """Rebuild a :class:`DesignPoint` from its checkpoint payload.

    JSON round-trips Python floats exactly (shortest-repr), so a
    restored point's report carries the very numbers the original run
    produced — the property that makes resumed sweeps byte-identical.
    """
    return DesignPoint(
        dma_block_words=payload["dma_block_words"],
        priorities=dict(payload["priorities"]),
        priority_label=payload["priority_label"],
        report=EnergyReport(**payload["report"]),
    )


@dataclass
class SweepJobs:
    """The jobs of one sweep, as :func:`parallel_sweep` and the cluster
    coordinator's ``/sweep`` both run them.

    ``specs`` are *DMA-major* (all priority assignments of one DMA size
    adjacent, so a worker's warm-start cache sees the fewest
    invalidations); ``sweep_order`` lists their indices in
    :meth:`DesignSpaceExplorer.sweep` order (priorities-major), the
    order results are returned in.  ``signature`` keys the checkpoint.
    """

    specs: List[Any]
    sweep_order: List[int]
    signature: str

    def in_sweep_order(self, by_index: Dict[int, Any]) -> List[Any]:
        """The values of ``by_index`` in sweep order (missing skipped)."""
        return [by_index[i] for i in self.sweep_order if i in by_index]


def sweep_jobs(
    builder: Union[str, Callable],
    dma_sizes: Sequence[int],
    priority_assignments: Sequence[Dict[str, int]],
    strategy: str = "caching",
    warm_start: bool = False,
    builder_kwargs: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    collect_telemetry: bool = False,
    root_seed: int = 0,
    fault_plan=None,
    fault_retries: int = 1,
) -> SweepJobs:
    """One ``run_explorer_point`` job per design point, labelled
    ``dma=<words>,<priority order>`` and seeded from the label, so a
    point's result does not depend on the process or node that runs it.
    """
    from repro.parallel import JobSpec, job_seed
    from repro.resilience.checkpoint import (
        resilience_signature,
        sweep_signature,
    )

    priority_assignments = [dict(p) for p in priority_assignments]
    common: Dict[str, Any] = {
        "builder": builder,
        "strategy": strategy,
        "builder_kwargs": dict(builder_kwargs or {}),
        "warm_start": warm_start,
        "warm_key": "%s/%s" % (builder, strategy),
    }
    if fault_plan is not None:
        common["fault_plan"] = fault_plan
        common["fault_retries"] = fault_retries
    specs = []
    for dma in dma_sizes:
        for priorities in priority_assignments:
            label = "dma=%d,%s" % (dma, priority_label(priorities))
            specs.append(JobSpec(
                fn="repro.parallel.runners:run_explorer_point",
                payload=dict(common, dma_block_words=dma,
                             priorities=priorities),
                label=label,
                seed=job_seed(root_seed, label),
                timeout_s=timeout_s,
                max_retries=max_retries,
                collect_telemetry=collect_telemetry,
            ))
    per_dma = len(priority_assignments)
    # The signature covers everything that changes what a point means —
    # but not the point list, so a partial checkpoint can seed a larger
    # sweep over the same system.  The resilience section is folded in
    # unconditionally (even all-None), so a no-fault checkpoint and a
    # faulted one can never be mixed.
    signature = sweep_signature(
        builder=_builder_id(builder),
        strategy=strategy,
        builder_kwargs=dict(builder_kwargs or {}),
        warm_start=warm_start,
        root_seed=root_seed,
        resilience=resilience_signature(
            fault_plan=fault_plan,
            fault_retries=(fault_retries if fault_plan is not None else None),
            timeout_s=timeout_s,
        ),
    )
    return SweepJobs(
        specs=specs,
        sweep_order=[dma_index * per_dma + prio_index
                     for prio_index in range(per_dma)
                     for dma_index in range(len(dma_sizes))],
        signature=signature,
    )


def open_sweep_checkpoint(
    jobs: SweepJobs,
    checkpoint_path: Optional[str],
    resume_path: Optional[str],
) -> Tuple[Callable[[str, Dict[str, Any]], None], Dict[int, Dict[str, Any]]]:
    """Returns ``(record, restored)`` for one sweep's checkpoint.

    ``restored`` maps spec index to the payload of every point
    ``resume_path`` already holds (a
    :class:`~repro.resilience.checkpoint.CheckpointError` if that file
    is missing or from another sweep).  ``record(label, payload)``
    rewrites ``checkpoint_path`` with one more finished point; the file
    is written once here, so it exists from the first moment on.
    """
    from repro.resilience.checkpoint import CheckpointWriter, load_checkpoint

    completed: Dict[str, Any] = {}
    if resume_path is not None:
        completed = load_checkpoint(resume_path, jobs.signature)
    writer = None
    if checkpoint_path is not None:
        writer = CheckpointWriter(checkpoint_path, jobs.signature,
                                  completed=completed)
        writer.flush()

    def record(label: str, payload: Dict[str, Any]) -> None:
        if writer is not None:
            writer.record_and_flush(
                label, payload, meta={"total_points": len(jobs.specs)})

    restored = {index: completed[spec.label]
                for index, spec in enumerate(jobs.specs)
                if completed.get(spec.label) is not None}
    return record, restored


def parallel_sweep(
    builder: Union[str, Callable],
    dma_sizes: Sequence[int],
    priority_assignments: Sequence[Dict[str, int]],
    strategy: str = "caching",
    jobs: int = 1,
    warm_start: bool = False,
    builder_kwargs: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    collect_telemetry: bool = False,
    root_seed: int = 0,
    stats=None,
    checkpoint_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    fault_plan=None,
    fault_retries: int = 1,
    on_point=None,
) -> Tuple[List[DesignPoint], List[Any]]:
    """The explorer cross product over the :mod:`repro.parallel` pool.

    ``builder`` names a system-bundle factory (``"module:callable"``,
    e.g. ``"repro.systems.tcpip:build_system"``) that every worker
    resolves and calls in-process with ``dma_block_words``,
    ``priorities``, and ``builder_kwargs`` — jobs carry descriptions,
    never live simulators.

    Jobs are *ordered DMA-major* (all priority assignments of one DMA
    size adjacent) so a worker's warm-start cache sees the fewest
    invalidations, but the returned points are re-ordered to match
    :meth:`DesignSpaceExplorer.sweep` (priorities-major).  With
    ``jobs=1`` everything runs inline in this process.

    Returns ``(points, job_results)``; failed jobs (after retries) show
    up as ``None`` points with the failure recorded on the job result.
    Pass a :class:`~repro.parallel.PoolStats` as ``stats`` for
    retry/timeout/crash accounting.

    **Checkpoint/resume.**  With ``checkpoint_path``, the sweep
    atomically rewrites that file after every completed point, so a
    killed sweep loses at most the points in flight.  With
    ``resume_path``, previously completed points are loaded (after a
    sweep-signature compatibility check) and *not* re-run; their
    restored reports are byte-identical to the original run's.  The two
    paths are usually the same file.  ``fault_plan`` arms fault
    injection inside every point's master, and ``on_point`` is invoked
    with each finalized job result in completion order (the point list
    itself excludes no one: both run and restored points come back in
    sweep order).
    """
    from repro.parallel import run_jobs
    from repro.parallel.jobs import JobResult

    plan = sweep_jobs(
        builder, dma_sizes, priority_assignments, strategy=strategy,
        warm_start=warm_start, builder_kwargs=builder_kwargs,
        timeout_s=timeout_s, max_retries=max_retries,
        collect_telemetry=collect_telemetry, root_seed=root_seed,
        fault_plan=fault_plan, fault_retries=fault_retries,
    )
    record, restored = open_sweep_checkpoint(
        plan, checkpoint_path, resume_path
    )
    results: Dict[int, JobResult] = {
        index: JobResult(
            label=plan.specs[index].label,
            index=index,
            value=design_point_from_payload(payload),
            attempts=0,
            worker_pid=0,
        )
        for index, payload in restored.items()
    }
    todo_indices = [i for i in range(len(plan.specs)) if i not in restored]

    def handle(result) -> None:
        if result.error is None and result.value is not None:
            record(result.label, design_point_payload(result.value))
        if on_point is not None:
            on_point(result)

    fresh = (
        run_jobs([plan.specs[i] for i in todo_indices], jobs=jobs,
                 stats=stats, on_result=handle)
        if todo_indices
        else []
    )
    for index, result in zip(todo_indices, fresh):
        result.index = index
        results[index] = result
    ordered_results = plan.in_sweep_order(results)
    return [result.value for result in ordered_results], ordered_results


@dataclass
class PartitionPoint:
    """One evaluated HW/SW partition."""

    assignment: Dict[str, str]
    label: str
    report: EnergyReport

    @property
    def total_energy_j(self) -> float:
        return self.report.total_energy_j


def partition_label(assignment: Dict[str, str]) -> str:
    """Compact ``name:hw,name:sw`` rendering of a partition."""
    return ",".join("%s:%s" % (name, assignment[name])
                    for name in sorted(assignment))


class PartitionExplorer:
    """Coarse-grained HW/SW partitioning exploration.

    The paper reports using the co-estimation tool (and the relative
    accuracy of macro-modeling) "by attempting to rank several
    different HW/SW partitions"; this explorer evaluates a list of
    partition assignments under any estimation strategy.  Processes
    using operations the hardware datapath cannot implement (MUL, DIV,
    MOD) must stay in software — synthesis raises a clear error
    otherwise.
    """

    def __init__(
        self,
        network: Network,
        config: MasterConfig,
        stimuli_factory: Callable[[], List[Event]],
        shared_memory_image: Optional[Dict[int, int]] = None,
    ) -> None:
        self.network = network
        self.config = config
        self.stimuli_factory = stimuli_factory
        self.shared_memory_image = shared_memory_image

    def evaluate(
        self,
        assignment: Dict[str, str],
        strategy: Union[str, EstimationStrategy, None] = None,
    ) -> PartitionPoint:
        """Co-estimate one partition; the network mapping is restored
        afterwards."""
        original = dict(self.network.mapping)
        try:
            for name, implementation in assignment.items():
                self.network.remap(name, implementation)
            estimator = PowerCoEstimator(self.network, self.config)
            result = estimator.estimate(
                self.stimuli_factory(),
                strategy=strategy,
                shared_memory_image=self.shared_memory_image,
                label="partition(%s)" % partition_label(assignment),
            )
        finally:
            self.network.mapping.update(original)
        return PartitionPoint(
            assignment=dict(assignment),
            label=partition_label(assignment),
            report=result.report,
        )

    def sweep(
        self,
        assignments: Iterable[Dict[str, str]],
        strategy: Union[str, EstimationStrategy, None] = None,
    ) -> List[PartitionPoint]:
        """Evaluate every partition assignment."""
        return [self.evaluate(assignment, strategy=strategy)
                for assignment in assignments]

    @staticmethod
    def ranking(points: Sequence[PartitionPoint]) -> List[PartitionPoint]:
        """Points sorted from lowest to highest total energy."""
        return sorted(points, key=lambda point: point.total_energy_j)
