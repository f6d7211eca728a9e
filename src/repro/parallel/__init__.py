"""Parallel execution engine for independent co-estimation runs.

Design-space exploration, benchmark sweeps, and sampling replicas all
share one shape: many *independent* co-estimation runs whose inputs are
small, picklable descriptions (a builder callable plus parameters) and
whose outputs are small reports.  This package fans those runs out
across worker processes:

* :mod:`repro.parallel.jobs` — the :class:`JobSpec`/:class:`JobResult`
  contract and deterministic per-job seeding;
* :mod:`repro.parallel.pool` — the process-pool engine (per-job
  timeout, bounded retry on worker crash, ``jobs=1`` running inline so
  the default path is byte-identical to the sequential code);
* :mod:`repro.parallel.runners` — worker-side entry points that
  get a system from its builder spec and run one unit of work;
* :mod:`repro.parallel.merge` — merging per-worker metrics snapshots
  and span traces into one timeline (workers become Perfetto
  processes).

Workers build systems from source descriptions rather than receiving
live simulator objects: simulators hold compiled closures and open
telemetry, which do not pickle.  Each worker builds a given
(builder, kwargs) once and shares the bundle read-only with every
later job (:func:`repro.systems.shared_bundle`).
"""

import importlib

from repro.parallel.jobs import (
    JobError,
    JobResult,
    JobSpec,
    job_seed,
    resolve_callable,
    spec_from_wire,
    spec_to_wire,
)

#: Names whose modules load on first access (PEP 562): building a
#: system needs only :mod:`repro.parallel.jobs`, not the process pool
#: and the ``multiprocessing``, observability and resilience layers it
#: brings in.
_LAZY = {
    "PoolStats": "repro.parallel.pool",
    "run_jobs": "repro.parallel.pool",
    "merge_metrics_snapshots": "repro.parallel.merge",
    "merged_chrome_trace_events": "repro.parallel.merge",
    "write_merged_chrome_trace": "repro.parallel.merge",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "JobError",
    "JobResult",
    "JobSpec",
    "PoolStats",
    "job_seed",
    "merge_metrics_snapshots",
    "merged_chrome_trace_events",
    "resolve_callable",
    "run_jobs",
    "spec_from_wire",
    "spec_to_wire",
]
