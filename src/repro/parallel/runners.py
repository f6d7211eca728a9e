"""Worker-side entry points.

These are the functions named by :class:`~repro.parallel.jobs.JobSpec`
``fn`` strings.  Each one gets its system *inside the worker* from a
builder spec (``"module:callable"``) through
:func:`~repro.systems.shared_bundle`, so a process builds each
(builder, kwargs) once and every later job shares that bundle
read-only; it runs one unit of work and returns a small picklable
result (a
:class:`~repro.core.explorer.DesignPoint` or an
:class:`~repro.core.report.EnergyReport`) — never a live master or
simulator, which hold compiled closures that do not pickle.

Module state persists for the lifetime of a worker process, which is
what makes per-worker warm starting work: ``_WARM_CACHES`` keeps one
:class:`~repro.core.caching.WarmStartCache` per sweep key, so every
job a worker runs after its first starts from the energy statistics
its predecessors converged (validity-guarded per CFSM, see
``docs/parallelism.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.core.caching import WarmStartCache
from repro.core.explorer import DesignPoint, DesignSpaceExplorer
from repro.core.report import EnergyReport
from repro.systems import shared_bundle

__all__ = [
    "run_explorer_point",
    "run_estimate",
    "reset_warm_caches",
    "get_warm_cache",
    "warm_cache_state",
    "seed_warm_cache",
]

#: Per-process warm-start caches, keyed by sweep identity.  Lives for
#: the worker's lifetime; ``fork`` workers start with the parent's
#: (usually empty) copy.
_WARM_CACHES: Dict[str, WarmStartCache] = {}


def reset_warm_caches() -> None:
    """Drop all per-process warm-start caches (tests)."""
    _WARM_CACHES.clear()


def _warm_cache(key: str) -> WarmStartCache:
    cache = _WARM_CACHES.get(key)
    if cache is None:
        cache = _WARM_CACHES[key] = WarmStartCache()
    return cache


def get_warm_cache(key: str) -> WarmStartCache:
    """This process's warm-start cache for ``key`` (created on demand)."""
    return _warm_cache(key)


def warm_cache_state(key: str) -> Optional[Dict[str, Any]]:
    """Exportable snapshot of the warm cache for ``key`` (None if cold).

    The cluster worker pushes this to the coordinator's shared cache
    tier after warm sweep points, so §4.2 convergence transfers across
    nodes (fingerprint-guarded on adoption, see
    :meth:`~repro.core.caching.WarmStartCache.export_state`).
    """
    cache = _WARM_CACHES.get(key)
    return cache.export_state() if cache is not None else None


def seed_warm_cache(key: str, state: Dict[str, Any]) -> int:
    """Adopt a coordinator-shipped cache snapshot for ``key``.

    Only a *cold* local cache adopts — a local cache that already holds
    converged entries is further along than anything worth overwriting
    mid-sweep.  Returns the adopted entry count (0 if skipped).
    """
    cache = _warm_cache(key)
    if cache.entry_count > 0:
        return 0
    return cache.adopt_state(state)


def run_explorer_point(
    builder: Union[str, Callable],
    dma_block_words: int,
    priorities: Dict[str, int],
    strategy: str = "caching",
    builder_kwargs: Optional[Dict[str, Any]] = None,
    warm_start: bool = False,
    warm_key: str = "",
    fault_plan=None,
    fault_retries: int = 1,
    telemetry=None,
) -> DesignPoint:
    """Co-estimate one design point on this process's shared bundle.

    ``builder`` names a function returning a
    :class:`~repro.systems.bundle.SystemBundle`; the bundle is built
    (once per process, see :func:`~repro.systems.shared_bundle`) with
    ``builder_kwargs`` plus ``dma_block_words``.  ``priorities`` never
    reach the builder: the point applies them to the bus parameters,
    so every priority order of one DMA size shares one bundle.  With
    ``warm_start=True`` the point runs against this process's shared
    energy cache for ``warm_key`` (guarded, see
    :class:`~repro.core.caching.WarmStartCache`).  A ``fault_plan``
    arms the resilience layer inside the point's master: injected
    estimator failures degrade gracefully instead of failing the job.
    """
    kwargs = dict(builder_kwargs or {})
    kwargs["dma_block_words"] = dma_block_words
    bundle = shared_bundle(builder, kwargs)
    config = bundle.config
    if fault_plan is not None:
        from dataclasses import replace

        from repro.resilience.supervisor import ResilienceConfig

        config = replace(
            config,
            resilience=ResilienceConfig(
                fault_plan=fault_plan, max_retries=fault_retries
            ),
        )
    explorer = DesignSpaceExplorer(
        bundle.network,
        config,
        bundle.stimuli_factory,
        shared_memory_image=bundle.shared_memory_image,
    )
    warm = None
    if warm_start:
        warm = _warm_cache(warm_key or str(builder))
    return explorer.evaluate(
        dma_block_words,
        priorities,
        strategy=strategy,
        warm_start=warm,
        telemetry=telemetry,
    )


def run_estimate(
    builder: Union[str, Callable],
    builder_kwargs: Optional[Dict[str, Any]] = None,
    strategy: str = "full",
    label: str = "",
    telemetry=None,
    resilience=None,
) -> EnergyReport:
    """Run one co-estimation on the shared bundle of ``builder`` and
    ``builder_kwargs``; returns the report.

    ``resilience`` (a :class:`~repro.resilience.supervisor.
    ResilienceConfig`) overrides the bundle's own resilience settings —
    the co-estimation service uses this to arm each run with the
    request's deadline watchdog, fault plan, and its shared circuit
    breakers.
    """
    from repro.core.coestimator import PowerCoEstimator

    bundle = shared_bundle(builder, builder_kwargs)
    config = bundle.config
    if resilience is not None:
        from dataclasses import replace

        config = replace(config, resilience=resilience)
    estimator = PowerCoEstimator(bundle.network, config)
    result = estimator.estimate(
        bundle.stimuli(),
        strategy=strategy,
        shared_memory_image=bundle.shared_memory_image,
        label=label,
        telemetry=telemetry,
    )
    return result.report
