"""Request/response model of the co-estimation service.

The wire format is deliberately tiny — JSON in, JSON out — but the
request model does two jobs beyond parsing:

* **Validation with named errors.**  A long-lived server cannot afford
  Python tracebacks as its error channel; every malformed field becomes
  a :class:`BadRequest` with a message the client can act on.
* **Value identity.**  :func:`request_fingerprint` folds the PR-2
  structural CFSM fingerprints together with a workload signature
  (stimuli, strategy, fault plan, shared-memory image) into one digest.
  Two requests with equal fingerprints ask for the *same computation*,
  which is what makes request deduplication idempotent rather than
  merely name-based: a rebuilt-but-identical system coalesces, a
  system that changed under the same name does not.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cfsm.events import Event
from repro.cfsm.fingerprint import cfsm_signature
from repro.errors import ReproError
from repro.parallel.jobs import JobSpec, job_seed
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import ResilienceConfig
from repro.systems import builder_spec
from repro.systems.bundle import SystemBundle

if TYPE_CHECKING:
    from repro.core.report import EnergyReport
    from repro.service.breaker import ScopedBreakers

__all__ = [
    "PRIORITIES",
    "PRIORITY_NAMES",
    "BadRequest",
    "EstimateRequest",
    "parse_request",
    "workload_signature",
    "request_fingerprint",
    "estimate_job",
    "estimate_answer",
]

#: Admission priorities, lowest to highest.  Load shedding removes the
#: numerically lowest queued priority first.
PRIORITIES = {"low": 0, "normal": 1, "high": 2}
PRIORITY_NAMES = {value: name for name, value in PRIORITIES.items()}

_STRATEGIES = ("full", "caching", "macromodel", "sampling")
_FAULT_SITES = ("hw", "iss", "cache", "bus")
_FAULT_KINDS = ("exception", "hang", "corrupt")

_request_counter = itertools.count(1)


class BadRequest(ReproError):
    """A client request failed validation (HTTP 400)."""


@dataclass
class EstimateRequest:
    """One admitted co-estimation request.

    Attributes:
        system: bundled system name (see ``repro.systems.BUILDERS``).
        strategy: estimation strategy name.
        priority: admission priority (0=low, 1=normal, 2=high).
        deadline_s: end-to-end budget (queue wait + run).  Propagated
            into the run's resilience watchdog so a slow gate-level
            call degrades instead of pinning a worker.
        fault_plan: optional fault-injection plan (chaos requests).
        fault_retries: supervised retries per faulted invocation.
        request_id: client-supplied or generated identifier (logs,
            checkpoints); *not* part of the fingerprint.
    """

    system: str
    strategy: str = "caching"
    priority: int = PRIORITIES["normal"]
    deadline_s: float = 30.0
    fault_plan: Optional[FaultPlan] = None
    fault_retries: int = 1
    request_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = "req-%d" % next(_request_counter)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able snapshot for the drain checkpoint."""
        payload: Dict[str, Any] = {
            "system": self.system,
            "strategy": self.strategy,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "request_id": self.request_id,
            "fault_retries": self.fault_retries,
        }
        if self.fault_plan is not None:
            # Requests can only carry uniform plans (see parse_request),
            # so rate/sites/kind round-trip losslessly through the
            # payload.
            specs = self.fault_plan.specs
            payload["fault"] = {
                "rate": specs[0].probability if specs else 0.0,
                "sites": sorted({spec.site for spec in specs}),
                "seed": self.fault_plan.seed,
                "retries": self.fault_retries,
                "kind": specs[0].kind if specs else "exception",
                "hang_s": specs[0].hang_s if specs else 0.05,
            }
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     known_systems: Optional[List[str]] = None
                     ) -> "EstimateRequest":
        """Rebuild a request from its checkpoint payload (validated)."""
        return parse_request(payload, known_systems=known_systems)


def parse_request(body: Any,
                  known_systems: Optional[List[str]] = None,
                  default_deadline_s: float = 30.0) -> EstimateRequest:
    """Validate a decoded JSON body into an :class:`EstimateRequest`.

    Raises :class:`BadRequest` naming the offending field; never lets a
    malformed value reach the workers.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    system = body.get("system")
    if not isinstance(system, str) or not system:
        raise BadRequest("'system' is required and must be a string")
    if known_systems is not None and system not in known_systems:
        raise BadRequest(
            "unknown system %r (choose from %s)"
            % (system, ", ".join(sorted(known_systems)))
        )
    strategy = body.get("strategy", "caching")
    if strategy not in _STRATEGIES:
        raise BadRequest(
            "unknown strategy %r (choose from %s)"
            % (strategy, ", ".join(_STRATEGIES))
        )
    priority = body.get("priority", "normal")
    if isinstance(priority, str):
        if priority not in PRIORITIES:
            raise BadRequest(
                "unknown priority %r (choose from %s)"
                % (priority, ", ".join(PRIORITIES))
            )
        priority = PRIORITIES[priority]
    elif isinstance(priority, bool) or not isinstance(priority, int):
        raise BadRequest("'priority' must be low/normal/high or an integer")
    deadline_s = body.get("deadline_s", default_deadline_s)
    if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
        raise BadRequest("'deadline_s' must be a number")
    if not deadline_s > 0:
        raise BadRequest("'deadline_s' must be positive")
    fault_plan = None
    fault_retries = 1
    fault = body.get("fault")
    if fault is not None:
        if not isinstance(fault, dict):
            raise BadRequest("'fault' must be an object")
        rate = fault.get("rate", 0.0)
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise BadRequest("'fault.rate' must be a number")
        if not 0.0 <= rate <= 1.0:
            raise BadRequest("'fault.rate' must be in [0, 1]")
        sites = fault.get("sites", list(_FAULT_SITES))
        if (not isinstance(sites, list)
                or not all(isinstance(s, str) for s in sites)):
            raise BadRequest("'fault.sites' must be a list of site names")
        unknown = sorted(set(sites) - set(_FAULT_SITES))
        if unknown:
            raise BadRequest(
                "unknown fault sites %s (choose from %s)"
                % (unknown, ", ".join(_FAULT_SITES))
            )
        seed = fault.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise BadRequest("'fault.seed' must be an integer")
        retries = fault.get("retries", 1)
        if isinstance(retries, bool) or not isinstance(retries, int) \
                or retries < 0:
            raise BadRequest("'fault.retries' must be a non-negative integer")
        kind = fault.get("kind", "exception")
        if kind not in _FAULT_KINDS:
            raise BadRequest(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(_FAULT_KINDS))
            )
        hang_s = fault.get("hang_s", 0.05)
        if isinstance(hang_s, bool) \
                or not isinstance(hang_s, (int, float)) or hang_s < 0:
            raise BadRequest("'fault.hang_s' must be a non-negative number")
        if rate > 0 and sites:
            fault_plan = FaultPlan.uniform(sites, float(rate), seed=seed,
                                           kind=kind, hang_s=float(hang_s))
            fault_retries = retries
    request_id = body.get("request_id", "")
    if not isinstance(request_id, str):
        raise BadRequest("'request_id' must be a string")
    return EstimateRequest(
        system=system,
        strategy=strategy,
        priority=priority,
        deadline_s=float(deadline_s),
        fault_plan=fault_plan,
        fault_retries=fault_retries,
        request_id=request_id,
    )


def workload_signature(stimuli: List[Event]) -> str:
    """Digest of a stimulus list (the workload half of the fingerprint)."""
    payload = tuple(
        (event.name, event.value, event.time, event.source)
        for event in stimuli
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def request_fingerprint(bundle: SystemBundle,
                        request: EstimateRequest) -> str:
    """Idempotency key: same fingerprint ⇒ same computation.

    Built from the structural :func:`~repro.cfsm.fingerprint.
    cfsm_signature` of every CFSM in the network (value identity — two
    builds of the same design match, a changed design does not), the
    workload signature of the stimuli, the strategy, the shared-memory
    image, and the fault plan (a chaos request must never coalesce with
    a clean one).  Priority, deadline and request id are deliberately
    excluded: they change *scheduling*, not the computed answer.
    """
    network = bundle.network
    cfsms = tuple(
        cfsm_signature(network.cfsms[name]) for name in sorted(network.cfsms)
    )
    implementations = tuple(
        (name, str(network.implementation(name)))
        for name in sorted(network.cfsms)
    )
    memory = tuple(sorted((bundle.shared_memory_image or {}).items()))
    fault = None
    if request.fault_plan is not None:
        fault = (
            tuple(
                (spec.site, spec.kind, spec.probability, spec.hang_s)
                for spec in request.fault_plan.specs
            ),
            request.fault_plan.seed,
            request.fault_retries,
        )
    payload = (
        request.system,
        request.strategy,
        cfsms,
        implementations,
        memory,
        workload_signature(bundle.stimuli()),
        fault,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def estimate_job(request: EstimateRequest, watchdog_s: float,
                 breakers: "ScopedBreakers",
                 trace: Optional[Dict[str, str]] = None,
                 collect_telemetry: bool = False) -> JobSpec:
    """The ``run_estimate`` job that answers ``request``.

    ``watchdog_s`` bounds every low-level call of the run; ``breakers``
    are the caller's circuit breakers scoped to ``request.system``.
    """
    builder, builder_kwargs = builder_spec(request.system)
    return JobSpec(
        fn="repro.parallel.runners:run_estimate",
        payload={
            "builder": builder,
            "builder_kwargs": dict(builder_kwargs),
            "strategy": request.strategy,
            "label": "%s/%s" % (request.system, request.strategy),
            "resilience": ResilienceConfig(
                fault_plan=request.fault_plan,
                watchdog_s=watchdog_s,
                max_retries=request.fault_retries,
                breaker_registry=breakers,
            ),
        },
        label=request.request_id,
        seed=job_seed(0, request.system),
        collect_telemetry=collect_telemetry,
        trace=trace,
    )


def estimate_answer(request: EstimateRequest, report: "EnergyReport",
                    breakers: "ScopedBreakers",
                    run_seconds: float) -> Dict[str, Any]:
    """The 200 body of a finished estimate.  ``repro serve`` adds
    ``fingerprint`` and ``queue_seconds``, a cluster worker ``kind``,
    and the coordinator ``fingerprint`` and ``cluster``."""
    import dataclasses

    return {
        "status": "ok",
        "request_id": request.request_id,
        "system": request.system,
        "strategy": request.strategy,
        "total_energy_j": report.total_energy_j,
        "provenance": dict(report.provenance),
        "by_provenance": dict(report.by_provenance),
        "degraded": any(count > 0 for level, count
                        in report.provenance.items() if level != "exact"),
        "breakers": breakers.states(),
        "run_seconds": run_seconds,
        "report": dataclasses.asdict(report),
    }
