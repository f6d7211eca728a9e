"""The unified exception hierarchy of the co-estimation framework.

Every error the framework raises on purpose derives from
:class:`ReproError`, so callers embedding the tool (explorers, job
pools, services) can catch one type instead of importing a dozen
module-specific exceptions.  Component modules keep their historical
exception *names* (``IssError``, ``HwEstimatorError``, ...) — only
their base class changed — so existing ``except`` clauses and error
messages are untouched.

``ReproError`` optionally carries structured context — which component
failed, on which execution path, at what simulation time — so that
supervisors and logs can attribute a failure without parsing message
strings::

    raise IssError("unknown opcode", component="consumer",
                   sim_time_ns=1250.0)

The context keywords are always optional; plain ``raise IssError(msg)``
behaves exactly as before.

This module is intentionally a leaf: it imports nothing from the rest
of the package, so any module (including :mod:`repro.master` and
:mod:`repro.parallel`, which sit on opposite sides of the import graph)
can depend on it.
"""

from __future__ import annotations

from typing import Dict, Optional, Union


class ReproError(Exception):
    """Base class of every framework-raised error.

    Attributes:
        component: the CFSM / subsystem the failure is attributed to.
        path_id: identity of the execution path (e.g. an
            :attr:`~repro.estimation.EstimationJob.path_key`) in flight.
        sim_time_ns: simulation time at which the failure occurred.
    """

    def __init__(
        self,
        *args,
        component: Optional[str] = None,
        path_id: Optional[Union[str, tuple]] = None,
        sim_time_ns: Optional[float] = None,
    ) -> None:
        super().__init__(*args)
        self.component = component
        self.path_id = path_id
        self.sim_time_ns = sim_time_ns

    @property
    def context(self) -> Dict[str, object]:
        """The non-empty structured context fields as a dict."""
        fields = {
            "component": self.component,
            "path_id": self.path_id,
            "sim_time_ns": self.sim_time_ns,
        }
        return {key: value for key, value in fields.items() if value is not None}

    def describe(self) -> str:
        """The message plus bracketed context, for logs/reports."""
        message = super().__str__()
        context = self.context
        if not context:
            return message
        rendered = ", ".join(
            "%s=%r" % (key, context[key]) for key in sorted(context)
        )
        return "%s [%s]" % (message, rendered) if message else "[%s]" % rendered


class EstimatorUnavailable(ReproError):
    """A component estimator failed persistently (retries exhausted).

    Raised by the resilience supervisor and caught by the simulation
    master, which is why it lives in this leaf module: the master can
    name it without loading the supervisor.
    """
