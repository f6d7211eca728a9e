"""The wall-clock deadline of a supervised component-estimator call.

The resilience supervisor bounds every ISS and gate-level call with a
watchdog budget.  Python cannot safely preempt a running call, so
instead of running it on a thread of its own the supervisor runs it
inline under a *deadline* — ``monotonic() + watchdog_s``, held in a
context variable, so each thread (and each asyncio task) sees only its
own — and the engines poll that deadline where they already test
their own bounds: the gate-level simulator once per clock cycle, the
ISS every :data:`~repro.sw.iss.DEADLINE_POLL_INSTRUCTIONS` retired
instructions.  A poll past the deadline raises
:class:`WatchdogTimeout`, and the engine restores the state it had
before the call, so a retry starts exactly where the first attempt
did.

This module is a leaf like :mod:`repro.errors`: the engines below the
resilience layer depend on it without an import cycle.  Its clock is
the module-level :func:`monotonic`, which tests may replace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.errors import ReproError

__all__ = [
    "WatchdogTimeout",
    "check_deadline",
    "current_deadline",
    "deadline_after",
    "sleep_within_deadline",
]

monotonic = time.monotonic

_DEADLINE: "ContextVar[Optional[float]]" = ContextVar(
    "repro_deadline", default=None
)

#: The deadline in force, or ``None``; engines read it once per call.
current_deadline = _DEADLINE.get


class WatchdogTimeout(ReproError):
    """A supervised call exceeded its wall-clock budget."""


@contextmanager
def deadline_after(seconds: Optional[float]) -> Iterator[None]:
    """Run the ``with`` body under a deadline ``seconds`` from now.

    ``None`` sets none.  The previous deadline is restored on exit.
    """
    if seconds is None:
        yield
        return
    token = _DEADLINE.set(monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline(deadline: float) -> None:
    """Raise :class:`WatchdogTimeout` once ``deadline`` has passed."""
    if monotonic() >= deadline:
        raise WatchdogTimeout("supervised call exceeded its watchdog deadline")


def sleep_within_deadline(seconds: float) -> None:
    """Sleep ``seconds``, but only until the deadline in force.

    A sleep the deadline cuts short raises :class:`WatchdogTimeout`:
    this is how an injected ``hang`` fault is caught.
    """
    deadline = _DEADLINE.get()
    if deadline is None:
        time.sleep(seconds)
        return
    remaining = deadline - monotonic()
    if seconds < remaining:
        time.sleep(seconds)
        return
    if remaining > 0:
        time.sleep(remaining)
    raise WatchdogTimeout("supervised call exceeded its watchdog deadline")
