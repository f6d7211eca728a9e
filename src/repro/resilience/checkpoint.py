"""Checkpoint/resume for long design-space sweeps.

A full-system sweep can run hours (Section 6 reports ~1000x speedups
precisely because raw co-simulation is so expensive).  This module lets
``repro explore`` snapshot its progress after every completed design
point and resume after a kill, re-running only the unfinished points.

A checkpoint is a single JSON file, replaced atomically after each
completed point (see :mod:`repro.ioutil`), with three parts:

* ``signature`` — a digest of everything that changes the *meaning* of
  a point result (system builder, strategy, builder kwargs, root seed,
  fault plan...).  A resume against a different signature is refused
  instead of silently mixing incompatible results.  The point list
  itself is deliberately *outside* the signature, so a checkpoint from
  a subset sweep can seed a superset sweep.
* ``completed`` — finished point payloads keyed by their job label.
* ``meta`` — free-form bookkeeping (counts, durations) for humans.

Payloads are opaque JSON objects; the explorer owns the conversion
between them and its result type, keeping this module import-light
(it must not import :mod:`repro.core`, which imports the master
package, which imports :mod:`repro.resilience`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.ioutil import atomic_write_json

__all__ = [
    "CheckpointError",
    "sweep_signature",
    "resilience_signature",
    "CheckpointWriter",
    "load_checkpoint",
]

FORMAT = "repro-explore-checkpoint"
VERSION = 1


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or belongs to a different sweep."""


def sweep_signature(**parameters: Any) -> str:
    """A stable digest of the sweep parameters that define result meaning.

    Accepts only JSON-serializable values; keys are sorted, so argument
    order never changes the signature.
    """
    try:
        canonical = json.dumps(parameters, sort_keys=True, default=str)
    except TypeError as exc:
        raise CheckpointError(
            "sweep signature parameters must be JSON-serializable: %s" % exc
        ) from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resilience_signature(
    fault_plan: Any = None,
    fault_retries: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Canonical digest-ready view of a run's resilience configuration.

    Fault injection, the supervised retry budget and per-point timeouts
    all change the *meaning* of a completed point (its provenance mix,
    even its energy total) without changing the design point itself.
    Sweeps must therefore fold this dict into :func:`sweep_signature`
    unconditionally — including the all-``None`` no-fault shape — so
    that resuming a checkpoint written under a different fault plan or
    retry budget is rejected instead of silently mixing provenances.
    """
    plan: Any = fault_plan
    if plan is not None and dataclasses.is_dataclass(plan):
        plan = dataclasses.asdict(plan)
    return {
        "fault_plan": plan,
        "fault_retries": fault_retries,
        "timeout_s": timeout_s,
        # The ladder is always on; the constant keeps the signatures of
        # existing checkpoints (and so their resumability) unchanged.
        "degradation": True,
    }


class CheckpointWriter:
    """Accumulates completed points and atomically flushes the file.

    The writer is resume-aware: constructed from a loaded checkpoint's
    ``completed`` dict, it carries the earlier results forward so the
    file on disk always holds the union.
    """

    def __init__(
        self,
        path: str,
        signature: str,
        completed: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = path
        self.signature = signature
        self.completed: Dict[str, Any] = dict(completed or {})
        self._dirty = False

    def record(self, label: str, payload: Any) -> None:
        """Remember one finished point (flush separately)."""
        self.completed[label] = payload
        self._dirty = True

    def flush(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically replace the checkpoint file with current state."""
        document = {
            "format": FORMAT,
            "version": VERSION,
            "signature": self.signature,
            "completed": self.completed,
            "meta": dict(meta or {}),
        }
        atomic_write_json(self.path, document)
        self._dirty = False

    def record_and_flush(
        self, label: str, payload: Any, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.record(label, payload)
        self.flush(meta)


def load_checkpoint(path: str, signature: str) -> Dict[str, Any]:
    """Read a checkpoint's completed-point payloads, keyed by label.

    Raises :class:`CheckpointError` if the file is missing, malformed,
    or was written by a sweep with a different :func:`sweep_signature`.
    """
    if not os.path.exists(path):
        raise CheckpointError("checkpoint file %r does not exist" % path)
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            "checkpoint file %r is unreadable: %s" % (path, exc)
        ) from exc
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise CheckpointError(
            "%r is not a %s file" % (path, FORMAT)
        )
    if document.get("version") != VERSION:
        raise CheckpointError(
            "checkpoint %r has unsupported version %r"
            % (path, document.get("version"))
        )
    if document.get("signature") != signature:
        raise CheckpointError(
            "checkpoint %r belongs to a different sweep "
            "(signature %r, expected %r) — refusing to mix results"
            % (path, document.get("signature"), signature)
        )
    completed = document.get("completed")
    if not isinstance(completed, dict):
        raise CheckpointError("checkpoint %r has no completed map" % path)
    return completed
