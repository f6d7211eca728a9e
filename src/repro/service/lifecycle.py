"""Graceful-drain lifecycle: signals, drain state, drain checkpoints.

The drain sequence a SIGTERM (or SIGINT) triggers is the standard
serving-stack contract:

1. **Stop admitting** — ``/readyz`` flips to 503 and new submissions
   are refused, so load balancers and retrying clients move on.
2. **Finish what's running** — workers keep consuming the queue until
   it is empty or the drain timeout expires.
3. **Checkpoint what's left** — queued-but-unstarted requests are
   written through the PR-3 :class:`~repro.resilience.checkpoint.
   CheckpointWriter` (atomic replace + directory fsync), so a restart
   with ``--resume`` re-enqueues them instead of losing them.
4. **Exit 0** — a drained shutdown is a *successful* shutdown; only a
   failure to drain is an error.

Signal handling is deliberately thin: the handler only records the
request and wakes the waiter — all real work happens on a normal
thread, because almost nothing is async-signal-safe.
"""

from __future__ import annotations

import signal
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.resilience.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    sweep_signature,
)

if TYPE_CHECKING:
    from repro.service.httpbase import QuietHTTPServer

__all__ = [
    "DrainController",
    "install_drain_signals",
    "serve_until_drained",
    "raise_on_signals",
    "service_checkpoint_signature",
    "write_drain_checkpoint",
    "load_drain_checkpoint",
]


class DrainController:
    """Single source of truth for the service's admission state."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.reason: Optional[str] = None
        self._hooks: List[Callable[[str], None]] = []
        self._requested = False

    @property
    def draining(self) -> bool:
        return self._event.is_set()

    def add_hook(self, hook: Callable[[str], None]) -> None:
        """Register a callback fired once when the drain is requested.

        Hooks run *before* the drain event wakes the waiters, in
        registration order, on the requesting thread — the HA
        coordinator uses this to resign leadership (journal the tip,
        release the lease) while the server is still answering, so a
        successor can elect immediately instead of waiting out the
        lease TTL.  A hook that raises is swallowed: a broken hand-off
        must never block the shutdown itself.
        """
        with self._lock:
            self._hooks.append(hook)

    def request_drain(self, reason: str = "requested") -> bool:
        """Flip to draining; returns False if already draining."""
        with self._lock:
            if self._requested:
                return False
            self._requested = True
            self.reason = reason
            hooks = list(self._hooks)
        for hook in hooks:
            try:
                hook(reason)
            except Exception:  # noqa: BLE001 - shutdown must proceed
                pass
        with self._lock:
            self._event.set()
            return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a drain is requested."""
        return self._event.wait(timeout)


def install_drain_signals(
    controller: DrainController,
    signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Route ``signals`` into ``controller.request_drain``.

    Returns a restore function that reinstates the previous handlers
    (tests install and uninstall around a server's lifetime).  Only the
    main thread may install signal handlers; callers on other threads
    should skip installation and drive the controller directly.
    """

    def handler(signum: int, frame: Any) -> None:  # noqa: ARG001
        controller.request_drain("signal %d" % signum)

    return _install_handler(signals, handler)


def _install_handler(signals: Sequence[int],
                     handler: Callable[[int, Any], None]) -> Callable[[], None]:
    """Install ``handler`` for ``signals``; returns the restore function."""
    previous = {signum: signal.signal(signum, handler) for signum in signals}

    def restore() -> None:
        for signum, old in previous.items():
            signal.signal(signum, old)

    return restore


#: Seconds a drained server gives its handlers to write the answers
#: they owe before it closes.
ANSWER_GRACE_S = 5.0


def serve_until_drained(
    httpd: "QuietHTTPServer",
    controller: DrainController,
    thread_name: str,
    install_signals: bool = True,
    on_ready: Optional[Callable[[], int]] = None,
    on_drain: Optional[Callable[[], None]] = None,
) -> int:
    """Serve ``httpd`` until ``controller`` drains; returns the exit code.

    The loop of ``repro serve``, ``cluster`` and ``worker``: serve on a
    daemon thread, route SIGTERM/SIGINT into the controller, call
    ``on_ready`` (a nonzero return exits at once with that code), and
    block until a drain.  Then ``on_drain`` runs while the server still
    answers, handlers get :data:`ANSWER_GRACE_S` to write the answers
    they owe, and the server closes.
    """
    restore = install_drain_signals(controller) if install_signals else None
    threading.Thread(
        target=httpd.serve_forever, name=thread_name, daemon=True
    ).start()
    try:
        status = on_ready() if on_ready is not None else 0
        if status:
            return status
        # Short-timeout polling keeps the main thread responsive to
        # signal handlers on every platform.
        while not controller.wait(0.2):
            pass
        return 0
    finally:
        if on_drain is not None:
            on_drain()
        httpd.settle(ANSWER_GRACE_S)
        httpd.shutdown()
        httpd.server_close()
        if restore is not None:
            restore()


def raise_on_signals(
    signals: Sequence[int] = (signal.SIGTERM,),
) -> Callable[[], None]:
    """Convert ``signals`` into an in-band exception in the main thread.

    Used by batch commands (``repro explore``): a SIGTERM becomes a
    ``SystemExit`` raised at the next bytecode boundary, which unwinds
    through the pool's ``finally`` (terminating every worker process)
    and past the checkpoint writer (already flushed per-point) — a kill
    mid-sweep leaves a loadable checkpoint and no orphans.  Returns the
    restore function.
    """

    def handler(signum: int, frame: Any) -> None:  # noqa: ARG001
        raise SystemExit(128 + signum)

    return _install_handler(signals, handler)


#: Bump when the drain-checkpoint payload shape changes.
_SERVICE_CHECKPOINT_VERSION = 1


def service_checkpoint_signature() -> str:
    """The sweep-signature under which drain checkpoints are written.

    Deliberately free of tuning knobs (workers, queue depth, port):
    a restart with a different capacity configuration must still be
    able to pick the pending requests up.  Request payloads carry their
    own meaning (system, strategy, fault plan), validated on re-parse.
    """
    return sweep_signature(
        kind="repro-service-drain",
        version=_SERVICE_CHECKPOINT_VERSION,
    )


def write_drain_checkpoint(
    path: str,
    pending_payloads: List[Dict[str, Any]],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically persist the requests a drain could not finish."""
    writer = CheckpointWriter(path, service_checkpoint_signature())
    for index, payload in enumerate(pending_payloads):
        label = payload.get("request_id") or "pending-%d" % index
        writer.record(str(label), payload)
    writer.flush(meta=dict(meta or {}, pending=len(pending_payloads)))


def load_drain_checkpoint(path: str) -> List[Dict[str, Any]]:
    """Pending request payloads of a drain checkpoint, admission order."""
    completed = load_checkpoint(path, service_checkpoint_signature())
    return [completed[label] for label in sorted(completed)]
