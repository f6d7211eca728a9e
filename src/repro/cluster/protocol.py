"""Cluster wire protocol: JSON messages and the stdlib HTTP client.

Everything on the wire is JSON over HTTP (no new dependencies), and
every job travels as a *description* — the same rule the process pool
enforces (:mod:`repro.parallel.jobs`), extended across sockets via
:func:`repro.parallel.jobs.spec_to_wire`.  Two job kinds exist:

* ``estimate`` — one service request, carried as its validated
  :meth:`~repro.service.api.EstimateRequest.to_payload` snapshot; the
  worker rebuilds the request, arms the deadline watchdog and its own
  circuit breakers, and funnels through ``pool.execute_spec``;
* ``spec`` — a batch of generic serialized
  :class:`~repro.parallel.jobs.JobSpec` (sweep points use this), under
  ``jobs``; the worker runs each verbatim through ``execute_spec``, in
  order, and answers one result per job.

Most exchanges open one connection each (:func:`http_json`); a sweep
dispatch thread keeps one :class:`JsonSession` open to its worker for
the whole dispatch round.

Transport failures (connection refused, reset, socket timeout) raise
:class:`TransportError` — the signal that distinguishes "the worker
died or wedged" (re-dispatch: safe, byte-identical by deterministic
seeds) from "the job ran and answered an error" (never re-dispatched).
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError

__all__ = [
    "JOB_KIND_ESTIMATE",
    "JOB_KIND_SPEC",
    "REASON_NOT_LEADER",
    "REASON_STALE_EPOCH",
    "STATUS_STALE_EPOCH",
    "TransportError",
    "ProtocolError",
    "JsonSession",
    "http_json",
    "post_json",
    "get_json",
]

JOB_KIND_ESTIMATE = "estimate"
JOB_KIND_SPEC = "spec"

#: Epoch fencing (docs/cluster-ha.md): a request stamped with an epoch
#: older than the receiver's is answered ``409 stale-epoch`` — the
#: sender has been deposed and must stand down, never retry.
STATUS_STALE_EPOCH = 409
REASON_STALE_EPOCH = "stale-epoch"

#: A standby coordinator answers data-plane requests with
#: ``503 not_leader`` (plus a ``leader_url`` hint when it has one);
#: failover clients walk their peer list on this reason.
REASON_NOT_LEADER = "not_leader"


class TransportError(ReproError):
    """The peer could not be reached or vanished mid-exchange."""


class ProtocolError(ReproError):
    """The peer answered something that is not valid cluster JSON."""


def _split(url: str) -> Tuple[str, int]:
    parts = urlsplit(url)
    if parts.scheme != "http" or parts.hostname is None:
        raise ProtocolError("cluster URLs must be http://host:port, got %r"
                            % url)
    return parts.hostname, parts.port or 80


def _exchange(connection: http.client.HTTPConnection, method: str,
              url: str, path: str,
              body: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
    """One JSON request/response on ``connection``."""
    payload = None
    headers = {}
    if body is not None:
        payload = json.dumps(body, sort_keys=True)
        headers["Content-Type"] = "application/json"
    try:
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
    except (OSError, socket.timeout, http.client.HTTPException) as exc:
        raise TransportError(
            "%s %s%s failed: %s: %s"
            % (method, url, path, type(exc).__name__, exc)
        ) from exc
    try:
        decoded = json.loads(raw.decode("utf-8") or "{}")
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(
            "%s%s answered non-JSON (%d bytes)" % (url, path, len(raw))
        ) from exc
    if not isinstance(decoded, dict):
        raise ProtocolError("%s%s answered a JSON %s, expected object"
                            % (url, path, type(decoded).__name__))
    return response.status, decoded


def http_json(method: str, url: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              timeout_s: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    """One JSON request/response exchange; returns ``(status, body)``.

    Raises :class:`TransportError` on any socket-level failure and
    :class:`ProtocolError` on a non-JSON response body.
    """
    host, port = _split(url)
    connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        return _exchange(connection, method, url, path, body)
    finally:
        connection.close()


class JsonSession:
    """JSON POSTs to one peer over a single keep-alive connection.

    The connection opens on the first exchange and stays open until
    :meth:`close`.  A failed exchange closes it, so the next one
    reconnects instead of reading a half-answered stream.
    """

    def __init__(self, url: str) -> None:
        self.url = url
        host, port = _split(url)
        self._connection = http.client.HTTPConnection(host, port)

    def post(self, path: str, body: Dict[str, Any],
             timeout_s: float) -> Tuple[int, Dict[str, Any]]:
        connection = self._connection
        connection.timeout = timeout_s
        if connection.sock is not None:
            connection.sock.settimeout(timeout_s)
        try:
            return _exchange(connection, "POST", self.url, path, body)
        except ReproError:
            connection.close()
            raise

    def close(self) -> None:
        self._connection.close()


def post_json(url: str, path: str, body: Dict[str, Any],
              timeout_s: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    return http_json("POST", url, path, body=body, timeout_s=timeout_s)


def get_json(url: str, path: str,
             timeout_s: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    return http_json("GET", url, path, timeout_s=timeout_s)
