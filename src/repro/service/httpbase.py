"""Shared stdlib-HTTP plumbing for the service and cluster front ends.

Both the single-node service (:mod:`repro.service.server`) and the
cluster coordinator/worker (:mod:`repro.cluster`) speak the same tiny
dialect: JSON bodies, explicit Content-Length, a pooled path label for
the HTTP metrics (so probing garbage paths cannot explode label
cardinality), and tolerance for clients that hang up mid-response.
This module holds that plumbing once.

:class:`JsonRequestHandler` is deliberately free of service knowledge —
subclasses provide routing (``do_GET``/``do_POST``) and override
:meth:`record_http` to point at their own observability bundle.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = ["JsonRequestHandler", "QuietHTTPServer"]


class QuietHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with daemon threads and a ``quiet`` flag.

    Process exit kills daemon handlers wherever they are, so a handler
    that must not lose its answer runs inside :meth:`owed_answer`, and
    :meth:`settle` waits for it before the server closes.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler_class: Any,
                 quiet: bool = True) -> None:
        self.quiet = quiet
        self._owed_lock = threading.Lock()
        # Handler thread -> the result it blocks on (None while busy).
        self._owed: Dict[int, Any] = {}
        super().__init__(address, handler_class)

    @contextmanager
    def owed_answer(self) -> Iterator[None]:
        """Mark the calling handler as owing its client an answer."""
        key = threading.get_ident()
        with self._owed_lock:
            self._owed[key] = None
        try:
            yield
        finally:
            with self._owed_lock:
                del self._owed[key]

    def waiting_on(self, result: Any) -> None:
        """The calling handler now blocks on ``result`` (with ``done``)."""
        with self._owed_lock:
            self._owed[threading.get_ident()] = result

    def settle(self, timeout_s: float) -> None:
        """Wait up to ``timeout_s`` until every owed answer that can be
        given is written; a handler blocked on an unresolved result is
        not waited for."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._owed_lock:
                if not any(result is None or result.done
                           for result in self._owed.values()):
                    return
            time.sleep(0.01)


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP request handler base (stdlib only).

    Subclasses set :attr:`KNOWN_PATHS` (paths counted under their own
    metric label; everything else pools as ``"other"``) and override
    :meth:`record_http` to feed their metrics.
    """

    server_version = "repro-coestimation/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle's algorithm on,
    # a keep-alive client would wait out a delayed ACK per response.
    disable_nagle_algorithm = True

    #: Paths counted under their own label; everything else is pooled
    #: as "other" so probing garbage paths cannot explode cardinality.
    KNOWN_PATHS: Tuple[str, ...] = ()

    def log_message(self, fmt: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # -- hooks ----------------------------------------------------------

    def record_http(self, label: str, status: int) -> None:
        """Observability hook: one call per response sent."""

    # -- request body ---------------------------------------------------

    def read_json_body(self) -> Optional[Any]:
        """Parse the request body as JSON; answers 400 and returns
        ``None`` on any malformation (missing length, bad encoding)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.respond_json(400, {"status": "error",
                                    "reason": "bad Content-Length"})
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            self.respond_json(400, {"status": "error",
                                    "reason": "body is not valid JSON"})
            return None

    def query_param(self, name: str, default: str = "") -> str:
        """First value of query parameter ``name`` in the request path."""
        from urllib.parse import parse_qs, urlsplit

        return (parse_qs(urlsplit(self.path).query).get(name) or [default])[0]

    # -- responses ------------------------------------------------------

    def http_label(self) -> str:
        path = self.path.split("?", 1)[0]
        for known in self.KNOWN_PATHS:
            if path == known or path.startswith(known + "/"):
                return known
        return "other"

    def respond_json(self, status: int, body: Dict[str, Any],
                     headers: Optional[Dict[str, str]] = None) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_payload(status, payload, "application/json", headers)

    def respond_text(self, status: int, text: str) -> None:
        self.send_payload(
            status, text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8", None,
        )

    def send_payload(self, status: int, payload: bytes,
                     content_type: str,
                     headers: Optional[Dict[str, str]]) -> None:
        self.record_http(self.http_label(), status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; the server-side result still counted
