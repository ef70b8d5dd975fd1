"""Synchronous client for the serve daemon (stdlib sockets only)."""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, Optional


class ServeClientError(RuntimeError):
    """Connection or framing failure talking to the daemon."""


def request(
    socket_path: str, payload: Dict[str, object], timeout: float = 300.0
) -> Dict[str, object]:
    """Send one request, return its response object."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:  # EOF: fall through with whatever arrived
                break
            buf += chunk
        if not buf:
            raise ServeClientError("daemon closed the connection without replying")
        return json.loads(buf.decode("utf-8"))


def request_with_retry(
    socket_path: str,
    payload: Dict[str, object],
    timeout: float = 300.0,
    attempts: int = 4,
    max_backoff: float = 5.0,
) -> Dict[str, object]:
    """Send one request, honouring the daemon's backpressure.

    ``overloaded`` (admission shed) and ``stuck`` (family worker stopped;
    the next bound re-forks it) responses carry a ``retry_after`` hint;
    sleep that long — capped at
    ``max_backoff`` so a pathological hint cannot park the client — and try
    again, up to ``attempts`` times. Every other response (including
    ``poisoned``, whose cooldown is typically much longer than a client
    wants to wait) is returned as-is; so is the final over-budget one.
    """
    last: Dict[str, object] = {}
    for attempt in range(max(1, attempts)):
        last = request(socket_path, payload, timeout=timeout)
        if last.get("ok") or last.get("status") not in ("overloaded", "stuck"):
            return last
        if attempt + 1 < max(1, attempts):
            hint = last.get("retry_after", 0.5)
            if not isinstance(hint, (int, float)) or hint < 0:
                hint = 0.5
            time.sleep(min(float(hint), max_backoff))
    return last


def wait_ready(
    socket_path: str, timeout: float = 30.0, poll: float = 0.05
) -> None:
    """Block until the daemon answers a ping (or raise after ``timeout``)."""
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            try:
                if request(socket_path, {"kind": "ping"}, timeout=5.0).get("pong"):
                    return
            except (OSError, ServeClientError, json.JSONDecodeError) as exc:
                last = exc
        time.sleep(poll)
    raise ServeClientError(
        "daemon at %s did not become ready within %.1fs%s"
        % (socket_path, timeout, ": %s" % last if last else "")
    )
