"""Cooperative cancellation shared by the runtime and the serving tier.

A :class:`CancellationToken` is the one stop signal a query run carries:
the parallel scheduler's workers check it before starting queued tasks,
the executor checks it before dialing a source and between answers, and
the serving tier fires it from the wire (a client ``cancel`` op, a
dropped connection, a deadline, or the server watchdog) — the
distributed-system version of HERMES killing still-running external
programs when the user abandons a query (paper §3).

Tokens carry a *reason* so the observer that stopped the run can be told
apart downstream: the serving layer maps ``"deadline"`` to a
``deadline_exceeded`` response and everything else to ``cancelled``.
The first ``cancel()`` wins — later calls never overwrite the reason.

Tokens may be *linked*: ``CancellationToken(parent=outer)`` is cancelled
whenever its parent is, but cancelling the child leaves the parent
untouched.  The parallel scheduler uses this to tie its per-run internal
token to a caller-supplied request token: the scheduler can tear down
its own workers on normal completion without marking the caller's
request as cancelled.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import ExecutionCancelledError

#: Reasons the serving tier distinguishes (anything else is free-form).
REASON_DEADLINE = "deadline"
REASON_CLIENT_CANCEL = "client_cancel"
REASON_DISCONNECT = "disconnect"
REASON_MAX_RUNTIME = "max_runtime"


class CancellationToken:
    """Cooperative stop signal shared by one run's workers."""

    __slots__ = ("_event", "_reason", "_lock", "_parent")

    def __init__(self, parent: "Optional[CancellationToken]" = None) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None
        self._lock = threading.Lock()
        self._parent = parent

    def cancel(self, reason: Optional[str] = None) -> None:
        """Fire the token; the first caller's ``reason`` sticks."""
        with self._lock:
            if self._reason is None and reason is not None:
                self._reason = reason
        self._event.set()

    @property
    def reason(self) -> Optional[str]:
        """Why the token fired (``None`` until cancelled, or when the
        canceller gave no reason); a linked parent's reason wins when the
        child itself was never directly cancelled."""
        with self._lock:
            if self._reason is not None:
                return self._reason
        if self._parent is not None:
            return self._parent.reason
        return None

    def is_cancelled(self) -> bool:
        if self._event.is_set():
            return True
        return self._parent is not None and self._parent.is_cancelled()

    def raise_if_cancelled(self, where: str = "") -> None:
        if self.is_cancelled():
            detail = f" ({where})" if where else ""
            reason = self.reason
            suffix = f" [{reason}]" if reason else ""
            raise ExecutionCancelledError(f"run cancelled{detail}{suffix}")
