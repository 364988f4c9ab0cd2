"""Cooperative SIGINT/SIGTERM shutdown for long campaigns.

Until this module, nothing in ``src/repro`` handled signals at all: a
Ctrl-C or a supervisor's SIGTERM unwound the coordinator mid-lease,
leaking worker processes and — for journaled campaigns — losing
everything since the last record.

The contract is *cooperative*: the first signal only raises a flag.
Every long-running loop (the serial engine and fuzzer, both parallel
coordinators) polls :func:`shutdown_requested` at its scheduling point
and winds down cleanly — drains in-flight work, seals a final journal
checkpoint when journaling, closes the pool (reaping every worker) and
reports ``stop="interrupted"``. A *second* signal means "stop
cooperating": live worker pools are closed escalatingly (STOP →
terminate → kill) and
``KeyboardInterrupt`` is raised so ``with`` blocks and ``finally``
clauses still run on the way out.

Handlers are installed by the CLI via :func:`graceful_shutdown`;
library callers embedding the coordinators can install their own and
simply call :func:`request_shutdown`.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator


class _State:
    def __init__(self) -> None:
        self.requested = False
        self.signals = 0


_STATE = _State()


def shutdown_requested() -> bool:
    """True once a shutdown signal (or an explicit request) arrived;
    polled by every campaign loop at its scheduling point."""
    return _STATE.requested


def request_shutdown() -> None:
    """Raise the cooperative shutdown flag programmatically."""
    _STATE.requested = True


def reset() -> None:
    """Clear the flag (a new CLI invocation / test starts clean)."""
    _STATE.requested = False
    _STATE.signals = 0


def _handle(signum, frame) -> None:
    _STATE.signals += 1
    _STATE.requested = True
    if _STATE.signals >= 2:
        # Second signal: the user means it. Reap the pools' children
        # and unwind through finally/with blocks.
        from repro.parallel.pool import close_all_pools
        close_all_pools(timeout=2.0)
        raise KeyboardInterrupt(
            f"second shutdown signal ({signal.Signals(signum).name})")


@contextlib.contextmanager
def graceful_shutdown() -> Iterator[_State]:
    """Install SIGINT/SIGTERM handlers for the duration of a campaign.

    First signal → cooperative flag (campaigns checkpoint and drain);
    second → pools closed and ``KeyboardInterrupt``. Restores previous
    handlers on exit; a no-op off the main thread (where Python forbids
    ``signal.signal``) and on platforms without the signals.
    """
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _handle)
            except (ValueError, OSError, AttributeError):
                pass
    try:
        yield _STATE
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        reset()
