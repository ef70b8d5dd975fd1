"""Cooperative interruption: a signal-safe flag the engine polls.

The engine cannot be preempted asynchronously — an assignment or a
backjump caught halfway would leave the trail and the occurrence counters
inconsistent, and the partial stats (or a certificate's conclusion) read
from that state would be garbage. Instead, SIGTERM/SIGINT handlers set an
:class:`InterruptFlag`, and :meth:`SearchEngine.solve` polls it at exactly
the points where it already checks the budget — quiescence before a
decision, and after every conflict/solution analysis — where the run can
end UNKNOWN with consistent stats, exactly like an exhausted budget.

Setting a ``bool`` attribute is atomic under CPython and async-signal-safe
in the sense that matters here (no allocation, no locks), so the same flag
object can be installed directly as a signal handler.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple


class InterruptFlag:
    """A latching stop request; ``set`` doubles as a signal handler."""

    __slots__ = ("_set", "last_signal")

    def __init__(self) -> None:
        self._set = False
        #: the signal number that set the flag, when one did (diagnostics).
        self.last_signal: Optional[int] = None

    def set(self, signum: Optional[int] = None, frame: object = None) -> None:
        """Request a stop. Callable as ``signal.signal`` handler directly."""
        self._set = True
        if signum is not None:
            self.last_signal = signum

    def clear(self) -> None:
        self._set = False
        self.last_signal = None

    def is_set(self) -> bool:
        return self._set

    def __bool__(self) -> bool:
        return self._set


#: process-wide flag: worker processes and the CLI share one so deeply
#: nested code (runner → solver) needs no plumbing to observe a SIGTERM.
_GLOBAL = InterruptFlag()


def global_flag() -> InterruptFlag:
    """The process-wide interrupt flag (one per OS process; fork resets
    nothing, so pool workers must ``clear()`` it before installing their
    own handler)."""
    return _GLOBAL


@contextmanager
def handling_signals(
    flag: Optional[InterruptFlag] = None,
    signals: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
) -> Iterator[InterruptFlag]:
    """Route ``signals`` to ``flag.set`` for the duration of the block.

    Previous handlers are restored on exit, so the default Ctrl-C
    behaviour returns once the preemptible section is done.
    """
    flag = flag if flag is not None else _GLOBAL
    previous = {}
    for sig in signals:
        previous[sig] = signal.signal(sig, flag.set)
    try:
        yield flag
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
