"""Statement deadlines and cooperative cancellation.

A :class:`CancelToken` is created per statement by the database facade
(honouring its ``statement_timeout``) and installed as the *ambient* token
for the duration of the statement.  Long-running loops - executor plan
operators, solver step loops, ``FmuModel.simulate`` - call
:func:`check_active` (or hold the token and call :meth:`CancelToken.check`)
at safe points; when the deadline has passed or :meth:`CancelToken.cancel`
was called from another thread, the next check raises a typed
:class:`~repro.errors.TimeoutError` / :class:`~repro.errors.CancelledError`
and the statement unwinds.  Cancellation is cooperative: nothing is
interrupted mid-operation, so in-memory state stays consistent and an open
transaction can still be rolled back normally.

The ambient token lives in a :class:`contextvars.ContextVar`, so nested
statements (UDFs issuing SQL, correlated subqueries) inherit the outer
statement's deadline instead of resetting the clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from repro.errors import CancelledError, TimeoutError


class CancelToken:
    """A per-statement deadline + cancellation flag.

    Parameters
    ----------
    timeout:
        Optional deadline in seconds from creation; ``None`` means no
        deadline (the token can still be cancelled).  A timeout of 0 trips
        at the very first check, which tests use for determinism.
    """

    __slots__ = ("deadline", "cancelled")

    def __init__(self, timeout: Optional[float] = None):
        self.deadline = None if timeout is None else time.monotonic() + float(timeout)
        self.cancelled = False

    def cancel(self) -> None:
        """Request cancellation; the next :meth:`check` raises."""
        self.cancelled = True

    def check(self) -> None:
        """Raise if cancelled or past the deadline (cheap when neither)."""
        if self.cancelled:
            raise CancelledError("statement cancelled")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise TimeoutError("statement timed out (statement_timeout exceeded)")


_ACTIVE: ContextVar[Optional[CancelToken]] = ContextVar("repro_cancel_token", default=None)


def active_token() -> Optional[CancelToken]:
    """The ambient token of the executing statement, or None."""
    return _ACTIVE.get()


@contextmanager
def activate(token: CancelToken):
    """Install ``token`` as the ambient token for the enclosed block."""
    handle = _ACTIVE.set(token)
    try:
        yield token
    finally:
        _ACTIVE.reset(handle)


def check_active() -> None:
    """Check the ambient token, if any (the common fast path is one get)."""
    token = _ACTIVE.get()
    if token is not None:
        token.check()
