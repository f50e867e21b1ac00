"""Unified chaos-injection framework: named fault points across the engine.

Grown out of the storage layer's crash injector, this module is the single
registry every subsystem checks when it crosses a failure-prone boundary.
The registered points:

=============  ========================================================
point          where it fires
=============  ========================================================
wal.append     buffering a record into the write-ahead log
wal.sync       the commit-time WAL write + fsync
pager.read     reading a page from the page store
pager.write    writing a page to the page store
solver.step    each (sparse-checked) solver integration step
kernel.eval    each compiled-kernel right-hand-side evaluation
btree.node_write  each ordered-index (B-tree) node mutation
=============  ========================================================

plus the engine's historical checkpoint labels
(``checkpoint.before_header`` / ``checkpoint.after_header``).

Two trigger styles are supported per point: **deterministic** (fire on the
``nth`` hit) and **probabilistic** (fire with probability ``p`` per hit,
from a seeded private RNG so chaos runs replay exactly).  A spec disarms
after ``trips`` firings, which is how transient faults - the kind a
:class:`~repro.solvers.retry.RetryPolicy` should survive - are modelled.

Storage components receive their injector explicitly (constructor
argument, as before).  Non-storage points (solvers, kernels) read an
*ambient* injector installed with :func:`activate`, so chaos tests can
reach into a solver loop without threading a parameter through every
layer.  With no injector armed the ambient check is a single ``is None``
test.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence

from repro.errors import InjectedCrash, SolverError

#: Points whose default injected error is a solver failure (retryable);
#: every other point defaults to :class:`InjectedCrash` (storage crash).
_SOLVER_POINTS = {"solver.step", "kernel.eval"}

KNOWN_POINTS = (
    "wal.append",
    "wal.sync",
    "pager.read",
    "pager.write",
    "solver.step",
    "kernel.eval",
    "btree.node_write",
    "checkpoint.before_header",
    "checkpoint.after_header",
)


class _FaultSpec:
    """One armed fault point: when it fires and what it raises."""

    __slots__ = ("point", "nth", "probability", "rng", "error", "trips", "hits", "fired")

    def __init__(
        self,
        point: str,
        nth: int,
        probability: Optional[float],
        seed: int,
        error: Optional[BaseException],
        trips: int,
    ):
        self.point = point
        self.nth = int(nth)
        self.probability = probability
        self.rng = random.Random(seed) if probability is not None else None
        self.error = error
        self.trips = int(trips)
        self.hits = 0
        self.fired = 0

    @property
    def armed(self) -> bool:
        return self.fired < self.trips

    def should_fire(self) -> bool:
        if not self.armed:
            return False
        self.hits += 1
        if self.probability is not None:
            return self.rng.random() < self.probability
        return self.hits >= self.nth

    def make_error(self) -> BaseException:
        self.fired += 1
        if self.error is not None:
            if isinstance(self.error, type):
                return self.error(f"injected fault at {self.point!r}")
            return self.error
        if self.point in _SOLVER_POINTS:
            return SolverError(f"injected fault at {self.point!r}")
        return InjectedCrash(f"injected fault at {self.point!r}")


class FaultInjector:
    """Arms fault points across the engine (for robustness tests).

    The legacy storage-crash parameters are kept verbatim (the recovery
    suite depends on their exact byte-level semantics):

    Parameters
    ----------
    fail_after_bytes:
        Let this many bytes of physical WAL writes through, then crash
        mid-write - the tail of the in-flight sync is torn off exactly at
        the byte limit.
    fail_before_sync:
        Crash at the next :meth:`WalWriter.sync` before any pending byte
        reaches the file - the whole in-flight transaction vanishes.
    fail_at:
        A set of named engine fault points (e.g. ``"checkpoint.after_header"``);
        the first :meth:`check_point` call with an armed label crashes.

    General points are armed with :meth:`arm`; every firing is recorded in
    :attr:`events` so harnesses can assert which faults actually struck.
    """

    def __init__(
        self,
        fail_after_bytes: Optional[int] = None,
        fail_before_sync: bool = False,
        fail_at: Optional[Sequence[str]] = None,
    ):
        self.fail_after_bytes = fail_after_bytes
        self.fail_before_sync = fail_before_sync
        self.fail_at = set(fail_at or [])
        self.tripped = False
        self._written = 0
        self._specs: Dict[str, List[_FaultSpec]] = {}
        #: Names of points that actually fired, in order.
        self.events: List[str] = []

    # ------------------------------------------------------------------ #
    # General registry
    # ------------------------------------------------------------------ #
    def arm(
        self,
        point: str,
        nth: int = 1,
        probability: Optional[float] = None,
        seed: int = 0,
        error: Optional[BaseException] = None,
        trips: int = 1,
    ) -> "FaultInjector":
        """Arm a named point; returns ``self`` for chaining.

        Parameters
        ----------
        point:
            The point name (see module docstring).
        nth:
            Deterministic trigger: fire on the ``nth`` hit of the point
            (ignored when ``probability`` is given).
        probability:
            Probabilistic trigger: fire with this per-hit probability,
            drawn from a private ``random.Random(seed)`` so runs replay.
        error:
            Exception instance or class to raise.  Defaults to
            :class:`~repro.errors.SolverError` for solver/kernel points and
            :class:`~repro.errors.InjectedCrash` for storage points.
        trips:
            Disarm after this many firings (transient-fault modelling);
            the default of 1 makes every fault one-shot.
        """
        self._specs.setdefault(point, []).append(
            _FaultSpec(point, nth, probability, seed, error, trips)
        )
        return self

    # ------------------------------------------------------------------ #
    # Legacy storage-crash triggers
    # ------------------------------------------------------------------ #
    @property
    def armed(self) -> bool:
        return not self.tripped and (
            self.fail_after_bytes is not None
            or self.fail_before_sync
            or bool(self.fail_at)
        )

    def trip(self) -> InjectedCrash:
        self.tripped = True
        return InjectedCrash("injected storage crash")

    def write_budget(self, size: int) -> int:
        """How many bytes of an imminent ``size``-byte write may proceed."""
        if self.tripped or self.fail_after_bytes is None:
            return size
        remaining = self.fail_after_bytes - self._written
        self._written += size
        return min(size, max(0, remaining))

    def check_point(self, label: str) -> None:
        """Raise if the named fault point is armed and due to fire."""
        if not self.tripped and label in self.fail_at:
            raise self.trip()
        specs = self._specs.get(label)
        if not specs:
            return
        for spec in specs:
            if spec.should_fire():
                self.events.append(label)
                raise spec.make_error()


# --------------------------------------------------------------------------- #
# Ambient injector (solver / kernel points)
# --------------------------------------------------------------------------- #
#: The ambient injector lives in a ContextVar, NOT a process-global: each
#: thread (and each contextvars context) sees only the injector it armed
#: itself.  Concurrent server sessions and parallel chaos tests therefore
#: cannot observe - or trip over - each other's injected faults, and
#: :func:`activate` is reentrant per context via set/reset tokens.
_ACTIVE: ContextVar[Optional[FaultInjector]] = ContextVar(
    "repro_fault_injector", default=None
)


def active_injector() -> Optional[FaultInjector]:
    """The ambient injector installed by :func:`activate` in this thread/
    context, or None."""
    return _ACTIVE.get()


@contextmanager
def activate(injector: FaultInjector):
    """Install ``injector`` as the ambient injector for the enclosed block.

    Solver step loops and kernel evaluations consult the ambient injector;
    storage components keep taking theirs explicitly.  Nesting restores the
    previous injector on exit, and the installation is thread/context-local:
    other threads keep seeing their own (usually no) injector.
    """
    handle = _ACTIVE.set(injector)
    try:
        yield injector
    finally:
        _ACTIVE.reset(handle)


def check(point: str) -> None:
    """Check ``point`` against the ambient injector (no-op when none)."""
    injector = _ACTIVE.get()
    if injector is not None:
        injector.check_point(point)
