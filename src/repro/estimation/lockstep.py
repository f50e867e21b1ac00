"""Lockstep calibration: several estimation runs share their batched solves.

A fleet calibration (``fmu_parest`` over many instances) runs one
:meth:`~repro.estimation.estimator.Estimation.estimate` per instance.  Each
of them scores its candidates in batches - a GA generation, an SLSQP
gradient stencil, a line-search probe - and a batched fixed-step solve
costs about the same at 24 rows as at 2.  :class:`Lockstep` runs the
calibrations side by side so that the candidates every instance needs at
the same moment are simulated as **one** fleet solve.

``GeneticAlgorithm`` and scipy's SLSQP drive their objective themselves and
cannot be stepped from outside, so each job runs in a worker thread, but
only one thread runs at a time:

* a worker runs until its objective has rows the memo cannot answer; it
  *parks* them (:func:`evaluate`) and hands control back;
* when every live worker is parked or finished, the coordinator (the
  caller's thread) scores the **round**: the requests are grouped by
  :func:`batch_key` (same archive, measurement grid, inputs and solver
  settings) and each group is solved by :func:`score_together`;
* every parked worker then resumes, in job order, with its scores.

Each row gets the score it gets when its calibration runs alone: batched
rows are bit-identical to scalar solves, a merged solve that fails falls
back to each request's own bisecting path, and a round of one row takes the
scalar path.  The GA and SLSQP see the same objective values, so they visit
the same candidates, and every result and counter is unchanged.

Workers start inside the caller's :mod:`contextvars` context, so the
statement deadline, the :class:`~repro.cancellation.CancelToken` and the
fault injector apply in them as in the caller.  A job that is alone when it
starts runs inline on the caller's thread, with no worker.  Time is charged
per job (:func:`clock`): its own optimizer time plus its row share of each
round's solve time, so the charges of all jobs never exceed the wall time.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CancelledError, TimeoutError

#: The lockstep worker running in this context, or None.
_WORKER: contextvars.ContextVar[Optional["_Worker"]] = contextvars.ContextVar(
    "repro_lockstep_worker", default=None
)

#: One parked request: an objective and its memo-missing candidate rows.
Request = Tuple[object, np.ndarray]

#: Errors a merged solve must not swallow into a fallback.
_FATAL_ERRORS = (TimeoutError, CancelledError)


class _Aborted(BaseException):
    """Unwinds a worker whose result is no longer wanted.

    A ``BaseException`` so that the ``except Exception`` fallbacks in the
    optimizers (SLSQP falls back to coordinate descent) let it through.
    """


def clock() -> float:
    """Seconds charged to the calibration running in this context.

    Outside a lockstep worker this is :func:`time.perf_counter`.
    """
    worker = _WORKER.get()
    if worker is None:
        return time.perf_counter()
    return worker.charged + (time.perf_counter() - worker.resumed_at)


def evaluate(objective, thetas: np.ndarray) -> np.ndarray:
    """Score an objective's memo-missing rows: parked with the round in a
    lockstep worker, in place (``objective._evaluate_batch``) elsewhere."""
    worker = _WORKER.get()
    if worker is None:
        return objective._evaluate_batch(thetas)
    return worker.park(objective, thetas)


def batch_key(objective) -> tuple:
    """Requests with equal keys can share one ``simulate_batch`` call."""
    measurements = objective.measurements
    return (
        objective.model.guid,
        measurements.time.tobytes(),
        tuple(sorted(objective.input_series)),
        objective.solver,
        repr(sorted(objective.solver_options.items())),
    )


def score_together(requests: Sequence[Request]) -> List[np.ndarray]:
    """Score batch-compatible requests, one error vector per request.

    Several requests are simulated as one fleet, each row with its own
    objective's inputs and candidate; if that solve fails, every request
    falls back to its own bisecting ``_evaluate_batch``.  A single request
    takes its own path directly, so a one-row round stays scalar.  Either
    way each request's scores and ``n_evaluations`` equal what scoring it
    alone gives.
    """
    if len(requests) == 1:
        objective, thetas = requests[0]
        return [objective._evaluate_batch(thetas)]
    try:
        results = requests[0][0]._simulate_rows(requests)
    except _FATAL_ERRORS:
        raise
    except Exception:
        return [objective._evaluate_batch(thetas) for objective, thetas in requests]
    scores, start = [], 0
    for objective, thetas in requests:
        stop = start + len(thetas)
        objective.n_evaluations += len(thetas)
        scores.append(np.array([objective._score(result) for result in results[start:stop]]))
        start = stop
    return scores


class _Worker:
    """One job on its own thread; runs only while it holds its turn."""

    def __init__(self, index: int, job: Callable, handoff: threading.Lock):
        self.index = index
        self.job = job
        self.handoff = handoff
        self.turn = threading.Lock()
        self.turn.acquire()
        self.request: Optional[Request] = None
        self.reply = None
        self.result = None
        self.error: Optional[BaseException] = None
        self.done = False
        self.aborted = False
        self.charged = 0.0
        self.resumed_at = 0.0
        context = contextvars.copy_context()
        self.thread = threading.Thread(
            target=context.run, args=(self._main,),
            name=f"repro-lockstep-{index}", daemon=True,
        )
        self.thread.start()

    # Worker side ----------------------------------------------------- #
    def _main(self) -> None:
        _WORKER.set(self)
        try:
            self._wait_turn()
            self.result = self.job()
        except _Aborted:
            pass
        except BaseException as exc:  # handed to the caller by Lockstep.run
            self.error = exc
        finally:
            self.charged += time.perf_counter() - self.resumed_at
            self.done = True
            self.handoff.release()

    def _wait_turn(self) -> None:
        self.turn.acquire()
        self.resumed_at = time.perf_counter()
        if self.aborted:
            raise _Aborted

    def park(self, objective, thetas: np.ndarray) -> np.ndarray:
        self.request = (objective, thetas)
        self.charged += time.perf_counter() - self.resumed_at
        self.handoff.release()
        self._wait_turn()
        reply, self.reply = self.reply, None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    # Coordinator side ------------------------------------------------ #
    @property
    def parked(self) -> bool:
        return self.request is not None

    def step(self) -> None:
        """Let the worker run until it parks or finishes."""
        self.turn.release()
        try:
            self.handoff.acquire()
        except BaseException:
            # An interrupt (KeyboardInterrupt) must not leave two threads
            # running: wait for the worker to yield, then re-raise.
            self.handoff.acquire()
            raise

    def answer(self, reply, charge: float) -> None:
        self.reply = reply
        self.request = None
        self.charged += charge


class Lockstep:
    """Runs calibration jobs in lockstep; see the module docstring.

    Jobs are zero-argument callables keyed by an index (the instance's
    position in the call).  :meth:`run` calls ``on_done(index, result)`` on
    the caller's thread as each job finishes, and ``on_done`` may
    :meth:`submit` further jobs.  When a job fails, jobs with a higher
    index are abandoned (not started, or unwound at their next park) and
    the jobs below it run to completion, so :meth:`run` raises the error
    of the lowest failing index - the one a one-by-one run in index order
    raises first.
    """

    def __init__(self):
        self._handoff = threading.Lock()
        self._handoff.acquire()
        self._pending: List[Tuple[int, Callable]] = []
        self._workers: List[_Worker] = []
        self._errors: Dict[int, BaseException] = {}

    @property
    def _cut(self) -> float:
        return min(self._errors, default=float("inf"))

    def submit(self, index: int, job: Callable) -> None:
        if index < self._cut:
            self._pending.append((index, job))

    def fail(self, index: int, error: BaseException) -> None:
        """Record that job ``index`` failed, and abandon every job above it."""
        self._errors[index] = error
        self._pending = [(i, job) for i, job in self._pending if i < index]
        for worker in self._workers:
            if worker.index > index:
                worker.aborted = True
                worker.request = None

    def run(self, on_done: Callable[[int, object], None]) -> None:
        try:
            while self._pending or self._workers:
                if not self._workers and len(self._pending) == 1:
                    index, job = self._pending.pop()
                    try:
                        result = job()
                    except Exception as exc:
                        self.fail(index, exc)
                    else:
                        on_done(index, result)
                    continue
                self._start_pending()
                self._sweep(on_done)
                self._score_round()
        finally:
            self._shutdown()
        if self._errors:
            raise self._errors[self._cut]

    def _start_pending(self) -> None:
        for index, job in sorted(self._pending, key=lambda item: item[0]):
            self._workers.append(_Worker(index, job, self._handoff))
        self._pending.clear()
        self._workers.sort(key=lambda worker: worker.index)

    def _sweep(self, on_done) -> None:
        """Run every worker that is not parked until all are parked or done."""
        while True:
            runnable = [worker for worker in self._workers if not worker.parked]
            if not runnable:
                return
            for worker in runnable:
                worker.step()
            for worker in [w for w in self._workers if w.done]:
                self._workers.remove(worker)
                worker.thread.join()
                if worker.error is not None:
                    self.fail(worker.index, worker.error)
                elif not worker.aborted:
                    on_done(worker.index, worker.result)
            if not self._workers:
                return  # run() starts what on_done submitted, inline if alone
            self._start_pending()

    def _score_round(self) -> None:
        groups: Dict[tuple, List[_Worker]] = {}
        for worker in self._workers:
            groups.setdefault(batch_key(worker.request[0]), []).append(worker)
        for members in groups.values():
            requests = [worker.request for worker in members]
            started = time.perf_counter()
            try:
                replies = score_together(requests)
            except BaseException as exc:
                # Fatal for the whole group (a deadline or cancellation):
                # the lowest-index member raises it, the others unwind.
                replies = [exc] + [None] * (len(members) - 1)
                for worker in members[1:]:
                    worker.aborted = True
            elapsed = time.perf_counter() - started
            n_rows = sum(len(thetas) for _, thetas in requests)
            for worker, (_, thetas), reply in zip(members, requests, replies):
                worker.answer(reply, elapsed * len(thetas) / n_rows)

    def _shutdown(self) -> None:
        """Unwind every live worker and join its thread."""
        for worker in self._workers:
            worker.aborted = True
        for worker in self._workers:
            while not worker.done:
                worker.request = None
                worker.step()
            worker.thread.join()
        self._workers.clear()
