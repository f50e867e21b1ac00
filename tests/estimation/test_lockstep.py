"""The lockstep scheduler on its own: one runnable thread, context, errors."""

from __future__ import annotations

import contextvars
import sys
import threading
import time

import numpy as np
import pytest

from repro.estimation import lockstep

_CALLER = contextvars.ContextVar("test_lockstep_caller", default=None)


@pytest.fixture()
def echo_scorer(monkeypatch):
    """Score every parked row as twice its first coordinate, one group per round."""
    rounds = []

    def score(requests):
        rounds.append(len(requests))
        return [2.0 * np.asarray(thetas)[:, 0] for _, thetas in requests]

    monkeypatch.setattr(lockstep, "score_together", score)
    monkeypatch.setattr(lockstep, "batch_key", lambda objective: "one group")
    return rounds


def _run_bounded(scheduler, on_done, timeout=30.0):
    """Run the scheduler on a helper thread and fail instead of hanging."""
    box = []

    def target():
        try:
            scheduler.run(on_done)
        except BaseException as exc:  # handed to the test below
            box.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "lockstep run did not finish"
    if box:
        raise box[0]


def test_one_thread_runs_at_a_time_under_stress(echo_scorer):
    running = [0]
    peak = [0]
    n_workers, n_parks = 8, 150

    def job(k):
        total = 0.0
        for step in range(n_parks):
            # Unlocked read-modify-write: two threads running at once would
            # lose an update or push the peak above one.
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            seen = running[0]
            time.sleep(0)
            running[0] = seen - 1
            total += float(lockstep.evaluate(None, np.array([[k + step, 0.0]]))[0])
        return total

    results = {}
    scheduler = lockstep.Lockstep()
    for k in range(n_workers):
        scheduler.submit(k, lambda k=k: job(k))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_bounded(scheduler, results.__setitem__)
    finally:
        sys.setswitchinterval(interval)
    assert peak[0] == 1 and running[0] == 0
    assert results == {
        k: float(sum(2 * (k + step) for step in range(n_parks))) for k in range(n_workers)
    }
    # Every round held one request per worker.
    assert echo_scorer == [n_workers] * n_parks


def test_workers_run_in_the_callers_context(echo_scorer):
    token = _CALLER.set("statement")
    try:
        seen = {}
        scheduler = lockstep.Lockstep()
        for k in range(3):
            scheduler.submit(k, lambda: (_CALLER.get(), threading.current_thread().name))
        scheduler.run(seen.__setitem__)
    finally:
        _CALLER.reset(token)
    assert {value for value, _ in seen.values()} == {"statement"}
    assert all(name.startswith("repro-lockstep") for _, name in seen.values())


def test_lowest_failing_index_wins_and_higher_jobs_stop(echo_scorer):
    progress = {k: 0 for k in range(4)}

    def job(k, fail_at):
        for step in range(20):
            if step == fail_at:
                raise ValueError(f"job {k}")
            lockstep.evaluate(None, np.array([[step, 0.0]]))
            progress[k] += 1
        return k

    scheduler = lockstep.Lockstep()
    # Job 3 fails first, job 1 later: job 1's error is the one raised, job 0
    # still finishes, job 2 is abandoned once job 1 fails.
    for k, fail_at in ((0, None), (1, 10), (2, None), (3, 2)):
        scheduler.submit(k, lambda k=k, fail_at=fail_at: job(k, fail_at))
    done = {}
    with pytest.raises(ValueError, match="job 1"):
        _run_bounded(scheduler, done.__setitem__)
    assert done == {0: 0}
    assert progress == {0: 20, 1: 10, 2: 10, 3: 2}
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-lockstep")]


def test_charged_time_splits_each_solve_by_rows(monkeypatch):
    def slow_score(requests):
        time.sleep(0.05)
        return [np.zeros(len(thetas)) for _, thetas in requests]

    monkeypatch.setattr(lockstep, "score_together", slow_score)
    monkeypatch.setattr(lockstep, "batch_key", lambda objective: "one group")

    def job(rows):
        started = lockstep.clock()
        lockstep.evaluate(None, np.zeros((rows, 2)))
        return lockstep.clock() - started

    charged = {}
    scheduler = lockstep.Lockstep()
    scheduler.submit(0, lambda: job(1))
    scheduler.submit(1, lambda: job(3))
    started = time.perf_counter()
    scheduler.run(charged.__setitem__)
    wall = time.perf_counter() - started
    # One shared 50 ms solve: a quarter to the 1-row job, the rest to the other.
    assert charged[0] == pytest.approx(0.0125, abs=0.01)
    assert charged[1] == pytest.approx(0.0375, abs=0.02)
    assert charged[0] + charged[1] <= wall
