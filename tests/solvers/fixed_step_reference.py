"""Frozen batched fixed-step loops: the reference the pre-sampled loops must match.

These are the ``solve_batch`` loops of the Euler and RK4 solvers as they
stood when every stage called the fleet's ``inputs`` at its own time and
built its stage temporaries afresh, plus that input path itself: the
scalar-time branch of the fleet bindings' interpolation
(:class:`ScalarTimeInputs`).  The production loops now sample every stage
time before the loop and step in preallocated buffers; the property tests
in ``test_fixed_step_fleets.py`` hold them to these copies bit for bit.
Test-only: nothing under ``src/`` imports this module, and it must not be
edited to follow the production code.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from repro.errors import SolverError
from repro.solvers.base import (
    BatchOdeSolution,
    _check_step,
    _fixed_steps,
    _sample_shared,
    _step_guard,
    _CHECK_INTERVAL,
)
from repro.solvers.euler import EulerSolver
from repro.solvers.rk4 import RungeKutta4Solver


class ScalarTimeInputs:
    """A fleet's ``(N, n_inputs)`` input matrix at one scalar time.

    Reads the bound series of a fleet's input bindings (``base``, and per
    series ``slot``, ``knot_list``, ``values`` and ``slopes``) and fills
    one reused buffer, skipping a time it has just filled.
    """

    def __init__(self, bindings):
        self.series = bindings.series
        self._buffer = bindings.base.copy()
        self._columns = [self._buffer[:, series.slot] for series in self.series]
        self._last_t = None

    def __call__(self, t) -> np.ndarray:
        if t == self._last_t:
            return self._buffer
        self._last_t = t
        for column, series in zip(self._columns, self.series):
            knots = series.knot_list
            if t <= knots[0]:
                column[:] = series.values[0]
            elif t >= knots[-1]:
                column[:] = series.values[-1]
            else:
                i = bisect.bisect_right(knots, t) - 1
                np.multiply(series.slopes[i], t - knots[i], out=column)
                column += series.values[i]
        return self._buffer


def _stage_function(problem):
    rhs, inputs = problem.rhs, problem.inputs
    if inputs is None:
        empty_u = np.empty((problem.n_rows, 0))

        def f(t, X):
            return rhs(t, X, empty_u)

    else:

        def f(t, X):
            return rhs(t, X, inputs(t))

    return f


def solve_batch_euler(solver: EulerSolver, problem, output_times=None) -> BatchOdeSolution:
    grid = solver._normalized_output_times(problem, output_times)
    h = solver._step_size(problem)
    times, steps = _fixed_steps(problem.t0, problem.t1, h)
    states = np.empty((len(times), problem.n_rows, problem.n_states))
    states[0] = problem.x0
    X = problem.x0.copy()
    f = _stage_function(problem)
    token, injector, watch = _step_guard()
    checks_left = _CHECK_INTERVAL
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n, h_eff in enumerate(steps, start=1):
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            dX = f(times[n - 1], X)
            X = X + h_eff * dX
            if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                bad = np.where(~np.isfinite(X).all(axis=1))[0]
                raise SolverError(
                    f"Euler integration diverged at t={times[n]} (rows {bad.tolist()})"
                )
            states[n] = X
    n_steps = len(steps)
    return BatchOdeSolution(
        times=grid,
        states=_sample_shared(grid, np.array(times), states),
        n_rhs_evals=n_steps,
        n_steps=np.full(problem.n_rows, n_steps, dtype=int),
        solver_name="euler",
    )


def solve_batch_rk4(solver: RungeKutta4Solver, problem, output_times=None) -> BatchOdeSolution:
    grid = solver._normalized_output_times(problem, output_times)
    h = solver._step_size(problem)
    times, steps = _fixed_steps(problem.t0, problem.t1, h)
    states = np.empty((len(times), problem.n_rows, problem.n_states))
    states[0] = problem.x0
    X = problem.x0.copy()
    f = _stage_function(problem)
    token, injector, watch = _step_guard()
    checks_left = _CHECK_INTERVAL
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n, h_eff in enumerate(steps, start=1):
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            t = times[n - 1]
            k1 = f(t, X)
            k2 = f(t + h_eff / 2.0, X + h_eff / 2.0 * k1)
            k3 = f(t + h_eff / 2.0, X + h_eff / 2.0 * k2)
            k4 = f(t + h_eff, X + h_eff * k3)
            X = X + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                bad = np.where(~np.isfinite(X).all(axis=1))[0]
                raise SolverError(
                    f"RK4 integration diverged at t={times[n]} (rows {bad.tolist()})"
                )
            states[n] = X
    n_steps = len(steps)
    return BatchOdeSolution(
        times=grid,
        states=_sample_shared(grid, np.array(times), states),
        n_rhs_evals=4 * n_steps,
        n_steps=np.full(problem.n_rows, n_steps, dtype=int),
        solver_name="rk4",
    )


REFERENCE = {
    "euler": (EulerSolver, solve_batch_euler),
    "rk4": (RungeKutta4Solver, solve_batch_rk4),
}
