"""Frozen numpy scalar solver loops: the reference the float loops must match.

These are the ``solve`` loops of the Euler, RK4 and Dormand-Prince RK45
solvers as they stood when every scalar step ran on small numpy arrays
(stage sums through ``ndarray.sum(axis=0)``, the error norm through
``np.mean``).  The production loops now step in plain Python floats; the
property test in ``test_float_loops.py`` holds them to these copies bit for
bit.  Test-only: nothing under ``src/`` imports this module, and it must not
be edited to follow the production code.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SolverError
from repro.solvers.base import OdeSolution, _check_step, _step_guard, _CHECK_INTERVAL
from repro.solvers.euler import EulerSolver
from repro.solvers.rk4 import RungeKutta4Solver
from repro.solvers.rk45 import DormandPrince45Solver

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_A_MAT = np.zeros((7, 7))
for _i, _row in enumerate(_A):
    _A_MAT[_i, : len(_row)] = _row
_A_COLS = [_A_MAT[_i, :_i].reshape(-1, 1) for _i in range(7)]
_B5_COL = _B5.reshape(-1, 1)
_B4_COL = _B4.reshape(-1, 1)


def _stage_function(problem):
    empty_u = np.empty(0)
    has_inputs = problem.inputs is not None
    rhs = problem.rhs
    input_at = problem.input_at

    def f(t, x):
        u = input_at(t) if has_inputs else empty_u
        dx = rhs(t, x, u)
        if isinstance(dx, np.ndarray) and dx.ndim == 1 and dx.dtype == np.float64:
            return dx
        return np.atleast_1d(np.asarray(dx, dtype=float))

    return f


class _Recorder:
    def __init__(self, n_states):
        self.times, self.states = [], []
        self.n_states = n_states

    def append(self, t, x):
        self.times.append(float(t))
        self.states.append(np.array(x, dtype=float))

    def arrays(self):
        states = np.array(self.states).reshape(len(self.times), self.n_states)
        return np.array(self.times), states


def _resampled(name, grid, recorder, n_evals, n_steps, n_rejected=0):
    times, states = recorder.arrays()
    dense = OdeSolution(times=times, states=states)
    return OdeSolution(
        times=grid,
        states=dense.sample(grid),
        n_rhs_evals=n_evals,
        n_steps=n_steps,
        n_rejected=n_rejected,
        solver_name=name,
    )


def solve_euler(solver: EulerSolver, problem, output_times=None) -> OdeSolution:
    grid = solver._normalized_output_times(problem, output_times)
    h = solver._step_size(problem)
    recorder = _Recorder(len(problem.x0))
    recorder.append(problem.t0, problem.x0)
    t = problem.t0
    x = problem.x0.copy()
    n_evals = n_steps = 0
    f = _stage_function(problem)
    t1 = problem.t1
    token, injector, watch = _step_guard()
    checks_left = _CHECK_INTERVAL
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1 - 1e-15:
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            h_eff = min(h, t1 - t)
            dx = f(t, x)
            n_evals += 1
            x = x + h_eff * dx
            t = t + h_eff
            n_steps += 1
            if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                raise SolverError(f"Euler integration diverged at t={t}")
            recorder.append(t, x)
    return _resampled("euler", grid, recorder, n_evals, n_steps)


def solve_rk4(solver: RungeKutta4Solver, problem, output_times=None) -> OdeSolution:
    grid = solver._normalized_output_times(problem, output_times)
    h = solver._step_size(problem)
    recorder = _Recorder(len(problem.x0))
    recorder.append(problem.t0, problem.x0)
    t = problem.t0
    x = problem.x0.copy()
    n_evals = n_steps = 0
    f = _stage_function(problem)
    t1 = problem.t1
    token, injector, watch = _step_guard()
    checks_left = _CHECK_INTERVAL
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1 - 1e-15:
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            h_eff = min(h, t1 - t)
            k1 = f(t, x)
            k2 = f(t + h_eff / 2.0, x + h_eff / 2.0 * k1)
            k3 = f(t + h_eff / 2.0, x + h_eff / 2.0 * k2)
            k4 = f(t + h_eff, x + h_eff * k3)
            n_evals += 4
            x = x + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + h_eff
            n_steps += 1
            if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                raise SolverError(f"RK4 integration diverged at t={t}")
            recorder.append(t, x)
    return _resampled("rk4", grid, recorder, n_evals, n_steps)


def solve_rk45(solver: DormandPrince45Solver, problem, output_times=None) -> OdeSolution:
    grid = solver._normalized_output_times(problem, output_times)
    f = _stage_function(problem)
    t = problem.t0
    x = problem.x0.copy()
    span = problem.t1 - problem.t0
    h = span / 100.0
    if solver.max_step is not None:
        h = min(h, solver.max_step)
    recorder = _Recorder(len(x))
    recorder.append(t, x)
    n_evals = 1
    n_steps = n_rejected = 0
    stages = np.empty((7, len(x)))
    token, injector, watch = _step_guard()
    checks_left = _CHECK_INTERVAL
    with np.errstate(over="ignore", invalid="ignore"):
        stages[0] = f(t, x)
        while t < problem.t1 - 1e-14:
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            if n_steps + n_rejected > solver.max_steps:
                raise SolverError(
                    f"RK45 exceeded {solver.max_steps} steps "
                    f"(t={t}, interval ends at {problem.t1})"
                )
            h = min(h, problem.t1 - t)
            if solver.max_step is not None:
                h = min(h, solver.max_step)

            for i in range(1, 7):
                xi = x + h * (_A_COLS[i] * stages[:i]).sum(axis=0)
                stages[i] = f(t + _C[i] * h, xi)
            n_evals += 6

            x5 = x + h * (_B5_COL * stages).sum(axis=0)
            x4 = x + h * (_B4_COL * stages).sum(axis=0)

            scale = solver.atol + solver.rtol * np.maximum(np.abs(x), np.abs(x5))
            err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2)) if scale.size else 0.0

            if err <= 1.0 or h <= 1e-12 * span:
                t = t + h
                x = x5
                stages[0] = stages[6]
                if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                    raise SolverError(f"RK45 integration diverged at t={t}")
                recorder.append(t, x)
                n_steps += 1
            else:
                n_rejected += 1

            if err == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * err ** (-0.2)))
            h = h * factor
    return _resampled("rk45", grid, recorder, n_evals, n_steps, n_rejected)


REFERENCE = {
    "euler": (EulerSolver, solve_euler),
    "rk4": (RungeKutta4Solver, solve_rk4),
    "rk45": (DormandPrince45Solver, solve_rk45),
}
