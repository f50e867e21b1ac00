"""Classic fourth-order Runge-Kutta fixed-step solver."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import SolverError
from repro.solvers.base import (
    BatchOdeProblem,
    BatchOdeSolution,
    BatchTrajectoryRecorder,
    OdeProblem,
    OdeSolution,
    OdeSolver,
    TrajectoryRecorder,
    _batch_stage_function,
    _check_step,
    _stage_function,
    _step_guard,
    _CHECK_INTERVAL,
)


class RungeKutta4Solver(OdeSolver):
    """Classic RK4 with a fixed step size.

    Default step size is 1/100 of the integration interval; override with
    ``step``.  The solver reports the dense per-step trajectory resampled on
    the requested output grid.
    """

    name = "rk4"

    def __init__(self, step: Optional[float] = None, max_step: Optional[float] = None):
        super().__init__(max_step=max_step)
        self.step = step

    def _step_size(self, problem: OdeProblem) -> float:
        span = problem.t1 - problem.t0
        if self.step is not None:
            h = float(self.step)
        elif self.max_step is not None:
            h = float(self.max_step)
        else:
            h = span / 100.0
        if h <= 0:
            raise SolverError(f"step size must be positive, got {h}")
        return min(h, span)

    def solve(self, problem: OdeProblem, output_times: Optional[Sequence[float]] = None) -> OdeSolution:
        grid = self._normalized_output_times(problem, output_times)
        h = self._step_size(problem)

        # The step count is known up front; preallocate the full trajectory.
        recorder = TrajectoryRecorder(
            len(problem.x0), int((problem.t1 - problem.t0) / h) + 4
        )
        recorder.append(problem.t0, problem.x0)
        t = problem.t0
        x = problem.x0.copy()
        n_evals = 0
        n_steps = 0

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
                # Scalar pre-check + exact fallback, see EulerSolver.
                if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                    raise SolverError(f"RK4 integration diverged at t={t}")
                recorder.append(t, x)

        times, states = recorder.arrays()
        dense = OdeSolution(
            times=times,
            states=states,
            n_rhs_evals=n_evals,
            n_steps=n_steps,
            solver_name=self.name,
        )
        sampled = dense.sample(grid)
        return OdeSolution(
            times=grid,
            states=sampled,
            n_rhs_evals=n_evals,
            n_steps=n_steps,
            solver_name=self.name,
        )

    def solve_batch(
        self,
        problem: BatchOdeProblem,
        output_times: Optional[Sequence[float]] = None,
    ) -> BatchOdeSolution:
        """Integrate a whole fleet with matrix stages: four vectorized rhs
        evaluations per RK4 step regardless of fleet size.

        Rows share the fixed step size and time grid; per-row arithmetic is
        identical to :meth:`solve`.
        """
        grid = self._normalized_output_times(problem, output_times)
        h = self._step_size(problem)

        recorder = BatchTrajectoryRecorder(
            problem.n_rows, problem.n_states, int((problem.t1 - problem.t0) / h) + 4
        )
        recorder.append_all(problem.t0, problem.x0)
        t = problem.t0
        X = problem.x0.copy()
        n_evals = 0
        n_steps = 0

        f = _batch_stage_function(problem)
        t1 = problem.t1
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while t < t1 - 1e-15:
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                h_eff = min(h, t1 - t)
                k1 = f(t, X)
                k2 = f(t + h_eff / 2.0, X + h_eff / 2.0 * k1)
                k3 = f(t + h_eff / 2.0, X + h_eff / 2.0 * k2)
                k4 = f(t + h_eff, X + h_eff * k3)
                n_evals += 4
                X = X + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = t + h_eff
                n_steps += 1
                # Scalar pre-check + exact fallback, see EulerSolver.solve_batch.
                if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                    bad = np.where(~np.isfinite(X).all(axis=1))[0]
                    raise SolverError(
                        f"RK4 integration diverged at t={t} (rows {bad.tolist()})"
                    )
                recorder.append_all(t, X)

        steps_per_row = np.full(problem.n_rows, n_steps, dtype=int)
        return BatchOdeSolution(
            times=grid,
            states=recorder.sample(grid),
            n_rhs_evals=n_evals,
            n_steps=steps_per_row,
            solver_name=self.name,
        )
