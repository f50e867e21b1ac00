"""Forward Euler fixed-step solver."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import SolverError
from repro.solvers.base import (
    BatchOdeProblem,
    BatchOdeSolution,
    OdeProblem,
    OdeSolution,
    OdeSolver,
    TrajectoryRecorder,
    _batch_stage_function,
    _check_step,
    _stage_function,
    _step_guard,
    _CHECK_INTERVAL,
    _fixed_steps,
    _sample_shared,
)


class EulerSolver(OdeSolver):
    """Explicit forward Euler with a fixed step size.

    The step size defaults to 1/200 of the integration interval unless
    ``step`` (or the generic ``max_step``) is given.  Euler is mainly useful
    as a cheap baseline and for property tests comparing solver accuracy.
    """

    name = "euler"

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
            h = span / 200.0
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
                dx = f(t, x)
                n_evals += 1
                x = x + h_eff * dx
                t = t + h_eff
                n_steps += 1
                # Cheap scalar pre-check (the sum is non-finite whenever any
                # component is; opposite-sign infinities collapse to nan);
                # the exact per-component check runs only when it trips, so
                # a finite sum that merely overflows is not misreported.
                if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                    raise SolverError(f"Euler integration diverged at t={t}")
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
        """Integrate a whole fleet with one matrix step per Euler step.

        All rows share the fixed step size, so the time grid is common and
        each step is a single vectorized rhs evaluation; per-row arithmetic
        is identical to :meth:`solve`, so batched trajectories match the
        sequential ones to floating-point rounding.
        """
        grid = self._normalized_output_times(problem, output_times)
        h = self._step_size(problem)

        # The step count is known up front: write straight into a trajectory
        # sized once, every row at the shared step times.
        times, steps = _fixed_steps(problem.t0, problem.t1, h)
        states = np.empty((len(times), problem.n_rows, problem.n_states))
        states[0] = problem.x0
        X = problem.x0.copy()
        f = _batch_stage_function(problem)
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
                # Scalar pre-check + exact fallback over the whole fleet;
                # callers fall back to per-row integration to pinpoint the
                # diverging instance.
                if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                    bad = np.where(~np.isfinite(X).all(axis=1))[0]
                    raise SolverError(
                        f"Euler integration diverged at t={times[n]} (rows {bad.tolist()})"
                    )
                states[n] = X

        n_steps = len(steps)
        steps_per_row = np.full(problem.n_rows, n_steps, dtype=int)
        return BatchOdeSolution(
            times=grid,
            states=_sample_shared(grid, np.array(times), states),
            n_rhs_evals=n_steps,
            n_steps=steps_per_row,
            solver_name=self.name,
        )
