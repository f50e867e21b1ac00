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
    _check_step,
    _finite,
    _float_solution,
    _stage_function,
    _step_guard,
    _CHECK_INTERVAL,
    _fixed_steps,
    _sample_inputs,
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
        f = _stage_function(problem)
        t, t1 = problem.t0, problem.t1
        x = problem.x0.tolist()
        times, states = [t], [x]
        n_steps = 0
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore"):  # an ndarray rhs may overflow
            while t < t1 - 1e-15:
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                h_eff = min(h, t1 - t)
                x = [xj + h_eff * dj for xj, dj in zip(x, f(t, x))]
                t = t + h_eff
                n_steps += 1
                if not _finite(x):
                    raise SolverError(f"Euler integration diverged at t={t}")
                times.append(t)
                states.append(x)

        return _float_solution(self.name, grid, times, states, n_steps, n_steps)

    def solve_batch(
        self,
        problem: BatchOdeProblem,
        output_times: Optional[Sequence[float]] = None,
    ) -> BatchOdeSolution:
        """Integrate a whole fleet with one matrix step per Euler step.

        All rows share the fixed step size, so the time grid is common and
        each step is a single vectorized rhs evaluation; per-row arithmetic
        is identical to :meth:`solve`, so batched trajectories match the
        sequential ones to floating-point rounding.  The inputs are sampled
        at every step time before the loop, and each step writes ``X + h *
        dX`` through one scratch buffer into the trajectory.
        """
        grid = self._normalized_output_times(problem, output_times)
        h = self._step_size(problem)

        # The step count is known up front: write straight into a trajectory
        # sized once, every row at the shared step times.
        times, steps = _fixed_steps(problem.t0, problem.t1, h)
        states = np.empty((len(times), problem.n_rows, problem.n_states))
        states[0] = problem.x0
        term = np.empty_like(problem.x0)
        rhs = problem.rhs
        X = states[0]
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inputs = _sample_inputs(problem, times[:-1])
            for n, h_eff in enumerate(steps, start=1):
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                dX = rhs(times[n - 1], X, inputs[n - 1])
                X = np.add(X, np.multiply(h_eff, dX, out=term), out=states[n])
                # Scalar pre-check + exact fallback over the whole fleet (see
                # _finite); callers fall back to per-row integration to
                # pinpoint the diverging instance.
                if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                    bad = np.where(~np.isfinite(X).all(axis=1))[0]
                    raise SolverError(
                        f"Euler integration diverged at t={times[n]} (rows {bad.tolist()})"
                    )

        n_steps = len(steps)
        steps_per_row = np.full(problem.n_rows, n_steps, dtype=int)
        return BatchOdeSolution(
            times=grid,
            states=_sample_shared(grid, np.array(times), states),
            n_rhs_evals=n_steps,
            n_steps=steps_per_row,
            solver_name=self.name,
        )
