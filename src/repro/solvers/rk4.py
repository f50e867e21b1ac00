"""Classic fourth-order Runge-Kutta fixed-step solver."""

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
                half = h_eff / 2.0
                k1 = f(t, x)
                k2 = f(t + half, [xj + half * a for xj, a in zip(x, k1)])
                k3 = f(t + half, [xj + half * b for xj, b in zip(x, k2)])
                k4 = f(t + h_eff, [xj + h_eff * c for xj, c in zip(x, k3)])
                sixth = h_eff / 6.0
                x = [
                    xj + sixth * (a + 2.0 * b + 2.0 * c + d)
                    for xj, a, b, c, d in zip(x, k1, k2, k3, k4)
                ]
                t = t + h_eff
                n_steps += 1
                if not _finite(x):
                    raise SolverError(f"RK4 integration diverged at t={t}")
                times.append(t)
                states.append(x)

        return _float_solution(self.name, grid, times, states, 4 * n_steps, n_steps)

    def solve_batch(
        self,
        problem: BatchOdeProblem,
        output_times: Optional[Sequence[float]] = None,
    ) -> BatchOdeSolution:
        """Integrate a whole fleet with matrix stages: four vectorized rhs
        evaluations per RK4 step regardless of fleet size.

        Rows share the fixed step size and time grid; per-row arithmetic is
        identical to :meth:`solve`.  The inputs are sampled at every stage
        time before the loop (each step's start and end, and its midpoint),
        and the stage arithmetic writes into buffers allocated once, in the
        operation order of ``X + h / 2 * k1`` and ``X + h / 6 * (k1 + 2 k2 +
        2 k3 + k4)``.
        """
        grid = self._normalized_output_times(problem, output_times)
        h = self._step_size(problem)

        # The step count is known up front: write straight into a trajectory
        # sized once, every row at the shared step times.
        times, steps = _fixed_steps(problem.t0, problem.t1, h)
        n_steps = len(steps)
        states = np.empty((len(times), problem.n_rows, problem.n_states))
        states[0] = problem.x0
        midpoints = [t + h_eff / 2.0 for t, h_eff in zip(times, steps)]
        # Stage states, the weighted stage sum and one scratch term.
        x2, x3, x4, acc, term = (np.empty_like(problem.x0) for _ in range(5))

        rhs = problem.rhs
        X = states[0]
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inputs = _sample_inputs(problem, times + midpoints)
            for n, h_eff in enumerate(steps, start=1):
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                half = h_eff / 2.0
                u_mid = inputs[n_steps + n]
                k1 = rhs(times[n - 1], X, inputs[n - 1])
                np.add(X, np.multiply(half, k1, out=x2), out=x2)
                k2 = rhs(midpoints[n - 1], x2, u_mid)
                np.add(X, np.multiply(half, k2, out=x3), out=x3)
                k3 = rhs(midpoints[n - 1], x3, u_mid)
                np.add(X, np.multiply(h_eff, k3, out=x4), out=x4)
                # times[n] is times[n - 1] + h_eff (see _fixed_steps).
                k4 = rhs(times[n], x4, inputs[n])
                np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
                np.add(acc, np.multiply(2.0, k3, out=term), out=acc)
                np.add(acc, k4, out=acc)
                X = np.add(X, np.multiply(h_eff / 6.0, acc, out=acc), out=states[n])
                # Scalar pre-check + exact fallback, see _finite.
                if not math.isfinite(float(X.sum())) and not np.isfinite(X).all():
                    bad = np.where(~np.isfinite(X).all(axis=1))[0]
                    raise SolverError(
                        f"RK4 integration diverged at t={times[n]} (rows {bad.tolist()})"
                    )

        steps_per_row = np.full(problem.n_rows, n_steps, dtype=int)
        return BatchOdeSolution(
            times=grid,
            states=_sample_shared(grid, np.array(times), states),
            n_rhs_evals=4 * n_steps,
            n_steps=steps_per_row,
            solver_name=self.name,
        )
