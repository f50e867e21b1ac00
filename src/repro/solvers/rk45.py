"""Adaptive Dormand-Prince RK45 solver with dense output.

This is the default solver of the FMI runtime and plays the role that
Assimulo's CVode plays in the original pgFMU stack: an error-controlled
integrator that is accurate enough that calibration results are limited by
the optimizer, not the integrator.
"""

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

# Dormand-Prince Butcher tableau (RK45, FSAL).
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

# Dense square form of _A so stage combinations run as one vectorized
# combination over the stacked stage array instead of a Python generator sum.
_A_MAT = np.zeros((7, 7))
for _i, _row in enumerate(_A):
    _A_MAT[_i, : len(_row)] = _row

# Stage combinations are computed as elementwise multiply + axis-0 sum
# rather than a BLAS dot: BLAS gemv kernels round differently depending on
# the matrix width (column blocking, FMA), so a dot over an (i, d) stage
# block and over an (i, N*d) batched block disagree in the last ulp - which
# desynchronizes the batched solver's per-row step sequence from the scalar
# one.  The multiply+sum form reduces every element in the same order
# regardless of trailing width, making scalar and batched solves
# bit-comparable.  Coefficients are precomputed as broadcast-ready columns
# for the scalar (i, 1) and batched (i, 1, 1) stage shapes.
_A_COLS = [_A_MAT[_i, :_i].reshape(-1, 1) for _i in range(7)]
_A_COLS_BATCH = [_A_MAT[_i, :_i].reshape(-1, 1, 1) for _i in range(7)]
_B5_COL, _B5_COL_BATCH = _B5.reshape(-1, 1), _B5.reshape(-1, 1, 1)
_B4_COL, _B4_COL_BATCH = _B4.reshape(-1, 1), _B4.reshape(-1, 1, 1)


class DormandPrince45Solver(OdeSolver):
    """Adaptive RK45 (Dormand-Prince) with step-size control.

    Parameters
    ----------
    rtol, atol:
        Relative and absolute local error tolerances.
    max_step:
        Optional upper bound on the step size.
    max_steps:
        Safety limit on the number of accepted steps before the solver gives
        up with a :class:`~repro.errors.SolverError`.
    """

    name = "rk45"

    def __init__(
        self,
        rtol: float = 1e-6,
        atol: float = 1e-8,
        max_step: Optional[float] = None,
        max_steps: int = 100_000,
    ):
        super().__init__(max_step=max_step)
        if rtol <= 0 or atol <= 0:
            raise SolverError("rtol and atol must be positive")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_steps = int(max_steps)

    def solve(self, problem: OdeProblem, output_times: Optional[Sequence[float]] = None) -> OdeSolution:
        grid = self._normalized_output_times(problem, output_times)

        f = _stage_function(problem)
        t = problem.t0
        x = problem.x0.copy()
        span = problem.t1 - problem.t0
        h = span / 100.0
        if self.max_step is not None:
            h = min(h, self.max_step)

        recorder = TrajectoryRecorder(len(x))
        recorder.append(t, x)
        n_evals = 1
        k_first = f(t, x)

        with np.errstate(over="ignore", invalid="ignore"):
            return self._integrate(problem, grid, f, t, x, h, span, k_first, recorder, n_evals)

    def _integrate(self, problem, grid, f, t, x, h, span, k_first, recorder, n_evals):
        n_steps = 0
        n_rejected = 0
        # Stacked stage array: K[i] is the i-th stage derivative.  K[0] is
        # only rewritten on acceptance (FSAL), so a rejected step retries
        # with the same first stage.
        stages = np.empty((7, len(x)))
        stages[0] = k_first
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        while t < problem.t1 - 1e-14:
            if watch:
                checks_left -= 1
                if checks_left == 0:
                    checks_left = _CHECK_INTERVAL
                    _check_step(token, injector)
            if n_steps + n_rejected > self.max_steps:
                raise SolverError(
                    f"RK45 exceeded {self.max_steps} steps (t={t}, interval ends at {problem.t1})"
                )
            h = min(h, problem.t1 - t)
            if self.max_step is not None:
                h = min(h, self.max_step)

            for i in range(1, 7):
                xi = x + h * (_A_COLS[i] * stages[:i]).sum(axis=0)
                stages[i] = f(t + _C[i] * h, xi)
            n_evals += 6

            x5 = x + h * (_B5_COL * stages).sum(axis=0)
            x4 = x + h * (_B4_COL * stages).sum(axis=0)

            scale = self.atol + self.rtol * np.maximum(np.abs(x), np.abs(x5))
            err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2)) if scale.size else 0.0

            if err <= 1.0 or h <= 1e-12 * span:
                t = t + h
                x = x5
                stages[0] = stages[6]  # FSAL: last stage equals first stage of next step
                # Scalar pre-check + exact fallback, see EulerSolver.
                if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
                    raise SolverError(f"RK45 integration diverged at t={t}")
                recorder.append(t, x)
                n_steps += 1
            else:
                n_rejected += 1

            # Standard step-size controller with safety factor and clamps.
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * err ** (-0.2)))
            h = h * factor

        times, states = recorder.arrays()
        dense = OdeSolution(
            times=times,
            states=states,
            n_rhs_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            solver_name=self.name,
        )
        sampled = dense.sample(grid)
        return OdeSolution(
            times=grid,
            states=sampled,
            n_rhs_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            solver_name=self.name,
        )

    def solve_batch(
        self,
        problem: BatchOdeProblem,
        output_times: Optional[Sequence[float]] = None,
    ) -> BatchOdeSolution:
        """Integrate a fleet with **per-row** adaptive error control.

        Every row carries its own time, step size and accept/reject state,
        and the step controller applies the scalar :meth:`solve` arithmetic
        row-wise - so each row walks the same step sequence the sequential
        solver would, and batched trajectories match sequential ones to
        floating-point rounding.  Each iteration evaluates the six
        Dormand-Prince stages for the *whole working set* in one vectorized
        rhs call.  The iteration count is the maximum of the per-row step
        counts, not their sum - the fleet finishes when its slowest row does.

        When the problem supplies a :attr:`~repro.solvers.base.BatchOdeProblem.restrict`
        hook, the working set is **compacted** as rows reach ``t1``: finished
        rows are dropped from the state/stage matrices and the right-hand
        side is re-bound to the survivors, so they stop being evaluated and
        a ragged fleet (a few stiff rows among tame ones) does not pay full
        fleet width to the end.  Per-row arithmetic is elementwise over
        rows, so compaction leaves every surviving row's step sequence - and
        therefore its trajectory - bit-identical.  Without the hook, rows
        that have reached ``t1`` (or are between accepted steps) are still
        evaluated but their results are discarded, which keeps the hot loop
        free of per-row branching.
        """
        grid = self._normalized_output_times(problem, output_times)
        f = _batch_stage_function(problem)
        n_rows, n_states = problem.n_rows, problem.n_states
        span = problem.t1 - problem.t0
        t1 = problem.t1
        h0 = span / 100.0
        if self.max_step is not None:
            h0 = min(h0, self.max_step)

        # Full-fleet bookkeeping stays indexed by original row; the working
        # arrays below may shrink, with ``idx`` mapping working row -> fleet
        # row (identity until compaction kicks in).
        recorder = BatchTrajectoryRecorder(n_rows, n_states)
        recorder.append_rows(np.arange(n_rows), np.full(n_rows, problem.t0), problem.x0)
        n_steps = np.zeros(n_rows, dtype=int)
        n_rejected = np.zeros(n_rows, dtype=int)
        can_compact = problem.restrict is not None

        idx = np.arange(n_rows)
        t = np.full(n_rows, problem.t0)
        h = np.full(n_rows, h0)
        X = problem.x0.copy()
        # Stacked stages: K[i] is the i-th stage derivative for every row.
        # K[0] is rewritten only for rows that accept (FSAL), so a rejected
        # row retries with the same first stage.
        stages = np.empty((7, n_rows, n_states))
        n_evals = 1

        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stages[0] = f(t, X)
            while True:
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                active = t < t1 - 1e-14
                if not active.any():
                    break
                if can_compact and not active.all():
                    # Drop finished rows from the working set and re-bind the
                    # rhs/inputs to the survivors (slicing preserves each
                    # kept row's FSAL stage and controller state exactly).
                    keep = np.where(active)[0]
                    idx = idx[keep]
                    t, h, X = t[keep], h[keep], X[keep]
                    stages = np.ascontiguousarray(stages[:, keep, :])
                    f = _batch_stage_function(problem, rows=idx)
                    active = np.ones(idx.shape[0], dtype=bool)
                attempts = n_steps[idx] + n_rejected[idx]
                if np.any(attempts[active] > self.max_steps):
                    local = int(np.where(active & (attempts > self.max_steps))[0][0])
                    raise SolverError(
                        f"RK45 exceeded {self.max_steps} steps "
                        f"(row {int(idx[local])}, t={t[local]}, interval ends at {t1})"
                    )
                # The scalar solver clamps h before the stages and feeds the
                # clamped value into the controller; replicate that row-wise.
                h_eff = np.minimum(h, t1 - t)
                if self.max_step is not None:
                    h_eff = np.minimum(h_eff, self.max_step)

                for i in range(1, 7):
                    xi = X + h_eff[:, None] * (_A_COLS_BATCH[i] * stages[:i]).sum(axis=0)
                    stages[i] = f(t + _C[i] * h_eff, xi)
                n_evals += 6

                x5 = X + h_eff[:, None] * (_B5_COL_BATCH * stages).sum(axis=0)
                x4 = X + h_eff[:, None] * (_B4_COL_BATCH * stages).sum(axis=0)

                scale = self.atol + self.rtol * np.maximum(np.abs(X), np.abs(x5))
                err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2, axis=1))

                accept = active & ((err <= 1.0) | (h_eff <= 1e-12 * span))
                if accept.any():
                    rows = np.where(accept)[0]
                    t = np.where(accept, t + h_eff, t)
                    X = np.where(accept[:, None], x5, X)
                    stages[0][rows] = stages[6][rows]  # FSAL, per accepted row
                    accepted_states = X[rows]
                    if not np.isfinite(accepted_states).all():
                        bad = idx[rows[~np.isfinite(accepted_states).all(axis=1)]]
                        raise SolverError(
                            f"RK45 integration diverged (rows {bad.tolist()})"
                        )
                    recorder.append_rows(idx[rows], t[rows], accepted_states)
                    n_steps[idx[rows]] += 1
                n_rejected[idx[np.where(active & ~accept)[0]]] += 1

                # Row-wise standard controller, computed with *scalar* pow:
                # numpy's vectorized power ufunc rounds differently from the
                # scalar pow in ~5% of inputs, and a 1-ulp difference in the
                # factor desynchronizes the batched step sequence from the
                # sequential one.  Python floats hit the same libm pow the
                # scalar solver does (Python max/min also clamp a nan error
                # from a diverging trial step to 0.2 the same way).  One pow
                # per row per attempt is far off the hot path.
                factor = np.array(
                    [
                        5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** (-0.2)))
                        for e in err.tolist()
                    ]
                )
                h = np.where(active, h_eff * factor, h)

        return BatchOdeSolution(
            times=grid,
            states=recorder.sample(grid),
            n_rhs_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            solver_name=self.name,
        )
