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
    OdeProblem,
    OdeSolution,
    OdeSolver,
    _check_step,
    _finite,
    _float_solution,
    _stage_function,
    _step_guard,
    _CHECK_INTERVAL,
)

# Dormand-Prince Butcher tableau (RK45, FSAL), as Python floats.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# The 5th-order weights are the last stage row followed by a zero weight on
# the FSAL stage.
_B5 = _A[6] + (0.0,)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _numpy_sum(values: list) -> float:
    """``np.add.reduce`` of a contiguous float vector, in numpy's order.

    numpy adds fewer than 8 elements left to right.  Longer vectors go
    through its pairwise scheme: eight interleaved accumulators over blocks
    of eight, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
    remainder left to right; past 128 elements the vector is split at a
    multiple of eight and each part summed that way.  (Builtin ``sum`` is
    compensated since Python 3.12, so it cannot stand in for any of this.)
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, n - n % 8, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[n - n % 8:]:
        total += value
    return total


def _error_norm(x, x5, x4, atol: float, rtol: float) -> float:
    """The RMS scaled local error on float lists.

    Bit for bit ``np.sqrt(np.mean(((x5 - x4) / scale) ** 2))`` with
    ``scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))``: the square
    is ``q * q`` (``**`` raises on overflow where numpy gives inf), and the
    mean is numpy's summation order (:func:`_numpy_sum`).  The maximum
    returns a nan ``|x5|`` as ``np.maximum`` does (``max`` keeps whichever
    argument comes first); a nan ``x5`` also makes the numerator nan, so
    the norm is nan - a rejected step with the 0.2 factor - either way.
    """
    if not x:
        return 0.0
    squares = []
    for xj, hi, lo in zip(x, x5, x4):
        a, b = abs(xj), abs(hi)
        q = (hi - lo) / (atol + rtol * (a if a > b else b))
        squares.append(q * q)
    return math.sqrt(_numpy_sum(squares) / len(squares))


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

    The solver is :attr:`~repro.solvers.base.OdeSolver.adaptive`: it has no
    fleet loop of its own, and the FMI runtime steps the rows of a fleet one
    by one through :meth:`solve`.
    """

    name = "rk45"
    adaptive = True
    # benchmarks/suite/tracer.py wraps each solver class's own solve_batch.
    solve_batch = OdeSolver.solve_batch

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
        t, t1 = problem.t0, problem.t1
        span = t1 - t
        max_step, max_steps = self.max_step, self.max_steps
        atol, rtol = self.atol, self.rtol
        h = span / 100.0
        if max_step is not None:
            h = min(h, max_step)
        x = problem.x0.tolist()
        times, states = [t], [x]
        n_evals, n_steps, n_rejected = 1, 0, 0
        _, c1, c2, c3, c4, c5, _ = _C
        _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), a5, a6 = _A
        a50, a51, a52, a53, a54 = a5
        a60, a61, a62, a63, a64, a65 = a6
        b56 = _B5[6]
        b40, b41, b42, b43, b44, b45, b46 = _B4
        token, injector, watch = _step_guard()
        checks_left = _CHECK_INTERVAL
        with np.errstate(over="ignore", invalid="ignore"):  # an ndarray rhs may overflow
            # First stage; rewritten only on acceptance (FSAL), so a
            # rejected step retries with the same one.
            k0 = f(t, x)
            while t < t1 - 1e-14:
                if watch:
                    checks_left -= 1
                    if checks_left == 0:
                        checks_left = _CHECK_INTERVAL
                        _check_step(token, injector)
                if n_steps + n_rejected > max_steps:
                    raise SolverError(
                        f"RK45 exceeded {max_steps} steps (t={t}, interval ends at {t1})"
                    )
                h = min(h, t1 - t)
                if max_step is not None:
                    h = min(h, max_step)

                # Each stage combination is a left fold in tableau order
                # (zero weights included, so a non-finite stage propagates).
                k1 = f(t + c1 * h, [xj + h * (a10 * a) for xj, a in zip(x, k0)])
                k2 = f(
                    t + c2 * h,
                    [xj + h * (a20 * a + a21 * b) for xj, a, b in zip(x, k0, k1)],
                )
                k3 = f(
                    t + c3 * h,
                    [
                        xj + h * (a30 * a + a31 * b + a32 * c)
                        for xj, a, b, c in zip(x, k0, k1, k2)
                    ],
                )
                k4 = f(
                    t + c4 * h,
                    [
                        xj + h * (a40 * a + a41 * b + a42 * c + a43 * d)
                        for xj, a, b, c, d in zip(x, k0, k1, k2, k3)
                    ],
                )
                k5 = f(
                    t + c5 * h,
                    [
                        xj + h * (a50 * a + a51 * b + a52 * c + a53 * d + a54 * e)
                        for xj, a, b, c, d, e in zip(x, k0, k1, k2, k3, k4)
                    ],
                )
                s6 = [
                    a60 * a + a61 * b + a62 * c + a63 * d + a64 * e + a65 * g
                    for a, b, c, d, e, g in zip(k0, k1, k2, k3, k4, k5)
                ]
                k6 = f(t + h, [xj + h * s for xj, s in zip(x, s6)])
                n_evals += 6

                # _B5 is the last stage row plus a zero weight on k6.
                x5 = [xj + h * (s + b56 * k) for xj, s, k in zip(x, s6, k6)]
                x4 = [
                    xj + h * (b40 * a + b41 * b + b42 * c + b43 * d + b44 * e + b45 * g + b46 * k)
                    for xj, a, b, c, d, e, g, k in zip(x, k0, k1, k2, k3, k4, k5, k6)
                ]
                err = _error_norm(x, x5, x4, atol, rtol)

                if err <= 1.0 or h <= 1e-12 * span:
                    t = t + h
                    x = x5
                    k0 = k6  # FSAL: last stage equals first stage of next step
                    if not _finite(x):
                        raise SolverError(f"RK45 integration diverged at t={t}")
                    times.append(t)
                    states.append(x)
                    n_steps += 1
                else:
                    n_rejected += 1

                # Standard step-size controller with safety factor and clamps
                # (a nan error from a diverging trial step clamps to 0.2).
                if err == 0.0:
                    factor = 5.0
                else:
                    factor = min(5.0, max(0.2, 0.9 * err ** (-0.2)))
                h = h * factor

        return _float_solution(
            self.name, grid, times, states, n_evals, n_steps, n_rejected
        )
