"""ODE solvers used to integrate FMU model equations.

This subpackage replaces the Assimulo/CVode solver stack used by the original
pgFMU.  It provides explicit fixed-step solvers (forward Euler, classic
Runge-Kutta 4) and an adaptive Dormand-Prince RK45 solver with dense output,
all operating on plain callables ``f(t, x, u) -> dx/dt``.

The solver interface is deliberately tiny so that the FMI runtime
(:mod:`repro.fmi.model`) can swap solvers via the ``solver`` simulation option
without caring about their internals.

The fixed-step solvers also integrate *fleets*: their ``solve_batch`` steps
an ``(N, d)`` state matrix through a batched right-hand side
``F(t, X, U) -> (N, d)`` (see :class:`~repro.solvers.base.BatchOdeProblem`),
which is how a calibration round scores a whole population in one solve.
The adaptive solver (``OdeSolver.adaptive``) has one loop, :meth:`solve`:
its rows pick their own steps, so the FMI runtime solves an adaptive fleet
row by row.
"""

from repro.solvers.base import (
    BatchOdeProblem,
    BatchOdeSolution,
    OdeProblem,
    OdeSolution,
    OdeSolver,
    solve_ode,
)
from repro.solvers.euler import EulerSolver
from repro.solvers.rk4 import RungeKutta4Solver
from repro.solvers.rk45 import DormandPrince45Solver

SOLVER_REGISTRY = {
    "euler": EulerSolver,
    "rk4": RungeKutta4Solver,
    "rk45": DormandPrince45Solver,
    "cvode": DormandPrince45Solver,  # alias: the paper's stack defaults to CVode
}

# The retry ladder reads the registry, so it is imported once that exists.
from repro.solvers.retry import RetryPolicy  # noqa: E402


def get_solver(name, **options):
    """Return a solver instance by registry name.

    Parameters
    ----------
    name:
        One of ``"euler"``, ``"rk4"``, ``"rk45"`` or the alias ``"cvode"``.
    options:
        Keyword options forwarded to the solver constructor (for example
        ``rtol``/``atol`` for the adaptive solver or ``max_step``).
    """
    try:
        cls = SOLVER_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SOLVER_REGISTRY))
        raise ValueError(f"unknown solver {name!r}; expected one of: {known}") from None
    return cls(**options)


__all__ = [
    "BatchOdeProblem",
    "BatchOdeSolution",
    "OdeProblem",
    "OdeSolution",
    "OdeSolver",
    "solve_ode",
    "EulerSolver",
    "RungeKutta4Solver",
    "DormandPrince45Solver",
    "RetryPolicy",
    "SOLVER_REGISTRY",
    "get_solver",
]
