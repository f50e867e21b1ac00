"""Common solver abstractions: problem description, solution containers, base class.

Two problem shapes are supported:

* :class:`OdeProblem` - one instance, state vector ``x`` of length ``d``,
  solved by :meth:`OdeSolver.solve`.  The scalar loops step in plain
  Python floats (states and stages are lists; see :func:`float_rhs`):
  for a handful of states, per-element numpy calls cost far more than the
  arithmetic they do.
* :class:`BatchOdeProblem` - a *fleet* of ``N`` instances stacked into an
  ``(N, d)`` state matrix sharing one integration window, solved by
  :meth:`OdeSolver.solve_batch`.  The right-hand side is evaluated once per
  stage for the whole fleet (one numpy-vectorized call instead of ``N``
  scalar ones).  Only the fixed-step solvers implement ``solve_batch``:
  their rows share every step time.  An :attr:`OdeSolver.adaptive` solver
  picks each row's steps from that row's error, so the FMI runtime solves
  its fleets row by row with :meth:`OdeSolver.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.cancellation import active_token
from repro.errors import SolverError

#: Solver step loops poll the deadline token / chaos injector once every
#: this many iterations.  Sparse enough that the inactive case costs a
#: single boolean test per step (measured <=2% on the kernel benchmark),
#: frequent enough that a runaway integration stops within milliseconds.
_CHECK_INTERVAL = 64


def _step_guard():
    """``(token, injector, watch)`` for a solver main loop.

    Captured once at loop entry; ``watch`` is False in ordinary runs, so
    the per-step cost collapses to one branch.  See the loop bodies: every
    ``_CHECK_INTERVAL``-th step with a watcher installed calls
    :func:`_check_step`.
    """
    token = active_token()
    injector = faults.active_injector()
    return token, injector, token is not None or injector is not None


def _check_step(token, injector) -> None:
    if token is not None:
        token.check()
    if injector is not None:
        injector.check_point("solver.step")


RhsFunction = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
InputFunction = Callable[[float], np.ndarray]
#: Batched right-hand side ``F(t, X, U) -> (N, d)`` at a time shared by all rows.
BatchRhsFunction = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
#: Batched input function ``U(t) -> (N, n_u)`` at a shared time.
BatchInputFunction = Callable[[float], np.ndarray]


@dataclass
class OdeProblem:
    """An initial value problem ``x' = f(t, x, u(t))`` on ``[t0, t1]``.

    Attributes
    ----------
    rhs:
        Right-hand side callable ``f(t, x, u) -> dx/dt`` on numpy vectors,
        or a :func:`float_rhs` ``f(t, x) -> list`` on float lists.
    x0:
        Initial state vector at ``t0``.
    t0, t1:
        Integration interval.  ``t1`` must be strictly greater than ``t0``.
    inputs:
        Optional callable mapping time to the input vector ``u(t)``.  When
        omitted a zero-length input vector is passed to ``rhs``.
    """

    rhs: RhsFunction
    x0: np.ndarray
    t0: float
    t1: float
    inputs: Optional[InputFunction] = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if not np.isfinite(self.x0).all():
            raise SolverError("initial state contains non-finite values")
        if not (self.t1 > self.t0):
            raise SolverError(
                f"invalid integration interval: t1={self.t1} must be > t0={self.t0}"
            )

    def input_at(self, t: float) -> np.ndarray:
        """Evaluate the input vector at time ``t`` (empty vector if no inputs)."""
        if self.inputs is None:
            return np.empty(0)
        return np.atleast_1d(np.asarray(self.inputs(t), dtype=float))


@dataclass
class BatchOdeProblem:
    """A fleet of initial value problems ``X' = F(t, X, U(t))`` on ``[t0, t1]``.

    All rows share the integration window and the input function; states,
    derivatives and inputs are matrices with one row per instance.

    Attributes
    ----------
    rhs:
        Batched right-hand side ``F(t, X, U) -> dX/dt`` over the ``(N, d)``
        state matrix at a time ``t`` shared by all rows.
    x0:
        ``(N, d)`` matrix of initial states.
    t0, t1:
        Shared integration interval; ``t1`` must be strictly greater.
    inputs:
        Optional callable mapping a shared time to the ``(N, n_u)`` input
        matrix.  When omitted an empty ``(N, 0)`` matrix is passed to
        ``rhs``.  The solvers sample every stage time before their loop
        (:func:`_sample_inputs`): an ``inputs`` object with a
        ``sample(times)`` method, returning the ``(T, N, n_u)`` matrices at a
        vector of shared times, is sampled in that one call; a plain
        callable is called once per time.
    """

    rhs: BatchRhsFunction
    x0: np.ndarray
    t0: float
    t1: float
    inputs: Optional[BatchInputFunction] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.ndim != 2:
            raise SolverError(
                f"batch initial state must be an (N, d) matrix, got shape {self.x0.shape}"
            )
        if self.x0.shape[0] == 0:
            raise SolverError("a batch problem needs at least one row")
        if not np.isfinite(self.x0).all():
            raise SolverError("batch initial state contains non-finite values")
        if not (self.t1 > self.t0):
            raise SolverError(
                f"invalid integration interval: t1={self.t1} must be > t0={self.t0}"
            )

    @property
    def n_rows(self) -> int:
        return self.x0.shape[0]

    @property
    def n_states(self) -> int:
        return self.x0.shape[1]


@dataclass
class OdeSolution:
    """Dense solver output: state trajectory sampled at ``times``.

    The solution also records solver statistics that the FMI runtime exposes
    to callers (number of right-hand-side evaluations and accepted/rejected
    steps) so benchmarks can reason about solver cost.
    """

    times: np.ndarray
    states: np.ndarray
    n_rhs_evals: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    solver_name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states.reshape(-1, 1)
        if len(self.times) != len(self.states):
            raise SolverError(
                "solution times and states have mismatched lengths: "
                f"{len(self.times)} vs {len(self.states)}"
            )

    @property
    def final_state(self) -> np.ndarray:
        """State vector at the final time point."""
        return self.states[-1]

    def interpolate(self, t: float) -> np.ndarray:
        """Linearly interpolate the state at an arbitrary time ``t``.

        Times outside the solved interval are clamped to the boundary values,
        matching how co-simulation masters hold the last known state.
        """
        return self.sample(np.array([float(t)]))[0]

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Interpolate the state trajectory at each of the given times.

        Batch-interpolates every state column with ``np.interp`` (which
        clamps outside the solved interval) instead of stacking per-point
        interpolations.
        """
        query = np.asarray(times, dtype=float)
        sampled = np.empty((query.size, self.states.shape[1]))
        for j in range(self.states.shape[1]):
            sampled[:, j] = np.interp(query, self.times, self.states[:, j])
        return sampled


@dataclass
class BatchOdeSolution:
    """Dense batched solver output: ``(n, N, d)`` states sampled at ``times``.

    Step statistics are per-row arrays; ``n_rhs_evals`` counts *vectorized*
    right-hand-side evaluations, each of which covers the whole fleet.
    """

    times: np.ndarray
    states: np.ndarray
    n_rhs_evals: int = 0
    n_steps: Optional[np.ndarray] = None
    n_rejected: Optional[np.ndarray] = None
    solver_name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 3:
            raise SolverError(
                f"batch solution states must be (n_times, N, d), got shape {self.states.shape}"
            )
        if len(self.times) != self.states.shape[0]:
            raise SolverError(
                "batch solution times and states have mismatched lengths: "
                f"{len(self.times)} vs {self.states.shape[0]}"
            )
        n_rows = self.states.shape[1]
        if self.n_steps is None:
            self.n_steps = np.zeros(n_rows, dtype=int)
        if self.n_rejected is None:
            self.n_rejected = np.zeros(n_rows, dtype=int)

    @property
    def n_rows(self) -> int:
        return self.states.shape[1]


def float_rhs(fn):
    """Mark ``fn(t, x) -> list`` as a right-hand side on plain float lists.

    The scalar solver loops step in Python floats: states and stage
    derivatives are lists.  A marked function is called as the stage
    function itself - ``x`` is a list of floats, the result a sequence of
    floats - and resolves its own inputs (the problem's ``inputs`` must be
    ``None``).  The compiled FMU kernel is written this way; any other
    ``rhs(t, x, u)`` on numpy vectors is adapted by :func:`_stage_function`.
    """
    fn.float_lists = True
    return fn


def _stage_function(problem: "OdeProblem"):
    """The solver-facing stage function ``f(t, x) -> list`` on float lists.

    A :func:`float_rhs` is returned as it is.  Any other right-hand side is
    adapted once here: it receives ``x`` as a float vector and the resolved
    input vector (input-less problems share one empty vector), and its
    result is broadcast to the state shape and returned as a list.
    """
    rhs = problem.rhs
    if getattr(rhs, "float_lists", False):
        if problem.inputs is not None:
            raise SolverError("a float_rhs resolves its own inputs; the problem must have none")
        return rhs
    empty_u = np.empty(0)
    has_inputs = problem.inputs is not None
    input_at = problem.input_at
    shape = problem.x0.shape

    def f(t, x):
        u = input_at(t) if has_inputs else empty_u
        dx = np.atleast_1d(np.asarray(rhs(t, np.array(x, dtype=float), u), dtype=float))
        if dx.shape != shape:
            dx = np.broadcast_to(dx, shape)
        return dx.tolist()

    return f


def _finite(x: List[float]) -> bool:
    """Whether every component of a float-list state is finite.

    ``sum`` is a cheap pre-check (non-finite whenever a component is;
    opposite-sign infinities collapse to nan); the exact per-component test
    runs only when it trips, so a finite sum that merely overflows is not
    misreported.  Only the finiteness of ``sum`` is read - its rounding
    (compensated since Python 3.12) never reaches a result.
    """
    return math.isfinite(sum(x)) or all(map(math.isfinite, x))


def _float_solution(
    name: str,
    grid: np.ndarray,
    times: List[float],
    states: List[List[float]],
    n_rhs_evals: int,
    n_steps: int,
    n_rejected: int = 0,
) -> "OdeSolution":
    """A scalar loop's recorded float lists, resampled onto ``grid``."""
    stats = dict(
        n_rhs_evals=n_rhs_evals, n_steps=n_steps, n_rejected=n_rejected, solver_name=name
    )
    dense = OdeSolution(times=times, states=np.array(states, dtype=float), **stats)
    return OdeSolution(times=grid, states=dense.sample(grid), **stats)


def _fixed_steps(t0: float, t1: float, h: float) -> Tuple[List[float], List[float]]:
    """The times and step sizes of a fixed-step loop over ``[t0, t1]``.

    ``t`` advances by ``min(h, t1 - t)`` while ``t < t1 - 1e-15``, with
    the arithmetic the fixed-step solvers used inline, so a batched loop
    knows its step count up front.  Returns ``(times, steps)``:
    ``times[0] == t0`` and ``times[n] == times[n - 1] + steps[n - 1]``.
    """
    times, steps = [t0], []
    t = t0
    while t < t1 - 1e-15:
        h_eff = min(h, t1 - t)
        t = t + h_eff
        times.append(t)
        steps.append(h_eff)
    return times, steps


def _sample_inputs(problem: "BatchOdeProblem", times: Sequence[float]) -> np.ndarray:
    """The ``(T, N, n_u)`` input matrices of a fixed-step fleet at ``times``.

    Sampled once, before the step loop, which then indexes one matrix per
    stage.  Input-less problems get an empty ``(T, N, 0)`` array.  A plain
    ``inputs`` callable may reuse one buffer across calls, so each matrix
    it returns is copied.
    """
    inputs = problem.inputs
    if inputs is None:
        return np.empty((len(times), problem.n_rows, 0))
    sample = getattr(inputs, "sample", None)
    if sample is not None:
        return sample(np.asarray(times, dtype=float))
    return np.array([np.array(inputs(t), dtype=float) for t in times])


def _sample_shared(grid: np.ndarray, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Interpolate an ``(n, N, d)`` trajectory on shared ``times`` onto ``grid``.

    The fixed-step batch solvers record every row at the same times; each
    row is interpolated with ``np.interp`` as :meth:`OdeSolution.sample`
    does for a scalar solve, so it samples bit-identically to one.
    """
    grid = np.asarray(grid, dtype=float)
    n_rows, n_states = states.shape[1], states.shape[2]
    sampled = np.empty((grid.size, n_rows, n_states))
    for row in range(n_rows):
        for j in range(n_states):
            sampled[:, row, j] = np.interp(grid, times, states[:, row, j])
    return sampled


class OdeSolver:
    """Base class for ODE solvers.

    Subclasses implement :meth:`solve`, set :attr:`name`, and, if they step
    at a fixed size, implement :meth:`solve_batch`.  Construction options
    common to all solvers are the output grid control parameters.
    """

    name = "base"
    #: Whether the solver picks its step sizes from a per-solve error
    #: estimate.  The rows of an adaptive fleet take different steps, so the
    #: FMI runtime solves them one by one; a fixed-step solver steps a whole
    #: fleet at once through :meth:`solve_batch`.  The retry ladder also
    #: reads it (:mod:`repro.solvers.retry`).
    adaptive = False

    def __init__(self, max_step: Optional[float] = None):
        self.max_step = max_step

    def solve(self, problem: OdeProblem, output_times: Optional[Sequence[float]] = None) -> OdeSolution:
        """Integrate ``problem`` and return a dense :class:`OdeSolution`.

        Parameters
        ----------
        problem:
            The initial value problem to integrate.
        output_times:
            Optional monotone sequence of times at which the solution must be
            reported.  Solvers always include ``t0`` and ``t1``.
        """
        raise NotImplementedError

    def solve_batch(
        self,
        problem: BatchOdeProblem,
        output_times: Optional[Sequence[float]] = None,
    ) -> BatchOdeSolution:
        """Integrate a fleet problem and return a :class:`BatchOdeSolution`.

        Parameters are as for :meth:`solve`; the fixed-step solvers
        override this with matrix stepping over the ``(N, d)`` fleet.
        """
        raise NotImplementedError

    def _normalized_output_times(
        self, problem: OdeProblem, output_times: Optional[Sequence[float]]
    ) -> np.ndarray:
        """Validate and normalize the requested output grid."""
        if output_times is None:
            return np.array([problem.t0, problem.t1])
        grid = np.asarray(list(output_times), dtype=float)
        if grid.size == 0:
            return np.array([problem.t0, problem.t1])
        if np.any(np.diff(grid) < 0):
            raise SolverError("output_times must be non-decreasing")
        if grid[0] > problem.t0:
            grid = np.concatenate(([problem.t0], grid))
        if grid[-1] < problem.t1:
            grid = np.concatenate((grid, [problem.t1]))
        return np.clip(grid, problem.t0, problem.t1)


def solve_ode(
    rhs: RhsFunction,
    x0,
    t0: float,
    t1: float,
    inputs: Optional[InputFunction] = None,
    solver: str = "rk45",
    output_times: Optional[Sequence[float]] = None,
    **options,
) -> OdeSolution:
    """Convenience wrapper: build an :class:`OdeProblem` and solve it.

    This is the entry point used by the FMI runtime and by tests that need a
    one-line integration call.
    """
    from repro.solvers import get_solver

    problem = OdeProblem(rhs=rhs, x0=x0, t0=t0, t1=t1, inputs=inputs)
    return get_solver(solver, **options).solve(problem, output_times=output_times)
