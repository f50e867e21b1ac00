"""Common solver abstractions: problem description, solution containers, base class.

Two problem shapes are supported:

* :class:`OdeProblem` - one instance, state vector ``x`` of length ``d``,
  solved by :meth:`OdeSolver.solve`.
* :class:`BatchOdeProblem` - a *fleet* of ``N`` instances stacked into an
  ``(N, d)`` state matrix sharing one integration window, solved by
  :meth:`OdeSolver.solve_batch`.  The right-hand side is evaluated once per
  step for the whole fleet (one numpy-vectorized call instead of ``N``
  scalar ones); each concrete solver implements ``solve_batch`` with
  matrix stepping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

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
#: Batched right-hand side ``F(t, X, U) -> (N, d)``; ``t`` is a scalar shared
#: by all rows or an ``(N,)`` per-row time vector.
BatchRhsFunction = Callable[[object, np.ndarray, np.ndarray], np.ndarray]
#: Batched input function ``U(t) -> (N, n_u)`` under the same time contract.
BatchInputFunction = Callable[[object], np.ndarray]
#: Row-restriction factory: given the original row indices to keep, return
#: ``(rhs, inputs)`` callables bound to just those rows (``inputs`` may be
#: ``None``).  Lets adaptive batch solvers drop finished rows from the
#: working set instead of evaluating and discarding them.
RestrictFunction = Callable[[np.ndarray], Tuple[BatchRhsFunction, Optional[BatchInputFunction]]]


@dataclass
class OdeProblem:
    """An initial value problem ``x' = f(t, x, u(t))`` on ``[t0, t1]``.

    Attributes
    ----------
    rhs:
        Right-hand side callable ``f(t, x, u) -> dx/dt``.
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
        state matrix.  ``t`` is a scalar when all rows are at the same time
        (fixed-step solvers) or an ``(N,)`` vector when rows advance
        independently (adaptive solvers).
    x0:
        ``(N, d)`` matrix of initial states.
    t0, t1:
        Shared integration interval; ``t1`` must be strictly greater.
    inputs:
        Optional callable mapping time (same scalar-or-vector contract as
        ``rhs``) to the ``(N, n_u)`` input matrix.  When omitted an empty
        ``(N, 0)`` matrix is passed to ``rhs``.
    restrict:
        Optional row-restriction factory ``restrict(rows) -> (rhs, inputs)``
        returning the right-hand side and input function bound to the given
        subset of fleet rows (original indices, in ascending order).  The
        batched ``rhs``/``inputs`` close over per-row data (parameter
        matrices, start values) at full fleet width, so the solver cannot
        narrow them itself; problems that supply this hook let the adaptive
        batch solver *compact its active set* - once rows reach ``t1`` they
        are dropped from the working matrices and the right-hand side is
        re-bound to the survivors, so a few stiff rows stop paying for the
        whole fleet.  Restriction must not change the arithmetic of the
        kept rows (the kernels are elementwise over rows, so slicing is
        bit-exact).  Without the hook, solvers evaluate at full width and
        discard finished rows' results, as before.
    """

    rhs: BatchRhsFunction
    x0: np.ndarray
    t0: float
    t1: float
    inputs: Optional[BatchInputFunction] = None
    restrict: Optional[RestrictFunction] = None

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

    Step statistics are per-row arrays (each row of an adaptive solve
    accepts/rejects its own steps); ``n_rhs_evals`` counts *vectorized*
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


def _stage_function(problem: "OdeProblem"):
    """The solver-facing right-hand side: inputs resolved, result coerced.

    Hoists the per-step overheads out of the stage evaluation: input-less
    problems share one empty input vector, and the float-vector coercion is
    skipped when the rhs already returns a 1-D float array (the compiled
    kernel path always does).
    """
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


def _batch_stage_function(problem: "BatchOdeProblem", rows: Optional[np.ndarray] = None):
    """The solver-facing batched right-hand side with inputs resolved.

    Mirrors :func:`_stage_function` for the fleet case: input-less problems
    share one empty ``(N, 0)`` matrix, and ``t`` passes through under the
    scalar-or-vector contract of :class:`BatchOdeProblem`.  When ``rows`` is
    given, the problem's :attr:`~BatchOdeProblem.restrict` hook binds the
    right-hand side and inputs to just those fleet rows (active-set
    compaction in the adaptive batch solvers).
    """
    if rows is None:
        rhs, inputs = problem.rhs, problem.inputs
        n_rows = problem.n_rows
    else:
        if problem.restrict is None:
            raise SolverError("this batch problem does not support row restriction")
        rhs, inputs = problem.restrict(np.asarray(rows, dtype=np.intp))
        n_rows = len(rows)
    if inputs is None:
        empty_u = np.empty((n_rows, 0))

        def f(t, X):
            return rhs(t, X, empty_u)

    else:

        def f(t, X):
            return rhs(t, X, inputs(t))

    return f


class TrajectoryRecorder:
    """Preallocated, geometrically grown storage for solver main loops.

    Replaces the per-step ``times.append(t); states.append(x.copy())`` lists:
    values are written into contiguous numpy buffers that double in size when
    full, so a solve costs O(log n) allocations instead of one per step.
    """

    __slots__ = ("_times", "_states", "_count")

    def __init__(self, n_states: int, capacity: int = 512):
        capacity = max(2, int(capacity))
        self._times = np.empty(capacity)
        self._states = np.empty((capacity, int(n_states)))
        self._count = 0

    def append(self, t: float, x: np.ndarray) -> None:
        n = self._count
        if n == self._times.shape[0]:
            grown_times = np.empty(2 * n)
            grown_times[:n] = self._times
            self._times = grown_times
            grown_states = np.empty((2 * n, self._states.shape[1]))
            grown_states[:n] = self._states
            self._states = grown_states
        self._times[n] = t
        self._states[n] = x
        self._count = n + 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The recorded ``(times, states)`` trimmed to the written length."""
        return self._times[: self._count], self._states[: self._count]


class BatchTrajectoryRecorder:
    """Per-row trajectory storage for batched solver main loops.

    Fixed-step solvers append the same time for every row
    (:meth:`append_all`); adaptive solvers scatter accepted steps into the
    rows that accepted them (:meth:`append_rows`), so rows grow at their own
    pace.  Buffers double in size when the fullest row reaches capacity.
    """

    __slots__ = ("_times", "_states", "_counts")

    def __init__(self, n_rows: int, n_states: int, capacity: int = 512):
        capacity = max(2, int(capacity))
        self._times = np.empty((capacity, int(n_rows)))
        self._states = np.empty((capacity, int(n_rows), int(n_states)))
        self._counts = np.zeros(int(n_rows), dtype=np.intp)

    def _grow_if_full(self) -> None:
        capacity = self._times.shape[0]
        if int(self._counts.max(initial=0)) < capacity:
            return
        grown_times = np.empty((2 * capacity,) + self._times.shape[1:])
        grown_times[:capacity] = self._times
        self._times = grown_times
        grown_states = np.empty((2 * capacity,) + self._states.shape[1:])
        grown_states[:capacity] = self._states
        self._states = grown_states

    def append_all(self, t: float, X: np.ndarray) -> None:
        """Record time ``t`` and the ``(N, d)`` state matrix for every row."""
        self._grow_if_full()
        counts = self._counts
        n = int(counts[0])
        if (counts == n).all():
            self._times[n] = t
            self._states[n] = X
        else:
            # Rows have diverged (append_rows was used); scatter at each
            # row's own position instead of clobbering row 0's.
            rows = np.arange(counts.shape[0])
            self._times[counts, rows] = t
            self._states[counts, rows] = X
        self._counts += 1

    def append_rows(self, rows: np.ndarray, t_rows: np.ndarray, x_rows: np.ndarray) -> None:
        """Scatter accepted steps: ``t_rows``/``x_rows`` align with ``rows``."""
        if rows.size == 0:
            return
        self._grow_if_full()
        positions = self._counts[rows]
        self._times[positions, rows] = t_rows
        self._states[positions, rows] = x_rows
        self._counts[rows] += 1

    @property
    def counts(self) -> np.ndarray:
        """Number of recorded points per row."""
        return self._counts

    def sample(self, grid: np.ndarray) -> np.ndarray:
        """Interpolate every row's trajectory onto ``grid`` as ``(n, N, d)``.

        Each row is interpolated over its own recorded times with
        ``np.interp`` (clamping outside the solved interval), exactly as
        :meth:`OdeSolution.sample` does for a scalar solve - so a batched
        row samples bit-identically to the sequential solve that recorded
        the same points.
        """
        grid = np.asarray(grid, dtype=float)
        n_rows, n_states = self._states.shape[1], self._states.shape[2]
        sampled = np.empty((grid.size, n_rows, n_states))
        for row in range(n_rows):
            count = int(self._counts[row])
            row_times = self._times[:count, row]
            for j in range(n_states):
                sampled[:, row, j] = np.interp(grid, row_times, self._states[:count, row, j])
        return sampled


class OdeSolver:
    """Base class for ODE solvers.

    Subclasses implement :meth:`solve` and :meth:`solve_batch` and set
    :attr:`name`.  Construction
    options common to all solvers are the output grid control parameters.
    """

    name = "base"

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

        Parameters are as for :meth:`solve`; every registered solver
        overrides this with matrix stepping over the ``(N, d)`` fleet.
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
