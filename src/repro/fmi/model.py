"""FMU runtime model: instantiate, set/get variables, simulate.

:class:`FmuModel` mirrors the part of PyFMI's ``FMUModelCS2``/``FMUModelME2``
surface that pgFMU uses: loading an FMU, listing model variables, reading and
writing start values, and simulating with externally supplied input time
series.
"""

from __future__ import annotations

import bisect
from collections import abc
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.cancellation import check_active
from repro.errors import FmuStateError, FmuVariableError, SimulationInputError
from repro.fmi.archive import FmuArchive, read_fmu
from repro.fmi.dynamics import OdeSystem
from repro.fmi.model_description import ModelDescription
from repro.fmi.results import SimulationResult
from repro.fmi.variables import Causality, ScalarVariable
from repro.solvers import get_solver
from repro.solvers.base import BatchOdeProblem, OdeProblem

PathLike = Union[str, Path]

#: An input series is a pair of equal-length sequences (times, values).
InputSeries = Tuple[Sequence[float], Sequence[float]]


class _InputInterpolator:
    """Piecewise-linear interpolation of named input time series."""

    def __init__(self, series: Mapping[str, InputSeries]):
        self._series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, (times, values) in series.items():
            t = np.asarray(list(times), dtype=float)
            v = np.asarray(list(values), dtype=float)
            if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
                raise SimulationInputError(
                    f"input series for {name!r} must be two equal-length 1-D sequences"
                )
            if len(t) == 0:
                raise SimulationInputError(f"input series for {name!r} is empty")
            if np.any(np.diff(t) < 0):
                order = np.argsort(t, kind="stable")
                t, v = t[order], v[order]
            self._series[name] = (t, v)

    def names(self) -> Iterable[str]:
        return self._series.keys()

    def time_span(self) -> Optional[Tuple[float, float]]:
        """Overall (min, max) time covered by the supplied series, if any."""
        if not self._series:
            return None
        starts = [t[0] for t, _ in self._series.values()]
        ends = [t[-1] for t, _ in self._series.values()]
        return min(starts), max(ends)

    def __call__(self, t: float) -> Dict[str, float]:
        values = {}
        for name, (times, series) in self._series.items():
            values[name] = float(np.interp(t, times, series))
        return values


class _KernelBindings:
    """Inputs and parameters bound once per ``simulate`` call into the
    compiled kernel's positional layout.

    The solver's right-hand side then only performs a clamped piecewise-linear
    interpolation per bound series (plain-Python ``bisect``, which is much
    cheaper per step than a ``np.interp`` scalar call) and a single kernel
    invocation - no namespace dict, no per-step rebinding.
    """

    __slots__ = ("u", "series")

    def __init__(self, kernel, interp: _InputInterpolator, input_starts: Mapping[str, float]):
        # Constant start values fill the slots; measured series override them.
        self.u: List[float] = [
            float(input_starts.get(name, 0.0)) for name in kernel.input_names
        ]
        self.series: List[tuple] = []
        for slot, name in enumerate(kernel.input_names):
            pair = interp._series.get(name)
            if pair is not None:
                times, values = pair
                self.series.append((slot, times.tolist(), values.tolist(), times, values))

    def input_at(self, t: float) -> List[float]:
        """The input vector at time ``t`` (clamped like ``np.interp``)."""
        u = self.u
        for slot, times, values, _, _ in self.series:
            if t <= times[0]:
                u[slot] = values[0]
            elif t >= times[-1]:
                u[slot] = values[-1]
            else:
                i = bisect.bisect_right(times, t)
                t_lo, t_hi = times[i - 1], times[i]
                # Slope-first form: the exact floating-point operation order
                # of np.interp, so the kernel sees bit-identical input values
                # to an np.interp-driven interpreted reference run.
                slope = (values[i] - values[i - 1]) / (t_hi - t_lo)
                u[slot] = slope * (t - t_lo) + values[i - 1]
        return u

    def input_matrix(self, times: np.ndarray) -> np.ndarray:
        """The (n_times, n_inputs) input trajectory for vectorized outputs."""
        matrix = np.empty((len(times), len(self.u)))
        for slot, value in enumerate(self.u):
            matrix[:, slot] = value
        for slot, _, _, series_times, series_values in self.series:
            matrix[:, slot] = np.interp(times, series_times, series_values)
        return matrix


class _BoundSeries:
    """One measured input of a batched fleet on its shared knot grid.

    ``values``/``slopes`` hold one column per fleet column (one shared
    column, or one per row), with flat views for the per-row-time path;
    the knots and interval starts are also kept as lists, which the
    scalar-time path bisects and reads faster.  Entry ``i`` serves bisect
    index ``i``: the interval starting at knot ``i - 1``, plus the two
    clamps, whose signed-zero slopes (``0.0 * (t - t0) <= 0`` before the
    first knot, ``-0.0 * (t - t_end) >= 0`` after the last) leave the
    clamped value unchanged when added to it.
    """

    __slots__ = (
        "slot", "name", "knot_list", "knots", "start_list", "starts",
        "values", "slopes", "flat_values", "flat_slopes",
    )

    def __init__(self, slot: int, name: str, knots: np.ndarray, values: np.ndarray):
        self.slot = slot
        self.name = name
        self.knots = knots
        self.knot_list = knots.tolist()
        self.starts = np.concatenate([knots[:1], knots])
        self.start_list = self.starts.tolist()
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.diff(values, axis=0) / np.diff(knots)[:, None]
        zero = np.zeros((1, values.shape[1]))
        self._set(np.vstack([values[:1], values]), np.vstack([zero, slopes, -zero]))

    def _set(self, values: np.ndarray, slopes: np.ndarray) -> None:
        self.values, self.slopes = values, slopes
        self.flat_values, self.flat_slopes = values.ravel(), slopes.ravel()

    def columns(self, rows: np.ndarray) -> "_BoundSeries":
        """This series restricted to the given per-row columns."""
        sub = object.__new__(_BoundSeries)
        for name in ("slot", "name", "knot_list", "knots", "start_list", "starts"):
            setattr(sub, name, getattr(self, name))
        sub._set(np.ascontiguousarray(self.values[:, rows]),
                 np.ascontiguousarray(self.slopes[:, rows]))
        return sub


class _BatchKernelBindings:
    """Fleet inputs bound once per ``simulate_batch`` call.

    The measured series share one knot grid.  A fleet that shares one input
    mapping stores each series as a single column that broadcasts to every
    row; per-row mappings store one column per row (``cols`` maps each row
    to its mapping).  Per-instance input *start* values fill the unbound
    columns, one row per instance.  ``inputs_at`` follows the
    :class:`~repro.solvers.base.BatchOdeProblem` time contract: a scalar
    time fills each bound column from one knot interval, an ``(N,)``
    per-row time vector interpolates each row at its own time.

    There is one interpolation path: a bisect on the shared knot times, then
    a row-vector lerp in ``np.interp``'s operation order (slope first, then
    ``slope * (t - t_lo) + v_lo``, the slopes precomputed by the same two
    operations), so each row sees the input values of
    :meth:`_KernelBindings.input_at`, the scalar path's interpolation.  A
    per-row time outside the knots clamps through the clamp entries of
    :class:`_BoundSeries`; one exactly on the first knot takes the first
    interval, which agrees with the clamp unless that interval's slope is
    not finite.
    """

    __slots__ = ("base", "series", "_width", "_rows", "_buffer", "_columns", "_last_t")

    def __init__(
        self,
        kernel,
        interps: Sequence[_InputInterpolator],
        cols: np.ndarray,
        input_starts_per_row,
    ):
        n_rows = len(input_starts_per_row)
        self.base = np.empty((n_rows, kernel.n_inputs))
        for slot, name in enumerate(kernel.input_names):
            for row, starts in enumerate(input_starts_per_row):
                self.base[row, slot] = float(starts.get(name, 0.0))
        per_row = len(interps) > 1
        self.series: List[_BoundSeries] = []
        for slot, name in enumerate(kernel.input_names):
            pair = interps[0]._series.get(name)
            if pair is None:
                continue
            values = np.column_stack([interp._series[name][1] for interp in interps])
            self.series.append(
                _BoundSeries(slot, name, pair[0], values[:, cols] if per_row else values)
            )
        self._set_rows(n_rows if per_row else 1, n_rows)

    def _set_rows(self, width: int, n_rows: int) -> None:
        # ``width`` series columns: 1 (shared) or one per row.
        self._width = width
        self._rows = np.arange(n_rows)
        # One reusable (N, n_inputs) buffer: the kernel consumes the values
        # within the same rhs call, so per-stage reuse is safe.  The scalar
        # path writes each bound column in place through a view, and skips
        # a time it has just filled (RK4 evaluates both midpoint stages,
        # and each step's end and the next step's start, at one time).
        self._buffer = self.base.copy()
        self._columns = [self._buffer[:, series.slot] for series in self.series]
        self._last_t = None

    def inputs_at(self, t) -> np.ndarray:
        """The ``(N, n_inputs)`` input matrix at time ``t`` (scalar or per-row)."""
        if not isinstance(t, np.ndarray):
            if t == self._last_t:
                return self._buffer
            self._last_t = t
            for column, series in zip(self._columns, self.series):
                knots = series.knot_list
                if t <= knots[0]:
                    column[:] = series.values[0]
                elif t >= knots[-1]:
                    column[:] = series.values[-1]
                else:
                    i = bisect.bisect_right(knots, t)
                    np.multiply(series.slopes[i], t - series.start_list[i], out=column)
                    column += series.values[i]
            return self._buffer
        self._last_t = None
        u = self._buffer
        for series in self.series:
            i = np.searchsorted(series.knots, t, side="right")
            at = i if self._width == 1 else i * self._width + self._rows
            u[:, series.slot] = (
                series.flat_slopes[at] * (t - series.starts[i]) + series.flat_values[at]
            )
        return u

    def restricted(self, rows: np.ndarray) -> "_BatchKernelBindings":
        """Bindings for a subset of the fleet's rows (active-set compaction).

        Restriction narrows the per-row start values and per-row series
        columns; interpolation stays elementwise and therefore bit-identical
        for the kept rows.
        """
        sub = object.__new__(_BatchKernelBindings)
        sub.base = self.base[rows]
        if self._width == 1:
            sub.series = self.series
            sub._set_rows(1, len(rows))
        else:
            sub.series = [series.columns(rows) for series in self.series]
            sub._set_rows(len(rows), len(rows))
        return sub

    def input_tensor(self, grid: np.ndarray, sampled: Mapping[str, np.ndarray]) -> np.ndarray:
        """The ``(N, n_grid, n_inputs)`` input trajectories for vectorized outputs.

        ``sampled`` holds each measured series on ``grid``, one row per
        fleet row.
        """
        tensor = np.repeat(self.base[:, None, :], len(grid), axis=1)
        for series in self.series:
            tensor[:, :, series.slot] = sampled[series.name]
        return tensor


class FmuModel:
    """A loaded, instantiable FMU.

    Parameters
    ----------
    archive:
        The parsed :class:`FmuArchive`.
    instance_name:
        Optional instance label (mirrors the FMI ``instantiate`` argument).
    """

    def __init__(self, archive: FmuArchive, instance_name: Optional[str] = None):
        self._archive = archive
        self.instance_name = instance_name or archive.model_name
        self._parameter_values: Dict[str, float] = {}
        self._state_starts: Dict[str, float] = {}
        self._input_starts: Dict[str, float] = {}
        self._instantiated = True
        self.reset()

    # ------------------------------------------------------------------ #
    # Metadata access
    # ------------------------------------------------------------------ #
    @property
    def archive(self) -> FmuArchive:
        return self._archive

    @property
    def model_description(self) -> ModelDescription:
        return self._archive.model_description

    @property
    def ode_system(self) -> OdeSystem:
        return self._archive.ode_system

    @property
    def guid(self) -> str:
        return self._archive.guid

    @property
    def model_name(self) -> str:
        return self._archive.model_name

    def get_model_variables(self) -> Dict[str, ScalarVariable]:
        """All scalar variables keyed by name (PyFMI-compatible shape)."""
        return {v.name: v for v in self.model_description.variables}

    def parameter_names(self) -> list:
        """Names of estimable parameters (causality ``parameter``)."""
        return [v.name for v in self.model_description.parameters]

    def input_names(self) -> list:
        return [v.name for v in self.model_description.inputs]

    def output_names(self) -> list:
        return [v.name for v in self.model_description.outputs]

    def state_names(self) -> list:
        return list(self.ode_system.state_names)

    # ------------------------------------------------------------------ #
    # Value access
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Restore all start values from the model description."""
        self._parameter_values = dict(self.ode_system.parameters)
        for var in self.model_description.parameters:
            if var.start is not None:
                self._parameter_values[var.name] = float(var.start)
        self._state_starts = {s.name: float(s.start) for s in self.ode_system.states}
        for var in self.model_description.variables:
            if var.is_state and var.start is not None:
                self._state_starts[var.name] = float(var.start)
        self._input_starts = {
            v.name: float(v.start) if v.start is not None else 0.0
            for v in self.model_description.inputs
        }

    def get(self, name: str) -> float:
        """Read the current start/parameter value of a variable."""
        if name in self._parameter_values:
            return self._parameter_values[name]
        if name in self._state_starts:
            return self._state_starts[name]
        if name in self._input_starts:
            return self._input_starts[name]
        var = self.model_description.variable(name)
        if var.start is None:
            raise FmuVariableError(f"variable {name!r} has no start value to read")
        return float(var.start)

    def set(self, name: str, value: float) -> None:
        """Set a parameter, state start value, or input start value."""
        var = self.model_description.variable(name)
        value = float(value)
        if var.is_parameter:
            self._parameter_values[name] = value
        elif var.is_input:
            self._input_starts[name] = value
        elif name in self._state_starts or var.is_state:
            self._state_starts[name] = value
        else:
            raise FmuStateError(
                f"variable {name!r} has causality {var.causality.value!r} and "
                "cannot be assigned a value"
            )

    def set_many(self, values: Mapping[str, float]) -> None:
        """Set several variables at once."""
        for name, value in values.items():
            self.set(name, value)

    def parameters(self) -> Dict[str, float]:
        """Snapshot of current parameter values."""
        return dict(self._parameter_values)

    def clone(self, instance_name: Optional[str] = None) -> "FmuModel":
        """A new instance of the same archive carrying this instance's
        current parameter, state-start and input-start values.

        Cloning shares the archive (and therefore the compiled kernel) -
        only the per-instance value dictionaries are copied.  The
        estimation layer uses this to stage a whole population of candidate
        parameter vectors as a fleet for :meth:`simulate_batch`.
        """
        # Built without __init__: its reset() would fill value dictionaries
        # that are replaced right away.
        twin = object.__new__(FmuModel)
        twin._archive = self._archive
        twin.instance_name = instance_name or self.instance_name
        twin._parameter_values = dict(self._parameter_values)
        twin._state_starts = dict(self._state_starts)
        twin._input_starts = dict(self._input_starts)
        twin._instantiated = True
        return twin

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        inputs: Optional[Mapping[str, InputSeries]] = None,
        start_time: Optional[float] = None,
        stop_time: Optional[float] = None,
        output_step: Optional[float] = None,
        output_times: Optional[Sequence[float]] = None,
        solver: str = "rk45",
        solver_options: Optional[dict] = None,
    ) -> SimulationResult:
        """Simulate the model and return trajectories of states and outputs.

        Parameters
        ----------
        inputs:
            Mapping from input variable name to ``(times, values)`` series.
            Missing inputs default to their start value, held constant.
        start_time / stop_time:
            Simulation window.  Defaults come from the supplied input series
            when present, otherwise from the FMU's default experiment.
        output_step:
            Spacing of the reported output grid; defaults to the default
            experiment step size or 1/100 of the window.
        output_times:
            Explicit output grid (overrides ``output_step``).
        solver / solver_options:
            Solver registry name and constructor options.
        """
        if not self._instantiated:
            raise FmuStateError("the FMU instance has been terminated")
        check_active()

        interp = self._build_interpolator(inputs or {})
        t0, t1 = self._resolve_window(interp, start_time, stop_time)
        grid = self._resolve_grid(t0, t1, output_step, output_times)

        system = self.ode_system
        kernel = system.kernel
        # Inputs and parameters are bound to the kernel's positional layout
        # once per call, not once per step.
        bindings = _KernelBindings(kernel, interp, self._input_starts)
        p = kernel.parameter_vector(self._parameter_values)
        n_states = kernel.n_states
        kernel_derivs = kernel._derivs
        input_at = bindings.input_at

        def rhs(t, x, _u):
            try:
                return kernel_derivs(t, x, input_at(t), p, np.empty(n_states))
            except ZeroDivisionError:
                raise kernel.division_error() from None

        injector = faults.active_injector()
        if injector is not None:
            # Chaos mode only: route every rhs evaluation through the
            # ``kernel.eval`` fault point (zero cost when no injector is
            # installed - this wrapper does not exist).
            inner_rhs = rhs

            def rhs(t, x, _u):  # noqa: F811 - deliberate chaos-mode shadow
                injector.check_point("kernel.eval")
                return inner_rhs(t, x, _u)

        x0 = np.array(
            [self._state_starts[name] for name in system.state_names], dtype=float
        )
        problem = OdeProblem(rhs=rhs, x0=x0, t0=t0, t1=t1)
        options = dict(solver_options or {})
        solution = get_solver(solver, **options).solve(problem, output_times=grid)

        trajectories: Dict[str, np.ndarray] = {}
        for i, name in enumerate(system.state_names):
            trajectories[name] = solution.states[:, i]
        # Output equations evaluated over the whole trajectory in one
        # vectorized pass: the fleet output kernel with a single row.
        (outputs,) = kernel.outputs_batch(
            solution.times,
            solution.states[None],
            bindings.input_matrix(solution.times)[None],
            np.array([p], dtype=float),
        )
        trajectories.update(outputs)
        for name in interp.names():
            series_times, series_values = interp._series[name]
            trajectories[name] = np.interp(solution.times, series_times, series_values)

        return SimulationResult(
            time=solution.times,
            trajectories=trajectories,
            solver_stats={
                "solver": solution.solver_name,
                "n_rhs_evals": solution.n_rhs_evals,
                "n_steps": solution.n_steps,
                "n_rejected": solution.n_rejected,
            },
        )

    @staticmethod
    def simulate_batch(
        models: Sequence["FmuModel"],
        inputs: Union[None, Mapping[str, InputSeries], Sequence[Mapping[str, InputSeries]]] = None,
        start_time: Optional[float] = None,
        stop_time: Optional[float] = None,
        output_times: Optional[Sequence[float]] = None,
        solver: str = "rk45",
        solver_options: Optional[dict] = None,
    ) -> List[SimulationResult]:
        """Simulate a fleet of instances of **one** model in a single batched pass.

        All ``models`` must wrap the same FMU archive (they are the fleet's
        instances: same equations, per-instance parameter/start values) and
        share the simulation window.  ``inputs`` is either one mapping the
        whole fleet shares or one mapping per model; per-model mappings
        must name the same inputs on the same knot times, and may differ in
        their values (e.g. each instance's own measured series).  The
        fleet's states are stacked into an ``(N, d)`` matrix and integrated
        through one numpy-vectorized right-hand side
        (:meth:`~repro.fmi.kernel.SimulationKernel.derivs_batch` via
        :meth:`~repro.solvers.base.OdeSolver.solve_batch`): parameters are
        bound once per call as an ``(N, n_p)`` matrix and output equations
        are evaluated vectorized over the whole fleet x grid.

        Results are returned in ``models`` order and agree with per-instance
        :meth:`simulate` calls to floating-point rounding (the adaptive RK45
        batch solver controls errors per row, so every row walks the same
        step sequence the sequential solver would).

        ``output_times`` defaults to the grid :meth:`simulate` uses.  A
        batched integration that fails mid-flight raises the solver's
        :class:`~repro.errors.SolverError`, whose divergence and step-limit
        messages name the failing rows.  Callers decide how to recover: the
        simulator reruns the fleet instance by instance, the calibration
        objective bisects its population.
        """
        models = list(models)
        if not models:
            return []
        lead = models[0]
        for model in models:
            if model._archive.guid != lead._archive.guid:
                raise SimulationInputError(
                    "simulate_batch requires instances of one model; got "
                    f"{model.model_name!r} (guid {model.guid!r}) alongside "
                    f"{lead.model_name!r} (guid {lead.guid!r})"
                )
            if not model._instantiated:
                raise FmuStateError("the FMU instance has been terminated")

        check_active()
        interps, cols = lead._build_row_interpolators(inputs, len(models))
        t0, t1 = lead._resolve_window(interps[0], start_time, stop_time)
        grid = lead._resolve_grid(t0, t1, None, output_times)

        system = lead.ode_system
        kernel = system.kernel
        # Bind the whole fleet once: per-row parameter matrix, per-row input
        # start values overlaid with the measured series, stacked initial
        # states.
        bindings = _BatchKernelBindings(
            kernel, interps, cols, [model._input_starts for model in models]
        )
        P = kernel.parameter_matrix([model._parameter_values for model in models])
        x0 = np.array(
            [
                [model._state_starts[name] for name in system.state_names]
                for model in models
            ],
            dtype=float,
        )
        kernel_derivs_batch = kernel._derivs_batch

        def rhs(t, X, U):
            try:
                return kernel_derivs_batch(t, X, U, P, np.empty_like(X))
            except ZeroDivisionError:
                raise kernel.division_error() from None

        injector = faults.active_injector()
        if injector is not None:
            inner_batch_rhs = rhs

            def rhs(t, X, U):  # noqa: F811 - deliberate chaos-mode shadow
                injector.check_point("kernel.eval")
                return inner_batch_rhs(t, X, U)

        def restrict(rows):
            # Active-set compaction support: the adaptive batch solver drops
            # finished rows, so the rhs/inputs must re-bind to the survivors
            # (row-sliced parameter matrix and start values; the kernel is
            # elementwise over rows, so the kept rows' values are bit-exact).
            P_rows = P[rows]
            sub_bindings = bindings.restricted(rows)

            def rhs_rows(t, X, U):
                try:
                    return kernel_derivs_batch(t, X, U, P_rows, np.empty_like(X))
                except ZeroDivisionError:
                    raise kernel.division_error() from None

            return rhs_rows, sub_bindings.inputs_at

        problem = BatchOdeProblem(
            rhs=rhs, x0=x0, t0=t0, t1=t1, inputs=bindings.inputs_at,
            restrict=restrict,
        )
        options = dict(solver_options or {})
        solution = get_solver(solver, **options).solve_batch(
            problem, output_times=grid
        )

        # Vectorized outputs over the whole fleet x grid in one pass.
        # Each measured series on the output grid, one row per input
        # mapping, sampled with np.interp as the scalar path samples it.
        measured = {
            name: np.array(
                [np.interp(solution.times, *interp._series[name]) for interp in interps]
            )[cols]
            for name in interps[0].names()
        }
        input_tensor = bindings.input_tensor(solution.times, measured)
        states = np.ascontiguousarray(solution.states.swapaxes(0, 1))
        output_rows = kernel.outputs_batch(solution.times, states, input_tensor, P)

        results: List[SimulationResult] = []
        for row, model in enumerate(models):
            trajectories: Dict[str, np.ndarray] = {}
            for j, name in enumerate(system.state_names):
                # Copy the column out of the (n, N, d) fleet tensor so one
                # retained result does not pin the whole fleet's solution.
                trajectories[name] = solution.states[:, row, j].copy()
            trajectories.update(output_rows[row])
            for name, columns in measured.items():
                trajectories[name] = columns[row].copy()
            results.append(
                SimulationResult(
                    time=solution.times,
                    trajectories=trajectories,
                    solver_stats={
                        "solver": solution.solver_name,
                        "n_rhs_evals": solution.n_rhs_evals,
                        "n_steps": int(solution.n_steps[row]),
                        "n_rejected": int(solution.n_rejected[row]),
                        "batched": True,
                        "fleet_size": len(models),
                    },
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _build_interpolator(self, inputs: Mapping[str, InputSeries]) -> _InputInterpolator:
        known_inputs = set(self.input_names())
        unknown = set(inputs) - known_inputs
        if unknown:
            raise SimulationInputError(
                f"model {self.model_name!r} has no input variables named: "
                + ", ".join(sorted(unknown))
            )
        return _InputInterpolator(inputs)

    def _build_row_interpolators(
        self, inputs, n_rows: int
    ) -> Tuple[List[_InputInterpolator], np.ndarray]:
        """Interpolators for ``simulate_batch``'s ``inputs`` and each row's index.

        A shared mapping (or none) gives one interpolator for every row.
        Per-row mappings give one interpolator per distinct mapping object
        (a calibration's candidate rows all pass the same one); they must
        bind the same input names on identical knot times, because the
        batched interpolation bisects one shared knot grid.
        """
        if inputs is None or isinstance(inputs, abc.Mapping):
            return [self._build_interpolator(inputs or {})], np.zeros(n_rows, dtype=np.intp)
        mappings = list(inputs)
        if len(mappings) != n_rows:
            raise SimulationInputError(
                f"simulate_batch got {len(mappings)} input mappings for {n_rows} models"
            )
        columns: Dict[int, int] = {}
        interps: List[_InputInterpolator] = []
        cols = np.empty(n_rows, dtype=np.intp)
        for row, mapping in enumerate(mappings):
            column = columns.get(id(mapping))
            if column is None:
                column = columns[id(mapping)] = len(interps)
                interps.append(self._build_interpolator(mapping or {}))
            cols[row] = column
        lead = interps[0]._series
        for interp in interps[1:]:
            if interp._series.keys() != lead.keys() or not all(
                np.array_equal(times, lead[name][0])
                for name, (times, _) in interp._series.items()
            ):
                raise SimulationInputError(
                    "per-model input mappings must bind the same inputs on the "
                    "same knot times"
                )
        return interps, cols

    def _resolve_window(
        self,
        interp: _InputInterpolator,
        start_time: Optional[float],
        stop_time: Optional[float],
    ) -> Tuple[float, float]:
        experiment = self.model_description.default_experiment
        span = interp.time_span()
        t0 = start_time if start_time is not None else (span[0] if span else experiment.start_time)
        t1 = stop_time if stop_time is not None else (span[1] if span else experiment.stop_time)
        t0, t1 = float(t0), float(t1)
        if t1 <= t0:
            raise SimulationInputError(
                f"invalid simulation window: stop_time {t1} must be greater than start_time {t0}"
            )
        return t0, t1

    def _resolve_grid(
        self,
        t0: float,
        t1: float,
        output_step: Optional[float],
        output_times: Optional[Sequence[float]],
    ) -> np.ndarray:
        if output_times is not None:
            grid = np.asarray(list(output_times), dtype=float)
            if grid.size == 0:
                raise SimulationInputError("output_times must not be empty")
            return grid
        step = output_step
        if step is None or step <= 0:
            default_step = self.model_description.default_experiment.step_size
            step = default_step if default_step and default_step > 0 else (t1 - t0) / 100.0
        n = max(2, int(round((t1 - t0) / step)) + 1)
        return np.linspace(t0, t1, n)

    def terminate(self) -> None:
        """Mark the instance as terminated (subsequent simulate calls fail)."""
        self._instantiated = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FmuModel(name={self.model_name!r}, guid={self.guid!r})"


def load_fmu(path_or_archive: Union[PathLike, FmuArchive], instance_name: Optional[str] = None) -> FmuModel:
    """Load an FMU file (or wrap an in-memory archive) into a runtime model.

    Mirrors PyFMI's ``load_fmu`` entry point.
    """
    if isinstance(path_or_archive, FmuArchive):
        return FmuModel(path_or_archive, instance_name=instance_name)
    return FmuModel(read_fmu(path_or_archive), instance_name=instance_name)
