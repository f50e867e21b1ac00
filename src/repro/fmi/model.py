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
from repro.fmi.variables import ScalarVariable
from repro.solvers import get_solver
from repro.solvers.base import BatchOdeProblem, OdeProblem, float_rhs

PathLike = Union[str, Path]

#: An input series is a pair of equal-length sequences (times, values).
InputSeries = Tuple[Sequence[float], Sequence[float]]


def _float_vector(values) -> np.ndarray:
    """``values`` as a float array; an ndarray is converted without a list."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=float)


class _InputInterpolator:
    """Piecewise-linear interpolation of named input time series."""

    def __init__(self, series: Mapping[str, InputSeries]):
        self._series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, (times, values) in series.items():
            t, v = _float_vector(times), _float_vector(values)
            if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
                raise SimulationInputError(
                    f"input series for {name!r} must be two equal-length 1-D sequences"
                )
            if len(t) == 0:
                raise SimulationInputError(f"input series for {name!r} is empty")
            if (t[1:] < t[:-1]).any():
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


def _fault_checked(rhs):
    """``rhs`` routed through the ``kernel.eval`` fault point in chaos mode.

    Without an installed injector ``rhs`` is returned as it is, so the
    check costs nothing per evaluation.
    """
    injector = faults.active_injector()
    if injector is None:
        return rhs

    def checked(*args):
        injector.check_point("kernel.eval")
        return rhs(*args)

    return checked


class _BoundSeries:
    """One measured input of a fleet on its shared knot grid.

    ``values`` holds one column per fleet column (one shared column, or
    one per fleet row) and ``slopes`` each knot interval's slope, computed
    by the two operations ``np.interp`` uses: the value difference, divided
    by the knot difference.  The knots are also kept as a list, which the
    scalar-time paths bisect.
    """

    __slots__ = ("slot", "name", "knots", "knot_list", "values", "slopes")

    def __init__(self, slot: int, name: str, knots: np.ndarray, values: np.ndarray):
        self.slot = slot
        self.name = name
        self.knots = knots
        self.knot_list = knots.tolist()
        self.values = values
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slopes = (values[1:] - values[:-1]) / (knots[1:] - knots[:-1])[:, None]

    def clamped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval starts, values and slopes for per-row times.

        Entry ``i`` serves ``searchsorted`` index ``i``: the interval
        starting at knot ``i - 1``, plus the two clamps, whose signed-zero
        slopes (``0.0 * (t - t0) <= 0`` before the first knot, ``-0.0 * (t -
        t_end) >= 0`` after the last) leave the clamped value unchanged when
        added to it.  Values and slopes are flattened, so fleet column ``c``
        of entry ``i`` is at ``i * n_columns + c``.
        """
        zero = np.zeros((1, self.values.shape[1]))
        starts = np.concatenate([self.knots[:1], self.knots])
        values = np.vstack([self.values[:1], self.values]).ravel()
        slopes = np.vstack([zero, self.slopes, -zero]).ravel()
        return starts, values, slopes


class _FleetBindings:
    """A fleet's inputs, bound once per simulation.

    The measured series share one knot grid.  A fleet that shares one input
    mapping stores each series as a single column that broadcasts to every
    row; per-row mappings store one column per row (``cols`` maps each row
    to its mapping).  Per-instance input *start* values fill the unbound
    columns, one row per instance.

    Every path interpolates in ``np.interp``'s operation order: a bisect on
    the shared knots, then ``slope * (t - t_lo) + v_lo`` with the slopes of
    :class:`_BoundSeries`, so each row of a fleet sees the input values of
    its one-row simulation.

    * :meth:`input_at` (one-row fleets) gives row 0's input vector as a
      float list, for the scalar float loop.
    * :meth:`inputs_at` (fleets of two or more rows) follows the
      :class:`~repro.solvers.base.BatchOdeProblem` time contract: a scalar
      time fills each bound column from one knot interval, an ``(N,)``
      per-row time vector interpolates each row at its own time.  A per-row
      time outside the knots clamps through :meth:`_BoundSeries.clamped`;
      one exactly on the first knot takes the first interval, which agrees
      with the clamp unless that interval's slope is not finite.

    Both reuse one buffer, which the kernel consumes within the same rhs
    call, and skip a time they have just filled (RK4 evaluates both
    midpoint stages, and each step's end and the next step's start, at one
    time).
    """

    __slots__ = (
        "base", "series", "_last_t", "_u", "_row", "_buffer", "_columns",
        "_clamped", "_width", "_rows",
    )

    def __init__(
        self,
        kernel,
        interps: Sequence[_InputInterpolator],
        cols: List[int],
        input_starts_per_row,
    ):
        n_rows = len(input_starts_per_row)
        rows = [
            [float(starts.get(name, 0.0)) for name in kernel.input_names]
            for starts in input_starts_per_row
        ]
        self.base = np.array(rows).reshape(n_rows, kernel.n_inputs)
        per_row = len(interps) > 1
        self.series: List[_BoundSeries] = []
        for slot, name in enumerate(kernel.input_names):
            pair = interps[0]._series.get(name)
            if pair is None:
                continue
            values = np.array([interp._series[name][1] for interp in interps]).T
            self.series.append(
                _BoundSeries(slot, name, pair[0], values[:, cols] if per_row else values)
            )
        self._last_t = None
        if n_rows == 1:
            # Row 0 as float lists: (slot, knots, slopes, values) per series.
            self._u = rows[0]
            self._row = [
                (s.slot, s.knot_list, s.slopes[:, 0].tolist(), s.values[:, 0].tolist())
                for s in self.series
            ]
            return
        # The scalar time path writes each bound column in place through a
        # view of the (N, n_inputs) buffer.
        self._buffer = self.base.copy()
        self._columns = [self._buffer[:, series.slot] for series in self.series]
        self._clamped = [series.clamped() for series in self.series]
        # Series columns: 1 (shared) or one per row.
        self._width = n_rows if per_row else 1
        self._rows = np.arange(n_rows)

    def input_at(self, t: float) -> List[float]:
        """Row 0's input vector at time ``t`` (clamped like ``np.interp``)."""
        u = self._u
        if t == self._last_t:
            return u
        self._last_t = t
        for slot, knots, slopes, values in self._row:
            if t <= knots[0]:
                u[slot] = values[0]
            elif t >= knots[-1]:
                u[slot] = values[-1]
            else:
                i = bisect.bisect_right(knots, t) - 1
                u[slot] = slopes[i] * (t - knots[i]) + values[i]
        return u

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
                    i = bisect.bisect_right(knots, t) - 1
                    np.multiply(series.slopes[i], t - knots[i], out=column)
                    column += series.values[i]
            return self._buffer
        self._last_t = None
        u = self._buffer
        for series, (starts, values, slopes) in zip(self.series, self._clamped):
            i = series.knots.searchsorted(t, side="right")
            at = i if self._width == 1 else i * self._width + self._rows
            u[:, series.slot] = slopes[at] * (t - starts[i]) + values[at]
        return u

    def input_tensor(self, grid: np.ndarray, measured: Mapping[str, np.ndarray], cols) -> np.ndarray:
        """The ``(N, n_grid, n_inputs)`` input trajectories for vectorized outputs.

        ``measured`` holds each measured series on ``grid``, one row per
        input mapping; ``cols`` maps each fleet row to its mapping.
        """
        tensor = np.repeat(self.base[:, None, :], len(grid), axis=1)
        for series in self.series:
            tensor[:, :, series.slot] = measured[series.name][cols]
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

        This is :meth:`simulate_batch`'s pipeline on a one-row fleet, which
        steps in the solver's scalar float loop.

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

        The result's ``solver_stats`` are ``solver``, ``n_rhs_evals``,
        ``n_steps`` and ``n_rejected``.
        """
        (result,) = FmuModel._simulate_fleet(
            [self], inputs, start_time, stop_time, output_step, output_times,
            solver, solver_options,
        )
        return result

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
        """Simulate a fleet of instances of **one** model in a single pass.

        All ``models`` must wrap the same FMU archive (they are the fleet's
        instances: same equations, per-instance parameter/start values) and
        share the simulation window.  ``inputs`` is either one mapping the
        whole fleet shares or one mapping per model; per-model mappings
        must name the same inputs on the same knot times, and may differ in
        their values (e.g. each instance's own measured series).  A fleet
        of two or more rows stacks its states into an ``(N, d)`` matrix and
        integrates them through one numpy-vectorized right-hand side
        (:meth:`~repro.fmi.kernel.SimulationKernel.derivs_batch` via
        :meth:`~repro.solvers.base.OdeSolver.solve_batch`); a one-row fleet
        steps in the scalar float loop, as :meth:`simulate` does.

        Results are returned in ``models`` order and equal per-instance
        :meth:`simulate` calls bit for bit (the adaptive RK45 batch solver
        controls errors per row, so every row walks the step sequence the
        scalar solver would).  Their ``solver_stats`` are :meth:`simulate`'s
        keys, with per-row step counts and ``n_rhs_evals`` counting
        vectorized evaluations, plus ``batched=True`` and ``fleet_size``
        for fleets of two or more rows.

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
        return FmuModel._simulate_fleet(
            models, inputs, start_time, stop_time, None, output_times,
            solver, solver_options,
        )

    @staticmethod
    def _simulate_fleet(
        models: List["FmuModel"],
        inputs,
        start_time: Optional[float],
        stop_time: Optional[float],
        output_step: Optional[float],
        output_times: Optional[Sequence[float]],
        solver: str,
        solver_options: Optional[dict],
    ) -> List[SimulationResult]:
        """The pipeline of :meth:`simulate` and :meth:`simulate_batch`: a
        one-row fleet steps in the solver's scalar float loop, a larger one
        in its batched loop."""
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
        grid = lead._resolve_grid(t0, t1, output_step, output_times)

        system = lead.ode_system
        kernel = system.kernel
        # Bind the whole fleet once: per-row parameter matrix, per-row input
        # start values overlaid with the measured series, stacked initial
        # states.
        bindings = _FleetBindings(kernel, interps, cols, [model._input_starts for model in models])
        P = kernel.parameter_matrix([model._parameter_values for model in models])
        x0 = np.array(
            [[model._state_starts[name] for name in system.state_names] for model in models],
            dtype=float,
        )
        one_row = len(models) == 1
        try:
            if one_row:
                step = kernel._bind_derivs(P[0].tolist())
            else:
                # The solve's errstate: a dividing fleet yields inf/nan
                # elements, not warnings, whether it divides at bind time or
                # per step.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    step = kernel._bind_derivs_batch(P)
        except ZeroDivisionError:
            raise kernel.division_error() from None

        integrator = get_solver(solver, **(solver_options or {}))
        if one_row:
            input_at = bindings.input_at

            def rhs(t, x):
                try:
                    return step(t, x, input_at(t))
                except ZeroDivisionError:
                    raise kernel.division_error() from None

            # The scalar loop steps in float lists, which the compiled
            # kernel takes and returns as they are.
            problem = OdeProblem(rhs=float_rhs(_fault_checked(rhs)), x0=x0[0], t0=t0, t1=t1)
            solution = integrator.solve(problem, output_times=grid)
            states = solution.states[None]
            n_steps, n_rejected = [solution.n_steps], [solution.n_rejected]
            fleet_stats = {}
        else:

            def rhs(t, X, U):
                try:
                    return step(t, X, U, np.empty_like(X))
                except ZeroDivisionError:
                    raise kernel.division_error() from None

            problem = BatchOdeProblem(
                rhs=_fault_checked(rhs), x0=x0, t0=t0, t1=t1, inputs=bindings.inputs_at
            )
            solution = integrator.solve_batch(problem, output_times=grid)
            states = np.ascontiguousarray(solution.states.swapaxes(0, 1))
            n_steps, n_rejected = solution.n_steps, solution.n_rejected
            fleet_stats = {"batched": True, "fleet_size": len(models)}

        # Each measured series on the output grid, one row per input
        # mapping, then the outputs of the whole fleet x grid in one pass.
        times = solution.times
        measured = {
            name: np.array([np.interp(times, *interp._series[name]) for interp in interps])
            for name in interps[0].names()
        }
        output_rows = kernel.outputs_batch(
            times, states, bindings.input_tensor(times, measured, cols), P
        )

        results: List[SimulationResult] = []
        for row, col in enumerate(cols):
            # Copies, so one retained result does not pin the whole fleet's
            # solution.
            trajectories = dict(zip(system.state_names, states[row].T.copy()))
            trajectories.update(output_rows[row])
            for name, samples in measured.items():
                trajectories[name] = samples[col].copy()
            results.append(
                SimulationResult(
                    time=times,
                    trajectories=trajectories,
                    solver_stats={
                        "solver": solution.solver_name,
                        "n_rhs_evals": solution.n_rhs_evals,
                        "n_steps": int(n_steps[row]),
                        "n_rejected": int(n_rejected[row]),
                        **fleet_stats,
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
    ) -> Tuple[List[_InputInterpolator], List[int]]:
        """Interpolators for ``simulate_batch``'s ``inputs`` and each row's index.

        A shared mapping (or none) gives one interpolator for every row.
        Per-row mappings give one interpolator per distinct mapping object
        (a calibration's candidate rows all pass the same one); they must
        bind the same input names on identical knot times, because the
        batched interpolation bisects one shared knot grid.
        """
        if inputs is None or isinstance(inputs, abc.Mapping):
            return [self._build_interpolator(inputs or {})], [0] * n_rows
        mappings = list(inputs)
        if len(mappings) != n_rows:
            raise SimulationInputError(
                f"simulate_batch got {len(mappings)} input mappings for {n_rows} models"
            )
        columns: Dict[int, int] = {}
        interps: List[_InputInterpolator] = []
        cols: List[int] = []
        for mapping in mappings:
            column = columns.get(id(mapping))
            if column is None:
                column = columns[id(mapping)] = len(interps)
                interps.append(self._build_interpolator(mapping or {}))
            cols.append(column)
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
