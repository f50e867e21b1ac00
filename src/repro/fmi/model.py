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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.cancellation import check_active
from repro.errors import FmuStateError, FmuVariableError, SimulationInputError
from repro.fmi.archive import FmuArchive, read_fmu
from repro.fmi.dynamics import OdeSystem
from repro.fmi.model_description import ModelDescription
from repro.fmi.results import FleetResult, SimulationResult
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


def _row_rhs(kernel, parameters: np.ndarray, input_at: Callable[[float], List[float]]):
    """One fleet row's right-hand side for a solver's scalar float loop.

    The kernel is bound to the row's ``parameters`` here, and each call
    resolves the row's inputs with ``input_at``; the compiled kernel takes
    and returns float lists as they are.  A division by zero, at bind time
    or in a step, raises the kernel's typed error.
    """
    try:
        step = kernel._bind_derivs(parameters.tolist())
    except ZeroDivisionError:
        raise kernel.division_error() from None

    def rhs(t, x):
        try:
            return step(t, x, input_at(t))
        except ZeroDivisionError:
            raise kernel.division_error() from None

    return float_rhs(_fault_checked(rhs))


class _BoundSeries:
    """One measured input of a fleet on its shared knot grid.

    ``values`` holds one column per fleet column (one shared column, or
    one per fleet row) and ``slopes`` each knot interval's slope, computed
    by the two operations ``np.interp`` uses: the value difference, divided
    by the knot difference.  The knots are also kept as a list, which the
    scalar float loop bisects.
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

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The ``(T, n_columns)`` values at shared ``times``.

        A time at or before the first knot takes the first value, one at or
        after the last knot the last value; any other time ``t`` bisects to
        the interval ``i`` with ``knots[i] <= t < knots[i + 1]``
        (``searchsorted(side="right")``, as ``bisect_right``) and takes
        ``slopes[i] * (t - knots[i]) + values[i]``.  An interval of
        duplicate knots (an infinite slope) is never selected.
        """
        knots, values = self.knots, self.values
        sampled = np.empty((len(times), values.shape[1]))
        first = times <= knots[0]
        last = ~first & (times >= knots[-1])
        inner = ~(first | last)
        sampled[first] = values[0]
        sampled[last] = values[-1]
        t = times[inner]
        i = knots.searchsorted(t, side="right") - 1
        sampled[inner] = self.slopes[i] * (t - knots[i])[:, None] + values[i]
        return sampled


class _FleetBindings:
    """A fleet's inputs, bound once per simulation.

    The measured series share one knot grid.  A fleet that shares one input
    mapping stores each series as a single column that broadcasts to every
    row; per-row mappings store one column per row (``cols`` maps each row
    to its mapping).  ``base`` holds the per-instance input *start* values,
    one row per instance, which fill the unbound columns.

    Both paths interpolate in ``np.interp``'s operation order: a bisect on
    the shared knots, then ``slope * (t - t_lo) + v_lo`` with the slopes of
    :class:`_BoundSeries`, so each row of a fleet sees the input values of
    its one-row simulation.

    * :meth:`row_inputs` gives one row's input function for the scalar
      float loop (one-row fleets, and each row of an adaptive fleet).
    * :meth:`sample` gives the ``(T, N, n_inputs)`` matrices at a vector of
      shared times: the fixed-step solvers sample every stage time in this
      one call (see :class:`~repro.solvers.base.BatchOdeProblem`).
    """

    __slots__ = ("base", "series", "_per_row")

    def __init__(
        self,
        kernel,
        interps: Sequence[_InputInterpolator],
        cols: List[int],
        base: np.ndarray,
    ):
        self.base = base
        per_row = self._per_row = len(interps) > 1
        self.series: List[_BoundSeries] = []
        for slot, name in enumerate(kernel.input_names):
            pair = interps[0]._series.get(name)
            if pair is None:
                continue
            values = np.array([interp._series[name][1] for interp in interps]).T
            self.series.append(
                _BoundSeries(slot, name, pair[0], values[:, cols] if per_row else values)
            )

    def row_inputs(self, row: int) -> Callable[[float], List[float]]:
        """Row ``row``'s input vector at a time, as a float list.

        Times clamp like ``np.interp``.  The function reuses one list and
        skips a time it has just filled (RK4 evaluates both midpoint stages,
        and each step's end and the next step's start, at one time).
        """
        u = self.base[row].tolist()
        column = row if self._per_row else 0
        bound = [
            (s.slot, s.knot_list, s.slopes[:, column].tolist(), s.values[:, column].tolist())
            for s in self.series
        ]
        last_t = None

        def input_at(t: float) -> List[float]:
            nonlocal last_t
            if t == last_t:
                return u
            last_t = t
            for slot, knots, slopes, values in bound:
                if t <= knots[0]:
                    u[slot] = values[0]
                elif t >= knots[-1]:
                    u[slot] = values[-1]
                else:
                    i = bisect.bisect_right(knots, t) - 1
                    u[slot] = slopes[i] * (t - knots[i]) + values[i]
            return u

        return input_at

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The ``(T, N, n_inputs)`` input matrices at shared ``times``."""
        sampled = np.repeat(self.base[None], len(times), axis=0)
        for series in self.series:
            sampled[:, :, series.slot] = series.sample(times)
        return sampled

    def input_tensor(self, grid: np.ndarray, measured: Mapping[str, np.ndarray], cols) -> np.ndarray:
        """The ``(N, n_grid, n_inputs)`` input trajectories for vectorized outputs.

        ``measured`` holds each measured series on ``grid``, one row per
        input mapping; ``cols`` maps each fleet row to its mapping.
        """
        tensor = np.repeat(self.base[:, None, :], len(grid), axis=1)
        for series in self.series:
            tensor[:, :, series.slot] = measured[series.name][cols]
        return tensor


class FleetRows:
    """The per-row start values of a fleet of one model, as matrices.

    ``parameters`` is ``(N, n_p)`` in kernel order, ``states`` the ``(N,
    d)`` initial states and ``inputs`` the ``(N, n_u)`` input start values;
    ``model`` is the instance whose archive, default experiment and input
    declarations the fleet uses.  Built by :meth:`FmuModel.fleet_rows` and
    concatenated with :meth:`stack`.
    """

    __slots__ = ("model", "parameters", "states", "inputs")

    def __init__(
        self, model: "FmuModel", parameters: np.ndarray, states: np.ndarray, inputs: np.ndarray
    ):
        self.model = model
        self.parameters = parameters
        self.states = states
        self.inputs = inputs

    def __len__(self) -> int:
        return len(self.parameters)

    @staticmethod
    def stack(blocks: Sequence["FleetRows"]) -> "FleetRows":
        """The rows of ``blocks`` in order, as one fleet of their common model."""
        lead = blocks[0].model
        for block in blocks:
            model = block.model
            if model._archive.guid != lead._archive.guid:
                raise SimulationInputError(
                    "simulate_batch requires instances of one model; got "
                    f"{model.model_name!r} (guid {model.guid!r}) alongside "
                    f"{lead.model_name!r} (guid {lead.guid!r})"
                )
        if len(blocks) == 1:
            return blocks[0]
        return FleetRows(
            lead,
            np.vstack([block.parameters for block in blocks]),
            np.vstack([block.states for block in blocks]),
            np.vstack([block.inputs for block in blocks]),
        )


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
        self._values_of(name)[name] = float(value)

    def _values_of(self, name: str) -> Dict[str, float]:
        """The value dictionary :meth:`set` writes ``name`` into."""
        var = self.model_description.variable(name)
        if var.is_parameter:
            return self._parameter_values
        if var.is_input:
            return self._input_starts
        if name in self._state_starts or var.is_state:
            return self._state_starts
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
        only the per-instance value dictionaries are copied.  (To simulate
        many variants of one instance, :meth:`fleet_rows` builds them as
        rows of a fleet without a clone per row.)
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

    def fleet_rows(self, names: Sequence[str] = (), values=None) -> FleetRows:
        """This instance as rows of a fleet for :meth:`simulate_fleet`.

        Without ``values``, one row carrying the instance's current values.
        With an ``(n, len(names))`` matrix, ``n`` rows: row ``i`` carries
        what setting each ``names[j]`` to ``values[i, j]`` with :meth:`set`
        would make of this instance, which itself stays unchanged (a
        calibration's candidate population, without a clone per candidate).
        """
        if not self._instantiated:
            raise FmuStateError("the FMU instance has been terminated")
        system = self.ode_system
        kernel = system.kernel
        parameters = kernel.parameter_matrix([self._parameter_values])
        states = np.array(
            [[self._state_starts[name] for name in system.state_names]], dtype=float
        ).reshape(1, len(system.state_names))
        inputs = np.array(
            [[float(self._input_starts.get(name, 0.0)) for name in kernel.input_names]]
        ).reshape(1, kernel.n_inputs)
        if values is None:
            return FleetRows(self, parameters, states, inputs)
        values = np.asarray(values, dtype=float)
        blocks = (parameters, states, inputs)
        rows = FleetRows(self, *(np.repeat(block, len(values), axis=0) for block in blocks))
        columns = (
            (self._parameter_values, rows.parameters, kernel.parameter_names),
            (self._state_starts, rows.states, system.state_names),
            (self._input_starts, rows.inputs, kernel.input_names),
        )
        for j, name in enumerate(names):
            target = self._values_of(name)
            for store, matrix, order in columns:
                # A name the kernel does not read is stored by set() but
                # never simulated.
                if store is target and name in order:
                    matrix[:, order.index(name)] = values[:, j]
        return rows

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

        This is :meth:`simulate_fleet` on a one-row fleet, which steps in
        the solver's scalar float loop.

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
        (result,) = FmuModel.simulate_fleet(
            self.fleet_rows(), inputs, start_time, stop_time, output_step, output_times,
            solver, solver_options,
        ).results()
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
        their values (e.g. each instance's own measured series).  The
        fleet runs through :meth:`simulate_fleet`: a fixed-step solver
        integrates two or more rows as one ``(N, d)`` state matrix through
        a numpy-vectorized right-hand side
        (:meth:`~repro.fmi.kernel.SimulationKernel.derivs_batch` via
        :meth:`~repro.solvers.base.OdeSolver.solve_batch`); the adaptive
        solver, and any one-row fleet, steps each row in the scalar float
        loop, as :meth:`simulate` does.

        Results are returned in ``models`` order and equal per-instance
        :meth:`simulate` calls bit for bit, step counts included.  Their
        ``solver_stats`` are :meth:`simulate`'s keys with the row's own
        ``n_steps``/``n_rejected``; ``n_rhs_evals`` is the fleet's: the
        vectorized evaluations of a batched solve, plus ``batched=True``
        and ``fleet_size``, or the sum over the rows of a row-by-row one.

        ``output_times`` defaults to the grid :meth:`simulate` uses.  A
        fleet whose integration fails raises the solver's
        :class:`~repro.errors.SolverError`: a batched solve's divergence
        message names the failing rows, a row-by-row solve raises the first
        failing row's own error.  Callers decide how to recover: the
        simulator reruns the fleet instance by instance, the calibration
        objective bisects its population.
        """
        models = list(models)
        if not models:
            return []
        rows = FleetRows.stack([model.fleet_rows() for model in models])
        return FmuModel.simulate_fleet(
            rows, inputs, start_time, stop_time, None, output_times, solver, solver_options,
        ).results()

    @staticmethod
    def simulate_fleet(
        rows: FleetRows,
        inputs=None,
        start_time: Optional[float] = None,
        stop_time: Optional[float] = None,
        output_step: Optional[float] = None,
        output_times: Optional[Sequence[float]] = None,
        solver: str = "rk45",
        solver_options: Optional[dict] = None,
    ) -> FleetResult:
        """Simulate the rows of a fleet and return its trajectories as arrays.

        The one pipeline under :meth:`simulate` and :meth:`simulate_batch`,
        which split its :class:`~repro.fmi.results.FleetResult` into one
        :class:`SimulationResult` per row; arguments are theirs, with
        ``rows`` (:meth:`fleet_rows`, :meth:`FleetRows.stack`) in place of
        the instances.  A fixed-step solver steps a fleet of two or more
        rows in its batched loop.  An adaptive solver steps each row in its
        scalar float loop, with the row's own parameters and inputs, as a
        one-row fleet of any solver does; the outputs of every row are then
        evaluated in one vectorized pass.
        """
        lead = rows.model
        check_active()
        interps, cols = lead._build_row_interpolators(inputs, len(rows))
        t0, t1 = lead._resolve_window(interps[0], start_time, stop_time)
        grid = lead._resolve_grid(t0, t1, output_step, output_times)

        system = lead.ode_system
        kernel = system.kernel
        # Bind the whole fleet once: per-row input start values overlaid
        # with the measured series, per-row parameters, stacked states.
        bindings = _FleetBindings(kernel, interps, cols, rows.inputs)
        P, x0 = rows.parameters, rows.states
        integrator = get_solver(solver, **(solver_options or {}))
        if len(rows) == 1 or integrator.adaptive:
            solutions = [
                integrator.solve(
                    OdeProblem(
                        rhs=_row_rhs(kernel, P[row], bindings.row_inputs(row)),
                        x0=x0[row], t0=t0, t1=t1,
                    ),
                    output_times=grid,
                )
                for row in range(len(rows))
            ]
            solution = solutions[0]
            states = np.stack([one.states for one in solutions], axis=1)
            n_rhs_evals = sum(one.n_rhs_evals for one in solutions)
            n_steps = [one.n_steps for one in solutions]
            n_rejected = [one.n_rejected for one in solutions]
            fleet_stats = {}
        else:
            try:
                # The solve's errstate: a dividing fleet yields inf/nan
                # elements, not warnings, whether it divides at bind time or
                # per step.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    step = kernel._bind_derivs_batch(P)
            except ZeroDivisionError:
                raise kernel.division_error() from None

            def rhs(t, X, U):
                try:
                    return step(t, X, U, np.empty_like(X))
                except ZeroDivisionError:
                    raise kernel.division_error() from None

            problem = BatchOdeProblem(
                rhs=_fault_checked(rhs), x0=x0, t0=t0, t1=t1, inputs=bindings
            )
            solution = integrator.solve_batch(problem, output_times=grid)
            states = solution.states
            n_rhs_evals = solution.n_rhs_evals
            n_steps, n_rejected = solution.n_steps, solution.n_rejected
            fleet_stats = {"batched": True, "fleet_size": len(rows)}

        # Each measured series on the output grid, one row per input
        # mapping, then the outputs of the whole fleet x grid in one pass.
        # ``states`` is (T, N, d); each state's (N, T) trajectories are rows
        # of one C-contiguous copy.
        times = solution.times
        measured = {
            name: np.array([np.interp(times, *interp._series[name]) for interp in interps])
            for name in interps[0].names()
        }
        trajectories = dict(
            zip(system.state_names, np.ascontiguousarray(states.transpose(2, 1, 0)))
        )
        trajectories.update(
            kernel.outputs_batch(
                times, states.swapaxes(0, 1), bindings.input_tensor(times, measured, cols), P
            )
        )
        return FleetResult(
            time=times,
            trajectories=trajectories,
            inputs=measured,
            input_rows=cols,
            solver_stats={
                "solver": solution.solver_name,
                "n_rhs_evals": n_rhs_evals,
                "n_steps": n_steps,
                "n_rejected": n_rejected,
                **fleet_stats,
            },
        )

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
