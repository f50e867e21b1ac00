"""Simulation-based calibration objective.

The objective wraps an :class:`~repro.fmi.model.FmuModel` plus a measurement
set and exposes ``objective(theta) -> error``: set the candidate parameter
vector on the model, simulate over the measurement window with the measured
inputs, and compute the (mean) RMSE between simulated and measured
trajectories of the observed variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CancelledError, EstimationError, TimeoutError
from repro.estimation import lockstep
from repro.fmi.model import FleetRows, FmuModel
from repro.fmi.results import FleetResult

#: Deadline/cancellation errors must never be swallowed as a penalized
#: candidate: a timed-out calibration aborts, it does not score ``inf``.
_FATAL_ERRORS = (TimeoutError, CancelledError)


@dataclass
class MeasurementSet:
    """Measured time series used for calibration or validation.

    Attributes
    ----------
    time:
        Shared, increasing time grid (hours in the paper's datasets).
    series:
        Mapping of variable name to measured values on ``time``.  Names that
        match model inputs are fed to the simulation; names that match model
        states or outputs are compared against simulated trajectories.
    """

    time: np.ndarray
    series: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        if self.time.ndim != 1 or self.time.size < 2:
            raise EstimationError("a measurement set needs a 1-D time grid with >= 2 points")
        if np.any(np.diff(self.time) < 0):
            raise EstimationError("measurement time grid must be non-decreasing")
        clean: Dict[str, np.ndarray] = {}
        for name, values in self.series.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != self.time.shape:
                raise EstimationError(
                    f"measured series {name!r} has length {arr.shape[0]}, "
                    f"expected {self.time.shape[0]}"
                )
            clean[name] = arr
        self.series = clean

    @classmethod
    def from_rows(
        cls, rows: Sequence[Mapping[str, float]], time_column: str = "time"
    ) -> "MeasurementSet":
        """Build a measurement set from dict rows (e.g. a SQL query result)."""
        if not rows:
            raise EstimationError("no measurement rows supplied")
        if time_column not in rows[0]:
            raise EstimationError(
                f"measurement rows have no {time_column!r} column; columns are {list(rows[0])}"
            )
        columns = [c for c in rows[0] if c != time_column]
        time = np.array([float(r[time_column]) for r in rows], dtype=float)
        order = np.argsort(time, kind="stable")
        series = {}
        for column in columns:
            values = []
            for r in rows:
                value = r.get(column)
                values.append(float("nan") if value is None else float(value))
            series[column] = np.asarray(values, dtype=float)[order]
        return cls(time=time[order], series={k: v for k, v in series.items()})

    def variable_names(self) -> List[str]:
        return list(self.series)

    def subset(self, names: Sequence[str]) -> "MeasurementSet":
        """A measurement set restricted to the given series names."""
        return MeasurementSet(
            time=self.time.copy(),
            series={name: self.series[name].copy() for name in names if name in self.series},
        )

    def window(self, start: float, stop: float) -> "MeasurementSet":
        """Restrict the measurement set to ``start <= time <= stop``."""
        mask = (self.time >= start) & (self.time <= stop)
        if mask.sum() < 2:
            raise EstimationError("measurement window contains fewer than 2 samples")
        return MeasurementSet(
            time=self.time[mask],
            series={name: values[mask] for name, values in self.series.items()},
        )

    @staticmethod
    def split_index(n_samples: int, fraction: float) -> int:
        """How many of ``n_samples`` samples :meth:`split` puts in training."""
        if not 0.0 < fraction < 1.0:
            raise EstimationError("split fraction must be strictly between 0 and 1")
        cut = max(2, int(round(n_samples * fraction)))
        return min(cut, n_samples - 2)

    def split(self, fraction: float) -> Tuple["MeasurementSet", "MeasurementSet"]:
        """Split into (training, validation) sets at the given fraction."""
        cut = self.split_index(self.time.size, fraction)
        first = MeasurementSet(
            time=self.time[:cut],
            series={k: v[:cut] for k, v in self.series.items()},
        )
        second = MeasurementSet(
            time=self.time[cut:],
            series={k: v[cut:] for k, v in self.series.items()},
        )
        return first, second


class SimulationObjective:
    """Callable objective ``theta -> error`` for a model/measurement pair.

    Parameters
    ----------
    model:
        The FMU runtime model to calibrate (its current non-estimated
        parameter values are kept).
    measurements:
        Measured input and observed series.
    parameter_names:
        Names of the parameters being estimated; the candidate vector passed
        to :meth:`__call__` follows this order.
    observed_names:
        Which measured series to compare against simulated trajectories.
        Defaults to every measured series that matches a model state or
        output (and is not an input).
    solver / solver_options:
        Forwarded to :meth:`FmuModel.simulate_batch`.  When ``solver`` is
        ``None`` the objective uses fixed-step RK4 at the measurement
        resolution, which is accurate for the paper's slow thermal models
        and an order of magnitude cheaper than the adaptive solver -
        calibration calls the objective hundreds of times.

    Every evaluation, of one candidate or a population, simulates its
    candidates as one :meth:`FmuModel.simulate_fleet` fleet, each candidate
    a row of its parameter matrix (one row for a single candidate), and
    scores every row in one pass over the fleet's arrays.  A candidate
    whose simulation fails - e.g. an unstable pole makes the solver diverge
    - scores ``inf``; typed timeout/cancellation errors propagate instead.

    Simulations start from the measured initial conditions of the observed
    states, and objective values are memoized per *exact* candidate vector:
    GA elitism and tournament re-evaluations and SLSQP's repeated probe
    points pass bit-identical vectors, so they skip the re-simulation, while
    any genuinely different candidate - however close - always simulates.
    The measurement grid, observed series and non-estimated model
    configuration are fixed for the lifetime of an objective, so a cache
    entry never goes stale; call :meth:`clear_memo` after mutating the
    model between calls.
    """

    def __init__(
        self,
        model: FmuModel,
        measurements: MeasurementSet,
        parameter_names: Sequence[str],
        observed_names: Optional[Sequence[str]] = None,
        solver: Optional[str] = None,
        solver_options: Optional[dict] = None,
    ):
        self.model = model
        self.measurements = measurements
        self.parameter_names = list(parameter_names)
        if not self.parameter_names:
            raise EstimationError("at least one parameter must be estimated")
        for name in self.parameter_names:
            if name not in model.parameter_names():
                raise EstimationError(
                    f"{name!r} is not a parameter of model {model.model_name!r}"
                )
        input_names = set(model.input_names())
        observable = set(model.state_names()) | set(model.output_names())
        if observed_names is None:
            observed_names = [
                name
                for name in measurements.variable_names()
                if name in observable and name not in input_names
            ]
        self.observed_names = list(observed_names)
        if not self.observed_names:
            raise EstimationError(
                "no measured series matches a model state or output; cannot calibrate"
            )
        for name in self.observed_names:
            if name not in measurements.series:
                raise EstimationError(f"observed series {name!r} is not in the measurements")
        self.input_series = {
            name: (measurements.time, measurements.series[name])
            for name in measurements.variable_names()
            if name in input_names
        }
        # Bound once: every fleet this objective simulates reads them.
        self._bound_inputs = model.bind_inputs(self.input_series)
        if solver is None:
            step = float(np.median(np.diff(measurements.time)))
            self.solver = "rk4"
            self.solver_options = {"step": step, **(solver_options or {})}
        else:
            self.solver = solver
            self.solver_options = dict(solver_options or {})
        # Start simulations from the measured initial conditions of observed
        # states (standard calibration practice: the transient from an
        # arbitrary start value would otherwise dominate the error).
        self.initial_state_values: Dict[str, float] = {}
        state_names = set(model.state_names())
        for name in self.observed_names:
            if name in state_names:
                first = measurements.series[name]
                finite = first[~np.isnan(first)]
                if finite.size:
                    self.initial_state_values[name] = float(finite[0])
        # Each scored series with its NaN mask (None when it has no NaN) and
        # its masked measured values, computed once; an all-NaN series
        # scores nothing and is skipped.
        self._scored: List[Tuple[str, Optional[np.ndarray], np.ndarray]] = []
        for name in self.observed_names:
            measured = measurements.series[name]
            missing = np.isnan(measured)
            if missing.all():
                continue
            mask = ~missing if missing.any() else None
            self._scored.append((name, mask, measured if mask is None else measured[mask]))
        # Fleet rows set the candidate, then the initial states (_apply).
        self._row_names = self.parameter_names + list(self.initial_state_values)
        self._initial_row = np.array(list(self.initial_state_values.values()), dtype=float)
        self.n_evaluations = 0
        self.n_cache_hits = 0
        self._memo: Dict[bytes, float] = {}

    # ------------------------------------------------------------------ #
    # Memoization
    # ------------------------------------------------------------------ #
    def _memo_key(self, theta: np.ndarray) -> bytes:
        # Exact bit pattern: any rounding scheme would conflate sufficiently
        # fine probe steps at some parameter scale, silently changing search
        # results; the re-evaluations worth caching are bit-identical anyway.
        return np.ascontiguousarray(theta, dtype=float).tobytes()

    def clear_memo(self) -> None:
        """Drop all cached objective values (keeps the hit counter)."""
        self._memo.clear()

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _candidate(self, theta: Sequence[float]) -> np.ndarray:
        """``theta`` as a float vector, checked against the parameter count."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.parameter_names),):
            raise EstimationError(
                f"candidate vector has shape {theta.shape}, expected ({len(self.parameter_names)},)"
            )
        return theta

    def _apply(self, model: FmuModel, theta: np.ndarray) -> None:
        """Set a candidate vector and the aligned initial states on ``model``."""
        model.set_many(dict(zip(self.parameter_names, theta)))
        if self.initial_state_values:
            model.set_many(self.initial_state_values)

    def __call__(self, theta: Sequence[float]) -> float:
        """Mean RMSE over all observed series for the candidate vector.

        Results are memoized per exact candidate vector; cache hits skip
        the simulation entirely and do not count towards
        :attr:`n_evaluations`.  A vector of the wrong shape raises
        :class:`~repro.errors.EstimationError`.
        """
        return float(self._score_rows(self._candidate(theta)[None])[0])

    def _score_fleet(self, fleet, start: int, stop: int) -> np.ndarray:
        """Mean RMSE of fleet rows ``start:stop`` against the observed series.

        ``fleet[name]`` gives a variable's ``(N, T)`` trajectories.  Each
        series' RMSE is :func:`~repro.estimation.metrics.rmse` over its
        non-NaN samples, with the masks precomputed, and a non-finite RMSE
        counts as ``inf``.  Every row is scored in one pass: the reductions
        run along the last axis of C-contiguous arrays, which numpy sums row
        by row exactly as it sums a row on its own, so each score is
        bit-identical to scoring that row's one-row simulation alone.
        """
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for name, mask, measured in self._scored:
                simulated = fleet[name][start:stop]
                if mask is not None:
                    # A boolean column selection comes back Fortran-ordered.
                    simulated = simulated[:, mask]
                simulated = np.ascontiguousarray(simulated)
                error = np.sqrt(np.mean((measured - simulated) ** 2, axis=1))
                errors.append(np.where(np.isfinite(error), error, np.inf))
        if not errors:
            return np.full(stop - start, np.inf)
        return np.mean(np.stack(errors, axis=1), axis=1)

    # ------------------------------------------------------------------ #
    # Population evaluation (batched fleet solve)
    # ------------------------------------------------------------------ #
    def evaluate_population(self, thetas) -> np.ndarray:
        """Score a whole ``(pop, d)`` population of candidate vectors.

        The population's inputs, measurement window and output grid are
        bound once and all cache-missing candidates integrate as a single
        batched fleet solve (:meth:`FmuModel.simulate_fleet`, one row per
        candidate), instead of one simulation per candidate.  Results,
        counters and the model's final state match scoring the rows one by
        one with :meth:`__call__` (see :meth:`_score_rows`).

        A batched solve that fails mid-flight is bisected (see
        :meth:`_evaluate_batch`), so only the diverging candidates are
        penalized with ``inf``, exactly as :meth:`__call__` would.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != len(self.parameter_names):
            raise EstimationError(
                f"population must be a (pop, {len(self.parameter_names)}) "
                f"matrix, got shape {thetas.shape}"
            )
        if thetas.shape[0] == 0:
            return np.empty(0)
        return self._score_rows(thetas)

    def _score_rows(self, thetas: np.ndarray) -> np.ndarray:
        """Score validated ``(n, d)`` candidate rows through the memo.

        Semantics match scoring the rows one by one in order:

        * a row already in the memo, or repeating an **earlier row of the
          same call** (GA elitism duplicates), counts as a cache hit -
          sequentially the first occurrence simulates and fills the memo
          before the repeat is scored;
        * misses are deduplicated, evaluated together and counted in
          :attr:`n_evaluations` once each (inside a lockstep worker they
          join the round's shared solve, see :mod:`repro.estimation.lockstep`);
        * the model is left holding the last row's candidate values.
        """
        keys = [self._memo_key(theta) for theta in thetas]
        missing: Dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key not in self._memo:
                missing.setdefault(key, row)
        self.n_cache_hits += len(keys) - len(missing)
        if missing:
            errors = lockstep.evaluate(self, thetas[list(missing.values())])
            for key, error in zip(missing, errors):
                self._memo[key] = float(error)
        self._apply(self.model, thetas[-1])
        return np.array([self._memo[key] for key in keys])

    def _evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Simulate the given candidates as one fleet and score each row.

        A batched solve aborts wholesale when *any* row diverges (the solver
        raises before the stable rows finish), and a GA population searching
        a wide box routinely contains such candidates - so a failed fleet is
        **bisected** rather than rerun row by row: stable halves still solve
        batched, and only a genuinely diverging candidate fails on its own
        as a one-row fleet, which counts one evaluation and scores ``inf``.
        Per-row results are independent of the batch they solve in, so the
        split does not change any candidate's score.
        """
        try:
            fleet = self._simulate_rows([(self, thetas)])
        except _FATAL_ERRORS:
            raise
        except Exception:
            if len(thetas) == 1:
                self.n_evaluations += 1
                return np.array([float("inf")])
            mid = len(thetas) // 2
            return np.concatenate(
                [self._evaluate_batch(thetas[:mid]), self._evaluate_batch(thetas[mid:])]
            )
        self.n_evaluations += len(thetas)
        return self._score_fleet(fleet, 0, len(thetas))

    @staticmethod
    def _simulate_rows(requests) -> FleetResult:
        """One batched fleet solve over ``(objective, thetas)`` requests.

        Each candidate is a row of the fleet: its objective's model with the
        candidate and the measured initial states set (as :meth:`_apply`
        would set them), driven by that objective's measured inputs.  The
        requests share the window, output grid and solver settings of the
        first (the lockstep scorer groups only such requests).
        """
        lead = requests[0][0]
        blocks, inputs = [], []
        for objective, thetas in requests:
            initial = np.tile(objective._initial_row, (len(thetas), 1))
            values = np.hstack([thetas, initial])
            blocks.append(objective.model.fleet_rows(objective._row_names, values))
            inputs.extend([objective._bound_inputs] * len(thetas))
        return FmuModel.simulate_fleet(
            FleetRows.stack(blocks),
            inputs=inputs,
            start_time=float(lead.measurements.time[0]),
            stop_time=float(lead.measurements.time[-1]),
            output_times=lead.measurements.time,
            solver=lead.solver,
            solver_options=lead.solver_options,
        )

    def error_for(self, parameter_values: Mapping[str, float]) -> float:
        """Convenience: evaluate the objective for named parameter values."""
        theta = [parameter_values[name] for name in self.parameter_names]
        return self(theta)
