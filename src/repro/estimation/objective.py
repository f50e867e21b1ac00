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

from repro.errors import CancelledError, EstimationError, SolverError, TimeoutError
from repro.estimation.metrics import rmse
from repro.fmi.model import FmuModel
from repro.solvers.retry import RetryPolicy

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

    def split(self, fraction: float) -> Tuple["MeasurementSet", "MeasurementSet"]:
        """Split into (training, validation) sets at the given fraction."""
        if not 0.0 < fraction < 1.0:
            raise EstimationError("split fraction must be strictly between 0 and 1")
        cut = max(2, int(round(self.time.size * fraction)))
        cut = min(cut, self.time.size - 2)
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
        Forwarded to :meth:`FmuModel.simulate`.  When ``solver`` is ``None``
        the objective uses fixed-step RK4 at the measurement resolution,
        which is accurate for the paper's slow thermal models and an order
        of magnitude cheaper than the adaptive solver - calibration calls
        the objective hundreds of times.
    memo:
        Enable the per-estimation simulation memo cache (on by default).
        Objective values are cached per *exact* candidate vector: GA elitism
        and tournament re-evaluations and SLSQP's repeated probe points pass
        bit-identical vectors, so they skip the re-simulation, while any
        genuinely different candidate - however close - always simulates.
        The measurement grid, observed series and non-estimated model
        configuration are fixed for the lifetime of an objective, so a cache
        entry can never go stale within one estimation; disable with
        ``memo=False`` when mutating the model between calls.
    batch_enabled:
        Evaluate whole candidate populations as one batched ``(pop, d)``
        fleet solve (:meth:`evaluate_population` via
        :meth:`FmuModel.simulate_batch`) instead of one simulation per
        candidate.  Batched values, evaluation counts and cache-hit counts
        are identical to the sequential path; ``False`` forces the
        per-candidate loop (the escape hatch the equivalence corpus and the
        population benchmark flip).  A batched solve that fails mid-flight
        falls back to the sequential loop automatically.
    retry_policy:
        Optional :class:`~repro.solvers.retry.RetryPolicy` applied when a
        candidate's simulation raises :class:`~repro.errors.SolverError`:
        the remaining rungs of the ladder (tightened numerics, fixed-step
        fallback) are tried before the candidate is penalized with ``inf``.
        Off by default so pinned estimation results are unchanged; typed
        timeout/cancellation errors always propagate, never retry.
    """

    def __init__(
        self,
        model: FmuModel,
        measurements: MeasurementSet,
        parameter_names: Sequence[str],
        observed_names: Optional[Sequence[str]] = None,
        solver: Optional[str] = None,
        solver_options: Optional[dict] = None,
        align_initial_state: bool = True,
        memo: bool = True,
        batch_enabled: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
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
        if align_initial_state:
            state_names = set(model.state_names())
            for name in self.observed_names:
                if name in state_names:
                    first = measurements.series[name]
                    finite = first[~np.isnan(first)]
                    if finite.size:
                        self.initial_state_values[name] = float(finite[0])
        self.n_evaluations = 0
        self.retry_policy = retry_policy
        self.memo_enabled = bool(memo)
        self.batch_enabled = bool(batch_enabled)
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
    def simulate(
        self,
        theta: Sequence[float],
        solver: Optional[str] = None,
        solver_options: Optional[dict] = None,
    ):
        """Simulate the model with the candidate parameter vector.

        ``solver``/``solver_options`` override the objective's configured
        solver for this one call (the retry ladder's degraded attempts).
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.parameter_names),):
            raise EstimationError(
                f"candidate vector has shape {theta.shape}, expected ({len(self.parameter_names)},)"
            )
        self.model.set_many(dict(zip(self.parameter_names, theta)))
        if self.initial_state_values:
            self.model.set_many(self.initial_state_values)
        return self.model.simulate(
            inputs=self.input_series,
            start_time=float(self.measurements.time[0]),
            stop_time=float(self.measurements.time[-1]),
            output_times=self.measurements.time,
            solver=self.solver if solver is None else solver,
            solver_options=(
                self.solver_options if solver_options is None else solver_options
            ),
        )

    def __call__(self, theta: Sequence[float]) -> float:
        """Mean RMSE over all observed series for the candidate vector.

        Results are memoized per exact candidate vector (see ``memo``);
        cache hits skip the simulation entirely and do not count towards
        :attr:`n_evaluations`.
        """
        theta_array = np.asarray(theta, dtype=float)
        key = self._memo_key(theta_array) if self.memo_enabled else None
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                self.n_cache_hits += 1
                # Preserve simulate()'s side effect so callers that read the
                # model after an objective call see this candidate's values,
                # exactly as on a miss (only the simulation is skipped).
                if theta_array.shape == (len(self.parameter_names),):
                    self.model.set_many(dict(zip(self.parameter_names, theta_array)))
                    if self.initial_state_values:
                        self.model.set_many(self.initial_state_values)
                return cached
        error = self._evaluate(theta_array)
        if key is not None:
            self._memo[key] = error
        return error

    def _evaluate(self, theta: np.ndarray) -> float:
        self.n_evaluations += 1
        try:
            result = self.simulate(theta)
        except SolverError:
            if self.retry_policy is None:
                # A diverging candidate (e.g. an unstable pole) is penalized,
                # not fatal.
                return float("inf")
            try:
                result = self.retry_policy.run(
                    lambda name, options: self.simulate(
                        theta, solver=name, solver_options=options
                    ),
                    self.solver,
                    self.solver_options,
                    skip_first=True,
                )
            except SolverError:
                return float("inf")
        except _FATAL_ERRORS:
            raise
        except Exception:
            return float("inf")
        return self._score(result)

    def _score(self, result) -> float:
        """Mean RMSE of a simulation result against the observed series."""
        errors = []
        for name in self.observed_names:
            measured = self.measurements.series[name]
            simulated = result[name]
            mask = ~np.isnan(measured)
            if mask.sum() == 0:
                continue
            errors.append(rmse(measured[mask], simulated[mask]))
        if not errors:
            return float("inf")
        return float(np.mean(errors))

    # ------------------------------------------------------------------ #
    # Population evaluation (batched fleet solve)
    # ------------------------------------------------------------------ #
    def evaluate_population(self, thetas) -> np.ndarray:
        """Score a whole ``(pop, d)`` population of candidate vectors.

        The population's inputs, measurement window and output grid are
        bound once and all cache-missing candidates integrate as a single
        batched fleet solve (:meth:`FmuModel.simulate_batch` over one clone
        per candidate), instead of one simulation per candidate.  Semantics
        match scoring the rows one by one in order:

        * the memo cache is consulted per row before the solve, and a row
          repeating an **earlier row of the same population** (GA elitism
          duplicates) counts as a cache hit - exactly as it would
          sequentially, where the first occurrence simulates and populates
          the cache before the repeat is scored;
        * misses are deduplicated, batched together, and counted in
          :attr:`n_evaluations` once each;
        * with the memo disabled every row simulates, duplicates included,
          so counters stay comparable across configurations;
        * the model is left holding the last row's candidate values, the
          state the sequential loop's ``simulate`` side effect leaves.

        Falls back to the sequential per-candidate loop when
        ``batch_enabled`` is off, or when the batched solve fails
        mid-flight (the sequential rerun then penalizes the diverging
        candidates with ``inf`` exactly as :meth:`__call__` would).
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != len(self.parameter_names):
            raise EstimationError(
                f"population must be a (pop, {len(self.parameter_names)}) "
                f"matrix, got shape {thetas.shape}"
            )
        n_rows = thetas.shape[0]
        if n_rows == 0:
            return np.empty(0)
        if not self.batch_enabled:
            return np.array([self(theta) for theta in thetas])

        errors = np.empty(n_rows)
        if self.memo_enabled:
            keys = [self._memo_key(theta) for theta in thetas]
            resolved = np.zeros(n_rows, dtype=bool)
            scheduled: Dict[bytes, int] = {}
            miss_rows: List[int] = []
            hits = 0
            for row, key in enumerate(keys):
                cached = self._memo.get(key)
                if cached is not None:
                    errors[row] = cached
                    resolved[row] = True
                    hits += 1
                elif key in scheduled:
                    # Duplicate within this population: resolved from the
                    # memo after the batch fills it.
                    hits += 1
                else:
                    scheduled[key] = row
                    miss_rows.append(row)
            self.n_cache_hits += hits
            if miss_rows:
                miss_errors = self._evaluate_batch(thetas[miss_rows])
                for row, error in zip(miss_rows, miss_errors):
                    errors[row] = error
                    resolved[row] = True
                    self._memo[keys[row]] = float(error)
            for row in np.where(~resolved)[0]:
                errors[row] = self._memo[keys[row]]
        else:
            errors[:] = self._evaluate_batch(thetas)

        # Preserve the sequential loop's side effect: the model reflects the
        # last candidate that was scored (see ``simulate``/``__call__``).
        self.model.set_many(dict(zip(self.parameter_names, thetas[-1])))
        if self.initial_state_values:
            self.model.set_many(self.initial_state_values)
        return errors

    def _evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Simulate the given candidates as one fleet and score each row.

        A batched solve aborts wholesale when *any* row diverges (the solver
        raises before the stable rows finish), and a GA population searching
        a wide box routinely contains such candidates - so a failed fleet is
        **bisected** rather than rerun row by row: stable halves still solve
        batched, and only the genuinely diverging candidates degrade to a
        single sequential evaluation (which penalizes them with ``inf``,
        exactly as the sequential path would).  Per-row results are
        independent of the batch they solve in, so the split does not change
        any candidate's score.
        """
        if len(thetas) == 1:
            return np.array([self._evaluate(thetas[0])])
        try:
            results = self._simulate_population(thetas)
        except _FATAL_ERRORS:
            raise
        except Exception:
            mid = len(thetas) // 2
            return np.concatenate(
                [self._evaluate_batch(thetas[:mid]), self._evaluate_batch(thetas[mid:])]
            )
        self.n_evaluations += len(thetas)
        return np.array([self._score(result) for result in results])

    def _simulate_population(self, thetas: np.ndarray):
        """One batched fleet solve over a clone of the model per candidate."""
        candidates = []
        for theta in thetas:
            candidate = self.model.clone()
            candidate.set_many(dict(zip(self.parameter_names, theta)))
            if self.initial_state_values:
                candidate.set_many(self.initial_state_values)
            candidates.append(candidate)
        return FmuModel.simulate_batch(
            candidates,
            inputs=self.input_series,
            start_time=float(self.measurements.time[0]),
            stop_time=float(self.measurements.time[-1]),
            output_times=self.measurements.time,
            solver=self.solver,
            solver_options=self.solver_options,
            # A diverging candidate should cost one aborted batch, not a
            # sequential rerun of the whole fleet; _evaluate_batch bisects.
            sequential_fallback=False,
        )

    def error_for(self, parameter_values: Mapping[str, float]) -> float:
        """Convenience: evaluate the objective for named parameter values."""
        theta = [parameter_values[name] for name in self.parameter_names]
        return self(theta)
