"""The Estimation workflow: Global + Local search (ModestPy-style).

:class:`Estimation` combines the GA global stage with the gradient-based
local stage, exposing the three modes pgFMU's parameter estimation uses:

* ``"global+local"`` (G+LaG): the default for a fresh instance - the GA
  narrows the search space, the local stage fine-tunes the optimum.
* ``"local"`` (LO): local search only, from supplied initial values - used
  by the multi-instance optimization when a similar instance has already
  been calibrated and its optimum is a good warm start.
* ``"global"`` (G): global only, mainly for ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation import lockstep
from repro.estimation.genetic import GeneticAlgorithm
from repro.estimation.local import LocalSearch
from repro.estimation.objective import MeasurementSet, SimulationObjective
from repro.fmi.model import FmuModel

Bounds = Dict[str, Tuple[float, float]]

#: Fallback half-width used when a parameter has no declared min/max bound.
_DEFAULT_BOUND_SPAN = 10.0


@dataclass
class EstimationResult:
    """Outcome of a calibration run."""

    parameters: Dict[str, float]
    error: float
    method: str
    n_evaluations: int
    global_time: float = 0.0
    local_time: float = 0.0
    validation_error: Optional[float] = None
    history: List[float] = field(default_factory=list)
    #: Objective calls served from the simulation memo cache (no re-simulation).
    n_cache_hits: int = 0

    @property
    def total_time(self) -> float:
        return self.global_time + self.local_time


class Estimation:
    """Parameter estimation for one FMU model instance.

    Parameters
    ----------
    model:
        The FMU runtime model to calibrate.
    measurements:
        Training measurements (inputs + observed states/outputs).
    parameters:
        Names of the parameters to estimate.  Defaults to every declared
        model parameter.
    bounds:
        Optional per-parameter ``(low, high)`` overrides.  Defaults come from
        the FMU's declared min/max attributes, falling back to a symmetric
        span around the start value.
    ga_options / local_options:
        Constructor options for the two stages (population size, tolerance,
        ...).  Benchmarks use these to scale the experiment budget.
    seed:
        Seed for the GA stage.

    Candidates are scored by a :class:`SimulationObjective` with its
    defaults (fixed-step RK4 at the measurement resolution, memoized).
    """

    def __init__(
        self,
        model: FmuModel,
        measurements: MeasurementSet,
        parameters: Optional[Sequence[str]] = None,
        bounds: Optional[Bounds] = None,
        ga_options: Optional[dict] = None,
        local_options: Optional[dict] = None,
        seed: Optional[int] = 1,
    ):
        self.model = model
        self.measurements = measurements
        self.parameter_names = list(parameters) if parameters else model.parameter_names()
        if not self.parameter_names:
            raise EstimationError(
                f"model {model.model_name!r} declares no estimable parameters"
            )
        self.bounds = self._resolve_bounds(bounds or {})
        self.ga_options = dict(ga_options or {})
        self.local_options = dict(local_options or {})
        self.seed = seed
        self.objective = SimulationObjective(
            model=model,
            measurements=measurements,
            parameter_names=self.parameter_names,
        )

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #
    def _resolve_bounds(self, overrides: Bounds) -> List[Tuple[float, float]]:
        resolved: List[Tuple[float, float]] = []
        for name in self.parameter_names:
            if name in overrides:
                low, high = overrides[name]
            else:
                variable = self.model.model_description.variable(name)
                low = variable.minimum
                high = variable.maximum
                if low is None or high is None or not (high > low):
                    start = float(variable.start) if variable.start is not None else 0.0
                    span = max(abs(start), 1.0) * _DEFAULT_BOUND_SPAN
                    low = start - span if low is None else low
                    high = start + span if high is None else high
            if not (high > low):
                raise EstimationError(
                    f"parameter {name!r}: invalid bounds ({low}, {high})"
                )
            resolved.append((float(low), float(high)))
        return resolved

    def bound_map(self) -> Bounds:
        """Bounds keyed by parameter name (useful for reporting)."""
        return dict(zip(self.parameter_names, self.bounds))

    # ------------------------------------------------------------------ #
    # Estimation modes
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        method: str = "global+local",
        initial_values: Optional[Mapping[str, float]] = None,
    ) -> EstimationResult:
        """Run calibration and apply the optimum to the model.

        Parameters
        ----------
        method:
            ``"global+local"`` (G+LaG), ``"local"`` (LO) or ``"global"`` (G).
        initial_values:
            Starting point for the local-only mode (typically the optimum of
            a previously calibrated, similar instance).  Also used to seed
            the GA population when provided for the global modes.
        """
        method = method.lower()
        if method not in ("global+local", "local", "global"):
            raise EstimationError(f"unknown estimation method {method!r}")

        guess = None
        if initial_values is not None:
            guess = np.array(
                [float(initial_values[name]) for name in self.parameter_names], dtype=float
            )

        history: List[float] = []
        # Stage times are wall time, or inside a lockstep worker the time
        # charged to this calibration (lockstep.clock).
        global_time = 0.0
        local_time = 0.0
        n_evaluations = 0
        cache_hits_before = self.objective.n_cache_hits

        if method in ("global+local", "global"):
            ga = GeneticAlgorithm(self.bounds, seed=self.seed, **self.ga_options)
            started = lockstep.clock()
            # Each generation scores as one batched fleet solve; a fleet that
            # fails mid-solve is bisected down to the diverging candidates.
            ga_result = ga.run(
                self.objective,
                initial_guess=guess,
                population_objective=self.objective.evaluate_population,
            )
            global_time = lockstep.clock() - started
            n_evaluations += ga_result.n_evaluations
            history.extend(ga_result.history)
            best = ga_result.best_parameters
            best_error = ga_result.best_error
        else:
            if guess is None:
                # LO without a warm start begins from the model's current values.
                guess = np.array(
                    [self.model.get(name) for name in self.parameter_names], dtype=float
                )
            best = guess
            best_error = float("inf")

        if method in ("global+local", "local"):
            local = LocalSearch(self.bounds, **self.local_options)
            started = lockstep.clock()
            local_result = local.run(
                self.objective,
                best,
                population_objective=self.objective.evaluate_population,
            )
            local_time = lockstep.clock() - started
            n_evaluations += local_result.n_evaluations
            history.extend(local_result.history)
            if local_result.best_error <= best_error:
                best = local_result.best_parameters
                best_error = local_result.best_error

        parameters = {
            name: float(value) for name, value in zip(self.parameter_names, best)
        }
        # Leave the model at the calibrated optimum, as ModestPy users do by
        # writing the estimates back with PyFMI's set().
        self.model.set_many(parameters)
        final_error = self.objective(best)

        return EstimationResult(
            parameters=parameters,
            error=float(final_error),
            method=method,
            n_evaluations=n_evaluations,
            global_time=global_time,
            local_time=local_time,
            history=history,
            # Per-call delta: the objective's counter spans the Estimation's
            # lifetime, and n_evaluations here is also per call.
            n_cache_hits=self.objective.n_cache_hits - cache_hits_before,
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(
        self,
        parameters: Mapping[str, float],
        measurements: Optional[MeasurementSet] = None,
    ) -> float:
        """RMSE of the model under ``parameters`` against a validation set."""
        validation_set = measurements if measurements is not None else self.measurements
        objective = SimulationObjective(
            model=self.model,
            measurements=validation_set,
            parameter_names=self.parameter_names,
            solver=self.objective.solver,
            solver_options=self.objective.solver_options,
        )
        theta = [float(parameters[name]) for name in self.parameter_names]
        return float(objective(theta))
