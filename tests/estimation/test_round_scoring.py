"""A calibration round scored straight from its fleet's arrays.

Candidates are bound as rows of one fleet's parameter matrix and every row
is scored in one vectorized pass.  Each score must equal, bit for bit, the
per-row reference: the candidate set on its own copy of the model,
simulated alone with :meth:`FmuModel.simulate`, and scored by the per-result
formula frozen below - for lockstep rounds of several objectives (and one),
observed states and outputs, NaN-masked measured series and diverging
candidates, with unchanged evaluation and cache-hit counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.estimation import MeasurementSet, SimulationObjective, lockstep
from repro.fmi.dynamics import OdeSystem, OutputEquation, StateEquation
from repro.fmi.model import FmuModel
from tests.conftest import make_random_archive

GRID = np.linspace(0.0, 4.0, 41)
SYSTEM = OdeSystem(
    states=[
        StateEquation("x", "(u - x) / (a * b) + 0.1 * time", start=1.0),
        StateEquation("z", "x - z / b", start=0.0),
    ],
    outputs=[OutputEquation("y", "a * x + z * u")],
    inputs=["u"],
    parameters={"a": 1.0, "b": 1.0},
)
ARCHIVE = make_random_archive("RoundScoring", SYSTEM)


def reference_score(objective, result) -> float:
    """Mean RMSE of one simulation result, one row at a time: the scorer
    as it stood before rounds were scored from the fleet's arrays."""
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, mask, measured in objective._scored:
            simulated = result[name] if mask is None else result[name][mask]
            error = float(np.sqrt(np.mean((measured - simulated) ** 2)))
            errors.append(error if math.isfinite(error) else float("inf"))
    if not errors:
        return float("inf")
    return float(np.mean(errors))


def reference_scores(objective, thetas) -> np.ndarray:
    """Each candidate on its own clone, simulated alone; a failing one
    scores ``inf``."""
    scores = []
    for theta in thetas:
        model = objective.model.clone()
        objective._apply(model, theta)
        try:
            result = model.simulate(
                inputs=objective.input_series,
                start_time=float(GRID[0]),
                stop_time=float(GRID[-1]),
                output_times=GRID,
                solver=objective.solver,
                solver_options=objective.solver_options,
            )
        except Exception:
            scores.append(float("inf"))
            continue
        scores.append(reference_score(objective, result))
    return np.array(scores)


def _objective(kind: int, seed: int) -> SimulationObjective:
    """Objectives of one batch key with different observations:

    0. observes state ``x`` and output ``y``;
    1. observes state ``z`` and output ``y``, both with NaN holes;
    2. estimates ``a`` only, on an instance with its own ``b``, observing
       ``x`` with a NaN first sample.
    """
    rng = np.random.default_rng(seed)
    truth = FmuModel(ARCHIVE)
    truth.set_many({"a": rng.uniform(0.8, 1.5), "b": rng.uniform(0.8, 1.5)})
    u = 0.5 + 0.4 * np.sin(GRID + rng.uniform(0, 3))
    result = truth.simulate(inputs={"u": (GRID, u)}, output_times=GRID)
    series = {"u": u}
    for name in ("x", "y", "z"):
        series[name] = result[name] + rng.normal(0.0, 0.05, GRID.size)
    model = FmuModel(ARCHIVE)
    if kind == 1:
        for name in ("z", "y"):
            series[name][rng.choice(GRID.size, 9, replace=False)] = np.nan
        observed, parameters = ["z", "y"], ["a", "b"]
    elif kind == 2:
        series["x"][0] = np.nan
        model.set("b", 1.3)
        observed, parameters = ["x"], ["a"]
    else:
        observed, parameters = ["x", "y"], ["a", "b"]
    return SimulationObjective(
        model, MeasurementSet(time=GRID, series=series), parameters, observed_names=observed
    )


def _candidates(objective, n: int, seed: int, diverging: int = 0) -> np.ndarray:
    """``n`` candidate rows; the first ``diverging`` make RK4 blow up
    (a * b far below the step), at random positions."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.5, 2.0, (n, len(objective.parameter_names)))
    thetas[:diverging] = 1e-4 * (1.0 + np.arange(diverging))[:, None]
    return thetas[rng.permutation(n)]


ROUNDS = [
    # (objective kinds, rows per request, diverging rows per request)
    ([0], [1], [0]),
    ([1], [1], [1]),
    ([0, 1, 2], [3, 1, 2], [0, 0, 0]),
    ([0, 1, 2], [40, 40, 40], [0, 0, 0]),
    ([1], [120], [0]),
    ([0, 1, 2], [7, 60, 5], [1, 2, 0]),
    ([2, 0], [90, 30], [3, 0]),
]


class TestRoundScoring:
    @pytest.mark.parametrize("round_index", range(len(ROUNDS)))
    def test_round_equals_rows_scored_alone(self, round_index):
        kinds, sizes, diverging = ROUNDS[round_index]
        objectives = [_objective(kind, 10 * round_index + k) for k, kind in enumerate(kinds)]
        assert len({lockstep.batch_key(o) for o in objectives}) == 1
        requests = [
            (objective, _candidates(objective, n, 100 * round_index + k, bad))
            for k, (objective, n, bad) in enumerate(zip(objectives, sizes, diverging))
        ]
        scores = lockstep.score_together(requests)
        for (objective, thetas), got, bad in zip(requests, scores, diverging):
            want = reference_scores(objective, thetas)
            np.testing.assert_array_equal(got, want)
            assert int(np.isinf(got).sum()) >= bad
            assert objective.n_evaluations == len(thetas)
            assert objective.n_cache_hits == 0

    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_population_equals_one_by_one(self, kind):
        """``evaluate_population`` with repeats and diverging rows gives the
        scores, counters and final model values of scoring one by one."""
        together, alone = _objective(kind, 7), _objective(kind, 7)
        thetas = _candidates(together, 30, 8, diverging=2)
        thetas = np.vstack([thetas, thetas[[3, 0, 3]]])
        got = together.evaluate_population(thetas)
        want = np.array([alone(theta) for theta in thetas])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, reference_scores(together, thetas))
        assert (together.n_evaluations, together.n_cache_hits) == (
            alone.n_evaluations, alone.n_cache_hits,
        ) == (30, 3)
        assert together.model.parameters() == alone.model.parameters()
        assert together.model.get("x") == alone.model.get("x")
