"""Population-batched estimation: randomized batched-vs-sequential equivalence.

The corpus draws random FMU models from the shared factory in
``tests/conftest.py``, manufactures measurements by simulating a perturbed
"truth" instance, and asserts that a full `Estimation` run (every GA
generation and local finite-difference stencil scored as one ``(pop, d)``
fleet solve) is **bit-identical** to the sequential reference, which scores
each candidate row with ``objective(theta)`` in order: same parameters, same
error, same evaluation and cache-hit counts, same GA history.  The
mid-flight solver-error fallback and the duplicate-candidate memo
accounting are pinned separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError, SolverError
from repro.estimation import Estimation, MeasurementSet, SimulationObjective
from repro.fmi import load_fmu
from repro.fmi.model import FmuModel
from repro.models.heatpump import build_hp1_archive
from tests.conftest import disable_memo

#: Small but non-trivial budget: three generations exercise elitism
#: duplicates and memo hits, the local stage exercises the batched stencil.
CORPUS_GA = {"population_size": 6, "generations": 3, "patience": None}
CORPUS_LOCAL = {"max_iterations": 8}


def _measurements_for(system, archive, seed: int) -> MeasurementSet:
    """Measurements from a perturbed truth instance of the random model.

    Every state and output trajectory is observed and every input series is
    measured, so calibration exercises the full observation surface.
    """
    rng = np.random.default_rng(9000 + seed)
    grid = np.linspace(0.0, 2.0, 21)
    inputs = {
        name: (grid, np.sin(np.linspace(0.0, 6.0, 21) + i))
        for i, name in enumerate(system.inputs)
    }
    truth = FmuModel(archive, instance_name="truth")
    for name in system.parameters:
        truth.set(name, float(rng.uniform(0.6, 1.8)))
    result = truth.simulate(
        inputs=inputs or None,
        start_time=0.0,
        stop_time=2.0,
        output_times=grid,
        solver="rk4",
        solver_options={"step": float(grid[1] - grid[0])},
    )
    series = {name: result[name].copy() for name in system.state_names}
    for name in system.output_names:
        series[name] = result[name].copy()
    for name, (_, values) in inputs.items():
        series[name] = np.asarray(values, dtype=float)
    return MeasurementSet(time=grid, series=series)


def _score_rows(objective, thetas):
    """Sequential reference scorer: one ``objective(theta)`` per row, in order."""
    return np.array([objective(theta) for theta in np.asarray(thetas, dtype=float)])


def _run(estimation, method, batched):
    """Run ``estimation``; ``batched=False`` scores populations row by row."""
    if batched:
        return estimation.estimate(method)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationObjective, "evaluate_population", _score_rows)
        return estimation.estimate(method)


def _estimate(archive, system, measurements, seed, method, memo, batched):
    estimation = Estimation(
        FmuModel(archive),
        measurements,
        parameters=list(system.parameters),
        bounds={name: (0.25, 2.5) for name in system.parameters},
        ga_options=dict(CORPUS_GA),
        local_options=dict(CORPUS_LOCAL),
        seed=seed,
    )
    if not memo:
        disable_memo(estimation.objective)
    return _run(estimation, method, batched)


def _assert_bit_identical(batched, sequential, context: str) -> None:
    assert batched.parameters == sequential.parameters, context
    assert batched.error == sequential.error, context
    assert batched.n_evaluations == sequential.n_evaluations, context
    assert batched.n_cache_hits == sequential.n_cache_hits, context
    assert batched.history == sequential.history, context
    assert batched.method == sequential.method, context


# --------------------------------------------------------------------------- #
# Randomized equivalence corpus
# --------------------------------------------------------------------------- #
class TestPopulationBatchCorpus:
    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_global_runs_bit_identical(self, seed, memo, random_system, random_archive):
        system = random_system(seed)
        archive = random_archive(f"popbatch{seed}", system)
        measurements = _measurements_for(system, archive, seed)
        results = [
            _estimate(archive, system, measurements, 100 + seed, "global", memo, batch)
            for batch in (True, False)
        ]
        _assert_bit_identical(results[0], results[1], f"seed={seed} memo={memo}")

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("seed", range(0, 20, 2))
    def test_global_plus_local_runs_bit_identical(
        self, seed, memo, random_system, random_archive
    ):
        system = random_system(seed)
        archive = random_archive(f"popbatchgl{seed}", system)
        measurements = _measurements_for(system, archive, seed)
        results = [
            _estimate(
                archive, system, measurements, 200 + seed, "global+local", memo, batch
            )
            for batch in (True, False)
        ]
        _assert_bit_identical(results[0], results[1], f"seed={seed} memo={memo}")


# --------------------------------------------------------------------------- #
# Fallback paths
# --------------------------------------------------------------------------- #
class TestPopulationBatchFallbacks:
    def _hp1_measurements(self, hp1_week_dataset):
        return hp1_week_dataset.to_measurement_set()

    def test_injected_solver_error_mid_generation_matches(
        self, hp1_week_dataset, monkeypatch
    ):
        """A SolverError aborting the batched solve mid-generation must not
        change any result: the objective bisects down to sequential scoring."""
        measurements = self._hp1_measurements(hp1_week_dataset)

        def run(batch: bool):
            estimation = Estimation(
                load_fmu(build_hp1_archive()),
                measurements,
                parameters=["Cp", "R"],
                ga_options={"population_size": 6, "generations": 2, "patience": None},
                local_options={"max_iterations": 5},
                seed=7,
            )
            return _run(estimation, "global+local", batch)

        sequential = run(False)

        real_simulate_fleet = FmuModel.simulate_fleet

        def failing_simulate_fleet(rows, *args, **kwargs):
            if len(rows) > 2:
                raise SolverError("injected mid-generation failure")
            return real_simulate_fleet(rows, *args, **kwargs)

        monkeypatch.setattr(FmuModel, "simulate_fleet", staticmethod(failing_simulate_fleet))
        batched = run(True)
        _assert_bit_identical(batched, sequential, "injected SolverError")

    def test_batched_solve_is_actually_used(self, hp1_week_dataset, monkeypatch):
        """Guard against the batched path silently sequentializing."""
        measurements = self._hp1_measurements(hp1_week_dataset)
        fleet_sizes = []
        real_simulate_fleet = FmuModel.simulate_fleet

        def recording_simulate_fleet(rows, *args, **kwargs):
            fleet_sizes.append(len(rows))
            return real_simulate_fleet(rows, *args, **kwargs)

        monkeypatch.setattr(
            FmuModel, "simulate_fleet", staticmethod(recording_simulate_fleet)
        )
        estimation = Estimation(
            load_fmu(build_hp1_archive()),
            measurements,
            parameters=["Cp", "R"],
            ga_options={"population_size": 8, "generations": 2, "patience": None},
            seed=3,
        )
        estimation.estimate("global")
        assert fleet_sizes and max(fleet_sizes) == 8


# --------------------------------------------------------------------------- #
# Memo accounting with duplicate candidates
# --------------------------------------------------------------------------- #
class TestPopulationMemoAccounting:
    def _objective(self, hp1_dataset, **kwargs):
        return SimulationObjective(
            model=load_fmu(build_hp1_archive()),
            measurements=hp1_dataset.to_measurement_set(),
            parameter_names=["Cp", "R"],
            **kwargs,
        )

    def test_duplicate_rows_pin_evaluations_and_hits(self, hp1_dataset):
        """A population with elitism-style repeats: the repeats are deduped
        before the batched solve and counted as cache hits, exactly as the
        sequential loop (first occurrence simulates, repeat hits) would."""
        objective = self._objective(hp1_dataset)
        population = np.array(
            [[1.5, 1.5], [1.2, 1.8], [1.5, 1.5], [2.0, 1.0], [1.2, 1.8], [1.5, 1.5]]
        )
        errors = objective.evaluate_population(population)
        assert objective.n_evaluations == 3  # unique candidates simulate once
        assert objective.n_cache_hits == 3  # every repeat is a hit
        assert errors[0] == errors[2] == errors[5]
        assert errors[1] == errors[4]
        # A second pass over the same population is served entirely by memo.
        again = objective.evaluate_population(population)
        assert objective.n_evaluations == 3
        assert objective.n_cache_hits == 9
        np.testing.assert_array_equal(again, errors)

    def test_duplicate_accounting_matches_sequential_loop(self, hp1_dataset):
        population = np.array(
            [[1.5, 1.5], [1.2, 1.8], [1.5, 1.5], [2.0, 1.0], [1.2, 1.8]]
        )
        batched = self._objective(hp1_dataset)
        batched_errors = batched.evaluate_population(population)
        sequential = self._objective(hp1_dataset)
        sequential_errors = np.array([sequential(theta) for theta in population])
        np.testing.assert_array_equal(batched_errors, sequential_errors)
        assert batched.n_evaluations == sequential.n_evaluations
        assert batched.n_cache_hits == sequential.n_cache_hits

    def test_memo_disabled_simulates_every_row(self, hp1_dataset):
        """Without the memo the sequential loop simulates duplicates too;
        the batched path must count identically."""
        objective = disable_memo(self._objective(hp1_dataset))
        population = np.array([[1.5, 1.5], [1.5, 1.5], [1.2, 1.8]])
        objective.evaluate_population(population)
        assert objective.n_evaluations == 3
        assert objective.n_cache_hits == 0

    def test_model_left_at_last_candidate(self, hp1_dataset):
        """The sequential loop leaves the model holding the last scored
        candidate (simulate()'s side effect); the batched path must too."""
        objective = self._objective(hp1_dataset)
        population = np.array([[1.5, 1.5], [1.2, 1.8]])
        objective.evaluate_population(population)
        assert objective.model.get("Cp") == 1.2
        assert objective.model.get("R") == 1.8

    def test_population_shape_validated(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        with pytest.raises(EstimationError, match="matrix"):
            objective.evaluate_population(np.ones(4))
        with pytest.raises(EstimationError, match="matrix"):
            objective.evaluate_population(np.ones((3, 5)))
        assert objective.evaluate_population(np.empty((0, 2))).size == 0


# --------------------------------------------------------------------------- #
# Local-search stencil
# --------------------------------------------------------------------------- #
class TestGradientStencil:
    def test_stencil_never_leaves_the_bounds(self):
        """The finite-difference stencil must clip to the box: out-of-bounds
        probes can be unsimulatable (scipy's internal differences never
        leave the box either)."""
        from repro.estimation.local import LocalSearch

        search = LocalSearch([(0.0, 1.0), (0.5, 2.0)])
        theta = np.array([0.0, 2.0])  # one coordinate on each bound
        stencil = search._fd_stencil(theta)
        assert stencil.shape == (5, 2)
        np.testing.assert_array_equal(stencil[0], theta)
        assert (stencil[:, 0] >= 0.0).all() and (stencil[:, 0] <= 1.0).all()
        assert (stencil[:, 1] >= 0.5).all() and (stencil[:, 1] <= 2.0).all()
        # The clipped inner points coincide with theta, so the one-sided
        # difference reuses row 0's value through the memo/dedup.
        assert stencil[2, 0] == theta[0]
        assert stencil[3, 1] == theta[1]

    def test_local_search_converges_from_a_bound(self):
        """A start pinned to a bound must not blow up the gradient."""
        from repro.estimation.local import LocalSearch

        def sphere(theta):
            return float(np.sum((np.asarray(theta) - 0.5) ** 2))

        search = LocalSearch([(0.0, 2.0), (0.0, 2.0)])
        result = search.run(sphere, [0.0, 2.0])
        assert result.best_error < 1e-6
