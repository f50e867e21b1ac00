"""Tests for the parameter estimation substrate (metrics, objective, GA, local, workflow)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.estimation import (
    Estimation,
    GeneticAlgorithm,
    LocalSearch,
    MeasurementSet,
    SimulationObjective,
    mae,
    nrmse,
    rmse,
)
from repro.estimation.metrics import l2_distance, relative_l2_dissimilarity
from repro.fmi import load_fmu
from repro.models.heatpump import HP1_TRUE_PARAMETERS, build_hp1_archive
from tests.conftest import disable_memo

FAST_GA = {"population_size": 10, "generations": 6, "patience": 4}


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_rmse_known_value(self):
        assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(np.sqrt(4 / 3))

    def test_rmse_penalizes_large_errors_more_than_mae(self):
        measured = [0, 0, 0, 0]
        simulated = [0, 0, 0, 4]
        assert rmse(measured, simulated) > mae(measured, simulated)

    def test_zero_error(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            rmse([1, 2], [1])

    def test_empty_series_rejected(self):
        with pytest.raises(EstimationError):
            rmse([], [])

    def test_nrmse_normalizes_by_range(self):
        assert nrmse([0, 10], [1, 11]) == pytest.approx(0.1)

    def test_overflowing_residuals_yield_inf(self):
        assert rmse([0.0], [1e200]) == float("inf")

    def test_l2_and_relative_dissimilarity(self):
        a = np.ones(10)
        b = np.ones(10) * 1.2
        assert l2_distance(a, b) == pytest.approx(np.sqrt(10) * 0.2)
        assert relative_l2_dissimilarity(a, b) == pytest.approx(0.2)

    @settings(max_examples=30, deadline=None)
    @given(
        series=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40),
        offset=st.floats(min_value=-5, max_value=5),
    )
    def test_rmse_of_constant_offset(self, series, offset):
        shifted = [v + offset for v in series]
        assert rmse(series, shifted) == pytest.approx(abs(offset), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(min_value=0.5, max_value=1.5),
    )
    def test_relative_dissimilarity_of_scaling(self, scale):
        base = np.linspace(1.0, 10.0, 25)
        assert relative_l2_dissimilarity(base, base * scale) == pytest.approx(abs(scale - 1.0), rel=1e-9)


# --------------------------------------------------------------------------- #
# Measurement sets
# --------------------------------------------------------------------------- #
class TestMeasurementSet:
    def test_from_rows_sorts_by_time(self):
        rows = [{"time": 2.0, "x": 5.0}, {"time": 0.0, "x": 1.0}, {"time": 1.0, "x": 3.0}]
        ms = MeasurementSet.from_rows(rows)
        assert list(ms.time) == [0.0, 1.0, 2.0]
        assert list(ms.series["x"]) == [1.0, 3.0, 5.0]

    def test_missing_time_column_rejected(self):
        with pytest.raises(EstimationError):
            MeasurementSet.from_rows([{"x": 1.0}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            MeasurementSet(time=np.array([0.0, 1.0]), series={"x": np.array([1.0])})

    def test_window_and_split(self):
        ms = MeasurementSet(time=np.arange(10.0), series={"x": np.arange(10.0)})
        windowed = ms.window(2.0, 5.0)
        assert windowed.time[0] == 2.0 and windowed.time[-1] == 5.0
        train, validation = ms.split(0.6)
        assert len(train.time) + len(validation.time) == 10

    def test_none_values_become_nan(self):
        ms = MeasurementSet.from_rows([{"time": 0.0, "x": None}, {"time": 1.0, "x": 2.0}])
        assert np.isnan(ms.series["x"][0])


# --------------------------------------------------------------------------- #
# Objective
# --------------------------------------------------------------------------- #
class TestSimulationObjective:
    def _objective(self, dataset):
        model = load_fmu(build_hp1_archive())
        return SimulationObjective(
            model=model,
            measurements=dataset.to_measurement_set(),
            parameter_names=["Cp", "R"],
        )

    def test_true_parameters_score_near_noise_level(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        error = objective([HP1_TRUE_PARAMETERS["Cp"], HP1_TRUE_PARAMETERS["R"]])
        assert error < 0.12  # close to the 0.05 degC measurement noise

    def test_wrong_parameters_score_worse(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        good = objective([HP1_TRUE_PARAMETERS["Cp"], HP1_TRUE_PARAMETERS["R"]])
        bad = objective([5.0, 8.0])
        assert bad > good * 3

    def test_unknown_parameter_rejected(self, hp1_dataset):
        model = load_fmu(build_hp1_archive())
        with pytest.raises(EstimationError):
            SimulationObjective(model, hp1_dataset.to_measurement_set(), ["nope"])

    def test_requires_observable_series(self):
        model = load_fmu(build_hp1_archive())
        ms = MeasurementSet(time=np.arange(5.0), series={"u": np.zeros(5)})
        with pytest.raises(EstimationError):
            SimulationObjective(model, ms, ["Cp"])

    def test_diverging_candidate_returns_inf_not_crash(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        assert np.isinf(objective([1e-9, 1e-9])) or objective([1e-9, 1e-9]) > 1.0

    def test_evaluation_counter(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        objective([1.5, 1.5])
        objective([1.4, 1.4])
        assert objective.n_evaluations == 2


# --------------------------------------------------------------------------- #
# Optimizers on analytic functions
# --------------------------------------------------------------------------- #
def sphere(theta):
    return float(np.sum((np.asarray(theta) - 0.5) ** 2))


def rosenbrock(theta):
    x, y = theta
    return float((1 - x) ** 2 + 100 * (y - x * x) ** 2)


class TestGeneticAlgorithm:
    def test_minimizes_sphere(self):
        ga = GeneticAlgorithm([(-2, 2), (-2, 2)], population_size=20, generations=25, seed=1)
        result = ga.run(sphere)
        assert result.best_error < 0.05
        assert np.all(np.abs(result.best_parameters - 0.5) < 0.3)

    def test_deterministic_for_fixed_seed(self):
        results = [
            GeneticAlgorithm([(-1, 1)], population_size=12, generations=8, seed=7).run(sphere)
            for _ in range(2)
        ]
        assert results[0].best_error == pytest.approx(results[1].best_error)
        assert results[0].best_parameters == pytest.approx(results[1].best_parameters)

    def test_respects_bounds(self):
        ga = GeneticAlgorithm([(0.0, 0.2)], population_size=10, generations=10, seed=3)
        result = ga.run(sphere)
        assert 0.0 <= result.best_parameters[0] <= 0.2

    def test_history_is_monotone_non_increasing(self):
        ga = GeneticAlgorithm([(-2, 2), (-2, 2)], population_size=14, generations=12, seed=5)
        result = ga.run(rosenbrock)
        assert all(b <= a + 1e-12 for a, b in zip(result.history, result.history[1:]))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(EstimationError):
            GeneticAlgorithm([(1.0, 1.0)])
        with pytest.raises(EstimationError):
            GeneticAlgorithm([(0.0, 1.0)], population_size=2)

    def test_initial_guess_is_used(self):
        ga = GeneticAlgorithm([(-5, 5)], population_size=8, generations=1, seed=2, elitism=1)
        result = ga.run(sphere, initial_guess=[0.5])
        assert result.best_error <= sphere([0.5]) + 1e-12


class TestLocalSearch:
    def test_slsqp_refines_to_optimum(self):
        search = LocalSearch([(-2, 2), (-2, 2)])
        result = search.run(sphere, [0.0, 0.0])
        assert result.best_error < 1e-6

    def test_coordinate_fallback(self):
        search = LocalSearch([(-2, 2), (-2, 2)], method="coordinate", max_iterations=60)
        result = search.run(sphere, [1.5, -1.5])
        assert result.best_error < 1e-3
        assert result.method == "coordinate"

    def test_bounds_are_respected(self):
        search = LocalSearch([(0.6, 2.0)])
        result = search.run(sphere, [1.8])
        assert result.best_parameters[0] >= 0.6 - 1e-9
        assert result.best_parameters[0] == pytest.approx(0.6, abs=1e-4)

    def test_invalid_method_rejected(self):
        with pytest.raises(EstimationError):
            LocalSearch([(0, 1)], method="newton")

    def test_wrong_guess_shape_rejected(self):
        with pytest.raises(EstimationError):
            LocalSearch([(0, 1), (0, 1)]).run(sphere, [0.5])


# --------------------------------------------------------------------------- #
# End-to-end Estimation workflow
# --------------------------------------------------------------------------- #
class TestEstimationWorkflow:
    def test_recovers_heat_pump_parameters(self, hp1_week_dataset):
        model = load_fmu(build_hp1_archive())
        estimation = Estimation(
            model,
            hp1_week_dataset.to_measurement_set(),
            parameters=["Cp", "R"],
            ga_options=FAST_GA,
            seed=3,
        )
        result = estimation.estimate("global+local")
        assert result.parameters["Cp"] == pytest.approx(HP1_TRUE_PARAMETERS["Cp"], abs=0.08)
        assert result.parameters["R"] == pytest.approx(HP1_TRUE_PARAMETERS["R"], abs=0.08)
        assert result.error < 0.1
        # The calibrated values are written back onto the model instance.
        assert model.get("Cp") == pytest.approx(result.parameters["Cp"])

    def test_local_only_from_good_warm_start(self, hp1_week_dataset):
        model = load_fmu(build_hp1_archive())
        estimation = Estimation(
            model, hp1_week_dataset.to_measurement_set(), parameters=["Cp", "R"], seed=3
        )
        result = estimation.estimate("local", initial_values=dict(HP1_TRUE_PARAMETERS))
        assert result.error < 0.1
        assert result.global_time == 0.0
        assert result.n_evaluations < 200

    def test_local_only_is_cheaper_than_global(self, hp1_week_dataset):
        measurement_set = hp1_week_dataset.to_measurement_set()
        full = Estimation(
            load_fmu(build_hp1_archive()), measurement_set, parameters=["Cp", "R"],
            ga_options=FAST_GA, seed=3,
        ).estimate("global+local")
        warm = Estimation(
            load_fmu(build_hp1_archive()), measurement_set, parameters=["Cp", "R"], seed=3
        ).estimate("local", initial_values=full.parameters)
        assert warm.n_evaluations < full.n_evaluations

    def test_bounds_come_from_model_description(self, hp1_week_dataset):
        model = load_fmu(build_hp1_archive())
        estimation = Estimation(model, hp1_week_dataset.to_measurement_set(), parameters=["Cp", "R"])
        bounds = estimation.bound_map()
        assert bounds["Cp"] == (0.1, 10.0)
        assert bounds["R"] == (0.1, 10.0)

    def test_unknown_method_rejected(self, hp1_week_dataset):
        model = load_fmu(build_hp1_archive())
        estimation = Estimation(model, hp1_week_dataset.to_measurement_set(), parameters=["Cp"])
        with pytest.raises(EstimationError):
            estimation.estimate("simulated-annealing")

    def test_validation_uses_held_out_window(self, hp1_week_dataset):
        measurement_set = hp1_week_dataset.to_measurement_set()
        train, validation = measurement_set.split(0.7)
        model = load_fmu(build_hp1_archive())
        estimation = Estimation(model, train, parameters=["Cp", "R"], ga_options=FAST_GA, seed=3)
        result = estimation.estimate("global+local")
        validation_error = estimation.validate(result.parameters, validation)
        assert validation_error < 0.2


# --------------------------------------------------------------------------- #
# Simulation memo cache
# --------------------------------------------------------------------------- #
class TestObjectiveMemo:
    def _objective(self, dataset, **kwargs):
        model = load_fmu(build_hp1_archive())
        return SimulationObjective(
            model=model,
            measurements=dataset.to_measurement_set(),
            parameter_names=["Cp", "R"],
            **kwargs,
        )

    def test_repeated_theta_is_served_from_cache(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        first = objective([1.5, 1.5])
        second = objective([1.5, 1.5])
        assert first == second
        assert objective.n_evaluations == 1
        assert objective.n_cache_hits == 1

    def test_keying_is_exact_not_rounded(self, hp1_dataset):
        """A candidate that differs by one ulp is a different candidate: the
        cache must never conflate it (rounding would, at some scale)."""
        objective = self._objective(hp1_dataset)
        objective([1.5, 1.5])
        objective([np.nextafter(1.5, 2.0), 1.5])
        assert objective.n_evaluations == 2
        assert objective.n_cache_hits == 0
        # ... while a bit-identical vector (list or array alike) hits.
        objective(np.array([1.5, 1.5]))
        assert objective.n_cache_hits == 1

    def test_distinct_candidates_are_not_conflated(self, hp1_dataset):
        objective = self._objective(hp1_dataset)
        a = objective([1.5, 1.5])
        b = objective([1.6, 1.5])
        assert a != b
        assert objective.n_evaluations == 2
        assert objective.n_cache_hits == 0

    def test_memo_can_be_disabled_and_cleared(self, hp1_dataset):
        objective = disable_memo(self._objective(hp1_dataset))
        objective([1.5, 1.5])
        objective([1.5, 1.5])
        assert objective.n_evaluations == 2
        assert objective.n_cache_hits == 0

        cached = self._objective(hp1_dataset)
        cached([1.5, 1.5])
        cached.clear_memo()
        cached([1.5, 1.5])
        assert cached.n_evaluations == 2

    def test_malformed_candidate_raises_and_leaves_the_memo_clean(self, hp1_dataset):
        """A wrongly shaped vector is a caller error, not an ``inf`` score:
        it must neither count as an evaluation nor poison the memo entry
        that shares its bytes with a valid candidate."""
        objective = self._objective(hp1_dataset)
        for malformed in (np.array([[1.5], [1.5]]), [1.5]):
            with pytest.raises(EstimationError, match="shape"):
                objective(malformed)
        assert objective.n_evaluations == 0
        assert objective([1.5, 1.5]) == self._objective(hp1_dataset)([1.5, 1.5])

    def test_cached_values_match_uncached_values(self, hp1_dataset):
        with_memo = self._objective(hp1_dataset)
        without_memo = disable_memo(self._objective(hp1_dataset))
        candidates = [[1.5, 1.5], [1.2, 1.8], [1.5, 1.5], [5.0, 8.0], [1.2, 1.8]]
        for theta in candidates:
            assert with_memo(theta) == without_memo(theta)
        assert with_memo.n_cache_hits == 2
        assert with_memo.n_evaluations == 3
        assert without_memo.n_evaluations == 5

    def test_memo_never_changes_estimation_results(self, hp1_week_dataset):
        """Algorithm 2 (G+LaG) must produce identical optima with and without
        the cache - only the simulation count may differ."""
        measurement_set = hp1_week_dataset.to_measurement_set()
        results = {}
        for memo in (True, False):
            estimation = Estimation(
                load_fmu(build_hp1_archive()),
                measurement_set,
                parameters=["Cp", "R"],
                ga_options=FAST_GA,
                seed=3,
            )
            if not memo:
                disable_memo(estimation.objective)
            results[memo] = estimation.estimate("global+local")
        assert results[True].parameters == results[False].parameters
        assert results[True].error == results[False].error
        assert results[True].history == results[False].history
        assert results[True].n_cache_hits > 0
        assert results[False].n_cache_hits == 0

    def test_tiny_scale_candidates_are_not_conflated(self, hp1_dataset):
        """Parameters far below 1.0 in magnitude get distinct cache entries."""
        objective = self._objective(hp1_dataset)
        objective([1e-13, 1.5])
        objective([3e-13, 1.5])
        assert objective.n_evaluations == 2
        assert objective.n_cache_hits == 0

    def test_cache_hits_are_reported_per_estimate_call(self, hp1_week_dataset):
        estimation = Estimation(
            load_fmu(build_hp1_archive()),
            hp1_week_dataset.to_measurement_set(),
            parameters=["Cp", "R"],
            ga_options=FAST_GA,
            seed=3,
        )
        first = estimation.estimate("global+local")
        second = estimation.estimate("local", initial_values=first.parameters)
        # Each run reports only its own hits; the deltas sum to the
        # objective's lifetime counter.
        assert first.n_cache_hits > 0
        assert first.n_cache_hits + second.n_cache_hits == estimation.objective.n_cache_hits

    def test_cache_hit_still_applies_candidate_to_model(self, hp1_dataset):
        """A hit skips the simulation but not simulate()'s set_many side
        effect: the model must reflect the candidate that was just scored."""
        model = load_fmu(build_hp1_archive())
        objective = SimulationObjective(
            model=model,
            measurements=hp1_dataset.to_measurement_set(),
            parameter_names=["Cp", "R"],
        )
        objective([1.5, 1.5])
        objective([1.2, 1.8])
        objective([1.5, 1.5])  # cache hit
        assert objective.n_cache_hits == 1
        assert model.get("Cp") == 1.5 and model.get("R") == 1.5
