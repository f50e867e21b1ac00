"""Lockstep ``fmu_parest``: a fleet calibrated together equals one by one.

The reference calibrates each instance alone, in MI order, with the
one-at-a-time algorithm ``fmu_parest`` used before its calibrations ran in
lockstep (:func:`_one_by_one`).  Every corpus fleet is calibrated both ways
in two fresh sessions, and every outcome field - parameters, error,
method, evaluation and cache-hit counts, the MI flag and the dissimilarity -
must be equal, as must the estimates written to the catalogue.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import cancellation
from repro.core import Session
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.data.synthetic import scale_dataset
from repro.errors import EstimationError, SolverError, TimeoutError
from repro.estimation import Estimation
from repro.estimation.genetic import GeneticAlgorithm
from repro.estimation.local import LocalSearch
from repro.fmi.model import FmuModel
from repro.models.heatpump import hp0_source, hp1_source
from tests.conftest import FAST_GA_OPTIONS, FAST_LOCAL_OPTIONS

FIELDS = (
    "instance_id", "parameters", "error", "method", "n_evaluations",
    "n_cache_hits", "used_mi_optimization", "dissimilarity",
)

#: Houses as (model source, dataset seed, delta).  Relative to the first
#: house, the near ones differ by 5-10% (warm-started), the far ones by 50%
#: or more (full global + local search).
NEAR = [(hp1_source, 4, 1.0), (hp1_source, 9, 1.0), (hp1_source, 4, 1.1)]
FAR = [(hp1_source, 9, 1.5), (hp1_source, 4, 2.0)]
TWO_MODELS = [(hp1_source, 4, 1.0), (hp0_source, 4, 1.0), (hp1_source, 4, 1.1),
              (hp0_source, 9, 1.0)]


def _fleet(tmp_path, houses, tag: str, bounds=None, seed: int = 2) -> Session:
    """A session with one instance and one measurement table per house."""
    session = Session(
        storage_dir=str(tmp_path / f"fmu_{tag}"),
        register_ml=False,
        ga_options=dict(FAST_GA_OPTIONS),
        local_options=dict(FAST_LOCAL_OPTIONS),
        seed=seed,
    )
    for k, (source, data_seed, delta) in enumerate(houses):
        dataset = scale_dataset(generate_hp1_dataset(hours=48, seed=data_seed), delta)
        load_dataset(session.database, dataset, table_name=f"m{k}")
        instance = session.create(source(), f"i{k}")
        for name, (low, high) in (bounds or {}).items():
            instance.set_bounds(name, low, high)
    return session


def _args(houses):
    return [f"i{k}" for k in range(len(houses))], [f"SELECT * FROM m{k}" for k in range(len(houses))]


def _one_by_one(estimator, instance_ids, input_sqls, threshold=0.2, use_mi_optimization=True):
    """The reference: each instance calibrated alone, in order, written back
    before the next one starts (Algorithm 3 as a plain loop)."""
    outcomes = []
    reference = reference_measurements = reference_model = None
    for index, (instance_id, sql) in enumerate(zip(instance_ids, input_sqls)):
        measurements = estimator.load_measurements(sql)
        model_id = estimator.instances.model_id_of(instance_id)
        if index == 0 or not use_mi_optimization or model_id != reference_model:
            outcome = estimator.estimate_single(instance_id, sql, measurements=measurements)
            if index == 0:
                reference, reference_measurements, reference_model = outcome, measurements, model_id
            outcomes.append(outcome)
            continue
        dissimilarity = estimator.measurement_dissimilarity(reference_measurements, measurements)
        if dissimilarity >= threshold:
            outcome = estimator.estimate_single(instance_id, sql, measurements=measurements)
        else:
            for name, value in reference.parameters.items():
                estimator.catalog.set_instance_value(instance_id, name, value)
            outcome = estimator.estimate_single(
                instance_id, sql, method="local", initial_values=reference.parameters,
                measurements=measurements,
            )
            outcome.used_mi_optimization = True
        outcome.dissimilarity = dissimilarity
        outcomes.append(outcome)
    return outcomes


def _estimates(session, instance_ids):
    return {i: session.catalog.instance_values(i) for i in instance_ids}


def _lockstep_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-lockstep")]


def _assert_same(tmp_path, houses, bounds=None, calls=None, **kwargs):
    instance_ids, sqls = calls or _args(houses)
    together = _fleet(tmp_path, houses, "together", bounds)
    alone = _fleet(tmp_path, houses, "alone", bounds)
    got = together.estimator.estimate(instance_ids, sqls, **kwargs)
    want = _one_by_one(alone.estimator, instance_ids, sqls, **kwargs)
    for g, w in zip(got, want):
        for field in FIELDS:
            assert getattr(g, field) == getattr(w, field), (g.instance_id, field)
    assert len(got) == len(want)
    assert _estimates(together, instance_ids) == _estimates(alone, instance_ids)
    assert not _lockstep_threads()
    return got


@pytest.fixture()
def solves(monkeypatch):
    """Records every solver call: the fleet size of each ``simulate_batch``
    and a 1 for each scalar ``simulate``."""
    sizes = []
    real_batch, real_simulate = FmuModel.simulate_batch, FmuModel.simulate

    def batch(models, *args, **kwargs):
        sizes.append(len(models))
        return real_batch(models, *args, **kwargs)

    def simulate(self, *args, **kwargs):
        sizes.append(1)
        return real_simulate(self, *args, **kwargs)

    monkeypatch.setattr(FmuModel, "simulate_batch", staticmethod(batch))
    monkeypatch.setattr(FmuModel, "simulate", simulate)
    return sizes


class TestLockstepEquivalence:
    @pytest.mark.parametrize("use_mi", [True, False])
    def test_near_and_far_houses(self, tmp_path, use_mi):
        outcomes = _assert_same(tmp_path, NEAR + FAR, use_mi_optimization=use_mi)
        warm = [o.used_mi_optimization for o in outcomes]
        assert warm == ([False, True, True, False, False] if use_mi else [False] * 5)

    def test_two_models_in_one_call(self, tmp_path):
        outcomes = _assert_same(tmp_path, TWO_MODELS)
        assert [o.dissimilarity is None for o in outcomes] == [True, True, False, True]

    def test_repeated_instance_is_written_back_in_order(self, tmp_path):
        # i0 calibrates twice, on m0 then m2: the second result must win.
        calls = (["i0", "i1", "i0"], ["SELECT * FROM m0", "SELECT * FROM m1", "SELECT * FROM m2"])
        _assert_same(tmp_path, FAR + NEAR[:1], calls=calls, use_mi_optimization=False)

    def test_diverging_candidates_force_the_bisect(self, tmp_path, monkeypatch):
        # R * Cp down to 4e-4 h against a 1 h RK4 step: many candidates blow
        # up, so merged fleets fail and every request bisects on its own.
        failed = []
        real = FmuModel.simulate_batch

        def recording(models, *args, **kwargs):
            try:
                return real(models, *args, **kwargs)
            except SolverError:
                failed.append(len(models))
                raise

        monkeypatch.setattr(FmuModel, "simulate_batch", staticmethod(recording))
        bounds = {"Cp": (0.02, 0.3), "R": (0.02, 0.3)}
        _assert_same(tmp_path, FAR + NEAR[:1], bounds=bounds, use_mi_optimization=False)
        assert max(failed) > FAST_GA_OPTIONS["population_size"]

    def test_fleet_rows_are_solved_together(self, tmp_path, solves):
        houses = FAR + NEAR[:1]
        session = _fleet(tmp_path, houses, "merged")
        session.estimator.estimate(*_args(houses), use_mi_optimization=False)
        together = len(solves)
        solves.clear()
        alone = _fleet(tmp_path, houses, "alone")
        _one_by_one(alone.estimator, *_args(houses), use_mi_optimization=False)
        assert max(solves) == FAST_GA_OPTIONS["population_size"]
        assert together < 0.6 * len(solves)

    def test_single_instance_starts_no_thread(self, tmp_path, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        session = _fleet(tmp_path, NEAR[:1], "single")
        session.estimator.estimate(*_args(NEAR[:1]))
        # Instance 0 alone, then one warm-started instance alone: inline too.
        session = _fleet(tmp_path, NEAR[:2], "pair")
        session.estimator.estimate(*_args(NEAR[:2]))
        assert started == []

    def test_stage_times_do_not_exceed_the_wall_time(self, tmp_path):
        session = _fleet(tmp_path, NEAR + FAR, "times")
        started = time.perf_counter()
        outcomes = session.estimator.estimate(*_args(NEAR + FAR))
        wall = time.perf_counter() - started
        assert all(o.global_time > 0 for o in outcomes if o.method == "global+local")
        assert all(o.local_time > 0 for o in outcomes)
        assert sum(o.total_time for o in outcomes) <= wall


class TestLockstepFailures:
    def test_deadline_mid_round_raises_and_leaves_no_thread(self, tmp_path, monkeypatch):
        session = _fleet(tmp_path, FAR + NEAR[:1], "deadline")
        token = cancellation.CancelToken()
        calls = []
        real = FmuModel.simulate_batch

        def expiring(models, *args, **kwargs):
            calls.append(len(models))
            if len(calls) == 3:
                token.deadline = time.monotonic()  # fires at the next check
            return real(models, *args, **kwargs)

        monkeypatch.setattr(FmuModel, "simulate_batch", staticmethod(expiring))
        with cancellation.activate(token), pytest.raises(TimeoutError):
            session.estimator.estimate(*_args(FAR + NEAR[:1]), use_mi_optimization=False)
        assert len(calls) == 3
        assert not _lockstep_threads()

    def _failing(self, monkeypatch, stage_failures):
        """Make the named instances raise EstimationError in a given stage."""
        for cls in (GeneticAlgorithm, LocalSearch):
            real = cls.run

            def run(self, objective, *args, _real=real, _stage=cls.__name__, **kwargs):
                victim = objective.model.instance_name
                if stage_failures.get(victim) == _stage:
                    raise EstimationError(f"{victim} failed in {_stage}")
                return _real(self, objective, *args, **kwargs)

            monkeypatch.setattr(cls, "run", run)

    @pytest.mark.parametrize(
        "failures, expected",
        [
            # A lower index failing late still wins over a higher one failing early.
            ({"i1": "LocalSearch", "i3": "GeneticAlgorithm"}, "i1 failed in LocalSearch"),
            ({"i3": "GeneticAlgorithm"}, "i3 failed in GeneticAlgorithm"),
            ({"i0": "LocalSearch"}, "i0 failed in LocalSearch"),
        ],
    )
    def test_lowest_index_error_is_raised(self, tmp_path, monkeypatch, failures, expected):
        houses = FAR + NEAR
        self._failing(monkeypatch, failures)
        instance_ids, sqls = _args(houses)
        together = _fleet(tmp_path, houses, "together")
        alone = _fleet(tmp_path, houses, "alone")
        with pytest.raises(EstimationError, match=expected):
            together.estimator.estimate(instance_ids, sqls)
        with pytest.raises(EstimationError, match=expected):
            _one_by_one(alone.estimator, instance_ids, sqls)
        # The instances before the failing one were written back, as one by one.
        assert _estimates(together, instance_ids) == _estimates(alone, instance_ids)
        assert not _lockstep_threads()

    def test_construction_error_keeps_lower_instances(self, tmp_path):
        houses = FAR + NEAR
        session = _fleet(tmp_path, houses, "construct")
        # A measurement query with no observable series fails when instance
        # 2's estimation is built, before any calibration runs.
        instance_ids, sqls = _args(houses)
        sqls[2] = "SELECT time, u FROM m2"
        with pytest.raises(EstimationError, match="no measured series"):
            session.estimator.estimate(instance_ids, sqls)
        values = _estimates(session, instance_ids)
        assert values["i0"]["Cp"] != 1.5 and values["i1"]["Cp"] != 1.5
        assert values["i3"]["Cp"] == 1.5 and values["i4"]["Cp"] == 1.5
        assert not _lockstep_threads()


def test_estimation_equivalence_with_direct_estimate(tmp_path):
    """The lockstep outcome of each instance equals ``Estimation.estimate``
    on that instance alone (here: MI off, so every instance is G+LaG)."""
    houses = FAR + NEAR[:1]
    session = _fleet(tmp_path, houses, "direct")
    outcomes = session.estimator.estimate(*_args(houses), use_mi_optimization=False)
    alone = _fleet(tmp_path, houses, "alone")
    for k, outcome in enumerate(outcomes):
        estimation = Estimation(
            alone.catalog.runtime_model(f"i{k}"),
            alone.estimator.load_measurements(f"SELECT * FROM m{k}"),
            parameters=alone.instances.parameter_names(f"i{k}"),
            bounds=alone.instances.bounds(f"i{k}"),
            ga_options=dict(FAST_GA_OPTIONS),
            local_options=dict(FAST_LOCAL_OPTIONS),
            seed=2,
        )
        result = estimation.estimate()
        assert outcome.parameters == result.parameters
        assert outcome.error == result.error
        assert outcome.n_evaluations == result.n_evaluations
        assert outcome.n_cache_hits == result.n_cache_hits
        np.testing.assert_array_equal(
            [outcome.parameters[n] for n in ("Cp", "R")],
            [result.parameters[n] for n in ("Cp", "R")],
        )
