"""Population-batched parameter estimation vs. the sequential path (not a paper table).

``fmu_parest`` used to simulate one candidate at a time: population x
generations full model simulations per calibrated instance.  With
population batching, every GA generation (and every local-search
finite-difference stencil) is scored as **one** ``(pop, d)`` batched fleet
solve through :meth:`repro.fmi.model.FmuModel.simulate_fleet` - roughly an
order of magnitude fewer solver invocations per calibration.

This benchmark calibrates a five-zone heat pump instance end to end through
``fmu_parest`` (measurement query, GA global stage at population 48, SLSQP
local refinement, catalogue write-back) batched and sequentially (the
sequential arm scores each population one row at a time), after asserting
the two paths return **identical** estimates (parameters, error and
evaluation counts are bit-equal - the batched solver walks the same step
sequences).  Target: >= 3x end-to-end at population >= 24; the
record also reports the smaller populations to show the scaling.

Run with:  pytest benchmarks/bench_population_estimation.py
      or:  python benchmarks/bench_population_estimation.py [--smoke]

``--smoke`` runs a reduced-budget pass (used by CI to exercise the batched
estimation path and the equivalence check on every push without timing
flakiness); it writes ``BENCH_population_estimation.smoke.json``, flagged
with ``"smoke": true``.  The smoke pass also calibrates a four-house MI
fleet in one ``fmu_parest`` call, with the MI optimization on and off, and
asserts that the lockstep calibration (every instance's pending candidates
scored as one batched solve per round) returns exactly what calibrating
the houses one at a time returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    _HERE = Path(__file__).resolve().parent
    if str(_HERE) not in sys.path:
        sys.path.insert(0, str(_HERE))

from bench_simulation_kernels import HP5_SOURCE

from repro.core.session import Session
from repro.estimation.objective import SimulationObjective
from repro.fmi.model import FmuModel

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_population_estimation.json"
#: Where ``--smoke`` writes, so a smoke run leaves the full-run record alone.
SMOKE_RECORD_PATH = RECORD_PATH.with_suffix(".smoke.json")

POPULATION = 48
GENERATIONS = 12
PARAMETERS = ["Cp1", "R12"]
TRUE_VALUES = {"Cp1": 1.8, "R12": 1.0}


#: The MI fleet's houses as (truth values, input amplitude).  Houses 1 and
#: 2 measure within the 20% dissimilarity threshold of house 0, so MI
#: warm-starts them; house 3's input differs by 50% (full G+LaG).
FLEET = [
    (TRUE_VALUES, 0.4),
    ({"Cp1": 1.9, "R12": 1.05}, 0.4),
    ({"Cp1": 1.7, "R12": 0.95}, 0.42),
    ({"Cp1": 2.6, "R12": 1.6}, 0.2),
]

#: Outcome fields that must match between lockstep and one-by-one runs.
OUTCOME_FIELDS = (
    "parameters", "error", "method", "n_evaluations", "n_cache_hits",
    "used_mi_optimization", "dissimilarity",
)


def _build_session(
    population: int, generations: int, hours: float, houses=((TRUE_VALUES, 0.4),)
) -> Session:
    """A session with one HP5 instance per house and truth-derived
    measurements: instance ``HP5Cal`` and table ``m`` for one house,
    ``HP5House{k}`` and ``m{k}`` for a fleet."""
    session = Session(
        register_ml=False,
        ga_options={"population_size": population, "generations": generations,
                    "patience": None},
        local_options={"max_iterations": 5},
        seed=1,
    )
    grid = np.linspace(0.0, hours, int(hours * 4) + 1)
    cursor = session.cursor()
    for k, (truth_values, amplitude) in enumerate(houses):
        instance_id, table = ("HP5Cal", "m") if len(houses) == 1 else (f"HP5House{k}", f"m{k}")
        instance = session.create(HP5_SOURCE, instance_id)
        # Informed bounds, as a pgFMU user would set them with
        # fmu_set_minimum / fmu_set_maximum: the box stays inside the
        # objective solver's stable region, so candidates calibrate instead
        # of diverging.
        instance.set_bounds("Cp1", 0.8, 6.0)
        instance.set_bounds("R12", 0.4, 6.0)
        u = 0.5 + amplitude * np.sin(grid / 5.0)
        truth = session.catalog.runtime_model(instance_id).clone()
        truth.set_many(truth_values)
        measured = truth.simulate(
            inputs={"u": (grid, u)},
            start_time=0.0,
            stop_time=hours,
            output_times=grid,
            solver="rk4",
            solver_options={"step": float(grid[1] - grid[0])},
        )
        cursor.execute(
            f"CREATE TABLE {table} (time double precision, u double precision, "
            "x1 double precision)"
        )
        cursor.executemany(
            f"INSERT INTO {table} VALUES ($1, $2, $3)",
            [
                [float(t), float(uv), float(xv)]
                for t, uv, xv in zip(grid, u, measured["x1"])
            ],
        )
    return session


def _score_rows(objective, thetas):
    """The sequential arm's population scorer: one ``objective(theta)`` per row."""
    return np.array([objective(theta) for theta in np.asarray(thetas, dtype=float)])


def _run_parest(population: int, generations: int, hours: float, batch: bool):
    """One end-to-end fmu_parest run; returns (seconds, outcome, solver calls)."""
    session = _build_session(population, generations, hours)

    solve_calls = {"sequential": 0, "batched": 0}
    real_simulate_fleet = FmuModel.simulate_fleet

    def counting_simulate_fleet(rows, *args, **kwargs):
        solve_calls["batched" if len(rows) > 1 else "sequential"] += 1
        return real_simulate_fleet(rows, *args, **kwargs)

    real_evaluate_population = SimulationObjective.evaluate_population
    FmuModel.simulate_fleet = staticmethod(counting_simulate_fleet)
    if not batch:
        SimulationObjective.evaluate_population = _score_rows
    try:
        started = time.perf_counter()
        outcomes = session.parest(
            ["HP5Cal"], ["SELECT * FROM m"], parameters=list(PARAMETERS)
        )
        elapsed = time.perf_counter() - started
    finally:
        FmuModel.simulate_fleet = staticmethod(real_simulate_fleet)
        SimulationObjective.evaluate_population = real_evaluate_population
    return elapsed, outcomes[0], solve_calls


def measure_population_estimation(
    population: int = POPULATION,
    generations: int = GENERATIONS,
    hours: float = 48.0,
    rounds: int = 3,
) -> dict:
    # Equivalence first: the two paths must return identical estimates.
    _, batched_outcome, batched_calls = _run_parest(population, generations, hours, True)
    _, sequential_outcome, sequential_calls = _run_parest(
        population, generations, hours, False
    )
    assert batched_outcome.parameters == sequential_outcome.parameters, (
        "batched and sequential fmu_parest disagree: "
        f"{batched_outcome.parameters} vs {sequential_outcome.parameters}"
    )
    assert batched_outcome.error == sequential_outcome.error
    assert batched_outcome.n_evaluations == sequential_outcome.n_evaluations

    # Symmetric, interleaved best-of-N timing (see bench_simulation_kernels):
    # alternating the two paths keeps CPU frequency drift off the ratio.
    batched_s = sequential_s = float("inf")
    for _ in range(rounds):
        elapsed, _, _ = _run_parest(population, generations, hours, True)
        batched_s = min(batched_s, elapsed)
        elapsed, _, _ = _run_parest(population, generations, hours, False)
        sequential_s = min(sequential_s, elapsed)

    total_sequential_solves = sequential_calls["sequential"]
    total_batched_solves = batched_calls["batched"] + batched_calls["sequential"]
    return {
        "benchmark": "population_estimation",
        "model": "HP5",
        "parameters": list(PARAMETERS),
        "population": population,
        "generations": generations,
        "hours": hours,
        "error": batched_outcome.error,
        "estimates": batched_outcome.parameters,
        "n_evaluations": batched_outcome.n_evaluations,
        "sequential_solver_invocations": total_sequential_solves,
        "batched_solver_invocations": total_batched_solves,
        "solver_invocation_ratio": round(
            total_sequential_solves / max(1, total_batched_solves), 1
        ),
        "sequential_s": round(sequential_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 2),
    }


def _one_by_one(estimator, instance_ids, input_sqls, use_mi_optimization):
    """Calibrate the houses one at a time, in MI order (Algorithm 3 as a
    plain loop): the reference the lockstep fleet calibration must equal."""
    outcomes = []
    reference = estimator.load_measurements(input_sqls[0])
    for k, (instance_id, sql) in enumerate(zip(instance_ids, input_sqls)):
        measurements = estimator.load_measurements(sql)
        dissimilarity = None
        if k and use_mi_optimization:
            dissimilarity = estimator.measurement_dissimilarity(reference, measurements)
        if dissimilarity is not None and dissimilarity < 0.2:
            warm_start = outcomes[0].parameters
            for name, value in warm_start.items():
                estimator.catalog.set_instance_value(instance_id, name, value)
            outcome = estimator.estimate_single(
                instance_id, sql, list(PARAMETERS), method="local",
                initial_values=warm_start, measurements=measurements,
            )
            outcome.used_mi_optimization = True
        else:
            outcome = estimator.estimate_single(
                instance_id, sql, list(PARAMETERS), measurements=measurements
            )
        outcome.dissimilarity = dissimilarity
        outcomes.append(outcome)
    return outcomes


def measure_mi_fleet(population: int, generations: int, hours: float) -> dict:
    """Lockstep vs one-by-one calibration of the MI fleet, MI on and off.

    Asserts every outcome field is equal, and reports wall time and solver
    calls (``simulate_fleet`` calls, one-row fleets included) of both runs.
    """
    instance_ids = [f"HP5House{k}" for k in range(len(FLEET))]
    input_sqls = [f"SELECT * FROM m{k}" for k in range(len(FLEET))]
    calls = {"n": 0}
    real_simulate_fleet = FmuModel.simulate_fleet

    def counting_simulate_fleet(rows, *args, **kwargs):
        calls["n"] += 1
        return real_simulate_fleet(rows, *args, **kwargs)

    def timed(run):
        calls["n"] = 0
        started = time.perf_counter()
        outcomes = run()
        return outcomes, time.perf_counter() - started, calls["n"]

    record = {"houses": len(FLEET)}
    FmuModel.simulate_fleet = staticmethod(counting_simulate_fleet)
    try:
        for use_mi in (True, False):
            session = _build_session(population, generations, hours, FLEET)
            together, together_s, together_calls = timed(
                lambda: session.parest(
                    instance_ids, input_sqls, parameters=list(PARAMETERS),
                    use_mi_optimization=use_mi,
                )
            )
            session = _build_session(population, generations, hours, FLEET)
            alone, alone_s, alone_calls = timed(
                lambda: _one_by_one(session.estimator, instance_ids, input_sqls, use_mi)
            )
            for got, want in zip(together, alone):
                for name in OUTCOME_FIELDS:
                    assert getattr(got, name) == getattr(want, name), (
                        f"lockstep and one-by-one fmu_parest disagree on "
                        f"{got.instance_id}.{name}: {getattr(got, name)} vs "
                        f"{getattr(want, name)}"
                    )
            record["mi_on" if use_mi else "mi_off"] = {
                "warm_started": sum(o.used_mi_optimization for o in together),
                "lockstep_s": round(together_s, 6),
                "one_by_one_s": round(alone_s, 6),
                "lockstep_solver_calls": together_calls,
                "one_by_one_solver_calls": alone_calls,
            }
    finally:
        FmuModel.simulate_fleet = staticmethod(real_simulate_fleet)
    assert record["mi_on"]["warm_started"] == 2
    return record


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_population_estimation_speedup():
    record = measure_population_estimation()
    # Scaling context: smaller populations, one timing round each.
    record["scaling"] = [
        {
            "population": population,
            "speedup": measure_population_estimation(
                population=population, rounds=1
            )["speedup"],
        }
        for population in (24, 32)
    ]
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["population"] >= 24
    assert record["speedup"] >= 3.0
    assert record["solver_invocation_ratio"] >= 5.0


def smoke() -> None:
    """Exercise (not gate) the batched estimation path: equivalence plus a
    short timing at a reduced budget."""
    record = measure_population_estimation(
        population=24, generations=4, hours=24.0, rounds=1
    )
    record["mi_fleet"] = measure_mi_fleet(population=12, generations=3, hours=24.0)
    record["smoke"] = True
    write_record(record, SMOKE_RECORD_PATH)
    print(json.dumps(record, indent=2, sort_keys=True))
    print("smoke ok: batched and sequential fmu_parest estimates are identical")
    print("smoke ok: lockstep MI fleet outcomes equal one-by-one calibration")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        record = measure_population_estimation()
        record["scaling"] = [
            {
                "population": population,
                "speedup": measure_population_estimation(
                    population=population, rounds=1
                )["speedup"],
            }
            for population in (24, 32)
        ]
        write_record(record)
        print(json.dumps(record, indent=2, sort_keys=True))
