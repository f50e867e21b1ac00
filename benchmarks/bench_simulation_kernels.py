"""Compiled simulation kernels on the hot paths (not a paper table).

The FMU archives of this reproduction carry their equations as sandboxed
arithmetic expressions; the compiled-kernel layer (:mod:`repro.fmi.kernel`)
code-generates the ODE right-hand side and the output equations into plain
positional-indexing Python functions, the way a real FMU ships compiled C,
and every simulation runs them.  This benchmark records their cost on the
system's hottest workloads:

* **10k-step simulate** - a five-zone heat pump model integrated for
  10,000 fixed Euler steps with an hourly input series and a 10k-point
  output grid (the ``fmu_simulate`` shape).
* **deadline-check overhead** - the same simulate under an armed statement
  deadline, gated at <= 2% over the token-free run.
* **fmu_parest calibration** - a full Global+Local estimation (Algorithm 2)
  of HP1 on 240 h of measurements with the simulation memo cache, after
  asserting that the cache does not change the result (the uncached
  reference gives every candidate a fresh memo key).
* **batched RK4 equivalence** (``--smoke`` only, untimed) - HP1 and random
  test-corpus fleets of 8 solved batched equal per-row ``simulate`` bit for
  bit, and the HP1 per-step kernel reads no parameter column.
* **scalar == fleet rows** (``--smoke`` only, untimed) - for Euler,
  scalar ``simulate`` (Python-float loop) equals each row of a two-row
  ``simulate_batch`` fleet of identical rows (numpy loop) bit for bit,
  step counts included, on HP1 and the same test-corpus models; an RK45
  fleet of the same rows steps them in the float loop and equals it too.

It emits ``BENCH_simulation_kernels.json`` next to this file.

Run with:  pytest benchmarks/bench_simulation_kernels.py
      or:  python benchmarks/bench_simulation_kernels.py [--smoke]

``--smoke`` runs a reduced-size, untimed pass (CI uses it to exercise the
compiled path and the cached-vs-uncached calibration check on every push
without timing flakiness).
"""

from __future__ import annotations

import ast
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _ROOT = Path(__file__).resolve().parent.parent
    for _path in (_ROOT / "src", _ROOT):  # the repo root: tests.conftest
        if str(_path) not in sys.path:
            sys.path.insert(0, str(_path))

from repro.data.nist import generate_hp1_dataset
from repro.estimation import Estimation
from repro.fmi import load_fmu
from repro.fmi.model import FmuModel
from repro.fmi.model_description import DefaultExperiment
from repro.models.heatpump import build_hp1_archive
from repro.modelica.compiler import compile_model

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_simulation_kernels.json"

#: A five-zone thermal envelope: five coupled states, three outputs.  Richer
#: than HP1 so the per-step equation cost (what the kernel removes) dominates
#: the fixed solver overhead, as it does for any realistic building model.
HP5_SOURCE = """
model HP5 "five-zone heat pump heated house"
  parameter Real Cp1(min=0.1, max=10) = 1.5 "zone 1 capacitance [kWh/degC]";
  parameter Real Cp2(min=0.1, max=10) = 2.0 "zone 2 capacitance [kWh/degC]";
  parameter Real Cp3(min=0.1, max=10) = 1.0 "zone 3 capacitance [kWh/degC]";
  parameter Real Cp4(min=0.1, max=10) = 1.8 "zone 4 capacitance [kWh/degC]";
  parameter Real Cp5(min=0.1, max=10) = 0.9 "zone 5 capacitance [kWh/degC]";
  parameter Real R12(min=0.1, max=10) = 1.2 "zone 1-2 resistance [degC/kW]";
  parameter Real R23(min=0.1, max=10) = 0.8 "zone 2-3 resistance [degC/kW]";
  parameter Real R34(min=0.1, max=10) = 1.1 "zone 3-4 resistance [degC/kW]";
  parameter Real R45(min=0.1, max=10) = 0.9 "zone 4-5 resistance [degC/kW]";
  parameter Real Rout(min=0.1, max=10) = 1.5 "envelope resistance [degC/kW]";
  constant Real P = 7.8 "rated electrical power [kW]";
  constant Real eta = 2.65 "coefficient of performance";
  constant Real Ta = -10.0 "outdoor temperature [degC]";
  input Real u(min=0, max=1, start=0) "heat pump power rating setting";
  output Real y "heat pump power consumption [kW]";
  output Real qloss "envelope heat loss [kW]";
  output Real xmean "mean zone temperature [degC]";
  Real x1(start=20.0) "zone 1 temperature [degC]";
  Real x2(start=18.0) "zone 2 temperature [degC]";
  Real x3(start=16.0) "zone 3 temperature [degC]";
  Real x4(start=17.0) "zone 4 temperature [degC]";
  Real x5(start=15.0) "zone 5 temperature [degC]";
equation
  der(x1) = (x2 - x1) / (R12 * Cp1) + (P * eta / Cp1) * u;
  der(x2) = (x1 - x2) / (R12 * Cp2) + (x3 - x2) / (R23 * Cp2);
  der(x3) = (x2 - x3) / (R23 * Cp3) + (x4 - x3) / (R34 * Cp3);
  der(x4) = (x3 - x4) / (R34 * Cp4) + (x5 - x4) / (R45 * Cp4);
  der(x5) = (x4 - x5) / (R45 * Cp5) + (Ta - x5) / (Rout * Cp5);
  y = P * u;
  qloss = (x5 - Ta) / Rout;
  xmean = (x1 + x2 + x3 + x4 + x5) / 5.0;
end HP5;
"""

GA_OPTIONS = {"population_size": 14, "generations": 10, "patience": None}
LOCAL_OPTIONS = {"max_iterations": 20}
PAREST_HOURS = 240


def _timed(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# --------------------------------------------------------------------------- #
# Part 1: 10k-step simulate
# --------------------------------------------------------------------------- #
def _hp5_simulate(n_steps: int):
    """A zero-argument ``fmu_simulate``-shaped call: the five-zone model over
    100 h, ``n_steps`` fixed Euler steps, hourly input, n_steps-point grid."""
    archive = compile_model(
        HP5_SOURCE,
        default_experiment=DefaultExperiment(
            start_time=0.0, stop_time=100.0, tolerance=1e-6, step_size=1.0
        ),
    )
    model = load_fmu(archive)
    stop = 100.0
    hours = np.linspace(0.0, stop, 101)
    inputs = {"u": (hours, 0.5 + 0.5 * np.sin(hours / 5.0))}
    grid = np.linspace(0.0, stop, n_steps + 1)
    options = {"step": stop / n_steps}

    def run():
        return model.simulate(
            inputs=inputs,
            start_time=0.0,
            stop_time=stop,
            output_times=grid,
            solver="euler",
            solver_options=options,
        )

    return run


def measure_simulate(n_steps: int = 10_000, rounds: int = 3) -> dict:
    run = _hp5_simulate(n_steps)
    result = run()  # warm caches before timing
    for name in ("x1", "x2", "x3", "x4", "x5", "y", "qloss", "xmean"):
        assert np.isfinite(result[name]).all(), f"non-finite trajectory for {name}"
    return {
        "simulate_n_steps": n_steps,
        "simulate_s": round(_timed(run, rounds), 6),
    }


# --------------------------------------------------------------------------- #
# Part 1b: deadline-check overhead on the same hot path
# --------------------------------------------------------------------------- #
def measure_deadline_overhead(n_steps: int = 10_000, rounds: int = 40) -> dict:
    """Cost of an armed statement deadline on the 10k-step simulate path.

    The solver loops check the ambient :class:`CancelToken` every 64 steps;
    with no token installed each check site costs one ``is None`` branch.
    This measures the *armed* case - a generous deadline that never fires,
    the shape every statement run under ``statement_timeout`` pays - and
    gates it at <= 2% over the token-free run.  The overhead is small (~0.6%
    on a 2-vCPU host), so each arm takes its minimum over many interleaved
    rounds, and the arms alternate which runs first, to keep host noise off
    the ratio.
    """
    from repro import cancellation
    from repro.cancellation import CancelToken

    run = _hp5_simulate(n_steps)
    run()  # warm caches before timing

    def run_armed():
        with cancellation.activate(CancelToken(timeout=3600.0)):
            return _timed(run, 1)

    plain_s = armed_s = float("inf")
    for i in range(rounds):
        if i % 2:
            armed_s = min(armed_s, run_armed())
            plain_s = min(plain_s, _timed(run, 1))
        else:
            plain_s = min(plain_s, _timed(run, 1))
            armed_s = min(armed_s, run_armed())
    overhead_pct = (armed_s / plain_s - 1.0) * 100.0
    return {
        "deadline_n_steps": n_steps,
        "deadline_plain_s": round(plain_s, 6),
        "deadline_armed_s": round(armed_s, 6),
        "deadline_overhead_pct": round(overhead_pct, 2),
    }


# --------------------------------------------------------------------------- #
# Part 2: fmu_parest calibration
# --------------------------------------------------------------------------- #
def measure_parest(
    hours: float = PAREST_HOURS,
    ga_options: dict = GA_OPTIONS,
    local_options: dict = LOCAL_OPTIONS,
    rounds: int = 2,
) -> dict:
    measurement_set = generate_hp1_dataset(hours=hours, seed=11).to_measurement_set()

    def run(memo: bool):
        estimation = Estimation(
            load_fmu(build_hp1_archive()),
            measurement_set,
            parameters=["Cp", "R"],
            ga_options=ga_options,
            local_options=local_options,
            seed=5,
        )
        if not memo:
            # Uncached reference: a fresh key per lookup makes every memo
            # lookup miss, so every candidate row simulates.
            fresh = itertools.count()
            estimation.objective._memo_key = lambda _theta: next(fresh).to_bytes(8, "little")
        started = time.perf_counter()
        result = estimation.estimate("global+local")
        return time.perf_counter() - started, result

    parest_s = float("inf")
    for _ in range(rounds):
        seconds, result = run(memo=True)
        parest_s = min(parest_s, seconds)
    # The memo cache is exact: same optimum, same error, fewer simulations.
    _, uncached = run(memo=False)
    assert result.parameters == uncached.parameters
    assert result.error == uncached.error
    return {
        "parest_hours": hours,
        "parest_s": round(parest_s, 6),
        "parest_n_evaluations": result.n_evaluations,
        "parest_n_cache_hits": result.n_cache_hits,
        "parest_error": result.error,
    }


# --------------------------------------------------------------------------- #
# Part 3: batched RK4 and batch-of-one equivalence (smoke only)
# --------------------------------------------------------------------------- #
def _per_step_source(kernel, name: str) -> str:
    """Source of the per-step function ``name`` inside its bind factory."""
    for node in ast.walk(ast.parse(kernel.source)):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return ast.unparse(node)
    raise AssertionError(f"no {name} in the kernel source")


def _assert_fleet_equals_rows(models, names, **call) -> None:
    batched = FmuModel.simulate_batch(models, **call)
    for model, result in zip(models, batched):
        sequential = model.simulate(**call)
        for name in names:
            np.testing.assert_array_equal(result[name], sequential[name], err_msg=name)


def _hp1_fleet(n_rows: int):
    """``(models, call)``: HP1 models with distinct ``Cp``/``R`` and a 48 h
    simulate call on measured inputs."""
    archive = build_hp1_archive()
    measurements = generate_hp1_dataset(hours=48, seed=3).to_measurement_set()
    models = []
    for i in range(n_rows):
        model = load_fmu(archive)
        model.set_many({"Cp": 1.0 + 0.15 * i, "R": 1.2 + 0.1 * i})
        models.append(model)
    call = dict(
        inputs={"u": (measurements.time, measurements.series["u"])},
        output_times=measurements.time,
    )
    return models, call


def _corpus_fleets(n_rows: int, n_random: int):
    """``(models, names, call)`` for the first ``n_random`` test-corpus
    models with conditionals and ``**``, ``n_rows`` instances each."""
    from tests.conftest import (
        make_corpus_inputs, make_random_archive, make_random_fleet, make_random_system,
    )

    checked = 0
    for seed in range(200):
        system = make_random_system(seed)
        texts = " ".join(state.derivative for state in system.states)
        if " if " not in texts or "**" not in texts:
            continue
        archive = make_random_archive(f"corpus{seed}", system)
        yield (
            make_random_fleet(system, archive, n_rows, seed=seed),
            list(system.state_names) + list(system.output_names),
            dict(
                inputs=make_corpus_inputs(system), start_time=0.0, stop_time=2.0,
                output_times=np.linspace(0.0, 2.0, 41),
            ),
        )
        checked += 1
        if checked == n_random:
            return
    raise AssertionError(f"only {checked} corpus models with conditionals and **")


def check_batched_rk4(n_rows: int = 8, n_random: int = 3) -> None:
    """Batched RK4 fleets equal per-row scalar ``simulate`` bit for bit.

    Covers an HP1 fleet (whose per-step kernel must read no parameter
    column: every parameter subexpression is bound once per solve) and
    fleets of random test-corpus models with conditionals and ``**``.
    """
    models, call = _hp1_fleet(n_rows)
    per_step = _per_step_source(models[0].ode_system.kernel, "_derivs_batch")
    assert "_P[" not in per_step, per_step
    _assert_fleet_equals_rows(
        models, ("x", "y"), solver="rk4", solver_options={"step": 1.0}, **call
    )
    for fleet, names, call in _corpus_fleets(n_rows, n_random):
        _assert_fleet_equals_rows(
            fleet, names, solver="rk4", solver_options={"step": 0.02}, **call
        )


def check_scalar_equals_fleet_rows(n_random: int = 3) -> None:
    """Scalar ``simulate`` equals each row of a two-row fleet bit for bit.

    The scalar loops step in Python floats and the batched loops in numpy
    (a one-row ``simulate_batch`` takes the scalar loop, so the fleet
    stacks two identical rows), so for Euler this pins the two arithmetic
    paths together - trajectories and step counts - on HP1 and the
    test-corpus models :func:`check_batched_rk4` uses.  An RK45 fleet steps
    each row in the scalar loop itself; it is checked to take that path.
    """
    (hp1,), hp1_call = _hp1_fleet(1)
    cases = [([hp1], ("x", "y"), hp1_call)] + list(_corpus_fleets(1, n_random))
    for solver in ("rk45", "euler"):
        for (model,), names, call in cases:
            fleet = FmuModel.simulate_batch([model, model.clone()], solver=solver, **call)
            scalar = model.simulate(solver=solver, **call)
            for batched in fleet:
                assert batched.solver_stats.get("fleet_size") == (
                    None if solver == "rk45" else 2
                )
                for name in names:
                    np.testing.assert_array_equal(
                        batched[name], scalar[name], err_msg=f"{solver} {name}"
                    )
                for stat in ("n_steps", "n_rejected"):
                    assert batched.solver_stats[stat] == scalar.solver_stats[stat], (
                        solver, stat,
                    )


def measure_simulation_kernels() -> dict:
    record = {"benchmark": "simulation_kernels"}
    record.update(measure_simulate())
    record.update(measure_deadline_overhead())
    record.update(measure_parest())
    return record


def write_record(record: dict) -> Path:
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def test_simulation_kernel_record():
    record = measure_simulation_kernels()
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["deadline_overhead_pct"] <= 2.0


def test_deadline_check_overhead():
    """Standalone <= 2% gate (CI runs just this one: ``-k deadline``)."""
    record = measure_deadline_overhead()
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["deadline_overhead_pct"] <= 2.0


def smoke() -> None:
    """Exercise (not time) the compiled path on reduced sizes."""
    measure_simulate(n_steps=200, rounds=1)
    record = measure_parest(
        hours=24,
        ga_options={"population_size": 6, "generations": 2},
        local_options={"max_iterations": 3},
        rounds=1,
    )
    assert np.isfinite(record["parest_error"])
    check_batched_rk4()
    check_scalar_equals_fleet_rows()
    print(
        "smoke ok: compiled simulate and calibration ran; cached == uncached; "
        "batched RK4 fleets == per-row simulate; "
        "RK45/Euler simulate == each row of a two-row fleet"
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(measure_simulation_kernels(), indent=2, sort_keys=True))
