"""Batched fixed-step fleet simulation vs. per-instance solves (not a paper table).

``FmuModel.simulate_batch`` with a fixed-step solver stacks a same-model
fleet's states into an ``(N, d)`` matrix and integrates all instances
through one numpy-vectorized right-hand side; per-instance
``FmuModel.simulate`` steps each instance in the solver's scalar float
loop.  This benchmark times both on a 32-instance fleet of the five-zone
heat pump model under RK4 (calibration's solver, whose candidate rows are
such a fleet), after asserting that the two paths' trajectories agree
within 1e-9 (they are bit-identical).  Target: >= 1.5x at N=32.  The
adaptive RK45 solver has no batched loop: its fleets step row by row, so
for RK45 the two paths are one.

Run with:  pytest benchmarks/bench_fleet_simulation.py
      or:  python benchmarks/bench_fleet_simulation.py [--smoke]

``--smoke`` runs a reduced-horizon pass (used by CI to exercise the batched
path and the equivalence check on every push without timing flakiness); it
writes ``BENCH_fleet_simulation.smoke.json``, flagged with ``"smoke": true``.
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

from repro.fmi.model import FmuModel
from repro.modelica.compiler import compile_model

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_fleet_simulation.json"
#: Where ``--smoke`` writes, so a smoke run leaves the full-run record alone.
SMOKE_RECORD_PATH = RECORD_PATH.with_suffix(".smoke.json")

N_INSTANCES = 32
SOLVER = "rk4"
#: The input knots' spacing (hours), as calibration steps on its data grid.
STEP = 0.25


def _build_fleet(hours: float) -> tuple:
    """A 32-instance HP5 fleet and the simulate arguments its rows share."""
    archive = compile_model(HP5_SOURCE)
    models = []
    for i in range(N_INSTANCES):
        model = FmuModel(archive, instance_name=f"HP5Fleet{i}")
        if i:
            model.set("Cp1", 1.0 + 0.02 * i)
            model.set("R12", 0.9 + 0.01 * i)
            model.set("x1", 18.0 + 0.1 * i)
        models.append(model)
    grid = np.linspace(0.0, hours, int(hours * 4) + 1)
    call = dict(
        inputs={"u": (grid, 0.5 + 0.4 * np.sin(grid / 5.0))},
        start_time=0.0,
        stop_time=hours,
        output_times=grid,
        solver=SOLVER,
        solver_options={"step": STEP},
    )
    return models, call


def _assert_equivalent(models: list, batched: list, sequential: list, atol: float = 1e-9) -> float:
    worst = 0.0
    for model, fleet_row, single in zip(models, batched, sequential):
        for name in single.variables:
            diff = float(np.max(np.abs(fleet_row[name] - single[name])))
            worst = max(worst, diff)
            np.testing.assert_allclose(
                fleet_row[name], single[name], rtol=0, atol=atol,
                err_msg=f"batched and sequential trajectories differ for "
                        f"{model.instance_name}/{name}",
            )
    return worst


def measure_fleet(hours: float = 100.0, rounds: int = 3) -> dict:
    models, call = _build_fleet(hours)

    def run_batched():
        return FmuModel.simulate_batch(models, **call)

    def run_sequential():
        return [model.simulate(**call) for model in models]

    worst = _assert_equivalent(models, run_batched(), run_sequential())

    # Symmetric, interleaved best-of-N timing (see bench_simulation_kernels):
    # alternating the two paths keeps CPU frequency drift off the ratio.
    batched_s = sequential_s = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run_batched()
        batched_s = min(batched_s, time.perf_counter() - started)
        started = time.perf_counter()
        run_sequential()
        sequential_s = min(sequential_s, time.perf_counter() - started)
    return {
        "benchmark": "fleet_simulation",
        "n_instances": N_INSTANCES,
        "hours": hours,
        "solver": SOLVER,
        "step": STEP,
        "max_abs_diff": worst,
        "sequential_s": round(sequential_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 2),
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_fleet_simulation_speedup():
    record = measure_fleet()
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["max_abs_diff"] <= 1e-9
    assert record["speedup"] >= 1.5


def smoke() -> None:
    """Exercise (not gate) the batched path: equivalence plus a short timing."""
    record = measure_fleet(hours=20.0, rounds=1)
    record["smoke"] = True
    write_record(record, SMOKE_RECORD_PATH)
    print(json.dumps(record, indent=2, sort_keys=True))
    print("smoke ok: batched and sequential fleet trajectories agree")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        record = measure_fleet()
        write_record(record)
        print(json.dumps(record, indent=2, sort_keys=True))
