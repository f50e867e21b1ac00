"""Batched fleet simulation vs. the sequential per-instance path (not a paper table).

``Session.simulate_many`` stacks a same-model fleet's states into an
``(N, d)`` matrix and integrates all instances through one numpy-vectorized
right-hand side (:meth:`repro.fmi.model.FmuModel.simulate_batch`); the
pre-batching path integrated them one compiled-kernel solve at a time.
This benchmark times both paths on a 32-instance fleet of the five-zone
heat pump model under the default adaptive RK45 solver (the
``fmu_simulate`` instance-array shape), after asserting the two paths'
trajectories agree within 1e-9.  Target: >= 1.5x at N=32.  The sequential
arm steps each instance in plain Python floats, so the batched path now
reads ~2.1x (1.8-2.4x over ten runs on a 2-vCPU host); the floor sits
below the lowest of those readings, to catch a batched-path regression
without failing on host noise.

Run with:  pytest benchmarks/bench_fleet_simulation.py
      or:  python benchmarks/bench_fleet_simulation.py [--smoke]

``--smoke`` runs a reduced-horizon pass (used by CI to exercise the batched
path and the equivalence check on every push without timing flakiness); it
still writes ``BENCH_fleet_simulation.json``, flagged with ``"smoke": true``.
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

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_fleet_simulation.json"

N_INSTANCES = 32


def _build_fleet_session(hours: float) -> tuple:
    """A session with a 32-instance HP5 fleet and a measurement table."""
    session = Session(register_ml=False)
    cur = session.cursor()
    cur.execute("CREATE TABLE m (time double precision, u double precision)")
    grid = np.linspace(0.0, hours, int(hours * 4) + 1)
    cur.executemany(
        "INSERT INTO m VALUES ($1, $2)",
        [[float(t), float(0.5 + 0.4 * np.sin(t / 5.0))] for t in grid],
    )
    base = session.create(HP5_SOURCE, "HP5Fleet0")
    ids = [str(base)]
    for i in range(1, N_INSTANCES):
        clone = base.copy(f"HP5Fleet{i}")
        clone.set_initial("Cp1", 1.0 + 0.02 * i)
        clone.set_initial("R12", 0.9 + 0.01 * i)
        clone.set_initial("x1", 18.0 + 0.1 * i)
        ids.append(str(clone))
    return session, ids


def _assert_equivalent(batched: dict, sequential: dict, atol: float = 1e-9) -> float:
    worst = 0.0
    for instance_id, result in sequential.items():
        for name in result.variables:
            diff = float(np.max(np.abs(batched[instance_id][name] - result[name])))
            worst = max(worst, diff)
            np.testing.assert_allclose(
                batched[instance_id][name], result[name], rtol=0, atol=atol,
                err_msg=f"batched and sequential trajectories differ for "
                        f"{instance_id}/{name}",
            )
    return worst


def measure_fleet(hours: float = 100.0, rounds: int = 3) -> dict:
    session, ids = _build_fleet_session(hours)
    query = "SELECT * FROM m"

    simulator = session.simulator

    def run_batched():
        return session.simulate_many(ids, query)

    def run_sequential():
        # The query runs once, then each instance takes the scalar path.
        prepared = simulator.prepare_inputs(query)
        return {i: simulator._simulate_prepared(i, prepared) for i in ids}

    batched_results = run_batched()
    sequential_results = run_sequential()
    worst = _assert_equivalent(batched_results, sequential_results)

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
        "solver": session.simulator.solver,
        "max_abs_diff": worst,
        "sequential_s": round(sequential_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 2),
    }


def write_record(record: dict) -> Path:
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


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
    write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    print("smoke ok: batched and sequential fleet trajectories agree")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        record = measure_fleet()
        write_record(record)
        print(json.dumps(record, indent=2, sort_keys=True))
