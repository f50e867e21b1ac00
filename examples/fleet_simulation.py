"""Fleet simulation: 32 instances of one model in one call.

A fleet of 32 houses shares one heat pump model; each house has its own
parameter values.  ``Session.simulate_many`` runs the input query once,
binds its series once and simulates the whole fleet in one FMI call.  Under
the default adaptive RK45 solver each house then steps in the solver's
scalar float loop (a fixed-step solver would stack the fleet's states into
an ``(N, d)`` matrix and step them together, as calibration does with each
GA generation).  This script times the fleet call against one call per
house, shows the identical trajectories, drives the same fleet through the
``fmu_simulate`` array-literal SQL form, and finishes by calibrating part
of the fleet.

Run with:  python examples/fleet_simulation.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import repro
from repro.data import generate_hp1_dataset, load_dataset
from repro.models import build_hp1_archive
from repro.sqldb.arrays import format_array_literal

FLEET_SIZE = 32


def main() -> None:
    conn = repro.connect(ga_options={"population_size": 10, "generations": 6}, seed=1)
    session = conn.session

    # Shared measurements drive every house; the fleet differs in parameters.
    load_dataset(session.database, generate_hp1_dataset(hours=120), table_name="measurements")
    archive_path = session.catalog.storage_dir / "hp1_fleet.fmu"
    build_hp1_archive().write(archive_path)
    first = session.create(str(archive_path), "House1")
    fleet = [first]
    for i in range(2, FLEET_SIZE + 1):
        house = first.copy(f"House{i}")
        house.set_initial("Cp", 1.0 + 0.02 * i)
        house.set_initial("R", 0.9 + 0.01 * i)
        fleet.append(house)

    # ---------------------------------------------------------------- #
    # Object layer: one fleet call vs. one call per house
    # ---------------------------------------------------------------- #
    query = "SELECT * FROM measurements"

    started = time.perf_counter()
    batched = session.simulate_many(fleet, query)
    batched_s = time.perf_counter() - started

    # The sequential path: run the query once, then simulate each house as
    # its own one-row fleet (what simulate_many does for a model with one
    # instance).
    simulator = session.simulator
    started = time.perf_counter()
    prepared = simulator.prepare_inputs(query)
    sequential = {house: simulator._simulate_group([house], prepared)[0] for house in fleet}
    sequential_s = time.perf_counter() - started

    worst = max(
        float(np.max(np.abs(batched[house]["x"] - sequential[house]["x"])))
        for house in batched
    )
    print(f"simulate_many over {FLEET_SIZE} houses:")
    print(f"  one call per house: {sequential_s * 1000:7.1f} ms")
    print(f"  one fleet call:     {batched_s * 1000:7.1f} ms")
    print(f"  ratio: {sequential_s / batched_s:.1f}x, "
          f"max |fleet - per house| = {worst:.2e}")

    stats = batched[str(fleet[0])].solver_stats
    print(f"  solver: {stats['solver']}, "
          f"accepted steps for House1: {stats['n_steps']}")

    # ---------------------------------------------------------------- #
    # SQL surface: the same batch via an fmu_simulate instance array
    # ---------------------------------------------------------------- #
    started = time.perf_counter()
    mean_rows = session.execute(
        "SELECT f.instanceid, round(avg(f.value), 2) AS mean_temperature "
        f"FROM fmu_simulate($1, $2) AS f "
        "WHERE f.varname = 'x' GROUP BY f.instanceid ORDER BY 1 LIMIT 5",
        [format_array_literal(fleet), query],
    )
    sql_s = time.perf_counter() - started
    print(f"\nfmu_simulate('{{House1, ..., House{FLEET_SIZE}}}') through SQL "
          f"({sql_s * 1000:.1f} ms), first five mean temperatures:")
    print(mean_rows.to_text())

    # ---------------------------------------------------------------- #
    # Calibrate part of the fleet (population-batched estimation: each GA
    # generation of candidate parameter vectors is itself a fleet, scored
    # as one (pop, d) batched solve; MI optimization warm-starts siblings)
    # ---------------------------------------------------------------- #
    to_calibrate = fleet[:3]
    started = time.perf_counter()
    errors = conn.execute(
        "SELECT fmu_parest($1, $2, '{Cp, R}')",
        [format_array_literal(to_calibrate), format_array_literal([query])],
    ).result.scalar()
    batched_cal_s = time.perf_counter() - started
    print(f"\ncalibrated {len(to_calibrate)} houses in {batched_cal_s:.1f} s "
          f"(population-batched), errors: {errors}")
    for house in to_calibrate:
        print(f"  {house}: {house.parameters}")


if __name__ == "__main__":
    main()
