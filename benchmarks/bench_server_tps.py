"""Service layer: multi-client throughput and session isolation (not a paper table).

Quantifies what the socket server sustains and guarantees:

* **Throughput** - 8 concurrent clients over TCP against one shared pgFMU
  engine, each running a mixed workload (parameterized INSERTs, SELECT
  aggregates, and periodic ``fmu_simulate`` calls), reported as statements
  per second end-to-end (wire + dispatch + engine).
* **Isolation checks** - the three properties the concurrent server must
  hold, each verified live and recorded as a boolean:

  - ``auth_rejected``: a wrong token is refused with a typed AuthError and
    never reaches the engine;
  - ``cancel_scoped``: an out-of-band cancel kills exactly the targeted
    session's statement - a neighbouring session keeps working;
  - ``fault_isolated``: a chaos injector armed in the benchmark's own
    thread (via ``faults.activate``) never fires inside the server's
    handler threads - ambient injectors are context-local, so one
    session's chaos cannot leak into another's simulation.

Run with:  pytest benchmarks/bench_server_tps.py
      or:  python benchmarks/bench_server_tps.py [--smoke]

``--smoke`` shrinks the per-client workload (used by CI to exercise the
full client/server/engine path on every push without timing flakiness);
it writes ``BENCH_server_tps.smoke.json``, flagged with ``"smoke": true``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import repro
import repro.client
from repro import faults
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.errors import AuthError, CancelledError
from repro.faults import FaultInjector
from repro.models.heatpump import hp1_source
from repro.server import serve

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_server_tps.json"
#: Where ``--smoke`` writes, so a smoke run leaves the full-run record alone.
SMOKE_RECORD_PATH = RECORD_PATH.with_suffix(".smoke.json")

TOKEN = "bench-s3cret"
CLIENTS = 8
OPS_PER_CLIENT = 24
SIMULATE_EVERY = 8  # every k-th operation runs fmu_simulate instead of DML
SIMULATE = (
    "SELECT count(*) FROM fmu_simulate('HP1Instance1', "
    "'SELECT * FROM measurements', 0.0, 600.0)"
)


def _build_database(hours: int):
    """A pgFMU engine with measurements, one FMU instance, and bench tables."""
    conn = repro.connect(register_ml=False)
    load_dataset(
        conn.database,
        generate_hp1_dataset(hours=hours, seed=7),
        table_name="measurements",
    )
    conn.execute("SELECT fmu_create($1, 'HP1Instance1')", [hp1_source()])
    conn.execute("CREATE TABLE bench_hits (client integer, n integer)")
    conn.execute("CREATE TABLE bench_big (id integer)")
    conn.execute(
        "INSERT INTO bench_big VALUES " + ", ".join(f"({i})" for i in range(300))
    )
    return conn.database


def _check_auth_rejected(url: str) -> bool:
    try:
        repro.client.connect(url, token="definitely-wrong")
    except AuthError:
        return True
    return False


def _check_cancel_scoped(url: str) -> bool:
    """An out-of-band cancel stops its own session and only its own."""
    victim = repro.client.connect(url, token=TOKEN)
    neighbour = repro.client.connect(url, token=TOKEN)
    try:
        outcome = []
        started = threading.Event()

        def long_query():
            started.set()
            try:
                victim.execute(
                    "SELECT count(*) FROM bench_big a, bench_big b, bench_big c "
                    "WHERE a.id + b.id + c.id > 1"
                )
                outcome.append("finished")
            except Exception as exc:  # noqa: BLE001 - inspected below
                outcome.append(exc)

        worker = threading.Thread(target=long_query)
        worker.start()
        started.wait(timeout=5.0)
        time.sleep(0.2)
        deadline = time.monotonic() + 15.0
        while worker.is_alive() and time.monotonic() < deadline:
            victim.cancel()
            time.sleep(0.005)
        worker.join(timeout=10.0)
        cancelled = bool(outcome) and isinstance(outcome[0], CancelledError)
        neighbour_fine = neighbour.execute("SELECT 1").fetchone() == [1]
        return cancelled and neighbour_fine
    finally:
        victim.close()
        neighbour.close()


def _client_workload(url: str, client_id: int, ops: int, counters, failures):
    """One client's mixed statement stream; updates shared counters."""
    statements = simulations = 0
    try:
        with repro.client.connect(url, token=TOKEN) as conn:
            for i in range(ops):
                if (i + 1) % SIMULATE_EVERY == 0:
                    rows = conn.execute(SIMULATE).fetchone()[0]
                    assert rows > 0, "simulation returned no rows"
                    simulations += 1
                    statements += 1
                else:
                    conn.execute(
                        "INSERT INTO bench_hits VALUES ($1, $2)", [client_id, i]
                    )
                    count = conn.execute(
                        "SELECT count(*) FROM bench_hits WHERE client = $1",
                        [client_id],
                    ).fetchone()[0]
                    assert count > 0
                    statements += 2
    except Exception as exc:  # noqa: BLE001 - collected for the record
        failures.append((client_id, repr(exc)))
    counters[client_id] = (statements, simulations)


def measure_server_tps(
    clients: int = CLIENTS, ops_per_client: int = OPS_PER_CLIENT, hours: int = 24
) -> dict:
    """Serve a pgFMU engine and drive it with concurrent TCP clients."""
    database = _build_database(hours)
    server = serve(database, tokens={"bench": TOKEN})
    try:
        auth_rejected = _check_auth_rejected(server.url)

        counters: dict = {}
        failures: list = []
        barrier = threading.Barrier(clients)

        def run_client(client_id: int):
            barrier.wait(timeout=30.0)
            _client_workload(server.url, client_id, ops_per_client, counters, failures)

        # The benchmark thread arms a chaos injector for the whole workload
        # window: with context-local ambient injectors the server's handler
        # threads never see it, so every simulation must succeed.
        injector = FaultInjector().arm("solver.step", nth=1, trips=10**9)
        threads = [
            threading.Thread(target=run_client, args=(cid,)) for cid in range(clients)
        ]
        started = time.perf_counter()
        with faults.activate(injector):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600.0)
        wall_s = time.perf_counter() - started

        statements = sum(s for s, _ in counters.values())
        simulations = sum(n for _, n in counters.values())
        fault_isolated = not failures and injector.events == []
        cancel_scoped = _check_cancel_scoped(server.url)

        return {
            "benchmark": "server_tps",
            "clients": clients,
            "ops_per_client": ops_per_client,
            "statements_total": statements,
            "simulate_statements": simulations,
            "wall_s": round(wall_s, 6),
            "statements_per_s": round(statements / wall_s, 2) if wall_s else None,
            "failures": failures,
            "isolation": {
                "auth_rejected": auth_rejected,
                "cancel_scoped": cancel_scoped,
                "fault_isolated": fault_isolated,
            },
        }
    finally:
        server.shutdown()


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_server_tps_benchmark():
    record = measure_server_tps()
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    # Sanity floors, not tight perf assertions: all 8 clients completed the
    # mixed workload and every isolation property held.
    assert record["failures"] == []
    assert record["clients"] >= 8
    assert record["simulate_statements"] > 0
    assert all(record["isolation"].values()), record["isolation"]


def smoke() -> dict:
    record = measure_server_tps(ops_per_client=8, hours=6)
    record["smoke"] = True
    write_record(record, SMOKE_RECORD_PATH)
    return record


if __name__ == "__main__":  # pragma: no cover
    result = smoke() if "--smoke" in sys.argv[1:] else None
    if result is None:
        record = measure_server_tps()
        write_record(record)
        result = record
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["failures"] or not all(result["isolation"].values()):
        sys.exit(1)
