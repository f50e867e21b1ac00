"""Durable storage engine: insert throughput and recovery latency (not a paper table).

Quantifies what ``repro.connect(path=...)`` costs and buys:

* **Insert throughput** - the same batched-transaction load (50k rows,
  1000-row transactions) against the in-memory engine, the WAL-attached
  engine (every commit fsyncs), and the WAL engine followed by a
  ``CHECKPOINT`` (snapshot + log reset).
* **Reopen latency** - recovering those 50k rows on the next open, once by
  replaying the full WAL (no checkpoint taken) and once from the page-store
  snapshot a checkpoint left behind.  The gap is why checkpoints exist: the
  snapshot load is bounded by table size, the replay by *history* size.
  After each reopen, outside the timed region, ``VERIFY`` must report
  every page chain, the WAL and every rebuilt index (``m_pkey`` included)
  ``ok``.

Run with:  pytest benchmarks/bench_storage_wal.py
      or:  python benchmarks/bench_storage_wal.py [--smoke]

``--smoke`` loads 2k rows instead of 50k (used by CI to exercise the
durable path on every push without timing flakiness); it writes
``BENCH_storage_wal.smoke.json``, flagged with ``"smoke": true``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.sqldb import Database
from repro.sqldb.storage import StorageEngine

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_storage_wal.json"
#: Where ``--smoke`` writes, so a smoke run leaves the full-run record alone.
SMOKE_RECORD_PATH = RECORD_PATH.with_suffix(".smoke.json")

ROWS = 50_000
BATCH = 1_000
SCHEMA = "CREATE TABLE m (id integer PRIMARY KEY, v double precision, tag text)"


def _rows(count: int):
    return [[i, i * 0.5, f"tag{i % 7}"] for i in range(count)]


def _load(db: Database, rows) -> float:
    """Insert all rows in BATCH-row transactions; returns elapsed seconds."""
    db.execute(SCHEMA)
    started = time.perf_counter()
    for start in range(0, len(rows), BATCH):
        db.begin()
        db.insert_rows("m", rows[start : start + BATCH])
        db.commit()
    return time.perf_counter() - started


def _count(db: Database) -> int:
    return db.execute("SELECT count(*) FROM m").scalar()


def _verify(db: Database, label: str) -> None:
    """Fail on any ``VERIFY`` row that is not ``ok``."""
    bad = [row for row in db.execute("VERIFY").rows if row[1] != "ok"]
    if bad:
        raise AssertionError(f"{label}: VERIFY reported {bad!r}")


def measure_storage_wal(rows: int = ROWS) -> dict:
    """Time the three insert paths and the two recovery paths."""
    data = _rows(rows)
    workdir = Path(tempfile.mkdtemp(prefix="bench_storage_wal_"))
    try:
        memory_s = _load(Database(), data)

        # WAL only: durability per commit, recovery replays the full log.
        wal_path = workdir / "wal_only.db"
        db = Database(storage=StorageEngine(wal_path))
        wal_s = _load(db, data)
        wal_bytes = db.storage.wal_size()
        db.storage.close()
        started = time.perf_counter()
        db = Database(storage=StorageEngine(wal_path))
        replay_open_s = time.perf_counter() - started
        assert _count(db) == rows, "WAL replay lost rows"
        _verify(db, "WAL replay")
        db.storage.close()

        # WAL + CHECKPOINT: snapshot to the page store, reset the log.
        ckpt_path = workdir / "checkpointed.db"
        db = Database(storage=StorageEngine(ckpt_path))
        ckpt_load_s = _load(db, data)
        started = time.perf_counter()
        db.checkpoint()
        checkpoint_s = time.perf_counter() - started
        wal_bytes_after_ckpt = db.storage.wal_size()
        db.storage.close()
        started = time.perf_counter()
        db = Database(storage=StorageEngine(ckpt_path))
        snapshot_open_s = time.perf_counter() - started
        assert _count(db) == rows, "snapshot recovery lost rows"
        _verify(db, "snapshot recovery")
        db.storage.close()

        return {
            "benchmark": "storage_wal",
            "rows": rows,
            "batch_rows": BATCH,
            "insert_memory_s": round(memory_s, 6),
            "insert_wal_s": round(wal_s, 6),
            "insert_wal_plus_checkpoint_s": round(ckpt_load_s + checkpoint_s, 6),
            "checkpoint_s": round(checkpoint_s, 6),
            "rows_per_s_memory": round(rows / memory_s),
            "rows_per_s_wal": round(rows / wal_s),
            "wal_overhead_x": round(wal_s / memory_s, 2),
            "wal_bytes": wal_bytes,
            "wal_bytes_after_checkpoint": wal_bytes_after_ckpt,
            "reopen_replay_s": round(replay_open_s, 6),
            "reopen_snapshot_s": round(snapshot_open_s, 6),
            "replay_vs_snapshot_x": round(replay_open_s / snapshot_open_s, 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_storage_wal_benchmark():
    record = measure_storage_wal()
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    # Sanity floors, not tight perf assertions: a checkpoint must actually
    # shrink the log, and both recovery paths already proved row counts.
    assert record["wal_bytes_after_checkpoint"] < record["wal_bytes"]


def smoke() -> dict:
    record = measure_storage_wal(rows=2_000)
    record["smoke"] = True
    write_record(record, SMOKE_RECORD_PATH)
    return record


if __name__ == "__main__":  # pragma: no cover
    result = smoke() if "--smoke" in sys.argv[1:] else None
    if result is None:
        record = measure_storage_wal()
        write_record(record)
        result = record
    print(json.dumps(result, indent=2, sort_keys=True))
