"""Crash-injection and recovery tests for the durable storage engine.

Two layers:

* :class:`TestRecoveryBasics` pins each crash window individually -
  committed data survives a kill, uncommitted data vanishes, a torn final
  frame is truncated cleanly, checkpoints bound replay, a stale WAL left by
  a crash inside ``CHECKPOINT`` is skipped.
* :class:`TestRandomizedKillAndReopen` drives randomized workloads
  (insert/update/delete/DDL mixes, explicit transactions, checkpoints at
  arbitrary points) against a plain-dict mirror, kills the engine at a
  random point with a random fault, reopens, and requires the recovered
  state to equal the mirror exactly - for every seed.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import InjectedCrash, SqlIntegrityError
from repro.sqldb import Database, FaultInjector, StorageEngine
from repro.sqldb.storage.wal import scan_wal


def reopen(path, fault=None):
    return Database(storage=StorageEngine(path, fault=fault))


def rows_of(db):
    return db.execute("SELECT id, v, tag FROM t ORDER BY id").rows


class TestRecoveryBasics:
    def test_committed_rows_survive_kill(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b')")
        db.begin()
        db.execute("UPDATE t SET v = 9.5 WHERE id = 2")
        db.commit()
        db.storage.simulate_crash()  # kill -9: no clean close
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"], [2, 9.5, "b"]]
        again.storage.close()

    def test_uncommitted_transaction_vanishes(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        db.execute("UPDATE t SET v = 0.0 WHERE id = 1")
        db.storage.simulate_crash()  # died before COMMIT
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"]]
        again.storage.close()

    def test_crash_before_sync_loses_whole_transaction(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.close()

        fault = FaultInjector(fail_before_sync=True)
        db = reopen(path, fault=fault)
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        with pytest.raises(InjectedCrash):
            db.commit()
        db.storage.simulate_crash()
        assert fault.tripped
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"]]
        again.storage.close()

    def test_torn_commit_is_truncated_cleanly(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.close()
        intact_size = (path.parent / (path.name + ".wal")).stat().st_size

        # Let 10 bytes of the doomed commit reach the file, then die mid-write.
        fault = FaultInjector(fail_after_bytes=10)
        db = reopen(path, fault=fault)
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        with pytest.raises(InjectedCrash):
            db.commit()
        db.storage.simulate_crash()
        wal_path = path.parent / (path.name + ".wal")
        assert wal_path.stat().st_size > intact_size  # tail actually torn, not absent

        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"]]
        # Recovery truncated the torn tail: the log is fully valid again.
        entries, valid_end, size = scan_wal(wal_path)
        assert valid_end == size
        again.storage.close()

    def test_checkpoint_bounds_replay(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")  # lives only in the WAL
        db.storage.simulate_crash()
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"], [2, 2.5, "b"]]
        assert again.storage.pager.checkpoint_id == 1
        again.storage.close()

    def test_crash_before_checkpoint_header_keeps_old_snapshot(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        db.storage.fault = FaultInjector(fail_at=["checkpoint.before_header"])
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        db.storage.simulate_crash()
        again = reopen(path)
        # Old snapshot + full WAL replay: nothing lost, id stays at 1.
        assert rows_of(again) == [[1, 1.5, "a"], [2, 2.5, "b"]]
        assert again.storage.pager.checkpoint_id == 1
        again.storage.close()

    def test_crash_after_checkpoint_header_skips_stale_wal(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        db.storage.fault = FaultInjector(fail_at=["checkpoint.after_header"])
        with pytest.raises(InjectedCrash):
            db.checkpoint()  # header flipped, WAL reset never happened
        db.storage.simulate_crash()
        again = reopen(path)
        # The WAL predates the snapshot; replaying it would double-apply.
        assert rows_of(again) == [[1, 1.5, "a"], [2, 2.5, "b"]]
        assert again.storage.pager.checkpoint_id == 1
        # Recovery rewrote the log to match the snapshot it skipped it for.
        entries, _, _ = scan_wal(path.parent / (path.name + ".wal"))
        assert len(entries) == 1
        again.storage.close()

    def test_recovered_database_stays_writable(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.simulate_crash()
        again = reopen(path)
        again.execute("INSERT INTO t VALUES (2, 2.5, 'b')")
        again.execute("DELETE FROM t WHERE id = 1")
        again.storage.simulate_crash()
        third = reopen(path)
        assert rows_of(third) == [[2, 2.5, "b"]]
        third.storage.close()

    def test_wal_append_failure_leaves_tables_rollback_consistent(self, tmp_path):
        """Regression: a WAL append that fails mid-transaction must leave the
        in-memory tables exactly as a rollback would - no half-applied
        statement, no rows the log never saw."""
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.close()

        from repro.errors import SqlStorageError

        fault = FaultInjector().arm("wal.append", nth=4, error=OSError)
        db = reopen(path, fault=fault)
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 2.5, 'b')")  # appends BEGIN + op
        db.execute("UPDATE t SET v = 9.0 WHERE id = 1")  # append 3
        with pytest.raises(SqlStorageError):
            db.execute("INSERT INTO t VALUES (3, 3.5, 'c')")  # append 4 fails
        db.rollback()
        # In-memory state is the pre-transaction state, bit for bit.
        assert rows_of(db) == [[1, 1.5, "a"]]
        # And so is the recovered on-disk state.
        db.storage.simulate_crash()
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"]]
        again.storage.close()

    def test_wal_failure_mid_statement_rolls_back_the_statement(self, tmp_path):
        """Without an explicit transaction, a multi-row statement that dies
        on a WAL append is rolled back automatically (statement atomicity)."""
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.close()

        from repro.errors import SqlStorageError

        fault = FaultInjector().arm("wal.append", nth=3, error=OSError)
        db = reopen(path, fault=fault)
        # BEGIN + first row land, the second row's append fails: the whole
        # statement must vanish, not just its tail.
        with pytest.raises(SqlStorageError):
            db.execute("INSERT INTO t VALUES (2, 2.5, 'b'), (3, 3.5, 'c')")
        assert rows_of(db) == [[1, 1.5, "a"]]
        db.storage.simulate_crash()
        again = reopen(path)
        assert rows_of(again) == [[1, 1.5, "a"]]
        again.storage.close()

    def test_ddl_and_indexes_recover(self, tmp_path):
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
        db.execute("CREATE INDEX t_tag ON t (tag)")
        db.execute("CREATE TABLE doomed (id integer)")
        db.execute("DROP TABLE doomed")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a')")
        db.storage.simulate_crash()
        again = reopen(path)
        assert "doomed" not in again.table_names()
        assert "t_tag" in again.table("t").indexes
        # The recovered index actually serves point lookups.
        assert again.execute("SELECT id FROM t WHERE tag = 'a'").rows == [[1]]
        again.storage.close()

    @pytest.mark.parametrize("key_type", ["integer", "variant"])
    def test_checkpoint_repeating_a_key_is_refused(self, tmp_path, key_type):
        # A checkpoint stores rows, not index contents: reopening rebuilds
        # t_pkey (a B-tree, or a hash index for a variant key) and must
        # refuse rows that repeat a key.
        path = tmp_path / "a.db"
        db = reopen(path)
        db.execute(f"CREATE TABLE t (id {key_type} PRIMARY KEY, v double precision, tag text)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b')")
        rows = db.table("t").raw_rows()
        rows.append(list(rows[0]))
        db.checkpoint()
        db.storage.close()
        engine = StorageEngine(path)
        with pytest.raises(SqlIntegrityError, match="duplicate primary key"):
            Database(storage=engine)
        engine.close()


# --------------------------------------------------------------------------- #
# Randomized kill-and-reopen harness
# --------------------------------------------------------------------------- #
class _Workload:
    """Random op stream applied to a database and a plain-dict mirror."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_id = 1
        self.scratch_alive = False

    def apply_op(self, db: Database, mirror: dict) -> None:
        roll = self.rng.random()
        if roll < 0.45 or not mirror:
            row_id = self.next_id
            self.next_id += 1
            value = round(self.rng.uniform(-100, 100), 6)
            tag = self.rng.choice(["a", "b", "c", None])
            db.execute("INSERT INTO t VALUES ($1, $2, $3)", [row_id, value, tag])
            mirror[row_id] = [value, tag]
        elif roll < 0.70:
            row_id = self.rng.choice(list(mirror))
            value = round(self.rng.uniform(-100, 100), 6)
            db.execute("UPDATE t SET v = $1 WHERE id = $2", [value, row_id])
            mirror[row_id][0] = value
        elif roll < 0.85:
            row_id = self.rng.choice(list(mirror))
            db.execute("DELETE FROM t WHERE id = $1", [row_id])
            del mirror[row_id]
        elif roll < 0.92:
            cutoff = self.rng.choice(list(mirror))
            db.execute("DELETE FROM t WHERE id >= $1", [cutoff])
            for row_id in [k for k in mirror if k >= cutoff]:
                del mirror[row_id]
        else:
            self.apply_ddl(db)

    def apply_ddl(self, db: Database) -> None:
        """Mirror-neutral DDL: churn a scratch table and a secondary index."""
        if self.scratch_alive:
            db.execute("DROP TABLE scratch")
            self.scratch_alive = False
        else:
            db.execute("CREATE TABLE scratch (k integer, payload text)")
            db.execute("INSERT INTO scratch VALUES (1, 'x'), (2, 'y')")
            self.scratch_alive = True
        if "t_tag" in db.table("t").indexes:
            db.execute("DROP INDEX t_tag")
        else:
            db.execute("CREATE INDEX t_tag ON t (tag)")

    def expected_rows(self, mirror: dict):
        return [[k, v[0], v[1]] for k, v in sorted(mirror.items())]


@pytest.mark.parametrize("seed", range(24))
def test_randomized_kill_and_reopen(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "fuzz.db"
    workload = _Workload(rng)
    mirror: dict = {}

    # Phase A: a committed baseline - random autocommit ops, explicit
    # transactions (some rolled back), checkpoints at random points.
    db = reopen(path)
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, tag text)")
    for _ in range(rng.randrange(20, 60)):
        if rng.random() < 0.2:
            db.begin()
            staged = {k: list(v) for k, v in mirror.items()}
            for _ in range(rng.randrange(1, 5)):
                workload.apply_op(db, staged)
            if rng.random() < 0.25:
                db.rollback()  # mirror unchanged
                workload.scratch_alive = "scratch" in db.table_names()
            else:
                db.commit()
                mirror = staged
        else:
            workload.apply_op(db, mirror)
        if rng.random() < 0.08:
            db.checkpoint()
    db.storage.close()

    # Phase B: reopen, verify, then run exactly one doomed transaction
    # under a randomly chosen fault.
    fault_kind = rng.choice(["abandon", "fail_before_sync", "fail_after_bytes"])
    if fault_kind == "fail_after_bytes":
        # The budget counts bytes written through THIS writer, so 0..400
        # bytes of the doomed commit reach the file; a budget beyond the
        # commit's actual size lets it land (covered: fold into expected).
        fault = FaultInjector(fail_after_bytes=rng.randrange(0, 400))
    elif fault_kind == "fail_before_sync":
        fault = FaultInjector(fail_before_sync=True)
    else:
        fault = None

    db = reopen(path, fault=fault)
    assert workload.expected_rows(mirror) == rows_of(db)
    workload.scratch_alive = "scratch" in db.table_names()

    staged = {k: list(v) for k, v in mirror.items()}
    scratch_before = workload.scratch_alive
    db.begin()
    for _ in range(rng.randrange(1, 6)):
        workload.apply_op(db, staged)
    committed = False
    if fault_kind == "abandon":
        pass  # die without ever reaching COMMIT
    else:
        try:
            db.commit()
            committed = True  # budget exceeded the commit size - it landed
        except InjectedCrash:
            pass
    db.storage.simulate_crash()

    if committed:
        mirror = staged
    else:
        workload.scratch_alive = scratch_before

    # Recovery: exactly the last committed state, nothing more or less.
    again = reopen(path)
    assert workload.expected_rows(mirror) == rows_of(again)
    assert ("scratch" in again.table_names()) == workload.scratch_alive

    # The recovered engine keeps working: one more committed row must
    # survive yet another kill.
    probe_id = workload.next_id + 1000
    again.execute("INSERT INTO t VALUES ($1, $2, $3)", [probe_id, 0.5, "probe"])
    mirror[probe_id] = [0.5, "probe"]
    again.storage.simulate_crash()
    final = reopen(path)
    assert workload.expected_rows(mirror) == rows_of(final)
    final.storage.close()
