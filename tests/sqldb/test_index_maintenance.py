"""Index maintenance under DML: statement-level PK checks, a randomized
index oracle, write-fault atomicity, and the shallow-snapshot invariant.

* :class:`TestPrimaryKeyUpdate` pins that an UPDATE validates every new
  primary key before its first write: a collision raises and changes
  nothing, while ``SET id = id + 1`` over consecutive ids still succeeds.
  The key checks, lookups, rollback and reopen are pinned for ``integer``
  keys (a B-tree ``t_pkey``) and for ``variant`` and ``bytea`` keys (a
  hash ``t_pkey``), and NaN key parts never collide nor match.
* :class:`TestIndexMaintenanceOracle` runs seeded INSERT/UPDATE/DELETE/
  ROLLBACK sequences on a table with a composite primary key (and so its
  ``m_pkey``: a B-tree, or a hash index when ``site`` is ``variant`` or
  ``bytea``), a hash index and a B-tree index.  After every
  statement each index must equal a from-scratch grouping of the rows
  (per-key positions ascending),
  ``VERIFY`` must report ok, planned point/range/top-k queries must equal
  the naive pipeline, and no stored row may have been mutated in place.
* :class:`TestCompositeIndexOracle` repeats it on a durable database that
  is killed and reopened, with walks and range-routed UPDATE/DELETE
  through the implicit primary-key index ``m_pkey`` on (site, seq) and a
  declared ``USING BTREE (seq, level)``.
* :class:`TestWriteFaultAtomicity` arms ``btree.node_write`` during an
  UPDATE that moves B-tree keys and during a DELETE, in memory and on a
  durable database: the typed error surfaces and the rows and every index
  are exactly as before the statement.
* :class:`TestBulkLoad` covers the building blocks: the position map a
  DELETE compacts with, and :meth:`BTree.from_sorted`.
"""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.errors import InjectedCrash, SqlIntegrityError
from repro.sqldb import Database, StorageEngine
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.storage.btree import (
    NAN_PART,
    NODE_CAPACITY,
    NULL_PART,
    BTree,
    normalize_key,
)
from repro.sqldb.table import _key_of, compaction_map


@pytest.fixture()
def open_db(tmp_path):
    """Open an in-memory or a durable database (one file per test, which a
    second call reopens); durable ones are closed at teardown."""
    opened = []

    def open_(durable: bool) -> Database:
        db = Database(storage=StorageEngine(tmp_path / "maint.db")) if durable else Database()
        opened.append(db)
        return db

    yield open_
    for db in opened:
        if db.storage is not None:
            db.storage.close()


def index_image(index):
    """An index's contents as plain, independently copied values."""
    if index.kind == "btree":
        return [(key, list(positions)) for key, positions in index.tree.items()]
    return {key: list(positions) for key, positions in index.map.items()}


def table_image(table):
    """Rows and every index of ``table``, deep-copied for comparison."""
    return (
        [list(row) for row in table.raw_rows()],
        {name: index_image(index) for name, index in table.indexes.items()},
    )


def expected_image(index, rows):
    """What ``index`` must hold over ``rows``, grouped from scratch here
    (independently of the engine's own rebuild), positions ascending."""
    if index.kind == "btree":
        groups: dict = {}
        for position, row in enumerate(rows):
            key = tuple(btree_part(row[i]) for i in index.positions)
            groups.setdefault(key, []).append(position)
        return sorted(groups.items())
    groups = {}
    for position, row in enumerate(rows):
        key = tuple(_key_of(row[i]) for i in index.positions)
        groups.setdefault(key, []).append(position)
    return groups


def btree_part(value):
    """A B-tree key part: NULL and NaN become the markers that sort last."""
    value = normalize_key(value)
    if value is None:
        return NULL_PART
    if value != value:
        return NAN_PART
    return value


def assert_indexes_fresh(db: Database, table_name: str) -> None:
    table = db.table(table_name)
    rows = table.raw_rows()
    if table.schema.primary_key:
        pkey = table.indexes[f"{table_name}_pkey"]
        assert pkey.columns == table.schema.primary_key
        # No two rows share a key, NaN parts apart (they never collide).
        keys = [tuple(_key_of(row[i]) for i in pkey.positions) for row in rows]
        keys = [key for key in keys if all(part == part for part in key)]
        assert len(set(keys)) == len(keys)
    for name, index in table.indexes.items():
        assert index_image(index) == expected_image(index, rows), name
        if index.kind == "btree":
            assert index.tree.audit() is None, name
    for row in db.verify():
        assert row[1] == "ok", row


def run_both(db: Database, sql: str, params=None):
    planned = db.execute(sql, params).rows
    db.planner_enabled = False
    try:
        naive = db.execute(sql, params).rows
    finally:
        db.planner_enabled = True
    return planned, naive


# --------------------------------------------------------------------------- #
# Statement-level primary-key validation on UPDATE
# --------------------------------------------------------------------------- #
#: The i-th key value of a primary-key column of each type: an ``integer``
#: key is backed by a B-tree ``<table>_pkey``, the others by a hash one.
KEYS = {
    "integer": lambda i: i,
    "variant": lambda i: i if i % 2 else f"k{i}",
    "bytea": lambda i: b"k%d" % i,
}


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
class TestPrimaryKeyUpdate:
    def build(self, open_db, durable, key_type="integer"):
        db = open_db(durable)
        db.execute(f"CREATE TABLE t (id {key_type} PRIMARY KEY, v double precision)")
        db.execute("CREATE INDEX t_v ON t USING BTREE (v)")
        for i in range(3):
            db.execute("INSERT INTO t VALUES ($1, $2)", [KEYS[key_type](i), float(i)])
        return db

    @pytest.mark.parametrize("key_type", sorted(KEYS))
    def test_colliding_update_changes_nothing(self, open_db, durable, key_type):
        db = self.build(open_db, durable, key_type)
        key = KEYS[key_type]
        table = db.table("t")
        before = table_image(table)
        with pytest.raises(SqlIntegrityError):
            db.execute("UPDATE t SET id = $1 WHERE id = $2", [key(0), key(1)])
        assert table_image(table) == before
        assert_indexes_fresh(db, "t")
        assert db.execute("SELECT v FROM t WHERE id = $1", [key(2)]).rows == [[2.0]]
        with pytest.raises(SqlIntegrityError):
            db.execute("INSERT INTO t VALUES ($1, 9.0)", [key(1)])
        assert table_image(table) == before

    @pytest.mark.parametrize("key_type", sorted(KEYS))
    def test_collision_between_updated_rows_changes_nothing(self, open_db, durable, key_type):
        db = self.build(open_db, durable, key_type)
        before = table_image(db.table("t"))
        with pytest.raises(SqlIntegrityError):
            db.execute("UPDATE t SET id = $1", [KEYS[key_type](7)])
        assert table_image(db.table("t")) == before

    @pytest.mark.parametrize("key_type", sorted(KEYS))
    def test_point_lookup_goes_through_pkey(self, open_db, durable, key_type):
        db = self.build(open_db, durable, key_type)
        key = KEYS[key_type]
        # A variant key's ``=`` coerces per row ('1' = 1), which no index
        # lookup reproduces, so a variant key is scanned.
        access = "Scan t" if key_type == "variant" else "IndexLookup t USING t_pkey (id = $1)"
        assert access in db.explain("SELECT id, v FROM t WHERE id = $1")
        for value in (key(1), key(2), key(5), None, "k2", 2, b"k1"):
            planned, naive = run_both(db, "SELECT id, v FROM t WHERE id = $1", [value])
            assert planned == naive, value

    @pytest.mark.parametrize("key_type", sorted(KEYS))
    def test_rollback_and_reopen_keep_the_table(self, open_db, durable, key_type):
        db = self.build(open_db, durable, key_type)
        key = KEYS[key_type]
        before = table_image(db.table("t"))
        db.begin()
        db.execute("INSERT INTO t VALUES ($1, 3.0)", [key(3)])
        db.execute("UPDATE t SET id = $1 WHERE id = $2", [key(4), key(0)])
        db.execute("DELETE FROM t WHERE id = $1", [key(1)])
        db.rollback()
        assert table_image(db.table("t")) == before
        assert_indexes_fresh(db, "t")
        db.checkpoint()
        db.execute("UPDATE t SET id = $1 WHERE id = $2", [key(4), key(0)])
        after = table_image(db.table("t"))
        if durable:
            db.storage.close()
            db = open_db(durable)
            assert table_image(db.table("t")) == after
            assert_indexes_fresh(db, "t")

    def test_array_key_gets_a_hash_pkey(self, open_db, durable):
        # ``double precision[]`` has no DDL spelling here; its values are
        # lists, which the hash key holds as tuples.
        db = open_db(durable)
        db.create_table(TableSchema(
            name="a",
            columns=[ColumnDefinition("k", "double precision[]"), ColumnDefinition("v", "integer")],
            primary_key=["k"],
        ))
        db.insert_rows("a", [[[1.0, 2.0], 1], [[2.0], 2]])
        with pytest.raises(SqlIntegrityError):
            db.insert_rows("a", [[[1, 2], 3]])
        assert db.table("a").lookup_pk([[2.0]])["v"] == 2
        assert_indexes_fresh(db, "a")
        if durable:
            db.storage.close()
            assert open_db(durable).table("a").lookup_pk([[1.0, 2.0]])["v"] == 1

    @pytest.mark.parametrize("key_type", ["double precision", "variant"])
    def test_nan_key_parts_never_collide_nor_match(self, open_db, durable, key_type):
        # The same NaN object twice, a distinct one and a key moved onto
        # NaN: no key collides, and no lookup or equality finds any of them.
        db = open_db(durable)
        db.execute(f"CREATE TABLE n (k {key_type} PRIMARY KEY, v integer)")
        nan = float("nan")
        for v, value in enumerate([nan, nan, float("nan"), 1.5]):
            db.execute("INSERT INTO n VALUES ($1, $2)", [value, v])
        db.execute("UPDATE n SET k = $1 WHERE v = 3", [nan])
        table = db.table("n")
        assert table.lookup_pk([nan]) is None and table.pk_positions_for([nan]) == []
        assert db.execute("SELECT v FROM n WHERE k = $1", [nan]).rows == []
        assert_indexes_fresh(db, "n")
        if durable:
            db.storage.close()
            db = open_db(durable)
            assert len(db.table("n")) == 4
            assert_indexes_fresh(db, "n")

    def test_null_key_part_is_rejected(self, open_db, durable):
        # A table-level PRIMARY KEY does not make its columns NOT NULL, so
        # the key check itself must refuse NULL, as INSERT does.
        db = open_db(durable)
        db.execute("CREATE TABLE c (a integer, b integer, PRIMARY KEY (a, b))")
        db.execute("INSERT INTO c VALUES (1, 2)")
        before = table_image(db.table("c"))
        with pytest.raises(SqlIntegrityError):
            db.execute("UPDATE c SET b = NULL")
        assert table_image(db.table("c")) == before

    def test_shifting_every_key_succeeds(self, open_db, durable):
        db = self.build(open_db, durable)
        assert db.execute("UPDATE t SET id = id + 1").rowcount == 3
        assert db.execute("SELECT id, v FROM t ORDER BY id").rows == [
            [1, 0.0], [2, 1.0], [3, 2.0]
        ]
        assert db.execute("SELECT v FROM t WHERE id = 3").rows == [[2.0]]
        assert_indexes_fresh(db, "t")

    def test_swapping_keys_succeeds(self, open_db, durable):
        db = self.build(open_db, durable)
        assert db.execute("UPDATE t SET id = 2 - id").rowcount == 3
        assert db.execute("SELECT id, v FROM t ORDER BY id").rows == [
            [0, 2.0], [1, 1.0], [2, 0.0]
        ]
        assert_indexes_fresh(db, "t")


# --------------------------------------------------------------------------- #
# Randomized index-maintenance oracle
# --------------------------------------------------------------------------- #
class TestIndexMaintenanceOracle:
    # Key ranges sized so the table holds ~150-250 rows and the B-tree has
    # several leaves under an inner node: bulk loads, splits and moves
    # between leaves all happen.
    SITES, SEQS, LEVELS = 8, 60, 120
    TAGS = ["a", "b", "c", "d", None]

    site_key = staticmethod(KEYS["integer"])  # how a site value is spelled

    QUERIES = [
        (
            "SELECT * FROM m WHERE site = $1 AND seq = $2",
            lambda self, r: [self.site(r), r.randrange(self.SEQS)],
        ),
        ("SELECT site, seq, level FROM m WHERE tag = $1", lambda self, r: [r.choice("abcd")]),
        ("SELECT site, seq, tag FROM m WHERE level = $1", lambda self, r: [self.level(r, nulls=False)]),
        (
            "SELECT site, seq, level FROM m WHERE level BETWEEN $1 AND $2",
            lambda self, r: sorted([self.level(r, nulls=False), self.level(r, nulls=False)]),
        ),
        (
            "SELECT site, seq, level FROM m WHERE level >= $1 ORDER BY level LIMIT 5",
            lambda self, r: [self.level(r, nulls=False)],
        ),
        ("SELECT site, seq, level FROM m ORDER BY level DESC LIMIT 6", lambda self, r: None),
        ("SELECT site, seq, level, note FROM m ORDER BY level LIMIT 9", lambda self, r: None),
    ]

    def site(self, rng):
        return self.site_key(rng.randrange(self.SITES))

    def level(self, rng, nulls=True):
        return None if nulls and rng.random() < 0.1 else float(rng.randrange(self.LEVELS))

    def statement(self, rng):
        """One random DML statement and its parameters."""
        site, seq = self.site(rng), rng.randrange(self.SEQS)
        roll = rng.random()
        if roll < 0.3:
            return "INSERT INTO m VALUES ($1, $2, $3, $4, $5)", [
                site, seq, rng.choice(self.TAGS), self.level(rng), rng.random()
            ]
        if roll < 0.38:
            return "UPDATE m SET note = $1 WHERE site = $2 AND seq = $3", [rng.random(), site, seq]
        if roll < 0.45:
            low = self.level(rng, nulls=False)
            return "UPDATE m SET tag = $1 WHERE level BETWEEN $2 AND $3", [
                rng.choice(self.TAGS), low, low + 10.0
            ]
        if roll < 0.52:
            return "UPDATE m SET level = $1 WHERE tag = $2 AND note < 0.3", [
                self.level(rng), rng.choice("abcd")
            ]
        if roll < 0.59:
            return "UPDATE m SET level = level + 1, note = note * 2 WHERE site = $1 AND seq = $2", [
                site, seq
            ]
        if roll < 0.64:
            # A whole site shifts (always legal) or only its low seqs
            # (collides when the row just above the cut stays put).
            return "UPDATE m SET seq = seq + $1 WHERE site = $2 AND seq < $3", [
                rng.choice([-1, 1]), site, rng.choice([seq, self.SEQS * 2])
            ]
        if roll < 0.7:
            return "UPDATE m SET site = $1, level = $2 WHERE site = $3 AND seq = $4", [
                self.site(rng), self.level(rng), site, seq
            ]
        if roll < 0.82:
            return "DELETE FROM m WHERE site = $1 AND seq = $2", [site, seq]
        if roll < 0.92:
            return "DELETE FROM m WHERE tag = $1 AND note < $2", [rng.choice("abcd"), rng.random() / 4]
        return "DELETE FROM m WHERE level > $1", [float(self.LEVELS - rng.randrange(1, 8))]

    def execute(self, db, sql, params):
        """Run one statement; a rejected one must leave the table untouched."""
        before = table_image(db.table("m"))
        try:
            db.execute(sql, params)
        except SqlIntegrityError:
            assert table_image(db.table("m")) == before, sql

    def check(self, db, rng, stored, context):
        assert_indexes_fresh(db, "m")
        # Rows are replaced, never mutated: every row object ever stored
        # still holds the values it had when first seen.
        for row in db.table("m").raw_rows():
            stored.setdefault(id(row), (row, list(row)))
        for row, values in stored.values():
            assert row == values, context
        for sql, make_params in self.QUERIES:
            planned, naive = run_both(db, sql, make_params(self, rng))
            assert planned == naive, f"{context}: {sql}"

    @pytest.mark.parametrize("site_type", sorted(KEYS))
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_dml(self, seed, site_type):
        rng = random.Random(0x1D3A + seed)
        self.site_key = KEYS[site_type]
        db = Database()
        db.execute(
            f"CREATE TABLE m (site {site_type}, seq integer, tag text, level double precision, "
            "note double precision, PRIMARY KEY (site, seq))"
        )
        db.execute("CREATE INDEX m_tag ON m (tag)")
        db.execute("CREATE INDEX m_level ON m USING BTREE (level)")
        for _ in range(200):
            self.execute(db, "INSERT INTO m VALUES ($1, $2, $3, $4, $5)", [
                self.site(rng), rng.randrange(self.SEQS), rng.choice(self.TAGS),
                self.level(rng), rng.random(),
            ])
        if seed % 2:
            db.execute("ANALYZE m")
        plans = "\n".join(db.explain(sql) for sql, _ in self.QUERIES[:5])
        # A variant key is scanned (see TestPrimaryKeyUpdate).
        assert ("IndexLookup m USING m_pkey" in plans) == (site_type != "variant")
        assert "IndexLookup m USING m_tag" in plans
        assert "IndexRangeScan" in plans
        stored: dict = {}
        for step in range(100):
            context = f"seed={seed} step={step}"
            if rng.random() < 0.1:
                before = table_image(db.table("m"))
                db.begin()
                for _ in range(rng.randint(1, 4)):
                    self.execute(db, *self.statement(rng))
                db.rollback()
                assert table_image(db.table("m")) == before, context
            else:
                self.execute(db, *self.statement(rng))
            self.check(db, rng, stored, context)


class TestCompositeIndexOracle(TestIndexMaintenanceOracle):
    """The same oracle over the ordered indexes an equality prefix walks:
    the implicit ``m_pkey`` on (site, seq) and a declared ``USING BTREE
    (seq, level)``, on a durable database that is checkpointed, killed and
    reopened.  Statements add range-routed UPDATE/DELETE through both."""

    QUERIES = TestIndexMaintenanceOracle.QUERIES + [
        ("SELECT * FROM m WHERE site = $1", lambda self, r: [r.randrange(self.SITES)]),
        (
            "SELECT site, seq, note FROM m WHERE site = $1 AND seq BETWEEN $2 AND $3",
            lambda self, r: [r.randrange(self.SITES), *self.seq_window(r)],
        ),
        (
            "SELECT site, seq, level FROM m WHERE seq = $1 AND level >= $2",
            lambda self, r: [r.randrange(self.SEQS), self.level(r, nulls=False)],
        ),
        (
            "SELECT site, seq FROM m WHERE site = $1 AND seq < $2 ORDER BY seq DESC LIMIT 4",
            lambda self, r: [r.randrange(self.SITES), r.randrange(self.SEQS)],
        ),
        ("SELECT * FROM m ORDER BY site LIMIT 7", lambda self, r: None),
    ]

    def seq_window(self, rng):
        return sorted([rng.randrange(self.SEQS), rng.randrange(self.SEQS)])

    def statement(self, rng):
        roll = rng.random()
        if roll < 0.06:
            return "DELETE FROM m WHERE site = $1 AND seq > $2", [
                rng.randrange(self.SITES), self.SEQS - rng.randrange(1, 8)
            ]
        if roll < 0.12:
            return "DELETE FROM m WHERE seq = $1 AND level < $2", [
                rng.randrange(self.SEQS), self.level(rng, nulls=False)
            ]
        if roll < 0.18:
            return "UPDATE m SET site = $1 WHERE site = $2 AND seq BETWEEN $3 AND $4", [
                rng.randrange(self.SITES), rng.randrange(self.SITES), *self.seq_window(rng)
            ]
        return super().statement(rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_dml(self, seed, tmp_path):
        rng = random.Random(0xC0B7 + seed)
        path = tmp_path / "composite.db"
        db = Database(storage=StorageEngine(path))
        try:
            db.execute(
                "CREATE TABLE m (site integer, seq integer, tag text, level double precision, "
                "note double precision, PRIMARY KEY (site, seq))"
            )
            db.execute("CREATE INDEX m_tag ON m (tag)")
            db.execute("CREATE INDEX m_level ON m USING BTREE (level)")
            db.execute("CREATE INDEX m_seq_level ON m USING BTREE (seq, level)")
            for _ in range(200):
                self.execute(db, "INSERT INTO m VALUES ($1, $2, $3, $4, $5)", [
                    rng.randrange(self.SITES), rng.randrange(self.SEQS), rng.choice(self.TAGS),
                    self.level(rng), rng.random(),
                ])
            plans = "\n".join(db.explain(sql) for sql, _ in self.QUERIES)
            assert "IndexRangeScan m USING m_pkey (site = $1)" in plans
            assert "USING m_pkey (site = $1 AND seq >= $2 AND seq <= $3)" in plans
            assert "USING m_seq_level (seq = $1 AND level >= $2)" in plans
            assert "USING m_pkey (site = $1 AND seq > $2)" in db.explain(
                "DELETE FROM m WHERE site = $1 AND seq > $2"
            )
            stored: dict = {}
            for step in range(60):
                context = f"seed={seed} step={step}"
                if step == 25:
                    db.checkpoint()
                if step % 20 == 19:
                    before = table_image(db.table("m"))
                    db.storage.simulate_crash()
                    db = Database(storage=StorageEngine(path))
                    assert table_image(db.table("m")) == before, context
                if rng.random() < 0.1:
                    before = table_image(db.table("m"))
                    db.begin()
                    for _ in range(rng.randint(1, 4)):
                        self.execute(db, *self.statement(rng))
                    db.rollback()
                    assert table_image(db.table("m")) == before, context
                else:
                    self.execute(db, *self.statement(rng))
                self.check(db, rng, stored, context)
        finally:
            db.storage.close()


# --------------------------------------------------------------------------- #
# btree.node_write faults during UPDATE and DELETE
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
class TestWriteFaultAtomicity:
    STATEMENTS = {
        # One row's B-tree key moves: the fault fires on its new entry.
        "update_one": ("UPDATE t SET v = 1000.5 WHERE id = 7", 1),
        # Many keys move (and a node splits): earlier new entries must be undone.
        "update_many": ("UPDATE t SET v = v + 0.25, w = 'moved' WHERE w = 'x'", 9),
        # The remapped B-tree is bulk-loaded; the fault hits a node write.
        "delete": ("DELETE FROM t WHERE v < 5", 2),
    }
    QUERIES = [
        "SELECT id, v FROM t WHERE v BETWEEN 10 AND 40",
        "SELECT id, v, w FROM t ORDER BY v DESC LIMIT 12",
        "SELECT id, v FROM t WHERE w = 'x'",
        "SELECT id, w FROM t WHERE id = 7",
    ]

    def build(self, open_db, durable):
        db = open_db(durable)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v double precision, w text)")
        db.execute("CREATE INDEX t_v ON t USING BTREE (v)")
        db.execute("CREATE INDEX t_w ON t (w)")
        for i in range(4 * NODE_CAPACITY):
            v = None if i % 11 == 0 else float(i % 50)
            db.execute("INSERT INTO t VALUES ($1, $2, $3)", [i, v, "xyz"[i % 3]])
        return db

    def assert_queries_match(self, db):
        for sql in self.QUERIES:
            planned, naive = run_both(db, sql)
            assert planned == naive, sql

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_fault_leaves_table_as_before(self, open_db, durable, name):
        sql, nth = self.STATEMENTS[name]
        db = self.build(open_db, durable)
        table = db.table("t")
        before = table_image(table)
        injector = faults.FaultInjector().arm("btree.node_write", nth=nth, trips=1)
        with faults.activate(injector):
            with pytest.raises(InjectedCrash):
                db.execute(sql)
        assert "btree.node_write" in injector.events, "armed fault never fired"
        assert table_image(db.table("t")) == before
        assert_indexes_fresh(db, "t")
        self.assert_queries_match(db)
        # The engine keeps working: the same statement now goes through.
        assert db.execute(sql).rowcount > 0
        assert_indexes_fresh(db, "t")
        self.assert_queries_match(db)
        if durable:
            after = table_image(db.table("t"))
            db.storage.close()
            assert table_image(open_db(durable).table("t")) == after


# --------------------------------------------------------------------------- #
# Building blocks: the compaction map and the bulk loader
# --------------------------------------------------------------------------- #
class TestBulkLoad:
    @pytest.mark.parametrize("seed", range(6))
    def test_compaction_map_matches_naive(self, seed):
        rng = random.Random(0xC0 + seed)
        count = rng.randint(1, 60)
        doomed = sorted(rng.sample(range(count), rng.randint(1, count)))
        survivors = [p for p in range(count) if p not in doomed]
        expected = [survivors.index(p) if p in survivors else None for p in range(count)]
        assert compaction_map(count, doomed) == expected

    @pytest.mark.parametrize(
        "count", [0, 1, NODE_CAPACITY, NODE_CAPACITY + 1, NODE_CAPACITY * (NODE_CAPACITY + 1) + 3]
    )
    def test_from_sorted_is_a_valid_tree(self, count):
        keys = list(range(0, 2 * count, 2))
        values = [[k, k + 1] for k in keys]
        tree = BTree.from_sorted(keys, values)
        assert tree.audit() is None
        assert list(tree.items()) == list(zip(keys, values))
        for key in keys[:: max(1, count // 50)]:
            assert tree.get(key) == [key, key + 1]
            assert tree.get(key + 1) == []
        # The loaded tree keeps accepting single-entry writes.
        for key in range(-1, 2 * count + 1, 7):
            tree.insert(key, 10 ** 6)
        tree.remove(-1, 10 ** 6)
        assert tree.audit() is None
        assert [k for k, _ in tree.items()] == sorted(k for k, _ in tree.items())

    def test_from_sorted_passes_the_fault_point(self):
        keys = list(range(3 * NODE_CAPACITY))
        injector = faults.FaultInjector().arm("btree.node_write", nth=2, trips=1)
        with faults.activate(injector):
            with pytest.raises(InjectedCrash):
                BTree.from_sorted(keys, [[k] for k in keys])
