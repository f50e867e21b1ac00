"""Planner subsystem tests: plan shapes, indexes, transactions, equivalence."""

from __future__ import annotations

import random
import re

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqldb import Database, connect
from repro.sqldb.planner.nodes import IndexRangeScan
from repro.sqldb.storage.btree import OrderedIndex


@pytest.fixture()
def fleet_db():
    """A small pgFMU-flavoured schema: instances and simulation results."""
    db = Database()
    db.execute("CREATE TABLE instances (instance_id text PRIMARY KEY, model text)")
    db.execute(
        "CREATE TABLE sims (instance_id text, time double precision, value double precision)"
    )
    for i in range(8):
        db.execute("INSERT INTO instances VALUES ($1, $2)", [f"I{i}", f"HP{i % 2}"])
        for t in range(25):
            db.execute(
                "INSERT INTO sims VALUES ($1, $2, $3)", [f"I{i}", float(t), i + t * 0.5]
            )
    return db


def plan_text(db: Database, sql: str) -> str:
    return db.explain(sql)


# --------------------------------------------------------------------------- #
# Plan shapes via EXPLAIN
# --------------------------------------------------------------------------- #
class TestPlanShapes:
    def test_pushdown_into_scan(self, fleet_db):
        text = plan_text(fleet_db, "SELECT * FROM sims WHERE value > 3 AND time < 10")
        assert "Scan sims (filter:" in text
        assert "Filter (" not in text  # fully pushed, no residual

    def test_primary_key_point_lookup(self, fleet_db):
        text = plan_text(fleet_db, "SELECT * FROM instances WHERE instance_id = 'I3'")
        assert "IndexLookup instances USING instances_pkey" in text

    def test_parameter_point_lookup(self, fleet_db):
        text = plan_text(fleet_db, "SELECT * FROM instances WHERE instance_id = $1")
        assert "IndexLookup instances USING instances_pkey (instance_id = $1)" in text

    def test_secondary_index_lookup_with_residual(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        text = plan_text(
            fleet_db, "SELECT * FROM sims WHERE instance_id = 'I1' AND time > 5"
        )
        assert "IndexLookup sims USING idx_sims_instance (instance_id = 'I1')" in text
        assert "filter: time > 5" in text

    def test_drop_index_reverts_to_scan(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        fleet_db.execute("DROP INDEX idx_sims_instance")
        text = plan_text(fleet_db, "SELECT * FROM sims WHERE instance_id = 'I1'")
        assert "IndexLookup" not in text and "Scan sims" in text

    def test_equi_join_becomes_hash_join(self, fleet_db):
        text = plan_text(
            fleet_db,
            "SELECT s.time FROM sims s JOIN instances i ON s.instance_id = i.instance_id",
        )
        assert "HashJoin inner" in text

    def test_left_equi_join_becomes_hash_join(self, fleet_db):
        text = plan_text(
            fleet_db,
            "SELECT s.time FROM sims s LEFT JOIN instances i "
            "ON s.instance_id = i.instance_id",
        )
        assert "HashJoin left" in text

    def test_comma_join_equality_becomes_hash_join(self, fleet_db):
        text = plan_text(
            fleet_db,
            "SELECT s.time FROM sims s, instances i "
            "WHERE s.instance_id = i.instance_id AND i.model = 'HP0'",
        )
        assert "HashJoin inner" in text
        assert "Scan instances AS i (filter:" in text  # i.model pushed down

    def test_non_equi_join_stays_nested_loop(self, fleet_db):
        text = plan_text(
            fleet_db, "SELECT s.time FROM sims s JOIN instances i ON s.value > i.instance_id"
        )
        assert "NestedLoopJoin" in text and "HashJoin" not in text

    def test_limit_pushes_topk_into_sort(self, fleet_db):
        text = plan_text(fleet_db, "SELECT * FROM sims ORDER BY value DESC LIMIT 3")
        assert "Sort (key: value DESC) (top-k)" in text
        assert "Limit (limit=3)" in text

    def test_or_predicate_derives_scan_filter_with_residual(self, fleet_db):
        text = plan_text(
            fleet_db,
            "SELECT s.time FROM sims s, instances i "
            "WHERE (s.value > 3 AND i.model = 'HP0') OR (s.value < 1 AND i.model = 'HP1')",
        )
        # Both tables get a derived OR predicate; the full WHERE is residual.
        assert "Scan sims AS s (filter:" in text
        assert "Scan instances AS i (filter:" in text
        assert "Filter (" in text

    def test_join_predicate_stays_above_nullable_side(self, fleet_db):
        text = plan_text(
            fleet_db,
            "SELECT s.time FROM sims s LEFT JOIN instances i "
            "ON s.instance_id = i.instance_id WHERE i.model IS NULL",
        )
        assert "Scan instances AS i\n" in text + "\n"  # no pushed filter
        assert "Filter (i.model IS NULL)" in text

    def test_explain_dml(self, fleet_db):
        assert "Insert on sims" in plan_text(fleet_db, "INSERT INTO sims VALUES ('x', 0, 0)")
        assert "Update on sims" in plan_text(fleet_db, "UPDATE sims SET value = 0 WHERE time = 1")
        assert "Delete on sims" in plan_text(fleet_db, "DELETE FROM sims WHERE time = 1")

    def test_explain_through_cursor(self, fleet_db):
        conn = connect(fleet_db)
        cur = conn.cursor()
        cur.execute("EXPLAIN SELECT * FROM instances WHERE instance_id = 'I0'")
        lines = [row[0] for row in cur.fetchall()]
        assert cur.description[0][0] == "QUERY PLAN"
        assert any("IndexLookup" in line for line in lines)
        assert conn.explain("SELECT * FROM instances WHERE instance_id = 'I0'") == "\n".join(lines)

    def test_plan_cache_invalidated_by_ddl(self, fleet_db):
        sql = "SELECT * FROM sims WHERE instance_id = 'I1'"
        statement = fleet_db._parse_cached(sql)
        before = fleet_db.plan_select(statement)
        assert fleet_db.plan_select(statement) is before  # cached
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        after = fleet_db.plan_select(statement)
        assert after is not before
        assert "IndexLookup" in after.node_names()


# --------------------------------------------------------------------------- #
# Index maintenance and catalogue behaviour
# --------------------------------------------------------------------------- #
class TestIndexMaintenance:
    def test_insert_update_delete_maintain_index(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        count = "SELECT count(*) FROM sims WHERE instance_id = $1"
        assert fleet_db.execute(count, ["I1"]).scalar() == 25
        fleet_db.execute("INSERT INTO sims VALUES ('I1', 99, 0)")
        assert fleet_db.execute(count, ["I1"]).scalar() == 26
        fleet_db.execute("UPDATE sims SET instance_id = 'Z' WHERE time = 99")
        assert fleet_db.execute(count, ["I1"]).scalar() == 25
        assert fleet_db.execute(count, ["Z"]).scalar() == 1
        fleet_db.execute("DELETE FROM sims WHERE instance_id = 'Z'")
        assert fleet_db.execute(count, ["Z"]).scalar() == 0

    def test_rollback_restores_index_contents(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        count = "SELECT count(*) FROM sims WHERE instance_id = 'I1'"
        fleet_db.begin()
        fleet_db.execute("DELETE FROM sims WHERE instance_id = 'I1'")
        assert fleet_db.execute(count).scalar() == 0
        fleet_db.rollback()
        assert fleet_db.execute(count).scalar() == 25
        assert "IndexLookup" in fleet_db.explain(count)

    def test_create_index_inside_transaction_rolls_back(self, fleet_db):
        fleet_db.begin()
        fleet_db.execute("CREATE INDEX idx_txn ON sims (instance_id)")
        assert fleet_db.has_index("idx_txn")
        fleet_db.rollback()
        assert not fleet_db.has_index("idx_txn")
        assert "IndexLookup" not in fleet_db.explain(
            "SELECT * FROM sims WHERE instance_id = 'I1'"
        )

    def test_drop_index_inside_transaction_rolls_back(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_keep ON sims (instance_id)")
        fleet_db.begin()
        fleet_db.execute("DROP INDEX idx_keep")
        fleet_db.rollback()
        assert fleet_db.has_index("idx_keep")
        assert fleet_db.execute(
            "SELECT count(*) FROM sims WHERE instance_id = 'I2'"
        ).scalar() == 25

    def test_drop_table_drops_its_indexes(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_gone ON sims (instance_id)")
        fleet_db.execute("DROP TABLE sims")
        assert not fleet_db.has_index("idx_gone")

    def test_index_ddl_errors(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_dup ON sims (instance_id)")
        with pytest.raises(SqlCatalogError):
            fleet_db.execute("CREATE INDEX idx_dup ON sims (time)")
        fleet_db.execute("CREATE INDEX IF NOT EXISTS idx_dup ON sims (time)")
        with pytest.raises(SqlCatalogError):
            fleet_db.execute("CREATE INDEX idx_bad ON sims (ghost_column)")
        with pytest.raises(SqlCatalogError):
            fleet_db.execute("DROP INDEX idx_missing")
        fleet_db.execute("DROP INDEX IF EXISTS idx_missing")

    def test_multi_column_index(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_pair ON sims (instance_id, time)")
        text = fleet_db.explain(
            "SELECT * FROM sims WHERE instance_id = 'I1' AND time = 3"
        )
        assert "IndexLookup sims USING idx_pair" in text
        value = fleet_db.execute(
            "SELECT value FROM sims WHERE instance_id = 'I1' AND time = 3"
        ).scalar()
        assert value == pytest.approx(1 + 3 * 0.5)


# --------------------------------------------------------------------------- #
# Ambiguous unqualified columns (PostgreSQL behaviour)
# --------------------------------------------------------------------------- #
class TestAmbiguousColumns:
    def test_unqualified_duplicate_column_rejected(self, fleet_db):
        with pytest.raises(SqlCatalogError, match="ambiguous"):
            fleet_db.execute(
                "SELECT instance_id FROM sims s JOIN instances i "
                "ON s.instance_id = i.instance_id"
            )

    def test_naive_path_also_rejects(self, fleet_db):
        fleet_db.planner_enabled = False
        try:
            with pytest.raises(SqlCatalogError, match="ambiguous"):
                fleet_db.execute(
                    "SELECT instance_id FROM sims s JOIN instances i "
                    "ON s.instance_id = i.instance_id"
                )
        finally:
            fleet_db.planner_enabled = True

    def test_qualified_references_still_work(self, fleet_db):
        result = fleet_db.execute(
            "SELECT s.instance_id FROM sims s JOIN instances i "
            "ON s.instance_id = i.instance_id WHERE i.instance_id = 'I0'"
        )
        assert len(result) == 25

    def test_non_overlapping_unqualified_reference_ok(self, fleet_db):
        result = fleet_db.execute(
            "SELECT model, time FROM sims s JOIN instances i "
            "ON s.instance_id = i.instance_id WHERE i.instance_id = 'I0' AND time = 1"
        )
        assert result.rows == [["HP0", 1.0]]


# --------------------------------------------------------------------------- #
# Copy-on-write transactions
# --------------------------------------------------------------------------- #
class TestCopyOnWriteTransactions:
    def test_only_written_tables_are_snapshotted(self, fleet_db):
        fleet_db.begin()
        assert fleet_db._txn.tables_before == {}
        fleet_db.execute("INSERT INTO sims VALUES ('I0', 99, 0)")
        assert set(fleet_db._txn.tables_before) == {"sims"}
        fleet_db.execute("SELECT count(*) FROM instances")  # reads are free
        assert set(fleet_db._txn.tables_before) == {"sims"}
        fleet_db.rollback()
        assert (
            fleet_db.execute("SELECT count(*) FROM sims WHERE time = 99").scalar() == 0
        )

    def test_created_then_dropped_table_rolls_back_cleanly(self, fleet_db):
        fleet_db.begin()
        fleet_db.execute("CREATE TABLE scratch (a integer)")
        fleet_db.execute("INSERT INTO scratch VALUES (1)")
        fleet_db.execute("DROP TABLE scratch")
        fleet_db.rollback()
        assert not fleet_db.has_table("scratch")

    def test_drop_then_recreate_restores_original(self, fleet_db):
        fleet_db.begin()
        fleet_db.execute("DROP TABLE instances")
        fleet_db.execute("CREATE TABLE instances (other integer)")
        fleet_db.rollback()
        assert fleet_db.table("instances").column_names == ["instance_id", "model"]
        assert fleet_db.execute("SELECT count(*) FROM instances").scalar() == 8


# --------------------------------------------------------------------------- #
# Randomized planned-vs-naive equivalence
# --------------------------------------------------------------------------- #
class TestEquivalence:
    QUERY_TEMPLATES = [
        "SELECT * FROM people WHERE age > {n}",
        "SELECT * FROM people WHERE age > {n} AND city = '{city}'",
        "SELECT * FROM people WHERE city = '{city}' OR age < {n}",
        "SELECT name FROM people WHERE id = {pk}",
        "SELECT name FROM people WHERE id = {pk} AND age IS NOT NULL",
        "SELECT * FROM people WHERE age BETWEEN {n} AND {m}",
        "SELECT * FROM people WHERE city IN ('{city}', 'nowhere')",
        "SELECT p.name, c.region FROM people p JOIN cities c ON p.city = c.city",
        "SELECT p.name, c.region FROM people p LEFT JOIN cities c ON p.city = c.city",
        "SELECT p.name FROM people p JOIN cities c ON p.city = c.city "
        "WHERE c.region = 'north' AND p.age > {n}",
        "SELECT p.name FROM people p LEFT JOIN cities c ON p.city = c.city "
        "WHERE c.region IS NULL",
        "SELECT p.name, c.region FROM people p JOIN cities c "
        "ON p.city = c.city AND p.age > {n}",
        "SELECT city, count(*) AS n, avg(age) FROM people GROUP BY city ORDER BY n DESC, city",
        "SELECT DISTINCT city FROM people ORDER BY city",
        "SELECT * FROM people ORDER BY age DESC, id LIMIT {k}",
        "SELECT * FROM people ORDER BY age DESC, id LIMIT {k} OFFSET 1",
        "SELECT name FROM people WHERE age = (SELECT max(age) FROM people)",
        "SELECT count(*) FROM people WHERE city IN (SELECT city FROM cities WHERE region = 'north')",
        "SELECT upper(name) FROM people WHERE NOT (age > {n}) ORDER BY 1",
        "SELECT p.name FROM people p, cities c WHERE p.city = c.city AND c.region = 'north'",
    ]

    @pytest.fixture()
    def corpus_db(self):
        rng = random.Random(0xC0FFEE)
        db = Database()
        db.execute(
            "CREATE TABLE people (id integer PRIMARY KEY, name text, "
            "age double precision, city text)"
        )
        db.execute("CREATE TABLE cities (city text PRIMARY KEY, region text)")
        cities = ["aalborg", "aarhus", "odense", "esbjerg"]
        for city, region in zip(cities, ["north", "north", "south", "west"]):
            db.execute("INSERT INTO cities VALUES ($1, $2)", [city, region])
        for i in range(60):
            age = None if rng.random() < 0.1 else round(rng.uniform(18, 80), 1)
            city = rng.choice(cities + ["ghosttown"])
            db.execute(
                "INSERT INTO people VALUES ($1, $2, $3, $4)",
                [i, f"p{i}", age, city],
            )
        db.execute("CREATE INDEX idx_people_city ON people (city)")
        return db, rng

    def test_random_corpus_matches_naive(self, corpus_db):
        db, rng = corpus_db
        for template in self.QUERY_TEMPLATES:
            for _ in range(3):
                sql = template.format(
                    n=rng.randint(18, 70),
                    m=rng.randint(40, 80),
                    pk=rng.randint(0, 70),
                    city=rng.choice(["aalborg", "odense", "ghosttown"]),
                    k=rng.randint(1, 8),
                )
                planned = db.execute(sql)
                db.planner_enabled = False
                try:
                    naive = db.execute(sql)
                finally:
                    db.planner_enabled = True
                assert planned.columns == naive.columns, sql
                assert planned.rows == naive.rows, sql

    def test_negative_limit_matches_naive(self, corpus_db):
        db, _ = corpus_db
        for sql in (
            "SELECT id FROM people ORDER BY id LIMIT -1",
            "SELECT id FROM people ORDER BY id LIMIT 5 OFFSET -2",
        ):
            planned = db.execute(sql)
            db.planner_enabled = False
            try:
                naive = db.execute(sql)
            finally:
                db.planner_enabled = True
            assert planned.rows == naive.rows, sql

    def test_index_and_explain_stay_usable_as_column_names(self):
        db = Database()
        db.execute("CREATE TABLE t (index integer PRIMARY KEY, explain text)")
        db.execute("INSERT INTO t VALUES (1, 'why')")
        assert db.execute("SELECT index, explain FROM t WHERE index = 1").rows == [[1, "why"]]

    def test_parameterized_point_lookup_reexecutes_per_params(self, corpus_db):
        db, _ = corpus_db
        sql = "SELECT name FROM people WHERE id = $1"
        assert db.execute(sql, [3]).scalar() == "p3"
        assert db.execute(sql, [7]).scalar() == "p7"
        assert db.execute(sql, [9999]).rows == []


# --------------------------------------------------------------------------- #
# Randomized corpus: ordered indexes, statistics, join permutations
# --------------------------------------------------------------------------- #
CORPUS_SEEDS = list(range(20))

#: Query templates exercised per seed; together with the seed matrix this
#: yields well over 200 generated queries per run (20 seeds x 21 templates).
CORPUS_TEMPLATES = [
    # Range predicates over the btree column (duplicates, NULLs in data).
    "SELECT * FROM people WHERE age BETWEEN {n} AND {m}",
    "SELECT * FROM people WHERE age > {n}",
    "SELECT * FROM people WHERE age >= {n} AND age < {m}",
    "SELECT * FROM people WHERE age < {n} OR age > {m}",
    # Degenerate/empty/NULL-bound ranges.
    "SELECT name, age FROM people WHERE age BETWEEN {n} AND {n}",
    "SELECT * FROM people WHERE age BETWEEN {m} AND {n}",
    "SELECT * FROM people WHERE age BETWEEN {n} AND NULL",
    "SELECT * FROM people WHERE age IS NULL",
    "SELECT * FROM people WHERE age IS NOT NULL AND age <= {n}",
    # Ranges combined with hash-index point predicates.
    "SELECT * FROM people WHERE age BETWEEN {n} AND {m} AND city = '{city}'",
    # ORDER BY / top-k on the btree column (asc, desc, offset, aliasing).
    "SELECT * FROM people ORDER BY age LIMIT {k}",
    "SELECT * FROM people ORDER BY age DESC LIMIT {k} OFFSET {o}",
    "SELECT id, age AS years FROM people WHERE city = '{city}' ORDER BY age LIMIT {k}",
    "SELECT * FROM people ORDER BY age",
    "SELECT name FROM people WHERE age > {n} ORDER BY age DESC, id LIMIT {k}",
    "SELECT age, count(*) FROM people WHERE age > {n} GROUP BY age ORDER BY age",
    "SELECT * FROM visits WHERE day BETWEEN {d1} AND {d2} ORDER BY day LIMIT {k}",
    # Three-table comma joins in every declaration order (reorder + restore).
    "SELECT name, region, day FROM people, cities, visits "
    "WHERE people.city = cities.city AND visits.pid = people.id AND day < {d1}",
    "SELECT name, region, day FROM visits, people, cities "
    "WHERE people.city = cities.city AND visits.pid = people.id AND day < {d1}",
    "SELECT name, region, day FROM cities, visits, people "
    "WHERE people.city = cities.city AND visits.pid = people.id AND day < {d1}",
    "SELECT p.name FROM people p, visits v "
    "WHERE p.id = v.pid AND v.score > {n} ORDER BY p.name, v.vid LIMIT {k}",
]

#: Walks of the composite primary key ``readings_pkey`` on (house, time):
#: an equality prefix alone, and with ``BETWEEN``/``<``/``>=`` on ``time``.
#: Rows are stored out of key order and some times are NaN, which only a
#: prefix-only walk may emit.  Also the declared ``(site, x)`` B-tree, and
#: ORDER BY on the leading column of a composite tree, which must keep the
#: executor's storage-order ties.
COMPOSITE_TEMPLATES = [
    "SELECT * FROM readings WHERE house = {h}",
    "SELECT house, time, x FROM readings WHERE house = {h} AND time BETWEEN {t1} AND {t2}",
    "SELECT * FROM readings WHERE house = {h} AND time < {t2}",
    "SELECT time, x FROM readings WHERE house = {h} AND time >= {t1} AND x > {n}",
    "SELECT count(*), avg(x) FROM readings WHERE house = {h} AND time > {t1}",
    "SELECT time, x FROM readings WHERE house = {h} AND time < {t2} "
    "ORDER BY time DESC LIMIT {k}",
    "SELECT * FROM readings WHERE house >= {h} AND time BETWEEN {t1} AND {t2}",
    "SELECT * FROM readings WHERE time BETWEEN {t1} AND {t2}",
    "SELECT * FROM readings WHERE house = {h} AND time BETWEEN {t2} AND {t1}",
    "SELECT * FROM readings ORDER BY house",
    "SELECT * FROM readings ORDER BY house DESC LIMIT {k}",
    "SELECT house, time FROM readings WHERE house < {h} ORDER BY house LIMIT {k}",
    "SELECT * FROM readings WHERE site = '{city}' AND x BETWEEN {n} AND {m}",
    "SELECT * FROM readings WHERE site = '{city}'",
]

#: One or more templates per composite-key planner rule: (1) a prefix walk
#: beside a hash index on the prefix column (``meter``), (2) ``ORDER BY``
#: the last key column under an equality prefix, with NULL (``readings.x``
#: in ``(site, x)``) and NaN (``readings.time``, ``meter.time`` in the
#: primary keys) in the order column, and (3) range bounds copied across
#: an equi-join, beside LEFT JOIN, OR-WHERE and mixed-type joins that must
#: not copy them (in :data:`JOIN_RULE_TEMPLATES`).
KEY_RULE_TEMPLATES = [
    # (1) prefix walk vs. point lookup on the prefix column
    "SELECT * FROM meter WHERE house = {h} AND time BETWEEN {t1} AND {t2}",
    "SELECT time, v FROM meter WHERE house = {h} AND time >= {t1} AND v > {n}",
    "SELECT count(*), avg(v), max(v) FROM meter WHERE house = {h} AND time < {t2}",
    "SELECT * FROM meter WHERE house = {h}",
    "SELECT time FROM meter WHERE house = {h} AND v < {m}",
    # (2) ORDER BY the key column after the prefix
    "SELECT time, v FROM meter WHERE house = {h} AND time < {t2} "
    "ORDER BY time DESC LIMIT {k} OFFSET {o}",
    "SELECT time, v FROM meter WHERE house = {h} AND time >= {t1} ORDER BY time LIMIT {k}",
    "SELECT time, v FROM meter WHERE house = {h} AND time > {t1} AND v > {n} "
    "ORDER BY time DESC LIMIT {k}",
    "SELECT time, x FROM readings WHERE house = {h} ORDER BY time DESC LIMIT {k} OFFSET {o}",
    "SELECT time, x FROM readings WHERE house = {h} ORDER BY time LIMIT {k}",
    "SELECT * FROM readings WHERE house = {h} ORDER BY time",
    "SELECT * FROM readings WHERE house = {h} AND time <= {t2} ORDER BY time DESC",
    "SELECT x, house FROM readings WHERE site = '{city}' ORDER BY x DESC LIMIT {k} OFFSET {o}",
    "SELECT x, house FROM readings WHERE site = '{city}' ORDER BY x",
    "SELECT x, time FROM readings WHERE site = '{city}' AND x > {n} ORDER BY x DESC LIMIT {k}",
    "SELECT x FROM readings WHERE site = '{city}' AND x BETWEEN {n} AND {m} "
    "ORDER BY x LIMIT {k} OFFSET {o}",
]

#: Rule (3) of :data:`KEY_RULE_TEMPLATES`: the naive pipeline runs these
#: joins as nested loops, so they run over fewer seeds.
JOIN_RULE_TEMPLATES = [
    "SELECT r.time, r.x, m.v FROM readings r JOIN meter m "
    "ON m.house = r.house AND m.time = r.time "
    "WHERE r.house = {h} AND r.time BETWEEN {t1} AND {t2}",
    "SELECT count(*), avg(m.v) FROM readings r JOIN meter m ON m.time = r.time "
    "WHERE r.time BETWEEN {t1} AND {t2} AND m.house = {h}",
    "SELECT * FROM readings r, meter m "
    "WHERE r.house = m.house AND r.time = m.time AND m.time < {t2} AND r.house = {h}",
    "SELECT m.time, m.v, r.x FROM meter m JOIN readings r ON r.house = m.house "
    "AND r.time = m.time WHERE {t1} < m.time AND m.house = {h} AND r.x > {n}",
    "SELECT r.time, m.v FROM readings r LEFT JOIN meter m "
    "ON m.house = r.house AND m.time = r.time WHERE r.house = {h} AND r.time >= {t1}",
    "SELECT m.time, r.x FROM meter m LEFT JOIN readings r ON r.time = m.time "
    "AND r.house = m.house WHERE m.house = {h} AND m.time < {t2}",
    "SELECT r.time, m.v FROM readings r JOIN meter m "
    "ON m.house = r.house AND m.time = r.time WHERE r.time < {t1} OR r.house = {h}",
    "SELECT p.name, r.time FROM readings r JOIN people p ON p.age = r.x "
    "WHERE r.x BETWEEN {n} AND {m} AND r.house = {h}",
    "SELECT v.vid, r.time FROM readings r JOIN visits v ON v.day = r.house "
    "WHERE r.house = {h} AND r.time < {t1}",
    "SELECT v.vid, r.x FROM visits v JOIN readings r ON r.time = v.day "
    "WHERE v.day < {t1} AND r.house = {h}",
]

CORPUS_CITIES = ["aalborg", "aarhus", "odense", "esbjerg", "ribe"]

#: Numeric template placeholders; the ``$n``-bound corpus binds each one.
_NUMERIC_PLACEHOLDER = re.compile(r"\{(n|m|k|o|d1|d2|h|t1|t2)\}")


def _parameterized(template: str, values: dict):
    """The template with every numeric placeholder bound as the next ``$n``."""
    params = []

    def bind(match):
        params.append(values[match.group(1)])
        return f"${len(params)}"

    return _NUMERIC_PLACEHOLDER.sub(bind, template).format(**values), params


@pytest.fixture()
def index_walks(monkeypatch):
    """Names of the B-tree indexes each range walk used, in call order."""
    walks = []
    original = OrderedIndex.range_positions

    def counting(self, *args, **kwargs):
        walks.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(OrderedIndex, "range_positions", counting)
    return walks


def _build_corpus_db(seed: int, stats_mode: str) -> Database:
    """People/cities/visits with btree + hash indexes and 10% NULL ages.

    ``stats_mode``: ``"none"`` never runs ANALYZE, ``"fresh"`` analyzes the
    final state, ``"stale"`` analyzes mid-load so every estimate is wrong by
    the time queries run (statistics must only ever steer, never filter).
    """
    rng = random.Random(0xBEEF00 + seed)
    db = Database()
    db.execute(
        "CREATE TABLE people (id integer PRIMARY KEY, name text, "
        "age double precision, city text)"
    )
    db.execute("CREATE TABLE cities (city text PRIMARY KEY, region text)")
    db.execute(
        "CREATE TABLE visits (vid integer PRIMARY KEY, pid integer, "
        "day integer, score double precision)"
    )
    db.execute("CREATE INDEX idx_people_age ON people USING BTREE (age)")
    db.execute("CREATE INDEX idx_people_city ON people (city)")
    db.execute("CREATE INDEX idx_visits_day ON visits USING BTREE (day)")
    for city, region in zip(CORPUS_CITIES, ["north", "north", "south", "west", "south"]):
        db.execute("INSERT INTO cities VALUES ($1, $2)", [city, region])

    def insert_people(start, stop):
        for i in range(start, stop):
            # Integer-valued ages force duplicate keys in the ordered index.
            age = None if rng.random() < 0.1 else float(rng.randint(18, 45))
            db.execute(
                "INSERT INTO people VALUES ($1, $2, $3, $4)",
                [i, f"p{i}", age, rng.choice(CORPUS_CITIES + ["ghosttown"])],
            )

    def insert_visits(start, stop):
        for v in range(start, stop):
            db.execute(
                "INSERT INTO visits VALUES ($1, $2, $3, $4)",
                [v, rng.randint(0, 29), rng.randint(0, 13), round(rng.uniform(0, 10), 2)],
            )

    # Readings draw from their own generator so the tables above hold the
    # same rows as without them.
    readings_rng = random.Random(0x4EAD + seed)
    readings = [(house, float(time)) for house in range(5) for time in range(24)]
    readings_rng.shuffle(readings)
    readings += [(readings_rng.randrange(5), float("nan")) for _ in range(3)]
    db.execute(
        "CREATE TABLE readings (house integer, time double precision, "
        "x double precision, site text, PRIMARY KEY (house, time))"
    )
    db.execute("CREATE INDEX idx_readings_site ON readings USING BTREE (site, x)")

    def insert_readings(start, stop):
        for house, time in readings[start:stop]:
            x = None if readings_rng.random() < 0.1 else float(readings_rng.randint(18, 45))
            site = None if readings_rng.random() < 0.1 else readings_rng.choice(CORPUS_CITIES)
            db.execute("INSERT INTO readings VALUES ($1, $2, $3, $4)", [house, time, x, site])

    # Meter rows pair up with readings on (house, time); the hash index on
    # the primary key's leading column competes with the key's walk.
    meter_rng = random.Random(0x3E7E + seed)
    meter = [(house, float(time)) for house in range(3) for time in range(16)]
    meter_rng.shuffle(meter)
    meter += [(1, float("nan")), (2, float("nan"))]
    db.execute(
        "CREATE TABLE meter (house integer, time double precision, "
        "v double precision, PRIMARY KEY (house, time))"
    )
    db.execute("CREATE INDEX idx_meter_house ON meter (house)")

    def insert_meter(start, stop):
        for house, time in meter[start:stop]:
            v = None if meter_rng.random() < 0.1 else float(meter_rng.randint(18, 45))
            db.execute("INSERT INTO meter VALUES ($1, $2, $3)", [house, time, v])

    insert_people(0, 15)
    insert_visits(0, 45)
    insert_readings(0, 60)
    insert_meter(0, 25)
    if stats_mode == "stale":
        db.execute("ANALYZE")
    insert_people(15, 30)
    insert_visits(45, 90)
    insert_readings(60, len(readings))
    insert_meter(25, len(meter))
    db.execute("DELETE FROM visits WHERE vid < 5")
    db.execute("DELETE FROM readings WHERE house = 2 AND time < 3")
    db.execute("DELETE FROM meter WHERE house = 0 AND time > 12")
    if stats_mode == "fresh":
        db.execute("ANALYZE")
    return db


def _run_both(db: Database, sql: str, params=None):
    """Planned and naive outcomes (columns+rows, or the error) for one query."""

    def outcome():
        try:
            result = db.execute(sql, params)
            return result.columns, result.rows
        except Exception as exc:  # noqa: BLE001 - errors must match too
            return "error", type(exc).__name__

    planned = outcome()
    db.planner_enabled = False
    try:
        naive = outcome()
    finally:
        db.planner_enabled = True
    return planned, naive


class TestRandomizedCorpus:
    """Planned-vs-naive equivalence over a generated query corpus.

    Every query must produce bit-identical results - including row order -
    under each statistics regime.  The seed matrix is fixed so CI failures
    reproduce locally with ``-k "seed<NN>"``.
    """

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    @pytest.mark.parametrize("seed", CORPUS_SEEDS, ids=lambda s: f"seed{s:02d}")
    def test_corpus_matches_naive(self, seed, stats_mode):
        db = _build_corpus_db(seed, stats_mode)
        rng = random.Random(0xDECADE + seed)
        for template in CORPUS_TEMPLATES:
            values = dict(
                n=rng.randint(18, 40),
                m=rng.randint(30, 50),
                k=rng.randint(1, 9),
                o=rng.randint(0, 4),
                d1=rng.randint(0, 10),
                d2=rng.randint(5, 14),
                city=rng.choice(CORPUS_CITIES + ["ghosttown"]),
            )
            sql = template.format(**values)
            planned, naive = _run_both(db, sql)
            assert planned == naive, f"seed={seed} stats={stats_mode}: {sql}"

            # The same query with its numbers bound as $n: bounds unknown
            # at plan time, so range walks decide their width per execution.
            param_sql, params = _parameterized(template, values)
            if params:
                bound_planned, bound_naive = _run_both(db, param_sql, params)
                assert bound_planned == bound_naive, (
                    f"seed={seed} stats={stats_mode}: {param_sql} {params}"
                )
                assert bound_planned == planned, f"{param_sql} {params} vs {sql}"

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:10], ids=lambda s: f"seed{s:02d}")
    def test_composite_corpus_matches_naive(self, seed, stats_mode):
        db = _build_corpus_db(seed, stats_mode)
        rng = random.Random(0xC0DE + seed)
        for template in COMPOSITE_TEMPLATES:
            values = dict(
                h=rng.randint(-1, 5),
                t1=rng.randint(-2, 20),
                t2=rng.randint(3, 26),
                n=rng.randint(18, 40),
                m=rng.randint(30, 50),
                k=rng.randint(1, 30),
                city=rng.choice(CORPUS_CITIES + ["ghosttown"]),
            )
            sql = template.format(**values)
            planned, naive = _run_both(db, sql)
            assert planned == naive, f"seed={seed} stats={stats_mode}: {sql}"
            param_sql, params = _parameterized(template, values)
            bound_planned, bound_naive = _run_both(db, param_sql, params)
            assert bound_planned == bound_naive, (
                f"seed={seed} stats={stats_mode}: {param_sql} {params}"
            )
            assert bound_planned == planned, f"{param_sql} {params} vs {sql}"

    @staticmethod
    def _check_key_rule_templates(templates, seed, stats_mode):
        db = _build_corpus_db(seed, stats_mode)
        rng = random.Random(0x5EED + seed)
        for template in templates:
            values = dict(
                h=rng.randint(-1, 3),
                t1=rng.randint(-2, 20),
                t2=rng.randint(3, 26),
                n=rng.randint(18, 40),
                m=rng.randint(30, 50),
                k=rng.randint(1, 12),
                o=rng.randint(0, 4),
                city=rng.choice(CORPUS_CITIES + ["ghosttown"]),
            )
            sql = template.format(**values)
            planned, naive = _run_both(db, sql)
            assert planned == naive, f"seed={seed} stats={stats_mode}: {sql}"
            param_sql, params = _parameterized(template, values)
            bound_planned, bound_naive = _run_both(db, param_sql, params)
            assert bound_planned == bound_naive, (
                f"seed={seed} stats={stats_mode}: {param_sql} {params}"
            )
            assert bound_planned == planned, f"{param_sql} {params} vs {sql}"

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:10], ids=lambda s: f"seed{s:02d}")
    def test_key_rule_corpus_matches_naive(self, seed, stats_mode):
        self._check_key_rule_templates(KEY_RULE_TEMPLATES, seed, stats_mode)

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:3], ids=lambda s: f"seed{s:02d}")
    def test_join_rule_corpus_matches_naive(self, seed, stats_mode):
        self._check_key_rule_templates(JOIN_RULE_TEMPLATES, seed, stats_mode)

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    def test_parameterized_range_bounds_match_naive(self, stats_mode):
        db = _build_corpus_db(99, stats_mode)
        sql = "SELECT * FROM people WHERE age BETWEEN $1 AND $2 ORDER BY age, id"
        for params in ([20, 30], [30, 20], [None, 40], [18, None], [25.5, 25.5]):
            planned, naive = _run_both(db, sql, params)
            assert planned == naive, params

    @pytest.mark.parametrize("stats_mode", ["none", "fresh", "stale"])
    def test_one_cached_plan_crosses_walk_and_scan(self, stats_mode, index_walks):
        """One statement text, bindings on both sides of the width threshold.

        Ages span 18..45, so [20, 22] keeps ~7% of the range (walk) and
        [18, 45] all of it (sequential scan).  Under statistics the cached
        plan must switch access path per execution and back; without them
        it always walks.  Every result, row order included, equals the
        naive pipeline's.
        """
        db = _build_corpus_db(5, stats_mode)
        sql = "SELECT * FROM people WHERE age BETWEEN $1 AND $2"
        statement = db._parse_cached(sql)
        sequence = [
            ("narrow", [20, 22]),
            ("wide", [18, 45]),
            ("narrow", [20, 22]),
            ("null", [None, 30]),
            ("reversed", [30, 20]),
            ("text", ["20", "30"]),
        ]
        plans = set()
        walked = {}
        for label, params in sequence:
            before = len(index_walks)
            planned, naive = _run_both(db, sql, params)
            assert planned == naive, (stats_mode, label, params)
            plans.add(id(db.plan_select(statement)))
            walked.setdefault(label, []).append(len(index_walks) > before)
        assert len(plans) == 1  # one cached plan served every binding
        assert walked["narrow"] == [True, True]
        assert walked["wide"] == [stats_mode == "none"]
        assert walked["null"] == walked["text"] == [False]

    def test_dml_between_queries_keeps_equivalence(self):
        """Interleaved DML (index maintenance) must never desync the index."""
        db = _build_corpus_db(7, "fresh")
        rng = random.Random(0xFACE)
        sql = "SELECT * FROM people WHERE age BETWEEN 20 AND 35 ORDER BY age LIMIT 10"
        for step in range(30):
            action = rng.random()
            if action < 0.4:
                age = None if rng.random() < 0.2 else float(rng.randint(18, 45))
                db.execute(
                    "INSERT INTO people VALUES ($1, $2, $3, $4)",
                    [1000 + step, f"x{step}", age, rng.choice(CORPUS_CITIES)],
                )
            elif action < 0.7:
                db.execute(
                    "UPDATE people SET age = $1 WHERE id = $2",
                    [float(rng.randint(18, 45)), rng.randint(0, 29)],
                )
            else:
                db.execute("DELETE FROM people WHERE id = $1", [rng.randint(0, 29)])
            planned, naive = _run_both(db, sql)
            assert planned == naive, f"step {step}"


# --------------------------------------------------------------------------- #
# Golden EXPLAIN snapshots: plan shape AND estimated rows
# --------------------------------------------------------------------------- #
def _golden_db() -> Database:
    """Deterministic schema/data so EXPLAIN output is byte-stable."""
    db = Database()
    db.execute(
        "CREATE TABLE people (id integer PRIMARY KEY, name text, "
        "age double precision, city text)"
    )
    db.execute("CREATE TABLE cities (city text PRIMARY KEY, region text)")
    db.execute("CREATE TABLE visits (vid integer PRIMARY KEY, pid integer, day integer)")
    db.execute("CREATE INDEX idx_people_age ON people USING BTREE (age)")
    db.execute("CREATE INDEX idx_people_city ON people (city)")
    db.execute("CREATE INDEX idx_visits_day ON visits USING BTREE (day)")
    for city, region in [
        ("aalborg", "north"),
        ("aarhus", "north"),
        ("odense", "south"),
        ("esbjerg", "west"),
    ]:
        db.execute("INSERT INTO cities VALUES ($1, $2)", [city, region])
    for i in range(40):
        db.execute(
            "INSERT INTO people VALUES ($1, $2, $3, $4)",
            [i, f"p{i}", float(18 + i % 20), CORPUS_CITIES[i % 4]],
        )
    for v in range(120):
        db.execute("INSERT INTO visits VALUES ($1, $2, $3)", [v, v % 40, v % 14])
    return db


GOLDEN_RANGE_SQL = "SELECT * FROM people WHERE age BETWEEN 20 AND 24"
GOLDEN_TOPK_SQL = "SELECT * FROM people ORDER BY age DESC LIMIT 5"
GOLDEN_POINT_SQL = "SELECT name FROM people WHERE age > 30 AND city = 'aarhus'"
GOLDEN_JOIN_SQL = (
    "SELECT name, region, day FROM visits, people, cities "
    "WHERE people.city = cities.city AND visits.pid = people.id AND day < 3"
)
GOLDEN_PARAM_RANGE_SQL = "SELECT * FROM people WHERE age BETWEEN $1 AND $2"
GOLDEN_WIDE_RANGE_SQL = "SELECT * FROM people WHERE age BETWEEN 18 AND 35"
GOLDEN_PARAM_TOPK_SQL = "SELECT * FROM people WHERE age > $1 ORDER BY age LIMIT 3"


class TestExplainGolden:
    """Full-text EXPLAIN snapshots under fresh statistics.

    These pin the cost model's visible outputs: access-path choice,
    join order (and its declared-order restore), the hash-join build-side
    flip, and the ``rows=`` estimates themselves.
    """

    @pytest.fixture()
    def analyzed_db(self):
        db = _golden_db()
        db.execute("ANALYZE")
        return db

    def test_range_scan_snapshot(self, analyzed_db):
        assert plan_text(analyzed_db, GOLDEN_RANGE_SQL) == (
            "Project (*)\n"
            "->  IndexRangeScan people USING idx_people_age "
            "(age >= 20 AND age <= 24) (rows=8)"
        )

    def test_topk_order_by_index_snapshot(self, analyzed_db):
        assert plan_text(analyzed_db, GOLDEN_TOPK_SQL) == (
            "Limit (limit=5)\n"
            "->  Project (*)\n"
            "  ->  IndexRangeScan people USING idx_people_age (all rows) "
            "ORDER BY age DESC (top-k) (rows=40)"
        )

    def test_point_lookup_snapshot(self, analyzed_db):
        assert plan_text(analyzed_db, GOLDEN_POINT_SQL) == (
            "Project (name)\n"
            "->  IndexLookup people USING idx_people_city (city = 'aarhus') "
            "(rows=4) (filter: age > 30)"
        )

    def test_join_reorder_snapshot(self, analyzed_db):
        assert plan_text(analyzed_db, GOLDEN_JOIN_SQL) == (
            "Project (name, region, day)\n"
            "->  JoinOrderRestore (visits, people, cities)\n"
            "  ->  HashJoin inner (people.id = visits.pid) (rows=28)\n"
            "    ->  HashJoin inner (cities.city = people.city) (build=left) (rows=40)\n"
            "      ->  Scan cities (rows=4)\n"
            "      ->  Scan people (rows=40)\n"
            "    ->  IndexRangeScan visits USING idx_visits_day (day < 3) (rows=28)"
        )

    def test_parameterized_range_snapshot(self, analyzed_db):
        # $n bounds are unknown at plan time: the walk is planned and each
        # execution checks the interval width (estimate uses the 1/3 default).
        assert plan_text(analyzed_db, GOLDEN_PARAM_RANGE_SQL) == (
            "Project (*)\n"
            "->  IndexRangeScan people USING idx_people_age "
            "(age >= $1 AND age <= $2) (rows=13)"
        )

    def test_wide_literal_range_stays_a_scan(self, analyzed_db):
        assert plan_text(analyzed_db, GOLDEN_WIDE_RANGE_SQL) == (
            "Project (*)\n"
            "->  Scan people (rows=36) (filter: age BETWEEN 18 AND 35)"
        )

    def test_drop_index_sends_cached_plan_to_scan(self, analyzed_db):
        sql = GOLDEN_PARAM_RANGE_SQL
        expected = analyzed_db.execute(sql, [20, 22]).rows
        statement = analyzed_db._parse_cached(sql)
        cached = analyzed_db.plan_select(statement)
        analyzed_db.execute("DROP INDEX idx_people_age")
        assert plan_text(analyzed_db, sql) == (
            "Project (*)\n"
            "->  Scan people (rows=13) (filter: age BETWEEN $1 AND $2)"
        )
        # A plan built before the drop still runs: the missing index sends
        # it to the full-scan fallback with identical rows.
        versions = (analyzed_db.catalog_version, analyzed_db.udfs.version)
        statement.plan_cache_entry = (analyzed_db, versions, cached)
        assert analyzed_db.plan_select(statement) is cached
        assert analyzed_db.execute(sql, [20, 22]).rows == expected
        planned, naive = _run_both(analyzed_db, sql, [20, 22])
        assert planned == naive

    def test_parameterized_topk_keeps_early_exit(
        self, analyzed_db, monkeypatch, index_walks
    ):
        assert plan_text(analyzed_db, GOLDEN_PARAM_TOPK_SQL) == (
            "Limit (limit=3)\n"
            "->  Project (*)\n"
            "  ->  IndexRangeScan people USING idx_people_age (age > $1) "
            "ORDER BY age ASC (top-k) (rows=13)"
        )
        emitted = []
        original = IndexRangeScan.execute

        def counting(self, rt, outer_row=None):
            columns, rows = original(self, rt, outer_row)
            emitted.append(len(rows))
            return columns, rows

        monkeypatch.setattr(IndexRangeScan, "execute", counting)
        # age > 18 keeps 38 of 40 rows - far past the width threshold - yet
        # the ordered walk is kept and stops after the top 3.
        planned, naive = _run_both(analyzed_db, GOLDEN_PARAM_TOPK_SQL, [18])
        assert planned == naive
        assert index_walks == ["idx_people_age"]
        assert emitted == [3]


class TestStatsMissingFallback:
    """Without ANALYZE the planner degrades to pure rules - and never errors.

    No ``rows=`` suffixes, no join reordering, no build-side flips: the
    plans are byte-identical to the pre-cost-model engine's.
    """

    @pytest.fixture()
    def raw_db(self):
        return _golden_db()

    def test_no_row_estimates_anywhere(self, raw_db):
        for sql in (GOLDEN_RANGE_SQL, GOLDEN_TOPK_SQL, GOLDEN_POINT_SQL, GOLDEN_JOIN_SQL):
            assert "rows=" not in plan_text(raw_db, sql)

    def test_rule_based_join_snapshot(self, raw_db):
        # Declared order is kept (no JoinOrderRestore) and the build side
        # stays on the right - but hash joins themselves are rule-based
        # and survive the absence of statistics.
        assert plan_text(raw_db, GOLDEN_JOIN_SQL) == (
            "Project (name, region, day)\n"
            "->  HashJoin inner (people.city = cities.city)\n"
            "  ->  HashJoin inner (visits.pid = people.id)\n"
            "    ->  IndexRangeScan visits USING idx_visits_day (day < 3)\n"
            "    ->  Scan people\n"
            "  ->  Scan cities"
        )

    def test_range_scan_still_chosen_without_stats(self, raw_db):
        # Access-path selection is rule-based-first: an ordered index serves
        # range predicates even when no interval fraction can be estimated.
        assert "IndexRangeScan people USING idx_people_age" in plan_text(
            raw_db, GOLDEN_RANGE_SQL
        )

    def test_queries_never_error_without_stats(self, raw_db):
        for sql in (GOLDEN_RANGE_SQL, GOLDEN_TOPK_SQL, GOLDEN_POINT_SQL, GOLDEN_JOIN_SQL):
            planned, naive = _run_both(raw_db, sql)
            assert planned[0] != "error"
            assert planned == naive

    def test_analyze_then_more_dml_keeps_estimates_stale_but_safe(self, raw_db):
        raw_db.execute("ANALYZE people")
        for i in range(100, 160):
            raw_db.execute(
                "INSERT INTO people VALUES ($1, $2, $3, $4)",
                [i, f"q{i}", 99.0, "nowhere"],
            )
        text = plan_text(raw_db, "SELECT * FROM people WHERE age BETWEEN 90 AND 100")
        assert "rows=" in text  # stale estimate still rendered...
        planned, naive = _run_both(
            raw_db, "SELECT * FROM people WHERE age BETWEEN 90 AND 100 ORDER BY id"
        )
        assert planned == naive  # ...but execution stays exact


# --------------------------------------------------------------------------- #
# UPDATE/DELETE point-predicate index routing
# --------------------------------------------------------------------------- #
class TestDmlIndexRouting:
    def test_explain_shows_pk_lookup_for_update(self, fleet_db):
        text = plan_text(fleet_db, "UPDATE instances SET model = 'X' WHERE instance_id = 'I3'")
        assert "Update on instances" in text
        assert "IndexLookup instances USING instances_pkey (instance_id = 'I3')" in text

    def test_explain_shows_secondary_index_for_delete(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        text = plan_text(fleet_db, "DELETE FROM sims WHERE instance_id = 'I2' AND time > 5")
        assert "Delete on sims" in text
        assert "IndexLookup sims USING idx_sims_instance (instance_id = 'I2')" in text

    def test_explain_without_usable_index_stays_a_scan(self, fleet_db):
        text = plan_text(fleet_db, "UPDATE sims SET value = 0 WHERE time = 1")
        assert "Update on sims" in text
        assert "IndexLookup" not in text

    def test_routed_update_only_examines_index_candidates(self, fleet_db, monkeypatch):
        from repro.sqldb.table import Table

        seen = {}
        original = Table.update_where

        def spy(self, predicate, updater, candidate_positions=None):
            seen["candidates"] = candidate_positions
            return original(self, predicate, updater, candidate_positions=candidate_positions)

        monkeypatch.setattr(Table, "update_where", spy)
        result = fleet_db.execute(
            "UPDATE instances SET model = 'HPX' WHERE instance_id = $1", ["I5"]
        )
        assert result.rowcount == 1
        assert seen["candidates"] is not None and len(seen["candidates"]) == 1
        assert fleet_db.execute(
            "SELECT model FROM instances WHERE instance_id = 'I5'"
        ).scalar() == "HPX"

    def test_routed_delete_applies_residual_conjuncts_exactly(self, fleet_db):
        fleet_db.execute("CREATE INDEX idx_sims_instance ON sims (instance_id)")
        before = fleet_db.execute("SELECT count(*) FROM sims").scalar()
        result = fleet_db.execute(
            "DELETE FROM sims WHERE instance_id = 'I2' AND time > 20"
        )
        # 25 rows per instance, times 0..24: exactly 4 satisfy time > 20.
        assert result.rowcount == 4
        assert fleet_db.execute("SELECT count(*) FROM sims").scalar() == before - 4
        assert fleet_db.execute(
            "SELECT count(*) FROM sims WHERE instance_id = 'I2'"
        ).scalar() == 21

    def test_update_and_delete_route_through_a_dominating_walk(self, monkeypatch):
        from repro.sqldb.table import Table

        db = _meas_db()
        db.execute("CREATE INDEX meas_house ON meas (house)")
        update = "UPDATE meas SET x = 0 WHERE house = $1 AND time < $2"
        delete = "DELETE FROM meas WHERE house = $1 AND time >= $2 AND u > 0.5"
        for sql in (update, delete):
            assert "IndexRangeScan meas USING meas_pkey (house = $1 AND time" in (
                plan_text(db, sql)
            )
        seen = {}
        original_update, original_delete = Table.update_where, Table.delete_where

        def spy_update(self, predicate, updater, candidate_positions=None):
            seen["update"] = candidate_positions
            return original_update(
                self, predicate, updater, candidate_positions=candidate_positions
            )

        def spy_delete(self, predicate, candidate_positions=None):
            seen["delete"] = candidate_positions
            return original_delete(self, predicate, candidate_positions=candidate_positions)

        monkeypatch.setattr(Table, "update_where", spy_update)
        monkeypatch.setattr(Table, "delete_where", spy_delete)
        assert db.execute(update, [1, 10]).rowcount == 10
        assert len(seen["update"]) == 10  # the walk's rows, not house 1's 48
        deleted = db.execute(delete, [2, 40]).rowcount
        assert len(seen["delete"]) == 8

        # The same statements through a full scan leave the same rows.
        plain = _meas_db()
        plain.table("meas").indexes.clear()
        assert plain.execute(update, [1, 10]).rowcount == 10
        assert plain.execute(delete, [2, 40]).rowcount == deleted > 0
        everything = "SELECT * FROM meas ORDER BY house, time"
        assert db.execute(everything).rows == plain.execute(everything).rows

    def test_routed_dml_matches_scan_semantics(self):
        """The same statements against an indexed and an unindexed copy of a
        table must leave identical contents behind."""
        statements = [
            ("UPDATE t SET v = v + 100 WHERE id = 3", []),
            ("UPDATE t SET grp = 'moved' WHERE grp = $1", ["g1"]),
            ("DELETE FROM t WHERE id = $1", [7]),
            ("DELETE FROM t WHERE grp = 'g2' AND v < 10", []),
            ("UPDATE t SET v = 0 WHERE id = 999", []),  # no match
            ("DELETE FROM t WHERE id = NULL", []),  # never true
        ]
        contents = []
        for indexed in (True, False):
            db = Database()
            db.execute(
                "CREATE TABLE t (id integer PRIMARY KEY, grp text, v double precision)"
            )
            db.insert_rows("t", [[i, f"g{i % 3}", float(i)] for i in range(30)])
            if indexed:
                db.execute("CREATE INDEX idx_t_grp ON t (grp)")
            for sql, params in statements:
                db.execute(sql, params)
            contents.append(db.execute("SELECT * FROM t ORDER BY id").rows)
        assert contents[0] == contents[1]

    def test_routed_dml_maintains_indexes_and_rollback(self):
        with connect() as conn:
            cursor = conn.cursor()
            cursor.execute("CREATE TABLE t (id integer PRIMARY KEY, grp text)")
            for i in range(10):
                cursor.execute("INSERT INTO t VALUES ($1, $2)", [i, f"g{i % 2}"])
            cursor.execute("CREATE INDEX idx_grp ON t (grp)")
            conn.begin()
            cursor.execute("DELETE FROM t WHERE id = 4")
            cursor.execute("UPDATE t SET grp = 'gX' WHERE id = 5")
            conn.rollback()
            cursor.execute("SELECT count(*) FROM t WHERE grp = 'g0'")
            assert cursor.fetchone()[0] == 5
            cursor.execute("SELECT count(*) FROM t WHERE id = 4")
            assert cursor.fetchone()[0] == 1


# --------------------------------------------------------------------------- #
# Composite primary keys: the implicit <table>_pkey B-tree
# --------------------------------------------------------------------------- #
MEAS_DDL = (
    "CREATE TABLE meas (house integer, time double precision, x double precision, "
    "u double precision, PRIMARY KEY (house, time))"
)
SIM_INPUT_SQL = "SELECT time, u FROM meas WHERE house = 3 AND time BETWEEN 10 AND 33"


def _meas_db(houses: int = 6, hours: int = 48) -> Database:
    """Readings of ``houses`` houses, stored hour-major (so each house's
    rows are scattered through the table) with times descending."""
    db = Database()
    db.execute(MEAS_DDL)
    db.insert_rows(
        "meas",
        [
            [house, float(time), 20.0 + house + time / 100.0, (house * time) % 7 / 7.0]
            for time in reversed(range(hours))
            for house in range(houses)
        ],
    )
    return db


class TestCompositePrimaryKey:
    def test_simulation_input_query_walks_the_pkey(self):
        db = _meas_db()
        assert plan_text(db, SIM_INPUT_SQL) == (
            "Project (time, u)\n"
            "->  IndexRangeScan meas USING meas_pkey "
            "(house = 3 AND time >= 10 AND time <= 33)"
        )
        db.execute("ANALYZE")
        assert plan_text(db, SIM_INPUT_SQL) == (
            "Project (time, u)\n"
            "->  IndexRangeScan meas USING meas_pkey "
            "(house = 3 AND time >= 10 AND time <= 33) (rows=23)"
        )

    def test_walk_visits_only_the_window(self, monkeypatch):
        db = _meas_db()
        walked = []
        original = OrderedIndex.range_positions

        def counting(self, *args, **kwargs):
            positions = original(self, *args, **kwargs)
            walked.append((self.name, len(positions)))
            return positions

        monkeypatch.setattr(OrderedIndex, "range_positions", counting)
        planned, naive = _run_both(db, SIM_INPUT_SQL)
        assert planned == naive
        assert walked == [("meas_pkey", 24)]
        # Rows come back in storage order, as from a filtered scan.
        assert [row[0] for row in planned[1]] == [float(t) for t in reversed(range(10, 34))]

    def test_prefix_only_and_parameterized_walks(self):
        db = _meas_db()
        assert "IndexRangeScan meas USING meas_pkey (house = $1)" in plan_text(
            db, "SELECT * FROM meas WHERE house = $1"
        )
        sql = "SELECT time FROM meas WHERE house = $1 AND time < $2"
        assert "USING meas_pkey (house = $1 AND time < $2)" in plan_text(db, sql)
        for params in ([2, 5], [2, None], [None, 5], [9, 5], ["2", 5.5], [2.5, 5]):
            planned, naive = _run_both(db, sql, params)
            assert planned == naive, params

    def test_order_by_leading_column_keeps_storage_order_ties(self):
        # In the tree, house 0's keys run in time order; in storage they run
        # in descending time.  ORDER BY house must keep the storage order.
        db = _meas_db()
        for sql in (
            "SELECT * FROM meas ORDER BY house",
            "SELECT * FROM meas ORDER BY house LIMIT 5",
            "SELECT * FROM meas ORDER BY house DESC LIMIT 5",
            "SELECT * FROM meas WHERE house > 3 ORDER BY house LIMIT 5",
            "SELECT * FROM meas WHERE house = 1 ORDER BY house LIMIT 5",
        ):
            planned, naive = _run_both(db, sql)
            assert planned == naive, sql
            assert "Sort (key: house" in plan_text(db, sql), sql
        rows = db.execute("SELECT house, time FROM meas ORDER BY house LIMIT 3").rows
        assert rows == [[0, 47.0], [0, 46.0], [0, 45.0]]

    def test_single_column_pkey_serves_order_by(self):
        db = Database()
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        db.insert_rows("t", [[i, f"v{i}"] for i in (5, 2, 9, 1)])
        sql = "SELECT id FROM t ORDER BY id DESC LIMIT 2"
        assert "IndexRangeScan t USING t_pkey (all rows) ORDER BY id DESC" in plan_text(db, sql)
        assert db.execute(sql).rows == [[9], [5]]

    def test_drop_index_on_pkey_is_refused(self):
        db = _meas_db()
        with pytest.raises(SqlCatalogError, match="primary key of table 'meas'"):
            db.execute("DROP INDEX meas_pkey")
        with pytest.raises(SqlCatalogError, match="primary key"):
            db.execute("DROP INDEX IF EXISTS meas_pkey")
        assert "meas_pkey" in plan_text(db, SIM_INPUT_SQL)

    def test_user_index_named_like_a_pkey_collides(self):
        db = _meas_db()
        with pytest.raises(SqlCatalogError, match="backs the primary key of table 'meas'"):
            db.execute("CREATE INDEX meas_pkey ON meas (x)")
        assert db.execute("CREATE INDEX IF NOT EXISTS meas_pkey ON meas (x)").rows == [["exists"]]
        db.execute("CREATE TABLE other (k integer)")
        db.execute("CREATE INDEX later_pkey ON other (k)")
        with pytest.raises(SqlCatalogError, match="'later_pkey' already exists"):
            db.execute("CREATE TABLE later (id integer PRIMARY KEY)")
        assert not db.has_table("later")

    def test_pkey_is_listed_and_verified(self):
        db = _meas_db()
        assert "meas_pkey" in db.index_names()
        assert ["index:meas.meas_pkey", "ok", "btree index consistent"] in db.verify()
        db.execute("CREATE TABLE loose (k integer, v text)")
        db.execute("CREATE TABLE variant_key (k variant PRIMARY KEY)")
        db.execute("INSERT INTO variant_key VALUES (1), ('a')")
        assert db.index_names() == ["meas_pkey", "variant_key_pkey"]
        assert ["index:variant_key.variant_key_pkey", "ok", "hash index consistent"] in db.verify()
        db.execute("DROP TABLE meas")
        assert db.index_names() == ["variant_key_pkey"]

    def test_nan_key_part_is_kept_but_never_matched(self):
        db = _meas_db(houses=2, hours=4)
        db.execute("INSERT INTO meas VALUES (1, $1, 0.0, 0.0)", [float("nan")])
        db.execute("INSERT INTO meas VALUES (1, $1, 0.0, 0.0)", [float("nan")])
        for sql, params, count in (
            ("SELECT time FROM meas WHERE house = 1 AND time >= $1", [-1e300], 4),
            ("SELECT time FROM meas WHERE house = 1 AND time < $1", [1e300], 4),
            ("SELECT time FROM meas WHERE house = 1 AND time = $1", [float("nan")], 0),
            ("SELECT time FROM meas WHERE house = $1", [1], 6),
            ("SELECT time FROM meas WHERE time > $1", [-1.0], 8),
        ):
            planned, naive = _run_both(db, sql, params)
            assert planned == naive, sql
            assert len(planned[1]) == count, sql
        assert all(row[1] == "ok" for row in db.verify())

    def test_nan_in_single_column_pkey_falls_back_from_ordered_emission(self):
        db = Database()
        db.execute("CREATE TABLE t (k double precision PRIMARY KEY)")
        db.insert_rows("t", [[3.0], [float("nan")], [1.0], [2.0]])
        for sql in ("SELECT k FROM t ORDER BY k", "SELECT k FROM t ORDER BY k DESC LIMIT 3"):
            planned, naive = _run_both(db, sql)
            assert repr(planned) == repr(naive), sql

    def test_pkey_is_derived_not_stored(self, tmp_path):
        from repro.sqldb import StorageEngine

        path = tmp_path / "pk.db"
        db = Database(storage=StorageEngine(path))
        db.execute(MEAS_DDL)
        db.execute("CREATE INDEX meas_x ON meas USING BTREE (x, house)")
        db.insert_rows("meas", [[h, float(t), float(t), 0.0] for h in range(3) for t in range(5)])
        assert db.table("meas").index_definitions() == [("meas_x", ["x", "house"], "btree")]
        db.checkpoint()
        db.execute("INSERT INTO meas VALUES (7, 1, 2, 3)")
        db.storage.simulate_crash()
        again = Database(storage=StorageEngine(path))
        try:
            assert sorted(again.table("meas").indexes) == ["meas_pkey", "meas_x"]
            assert again.index_names() == ["meas_pkey", "meas_x"]
            assert all(row[1] == "ok" for row in again.verify())
            planned, naive = _run_both(again, "SELECT * FROM meas WHERE house = 7")
            assert planned == naive and len(planned[1]) == 1
            with pytest.raises(SqlCatalogError):
                again.execute("DROP INDEX meas_pkey")
            # Still the derived index, not a declared one: NaN keys pass.
            again.execute("INSERT INTO meas VALUES (7, $1, 0, 0)", [float("nan")])
            assert again.execute("SELECT count(*) FROM meas WHERE house = 7").scalar() == 2
        finally:
            again.storage.close()

    def test_rollback_rebuilds_the_pkey(self):
        db = _meas_db(houses=3, hours=6)
        db.begin()
        db.execute("DELETE FROM meas WHERE house = 1 AND time > 2")
        db.execute("UPDATE meas SET house = 9 WHERE house = 2 AND time < 2")
        db.rollback()
        planned, naive = _run_both(db, "SELECT * FROM meas WHERE house = 1 AND time >= 0")
        assert planned == naive and len(planned[1]) == 6
        assert all(row[1] == "ok" for row in db.verify())


def _pair_db() -> Database:
    """``_meas_db`` plus a ``sim`` table on the same ``(house, time)`` key,
    each with a hash index on ``house`` beside its ``_pkey``."""
    db = _meas_db()
    db.execute(
        "CREATE TABLE sim (house integer, time double precision, "
        "x double precision, PRIMARY KEY (house, time))"
    )
    db.insert_rows(
        "sim", [[h, float(t), 20.0 + h + t / 90.0] for h in range(6) for t in range(48)]
    )
    db.execute("CREATE INDEX meas_house ON meas (house)")
    db.execute("CREATE INDEX sim_house ON sim (house)")
    return db


PAIR_AGG_SQL = "SELECT count(*), avg(x) FROM meas WHERE house = $1 AND time >= $2"
PAIR_TOPK_SQL = (
    "SELECT time, x FROM meas WHERE house = $1 AND time < $2 ORDER BY time DESC LIMIT 10"
)
PAIR_JOIN_SQL = (
    "SELECT count(*), avg(abs(s.x - m.x)) FROM meas m JOIN sim s "
    "ON s.house = m.house AND s.time = m.time "
    "WHERE m.house = $1 AND m.time BETWEEN $2 AND $3"
)


class TestCompositeKeyGolden:
    """EXPLAIN snapshots of the three composite-key rules, without and
    with statistics: a prefix walk replacing a hash lookup on the prefix
    column, ``ORDER BY ... LIMIT`` walking the key backwards, and a range
    bound copied across an equi-join onto the other table's key."""

    def test_snapshots_without_statistics(self):
        db = _pair_db()
        assert plan_text(db, PAIR_AGG_SQL) == (
            "Aggregate\n"
            "->  IndexRangeScan meas USING meas_pkey (house = $1 AND time >= $2)"
        )
        assert plan_text(db, PAIR_TOPK_SQL) == (
            "Limit (limit=10)\n"
            "->  Project (time, x)\n"
            "  ->  IndexRangeScan meas USING meas_pkey (house = $1 AND time < $2) "
            "ORDER BY time DESC (top-k)"
        )
        assert plan_text(db, PAIR_JOIN_SQL) == (
            "Aggregate\n"
            "->  HashJoin inner (m.house = s.house, m.time = s.time)\n"
            "  ->  IndexRangeScan meas AS m USING meas_pkey "
            "(house = $1 AND time >= $2 AND time <= $3)\n"
            "  ->  IndexRangeScan sim AS s USING sim_pkey "
            "(house = $1 AND time >= $2 AND time <= $3)"
        )

    def test_snapshots_with_statistics(self):
        db = _pair_db()
        db.execute("ANALYZE")
        assert plan_text(db, PAIR_AGG_SQL) == (
            "Aggregate\n"
            "->  IndexRangeScan meas USING meas_pkey (house = $1 AND time >= $2) (rows=16)"
        )
        assert plan_text(db, PAIR_TOPK_SQL) == (
            "Limit (limit=10)\n"
            "->  Project (time, x)\n"
            "  ->  IndexRangeScan meas USING meas_pkey (house = $1 AND time < $2) "
            "ORDER BY time DESC (top-k) (rows=16)"
        )
        # The copied bounds narrow sim's walk and its estimate alike, so
        # the two equal inputs keep the default build side.
        assert plan_text(db, PAIR_JOIN_SQL) == (
            "Aggregate\n"
            "->  HashJoin inner (m.house = s.house, m.time = s.time) (rows=5)\n"
            "  ->  IndexRangeScan meas AS m USING meas_pkey "
            "(house = $1 AND time >= $2 AND time <= $3) (rows=16)\n"
            "  ->  IndexRangeScan sim AS s USING sim_pkey "
            "(house = $1 AND time >= $2 AND time <= $3) (rows=16)"
        )

    def test_walks_visit_only_the_window(self, monkeypatch):
        db = _pair_db()
        emitted = []
        original = IndexRangeScan.execute

        def counting(self, rt, outer_row=None):
            columns, rows = original(self, rt, outer_row)
            emitted.append((self.index_name, len(rows)))
            return columns, rows

        monkeypatch.setattr(IndexRangeScan, "execute", counting)
        for sql, params, expected in (
            (PAIR_AGG_SQL, [2, 40.0], [("meas_pkey", 8)]),
            (PAIR_TOPK_SQL, [2, 30.0], [("meas_pkey", 10)]),
            (PAIR_JOIN_SQL, [2, 10.0, 14.0], [("meas_pkey", 5), ("sim_pkey", 5)]),
        ):
            emitted.clear()
            planned, naive = _run_both(db, sql, params)
            assert planned == naive, sql
            assert emitted == expected, sql
        assert db.execute(PAIR_TOPK_SQL, [2, 30.0]).rows[:2] == [
            [29.0, 22.29], [28.0, 22.28]
        ]


class TestCompositeBtree:
    def test_declared_multi_column_btree_walks_its_prefix(self):
        db = _meas_db()
        db.execute("CREATE INDEX meas_u_x ON meas USING BTREE (u, x)")
        sql = "SELECT house, time FROM meas WHERE u = $1 AND x BETWEEN $2 AND $3"
        assert "IndexRangeScan meas USING meas_u_x (u = $1 AND x >= $2 AND x <= $3)" in (
            plan_text(db, sql)
        )
        planned, naive = _run_both(db, sql, [0.0, 20.0, 22.0])
        assert planned == naive and planned[1]
        # The full key is a point lookup, on the B-tree like on a hash index.
        assert "IndexLookup meas USING meas_u_x" in plan_text(
            db, "SELECT * FROM meas WHERE x = 20.1 AND u = 0"
        )

    def test_more_consumed_conjuncts_win(self):
        db = _meas_db()
        db.execute("CREATE INDEX meas_time ON meas USING BTREE (time)")
        assert "USING meas_pkey" in plan_text(db, "SELECT * FROM meas WHERE house = 1 AND time < 9")
        assert "USING meas_time (time < 9)" in plan_text(db, "SELECT * FROM meas WHERE time < 9")
        db.execute("CREATE INDEX meas_house ON meas (house)")
        # The walk's prefix covers the lookup's index and it consumes one
        # conjunct more, so it replaces the point lookup ...
        assert "IndexRangeScan meas USING meas_pkey (house = 1 AND time < 9)" in plan_text(
            db, "SELECT * FROM meas WHERE house = 1 AND time < 9"
        )
        # ... but on a tie the lookup stays.
        assert "IndexLookup meas USING meas_house (house = 1)" in plan_text(
            db, "SELECT * FROM meas WHERE house = 1"
        )
        assert "IndexLookup meas USING meas_house (house = 1) (filter: x > 20)" in plan_text(
            db, "SELECT * FROM meas WHERE house = 1 AND x > 20"
        )

    def test_non_orderable_column_is_refused(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer, b variant)")
        with pytest.raises(SqlCatalogError, match="cannot back an ordered index"):
            db.execute("CREATE INDEX t_ab ON t USING BTREE (a, b)")


class TestRangeRoutedDml:
    def test_explain_shows_the_walk(self):
        db = _meas_db()
        text = plan_text(db, "DELETE FROM meas WHERE house = $1 AND time < $2")
        assert text == (
            "Delete on meas (filter: (house = $1) AND (time < $2))\n"
            "->  IndexRangeScan meas USING meas_pkey (house = $1 AND time < $2)"
        )

    def test_delete_tests_only_walked_rows(self, monkeypatch):
        from repro.sqldb.table import Table

        db = _meas_db()
        seen = {}
        original = Table.delete_where

        def spy(self, predicate, candidate_positions=None):
            seen["candidates"] = candidate_positions
            return original(self, predicate, candidate_positions=candidate_positions)

        monkeypatch.setattr(Table, "delete_where", spy)
        assert db.execute("DELETE FROM meas WHERE house = $1 AND time < $2", [2, 10]).rowcount == 10
        assert len(seen["candidates"]) == 10
        assert db.execute("SELECT count(*) FROM meas WHERE house = 2").scalar() == 38
        # An equality that can never hold tests no row at all ...
        assert db.execute("DELETE FROM meas WHERE house = 'x' AND time < 10").rowcount == 0
        assert seen["candidates"] == []
        # ... and a bound only per-row comparison reproduces tests them all.
        db.execute("DELETE FROM meas WHERE house = 2 AND time < 'abc'")
        assert seen["candidates"] is None

    def test_routed_dml_matches_scan_semantics(self, monkeypatch):
        from repro.sqldb.executor import Executor

        statements = [
            ("DELETE FROM meas WHERE house = $1 AND time < $2", [1, 7]),
            ("UPDATE meas SET time = time + 100 WHERE house = $1 AND time >= $2", [2, 40]),
            ("UPDATE meas SET house = 9 WHERE house = 3 AND time BETWEEN 5 AND 8", []),
            ("DELETE FROM meas WHERE house = 4 AND time > $1 AND u > 0.5", [10]),
            ("DELETE FROM meas WHERE house = $1", [0]),
            ("DELETE FROM meas WHERE house = 5 AND time < NULL", []),
            ("DELETE FROM meas WHERE house = 5 AND time < 'abc'", []),
            ("UPDATE meas SET x = 0 WHERE house = '3' AND time >= '40'", []),
        ]
        contents = []
        for routed in (True, False):
            db = _meas_db()
            if not routed:
                # The scan arm: every statement tests every row.
                monkeypatch.setattr(Executor, "_dml_candidate_positions", lambda *args: None)
            for sql, params in statements:
                db.execute(sql, params)
            contents.append(db.execute("SELECT * FROM meas ORDER BY house, time").rows)
        assert contents[0] == contents[1]


# --------------------------------------------------------------------------- #
# Typed table functions: declared output types make equi-joins hashable
# --------------------------------------------------------------------------- #
FEED_COLUMNS = ["pid integer", "city text", "score double precision"]
FEED_CITIES = ["aalborg", "odense", "ghosttown", "aarhus"]


def _people_feed(_db, n):
    """``n`` rows keyed on people ids: repeated keys, integral floats that
    must equal integer ids (``1 = 1.0``), NULL keys and an unknown city."""
    rows = []
    for i in range(int(n)):
        pid = None if i % 7 == 3 else (i * 3) % 23
        if pid is not None and i % 2:
            pid = float(pid)
        city = None if i % 5 == 4 else FEED_CITIES[i % 4]
        rows.append([pid, city, round(18 + i * 1.5, 1)])
    return rows


def _register_feed(db: Database, columns=FEED_COLUMNS) -> None:
    db.register_table_udf("people_feed", _people_feed, columns, min_args=1, max_args=1)


#: Planned-vs-naive templates over the typed ``people_feed(n)`` beside the
#: base tables of :class:`TestEquivalence`; ``{f}``/``{g}`` size the feed.
TYPED_UDF_TEMPLATES = [
    # Inner and LEFT equi-joins, the function on either side.
    "SELECT p.name, f.score FROM people p JOIN people_feed({f}) f ON f.pid = p.id",
    "SELECT f.pid, f.score, p.name FROM people_feed({f}) f JOIN people p ON p.id = f.pid",
    "SELECT p.name, f.score FROM people p LEFT JOIN people_feed({f}) f ON f.pid = p.id",
    "SELECT f.pid, c.region FROM people_feed({f}) f LEFT JOIN cities c ON c.city = f.city",
    "SELECT c.region, count(*) FROM people_feed({f}) f JOIN cities c ON c.city = f.city "
    "GROUP BY c.region ORDER BY c.region",
    "SELECT p.name, f.score FROM people p JOIN people_feed({f}) f "
    "ON f.pid = p.id AND f.score > {n}",
    "SELECT count(*), avg(f.score) FROM people_feed({f}) f JOIN people p ON p.id = f.pid "
    "WHERE p.city = '{city}'",
    "SELECT p.name, f.score FROM people p, people_feed({f}) f "
    "WHERE p.id = f.pid AND p.age > {n}",
    "SELECT a.pid, b.score FROM people_feed({f}) a JOIN people_feed({g}) b ON a.pid = b.pid",
    # Unqualified names resolve to the function's columns.
    "SELECT name, score FROM people_feed({f}) f JOIN people p ON pid = id WHERE score > {n}",
    "SELECT name, region FROM people, people_feed({f}), cities "
    "WHERE id = pid AND cities.city = people.city",
    # Ambiguous unqualified names fail (or not, on empty input) both ways;
    # the first joins on qualified names, the second cannot.
    "SELECT * FROM people_feed({f}) f JOIN cities c ON f.city = c.city WHERE city = '{city}'",
    "SELECT f.pid FROM people_feed({f}) f JOIN cities c ON city = c.city",
    # Different type classes never hash.
    "SELECT p.name FROM people p JOIN people_feed({f}) f ON f.city = p.id",
    # LATERAL: re-expanded per outer row, stays a nested loop.
    "SELECT p.name, f.score FROM people p, LATERAL people_feed(p.id) f WHERE f.pid = p.id",
]


class TestTypedTableUdfs:
    """Fully typed table UDFs join base tables (and each other) by hashing."""

    @pytest.fixture()
    def feed_db(self):
        db = _build_corpus_db(0, "none")
        _register_feed(db)
        return db

    @pytest.mark.parametrize("stats_mode", ["none", "fresh"])
    def test_typed_udf_corpus_matches_naive(self, stats_mode):
        db = _build_corpus_db(1, stats_mode)
        _register_feed(db)
        rng = random.Random(0xFEED)
        for template in TYPED_UDF_TEMPLATES:
            for _ in range(4):
                sql = template.format(
                    f=rng.randint(0, 30),
                    g=rng.randint(0, 30),
                    n=rng.randint(18, 50),
                    city=rng.choice(FEED_CITIES),
                )
                planned, naive = _run_both(db, sql)
                assert planned == naive, f"stats={stats_mode}: {sql}"

    def test_equi_joins_plan_as_hash_joins(self, feed_db):
        for template in TYPED_UDF_TEMPLATES[:12]:
            sql = template.format(f=5, g=6, n=30, city="aalborg")
            assert "HashJoin" in plan_text(feed_db, sql), sql
            assert "NestedLoopJoin" not in plan_text(feed_db, sql), sql
        for template in TYPED_UDF_TEMPLATES[12:]:
            sql = template.format(f=5, g=6, n=30, city="aalborg")
            assert "HashJoin" not in plan_text(feed_db, sql), sql

    def test_lateral_call_stays_a_nested_loop(self, feed_db):
        assert plan_text(feed_db, TYPED_UDF_TEMPLATES[-1]) == (
            "Project (p.name, f.score)\n"
            "->  Filter (f.pid = p.id)\n"
            "  ->  NestedLoopJoin cross LATERAL\n"
            "    ->  Scan people AS p\n"
            "    ->  LateralSource"
        )

    def test_untyped_udf_plans_as_before(self, feed_db):
        sql = TYPED_UDF_TEMPLATES[0].format(f=5)
        _register_feed(feed_db, ["pid", "city", "score"])
        assert plan_text(feed_db, sql) == (
            "Project (p.name, f.score)\n"
            "->  NestedLoopJoin inner (f.pid = p.id)\n"
            "  ->  Scan people AS p\n"
            "  ->  FunctionScan people_feed(...) AS f"
        )
        # One untyped column leaves the whole function opaque.
        _register_feed(feed_db, ["pid integer", "city", "score double precision"])
        assert "NestedLoopJoin inner (f.pid = p.id)" in plan_text(feed_db, sql)

    def test_column_aliases_rename_the_typed_columns(self, feed_db):
        sql = "SELECT p.name FROM people p JOIN people_feed(9) AS f(k, town, s) ON f.k = p.id"
        assert "HashJoin inner (p.id = f.k)" in plan_text(feed_db, sql)
        planned, naive = _run_both(feed_db, sql)
        assert planned == naive and len(planned[1]) > 0
        # An alias count the executor refuses leaves the call opaque.
        bad = "SELECT p.name FROM people p JOIN people_feed(9) AS f(k) ON f.k = p.id"
        assert "NestedLoopJoin" in plan_text(feed_db, bad)
        assert _run_both(feed_db, bad) == (("error", "SqlCatalogError"),) * 2

    def test_reregistering_with_other_types_replans(self, feed_db):
        sql = TYPED_UDF_TEMPLATES[0].format(f=9)
        expected = feed_db.execute(sql).rows
        statement = feed_db._parse_cached(sql)
        hashed = feed_db.plan_select(statement)
        assert feed_db.plan_select(statement) is hashed
        assert "HashJoin" in hashed.node_names()

        _register_feed(feed_db, ["pid", "city", "score"])
        untyped = feed_db.plan_select(statement)
        assert "HashJoin" not in untyped.node_names()
        assert feed_db.execute(sql).rows == expected

        # pid as text: a text key never hashes against an integer id.
        _register_feed(feed_db, ["pid text", "city text", "score double precision"])
        assert "HashJoin" not in feed_db.plan_select(statement).node_names()

        _register_feed(feed_db)
        assert "HashJoin" in feed_db.plan_select(statement).node_names()
        assert feed_db.execute(sql).rows == expected

    def test_rollback_of_a_registration_replans(self, feed_db):
        sql = TYPED_UDF_TEMPLATES[0].format(f=9)
        _register_feed(feed_db, ["pid", "city", "score"])
        statement = feed_db._parse_cached(sql)
        assert "HashJoin" not in feed_db.plan_select(statement).node_names()
        feed_db.begin()
        _register_feed(feed_db)
        assert "HashJoin" in feed_db.plan_select(statement).node_names()
        feed_db.rollback()
        assert "HashJoin" not in feed_db.plan_select(statement).node_names()

    def test_declaration_errors(self, feed_db):
        with pytest.raises(SqlCatalogError, match="unknown SQL type"):
            _register_feed(feed_db, ["pid integer", "city textual", "score double precision"])


def _mistyped_feed(_db):
    """Declared ``(pid integer, city text)``, but one pid is the string
    ``'2'`` - which ``=`` equals to 2 and a hash never would - and one city
    a number."""
    return [[1, "aalborg"], ["2", "aarhus"], [3.0, 5], [None, "odense"]]


class TestMistypedTableUdf:
    """A value that breaks its declared type never changes a join silently:
    the hash join raises where the nested loop would have matched it."""

    @pytest.fixture()
    def bad_db(self):
        db = _build_corpus_db(2, "none")
        db.register_table_udf(
            "mistyped_feed", _mistyped_feed, ["pid integer", "city text"], max_args=0
        )
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            # the function hashed (build side), then probing
            "SELECT p.name FROM people p JOIN mistyped_feed() f ON f.pid = p.id",
            "SELECT f.pid, p.name FROM mistyped_feed() f JOIN people p ON p.id = f.pid",
            "SELECT p.name FROM people p LEFT JOIN mistyped_feed() f ON f.pid = p.id",
            "SELECT p.name FROM people p, mistyped_feed() f WHERE p.id = f.pid",
            "SELECT c.region FROM mistyped_feed() f JOIN cities c ON c.city = f.city",
        ],
    )
    def test_hash_join_raises_on_a_mistyped_key(self, bad_db, sql):
        assert "HashJoin" in plan_text(bad_db, sql)
        with pytest.raises(SqlExecutionError, match="declared"):
            bad_db.execute(sql)
        bad_db.planner_enabled = False
        try:
            naive = bad_db.execute(sql).rows
        finally:
            bad_db.planner_enabled = True
        assert naive  # the nested loop's '=' matched rows a hash would miss

    def test_mistyped_values_pass_through_outside_joins(self, bad_db):
        assert bad_db.execute("SELECT * FROM mistyped_feed()").rows == _mistyped_feed(bad_db)
        # Filters compare with '=' as the nested loop does: '2' = 2.
        planned, naive = _run_both(bad_db, "SELECT * FROM mistyped_feed() f WHERE f.pid = 2")
        assert planned == naive == (["pid", "city"], [["2", "aarhus"]])


#: pgfmu_day's analysis step: one house's simulated x against its measured x.
ANALYSIS_SQL = (
    "SELECT count(*), avg(s.value), avg(abs(s.value - m.x)) "
    "FROM sim_output('i1', 'SELECT time, u FROM meas WHERE house = 1 AND time < 12') s "
    "JOIN meas m ON m.time = s.simulationtime WHERE m.house = 1 AND s.varname = 'x'"
)


def _sim_output(db, instance, input_sql):
    """Shaped like ``fmu_simulate``: long-format rows over the input times."""
    rows = []
    for time, u in db.execute(input_sql).rows:
        rows.append([float(time), instance, "x", 20.0 + u + time / 10.0])
        rows.append([float(time), instance, "y", u])
    return rows


class TestSimulationJoinGolden:
    def _db(self) -> Database:
        db = Database()
        db.execute(
            "CREATE TABLE meas (house integer, time double precision, x double precision, "
            "y double precision, u double precision, PRIMARY KEY (house, time))"
        )
        db.insert_rows(
            "meas",
            [[h, float(t), 20.0 + t / 10.0, 0.0, 0.5] for t in range(24) for h in range(3)],
        )
        db.execute("CREATE INDEX meas_house ON meas (house)")
        db.register_table_udf(
            "sim_output",
            _sim_output,
            ["simulationtime double precision", "instanceid text", "varname text",
             "value double precision"],
            min_args=2,
            max_args=2,
        )
        return db

    def test_analysis_statement_hash_joins(self):
        db = self._db()
        assert plan_text(db, ANALYSIS_SQL) == (
            "Aggregate\n"
            "->  HashJoin inner (s.simulationtime = m.time)\n"
            "  ->  Filter (s.varname = 'x')\n"
            "    ->  FunctionScan sim_output(...) AS s\n"
            "  ->  IndexLookup meas AS m USING meas_house (house = 1)"
        )
        planned, naive = _run_both(db, ANALYSIS_SQL)
        assert planned == naive
        assert planned[1][0][0] == 12 and planned[1][0][1] == pytest.approx(21.05)
