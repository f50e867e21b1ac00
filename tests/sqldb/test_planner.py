"""Planner subsystem tests: plan shapes, indexes, transactions, equivalence."""

from __future__ import annotations

import random
import re

import pytest

from repro.errors import SqlCatalogError
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
        assert "IndexLookup instances USING PRIMARY KEY" in text

    def test_parameter_point_lookup(self, fleet_db):
        text = plan_text(fleet_db, "SELECT * FROM instances WHERE instance_id = $1")
        assert "IndexLookup instances USING PRIMARY KEY (instance_id = $1)" in text

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

CORPUS_CITIES = ["aalborg", "aarhus", "odense", "esbjerg", "ribe"]

#: Numeric template placeholders; the ``$n``-bound corpus binds each one.
_NUMERIC_PLACEHOLDER = re.compile(r"\{(n|m|k|o|d1|d2)\}")


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

    insert_people(0, 15)
    insert_visits(0, 45)
    if stats_mode == "stale":
        db.execute("ANALYZE")
    insert_people(15, 30)
    insert_visits(45, 90)
    db.execute("DELETE FROM visits WHERE vid < 5")
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
        statement.plan_cache_entry = (analyzed_db, analyzed_db.catalog_version, cached)
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
        assert "IndexLookup instances USING PRIMARY KEY (instance_id = 'I3')" in text

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
