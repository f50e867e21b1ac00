"""Replay-on-open: rebuild a database from its page store and WAL.

The protocol, run by :meth:`StorageEngine.attach` before the database
serves its first query:

1. **Snapshot** - if the page-store header points at a catalog, rebuild
   every table from it: schema payload, rows blob, declared index
   definitions, loaded through :meth:`Table.restore` as a rollback does
   (``<table>_pkey``, derived from the schema, and the declared hash and
   B-tree indexes are rebuilt from rows - index contents are never
   persisted; rows that repeat a primary key are refused).
2. **Base check** - the WAL must start with a CHECKPOINT frame matching
   the header's checkpoint id (or contain none at all when no checkpoint
   was ever taken).  A mismatch means the process died between the header
   flip and the WAL reset; the whole log predates the snapshot and is
   discarded, bounding replay at exactly one checkpoint interval.
3. **Replay** - committed transactions (BEGIN..COMMIT groups) after the
   checkpoint frame are applied in log order, bypassing coercion and
   constraint checks (rows were validated when first written).
4. **Truncate** - everything past the last COMMIT frame (a torn frame from
   a mid-write crash, or an intact-but-uncommitted tail) is chopped off,
   so the log on disk again ends at a transaction boundary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import SqlStorageError
from repro.sqldb.schema import TableSchema
from repro.sqldb.stats import TableStats
from repro.sqldb.storage import wal as walmod
from repro.sqldb.storage.engine import deserialize_rows
from repro.sqldb.table import Table, TableState


def recover(engine, database) -> None:
    """Rebuild ``database`` from ``engine``'s files (see module docstring)."""
    next_txn_id = _load_snapshot(engine, database)
    max_replayed = _replay_wal(engine, database)
    engine._next_txn_id = max(next_txn_id, max_replayed + 1)


# --------------------------------------------------------------------------- #
# Snapshot
# --------------------------------------------------------------------------- #
def _load_snapshot(engine, database) -> int:
    pager = engine.pager
    roots: List[int] = []
    next_txn_id = 1
    if pager.catalog_page:
        try:
            catalog = json.loads(pager.read_chain(pager.catalog_page).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SqlStorageError(f"corrupt checkpoint catalog: {exc}") from exc
        try:
            next_txn_id = int(catalog.get("next_txn_id", 1))
            entries = catalog["tables"]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SqlStorageError(
                f"corrupt checkpoint catalog structure: {exc!r}"
            ) from exc
        roots.append(pager.catalog_page)
        for entry in entries:
            try:
                schema = TableSchema.from_payload(entry["schema"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SqlStorageError(
                    f"corrupt table schema in checkpoint catalog: {exc!r}"
                ) from exc
            rows: List[list] = []
            rows_page = int(entry.get("rows_page", 0))
            if rows_page:
                rows = deserialize_rows(pager.read_chain(rows_page))
                roots.append(rows_page)
            if len(rows) != int(entry.get("row_count", len(rows))):
                raise SqlStorageError(
                    f"checkpoint of table {schema.name!r} holds "
                    f"{len(rows)} rows, catalog says {entry['row_count']}"
                )
            index_defs = [
                (d["name"].lower(), d["columns"], d.get("kind", "hash"))
                for d in entry.get("indexes", [])
            ]
            stats_payload = entry.get("stats")
            stats = TableStats.from_payload(stats_payload) if stats_payload is not None else None
            table = Table(schema)
            table.restore(TableState(schema, rows, index_defs, stats))
            for name, _, _ in index_defs:
                database._indexes[name] = schema.name
            database._register_table(table)
    pager.set_live_chains(roots)
    engine._live_roots = roots
    return next_txn_id


# --------------------------------------------------------------------------- #
# WAL replay
# --------------------------------------------------------------------------- #
def _replay_wal(engine, database) -> int:
    pager = engine.pager
    entries, valid_end, file_size = walmod.scan_wal(engine.wal.path)
    records = [(offset, walmod.parse_record(payload)) for offset, payload in entries]
    ends = [
        entries[i + 1][0] if i + 1 < len(entries) else valid_end
        for i in range(len(entries))
    ]

    start = 0
    keep_end = 0
    wal_base = None
    if records and records[0][1]["kind"] == walmod.REC_CHECKPOINT:
        wal_base = records[0][1]["checkpoint_id"]
    if pager.checkpoint_id > 0:
        if wal_base != pager.checkpoint_id:
            # The log predates the snapshot (crash between the header flip
            # and the WAL reset): every record is already in the pages.
            engine.wal.reset(walmod.checkpoint_record(pager.checkpoint_id))
            return 0
        start = 1
        keep_end = ends[0]
    elif wal_base is not None:
        raise SqlStorageError(
            "WAL claims a checkpoint but the page store has none"
        )

    max_txn = 0
    ops: List[Dict[str, Any]] = []
    in_group = False
    applied = False
    for i in range(start, len(records)):
        record = records[i][1]
        kind = record["kind"]
        if kind == walmod.REC_BEGIN:
            in_group = True
            ops = []
            max_txn = max(max_txn, record["txn_id"])
        elif kind == walmod.REC_COMMIT:
            for op in ops:
                _apply(database, op)
            applied = applied or bool(ops)
            ops = []
            in_group = False
            keep_end = ends[i]
            max_txn = max(max_txn, record["txn_id"])
        elif kind == walmod.REC_CHECKPOINT:
            raise SqlStorageError("unexpected CHECKPOINT frame mid-log")
        elif in_group:
            ops.append(record)
        else:
            raise SqlStorageError(f"WAL record kind {kind} outside a transaction")

    if applied:
        for table in database._tables.values():
            table._rebuild_indexes()
        database._bump_catalog_version()
    if keep_end < file_size:
        # Torn final frame and/or a transaction that never committed.
        walmod.truncate_wal(engine.wal.path, keep_end)
    return max_txn


def _apply(database, op: Dict[str, Any]) -> None:
    """Apply one replayed operation directly to table internals.

    Coercion, constraint checks and index maintenance are skipped: the
    rows were validated when first executed, replay order reproduces the
    exact same states, and indexes are rebuilt once after the last record.
    """
    kind = op["kind"]
    try:
        if kind == walmod.REC_INSERT:
            database._tables[op["table"]]._rows.append(op["row"])
        elif kind == walmod.REC_DELETE:
            table = database._tables[op["table"]]
            doomed = set(op["positions"])
            table._rows = [
                row for position, row in enumerate(table._rows) if position not in doomed
            ]
        elif kind == walmod.REC_UPDATE:
            table = database._tables[op["table"]]
            for position, row in op["pairs"]:
                table._rows[position] = row
        elif kind == walmod.REC_TRUNCATE:
            database._tables[op["table"]]._rows = []
        elif kind == walmod.REC_DDL:
            _apply_ddl(database, op["ddl"])
        else:
            raise SqlStorageError(f"cannot replay WAL record kind {kind}")
    except (KeyError, IndexError) as exc:
        raise SqlStorageError(f"WAL replay failed on record {op!r}: {exc}") from exc


def _apply_ddl(database, ddl: Dict[str, Any]) -> None:
    op = ddl["op"]
    if op == "create_table":
        schema = TableSchema.from_payload(ddl["schema"])
        database._register_table(Table(schema))
    elif op == "drop_table":
        name = ddl["name"]
        database._tables.pop(name, None)
        for index_name in [i for i, t in database._indexes.items() if t == name]:
            del database._indexes[index_name]
    elif op == "create_index":
        table = database._tables[ddl["table"]]
        index = table.add_index(ddl["name"], ddl["columns"], ddl.get("kind", "hash"))
        database._indexes[index.name] = ddl["table"]
    elif op == "drop_index":
        table_name = database._indexes.pop(ddl["name"], None)
        if table_name is not None:
            database._tables[table_name].indexes.pop(ddl["name"], None)
    elif op == "analyze":
        # Statistics are advisory: replay restores the ANALYZE-time view.
        # Incremental deltas from later DML replays are intentionally not
        # re-derived (the table layer is bypassed here).
        table = database._tables[ddl["table"]]
        table.stats = TableStats.from_payload(ddl["stats"])
    else:
        raise SqlStorageError(f"unknown DDL operation in WAL: {op!r}")
