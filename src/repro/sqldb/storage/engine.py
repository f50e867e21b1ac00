"""The storage engine: glues the WAL, the page store and recovery together.

A :class:`StorageEngine` owns two files derived from the database path
(``fleet.db`` -> page store, ``fleet.db.wal`` -> write-ahead log) and is
attached to exactly one :class:`~repro.sqldb.database.Database`:

* **logging** - every table mutation and every DDL statement calls one of
  the ``log_*`` methods (tables hold the engine as their ``log_sink``).
  Inside an explicit transaction records buffer until :meth:`commit`, which
  appends the COMMIT frame and fsyncs once; outside one each operation is
  wrapped in an implicit BEGIN/COMMIT and synced immediately (autocommit).
* **checkpointing** - :meth:`checkpoint` serializes every table (schema +
  rows + index definitions) into fresh page chains, flips the page-store
  header, and resets the WAL to a single CHECKPOINT frame, bounding replay
  time on the next open.
* **recovery** - :meth:`attach` runs :func:`repro.sqldb.storage.recovery.
  recover` before the database serves queries: page-store snapshot first,
  then replay of committed WAL transactions, then truncation of any torn
  or uncommitted tail.

Not persisted by design: UDF/extension registrations (sessions reinstall
them at boot) and index *contents* (only declared definitions are stored,
and ``<table>_pkey`` is derived from the schema; every index rebuilds from
rows in one pass on open).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SqlStorageError
from repro.sqldb.storage import wal as walmod
from repro.sqldb.storage.pager import PAGE_SIZE, Pager
from repro.sqldb.storage.record import decode_row, encode_row
from repro.sqldb.storage.wal import FaultInjector, WalWriter

PathLike = Union[str, Path]

_ROW_FRAME = struct.Struct("<I")


def serialize_rows(rows: Sequence[Sequence[Any]]) -> bytes:
    """Length-framed concatenation of encoded rows (checkpoint blob format)."""
    out = bytearray()
    for row in rows:
        encoded = encode_row(row)
        out += _ROW_FRAME.pack(len(encoded))
        out += encoded
    return bytes(out)


def deserialize_rows(blob: bytes) -> List[list]:
    rows: List[list] = []
    offset = 0
    size = len(blob)
    while offset < size:
        (length,) = _ROW_FRAME.unpack_from(blob, offset)
        offset += _ROW_FRAME.size
        if offset + length > size:
            raise SqlStorageError("checkpoint row blob is truncated")
        rows.append(decode_row(blob[offset : offset + length]))
        offset += length
    return rows


class StorageEngine:
    """Durable storage for one :class:`~repro.sqldb.database.Database`.

    Parameters
    ----------
    path:
        Base path of the database; the page store lives at ``path`` and the
        WAL at ``path`` + ``".wal"``.
    fsync:
        When False, skip ``os.fsync`` (faster, used by benchmarks to
        isolate serialization cost; crash durability is then up to the OS).
    fault:
        Optional :class:`FaultInjector` for crash-recovery tests.
    """

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        fault: Optional[FaultInjector] = None,
        page_size: int = PAGE_SIZE,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.wal_path = Path(str(self.path) + ".wal")
        self.fault = fault
        self.pager = Pager(self.path, page_size=page_size, fsync=fsync, fault=fault)
        self.wal = WalWriter(self.wal_path, fsync=fsync, fault=fault)
        self.database = None
        self._next_txn_id = 1
        self._txn_id = 0
        self._in_txn = False
        self._txn_ops = 0
        self._replaying = False
        self._live_roots: List[int] = []
        #: Sticky degraded mode: set on the first real I/O failure (OSError)
        #: from the WAL or pager write path and cleared only by reopening.
        self.read_only = False
        self.degraded_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Degraded mode (fsyncgate semantics: a failed fsync may have dropped
    # dirty pages from the OS cache, so the write is NEVER retried - the
    # engine turns read-only until the database is reopened and recovery
    # re-establishes a consistent on-disk state).
    # ------------------------------------------------------------------ #
    def _degrade(self, context: str, exc: BaseException) -> SqlStorageError:
        self.read_only = True
        self.degraded_reason = f"{context}: {exc}"
        return SqlStorageError(
            f"{context} ({exc}); storage engine is now read-only - "
            "reopen the database to recover"
        )

    def _check_writable(self) -> None:
        if self.read_only:
            raise SqlStorageError(
                f"storage engine is read-only (degraded: {self.degraded_reason})"
            )

    def _wal_append(self, payload: bytes) -> None:
        try:
            self.wal.append(payload)
        except OSError as exc:
            raise self._degrade("WAL append failed", exc) from exc

    def _wal_sync(self) -> None:
        try:
            self.wal.sync()
        except OSError as exc:
            raise self._degrade("WAL sync failed", exc) from exc

    # ------------------------------------------------------------------ #
    # Attachment / recovery
    # ------------------------------------------------------------------ #
    def attach(self, database) -> None:
        """Bind to a database and recover its state from disk."""
        from repro.sqldb.storage.recovery import recover

        if self.database is not None:
            raise SqlStorageError("storage engine is already attached to a database")
        self.database = database
        self._replaying = True
        try:
            recover(self, database)
        finally:
            self._replaying = False

    # ------------------------------------------------------------------ #
    # Transaction boundaries (driven by Database.begin/commit/rollback)
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        if self._in_txn:
            raise SqlStorageError("storage transaction already open")
        self._check_writable()
        self._txn_id = self._next_txn_id
        self._next_txn_id += 1
        self._in_txn = True
        # The BEGIN frame is appended lazily by the first logged operation,
        # so read-only / empty transactions never touch the log.
        self._txn_ops = 0

    def commit(self) -> None:
        if not self._in_txn:
            return
        if self._txn_ops == 0:
            self._in_txn = False
            return
        self._check_writable()
        self._wal_append(walmod.commit_record(self._txn_id))
        self._in_txn = False
        self._wal_sync()

    def rollback(self) -> None:
        if not self._in_txn:
            return
        self._in_txn = False
        # Nothing of this transaction reached the file (frames buffer in
        # memory until the commit-time sync), so discarding is enough.
        self.wal.discard_pending()

    # ------------------------------------------------------------------ #
    # Logging (called from Table mutations and Database DDL)
    # ------------------------------------------------------------------ #
    def _log(self, payload: bytes) -> None:
        if self._replaying:
            return
        self._check_writable()
        if self._in_txn:
            if self._txn_ops == 0:
                self._wal_append(walmod.begin_record(self._txn_id))
            self._wal_append(payload)
            self._txn_ops += 1
        else:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            try:
                self._wal_append(walmod.begin_record(txn_id))
                self._wal_append(payload)
                self._wal_append(walmod.commit_record(txn_id))
            except BaseException:
                # A partially-buffered autocommit transaction must not ride
                # along with the next commit's sync: drop its frames now.
                self.wal.discard_pending()
                raise
            self._wal_sync()

    def log_insert(self, table: str, row: Sequence[Any]) -> None:
        self._log(walmod.insert_record(table, row))

    def log_delete(self, table: str, positions: Sequence[int]) -> None:
        self._log(walmod.delete_record(table, positions))

    def log_update(self, table: str, pairs: Sequence[Tuple[int, Sequence[Any]]]) -> None:
        self._log(walmod.update_record(table, pairs))

    def log_truncate(self, table: str) -> None:
        self._log(walmod.truncate_record(table))

    def log_ddl(self, payload: Dict[str, Any]) -> None:
        self._log(walmod.ddl_record(payload))

    # ------------------------------------------------------------------ #
    # Checkpoint
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> int:
        """Write a full snapshot and reset the WAL; returns the new id.

        Protocol (each step leaves a recoverable file pair):

        1. serialize every table into chains allocated from *free* pages -
           the current snapshot stays untouched;
        2. fsync the data file, then flip the header to the new catalog in
           one page write + fsync (the atomic commit point);
        3. reset the WAL to a single CHECKPOINT frame via rename.  A crash
           between 2 and 3 leaves a WAL whose base does not match the
           header; recovery detects the mismatch and skips the stale log.
        """
        if self._in_txn:
            raise SqlStorageError("CHECKPOINT is not allowed inside a transaction")
        self._check_writable()
        database = self.database
        if database is None:
            raise SqlStorageError("storage engine is not attached to a database")
        try:
            return self._checkpoint(database)
        except OSError as exc:
            raise self._degrade("checkpoint failed", exc) from exc

    def _checkpoint(self, database) -> int:
        new_id = self.pager.checkpoint_id + 1
        tables = []
        roots: List[int] = []
        for name in sorted(database._tables):
            table = database._tables[name]
            blob = serialize_rows(table.raw_rows())
            rows_page = self.pager.write_chain(blob) if blob else 0
            if rows_page:
                roots.append(rows_page)
            tables.append(
                {
                    "schema": table.schema.to_payload(),
                    "rows_page": rows_page,
                    "rows_len": len(blob),
                    "row_count": len(table),
                    "indexes": [
                        {"name": name, "columns": columns, "kind": kind}
                        for name, columns, kind in table.index_definitions()
                    ],
                    "stats": (
                        table.stats.to_payload() if table.stats is not None else None
                    ),
                }
            )
        catalog = {
            "version": 1,
            "checkpoint_id": new_id,
            "next_txn_id": self._next_txn_id,
            "tables": tables,
        }
        catalog_page = self.pager.write_chain(json.dumps(catalog).encode("utf-8"))
        roots.insert(0, catalog_page)
        if self.fault is not None:
            self.fault.check_point("checkpoint.before_header")
        self.pager.sync()
        self.pager.commit_header(catalog_page, new_id)
        try:
            if self.fault is not None:
                self.fault.check_point("checkpoint.after_header")
            self._live_roots = roots
            self.pager.set_live_chains(roots)
            self.wal.reset(walmod.checkpoint_record(new_id))
        except BaseException as exc:
            # The header already points at the new snapshot but the WAL still
            # carries the old base: recovery will (correctly) skip the stale
            # log, so any commit accepted from here on would be silently
            # dropped on the next open.  Refuse further writes instead.
            self._degrade("checkpoint failed after the snapshot header flip", exc)
            raise
        return new_id

    # ------------------------------------------------------------------ #
    # Verification (the VERIFY SQL statement)
    # ------------------------------------------------------------------ #
    def verify(self) -> List[List[str]]:
        """Walk the page store and WAL; returns ``[object, status, detail]`` rows.

        Purely read-only: every chain referenced by the on-disk catalog is
        re-read (which re-checks the per-page CRCs), every table blob is
        re-deserialized and its row count compared against the catalog, and
        the WAL is scanned for torn frames.  Corruption is *reported* as
        rows rather than raised, so a damaged store can still be surveyed.
        """
        results: List[List[str]] = []
        pager = self.pager
        results.append(
            [
                "header",
                "ok",
                f"page_size={pager.page_size} pages={pager.page_count} "
                f"checkpoint_id={pager.checkpoint_id}",
            ]
        )
        catalog: Optional[Dict[str, Any]] = None
        if pager.catalog_page:
            try:
                blob = pager.read_chain(pager.catalog_page)
                catalog = json.loads(blob.decode("utf-8"))
            except SqlStorageError as exc:
                results.append(["catalog", "corrupt", str(exc)])
            except (ValueError, UnicodeDecodeError) as exc:
                results.append(["catalog", "corrupt", f"catalog JSON is invalid: {exc}"])
            else:
                results.append(
                    ["catalog", "ok", f"{len(catalog.get('tables', []))} table(s)"]
                )
        else:
            results.append(["catalog", "ok", "empty page store (no checkpoint yet)"])
        for entry in (catalog or {}).get("tables", []):
            name = entry.get("schema", {}).get("name", "?")
            label = f"table:{name}"
            rows_page = entry.get("rows_page", 0)
            if not rows_page:
                results.append([label, "ok", "0 row(s)"])
                continue
            try:
                blob = pager.read_chain(rows_page)
                rows = deserialize_rows(blob)
            except SqlStorageError as exc:
                results.append([label, "corrupt", str(exc)])
                continue
            expected = entry.get("row_count", len(rows))
            if expected != len(rows):
                results.append(
                    [
                        label,
                        "corrupt",
                        f"row count mismatch: catalog says {expected}, "
                        f"chain holds {len(rows)}",
                    ]
                )
            else:
                results.append([label, "ok", f"{len(rows)} row(s)"])
        try:
            entries, valid_end, size = walmod.scan_wal(self.wal_path)
        except OSError as exc:  # pragma: no cover - unreadable WAL file
            results.append(["wal", "corrupt", f"WAL is unreadable: {exc}"])
        else:
            if valid_end == size:
                results.append(["wal", "ok", f"{len(entries)} frame(s), {size} byte(s)"])
            else:
                results.append(
                    [
                        "wal",
                        "torn-tail",
                        f"{len(entries)} intact frame(s); "
                        f"{size - valid_end} trailing byte(s) beyond offset {valid_end}",
                    ]
                )
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def wal_size(self) -> int:
        """Current WAL file size in bytes (benchmark/introspection aid)."""
        return self.wal_path.stat().st_size if self.wal_path.exists() else 0

    def close(self) -> None:
        self.wal.close()
        self.pager.close()

    def simulate_crash(self) -> None:
        """Drop all in-memory state without flushing (``kill -9`` stand-in)."""
        self.wal.abandon()
        self.pager.close()
