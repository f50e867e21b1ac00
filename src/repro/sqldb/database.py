"""The database facade: tables, UDF registry, extensions, transactions.

Beyond plain query execution the facade offers the two integration surfaces
the layered public API builds on:

* **extensions** - :meth:`Database.install_extension` installs a named or
  literal :class:`~repro.sqldb.udf.Extension` (``"pgfmu"``, ``"madlib"``)
  the way PostgreSQL runs ``CREATE EXTENSION``; installed bundles are
  introspectable from SQL via the built-in ``installed_extensions()``
  set-returning function (aliased as ``fmu_extensions()`` by the ``pgfmu``
  extension).
* **transactions** - :meth:`begin` / :meth:`commit` / :meth:`rollback`
  provide snapshot-based transactions that the driver layer
  (:mod:`repro.sqldb.connection`) delegates to.  Snapshots are taken
  **copy-on-write**: :meth:`begin` records nothing; the first mutation of
  each table (through :attr:`Table.write_hook`) captures that table's
  pre-image, so a transaction costs O(tables written), not O(database size).

The facade also owns the query-planning machinery: a secondary-index
catalogue (``CREATE INDEX``/``DROP INDEX``), and a plan cache - plans hang
off the statement objects of the SQL-text statement cache and are
invalidated by bumping :attr:`catalog_version` on any DDL or rollback.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import cancellation
from repro.cancellation import CancelToken
from repro.errors import SqlCatalogError, SqlExecutionError, SqlIntegrityError
from repro.sqldb.ast_nodes import (
    AnalyzeStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropIndexStatement,
    DropTableStatement,
    ExplainStatement,
    FuncCall,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)
from repro.sqldb.executor import Executor
from repro.sqldb.locks import StatementLock
from repro.sqldb.parser import parse_sql
from repro.sqldb.result import ResultSet
from repro.sqldb.schema import TableSchema
from repro.sqldb.table import Table, TableState, primary_index_name
from repro.sqldb.udf import Extension, UdfRegistry, extension_factory

#: Sentinel for "caller did not supply a per-statement timeout override".
_UNSET = object()


def _calls_registered_udf(node: Any, udfs: UdfRegistry) -> bool:
    """Whether the statement AST references any *registered* UDF.

    Registered UDFs (``fmu_create``, ``fmu_simulate``, ``fmu_parest``, the
    MADlib routines, ...) may write tables and the model catalogue even when
    invoked from a SELECT, so such statements must take the exclusive
    statement lock.  Built-in functions (``abs``, aggregates,
    ``generate_series``) resolve outside the registry and stay read-only.
    """
    stack = [node]
    while stack:
        obj = stack.pop()
        if isinstance(obj, FuncCall):
            name = obj.name.lower()
            if name in udfs.scalars or name in udfs.tables:
                return True
            stack.extend(obj.args)
        elif is_dataclass(obj) and not isinstance(obj, type):
            for field in fields(obj):
                stack.append(getattr(obj, field.name))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return False


class _TransactionState:
    """Book-keeping for one open copy-on-write transaction.

    ``tables_before`` maps a table name to its pre-transaction
    :class:`TableState` (captured lazily on first write), or ``None`` when
    the table did not exist when the transaction began.
    """

    __slots__ = ("tables_before", "index_catalog", "registry")

    def __init__(self, index_catalog: Dict[str, str], registry: tuple):
        self.tables_before: Dict[str, Optional[TableState]] = {}
        self.index_catalog = index_catalog
        self.registry = registry


class Database:
    """An in-memory SQL database with UDF extensibility.

    This is the PostgreSQL stand-in that pgFMU plugs into.  Typical use::

        db = Database()
        db.execute("CREATE TABLE measurements (time double precision, x double precision)")
        db.execute("INSERT INTO measurements VALUES (0, 20.7)")
        rows = db.execute("SELECT * FROM measurements WHERE x > $1", [20]).to_dicts()

    Scalar and set-returning UDFs are registered via :meth:`register_scalar_udf`
    and :meth:`register_table_udf`; the pgFMU core and the MADlib-like ML
    routines use exactly this mechanism.
    """

    #: Statement types that mutate state and therefore run inside an
    #: implicit statement-level transaction on a durable database, so a
    #: mid-statement failure (constraint violation, WAL I/O error) leaves
    #: the in-memory tables exactly as they were before the statement.
    _MUTATING_STATEMENTS = (
        InsertStatement,
        UpdateStatement,
        DeleteStatement,
        CreateTableStatement,
        DropTableStatement,
        CreateIndexStatement,
        DropIndexStatement,
        AnalyzeStatement,
    )

    #: Upper bound on the SQL-text statement cache (LRU-evicted beyond it).
    _STATEMENT_CACHE_SIZE = 512

    def __init__(
        self,
        storage: Optional[Any] = None,
        statement_timeout: Optional[float] = None,
    ):
        #: Per-statement deadline in seconds (None disables); every call to
        #: :meth:`execute` installs a fresh :class:`CancelToken` honouring it.
        #: This is the *database-wide default*; connections and server
        #: sessions may override it per statement (``timeout=`` below).
        self.statement_timeout = statement_timeout
        #: Tokens of currently executing statements, keyed per owner
        #: (a :class:`~repro.sqldb.connection.Connection`, a server session,
        #: or the executing thread's ident when anonymous), so
        #: ``Cursor.cancel()`` from another thread cancels *its own
        #: connection's* statement and nothing else.
        self._active_tokens: Dict[Any, CancelToken] = {}
        self._tokens_mutex = threading.Lock()
        #: The statement lock: SELECTs share, writes/DDL/UDF-calling
        #: statements serialize, explicit transactions hold it to commit.
        self._statement_lock = StatementLock()
        self._txn_lock_held = False
        self._tables: Dict[str, Table] = {}
        self.udfs = UdfRegistry()
        self._executor = Executor(self)
        self._prepared: Dict[str, Any] = {}
        #: SQL-text -> parsed statement, LRU-evicted at
        #: :attr:`_STATEMENT_CACHE_SIZE` entries and guarded by its own
        #: mutex (parsing happens before the statement lock is taken).
        self._statement_cache: "OrderedDict[str, Any]" = OrderedDict()
        self._cache_mutex = threading.Lock()
        self._extensions: Dict[str, Extension] = {}
        self._txn: Optional[_TransactionState] = None
        self._commit_hooks: List[Callable[[], None]] = []
        self._rollback_hooks: List[Callable[[], None]] = []
        #: Index catalogue: index name -> owning table name.  Holds every
        #: declared index and each table's derived ``<table>_pkey``.
        self._indexes: Dict[str, str] = {}
        #: Bumped on every catalogue change (DDL, index DDL, rollback);
        #: cached plans are revalidated against it.
        self.catalog_version: int = 0
        #: When False, SELECT runs through the pre-planner naive pipeline
        #: (used by equivalence tests and the query-planner benchmark).
        self.planner_enabled: bool = True
        self.udfs.register_table(
            "installed_extensions",
            _installed_extensions,
            columns=["extname", "extversion", "n_udfs", "description"],
            min_args=0,
            max_args=0,
            description="All extensions installed on this database",
        )
        #: Durable storage engine (:class:`repro.sqldb.storage.StorageEngine`)
        #: or None for a purely in-memory database (the default).
        self.storage: Optional[Any] = None
        if storage is not None:
            self.attach_storage(storage)

    def attach_storage(self, storage: Any) -> None:
        """Attach a durable storage engine and recover its on-disk state.

        Existing tables are recovered *into* this database (the in-memory
        structures act as the cache over the page store + WAL), so attach
        happens before any tables are created.
        """
        if self.storage is not None:
            raise SqlExecutionError("database already has a storage engine attached")
        if self._tables:
            raise SqlExecutionError(
                "storage must be attached to an empty database (tables would "
                "not be recovered consistently)"
            )
        self.storage = storage
        storage.attach(self)

    # ------------------------------------------------------------------ #
    # Catalogue
    # ------------------------------------------------------------------ #
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema object (programmatic DDL)."""
        name = schema.name.lower()
        if name in self._tables:
            raise SqlCatalogError(f"table {name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.referenced_table not in self._tables and fk.referenced_table != name:
                raise SqlCatalogError(
                    f"foreign key of table {name!r} references unknown table "
                    f"{fk.referenced_table!r}"
                )
        primary = primary_index_name(schema)
        if primary is not None and primary in self._indexes:
            raise SqlCatalogError(
                f"index {primary!r} already exists; table {name!r} needs that "
                "name for its primary key"
            )
        table = Table(schema)
        self._register_table(table)
        if self._txn is not None and name not in self._txn.tables_before:
            self._txn.tables_before[name] = None  # did not exist before BEGIN
        self._bump_catalog_version()
        if self.storage is not None:
            self.storage.log_ddl({"op": "create_table", "schema": schema.to_payload()})
        return table

    def _register_table(self, table: Table) -> None:
        """Install a table object: database hooks, storage sink, catalogue."""
        table.write_hook = self._table_write_hook
        table.log_sink = self.storage
        self._tables[table.schema.name] = table
        if table.primary_index_name is not None:
            self._indexes[table.primary_index_name] = table.schema.name

    def drop_table(self, name: str) -> None:
        name = name.lower()
        if name not in self._tables:
            raise SqlCatalogError(f"table {name!r} does not exist")
        table = self._tables[name]
        if self._txn is not None and name not in self._txn.tables_before:
            self._txn.tables_before[name] = table.snapshot()
        del self._tables[name]
        for index_name in [i for i, t in self._indexes.items() if t == name]:
            del self._indexes[index_name]
        self._bump_catalog_version()
        if self.storage is not None:
            self.storage.log_ddl({"op": "drop_table", "name": name})

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SqlCatalogError(f"table {name!r} does not exist") from None

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------ #
    # Secondary indexes
    # ------------------------------------------------------------------ #
    def create_index(
        self,
        name: str,
        table_name: str,
        columns: Sequence[str],
        using: str = "hash",
    ) -> None:
        """Create a secondary index (``CREATE INDEX name ON table [USING kind] (cols)``)."""
        name = name.lower()
        if name in self._indexes:
            owner = self._primary_index_owner(name)
            backs = f" (it backs the primary key of table {owner!r})" if owner else ""
            raise SqlCatalogError(f"index {name!r} already exists{backs}")
        table = self.table(table_name)
        table.add_index(name, columns, kind=using)
        self._indexes[name] = table.schema.name
        self._bump_catalog_version()
        if self.storage is not None:
            self.storage.log_ddl(
                {
                    "op": "create_index",
                    "name": name,
                    "table": table.schema.name,
                    "columns": [c.lower() for c in columns],
                    "kind": using,
                }
            )

    def drop_index(self, name: str) -> None:
        name = name.lower()
        table_name = self._indexes.get(name)
        if table_name is None:
            raise SqlCatalogError(f"index {name!r} does not exist")
        if self._primary_index_owner(name):
            raise SqlCatalogError(
                f"cannot drop index {name!r}: it backs the primary key of "
                f"table {table_name!r}"
            )
        self.table(table_name).remove_index(name)
        del self._indexes[name]
        self._bump_catalog_version()
        if self.storage is not None:
            self.storage.log_ddl({"op": "drop_index", "name": name})

    def _primary_index_owner(self, name: str) -> Optional[str]:
        """The table whose primary key index is ``name``, or None."""
        table_name = self._indexes.get(name)
        table = self._tables.get(table_name) if table_name is not None else None
        return table_name if table is not None and table.primary_index_name == name else None

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def index_names(self) -> List[str]:
        """All index names, sorted: declared ones and every ``<table>_pkey``."""
        return sorted(self._indexes)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def analyze(self, table_name: Optional[str] = None) -> int:
        """Recompute planner statistics (``ANALYZE [table]``).

        Returns the number of tables analyzed.  Statistics steer the
        cost-based planner only; they never change query results.  On a
        durable database the fresh statistics are logged through the WAL and
        folded into the next checkpoint, so reopened sessions plan with the
        last ``ANALYZE``'s view of the data.
        """
        from repro.sqldb.stats import TableStats

        if table_name is not None:
            tables = [self.table(table_name)]
        else:
            tables = [self._tables[name] for name in sorted(self._tables)]
        for table in tables:
            table._before_write()
            table.stats = TableStats.compute(table.raw_rows(), table.column_names)
            if self.storage is not None:
                self.storage.log_ddl(
                    {
                        "op": "analyze",
                        "table": table.schema.name,
                        "stats": table.stats.to_payload(),
                    }
                )
        self._bump_catalog_version()
        return len(tables)

    # ------------------------------------------------------------------ #
    # Query planning
    # ------------------------------------------------------------------ #
    def _bump_catalog_version(self) -> None:
        self.catalog_version += 1

    def plan_select(self, statement) -> Any:
        """The (cached) plan for a parsed SELECT statement.

        Statements are cached by SQL text (:meth:`_parse_cached`), and each
        statement object carries its plan tagged with the database identity
        and :attr:`catalog_version` - so plans are effectively keyed on SQL
        text and invalidated by any DDL, index change, or rollback.  The
        per-statement attachment also makes correlated subqueries (planned
        once, executed per outer row) cheap.
        """
        from repro.sqldb.planner.builder import build_select_plan

        cached = getattr(statement, "plan_cache_entry", None)
        if (
            cached is not None
            and cached[0] is self
            and cached[1] == self.catalog_version
        ):
            return cached[2]
        plan = build_select_plan(statement, self)
        statement.plan_cache_entry = (self, self.catalog_version, plan)
        return plan

    def explain(self, sql: str, params: Optional[Sequence[Any]] = None) -> str:
        """The EXPLAIN plan of a statement as one newline-joined string."""
        stripped = sql.strip()
        if stripped.lower().startswith("explain"):
            result = self.execute(stripped, params)
        else:
            result = self.execute(f"EXPLAIN {stripped}", params)
        return "\n".join(row[0] for row in result.rows)

    def _table_write_hook(self, table: Table) -> None:
        """First-write hook installed on every table: lazily snapshot the
        table's pre-image when a transaction is open (copy-on-write)."""
        txn = self._txn
        if txn is None:
            return
        name = table.schema.name
        if name not in txn.tables_before and self._tables.get(name) is table:
            txn.tables_before[name] = table.snapshot()

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def check_foreign_keys(self, table: Table) -> Optional[Callable[[Dict[str, Any]], None]]:
        """Return a row-level foreign-key checker for ``table`` (or None)."""
        foreign_keys = table.schema.foreign_keys
        if not foreign_keys:
            return None

        def check(row: Dict[str, Any]) -> None:
            for fk in foreign_keys:
                values = [row.get(col) for col in fk.columns]
                if any(v is None for v in values):
                    continue
                referenced = self.table(fk.referenced_table)
                if fk.referenced_columns == referenced.schema.primary_key:
                    if referenced.lookup_pk(values) is not None:
                        continue
                    raise SqlIntegrityError(
                        f"foreign key violation: {fk.columns} = {values!r} has no match in "
                        f"{fk.referenced_table!r}"
                    )
                matched = any(
                    all(
                        candidate.get(ref_col) == value
                        for ref_col, value in zip(fk.referenced_columns, values)
                    )
                    for candidate in referenced.to_dicts()
                )
                if not matched:
                    raise SqlIntegrityError(
                        f"foreign key violation: {fk.columns} = {values!r} has no match in "
                        f"{fk.referenced_table!r}"
                    )

        return check

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        sql: str,
        params: Optional[Sequence[Any]] = None,
        *,
        owner: Any = None,
        timeout: Any = _UNSET,
    ) -> ResultSet:
        """Parse and execute one SQL statement.

        ``owner`` keys the statement's cancel token (the driver layer passes
        its :class:`~repro.sqldb.connection.Connection` so ``Cursor.cancel()``
        is scoped to that connection); ``timeout`` overrides the database's
        ``statement_timeout`` for this statement only (``None`` disables it).
        """
        statement = self._parse_cached(sql)
        return self._run_statement(statement, params, owner=owner, timeout=timeout)

    def cancel_statement(self, owner: Any = None) -> bool:
        """Cancel the statement currently executing for ``owner``.

        Returns True when a running (or lock-queued) statement was told to
        cancel, False when that owner has nothing executing.  With no owner,
        only a statement started anonymously *by the calling thread* can be
        cancelled - anonymous statements of other threads are unreachable by
        design (cancel must never land on a bystander session).
        """
        key = owner if owner is not None else threading.get_ident()
        with self._tokens_mutex:
            token = self._active_tokens.get(key)
        if token is None:
            return False
        token.cancel()
        return True

    def _lock_mode(self, statement) -> str:
        """``"read"`` for sharable statements, ``"write"`` for exclusive ones.

        SELECTs share unless they call a registered UDF (which may mutate
        tables or the catalogue); EXPLAIN only plans, so it always shares.
        Everything else - DML, DDL, ANALYZE, CHECKPOINT, VERIFY - serializes.
        The classification is cached on the statement object and invalidated
        when the UDF registry changes.
        """
        if isinstance(statement, ExplainStatement):
            return "read"
        if not isinstance(statement, SelectStatement):
            return "write"
        version = self.udfs.version
        cached = getattr(statement, "lock_mode_cache", None)
        if cached is not None and cached[0] is self and cached[1] == version:
            return cached[2]
        mode = "write" if _calls_registered_udf(statement, self.udfs) else "read"
        statement.lock_mode_cache = (self, version, mode)
        return mode

    def _run_statement(
        self,
        statement,
        params: Optional[Sequence[Any]],
        owner: Any = None,
        timeout: Any = _UNSET,
    ) -> ResultSet:
        """Run one top-level statement under a deadline token + statement lock.

        Nested statements (UDF-issued SQL, correlated subqueries) arrive
        here while an ambient token is already installed and inherit it -
        the deadline covers the whole outer statement, it does not reset,
        and the outer statement's lock covers them too.
        """
        if cancellation.active_token() is not None:
            return self._dispatch(statement, params)
        effective_timeout = self.statement_timeout if timeout is _UNSET else timeout
        token = CancelToken(timeout=effective_timeout)
        key = owner if owner is not None else threading.get_ident()
        with self._tokens_mutex:
            self._active_tokens[key] = token
        try:
            lock = self._statement_lock
            ctx = lock.read(token) if self._lock_mode(statement) == "read" else lock.write(token)
            with ctx, cancellation.activate(token):
                return self._dispatch(statement, params)
        finally:
            with self._tokens_mutex:
                if self._active_tokens.get(key) is token:
                    del self._active_tokens[key]

    def _dispatch(self, statement, params: Optional[Sequence[Any]]) -> ResultSet:
        """Execute a statement, wrapping durable DML in an implicit
        statement-level transaction (statement atomicity: a failure midway
        - constraint violation, WAL append/sync error - rolls the tables
        back to their pre-statement state instead of leaving partial rows)."""
        if (
            self.storage is not None
            and self._txn is None
            and isinstance(statement, self._MUTATING_STATEMENTS)
        ):
            self.begin()
            try:
                result = self._executor.execute(statement, params=params)
            except BaseException:
                self.rollback()
                raise
            self.commit()
            return result
        return self._executor.execute(statement, params=params)

    def execute_statement(
        self,
        statement,
        params: Optional[Sequence[Any]] = None,
        outer_row: Optional[Dict[str, Any]] = None,
    ) -> ResultSet:
        """Execute an already-parsed statement (used for subqueries)."""
        return self._executor.execute(statement, params=params, outer_row=outer_row)

    def query_dicts(self, sql: str, params: Optional[Sequence[Any]] = None) -> List[Dict[str, Any]]:
        """Execute a query and return rows as dictionaries."""
        return self.execute(sql, params).to_dicts()

    def _parse_cached(self, sql: str):
        """Parse ``sql``, serving repeats from the LRU statement cache.

        The cache holds at most :attr:`_STATEMENT_CACHE_SIZE` parsed
        statements and evicts the least-recently-used entry when full -
        a hot server workload cycling through >512 distinct statements
        re-parses only the cold tail, never the whole cache.  Lookups and
        insertions are mutex-guarded; the parse itself (a pure function)
        runs outside the mutex, and a concurrent duplicate parse resolves
        to whichever statement object landed in the cache first, so plan
        caches always attach to a single shared object.
        """
        key = sql.strip()
        with self._cache_mutex:
            statement = self._statement_cache.get(key)
            if statement is not None:
                self._statement_cache.move_to_end(key)
                return statement
        statement = parse_sql(sql)
        with self._cache_mutex:
            existing = self._statement_cache.get(key)
            if existing is not None:
                self._statement_cache.move_to_end(key)
                return existing
            while len(self._statement_cache) >= self._STATEMENT_CACHE_SIZE:
                self._statement_cache.popitem(last=False)
            self._statement_cache[key] = statement
        return statement

    # ------------------------------------------------------------------ #
    # Prepared statements
    # ------------------------------------------------------------------ #
    def prepare(self, name: str, sql: str) -> None:
        """Prepare a statement under a name (``$1``-style parameters)."""
        self._prepared[name.lower()] = parse_sql(sql)

    def execute_prepared(
        self,
        name: str,
        params: Optional[Sequence[Any]] = None,
        *,
        owner: Any = None,
        timeout: Any = _UNSET,
    ) -> ResultSet:
        """Execute a previously prepared statement."""
        statement = self._prepared.get(name.lower())
        if statement is None:
            raise SqlCatalogError(f"prepared statement {name!r} does not exist")
        return self._run_statement(statement, params, owner=owner, timeout=timeout)

    def deallocate(self, name: str) -> None:
        """Drop a prepared statement (no error if absent)."""
        self._prepared.pop(name.lower(), None)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> None:
        """Start a copy-on-write transaction.

        Nothing is copied here: each table captures its pre-image lazily on
        first write (via :meth:`_table_write_hook`), so the transaction costs
        O(tables written) instead of O(database size).  The UDF and extension
        registries are snapshotted eagerly (they are small dicts), so a
        rolled-back ``install_extension`` disappears together with the
        tables it created.
        """
        # The transaction owns the exclusive statement lock until commit or
        # rollback: concurrent sessions' statements queue instead of
        # interleaving with (or erroring on) the open snapshot.  Reentrant
        # for this thread, so the statements inside the transaction - and
        # the implicit statement-level transactions of _dispatch - nest.
        self._statement_lock.acquire_write(cancellation.active_token())
        try:
            if self._txn is not None:
                raise SqlExecutionError("a transaction is already in progress")
            self._txn = _TransactionState(
                index_catalog=dict(self._indexes),
                registry=(
                    dict(self._extensions),
                    dict(self.udfs.scalars),
                    dict(self.udfs.tables),
                ),
            )
            if self.storage is not None:
                try:
                    self.storage.begin()
                except BaseException:
                    # A refused storage transaction (e.g. degraded read-only
                    # engine) must not leave the in-memory transaction open:
                    # later statements would skip their implicit-transaction
                    # wrapper and lose statement atomicity.
                    self._txn = None
                    raise
        except BaseException:
            self._statement_lock.release_write()
            raise
        self._txn_lock_held = True

    def commit(self) -> None:
        """Make the changes since :meth:`begin` permanent (no-op outside one).

        With durable storage attached, the WAL sync happens first - a
        commit hook that fails cannot un-persist the transaction - and it
        happens while the rollback snapshot is still held: if the sync
        fails (ENOSPC, fsync error), nothing was made durable, so the
        in-memory tables are rolled back to match before the error
        propagates.  Commit hooks then all run even if some raise; the
        first exception is re-raised after the last hook finished, so one
        failing side effect cannot silently swallow the others.
        """
        try:
            if self.storage is not None:
                try:
                    self.storage.commit()
                except BaseException:
                    self.rollback()
                    raise
            self._txn = None
            self._rollback_hooks.clear()
            hooks, self._commit_hooks = self._commit_hooks, []
            first_error: Optional[BaseException] = None
            for hook in hooks:
                try:
                    hook()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        finally:
            self._release_txn_lock()

    def checkpoint(self) -> int:
        """Write a storage checkpoint (snapshot + WAL reset).

        Returns the new checkpoint id, or 0 when the database is purely
        in-memory (``CHECKPOINT`` is then a harmless no-op, as in
        PostgreSQL on an idle cluster).
        """
        if self.storage is None:
            return 0
        return self.storage.checkpoint()

    def verify(self) -> List[List[str]]:
        """Walk durable storage, returning ``[object, status, detail]`` rows.

        Backs the ``VERIFY`` SQL statement.  Read-only: page chains are
        re-read (re-checking per-page CRCs), table blobs re-deserialized,
        and the WAL scanned for torn frames.  On a purely in-memory
        database there is nothing to check and a single ``ok`` row returns.
        """
        if self.storage is None:
            rows = [["storage", "ok", "in-memory database; nothing to verify"]]
        else:
            rows = self.storage.verify()
        rows.extend(self._verify_indexes())
        return rows

    def _verify_indexes(self) -> List[List[str]]:
        """Audit in-memory ordered indexes against their tables' rows.

        One ``[index:table.name, ok|corrupt, detail]`` row per ordered
        index.  Corruption (for example from an interrupted node write) is
        reported, never raised, matching the VERIFY contract - so a damaged
        index is surfaced here instead of silently mis-answering queries.
        """
        rows: List[List[str]] = []
        for table_name in sorted(self._tables):
            table = self._tables[table_name]
            for index_name in sorted(table.indexes):
                index = table.indexes[index_name]
                audit = getattr(index, "verify", None)
                if audit is None:
                    continue
                problem = audit(table.raw_rows())
                label = f"index:{table_name}.{index_name}"
                if problem is None:
                    rows.append([label, "ok", f"{index.kind} index consistent"])
                else:
                    rows.append([label, "corrupt", problem])
        return rows

    def rollback(self) -> None:
        """Undo every change since :meth:`begin` (no-op outside one).

        Only tables recorded as written (or created/dropped) are touched:
        written and dropped tables are restored from their pre-images
        (secondary indexes rebuilt), tables created inside the transaction
        disappear, and the index catalogue reverts.
        """
        try:
            self._commit_hooks.clear()
            hooks, self._rollback_hooks = self._rollback_hooks, []
            for hook in hooks:
                hook()
            txn, self._txn = self._txn, None
            if self.storage is not None:
                self.storage.rollback()
            if txn is None:
                return
            extensions, scalars, table_udfs = txn.registry
            self._extensions = extensions
            self.udfs.scalars = scalars
            self.udfs.tables = table_udfs
            self.udfs.version += 1  # classification caches must revalidate
            for name, before in txn.tables_before.items():
                if before is None:
                    self._tables.pop(name, None)
                    continue
                table = self._tables.get(name)
                if table is None:
                    table = Table(before.schema)
                    self._register_table(table)
                table.restore(before)
            self._indexes = txn.index_catalog
            self._bump_catalog_version()
        finally:
            self._release_txn_lock()

    def _release_txn_lock(self) -> None:
        """Release the write-lock level :meth:`begin` acquired, exactly once.

        Guarded on ownership so a bystander thread's (incorrect) direct
        ``commit``/``rollback`` can never release a lock the transaction's
        session still depends on.
        """
        if self._txn_lock_held and self._statement_lock.write_held_by_me():
            self._txn_lock_held = False
            self._statement_lock.release_write()

    def on_commit(self, callback: Callable[[], None]) -> None:
        """Defer an irreversible side effect (e.g. deleting a file) to commit.

        Inside a transaction the callback runs at :meth:`commit` and is
        discarded on :meth:`rollback`; outside one it runs immediately.  The
        snapshot mechanism can only restore table contents, so anything it
        cannot undo must go through here.
        """
        if self._txn is None:
            callback()
        else:
            self._commit_hooks.append(callback)

    def on_rollback(self, callback: Callable[[], None]) -> None:
        """Register an undo action for a side effect applied mid-transaction.

        The counterpart of :meth:`on_commit` for effects that happen eagerly
        (e.g. writing a file): the callback runs at :meth:`rollback` and is
        discarded at :meth:`commit`.  Outside a transaction it is discarded
        immediately - there is nothing to undo to.
        """
        if self._txn is not None:
            self._rollback_hooks.append(callback)

    # ------------------------------------------------------------------ #
    # Extensions
    # ------------------------------------------------------------------ #
    def install_extension(self, extension: Union[str, Extension], **options: Any) -> Extension:
        """Install an extension (``CREATE EXTENSION`` for this engine).

        ``extension`` is either an :class:`~repro.sqldb.udf.Extension` bundle
        or the name of one registered via
        :func:`~repro.sqldb.udf.register_extension_factory` (``"pgfmu"``,
        ``"madlib"``).  Installing by name is idempotent; installing a bundle
        re-registers its UDFs (rebinding them to fresh closures).  ``options``
        are forwarded to the named extension's factory.
        """
        if isinstance(extension, str):
            existing = self._extensions.get(extension.lower())
            if existing is not None:
                if options:
                    raise SqlCatalogError(
                        f"extension {extension!r} is already installed; the "
                        f"options {sorted(options)} would be ignored"
                    )
                return existing
            extension = extension_factory(extension)(self, **options)
        elif options:
            raise SqlCatalogError(
                f"options {sorted(options)} only apply when installing by "
                f"name; the literal bundle {extension.name!r} is already built"
            )
        # Registration is idempotent, so a factory that already installed its
        # bundle while building it (pgfmu boots a whole session) is fine.
        for spec in extension.udfs:
            self.udfs.register_spec(spec)
        self._extensions[extension.name] = extension
        return extension

    def extensions(self) -> List[Extension]:
        """All installed extensions, sorted by name."""
        return [self._extensions[name] for name in sorted(self._extensions)]

    def has_extension(self, name: str) -> bool:
        return name.lower() in self._extensions

    def extension(self, name: str) -> Optional[Extension]:
        """The installed extension of that name, or None."""
        return self._extensions.get(name.lower())

    # ------------------------------------------------------------------ #
    # UDF registration
    # ------------------------------------------------------------------ #
    def register_scalar_udf(
        self,
        name: str,
        func: Callable[..., Any],
        min_args: int = 0,
        max_args: Optional[int] = None,
        description: str = "",
    ) -> None:
        """Register a scalar UDF; ``func(db, *args)`` is called at runtime."""
        self.udfs.register_scalar(name, func, min_args=min_args, max_args=max_args, description=description)

    def register_table_udf(
        self,
        name: str,
        func: Callable[..., Sequence[Sequence[Any]]],
        columns: Sequence[str],
        min_args: int = 0,
        max_args: Optional[int] = None,
        description: str = "",
    ) -> None:
        """Register a set-returning UDF; ``func(db, *args)`` returns rows."""
        self.udfs.register_table(
            name, func, columns, min_args=min_args, max_args=max_args, description=description
        )

    # ------------------------------------------------------------------ #
    # Bulk helpers
    # ------------------------------------------------------------------ #
    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many positional rows into a table (bypassing SQL parsing)."""
        table = self.table(table_name)
        fk_check = self.check_foreign_keys(table)
        count = 0
        for row in rows:
            table.insert(row, fk_check=fk_check)
            count += 1
        return count

    def insert_dicts(self, table_name: str, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many dict rows (missing columns become NULL/defaults)."""
        table = self.table(table_name)
        fk_check = self.check_foreign_keys(table)
        count = 0
        for row in rows:
            columns = list(row)
            table.insert([row[c] for c in columns], columns, fk_check=fk_check)
            count += 1
        return count


def _installed_extensions(database: Database) -> List[List[Any]]:
    """Rows for the built-in ``installed_extensions()`` set-returning function
    (the ``pgfmu`` extension aliases it as ``fmu_extensions()``)."""
    return [
        [ext.name, ext.version, len(ext.udfs), ext.description]
        for ext in database.extensions()
    ]
