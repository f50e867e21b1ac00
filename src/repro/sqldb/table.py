"""Row storage with primary-key, secondary-index and foreign-key support."""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SqlCatalogError, SqlIntegrityError
from repro.sqldb.schema import TableSchema
from repro.sqldb.stats import TableStats
from repro.sqldb.types import SqlType, Variant

#: Column types an ordered (``USING BTREE``) index may cover: types whose
#: coerced Python values form a total order within one column.
ORDERABLE_TYPES = (
    SqlType.INTEGER,
    SqlType.DOUBLE,
    SqlType.TEXT,
    SqlType.BOOLEAN,
    SqlType.TIMESTAMP,
)


def primary_index_name(schema: TableSchema) -> Optional[str]:
    """Name of the ordered index backing ``schema``'s primary key.

    Like PostgreSQL, every primary key gets ``<table>_pkey``, provided all
    its columns are :data:`ORDERABLE_TYPES`; otherwise None.  The index is
    derived from the schema, never declared or dropped on its own.
    """
    if schema.primary_key and all(
        schema.column(column).sql_type in ORDERABLE_TYPES for column in schema.primary_key
    ):
        return f"{schema.name}_pkey"
    return None


def _key_of(value: Any) -> Any:
    """Normalize a value for use inside a uniqueness or index key."""
    if isinstance(value, Variant):
        value = value.value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def compaction_map(count: int, doomed: Sequence[int]) -> List[Optional[int]]:
    """Old row position -> new position once the ascending ``doomed``
    positions are removed from a table of ``count`` rows (None for a
    removed row).  Built run by run, in O(len(doomed)) interpreted steps."""
    remap: List[Optional[int]] = list(range(doomed[0]))
    for shift, (position, following) in enumerate(
        zip(doomed, [*doomed[1:], count]), start=1
    ):
        remap.append(None)
        remap.extend(range(position + 1 - shift, following - shift))
    return remap


def remap_positions(positions: Sequence[int], remap: Sequence[Optional[int]]) -> List[int]:
    """``positions`` after a DELETE compacted the table (``remap`` from
    :func:`compaction_map`).  The map is monotone, so ascending input stays
    ascending."""
    return [new for p in positions if (new := remap[p]) is not None]


class SecondaryIndex:
    """A non-unique hash index over one or more columns of a table.

    The map goes from normalized key tuples to row positions (ascending, so
    a lookup emits rows in table order), which gives O(1) point lookups for
    ``col = const`` predicates - the planner's
    :class:`~repro.sqldb.planner.nodes.IndexLookup` node reads it directly.
    """

    kind = "hash"

    __slots__ = ("name", "columns", "positions", "map")

    def __init__(self, name: str, columns: Sequence[str], positions: Sequence[int]):
        self.name = name.lower()
        self.columns = [c.lower() for c in columns]
        self.positions = list(positions)
        self.map: Dict[Tuple, List[int]] = {}

    def key_for_row(self, row: Sequence[Any]) -> Tuple:
        return tuple(_key_of(row[i]) for i in self.positions)

    def add(self, row: Sequence[Any], position: int) -> None:
        insort(self.map.setdefault(self.key_for_row(row), []), position)

    def discard(self, row: Sequence[Any], position: int) -> None:
        """Undo a prior :meth:`add` of this exact row/position."""
        positions = self.map.get(self.key_for_row(row))
        if positions and position in positions:
            positions.remove(position)
            if not positions:
                del self.map[self.key_for_row(row)]

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        fresh: Dict[Tuple, List[int]] = {}
        for position, row in enumerate(rows):
            fresh.setdefault(self.key_for_row(row), []).append(position)
        self.map = fresh

    def remapped(self, remap: Sequence[Optional[int]]) -> "SecondaryIndex":
        """This index after a DELETE compacted the table (see
        :func:`remap_positions`); no row is re-keyed."""
        fresh = SecondaryIndex(self.name, self.columns, self.positions)
        for key, positions in self.map.items():
            kept = remap_positions(positions, remap)
            if kept:
                fresh.map[key] = kept
        return fresh

    def clear(self) -> None:
        self.map = {}

    def lookup(self, key_values: Sequence[Any]) -> List[int]:
        key = tuple(_key_of(v) for v in key_values)
        return self.map.get(key, [])


def build_index(
    name: str, columns: Sequence[str], positions: Sequence[int], kind: str = "hash"
):
    """Construct an (empty) secondary index of the requested ``kind``."""
    if kind == "btree":
        # Imported lazily: the storage package pulls in the WAL/pager stack,
        # which this module must not load just to define tables.
        from repro.sqldb.storage.btree import OrderedIndex

        return OrderedIndex(name.lower(), [c.lower() for c in columns], positions)
    if kind == "hash":
        return SecondaryIndex(name, columns, positions)
    raise SqlCatalogError(f"unknown index kind {kind!r}")


class Table:
    """An in-memory heap table with a primary-key index and secondary indexes.

    The table owns its rows (lists aligned with the schema's column order)
    and maintains a hash index over the primary key for O(1) uniqueness
    checks and full-key point lookups.  A primary key over orderable
    columns is also backed by an ordered index, ``<table>_pkey``, kept in
    :attr:`indexes` beside the declared ones (so every write path below
    maintains it), which serves equality-prefix and range walks the way
    PostgreSQL's primary-key B-tree does.  Every write costs in
    proportion to the rows it touches, not to the table: INSERT adds one
    entry per index; UPDATE replaces each matched row at its position and
    moves an index entry only where that index's key changed; DELETE
    compacts the rows and remaps the surviving positions in the PK map and
    every index (a B-tree is bulk-loaded from its already-sorted pairs).
    Each index key keeps its positions in ascending row order.

    **Rows are replaced, never mutated.**  A row list, once stored, is
    never changed in place: UPDATE stores a fresh list at the position.
    :meth:`snapshot` therefore copies only the list of rows (and the PK
    map), sharing every row with the live table, and a rolled-back
    transaction gets exactly its pre-image back.

    ``write_hook`` (when set by the owning database) is invoked before any
    mutation; the database uses it to take lazy copy-on-write transaction
    snapshots, so a transaction only pays for the tables it actually writes.

    ``log_sink`` (set when the owning database has durable storage attached)
    receives one logical record *after* each successful mutation - the
    coerced inserted row, the deleted row positions, the ``(position, new
    row)`` update pairs - which the storage engine appends to the
    write-ahead log.  Replay of those records against the same starting
    state reproduces the exact row array, so recovery needs neither
    coercion nor constraint re-checks.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: List[list] = []
        self._pk_index: Dict[Tuple, int] = {}
        self.indexes: Dict[str, Any] = {}
        self.primary_index_name: Optional[str] = None
        self._add_primary_index()
        self.write_hook: Optional[Callable[["Table"], None]] = None
        self.log_sink: Optional[Any] = None
        # Advisory planner statistics; None until ANALYZE has run.
        self.stats: Optional[TableStats] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def column_names(self) -> List[str]:
        return self.schema.column_names

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[list]:
        """Iterate over copies of all rows."""
        for row in self._rows:
            yield list(row)

    def raw_rows(self) -> List[list]:
        """The internal row storage (read-only; do not mutate)."""
        return self._rows

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All rows as dictionaries keyed by column name."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self._rows]

    # ------------------------------------------------------------------ #
    # Primary key helpers
    # ------------------------------------------------------------------ #
    def _pk_key(self, row: Sequence[Any]) -> Optional[Tuple]:
        positions = self.schema.pk_positions
        if not positions:
            return None
        return tuple(_key_of(row[i]) for i in positions)

    def _add_primary_index(self) -> None:
        """Set :attr:`primary_index_name` from the schema and install that
        index, empty (see :func:`primary_index_name`).

        It admits NaN key parts, as the primary key always has; no range
        or equality ever matches them.
        """
        name = self.primary_index_name = primary_index_name(self.schema)
        if name is None:
            return
        from repro.sqldb.storage.btree import OrderedIndex

        self.indexes[name] = OrderedIndex(
            name, list(self.schema.primary_key), self.schema.pk_positions, nan_keys=True
        )

    def _rebuild_pk_index(self) -> None:
        self._pk_index = {}
        for i, row in enumerate(self._rows):
            key = self._pk_key(row)
            if key is None:
                continue
            if key in self._pk_index:
                raise SqlIntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index[key] = i

    def lookup_pk(self, key_values: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Point lookup by primary key; returns a dict row or None."""
        key = tuple(_key_of(v) for v in key_values)
        index = self._pk_index.get(key)
        if index is None:
            return None
        return dict(zip(self.column_names, self._rows[index]))

    def pk_positions_for(self, key_values: Sequence[Any]) -> List[int]:
        """Row positions matching a full primary-key value (0 or 1 entries)."""
        key = tuple(_key_of(v) for v in key_values)
        index = self._pk_index.get(key)
        return [] if index is None else [index]

    def pk_prefix_positions(self, prefix: Sequence[Any]) -> List[int]:
        """Positions of the rows whose primary key starts with ``prefix``, in
        storage order.

        A walk of ``<table>_pkey`` (which every primary key over orderable
        columns has), so it costs in proportion to the rows returned, not
        to the table.
        """
        index = self.indexes[self.primary_index_name]
        return sorted(index.range_positions(prefix=prefix))

    def pk_prefix_rows(self, prefix: Sequence[Any]) -> List[Dict[str, Any]]:
        """Rows whose primary key starts with ``prefix``, as dictionaries in
        storage order (see :meth:`pk_prefix_positions`)."""
        names = self.column_names
        rows = self._rows
        return [dict(zip(names, rows[position])) for position in self.pk_prefix_positions(prefix)]

    # ------------------------------------------------------------------ #
    # Secondary indexes
    # ------------------------------------------------------------------ #
    def add_index(self, name: str, columns: Sequence[str], kind: str = "hash"):
        """Create and populate a secondary index (hash or btree) over ``columns``."""
        name = name.lower()
        if name in self.indexes:
            raise SqlCatalogError(f"index {name!r} already exists on table {self.name!r}")
        if kind == "btree":
            for column in columns:
                column_type = self.schema.column(column).sql_type
                if column_type not in ORDERABLE_TYPES:
                    raise SqlCatalogError(
                        f"column {column!r} of type {column_type.value!r} "
                        "cannot back an ordered index"
                    )
        positions = [self.schema.column_position(c) for c in columns]
        self._before_write()
        index = build_index(name, columns, positions, kind)
        index.rebuild(self._rows)
        self.indexes[name] = index
        return index

    def remove_index(self, name: str) -> None:
        name = name.lower()
        if name not in self.indexes:
            raise SqlCatalogError(f"index {name!r} does not exist on table {self.name!r}")
        self._before_write()
        del self.indexes[name]

    def index_definitions(self) -> List[Tuple[str, List[str], str]]:
        """``(name, columns, kind)`` of every declared index, in creation
        order; ``<table>_pkey`` is derived from the schema, so it is not one."""
        primary = self.primary_index_name
        return [
            (index.name, list(index.columns), index.kind)
            for index in self.indexes.values()
            if index.name != primary
        ]

    def _rebuild_indexes(self) -> None:
        for index in self.indexes.values():
            index.rebuild(self._rows)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _before_write(self) -> None:
        if self.write_hook is not None:
            self.write_hook(self)

    def insert(
        self,
        values: Sequence[Any],
        column_names: Optional[Sequence[str]] = None,
        fk_check: Optional[Callable[[Any], None]] = None,
    ) -> list:
        """Insert one row (after type coercion and constraint checks)."""
        row = self.schema.coerce_row(values, column_names)
        key = self._pk_key(row)
        if key is not None:
            if any(part is None for part in key):
                raise SqlIntegrityError(
                    f"primary key of table {self.name!r} must not contain NULL"
                )
            if key in self._pk_index:
                raise SqlIntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        if fk_check is not None:
            fk_check(dict(zip(self.column_names, row)))
        self._before_write()
        self._rows.append(row)
        position = len(self._rows) - 1
        if key is not None:
            self._pk_index[key] = position
        added = []
        try:
            for index in self.indexes.values():
                index.add(row, position)
                added.append(index)
        except BaseException:
            # Keep the table self-consistent when an index write fails (for
            # example a chaos fault on a btree node write): undo the partial
            # insert so the typed error surfaces with no visible mutation.
            for index in added:
                index.discard(row, position)
            if key is not None:
                self._pk_index.pop(key, None)
            self._rows.pop()
            raise
        if self.stats is not None:
            self.stats.note_insert(row, self.column_names)
        if self.log_sink is not None:
            self.log_sink.log_insert(self.name, row)
        return list(row)

    def _scan_positions(self, candidate_positions: Optional[Sequence[int]]) -> Iterable[int]:
        """Row positions a DML statement tests, in ascending order."""
        if candidate_positions is None:
            return range(len(self._rows))
        return sorted(set(candidate_positions))

    def delete_where(
        self,
        predicate: Callable[[Dict[str, Any]], bool],
        candidate_positions: Optional[Sequence[int]] = None,
    ) -> int:
        """Delete all rows matching ``predicate``; returns the count removed.

        ``candidate_positions`` (when not None) restricts the rows that are
        even *tested* against the predicate - the executor passes index
        lookup results for point predicates so a selective DELETE skips the
        per-row dict construction and expression evaluation of a full scan.
        """
        names = self.column_names
        rows = self._rows
        doomed = [
            position
            for position in self._scan_positions(candidate_positions)
            if predicate(dict(zip(names, rows[position])))
        ]
        if not doomed:
            return 0
        self._before_write()
        remap = compaction_map(len(rows), doomed)
        # Remap the indexes before touching any table state so a failed
        # index write (chaos fault) leaves the table untouched.
        indexes = {name: index.remapped(remap) for name, index in self.indexes.items()}
        kept: List[list] = []
        start = 0
        for position in doomed:
            kept.extend(rows[start:position])
            start = position + 1
        kept.extend(rows[start:])
        self._rows = kept
        self._pk_index = {
            key: new
            for key, position in self._pk_index.items()
            if (new := remap[position]) is not None
        }
        self.indexes = indexes
        if self.stats is not None:
            self.stats.note_removed(len(doomed))
        if self.log_sink is not None:
            self.log_sink.log_delete(self.name, doomed)
        return len(doomed)

    def update_where(
        self,
        predicate: Callable[[Dict[str, Any]], bool],
        updater: Callable[[Dict[str, Any]], Dict[str, Any]],
        candidate_positions: Optional[Sequence[int]] = None,
    ) -> int:
        """Update all rows matching ``predicate``; returns the count updated.

        ``updater`` receives the current row as a dict and returns a dict of
        column -> new value for the columns to change.
        ``candidate_positions`` restricts which rows are tested, exactly as
        in :meth:`delete_where`.  Every new row is computed and every new
        primary key validated before the first write, so a failing UPDATE
        changes nothing.
        """
        names = self.column_names
        rows = self._rows
        updated_pairs: List[Tuple[int, list]] = []
        assigned: Set[int] = set()
        for position in self._scan_positions(candidate_positions):
            row_dict = dict(zip(names, rows[position]))
            if predicate(row_dict):
                changes = updater(row_dict)
                for column_name, new_value in changes.items():
                    column = self.schema.column(column_name)
                    row_dict[column.name] = column.coerce(new_value)
                    assigned.add(self.schema.column_position(column.name))
                updated_pairs.append((position, [row_dict[name] for name in names]))
        if not updated_pairs:
            return 0
        pk_moves = self._pk_moves(updated_pairs, assigned)
        self._before_write()
        self._move_index_entries(updated_pairs, assigned)
        for old_key, _, _ in pk_moves:
            del self._pk_index[old_key]
        for _, new_key, position in pk_moves:
            self._pk_index[new_key] = position
        for position, new_row in updated_pairs:
            rows[position] = new_row
        if self.log_sink is not None:
            self.log_sink.log_update(self.name, updated_pairs)
        return len(updated_pairs)

    def _pk_moves(
        self, updated_pairs: Sequence[Tuple[int, list]], assigned: Set[int]
    ) -> List[Tuple[Tuple, Tuple, int]]:
        """``(old key, new key, position)`` for each row whose primary key
        the UPDATE changes, after checking the statement's keys as a whole:
        no NULL part, and no new key held by a row that keeps it or claimed
        twice (so ``SET id = id + 1`` over consecutive ids succeeds)."""
        if assigned.isdisjoint(self.schema.pk_positions):
            return []
        moves = []
        for position, new_row in updated_pairs:
            old_key = self._pk_key(self._rows[position])
            new_key = self._pk_key(new_row)
            if new_key != old_key:
                moves.append((old_key, new_key, position))
        vacated = {old_key for old_key, _, _ in moves}
        claimed: Set[Tuple] = set()
        for _, new_key, _ in moves:
            if any(part is None for part in new_key):
                raise SqlIntegrityError(
                    f"primary key of table {self.name!r} must not contain NULL"
                )
            if new_key in claimed or (new_key in self._pk_index and new_key not in vacated):
                raise SqlIntegrityError(
                    f"duplicate primary key {new_key!r} in table {self.name!r}"
                )
            claimed.add(new_key)
        return moves

    def _move_index_entries(
        self, updated_pairs: Sequence[Tuple[int, list]], assigned: Set[int]
    ) -> None:
        """Re-key the secondary-index entries of updated rows whose indexed
        columns changed.  All new entries go in first, so a failed index
        write (chaos fault, NaN key) is undone by discards alone; only then
        are the old entries dropped, which cannot fail."""
        moves = []
        for index in self.indexes.values():
            if assigned.isdisjoint(index.positions):
                continue
            for position, new_row in updated_pairs:
                old_row = self._rows[position]
                if index.key_for_row(old_row) != index.key_for_row(new_row):
                    moves.append((index, position, old_row, new_row))
        added = []
        try:
            for index, position, _, new_row in moves:
                index.add(new_row, position)
                added.append((index, position, new_row))
        except BaseException:
            for index, position, new_row in reversed(added):
                index.discard(new_row, position)
            raise
        for index, position, old_row, _ in moves:
            index.discard(old_row, position)

    def truncate(self) -> None:
        """Remove all rows."""
        self._before_write()
        if self.stats is not None:
            self.stats.note_removed(len(self._rows))
        self._rows = []
        self._pk_index = {}
        for index in self.indexes.values():
            index.clear()
        if self.log_sink is not None:
            self.log_sink.log_truncate(self.name)

    # ------------------------------------------------------------------ #
    # Transaction support
    # ------------------------------------------------------------------ #
    def snapshot(self) -> "TableState":
        """Capture the current contents for transaction rollback.

        Shallow: the list of rows is copied but the rows themselves are
        shared, which is sound because stored rows are never mutated (see
        the class docstring).
        """
        return TableState(
            schema=self.schema,
            rows=list(self._rows),
            pk_index=dict(self._pk_index),
            index_defs=self.index_definitions(),
            stats=self.stats.copy() if self.stats is not None else None,
        )

    def restore(self, state: "TableState") -> None:
        """Restore contents captured by :meth:`snapshot` (indexes are rebuilt)."""
        self.schema = state.schema
        self._rows = list(state.rows)
        self._pk_index = dict(state.pk_index)
        self.indexes = {}
        self._add_primary_index()
        for name, columns, kind in state.index_defs:
            positions = [self.schema.column_position(c) for c in columns]
            self.indexes[name] = build_index(name, columns, positions, kind)
        self._rebuild_indexes()
        self.stats = state.stats.copy() if state.stats is not None else None

    def extend(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count


class TableState:
    """A table's pre-image for transaction rollback: its own list of rows
    (the rows themselves shared with the table), PK map, index definitions
    and statistics."""

    __slots__ = ("schema", "rows", "pk_index", "index_defs", "stats")

    def __init__(
        self,
        schema: TableSchema,
        rows: List[list],
        pk_index: Dict[Tuple, int],
        index_defs: Optional[List[Tuple[str, List[str], str]]] = None,
        stats: Optional[TableStats] = None,
    ):
        self.schema = schema
        self.rows = rows
        self.pk_index = pk_index
        self.index_defs = index_defs or []
        self.stats = stats
