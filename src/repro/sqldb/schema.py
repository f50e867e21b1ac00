"""Table schema definitions: columns, keys and constraints.

Schemas can round-trip through plain-JSON payloads (:meth:`TableSchema.
to_payload` / :meth:`TableSchema.from_payload`); the durable storage layer
uses this to log ``CREATE TABLE`` logically in the write-ahead log and to
store the table directory inside checkpoint pages.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlCatalogError, SqlTypeError
from repro.sqldb.types import SqlType, coerce


def _default_to_payload(value: Any) -> Optional[Dict[str, Any]]:
    """Serialize a column DEFAULT value into a JSON-safe tagged dict."""
    if value is None:
        return None
    if isinstance(value, bool):
        return {"k": "bool", "v": value}
    if isinstance(value, int):
        return {"k": "int", "v": value}
    if isinstance(value, float):
        return {"k": "float", "v": value}
    if isinstance(value, _dt.datetime):
        return {"k": "timestamp", "v": value.isoformat()}
    return {"k": "text", "v": str(value)}


def _default_from_payload(payload: Optional[Dict[str, Any]]) -> Any:
    if payload is None:
        return None
    kind, value = payload["k"], payload["v"]
    if kind == "timestamp":
        return _dt.datetime.fromisoformat(value)
    return value


@dataclass
class ColumnDefinition:
    """One column of a table: name, type and column-level constraints."""

    name: str
    sql_type: SqlType
    not_null: bool = False
    default: Any = None

    def __post_init__(self):
        if isinstance(self.sql_type, str):
            self.sql_type = SqlType.parse(self.sql_type)
        self.name = self.name.lower()

    def coerce(self, value: Any) -> Any:
        """Coerce a value to this column's type, honouring NOT NULL."""
        if value is None:
            if self.default is not None:
                value = self.default
            elif self.not_null:
                raise SqlTypeError(f"column {self.name!r} is NOT NULL")
            else:
                return None
        return coerce(value, self.sql_type)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe description of this column (storage-layer DDL log)."""
        return {
            "name": self.name,
            "type": self.sql_type.value,
            "not_null": self.not_null,
            "default": _default_to_payload(self.default),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ColumnDefinition":
        return cls(
            name=payload["name"],
            sql_type=SqlType.parse(payload["type"]),
            not_null=bool(payload.get("not_null", False)),
            default=_default_from_payload(payload.get("default")),
        )


@dataclass
class ForeignKey:
    """A foreign-key constraint referencing columns of another table."""

    columns: List[str]
    referenced_table: str
    referenced_columns: List[str]

    def __post_init__(self):
        self.columns = [c.lower() for c in self.columns]
        self.referenced_table = self.referenced_table.lower()
        self.referenced_columns = [c.lower() for c in self.referenced_columns]
        if len(self.columns) != len(self.referenced_columns):
            raise SqlCatalogError(
                "foreign key column count does not match referenced column count"
            )


@dataclass
class TableSchema:
    """A table definition: ordered columns plus key constraints."""

    name: str
    columns: List[ColumnDefinition]
    primary_key: List[str] = field(default_factory=list)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def __post_init__(self):
        self.name = self.name.lower()
        self.primary_key = [c.lower() for c in self.primary_key]
        seen = set()
        for column in self.columns:
            if column.name in seen:
                raise SqlCatalogError(
                    f"table {self.name!r}: duplicate column {column.name!r}"
                )
            seen.add(column.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise SqlCatalogError(
                    f"table {self.name!r}: primary key column {key_col!r} does not exist"
                )
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in seen:
                    raise SqlCatalogError(
                        f"table {self.name!r}: foreign key column {col!r} does not exist"
                    )
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}
        #: Row positions of the primary-key columns, in key order.
        self.pk_positions: Tuple[int, ...] = tuple(self._index[c] for c in self.primary_key)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnDefinition:
        try:
            return self.columns[self._index[name.lower()]]
        except KeyError:
            raise SqlCatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column_position(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SqlCatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def coerce_row(self, values: Sequence[Any], column_names: Optional[Sequence[str]] = None) -> list:
        """Build a full, type-coerced row from supplied values.

        Parameters
        ----------
        values:
            Values in the order of ``column_names`` (or of the table's
            columns when ``column_names`` is ``None``).
        column_names:
            Optional explicit column list, as in ``INSERT INTO t (a, b)``.
        """
        if column_names is None:
            names = self.column_names
            if len(values) != len(names):
                raise SqlTypeError(
                    f"table {self.name!r} expects {len(names)} values, got {len(values)}"
                )
            provided = dict(zip(names, values))
        else:
            lowered = [c.lower() for c in column_names]
            for name in lowered:
                if not self.has_column(name):
                    raise SqlCatalogError(f"table {self.name!r} has no column {name!r}")
            if len(values) != len(lowered):
                raise SqlTypeError(
                    f"INSERT supplies {len(lowered)} columns but {len(values)} values"
                )
            provided = dict(zip(lowered, values))
        return [column.coerce(provided.get(column.name)) for column in self.columns]

    # ------------------------------------------------------------------ #
    # Storage-layer serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe description of the whole schema.

        Round-trips through :meth:`from_payload`; the WAL logs ``CREATE
        TABLE`` as this payload and checkpoints store one per table, so a
        reopened database rebuilds identical schemas.
        """
        return {
            "name": self.name,
            "columns": [column.to_payload() for column in self.columns],
            "primary_key": list(self.primary_key),
            "foreign_keys": [
                {
                    "columns": list(fk.columns),
                    "referenced_table": fk.referenced_table,
                    "referenced_columns": list(fk.referenced_columns),
                }
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TableSchema":
        return cls(
            name=payload["name"],
            columns=[ColumnDefinition.from_payload(c) for c in payload["columns"]],
            primary_key=list(payload.get("primary_key", [])),
            foreign_keys=[
                ForeignKey(
                    columns=list(fk["columns"]),
                    referenced_table=fk["referenced_table"],
                    referenced_columns=list(fk["referenced_columns"]),
                )
                for fk in payload.get("foreign_keys", [])
            ],
        )
