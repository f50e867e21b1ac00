"""SQL value types and coercion rules.

The engine supports the types pgFMU's catalogue and workloads need,
including the PostgreSQL ``variant`` extension type the paper uses for the
``initialValue``/``minValue``/``maxValue`` columns: a value of any supported
type together with a record of its original type.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SqlTypeError


class SqlType(str, enum.Enum):
    """Supported column/expression types."""

    INTEGER = "integer"
    DOUBLE = "double precision"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    VARIANT = "variant"
    BYTEA = "bytea"
    DOUBLE_ARRAY = "double precision[]"

    @classmethod
    def parse(cls, name: str) -> "SqlType":
        """Parse a SQL type name (accepting common aliases)."""
        normalized = " ".join(name.strip().lower().split())
        aliases = {
            "int": cls.INTEGER,
            "int4": cls.INTEGER,
            "int8": cls.INTEGER,
            "bigint": cls.INTEGER,
            "smallint": cls.INTEGER,
            "integer": cls.INTEGER,
            "serial": cls.INTEGER,
            "float": cls.DOUBLE,
            "float8": cls.DOUBLE,
            "real": cls.DOUBLE,
            "double": cls.DOUBLE,
            "double precision": cls.DOUBLE,
            "numeric": cls.DOUBLE,
            "decimal": cls.DOUBLE,
            "text": cls.TEXT,
            "varchar": cls.TEXT,
            "character varying": cls.TEXT,
            "char": cls.TEXT,
            "string": cls.TEXT,
            "uuid": cls.TEXT,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
            "timestamp": cls.TIMESTAMP,
            "timestamptz": cls.TIMESTAMP,
            "timestamp without time zone": cls.TIMESTAMP,
            "date": cls.TIMESTAMP,
            "variant": cls.VARIANT,
            "bytea": cls.BYTEA,
            "blob": cls.BYTEA,
            "double precision[]": cls.DOUBLE_ARRAY,
            "float8[]": cls.DOUBLE_ARRAY,
            "double[]": cls.DOUBLE_ARRAY,
        }
        # Strip length suffixes such as varchar(255).
        if "(" in normalized:
            normalized = normalized.split("(", 1)[0].strip()
        if normalized in aliases:
            return aliases[normalized]
        raise SqlTypeError(f"unknown SQL type: {name!r}")


@dataclass(frozen=True)
class Variant:
    """A value of any supported type, remembering its original type.

    Mirrors the semantics of the PostgreSQL ``variant`` extension the paper
    uses in the model catalogue: heterogeneous values live in one column but
    the original type is preserved and can be recovered.
    """

    value: Any
    original_type: SqlType

    @classmethod
    def wrap(cls, value: Any) -> "Variant":
        """Wrap a Python value, inferring its original type."""
        if isinstance(value, Variant):
            return value
        if value is None:
            return cls(None, SqlType.TEXT)
        if isinstance(value, bool):
            return cls(value, SqlType.BOOLEAN)
        if isinstance(value, int):
            return cls(value, SqlType.INTEGER)
        if isinstance(value, float):
            return cls(value, SqlType.DOUBLE)
        if isinstance(value, _dt.datetime):
            return cls(value, SqlType.TIMESTAMP)
        return cls(str(value), SqlType.TEXT)

    def __str__(self) -> str:
        return "NULL" if self.value is None else str(self.value)


def parse_timestamp(value: Any) -> _dt.datetime:
    """Parse a timestamp from a string or datetime/date object."""
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, (int, float)):
        # Numeric timestamps are interpreted as hours offset from a fixed epoch,
        # matching how the data generators lay out hourly measurement series.
        return _dt.datetime(2015, 1, 1) + _dt.timedelta(hours=float(value))
    text = str(value).strip()
    formats = (
        "%Y-%m-%d %H:%M:%S",
        "%Y-%m-%d %H:%M",
        "%Y-%m-%dT%H:%M:%S",
        "%Y-%m-%d",
        "%Y/%m/%d %H:%M",
        "%Y/%m/%d %H:%M:%S",
        "%H:%M %d/%m/%Y",
    )
    for fmt in formats:
        try:
            return _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise SqlTypeError(f"cannot parse timestamp from {value!r}")


#: Python types a value of each hashable SQL type may take, for values
#: that are not coerced on their way in (table-function output): every
#: numeric type compares as a number, text as ``str``.
_CLASS_VALUE_TYPES = {
    SqlType.INTEGER: (int, float),
    SqlType.DOUBLE: (int, float),
    SqlType.BOOLEAN: (int, float),
    SqlType.TEXT: (str,),
    SqlType.TIMESTAMP: (_dt.datetime,),
}


def fits_type_class(value: Any, sql_type: SqlType) -> bool:
    """Whether ``value`` is NULL or belongs to ``sql_type``'s class.

    ``bool`` counts as numeric (it is an ``int``, and ``=`` treats ``True``
    as 1).  Any value fits a type that is never hashed (``variant``,
    ``bytea``, arrays); a :class:`Variant` wrapper fits no other.
    """
    expected = _CLASS_VALUE_TYPES.get(sql_type)
    return value is None or expected is None or isinstance(value, expected)


def coerce(value: Any, sql_type: SqlType) -> Any:
    """Coerce a Python value to the representation of ``sql_type``.

    ``None`` always passes through (SQL NULL is typeless).
    """
    if value is None:
        return None
    try:
        if sql_type is SqlType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise SqlTypeError(f"cannot losslessly convert {value!r} to integer")
            return int(value)
        if sql_type is SqlType.DOUBLE:
            if isinstance(value, bool):
                return float(value)
            result = float(value)
            if math.isnan(result):
                return result
            return result
        if sql_type is SqlType.TEXT:
            if isinstance(value, Variant):
                return str(value.value)
            if isinstance(value, float) and value.is_integer():
                return str(value)
            return str(value)
        if sql_type is SqlType.BOOLEAN:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("t", "true", "1", "yes", "on"):
                    return True
                if lowered in ("f", "false", "0", "no", "off"):
                    return False
                raise SqlTypeError(f"cannot convert {value!r} to boolean")
            return bool(value)
        if sql_type is SqlType.TIMESTAMP:
            return parse_timestamp(value)
        if sql_type is SqlType.VARIANT:
            return Variant.wrap(value)
        if sql_type is SqlType.BYTEA:
            if isinstance(value, bytes):
                return value
            if isinstance(value, (bytearray, memoryview)):
                return bytes(value)
            if isinstance(value, str):
                return value.encode("utf-8")
            raise SqlTypeError(f"cannot convert {value!r} to bytea")
        if sql_type is SqlType.DOUBLE_ARRAY:
            if isinstance(value, (bytes, str)):
                raise SqlTypeError(f"cannot convert {value!r} to double precision[]")
            try:
                return [float(item) for item in value]
            except TypeError as exc:
                raise SqlTypeError(
                    f"cannot convert {value!r} to double precision[]: {exc}"
                ) from exc
    except SqlTypeError:
        raise
    except (TypeError, ValueError) as exc:
        raise SqlTypeError(f"cannot convert {value!r} to {sql_type.value}: {exc}") from exc
    raise SqlTypeError(f"unsupported SQL type: {sql_type!r}")


def infer_type(value: Any) -> Optional[SqlType]:
    """Infer the SQL type of a Python value (None for NULL)."""
    if value is None:
        return None
    if isinstance(value, Variant):
        return SqlType.VARIANT
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.DOUBLE
    if isinstance(value, _dt.datetime):
        return SqlType.TIMESTAMP
    if isinstance(value, (bytes, bytearray)):
        return SqlType.BYTEA
    if isinstance(value, (list, tuple)):
        return SqlType.DOUBLE_ARRAY
    return SqlType.TEXT
