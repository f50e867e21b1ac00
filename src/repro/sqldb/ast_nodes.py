"""AST node definitions for the SQL dialect supported by the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class Literal:
    """A constant value (number, string, boolean, NULL)."""

    value: Any


@dataclass
class ColumnRef:
    """A (possibly qualified) column reference ``[table.]column``."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star:
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass
class FuncCall:
    """A function call: built-in scalar, aggregate, UDF or table function."""

    name: str
    args: List["Expression"] = field(default_factory=list)
    distinct: bool = False
    star_arg: bool = False  # COUNT(*)


@dataclass
class BinaryOp:
    """A binary operator (arithmetic, comparison, logical, ``||``)."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass
class UnaryOp:
    """Unary minus / NOT."""

    op: str
    operand: "Expression"


@dataclass
class Cast:
    """``expr::type`` or ``CAST(expr AS type)``."""

    operand: "Expression"
    type_name: str


@dataclass
class InList:
    """``expr [NOT] IN (item, ...)`` or ``expr [NOT] IN (subquery)``."""

    operand: "Expression"
    items: List["Expression"]
    negated: bool = False
    subquery: Optional["SelectStatement"] = None


@dataclass
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    operand: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False


@dataclass
class IsNull:
    """``expr IS [NOT] NULL``."""

    operand: "Expression"
    negated: bool = False


@dataclass
class Like:
    """``expr [NOT] LIKE pattern``."""

    operand: "Expression"
    pattern: "Expression"
    negated: bool = False


@dataclass
class CaseExpression:
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: List[Tuple["Expression", "Expression"]]
    default: Optional["Expression"] = None


@dataclass
class Parameter:
    """Positional prepared-statement parameter ``$n`` (1-based)."""

    index: int


@dataclass
class ScalarSubquery:
    """A parenthesized subquery used as a scalar expression."""

    select: "SelectStatement"


@dataclass
class ExistsSubquery:
    """``EXISTS (subquery)``."""

    select: "SelectStatement"
    negated: bool = False


Expression = Union[
    Literal,
    ColumnRef,
    Star,
    FuncCall,
    BinaryOp,
    UnaryOp,
    Cast,
    InList,
    Between,
    IsNull,
    Like,
    CaseExpression,
    Parameter,
    ScalarSubquery,
    ExistsSubquery,
]


# --------------------------------------------------------------------------- #
# FROM clause items
# --------------------------------------------------------------------------- #
@dataclass
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None


@dataclass
class FunctionRef:
    """A set-returning function in FROM, optionally LATERAL."""

    call: FuncCall
    alias: Optional[str] = None
    lateral: bool = False
    column_aliases: List[str] = field(default_factory=list)


@dataclass
class SubqueryRef:
    """A derived table ``(SELECT ...) AS alias``."""

    select: "SelectStatement"
    alias: Optional[str] = None
    lateral: bool = False


@dataclass
class Join:
    """An explicit join between two FROM items."""

    left: "FromItem"
    right: "FromItem"
    kind: str  # 'inner', 'left', 'cross'
    condition: Optional[Expression] = None


FromItem = Union[TableRef, FunctionRef, SubqueryRef, Join]


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass
class SelectItem:
    """One entry of the select list."""

    expr: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    """One ORDER BY key."""

    expr: Expression
    ascending: bool = True


@dataclass
class SelectStatement:
    """A SELECT query."""

    items: List[SelectItem]
    from_items: List[FromItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass
class ColumnSpec:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    default: Optional[Expression] = None
    references: Optional[Tuple[str, Optional[str]]] = None  # (table, column)


@dataclass
class CreateTableStatement:
    """``CREATE TABLE [IF NOT EXISTS] name (...)``."""

    name: str
    columns: List[ColumnSpec]
    primary_key: List[str] = field(default_factory=list)
    foreign_keys: List[Tuple[List[str], str, List[str]]] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class DropTableStatement:
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class CreateIndexStatement:
    """``CREATE INDEX [IF NOT EXISTS] name ON table [USING kind] (col, ...)``.

    ``using`` selects the index structure: ``"hash"`` (default; point
    lookups) or ``"btree"`` (ordered index over one or more columns,
    supporting equality-prefix and range walks and, over one column,
    ordered emission).
    """

    name: str
    table: str
    columns: List[str]
    if_not_exists: bool = False
    using: str = "hash"


@dataclass
class DropIndexStatement:
    """``DROP INDEX [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class ExplainStatement:
    """``EXPLAIN <statement>`` - render the chosen plan instead of running it."""

    statement: "Statement"


@dataclass
class CheckpointStatement:
    """``CHECKPOINT`` - snapshot durable storage and reset the WAL.

    A no-op on a purely in-memory database, mirroring PostgreSQL where
    CHECKPOINT always succeeds.
    """


@dataclass
class VerifyStatement:
    """``VERIFY`` - walk the page store and WAL, reporting integrity.

    Returns one row per checked object (header, catalog, table chains,
    WAL) with a status of ``ok``, ``corrupt`` or ``torn-tail``; corruption
    is reported, not raised, so a damaged store can still be surveyed.
    """


@dataclass
class AnalyzeStatement:
    """``ANALYZE [table]`` - recompute planner statistics.

    With no table name, every table is analyzed.  Statistics are advisory:
    they steer the cost-based planner (join order, hash-join build side,
    scan-vs-index decisions) but never affect query results.
    """

    table: Optional[str] = None


@dataclass
class InsertStatement:
    """``INSERT INTO name [(cols)] VALUES (...), ... | SELECT ...``."""

    table: str
    columns: List[str] = field(default_factory=list)
    values: List[List[Expression]] = field(default_factory=list)
    select: Optional[SelectStatement] = None


@dataclass
class UpdateStatement:
    """``UPDATE name SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class DeleteStatement:
    """``DELETE FROM name [WHERE ...]``."""

    table: str
    where: Optional[Expression] = None


Statement = Union[
    SelectStatement,
    CreateTableStatement,
    DropTableStatement,
    CreateIndexStatement,
    DropIndexStatement,
    ExplainStatement,
    CheckpointStatement,
    VerifyStatement,
    AnalyzeStatement,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
]
