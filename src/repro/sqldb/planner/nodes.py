"""Logical/physical plan nodes and their execution.

A plan is a tree of nodes in two layers:

* **source nodes** (Scan, IndexLookup, FunctionScan, SubqueryScan,
  LateralSource, Filter, NestedLoopJoin, HashJoin) produce
  ``(scope_columns, rows)`` where rows are the executor's combined row
  dicts; and
* **output nodes** (Aggregate, Project, Distinct, Sort, Limit) turn them
  into the final ``(names, projected_values, order_rows)`` triple.

Execution reuses the executor's battle-tested projection/aggregation
helpers through the :class:`PlanRuntime` handle, so the planned pipeline
and the naive pipeline share one set of SQL semantics.  Every node also
renders itself for ``EXPLAIN``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cancellation import active_token
from repro.errors import SqlExecutionError
from repro.sqldb.ast_nodes import (
    Expression,
    FromItem,
    FuncCall,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from repro.sqldb.expressions import EvalContext, evaluate
from repro.sqldb.planner import cost
from repro.sqldb.planner.render import render_expression
from repro.sqldb.rows import merge_rows
from repro.sqldb.table import _key_of
from repro.sqldb.types import SqlType, Variant, fits_type_class

#: (display_name, lookup_key) pairs describing the visible columns of a scope.
ScopeColumns = List[Tuple[str, str]]
SourceResult = Tuple[ScopeColumns, List[dict]]


@dataclass
class PlanRuntime:
    """Everything a plan node needs at execution time."""

    executor: Any  # repro.sqldb.executor.Executor
    ctx: EvalContext


class PlanNode:
    """Base class: explain rendering plus child traversal."""

    def children(self) -> List["PlanNode"]:
        return []

    def describe(self) -> str:  # pragma: no cover - overridden everywhere
        return type(self).__name__

    def explain_lines(self, depth: int = 0) -> List[str]:
        prefix = "" if depth == 0 else "  " * (depth - 1) + "->  "
        lines = [prefix + self.describe()]
        for child in self.children():
            lines.extend(child.explain_lines(depth + 1))
        return lines

    def node_names(self) -> List[str]:
        """Flattened node class names (handy for plan-shape assertions)."""
        names = [type(self).__name__]
        for child in self.children():
            names.extend(child.node_names())
        return names


def _filter_suffix(predicate: Optional[Expression]) -> str:
    return f" (filter: {render_expression(predicate)})" if predicate is not None else ""


def _rows_suffix(estimated_rows: Optional[int]) -> str:
    """EXPLAIN row-estimate annotation; empty when no statistics were available."""
    return f" (rows={estimated_rows})" if estimated_rows is not None else ""


def _tag_ordinals(rows: List[dict], label: Optional[str]) -> List[dict]:
    """Stamp each emitted row with its emission ordinal for order restoration.

    Leaf nodes emit rows in ascending storage-position order, so the ordinal
    is monotonic in storage order - exactly what
    :class:`JoinOrderRestore` needs to reconstruct the original FROM-order
    nested-loop output.  The ``#ord:<label>`` key cannot collide with column
    lookups (column keys are bare names or ``label.column``).
    """
    if label is not None:
        tag = f"#ord:{label}"
        for ordinal, row in enumerate(rows):
            row[tag] = ordinal
    return rows


#: Rows between deadline/cancellation checks in plan-operator loops: sparse
#: enough to be free, dense enough that a runaway join stays responsive.
CANCEL_CHECK_EVERY = 1024


def filter_rows(rows: List[dict], predicate: Expression, ctx: EvalContext) -> List[dict]:
    """Predicate filter with a sparse cancellation check.

    With no ambient token this is the plain comprehension; under a
    statement deadline the loop checks every :data:`CANCEL_CHECK_EVERY`
    rows so an expensive predicate over a huge row set can be cancelled.
    """
    token = active_token()
    if token is None:
        return [row for row in rows if evaluate(predicate, row, ctx) is True]
    out: List[dict] = []
    tick = CANCEL_CHECK_EVERY
    for row in rows:
        tick -= 1
        if tick == 0:
            tick = CANCEL_CHECK_EVERY
            token.check()
        if evaluate(predicate, row, ctx) is True:
            out.append(row)
    return out


def _scan_rows(
    label: str, column_names: Sequence[str], raw_rows: Sequence[Sequence[Any]]
) -> List[dict]:
    """Bulk :func:`repro.sqldb.rows.make_row` for base tables.

    Equivalent because a table schema rejects duplicate column names, so the
    first-wins/last-wins distinction of the generic helper cannot arise.
    """
    qualified = [f"{label}.{name}" for name in column_names]
    rows: List[dict] = []
    for values in raw_rows:
        row = dict(zip(qualified, values))
        row.update(zip(column_names, values))
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Source nodes
# --------------------------------------------------------------------------- #
@dataclass
class EmptySource(PlanNode):
    """FROM-less SELECT: one empty row."""

    def describe(self) -> str:
        return "Result"

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        return [], [{}]


@dataclass
class Scan(PlanNode):
    """Sequential scan of a base table with an optional pushed-down filter."""

    table_name: str
    alias: Optional[str] = None
    predicate: Optional[Expression] = None
    estimated_rows: Optional[int] = None
    ordinal_label: Optional[str] = None

    @property
    def label(self) -> str:
        return (self.alias or self.table_name).lower()

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias and self.alias != self.table_name else ""
        return (
            f"Scan {self.table_name}{alias}"
            f"{_rows_suffix(self.estimated_rows)}{_filter_suffix(self.predicate)}"
        )

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        table = rt.executor.database.table(self.table_name)
        label = self.label
        names = table.column_names
        columns = [(name, f"{label}.{name}") for name in names]
        rows = _scan_rows(label, names, table.raw_rows())
        if self.predicate is not None:
            rows = filter_rows(rows, self.predicate, rt.ctx)
        return columns, _tag_ordinals(rows, self.ordinal_label)


@dataclass
class IndexLookup(PlanNode):
    """Index point lookup: ``col = const`` on every column of an index
    (``<table>_pkey`` or a declared one) resolved through it instead of a
    full scan.

    ``residual`` is the remainder of the pushed predicate; ``full_predicate``
    (residual plus the consumed equalities) drives the safety fallback when a
    runtime key value cannot be matched against the index's key type.
    ``copied`` holds the conjuncts copied across an equi-join that this
    leaf's key consumed: never evaluated, they narrow the row estimate.
    """

    table_name: str
    alias: Optional[str]
    index_name: str
    key_columns: List[str]
    key_exprs: List[Expression]
    residual: Optional[Expression] = None
    full_predicate: Optional[Expression] = None
    copied: List[Expression] = field(default_factory=list)
    estimated_rows: Optional[int] = None
    ordinal_label: Optional[str] = None

    @property
    def label(self) -> str:
        return (self.alias or self.table_name).lower()

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias and self.alias != self.table_name else ""
        keys = ", ".join(
            f"{col} = {render_expression(expr)}"
            for col, expr in zip(self.key_columns, self.key_exprs)
        )
        return (
            f"IndexLookup {self.table_name}{alias} USING {self.index_name} "
            f"({keys}){_rows_suffix(self.estimated_rows)}{_filter_suffix(self.residual)}"
        )

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        table = rt.executor.database.table(self.table_name)
        positions = self.candidate_positions(table, rt.ctx)
        return _emit_positions(self, table, positions, rt.ctx)

    def candidate_positions(self, table, ctx: EvalContext) -> Optional[List[int]]:
        """Resolve the runtime key values against the index.

        Shared with the executor's UPDATE/DELETE routing.  Returns the
        matching row positions (ascending), ``[]`` when the equality can
        never be true, or None when only a full scan reproduces the
        engine's comparison semantics (heterogeneous key type, or the index
        was dropped since planning).
        """
        kind, key_parts = _key_parts(self.key_columns, self.key_exprs, table, ctx)
        index = table.indexes.get(self.index_name)
        if kind == "scan" or index is None:
            return None
        if kind == "empty":
            return []
        return index.lookup(key_parts)


def _key_parts(
    columns: Sequence[str], exprs: Sequence[Expression], table, ctx: EvalContext
) -> Tuple[str, List[Any]]:
    """Evaluate equality key values and classify them with
    :func:`_index_key_part`: ``("key", parts)``, or ``"scan"``/``"empty"``
    (a full scan wins over an empty result, so a scan can raise what the
    naive pipeline raises)."""
    verdict = "key"
    parts: List[Any] = []
    for column, expr in zip(columns, exprs):
        kind, part = _index_key_part(evaluate(expr, {}, ctx), table.schema.column(column).sql_type)
        if kind == "scan":
            verdict = "scan"
        elif kind == "empty" and verdict == "key":
            verdict = "empty"
        parts.append(part)
    return verdict, parts


def _emit_positions(
    node, table, positions: Optional[Sequence[int]], ctx: EvalContext
) -> SourceResult:
    """Source rows of an index leaf: ``positions`` (ascending) filtered by
    its residual, or, when ``positions`` is None, a full scan filtered by
    its full predicate."""
    label = node.label
    names = table.column_names
    columns = [(name, f"{label}.{name}") for name in names]
    raw = table.raw_rows()
    if positions is None:
        rows = _scan_rows(label, names, raw)
        predicate = node.full_predicate
    else:
        rows = _scan_rows(label, names, [raw[position] for position in positions])
        predicate = node.residual
    if predicate is not None:
        rows = filter_rows(rows, predicate, ctx)
    return columns, _tag_ordinals(rows, node.ordinal_label)


def _index_key_part(value: Any, sql_type: SqlType) -> Tuple[str, Any]:
    """Classify a runtime key value against an indexed column's type.

    Returns ``("key", normalized)`` when the hash lookup agrees with the
    naive ``=`` semantics, ``("empty", None)`` when the equality can never be
    true, and ``("scan", None)`` when only a full scan reproduces the
    engine's heterogeneous comparison rules.
    """
    if isinstance(value, Variant):
        value = value.value
    if value is None:
        return "empty", None
    if sql_type in (SqlType.INTEGER, SqlType.DOUBLE, SqlType.BOOLEAN):
        if isinstance(value, bool) or isinstance(value, (int, float)):
            return "key", _key_of(value)
        if isinstance(value, str):
            try:
                return "key", _key_of(float(value))
            except ValueError:
                return "empty", None
        return "empty", None
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return "key", value
        return "scan", None  # numeric-vs-text comparisons coerce per row
    if sql_type is SqlType.TIMESTAMP:
        if isinstance(value, _dt.datetime):
            return "key", value
        return "empty", None
    if sql_type is SqlType.BYTEA:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return "key", bytes(value)
        return "empty", None  # bytes never equal a value of another type
    return "scan", None  # VARIANT and anything exotic


def _range_key_part(value: Any, sql_type: SqlType, from_between: bool) -> Tuple[str, Any]:
    """Classify a runtime range-bound value against the indexed column's type.

    Returns ``("key", normalized)`` when an ordered-index range walk agrees
    with the naive comparison semantics, ``("empty", None)`` when the bound
    can never admit a row (NULL or NaN bound), and ``("scan", None)`` when
    only a full scan reproduces the engine's heterogeneous comparison rules
    (string bounds compared per row, BETWEEN's raw comparisons, exotic
    types).
    """
    if isinstance(value, Variant):
        value = value.value
    if value is None:
        return "empty", None  # comparison with NULL is never true
    if sql_type in (SqlType.INTEGER, SqlType.DOUBLE, SqlType.BOOLEAN):
        if (
            isinstance(value, str)
            and not from_between
            and sql_type is not SqlType.BOOLEAN
        ):
            # `<`/`>` coerce a parseable string bound to float exactly once
            # per row; unparseable strings fall back to per-row *string*
            # comparison, which no range walk can reproduce.  BETWEEN and
            # boolean columns compare raw values (TypeError per row), which
            # the scan fallback reproduces faithfully.
            try:
                value = float(value)
            except ValueError:
                return "scan", None
        if isinstance(value, bool):
            return "key", _key_of(value)
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value != value:
                return "empty", None  # NaN bounds admit no rows
            return "key", _key_of(value)
        return "scan", None
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return "key", value
        return "scan", None
    if sql_type is SqlType.TIMESTAMP:
        if isinstance(value, _dt.datetime):
            return "key", value
        return "scan", None
    return "scan", None  # VARIANT and anything exotic


@dataclass
class IndexRangeScan(PlanNode):
    """Ordered-index (B-tree) walk, optionally emitting in key order.

    Backs three planner rewrites:

    * equalities on an index's leading columns (``prefix_columns``) and/or
      a range (``BETWEEN``/``<``/``>``) on the next one (``column``) become
      an index walk (rows re-sorted to storage order so the output matches
      a filtered sequential scan row-for-row) - on ``<table>_pkey``,
      ``house = $1 AND time BETWEEN $2 AND $3`` visits only that house's
      keys in the window;
    * ``ORDER BY col [DESC] [LIMIT k]`` sets ``ordered`` and drops the
      Sort node when ``col`` is the index's last column, after the walk's
      prefix (none on a one-column index): rows emit in key order within
      the prefix's run (NULLs last, ties in storage order - exactly the
      executor's stable sort);
    * with both, the interval walk emits ordered and a pushed ``limit_hint``
      stops after the top-k rows survive the residual filter - on
      ``<table>_pkey``, ``house = $1 AND time < $2 ORDER BY time DESC
      LIMIT 10`` reads ten keys backwards from ``$2``.

    Runtime safety mirrors :class:`IndexLookup`: a prefix value or bound
    whose type cannot be matched against the index degrades to a full scan
    under ``full_predicate`` (re-sorted when ``ordered``), and one that can
    never admit rows returns the empty result.  So does an ordered walk
    whose prefix's run holds a NaN in ``col`` (possible in a primary key),
    whose place in a sort no walk can reproduce.

    An unordered walk without a prefix is re-sized on every execution: the
    planner's width rule (:data:`~repro.sqldb.planner.cost.RANGE_SCAN_THRESHOLD`)
    is applied to the bound values and the table's current statistics, and
    a too-wide interval takes the same full-scan fallback.  This is what
    sizes ``$n`` bounds, which the planner cannot; literal bounds already
    passed the rule at plan time.  A walk under a prefix never leaves the
    prefix's keys and skips the rule.  An ordered walk never falls back by
    width: it replaces a sort at any width, and a wide literal range is
    served the same way (a walk over all rows with the range as residual
    filter).
    """

    table_name: str
    alias: Optional[str]
    index_name: str
    column: str
    prefix_columns: List[str] = field(default_factory=list)
    prefix_exprs: List[Expression] = field(default_factory=list)
    lower: Optional[Expression] = None
    lower_inclusive: bool = True
    lower_between: bool = False
    upper: Optional[Expression] = None
    upper_inclusive: bool = True
    upper_between: bool = False
    residual: Optional[Expression] = None
    full_predicate: Optional[Expression] = None
    copied: List[Expression] = field(default_factory=list)  # as IndexLookup's
    ordered: Optional[str] = None  # None | 'asc' | 'desc'
    hint_limit: Optional[Expression] = None
    hint_offset: Optional[Expression] = None
    estimated_rows: Optional[int] = None
    ordinal_label: Optional[str] = None

    @property
    def label(self) -> str:
        return (self.alias or self.table_name).lower()

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias and self.alias != self.table_name else ""
        terms = [
            f"{column} = {render_expression(expr)}"
            for column, expr in zip(self.prefix_columns, self.prefix_exprs)
        ]
        if self.lower is not None:
            op = ">=" if self.lower_inclusive else ">"
            terms.append(f"{self.column} {op} {render_expression(self.lower)}")
        if self.upper is not None:
            op = "<=" if self.upper_inclusive else "<"
            terms.append(f"{self.column} {op} {render_expression(self.upper)}")
        spec = " AND ".join(terms) if terms else "all rows"
        ordered = ""
        if self.ordered is not None:
            ordered = f" ORDER BY {self.column} {self.ordered.upper()}"
            if self.hint_limit is not None:
                ordered += " (top-k)"
        return (
            f"IndexRangeScan {self.table_name}{alias} USING {self.index_name} "
            f"({spec}){ordered}{_rows_suffix(self.estimated_rows)}"
            f"{_filter_suffix(self.residual)}"
        )

    def _limit_hint(self, ctx: EvalContext) -> Optional[int]:
        if self.hint_limit is None:
            return None
        limit = evaluate(self.hint_limit, {}, ctx)
        if limit is None or int(limit) < 0:
            return None
        offset = 0
        if self.hint_offset is not None:
            offset = int(evaluate(self.hint_offset, {}, ctx) or 0)
            if offset < 0:
                return None
        return int(limit) + offset

    def _walk_bounds(self, table, ctx: EvalContext):
        """Evaluate the prefix values and bounds for one execution.

        Returns ``(mode, index, prefix, low, high)`` where ``mode`` is
        ``"walk"``, ``"scan"`` (only a full scan is exact, or the index was
        dropped or replaced since planning) or ``"empty"`` (no row can
        match).  As for point keys, a scan wins over an empty result.
        """
        index = table.indexes.get(self.index_name)
        if index is None or index.kind != "btree":
            return "scan", None, [], None, None
        mode, prefix = _key_parts(self.prefix_columns, self.prefix_exprs, table, ctx)
        if mode == "key":
            mode = "walk"
        sql_type = table.schema.column(self.column).sql_type
        values = []
        for expr, from_between in (
            (self.lower, self.lower_between),
            (self.upper, self.upper_between),
        ):
            part = None
            if expr is not None:
                kind, part = _range_key_part(evaluate(expr, {}, ctx), sql_type, from_between)
                if kind == "scan":
                    mode = "scan"
                elif kind == "empty" and mode == "walk":
                    mode = "empty"
            values.append(part)
        return mode, index, prefix, values[0], values[1]

    def candidate_positions(self, table, ctx: EvalContext) -> Optional[List[int]]:
        """Row positions of an unordered walk, ascending.

        Shared with the executor's UPDATE/DELETE routing.  ``[]`` when no
        row can match; None when a full scan must answer instead (see
        :meth:`_walk_bounds`, and the width rule for a walk without a
        prefix).
        """
        mode, index, prefix, low, high = self._walk_bounds(table, ctx)
        if mode == "empty":
            return []
        if (
            mode == "walk"
            and not prefix
            and table.stats is not None
            and cost.interval_fraction(table.stats.column(self.column), low, high)
            > cost.RANGE_SCAN_THRESHOLD
        ):
            mode = "scan"
        if mode == "scan":
            return None
        return sorted(
            index.range_positions(
                low, self.lower_inclusive, high, self.upper_inclusive, prefix=prefix
            )
        )

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        table = rt.executor.database.table(self.table_name)
        ctx = rt.ctx
        if self.ordered is None:
            return _emit_positions(self, table, self.candidate_positions(table, ctx), ctx)

        label = self.label
        names = table.column_names
        columns = [(name, f"{label}.{name}") for name in names]
        raw = table.raw_rows()
        mode, index, prefix, low_value, high_value = self._walk_bounds(table, ctx)
        if mode == "empty":
            return columns, []
        if mode == "scan" or index.holds_nan(prefix):
            rows = _scan_rows(label, names, raw)
            if self.full_predicate is not None:
                rows = filter_rows(rows, self.full_predicate, ctx)
            rows = _order_rows_by_column(rows, f"{label}.{self.column}", self.ordered)
            hint = self._limit_hint(ctx)
            if hint is not None:
                rows = rows[:hint]
            return columns, _tag_ordinals(rows, self.ordinal_label)

        # Ordered emission (``column`` is the index's last column): key
        # order within the prefix's run (reverse for DESC), per-key storage
        # order, NULL rows last only when no bound excludes them.
        reverse = self.ordered == "desc"
        if self.lower is None and self.upper is None:
            positions = index.ordered_positions(reverse=reverse, prefix=prefix)
        else:
            positions = index.range_positions(
                low_value,
                self.lower_inclusive,
                high_value,
                self.upper_inclusive,
                reverse=reverse,
                prefix=prefix,
            )
        hint = self._limit_hint(ctx)
        qualified = [f"{label}.{name}" for name in names]
        rows = []
        token = active_token()
        tick = CANCEL_CHECK_EVERY
        for position in positions:
            if token is not None:
                tick -= 1
                if tick == 0:
                    tick = CANCEL_CHECK_EVERY
                    token.check()
            values = raw[position]
            row = dict(zip(qualified, values))
            row.update(zip(names, values))
            if self.residual is not None and evaluate(self.residual, row, ctx) is not True:
                continue
            rows.append(row)
            if hint is not None and len(rows) >= hint:
                break
        return columns, _tag_ordinals(rows, self.ordinal_label)


def _order_rows_by_column(rows: List[dict], key: str, direction: str) -> List[dict]:
    """Stable sort of source rows by one column, NULLs last both directions.

    Reproduces the executor's ORDER BY semantics (``_SortValue`` comparison,
    stable ties) for the ordered-scan fallback path, where the Sort node was
    already dropped from the plan.
    """
    from repro.sqldb.executor import _SortValue

    sign = 1 if direction == "asc" else -1
    return sorted(
        rows, key=lambda row: (row[key] is None, _SortValue(row[key], sign))
    )


@dataclass
class FunctionScan(PlanNode):
    """A set-returning function in FROM (``fmu_simulate(...)``, ...)."""

    item: FromItem  # FunctionRef

    def describe(self) -> str:
        alias = f" AS {self.item.alias}" if self.item.alias else ""
        return f"FunctionScan {self.item.call.name}(...){alias}"

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        return rt.executor._expand_function(self.item, rt.ctx, outer_row)


@dataclass
class SubqueryScan(PlanNode):
    """A derived table ``(SELECT ...) AS alias``."""

    item: FromItem  # SubqueryRef
    subplan: Optional[PlanNode] = None  # for EXPLAIN only

    def describe(self) -> str:
        alias = f" AS {self.item.alias}" if self.item.alias else ""
        return f"SubqueryScan{alias}"

    def children(self) -> List[PlanNode]:
        return [self.subplan] if self.subplan is not None else []

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        return rt.executor._expand_subquery(self.item, rt.ctx, outer_row)


@dataclass
class LateralSource(PlanNode):
    """A LATERAL FROM item, re-expanded once per outer row via the executor."""

    item: FromItem

    def describe(self) -> str:
        return "LateralSource"

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        return rt.executor._expand_item(self.item, rt.ctx, outer_row)


@dataclass
class Filter(PlanNode):
    """Residual predicate evaluated above a source subtree."""

    child: PlanNode
    predicate: Expression

    def describe(self) -> str:
        return f"Filter ({render_expression(self.predicate)})"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        columns, rows = self.child.execute(rt, outer_row)
        return columns, filter_rows(rows, self.predicate, rt.ctx)


@dataclass
class NestedLoopJoin(PlanNode):
    """Fallback join: evaluates the condition on every row pair.

    ``lateral=True`` re-executes the right side once per left row with the
    left row exposed as the outer scope (LATERAL semantics).
    """

    left: PlanNode
    right: PlanNode
    kind: str  # 'inner', 'left', 'cross'
    condition: Optional[Expression] = None
    lateral: bool = False

    def describe(self) -> str:
        cond = f" ({render_expression(self.condition)})" if self.condition is not None else ""
        lateral = " LATERAL" if self.lateral else ""
        return f"NestedLoopJoin {self.kind}{lateral}{cond}"

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        left_columns, left_rows = self.left.execute(rt, outer_row)
        ctx = rt.ctx

        if self.lateral:
            rows: List[dict] = []
            right_columns: ScopeColumns = []
            token = active_token()
            for left_row in left_rows:
                if token is not None:
                    token.check()
                outer = dict(ctx.outer_row or {})
                outer.update(left_row)
                right_columns, right_rows = self.right.execute(rt, outer)
                for right_row in right_rows:
                    merged = merge_rows(left_row, right_row)
                    if self.condition is None or evaluate(self.condition, merged, ctx) is True:
                        rows.append(merged)
            return left_columns + right_columns, rows

        right_columns, right_rows = self.right.execute(rt, outer_row)
        columns = left_columns + right_columns
        rows = []
        null_right = {key: None for _, key in right_columns}
        null_right.update({name: None for name, _ in right_columns})
        token = active_token()
        tick = CANCEL_CHECK_EVERY
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                if token is not None:
                    tick -= 1
                    if tick == 0:
                        tick = CANCEL_CHECK_EVERY
                        token.check()
                merged = merge_rows(left_row, right_row)
                if self.kind == "cross" or self.condition is None:
                    keep = True
                else:
                    keep = evaluate(self.condition, merged, ctx) is True
                if keep:
                    matched = True
                    rows.append(merged)
            if self.kind == "left" and not matched:
                rows.append(merge_rows(left_row, null_right))
        return columns, rows


@dataclass
class HashJoin(PlanNode):
    """Equi-join executed by hashing the right side on its key columns.

    Inner and left joins are supported; ``residual`` carries any non-equi
    conjuncts of the original ON condition, evaluated on each candidate
    pair.  Probe order preserves the nested-loop output order (left-major,
    right insertion order per key), so planned and naive results match
    row-for-row.

    ``left_checks``/``right_checks`` hold, per key, the declared type of a
    table-function column (None for a base-table column): hashing matches
    ``=`` only within a type class, so every such key value is checked
    against its declaration and one that breaks it raises
    :class:`~repro.errors.SqlExecutionError` instead of joining
    differently from the nested loop.
    """

    left: PlanNode
    right: PlanNode
    kind: str  # 'inner' or 'left'
    left_keys: List[Expression] = field(default_factory=list)
    right_keys: List[Expression] = field(default_factory=list)
    residual: Optional[Expression] = None
    build_side: str = "right"  # which input is hashed; the other probes
    estimated_rows: Optional[int] = None
    left_checks: List[Optional[SqlType]] = field(default_factory=list)
    right_checks: List[Optional[SqlType]] = field(default_factory=list)

    def describe(self) -> str:
        keys = ", ".join(
            f"{render_expression(l)} = {render_expression(r)}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        build = " (build=left)" if self.build_side == "left" else ""
        return (
            f"HashJoin {self.kind} ({keys}){build}"
            f"{_rows_suffix(self.estimated_rows)}{_filter_suffix(self.residual)}"
        )

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        left_columns, left_rows = self.left.execute(rt, outer_row)
        right_columns, right_rows = self.right.execute(rt, outer_row)
        columns = left_columns + right_columns
        ctx = rt.ctx

        null_right = {key: None for _, key in right_columns}
        null_right.update({name: None for name, _ in right_columns})
        left_checks = _active_checks(self.left_checks)
        right_checks = _active_checks(self.right_checks)

        if self.build_side == "left":
            rows = self._execute_build_left(
                left_rows, right_rows, null_right, ctx, left_checks, right_checks
            )
            return columns, rows

        buckets: Dict[Tuple, List[dict]] = {}
        for right_row in right_rows:
            key = _join_key(self.right_keys, right_row, ctx, right_checks)
            if key is None:
                continue  # NULL keys can never satisfy an equality
            buckets.setdefault(key, []).append(right_row)

        rows: List[dict] = []
        token = active_token()
        tick = CANCEL_CHECK_EVERY
        for left_row in left_rows:
            if token is not None:
                tick -= 1
                if tick == 0:
                    tick = CANCEL_CHECK_EVERY
                    token.check()
            key = _join_key(self.left_keys, left_row, ctx, left_checks)
            matched = False
            if key is not None:
                for right_row in buckets.get(key, ()):
                    merged = merge_rows(left_row, right_row)
                    if self.residual is None or evaluate(self.residual, merged, ctx) is True:
                        matched = True
                        rows.append(merged)
            if self.kind == "left" and not matched:
                rows.append(merge_rows(left_row, null_right))
        return columns, rows

    def _execute_build_left(
        self,
        left_rows: List[dict],
        right_rows: List[dict],
        null_right: dict,
        ctx: EvalContext,
        left_checks: Optional[List[Optional[SqlType]]],
        right_checks: Optional[List[Optional[SqlType]]],
    ) -> List[dict]:
        """Hash the (smaller) left input and probe with the right input.

        Matches are accumulated per left row and emitted in left-major
        order with per-left matches in right order - the same (left, right)
        pairs in the same order the right-build path produces, so the cost
        model can flip the build side freely without changing results.
        """
        buckets: Dict[Tuple, List[int]] = {}
        for ordinal, left_row in enumerate(left_rows):
            key = _join_key(self.left_keys, left_row, ctx, left_checks)
            if key is None:
                continue
            buckets.setdefault(key, []).append(ordinal)

        matches: List[List[dict]] = [[] for _ in left_rows]
        token = active_token()
        tick = CANCEL_CHECK_EVERY
        for right_row in right_rows:
            if token is not None:
                tick -= 1
                if tick == 0:
                    tick = CANCEL_CHECK_EVERY
                    token.check()
            key = _join_key(self.right_keys, right_row, ctx, right_checks)
            if key is None:
                continue
            for ordinal in buckets.get(key, ()):
                merged = merge_rows(left_rows[ordinal], right_row)
                if self.residual is None or evaluate(self.residual, merged, ctx) is True:
                    matches[ordinal].append(merged)

        rows: List[dict] = []
        for ordinal, left_row in enumerate(left_rows):
            if matches[ordinal]:
                rows.extend(matches[ordinal])
            elif self.kind == "left":
                rows.append(merge_rows(left_row, null_right))
        return rows


@dataclass
class JoinOrderRestore(PlanNode):
    """Restore a reordered join's output to declared FROM-order semantics.

    The cost-based join reorder runs the nested-loop/hash pipeline in an
    order chosen by estimated cardinality, which changes the *sequence* of
    output rows (never their set) and the ``SELECT *`` column order.  This
    node undoes both: each reordered leaf stamps its rows with
    ``#ord:<label>`` emission ordinals, and sorting the merged rows by the
    ordinal tuple in *declared* FROM order reproduces exactly the
    lexicographic row order the naive nested loop over the original
    ``FROM a, b, c`` would emit; the scope columns are regrouped by
    declared label.  Bare-name keys need no fixup: ``merge_rows`` collapses
    a collision to the order-independent AMBIGUOUS sentinel.  ``labels`` is
    the original FROM order.
    """

    child: PlanNode
    labels: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return f"JoinOrderRestore ({', '.join(self.labels)})"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime, outer_row: Optional[dict] = None) -> SourceResult:
        columns, rows = self.child.execute(rt, outer_row)
        position = {label: index for index, label in enumerate(self.labels)}
        columns = sorted(
            columns,
            key=lambda column: position.get(column[1].split(".", 1)[0], len(position)),
        )
        tags = [f"#ord:{label}" for label in self.labels]
        rows.sort(key=lambda row: tuple(row[tag] for tag in tags))
        for row in rows:
            for tag in tags:
                del row[tag]
        return columns, rows


def _active_checks(checks: List[Optional[SqlType]]) -> Optional[List[Optional[SqlType]]]:
    """``checks`` when any key has a declared type to check, else None."""
    return checks if any(check is not None for check in checks) else None


def _join_key(
    exprs: List[Expression],
    row: dict,
    ctx: EvalContext,
    checks: Optional[List[Optional[SqlType]]],
) -> Optional[Tuple]:
    parts = []
    for position, expr in enumerate(exprs):
        value = evaluate(expr, row, ctx)
        if checks is not None:
            declared = checks[position]
            if declared is not None and not fits_type_class(value, declared):
                raise SqlExecutionError(
                    f"table function column {render_expression(expr)} is declared "
                    f"{declared.value} but returned {value!r} ({type(value).__name__}); "
                    f"a hash join cannot compare it as declared"
                )
        if isinstance(value, Variant):
            value = value.value
        if value is None:
            return None
        parts.append(_key_of(value))
    return tuple(parts)


# --------------------------------------------------------------------------- #
# Output nodes
# --------------------------------------------------------------------------- #
OutputResult = Tuple[List[str], List[list], List[dict]]


@dataclass
class Project(PlanNode):
    """Evaluate the select list for every source row (no aggregation)."""

    child: PlanNode
    items: List[SelectItem]

    def describe(self) -> str:
        rendered = ", ".join(render_expression(item.expr) for item in self.items[:6])
        if len(self.items) > 6:
            rendered += ", ..."
        return f"Project ({rendered})"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime) -> OutputResult:
        scope_columns, rows = self.child.execute(rt, rt.ctx.outer_row)
        executor = rt.executor
        projected: List[list] = []
        for row in rows:
            values, _ = executor._project_row(self.items, scope_columns, row, rt.ctx)
            projected.append(values)
        names = executor._output_names(self.items, scope_columns)
        return names, projected, rows


@dataclass
class Aggregate(PlanNode):
    """GROUP BY / aggregate evaluation (delegates to the executor's kernel)."""

    child: PlanNode
    statement: SelectStatement
    aggregates: List[FuncCall]

    def describe(self) -> str:
        if self.statement.group_by:
            keys = ", ".join(render_expression(e) for e in self.statement.group_by)
            return f"Aggregate (group by: {keys})"
        return "Aggregate"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime) -> OutputResult:
        scope_columns, rows = self.child.execute(rt, rt.ctx.outer_row)
        executor = rt.executor
        projected, order_rows = executor._execute_grouped(
            self.statement, scope_columns, rows, self.aggregates, rt.ctx
        )
        names = executor._output_names(self.statement.items, scope_columns)
        return names, projected, order_rows


@dataclass
class Distinct(PlanNode):
    child: PlanNode

    def describe(self) -> str:
        return "Distinct"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime) -> OutputResult:
        names, projected, order_rows = self.child.execute(rt)
        projected, order_rows = rt.executor._distinct(projected, order_rows)
        return names, projected, order_rows


@dataclass
class Sort(PlanNode):
    """ORDER BY; with a pushed-down LIMIT it runs as a top-k heap selection."""

    child: PlanNode
    order_by: List[OrderItem]
    topk_limit: Optional[Expression] = None
    topk_offset: Optional[Expression] = None

    def describe(self) -> str:
        keys = ", ".join(
            render_expression(o.expr) + ("" if o.ascending else " DESC") for o in self.order_by
        )
        suffix = " (top-k)" if self.topk_limit is not None else ""
        return f"Sort (key: {keys}){suffix}"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime) -> OutputResult:
        names, projected, order_rows = self.child.execute(rt)
        topk = None
        if self.topk_limit is not None:
            limit = evaluate(self.topk_limit, {}, rt.ctx)
            if limit is not None and int(limit) >= 0:
                offset = 0
                if self.topk_offset is not None:
                    offset = int(evaluate(self.topk_offset, {}, rt.ctx) or 0)
                # Negative values use Python slice semantics in Limit; only a
                # plain non-negative window is a genuine top-k.
                if offset >= 0:
                    topk = int(limit) + offset
        projected, order_rows = rt.executor._order(
            self.order_by, names, projected, order_rows, rt.ctx, topk=topk
        )
        return names, projected, order_rows


@dataclass
class Limit(PlanNode):
    child: PlanNode
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={render_expression(self.limit)}")
        if self.offset is not None:
            parts.append(f"offset={render_expression(self.offset)}")
        return f"Limit ({', '.join(parts)})"

    def children(self) -> List[PlanNode]:
        return [self.child]

    def execute(self, rt: PlanRuntime) -> OutputResult:
        names, projected, order_rows = self.child.execute(rt)
        offset = 0
        if self.offset is not None:
            offset = int(evaluate(self.offset, {}, rt.ctx) or 0)
        if offset:
            projected = projected[offset:]
            order_rows = order_rows[offset:]
        if self.limit is not None:
            limit = evaluate(self.limit, {}, rt.ctx)
            if limit is not None:
                projected = projected[: int(limit)]
                order_rows = order_rows[: int(limit)]
        return names, projected, order_rows
