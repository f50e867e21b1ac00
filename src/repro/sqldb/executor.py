"""Statement execution: SELECT (planned or naive), DML, DDL and EXPLAIN.

SELECT statements are normally executed through the planner subsystem
(:mod:`repro.sqldb.planner`); the original eager-materialization pipeline is
kept as :meth:`Executor._execute_select_naive` so equivalence tests and the
query-planner benchmark can compare the two paths on identical inputs
(toggle with :attr:`repro.sqldb.database.Database.planner_enabled`).
"""

from __future__ import annotations

import heapq

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cancellation import active_token, check_active
from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqldb.ast_nodes import (
    AnalyzeStatement,
    CheckpointStatement,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropIndexStatement,
    DropTableStatement,
    ExplainStatement,
    Expression,
    FuncCall,
    FunctionRef,
    FromItem,
    InsertStatement,
    Join,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UpdateStatement,
    VerifyStatement,
)
from repro.sqldb.expressions import EvalContext, collect_aggregates, evaluate
from repro.sqldb.functions import (
    AGGREGATE_FUNCTIONS,
    CountStarAggregate,
    TABLE_FUNCTIONS,
)
from repro.sqldb.planner.nodes import PlanRuntime, filter_rows
from repro.sqldb.result import ResultSet
from repro.sqldb.rows import make_row, merge_rows
from repro.sqldb.schema import ColumnDefinition, ForeignKey, TableSchema
from repro.sqldb.types import Variant

#: (display_name, lookup_key) pairs describing the visible columns of a scope.
ScopeColumns = List[Tuple[str, str]]


class Executor:
    """Executes parsed statements against a :class:`~repro.sqldb.database.Database`."""

    def __init__(self, database):
        self.database = database

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def execute(
        self,
        statement,
        params: Optional[Sequence[Any]] = None,
        outer_row: Optional[Dict[str, Any]] = None,
    ) -> ResultSet:
        # One deadline/cancellation check per statement dispatch; nested
        # statements (subqueries executed per outer row, UDF-issued SQL)
        # re-enter here, so long row-at-a-time pipelines stay responsive.
        check_active()
        ctx = EvalContext(
            database=self.database, params=list(params or []), outer_row=outer_row
        )
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement, ctx)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, ctx)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement, ctx)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, ctx)
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement, ctx)
        if isinstance(statement, DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndexStatement):
            return self._execute_create_index(statement)
        if isinstance(statement, DropIndexStatement):
            return self._execute_drop_index(statement)
        if isinstance(statement, ExplainStatement):
            return self._execute_explain(statement)
        if isinstance(statement, CheckpointStatement):
            checkpoint_id = self.database.checkpoint()
            return ResultSet(columns=["status"], rows=[[f"checkpoint {checkpoint_id}"]], rowcount=0)
        if isinstance(statement, VerifyStatement):
            return ResultSet(
                columns=["object", "status", "detail"],
                rows=self.database.verify(),
                rowcount=0,
            )
        if isinstance(statement, AnalyzeStatement):
            count = self.database.analyze(statement.table)
            return ResultSet(
                columns=["status"],
                rows=[[f"analyzed {count} table(s)"]],
                rowcount=0,
            )
        raise SqlExecutionError(f"unsupported statement type: {type(statement).__name__}")

    # ------------------------------------------------------------------ #
    # FROM clause expansion
    # ------------------------------------------------------------------ #
    def _scan_table(self, name: str, alias: Optional[str]) -> Tuple[ScopeColumns, List[dict]]:
        table = self.database.table(name)
        label = (alias or name).lower()
        columns = [(col, f"{label}.{col}") for col in table.column_names]
        rows = []
        for values in table.rows():
            rows.append(self._make_row(label, table.column_names, values))
        return columns, rows

    @staticmethod
    def _make_row(label: str, column_names: Sequence[str], values: Sequence[Any]) -> dict:
        return make_row(label, column_names, values)

    def _expand_function(
        self, item: FunctionRef, ctx: EvalContext, outer_row: Optional[dict]
    ) -> Tuple[ScopeColumns, List[dict]]:
        call = item.call
        name = call.name.lower()
        arg_ctx = ctx.child(outer_row) if outer_row is not None else ctx
        args = [evaluate(arg, outer_row or {}, arg_ctx) for arg in call.args]

        table_udf = self.database.udfs.table(name)
        if table_udf is not None:
            table_udf.check_arity(len(args))
            raw_rows = table_udf.func(self.database, *args)
            out_columns = list(table_udf.columns)
        elif name in TABLE_FUNCTIONS:
            spec = TABLE_FUNCTIONS[name]
            if len(args) < spec["min_args"] or len(args) > spec["max_args"]:
                raise SqlCatalogError(
                    f"function {name!r} expects {spec['min_args']}..{spec['max_args']} arguments"
                )
            raw_rows = spec["func"](*args)
            out_columns = list(spec["columns"])
        elif self.database.udfs.scalar(name) is not None:
            udf = self.database.udfs.scalar(name)
            udf.check_arity(len(args))
            raw_rows = [[udf.func(self.database, *args)]]
            out_columns = [name]
        else:
            raise SqlCatalogError(f"set-returning function {name!r} does not exist")

        if item.column_aliases:
            if len(item.column_aliases) != len(out_columns):
                raise SqlCatalogError(
                    f"function {name!r} returns {len(out_columns)} columns but "
                    f"{len(item.column_aliases)} aliases were given"
                )
            out_columns = list(item.column_aliases)

        label = (item.alias or name).lower()
        # A single-column function aliased with AS gets the alias as column
        # name too (PostgreSQL behaviour for e.g. generate_series(...) AS id).
        if item.alias and len(out_columns) == 1 and not item.column_aliases:
            out_columns = [item.alias.lower()]

        columns = [(col, f"{label}.{col}") for col in out_columns]
        rows = [self._make_row(label, out_columns, list(values)) for values in raw_rows]
        return columns, rows

    def _expand_subquery(
        self, item: SubqueryRef, ctx: EvalContext, outer_row: Optional[dict]
    ) -> Tuple[ScopeColumns, List[dict]]:
        result = self._execute_select(item.select, ctx.child(outer_row))
        label = (item.alias or "subquery").lower()
        columns = [(col, f"{label}.{col}") for col in result.columns]
        rows = [self._make_row(label, result.columns, values) for values in result.rows]
        return columns, rows

    def _expand_join(
        self, item: Join, ctx: EvalContext, outer_row: Optional[dict]
    ) -> Tuple[ScopeColumns, List[dict]]:
        left_columns, left_rows = self._expand_item(item.left, ctx, outer_row)
        right_columns, right_rows = self._expand_item(item.right, ctx, outer_row)
        columns = left_columns + right_columns
        rows: List[dict] = []
        null_right = {key: None for _, key in right_columns}
        null_right.update({name: None for name, _ in right_columns})
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                merged = merge_rows(left_row, right_row)
                if item.kind == "cross" or item.condition is None:
                    keep = True
                else:
                    keep = evaluate(item.condition, merged, ctx) is True
                if keep:
                    matched = True
                    rows.append(merged)
            if item.kind == "left" and not matched:
                rows.append(merge_rows(left_row, null_right))
        return columns, rows

    def _expand_item(
        self, item: FromItem, ctx: EvalContext, outer_row: Optional[dict]
    ) -> Tuple[ScopeColumns, List[dict]]:
        if isinstance(item, TableRef):
            return self._scan_table(item.name, item.alias)
        if isinstance(item, FunctionRef):
            return self._expand_function(item, ctx, outer_row)
        if isinstance(item, SubqueryRef):
            return self._expand_subquery(item, ctx, outer_row)
        if isinstance(item, Join):
            return self._expand_join(item, ctx, outer_row)
        raise SqlExecutionError(f"unsupported FROM item: {type(item).__name__}")

    @staticmethod
    def _item_is_lateral(item: FromItem) -> bool:
        if isinstance(item, (FunctionRef, SubqueryRef)):
            return item.lateral
        if isinstance(item, Join):
            return Executor._item_is_lateral(item.left) or Executor._item_is_lateral(item.right)
        return False

    def _build_source_rows(
        self, from_items: List[FromItem], ctx: EvalContext
    ) -> Tuple[ScopeColumns, List[dict]]:
        if not from_items:
            return [], [{}]
        scope_columns: ScopeColumns = []
        rows: List[dict] = [{}]
        token = active_token()
        for item in from_items:
            lateral = self._item_is_lateral(item)
            if not lateral:
                item_columns, item_rows = self._expand_item(item, ctx, ctx.outer_row)
                scope_columns = scope_columns + item_columns
                new_rows = []
                for row in rows:
                    if token is not None:
                        token.check()
                    for item_row in item_rows:
                        new_rows.append(merge_rows(row, item_row))
                rows = new_rows
            else:
                new_rows = []
                item_columns: ScopeColumns = []
                for row in rows:
                    outer = dict(ctx.outer_row or {})
                    outer.update(row)
                    item_columns, item_rows = self._expand_item(item, ctx, outer)
                    for item_row in item_rows:
                        new_rows.append(merge_rows(row, item_row))
                scope_columns = scope_columns + item_columns
                rows = new_rows
        return scope_columns, rows

    # ------------------------------------------------------------------ #
    # SELECT
    # ------------------------------------------------------------------ #
    def _execute_select(self, statement: SelectStatement, ctx: EvalContext) -> ResultSet:
        if not getattr(self.database, "planner_enabled", True):
            return self._execute_select_naive(statement, ctx)
        plan = self.database.plan_select(statement)
        names, projected, _ = plan.execute(PlanRuntime(executor=self, ctx=ctx))
        return ResultSet(columns=names, rows=projected)

    def _execute_select_naive(self, statement: SelectStatement, ctx: EvalContext) -> ResultSet:
        """The pre-planner pipeline: materialize everything, then filter."""
        scope_columns, rows = self._build_source_rows(statement.from_items, ctx)

        if statement.where is not None:
            rows = filter_rows(rows, statement.where, ctx)

        aggregates: List[FuncCall] = []
        for item in statement.items:
            aggregates.extend(collect_aggregates(item.expr))
        aggregates.extend(collect_aggregates(statement.having))
        for order in statement.order_by:
            aggregates.extend(collect_aggregates(order.expr))

        if statement.group_by or aggregates:
            projected, order_rows = self._execute_grouped(
                statement, scope_columns, rows, aggregates, ctx
            )
        else:
            projected = []
            order_rows = []
            for row in rows:
                values, names = self._project_row(statement.items, scope_columns, row, ctx)
                projected.append(values)
                order_rows.append(row)
            names = self._output_names(statement.items, scope_columns)

        names = self._output_names(statement.items, scope_columns)

        if statement.distinct:
            projected, order_rows = self._distinct(projected, order_rows)

        if statement.order_by:
            projected, order_rows = self._order(
                statement.order_by, names, projected, order_rows, ctx
            )

        projected = self._apply_limit_offset(statement, projected, ctx)
        return ResultSet(columns=names, rows=projected)

    def _execute_grouped(
        self,
        statement: SelectStatement,
        scope_columns: ScopeColumns,
        rows: List[dict],
        aggregates: List[FuncCall],
        ctx: EvalContext,
    ) -> Tuple[List[list], List[dict]]:
        groups: Dict[tuple, List[dict]] = {}
        group_order: List[tuple] = []
        group_exprs = [
            self._resolve_group_expr(expr, statement.items) for expr in statement.group_by
        ]
        if statement.group_by:
            for row in rows:
                key = tuple(
                    self._hashable(evaluate(expr, row, ctx)) for expr in group_exprs
                )
                if key not in groups:
                    groups[key] = []
                    group_order.append(key)
                groups[key].append(row)
        else:
            key = ()
            groups[key] = list(rows)
            group_order.append(key)

        projected: List[list] = []
        order_rows: List[dict] = []
        for key in group_order:
            group_rows = groups[key]
            representative = group_rows[0] if group_rows else {}
            agg_values = self._compute_aggregates(aggregates, group_rows, ctx)
            group_ctx = EvalContext(
                database=ctx.database,
                params=ctx.params,
                outer_row=ctx.outer_row,
                aggregate_values=agg_values,
            )
            if statement.having is not None:
                if evaluate(statement.having, representative, group_ctx) is not True:
                    continue
            values, _ = self._project_row(
                statement.items, scope_columns, representative, group_ctx
            )
            projected.append(values)
            marker = dict(representative)
            marker["__aggregates__"] = agg_values
            order_rows.append(marker)
        return projected, order_rows

    @staticmethod
    def _resolve_group_expr(expr: Expression, items: List[SelectItem]) -> Expression:
        """Resolve positional (``GROUP BY 1``) and alias references in GROUP BY."""
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            position = expr.value
            if position < 1 or position > len(items):
                raise SqlExecutionError(f"GROUP BY position {position} is out of range")
            return items[position - 1].expr
        if isinstance(expr, ColumnRef) and expr.table is None:
            for item in items:
                if item.alias and item.alias.lower() == expr.name:
                    return item.expr
        return expr

    def _compute_aggregates(
        self, aggregates: List[FuncCall], group_rows: List[dict], ctx: EvalContext
    ) -> Dict[int, Any]:
        values: Dict[int, Any] = {}
        for call in aggregates:
            name = call.name.lower()
            if name == "count" and (call.star_arg or not call.args):
                state = CountStarAggregate()
                for row in group_rows:
                    state.add(1)
                values[id(call)] = state.result()
                continue
            factory = AGGREGATE_FUNCTIONS[name]
            state = factory()
            seen = set()
            for row in group_rows:
                if not call.args:
                    raise SqlExecutionError(f"aggregate {name!r} requires an argument")
                value = evaluate(call.args[0], row, ctx)
                if isinstance(value, Variant):
                    value = value.value
                if call.distinct:
                    marker = self._hashable(value)
                    if marker in seen:
                        continue
                    seen.add(marker)
                state.add(value)
            values[id(call)] = state.result()
        return values

    @staticmethod
    def _hashable(value: Any) -> Any:
        if isinstance(value, Variant):
            value = value.value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, list):
            return tuple(value)
        return value

    # ------------------------------------------------------------------ #
    # Projection
    # ------------------------------------------------------------------ #
    def _project_row(
        self,
        items: List[SelectItem],
        scope_columns: ScopeColumns,
        row: dict,
        ctx: EvalContext,
    ) -> Tuple[list, List[str]]:
        values: List[Any] = []
        names: List[str] = []
        for item in items:
            if isinstance(item.expr, Star):
                for display, key in self._star_columns(item.expr, scope_columns):
                    values.append(row.get(key))
                    names.append(display)
                continue
            values.append(evaluate(item.expr, row, ctx))
            names.append(self._item_name(item))
        return values, names

    def _output_names(self, items: List[SelectItem], scope_columns: ScopeColumns) -> List[str]:
        names: List[str] = []
        for item in items:
            if isinstance(item.expr, Star):
                names.extend(display for display, _ in self._star_columns(item.expr, scope_columns))
            else:
                names.append(self._item_name(item))
        return names

    @staticmethod
    def _star_columns(star: Star, scope_columns: ScopeColumns) -> ScopeColumns:
        if star.table is None:
            return scope_columns
        prefix = f"{star.table.lower()}."
        selected = [(d, k) for d, k in scope_columns if k.startswith(prefix)]
        if not selected:
            raise SqlCatalogError(f"unknown table alias {star.table!r} in select list")
        return selected

    @staticmethod
    def _item_name(item: SelectItem) -> str:
        if item.alias:
            return item.alias
        expr = item.expr
        if isinstance(expr, ColumnRef):
            return expr.name
        if isinstance(expr, FuncCall):
            return expr.name
        return "?column?"

    # ------------------------------------------------------------------ #
    # DISTINCT / ORDER BY / LIMIT
    # ------------------------------------------------------------------ #
    def _distinct(
        self, projected: List[list], order_rows: List[dict]
    ) -> Tuple[List[list], List[dict]]:
        seen = set()
        out_values: List[list] = []
        out_rows: List[dict] = []
        for values, row in zip(projected, order_rows):
            key = tuple(self._hashable(v) for v in values)
            if key in seen:
                continue
            seen.add(key)
            out_values.append(values)
            out_rows.append(row)
        return out_values, out_rows

    def _order(
        self,
        order_by: List[OrderItem],
        names: List[str],
        projected: List[list],
        order_rows: List[dict],
        ctx: EvalContext,
        topk: Optional[int] = None,
    ) -> Tuple[List[list], List[dict]]:
        """Sort projected rows; with ``topk`` only the first k are selected
        via a heap (LIMIT pushed through ORDER BY).  ``heapq.nsmallest`` is
        stable like ``sorted``, so both paths order ties identically."""
        lowered_names = [n.lower() for n in names]

        def sort_key(pair):
            values, row = pair
            key = []
            for order in order_by:
                value = self._order_value(order.expr, values, row, lowered_names, ctx)
                if isinstance(value, Variant):
                    value = value.value
                direction = 1 if order.ascending else -1
                key.append((value is None, _SortValue(value, direction)))
            return key

        pairs = list(zip(projected, order_rows))
        if topk is not None and topk < len(pairs):
            combined = heapq.nsmallest(max(topk, 0), pairs, key=sort_key)
        else:
            combined = sorted(pairs, key=sort_key)
        if not combined:
            return [], []
        out_values, out_rows = zip(*combined)
        return list(out_values), list(out_rows)

    def _order_value(
        self,
        expr: Expression,
        values: list,
        row: dict,
        lowered_names: List[str],
        ctx: EvalContext,
    ) -> Any:
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            position = expr.value
            if position < 1 or position > len(values):
                raise SqlExecutionError(f"ORDER BY position {position} is out of range")
            return values[position - 1]
        if isinstance(expr, ColumnRef) and expr.table is None and expr.name in lowered_names:
            return values[lowered_names.index(expr.name)]
        agg_values = row.get("__aggregates__", {})
        local_ctx = EvalContext(
            database=ctx.database,
            params=ctx.params,
            outer_row=ctx.outer_row,
            aggregate_values=agg_values,
        )
        return evaluate(expr, row, local_ctx)

    def _apply_limit_offset(
        self, statement: SelectStatement, projected: List[list], ctx: EvalContext
    ) -> List[list]:
        offset = 0
        if statement.offset is not None:
            offset = int(evaluate(statement.offset, {}, ctx) or 0)
        if offset:
            projected = projected[offset:]
        if statement.limit is not None:
            limit = evaluate(statement.limit, {}, ctx)
            if limit is not None:
                projected = projected[: int(limit)]
        return projected

    # ------------------------------------------------------------------ #
    # INSERT / UPDATE / DELETE
    # ------------------------------------------------------------------ #
    def _execute_insert(self, statement: InsertStatement, ctx: EvalContext) -> ResultSet:
        table = self.database.table(statement.table)
        inserted = 0
        if statement.select is not None:
            result = self._execute_select(statement.select, ctx)
            for row in result.rows:
                table.insert(
                    row,
                    statement.columns or None,
                    fk_check=self.database.check_foreign_keys(table),
                )
                inserted += 1
        else:
            for value_exprs in statement.values:
                values = [evaluate(expr, {}, ctx) for expr in value_exprs]
                table.insert(
                    values,
                    statement.columns or None,
                    fk_check=self.database.check_foreign_keys(table),
                )
                inserted += 1
        return ResultSet(columns=["count"], rows=[[inserted]], rowcount=inserted)

    def _execute_update(self, statement: UpdateStatement, ctx: EvalContext) -> ResultSet:
        table = self.database.table(statement.table)

        def predicate(row_dict: Dict[str, Any]) -> bool:
            if statement.where is None:
                return True
            return evaluate(statement.where, dict(row_dict), ctx) is True

        def updater(row_dict: Dict[str, Any]) -> Dict[str, Any]:
            return {
                column: evaluate(expr, dict(row_dict), ctx)
                for column, expr in statement.assignments
            }

        positions = self._dml_candidate_positions(table, statement.where, ctx)
        updated = table.update_where(predicate, updater, candidate_positions=positions)
        return ResultSet(columns=["count"], rows=[[updated]], rowcount=updated)

    def _execute_delete(self, statement: DeleteStatement, ctx: EvalContext) -> ResultSet:
        table = self.database.table(statement.table)

        def predicate(row_dict: Dict[str, Any]) -> bool:
            if statement.where is None:
                return True
            return evaluate(statement.where, dict(row_dict), ctx) is True

        positions = self._dml_candidate_positions(table, statement.where, ctx)
        deleted = table.delete_where(predicate, candidate_positions=positions)
        return ResultSet(columns=["count"], rows=[[deleted]], rowcount=deleted)

    # ------------------------------------------------------------------ #
    # UPDATE/DELETE index routing
    # ------------------------------------------------------------------ #
    def _dml_access_path(self, table, where):
        """The index leaf a DML WHERE clause can route through, or None.

        Reuses the planner's access-path choice: the WHERE must normalize
        to a single AND group whose conjuncts give a point lookup or an
        ordered-index walk.  The full predicate is still evaluated on every
        candidate row, so residual conjuncts stay exact.
        """
        from repro.sqldb.planner.builder import index_access_path
        from repro.sqldb.planner.predicates import normalize_dnf

        if where is None:
            return None
        groups = normalize_dnf(where)
        if groups is None or len(groups) != 1:
            return None
        access = index_access_path(table, groups[0], table.name)
        return None if access is None else access[0]

    def _dml_candidate_positions(self, table, where, ctx: EvalContext):
        """Row positions an indexable WHERE clause can match.

        Returns None when only a full scan reproduces the engine's
        comparison semantics (no usable index, a runtime value of an
        incompatible type, a too-wide walk, or an index dropped since
        planning).
        """
        node = self._dml_access_path(table, where)
        return None if node is None else node.candidate_positions(table, ctx)

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #
    def _execute_create_table(self, statement: CreateTableStatement, ctx: EvalContext) -> ResultSet:
        if self.database.has_table(statement.name):
            if statement.if_not_exists:
                return ResultSet(columns=["status"], rows=[["exists"]], rowcount=0)
            raise SqlCatalogError(f"table {statement.name!r} already exists")

        columns: List[ColumnDefinition] = []
        primary_key = list(statement.primary_key)
        foreign_keys: List[ForeignKey] = []
        for spec in statement.columns:
            default = None
            if spec.default is not None:
                default = evaluate(spec.default, {}, ctx)
            columns.append(
                ColumnDefinition(
                    name=spec.name,
                    sql_type=spec.type_name,
                    not_null=spec.not_null or spec.primary_key,
                    default=default,
                )
            )
            if spec.primary_key:
                primary_key.append(spec.name)
            if spec.references is not None:
                ref_table, ref_column = spec.references
                foreign_keys.append(
                    ForeignKey(
                        columns=[spec.name],
                        referenced_table=ref_table,
                        referenced_columns=[ref_column or spec.name],
                    )
                )
        for local, ref_table, ref_columns in statement.foreign_keys:
            foreign_keys.append(
                ForeignKey(
                    columns=local,
                    referenced_table=ref_table,
                    referenced_columns=ref_columns or local,
                )
            )
        schema = TableSchema(
            name=statement.name,
            columns=columns,
            primary_key=primary_key,
            foreign_keys=foreign_keys,
        )
        self.database.create_table(schema)
        return ResultSet(columns=["status"], rows=[["created"]], rowcount=0)

    def _execute_drop_table(self, statement: DropTableStatement) -> ResultSet:
        if not self.database.has_table(statement.name):
            if statement.if_exists:
                return ResultSet(columns=["status"], rows=[["skipped"]], rowcount=0)
            raise SqlCatalogError(f"table {statement.name!r} does not exist")
        self.database.drop_table(statement.name)
        return ResultSet(columns=["status"], rows=[["dropped"]], rowcount=0)

    def _execute_create_index(self, statement: CreateIndexStatement) -> ResultSet:
        if statement.if_not_exists and self.database.has_index(statement.name):
            return ResultSet(columns=["status"], rows=[["exists"]], rowcount=0)
        self.database.create_index(
            statement.name, statement.table, statement.columns, using=statement.using
        )
        return ResultSet(columns=["status"], rows=[["created"]], rowcount=0)

    def _execute_drop_index(self, statement: DropIndexStatement) -> ResultSet:
        if not self.database.has_index(statement.name):
            if statement.if_exists:
                return ResultSet(columns=["status"], rows=[["skipped"]], rowcount=0)
            raise SqlCatalogError(f"index {statement.name!r} does not exist")
        self.database.drop_index(statement.name)
        return ResultSet(columns=["status"], rows=[["dropped"]], rowcount=0)

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #
    def _execute_explain(self, statement: ExplainStatement) -> ResultSet:
        from repro.sqldb.planner.render import render_expression

        inner = statement.statement
        if isinstance(inner, SelectStatement):
            lines = self.database.plan_select(inner).explain_lines()
        elif isinstance(inner, InsertStatement):
            lines = [f"Insert on {inner.table}"]
            if inner.select is not None:
                lines.extend(self.database.plan_select(inner.select).explain_lines(1))
        elif isinstance(inner, (UpdateStatement, DeleteStatement)):
            verb = "Update" if isinstance(inner, UpdateStatement) else "Delete"
            suffix = f" (filter: {render_expression(inner.where)})" if inner.where else ""
            lines = [f"{verb} on {inner.table}{suffix}"]
            if self.database.has_table(inner.table):
                node = self._dml_access_path(self.database.table(inner.table), inner.where)
                if node is not None:
                    lines.append(f"->  {node.describe()}")
        else:
            raise SqlExecutionError(
                "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements"
            )
        return ResultSet(columns=["QUERY PLAN"], rows=[[line] for line in lines], rowcount=0)


class _SortValue:
    """Ordering wrapper that honours sort direction and mixed types."""

    __slots__ = ("value", "direction")

    def __init__(self, value: Any, direction: int):
        self.value = value
        self.direction = direction

    def __lt__(self, other: "_SortValue") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            return False
        try:
            result = a < b
        except TypeError:
            result = str(a) < str(b)
        return result if self.direction > 0 else not result and a != b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortValue) and self.value == other.value
