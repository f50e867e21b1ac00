"""Build an optimized plan tree from a parsed SELECT statement.

Rule pipeline, with cost-based decisions layered on top wherever ANALYZE
statistics exist (see :mod:`repro.sqldb.planner.cost`):

1. **Scope analysis** - map FROM aliases to base-table schemas and to the
   declared output columns of fully typed table functions, note which
   sources have statically unknown columns (untyped functions, subqueries,
   LATERAL).
2. **WHERE normalization** - flatten into OR-of-AND groups
   (:func:`~repro.sqldb.planner.predicates.normalize_dnf`).
3. **Predicate pushdown** - single-table conjuncts move below joins into the
   scans; with OR groups a *derived* per-table predicate is pushed and the
   full WHERE stays as a residual filter.
4. **Index selection** - ``col = const/param`` conjuncts over the whole
   primary key turn scans into point lookups.  Otherwise an equality
   prefix on an ordered (B-tree) index's leading columns and/or a range
   (``BETWEEN``/``<``/``>``) on the column after it become an
   :class:`~repro.sqldb.planner.nodes.IndexRangeScan` walk - every primary
   key has such an index, ``<table>_pkey`` - unless a point lookup on a
   secondary index is not dominated by it: the walk wins when its prefix
   covers the lookup's columns and it consumes strictly more conjuncts.
   In a join, range and equality conjuncts copied across equi-joins (rule
   6) steer this choice too.  A walk with no prefix is
   dropped when statistics say the interval is too wide to beat a
   sequential scan; for ``$n``-bound intervals that width check runs per
   execution, on the bound values, so one cached plan serves narrow and
   wide bindings alike.
5. **Join order** - comma-joins of plain tables are reordered greedily by
   estimated cardinality when every table has statistics; a
   :class:`~repro.sqldb.planner.nodes.JoinOrderRestore` re-sorts the output
   back to declared-order row order so results stay bit-identical.
6. **Hash joins** - inner/left equi-joins on type-compatible columns of
   base tables and typed table functions replace nested loops; the
   estimated-smaller input is hashed.  A table function's key values are
   checked against their declared types as the join reads them.
   Under a pure-conjunction WHERE, each ``col op const/$n`` conjunct is
   also copied across every equality ``a.c = b.d`` (WHERE or inner ON,
   one SQL type) onto the other table's index selection - never onto a
   LEFT JOIN's nullable side or a LATERAL item, and never evaluated as a
   filter.
7. **Top-k** - a LIMIT above an ORDER BY pushes into the sort as a heap
   selection, and ``ORDER BY col [LIMIT k]`` drops the sort entirely when
   ``col`` is the last column of a B-tree index whose earlier columns the
   walk binds by equality (none for a one-column index): the walk emits
   rows in key order, backwards for ``DESC``, and stops after the top k.

A database with no statistics (never ``ANALYZE``-d) plans exactly as the
rule-based engine always did - same shapes, same EXPLAIN text.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Set, Tuple

from repro.sqldb.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FromItem,
    FunctionRef,
    Join,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
)
from repro.sqldb.expressions import collect_aggregates
from repro.sqldb.planner import cost
from repro.sqldb.planner.nodes import (
    Aggregate,
    Distinct,
    EmptySource,
    Filter,
    FunctionScan,
    HashJoin,
    IndexLookup,
    IndexRangeScan,
    JoinOrderRestore,
    LateralSource,
    Limit,
    NestedLoopJoin,
    PlanNode,
    Project,
    Scan,
    Sort,
    SubqueryScan,
)
from repro.sqldb.planner.predicates import (
    RangeBound,
    collect_refs,
    column_equality,
    conjoin,
    constant_equality,
    constant_range,
    disjoin,
    normalize_dnf,
    split_conjuncts,
)
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.types import SqlType

#: Hash the left input instead when it is estimated this much smaller.
BUILD_FLIP_RATIO = 0.8

#: Marker for an unqualified column name visible from several known relations.
_MULTI = object()

#: Hashability classes: two join key columns may hash-join only when their
#: declared types collapse to the same class (mirrors the executor's
#: heterogeneous ``=`` semantics closely enough to be exact within a class).
_TYPE_CLASS = {
    SqlType.INTEGER: "numeric",
    SqlType.DOUBLE: "numeric",
    SqlType.BOOLEAN: "numeric",  # True == 1 in both hash and naive semantics
    SqlType.TEXT: "text",
    SqlType.TIMESTAMP: "timestamp",
    SqlType.VARIANT: None,  # per-row types vary: never safe to hash
}


@dataclass
class _Scope:
    """What the planner statically knows about a SELECT's FROM clause.

    ``tables`` maps each known relation's label to its schema: base tables
    and non-LATERAL calls of fully typed table functions.  Only base tables
    are in ``table_names``, so only they reach index choice, statistics and
    the bounds copied across equi-joins.
    """

    tables: Dict[str, object] = dataclass_field(default_factory=dict)  # alias -> TableSchema
    table_names: Dict[str, str] = dataclass_field(default_factory=dict)  # alias -> table name
    labels: Set[str] = dataclass_field(default_factory=set)
    has_unknown: bool = False
    unqualified: Dict[str, object] = dataclass_field(default_factory=dict)
    #: Labels predicates may NOT be pushed into: the nullable side of a LEFT
    #: JOIN (pushdown would suppress null-extension filtering) and anything
    #: inside a LATERAL item (re-expanded per row by the executor).
    unpushable: Set[str] = dataclass_field(default_factory=set)

    def resolve_column(self, ref: ColumnRef) -> Optional[Tuple[str, object]]:
        """Resolve a column ref to ``(alias, TableSchema)`` of a known relation."""
        if ref.table is not None:
            schema = self.tables.get(ref.table)
            if schema is not None and schema.has_column(ref.name):
                return ref.table, schema
            return None
        if self.has_unknown:
            return None
        owner = self.unqualified.get(ref.name)
        if owner is None or owner is _MULTI:
            return None
        return owner, self.tables[owner]


def _item_is_lateral(item: FromItem) -> bool:
    if isinstance(item, (FunctionRef, SubqueryRef)):
        return item.lateral
    if isinstance(item, Join):
        return _item_is_lateral(item.left) or _item_is_lateral(item.right)
    return False


def _item_label(item: FromItem) -> Optional[str]:
    if isinstance(item, TableRef):
        return (item.alias or item.name).lower()
    if isinstance(item, FunctionRef):
        return (item.alias or item.call.name).lower()
    if isinstance(item, SubqueryRef):
        return (item.alias or "subquery").lower()
    return None


def _function_relation(item: FunctionRef, label: str, database) -> Optional[TableSchema]:
    """The output schema of a call to a fully typed table UDF, or None.

    Column names follow the executor: ``AS f(a, b)`` renames the columns
    and a one-column function aliased ``AS f`` is named ``f``.  A call with
    an alias count the executor will refuse, or with duplicate output
    names, stays unknown.
    """
    udf = database.udfs.table(item.call.name)
    if udf is None or not udf.typed:
        return None
    names = list(udf.columns)
    if item.column_aliases:
        names = [name.lower() for name in item.column_aliases]
    elif item.alias and len(names) == 1:
        names = [label]
    if len(names) != len(udf.columns) or len(set(names)) != len(names):
        return None
    return TableSchema(
        name=label,
        columns=[ColumnDefinition(name, sql_type) for name, sql_type in zip(names, udf.column_types)],
    )


def _collect_scope(from_items: List[FromItem], database) -> _Scope:
    scope = _Scope()

    def walk(item: FromItem, lateral: bool, nullable: bool) -> None:
        if isinstance(item, Join):
            walk(item.left, lateral, nullable)
            walk(item.right, lateral, nullable or item.kind == "left")
            return
        label = _item_label(item)
        if label is not None:
            scope.labels.add(label)
            if lateral or nullable:
                scope.unpushable.add(label)
        if isinstance(item, TableRef) and not lateral:
            scope.tables[label] = database.table(item.name).schema
            scope.table_names[label] = item.name.lower()
            return
        relation = None
        if isinstance(item, FunctionRef) and not lateral:
            relation = _function_relation(item, label, database)
        if relation is None:
            scope.has_unknown = True
        else:
            scope.tables[label] = relation

    for item in from_items:
        walk(item, _item_is_lateral(item), False)

    for alias, schema in scope.tables.items():
        for column in schema.column_names:
            if column in scope.unqualified and scope.unqualified[column] != alias:
                scope.unqualified[column] = _MULTI
            else:
                scope.unqualified[column] = alias
    return scope


# --------------------------------------------------------------------------- #
# Predicate attribution
# --------------------------------------------------------------------------- #
_RESIDUAL = object()


def _attribute(conjunct: Expression, scope: _Scope) -> object:
    """Decide which FROM item a conjunct can be evaluated on (or residual)."""
    info = collect_refs(conjunct)
    if info.has_subquery or info.has_star:
        return _RESIDUAL
    aliases: Set[str] = set()
    for qualifier in info.qualified:
        if qualifier in scope.labels:
            aliases.add(qualifier)
        # References to labels outside the scope are outer-correlated and do
        # not pin the conjunct to a local FROM item.
    for name in info.unqualified:
        if scope.has_unknown:
            return _RESIDUAL
        owner = scope.unqualified.get(name)
        if owner is _MULTI:
            return _RESIDUAL
        if owner is not None:
            aliases.add(owner)
    if len(aliases) == 1:
        return aliases.pop()
    return _RESIDUAL


def _pushdown(
    where: Optional[Expression], scope: _Scope, single_table_label: Optional[str]
) -> Tuple[Dict[str, List[Expression]], Dict[str, bool], List[Expression]]:
    """Split WHERE into per-item pushed conjunct lists and residual conjuncts.

    Returns ``(pushed, derived_flags, residual)`` where ``derived_flags[alias]``
    says the pushed predicate is a *derived* OR (the residual then keeps the
    full WHERE for exactness).  Only a single-group (pure conjunction) WHERE
    yields more than one residual entry; join-condition extraction
    (:func:`_attach_equi_conditions`) relies on that.
    """
    if where is None:
        return {}, {}, []

    groups = normalize_dnf(where)
    if groups is None:
        return {}, {}, [where]

    if len(groups) == 1:
        conjuncts = groups[0]
        pushed: Dict[str, List[Expression]] = {}
        residual: List[Expression] = []
        for conjunct in conjuncts:
            target = _attribute(conjunct, scope)
            if target is _RESIDUAL and single_table_label is not None:
                info = collect_refs(conjunct)
                if not info.has_subquery and not info.has_star:
                    target = single_table_label
            if target is _RESIDUAL or target in scope.unpushable:
                residual.append(conjunct)
            else:
                pushed.setdefault(target, []).append(conjunct)
        return pushed, {}, residual

    # OR of groups: push the derived per-item predicate when every group
    # constrains the item, and keep the full WHERE as the residual filter.
    pushed = {}
    derived: Dict[str, bool] = {}
    for alias in scope.labels - scope.unpushable:
        per_group: List[Expression] = []
        for group in groups:
            mine = [c for c in group if _attribute(c, scope) == alias]
            if not mine:
                per_group = []
                break
            per_group.append(conjoin(mine))
        if per_group:
            pushed[alias] = [disjoin(per_group)]
            derived[alias] = True
    return pushed, derived, [where]


# --------------------------------------------------------------------------- #
# Bounds implied across equi-joins
# --------------------------------------------------------------------------- #
def _inner_on_conjuncts(item: FromItem) -> List[Expression]:
    """The conjuncts of every inner join's ON condition inside ``item``."""
    if not isinstance(item, Join):
        return []
    conjuncts = _inner_on_conjuncts(item.left) + _inner_on_conjuncts(item.right)
    if item.kind == "inner":
        conjuncts += split_conjuncts(item.condition)
    return conjuncts


def _retarget(conjunct: Expression, column: ColumnRef, target: ColumnRef) -> Expression:
    """``conjunct`` (a constant equality or range over ``column``) with
    ``target`` in place of ``column``."""
    if isinstance(conjunct, Between):
        return Between(operand=target, low=conjunct.low, high=conjunct.high)
    if conjunct.left is column:
        return BinaryOp(op=conjunct.op, left=target, right=conjunct.right)
    return BinaryOp(op=conjunct.op, left=conjunct.left, right=target)


def _implied_conjuncts(statement: SelectStatement, scope: _Scope) -> Dict[str, List[Expression]]:
    """Copies of WHERE's ``col op const/$n`` conjuncts across equi-joins,
    per FROM label (``op``: ``=``, ``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``).

    Given ``a.c = b.d`` - from WHERE or an inner join's ON, over base-table
    columns of one SQL type other than variant - every result row that
    satisfies ``a.c op v`` also satisfies ``b.d op v``, so a ``b`` row
    failing the copy joins no result row.  The copy may therefore narrow
    ``b``'s index key, as in ``meas m JOIN sim s ON s.time = m.time WHERE
    m.time BETWEEN $1 AND $2``.  Only a pure-conjunction WHERE is mined,
    and nothing is copied onto a LEFT JOIN's nullable side or a LATERAL
    item.  Table-function columns take no part: their types are declared,
    not enforced on every row.
    """
    if len(scope.table_names) < 2:
        return {}
    groups = normalize_dnf(statement.where)
    if groups is None or len(groups) != 1:
        return {}
    where = groups[0]
    on = [c for item in statement.from_items for c in _inner_on_conjuncts(item)]
    links: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for conjunct in where + on:
        match = column_equality(conjunct)
        if match is None:
            continue
        ends = [scope.resolve_column(ref) for ref in match]
        if (
            ends[0] is None
            or ends[1] is None
            or ends[0][0] == ends[1][0]
            or not {ends[0][0], ends[1][0]} <= scope.table_names.keys()
        ):
            continue
        sql_type = ends[0][1].column(match[0].name).sql_type
        if _TYPE_CLASS.get(sql_type) is None or ends[1][1].column(match[1].name).sql_type != sql_type:
            continue
        first, second = (ends[0][0], match[0].name), (ends[1][0], match[1].name)
        links.setdefault(first, []).append(second)
        links.setdefault(second, []).append(first)
    implied: Dict[str, List[Expression]] = {}
    if not links:
        return implied
    for conjunct in where:
        match = constant_equality(conjunct) or constant_range(conjunct)
        if match is None:
            continue
        column = match[0]
        owner = scope.resolve_column(column)
        if owner is None:
            continue
        for label, name in links.get((owner[0], column.name), ()):
            if label not in scope.unpushable:
                copy = _retarget(conjunct, column, ColumnRef(name=name, table=label))
                implied.setdefault(label, []).append(copy)
    return implied


# --------------------------------------------------------------------------- #
# Scan construction with index selection
# --------------------------------------------------------------------------- #
def _equalities(
    schema, conjuncts: List[Expression], label: str
) -> Dict[str, Tuple[Expression, Expression]]:
    """``column -> (conjunct, value)`` for the first ``col = const/param``
    conjunct on each column of this scan whose type the index key
    classification understands (a hashable class, or ``bytea``)."""
    equalities: Dict[str, Tuple[Expression, Expression]] = {}
    for conjunct in conjuncts:
        match = constant_equality(conjunct)
        if match is None:
            continue
        column, value = match
        if column.table is not None and column.table != label:
            continue
        if not schema.has_column(column.name) or column.name in equalities:
            continue
        sql_type = schema.column(column.name).sql_type
        if _TYPE_CLASS.get(sql_type) is None and sql_type is not SqlType.BYTEA:
            continue
        equalities[column.name] = (conjunct, value)
    return equalities


def choose_point_index(
    table, conjuncts: List[Expression], label: str
) -> Optional[Tuple[str, List[str], List[Expression], List[Expression]]]:
    """Pick an index satisfiable by ``col = const/param`` conjuncts.

    Returns ``(index_name, key_columns, key_exprs, consumed_conjuncts)``
    or None when no index covers the conjuncts.  A fully bound primary key
    (``<table>_pkey``) beats every other index.
    """
    schema = table.schema
    equalities = _equalities(schema, conjuncts, label)

    def usable(columns: List[str]) -> bool:
        return bool(columns) and all(column in equalities for column in columns)

    index_name = None
    key_columns: List[str] = []
    if usable(schema.primary_key):
        index_name = table.primary_index_name
        key_columns = list(schema.primary_key)
    else:
        for index in table.indexes.values():
            if usable(index.columns) and len(index.columns) > len(key_columns):
                index_name = index.name
                key_columns = list(index.columns)

    if index_name is None:
        return None
    return (
        index_name,
        key_columns,
        [equalities[column][1] for column in key_columns],
        [equalities[column][0] for column in key_columns],
    )


def _column_ranges(
    conjuncts: List[Expression], label: str
) -> Dict[str, Tuple[Optional[RangeBound], Optional[RangeBound], List[Expression]]]:
    """``column -> (lower, upper, consumed)``: per column, the first bound
    of each side in conjunct order (further range conjuncts stay residual)."""
    ranges: Dict[str, Tuple[Optional[RangeBound], Optional[RangeBound], List[Expression]]] = {}
    for conjunct in conjuncts:
        match = constant_range(conjunct)
        if match is None:
            continue
        column, bounds = match
        if column.table is not None and column.table != label:
            continue
        lower, upper, consumed = ranges.get(column.name, (None, None, []))
        if any(
            (bound.side == "lower" and lower is not None)
            or (bound.side == "upper" and upper is not None)
            for bound in bounds
        ):
            continue
        for bound in bounds:
            if bound.side == "lower":
                lower = bound
            else:
                upper = bound
        ranges[column.name] = (lower, upper, consumed + [conjunct])
    return ranges


def choose_range_index(
    table, conjuncts: List[Expression], label: str, alias: Optional[str] = None
) -> Optional[Tuple[IndexRangeScan, List[Expression]]]:
    """Pick the ordered (B-tree) index walk that consumes the most conjuncts.

    An index qualifies with an equality prefix on its leading columns, a
    range (``BETWEEN``/``<``/``>``) on the column after the prefix, or both;
    ties go to the index created first.  Returns the walk and the conjuncts
    it consumes, or None when no index qualifies.  A walk with an equality
    prefix never leaves the prefix's run of keys, so it is always taken.
    Without one, statistics may veto it: when the literal interval keeps
    more than :data:`~repro.sqldb.planner.cost.RANGE_SCAN_THRESHOLD` of the
    table a sequential scan is cheaper than walk-plus-resort.  A bound that
    is not a plan-time literal (``$n``, a cast) keeps the index: the
    :class:`~repro.sqldb.planner.nodes.IndexRangeScan` then applies the
    width rule to the bound values on each execution.
    """
    equalities = _equalities(table.schema, conjuncts, label)
    ranges = _column_ranges(conjuncts, label)
    best = None
    best_score = 0
    for index in table.indexes.values():
        if index.kind != "btree":
            continue
        width = 0
        while width < len(index.columns) - 1 and index.columns[width] in equalities:
            width += 1
        lower, upper, consumed = ranges.get(index.columns[width], (None, None, []))
        score = width + int(lower is not None) + int(upper is not None)
        if score > best_score:
            best_score = score
            best = (index, width, lower, upper, consumed)
    if best is None:
        return None
    index, width, lower, upper, consumed = best
    prefix = index.columns[:width]
    column = index.columns[width]

    bounds = [bound for bound in (lower, upper) if bound is not None]
    if (
        not prefix
        and table.stats is not None
        and all(cost.literal_value(bound.expr)[1] for bound in bounds)
    ):
        fraction = cost.range_fraction(table.stats, ColumnRef(name=column), bounds, label)
        if fraction > cost.RANGE_SCAN_THRESHOLD:
            return None
    walk = IndexRangeScan(
        table_name=table.name,
        alias=alias,
        index_name=index.name,
        column=column,
        prefix_columns=prefix,
        prefix_exprs=[equalities[c][1] for c in prefix],
        lower=lower.expr if lower is not None else None,
        lower_inclusive=lower.inclusive if lower is not None else True,
        lower_between=lower.from_between if lower is not None else False,
        upper=upper.expr if upper is not None else None,
        upper_inclusive=upper.inclusive if upper is not None else True,
        upper_between=upper.from_between if upper is not None else False,
    )
    return walk, [equalities[c][0] for c in prefix] + consumed


def index_access_path(
    table, conjuncts: List[Expression], label: str, alias: Optional[str] = None
) -> Optional[Tuple[PlanNode, List[Expression]]]:
    """The index leaf that answers a conjunction and the conjuncts it
    consumes, or None for a scan.

    A primary-key point lookup always wins.  Otherwise the declared index
    whose columns are all equality-bound is looked up, unless the
    ordered-index walk of :func:`choose_range_index` dominates it: its
    equality prefix covers every column of the lookup's index (so it
    visits a subset of the lookup's rows) and it consumes strictly more
    conjuncts.  ``house = $1 AND time >= $2`` thus walks ``<table>_pkey``
    rather than filtering all of the house's rows from a hash index on
    ``house``.  Shared by SELECT scan planning and the executor's
    UPDATE/DELETE routing.
    """
    choice = choose_point_index(table, conjuncts, label)
    if choice is None:
        return choose_range_index(table, conjuncts, label, alias)
    index_name, key_columns, key_exprs, consumed = choice
    if index_name != table.primary_index_name:
        walk = choose_range_index(table, conjuncts, label, alias)
        if (
            walk is not None
            and set(key_columns) <= set(walk[0].prefix_columns)
            and len(walk[1]) > len(consumed)
        ):
            return walk
    lookup = IndexLookup(
        table_name=table.name,
        alias=alias,
        index_name=index_name,
        key_columns=key_columns,
        key_exprs=key_exprs,
    )
    return lookup, consumed


def _build_table_scan(
    item: TableRef,
    database,
    conjuncts: List[Expression],
    derived: bool,
    label: str,
    implied: List[Expression],
) -> PlanNode:
    """One base table's leaf: a scan, or the index leaf for its conjuncts.

    ``implied`` conjuncts (see :func:`_implied_conjuncts`) only steer the
    index choice: one the leaf consumes narrows its key (and its row
    estimate), and the rest are dropped.  Neither the residual nor the
    full-scan fallback evaluates them, so they never decide a row the
    original WHERE would not.
    """
    table = database.table(item.name)
    if not conjuncts and not implied:
        return Scan(table_name=item.name.lower(), alias=item.alias)
    predicate = conjoin(conjuncts)
    # Derived OR predicates are relaxations, not conjunctions: no index.
    access = (
        None if derived else index_access_path(table, conjuncts + implied, label, item.alias)
    )
    if access is None:
        return Scan(table_name=item.name.lower(), alias=item.alias, predicate=predicate)
    node, consumed_conjuncts = access
    consumed = {id(conjunct) for conjunct in consumed_conjuncts}
    node.residual = conjoin([c for c in conjuncts if id(c) not in consumed])
    node.full_predicate = predicate
    node.copied = [c for c in implied if id(c) in consumed]
    return node


# --------------------------------------------------------------------------- #
# Join tree construction and hash-join rewriting
# --------------------------------------------------------------------------- #
def _build_item(
    item: FromItem,
    database,
    pushed: Dict[str, List[Expression]],
    derived: Dict[str, bool],
    implied: Dict[str, List[Expression]],
) -> PlanNode:
    label = _item_label(item)
    conjuncts = pushed.get(label, []) if label is not None else []
    if isinstance(item, TableRef):
        return _build_table_scan(
            item, database, conjuncts, derived.get(label, False), label, implied.get(label, [])
        )
    if isinstance(item, FunctionRef):
        node: PlanNode = FunctionScan(item=item)
    elif isinstance(item, SubqueryRef):
        subplan = None
        try:
            subplan = database.plan_select(item.select)
        except Exception:
            subplan = None
        node = SubqueryScan(item=item, subplan=subplan)
    elif isinstance(item, Join):
        left = _build_item(item.left, database, pushed, derived, implied)
        right = _build_item(item.right, database, pushed, derived, implied)
        return NestedLoopJoin(left=left, right=right, kind=item.kind, condition=item.condition)
    else:
        raise TypeError(f"unsupported FROM item: {type(item).__name__}")
    predicate = conjoin(conjuncts)
    if predicate is not None:
        node = Filter(child=node, predicate=predicate)
    return node


def _plan_aliases(node: PlanNode) -> Optional[Set[str]]:
    """All FROM labels produced by a subtree, or None when any is unknown."""
    if isinstance(node, (Scan, IndexLookup, IndexRangeScan)):
        return {node.label}
    if isinstance(node, (FunctionScan, SubqueryScan)):
        label = _item_label(node.item)
        return {label} if label is not None else None
    if isinstance(node, LateralSource):
        label = _item_label(node.item)
        return {label} if label is not None else None
    if isinstance(node, Filter):
        return _plan_aliases(node.child)
    if isinstance(node, (NestedLoopJoin, HashJoin)):
        left = _plan_aliases(node.left)
        right = _plan_aliases(node.right)
        if left is None or right is None:
            return None
        return left | right
    return None


#: One hash-join key pair: ``(left_key, right_key, left_check, right_check)``,
#: where a check is the declared type a table-function key's values must
#: fit (None for a base-table column, whose values are coerced on write).
_KeyPair = Tuple[Expression, Expression, Optional[SqlType], Optional[SqlType]]


def _cross_side_equality(
    conjunct: Expression,
    scope: _Scope,
    left_aliases: Set[str],
    right_aliases: Set[str],
) -> Optional[_KeyPair]:
    """Match a hash-join-eligible equality across two subtrees.

    Returns the key pair when the conjunct is ``column = column`` over
    known relations (base tables, typed table functions) on opposite sides
    with hash-compatible declared types; None otherwise.
    """
    match = column_equality(conjunct)
    if match is None:
        return None
    labels, classes, checks = [], [], []
    for ref in match:
        owner = scope.resolve_column(ref)
        if owner is None:
            return None
        sql_type = owner[1].column(ref.name).sql_type
        labels.append(owner[0])
        classes.append(_TYPE_CLASS.get(sql_type))
        checks.append(None if owner[0] in scope.table_names else sql_type)
    if classes[0] is None or classes[0] != classes[1]:
        return None
    first, second = match
    if labels[0] in left_aliases and labels[1] in right_aliases:
        return first, second, checks[0], checks[1]
    if labels[0] in right_aliases and labels[1] in left_aliases:
        return second, first, checks[1], checks[0]
    return None


def _attach_equi_conditions(
    node: PlanNode, conjuncts: List[Expression], scope: _Scope
) -> List[Expression]:
    """Move residual equi-conjuncts into comma-join (cross) nodes.

    ``FROM a, b WHERE a.x = b.x`` builds a cross join with the equality in
    the residual filter; relocating the (hash-eligible) equality onto the
    join turns it into an inner join the hash-join rewrite can convert.
    Only sound for a pure-conjunction WHERE, which is the only shape that
    produces multiple residual entries (see :func:`_pushdown`).  Returns the
    conjuncts that stay residual.
    """
    if not isinstance(node, NestedLoopJoin) or node.lateral:
        return conjuncts
    conjuncts = _attach_equi_conditions(node.left, conjuncts, scope)
    conjuncts = _attach_equi_conditions(node.right, conjuncts, scope)
    if node.kind != "cross" or node.condition is not None or not conjuncts:
        return conjuncts
    left_aliases = _plan_aliases(node.left)
    right_aliases = _plan_aliases(node.right)
    if left_aliases is None or right_aliases is None:
        return conjuncts
    taken = [
        c for c in conjuncts
        if _cross_side_equality(c, scope, left_aliases, right_aliases) is not None
    ]
    if taken:
        node.kind = "inner"
        node.condition = conjoin(taken)
        taken_ids = {id(c) for c in taken}
        conjuncts = [c for c in conjuncts if id(c) not in taken_ids]
    return conjuncts


def _hash_join_rewrite(node: PlanNode, scope: _Scope) -> PlanNode:
    if isinstance(node, Filter):
        node.child = _hash_join_rewrite(node.child, scope)
        return node
    if not isinstance(node, NestedLoopJoin):
        return node
    node.left = _hash_join_rewrite(node.left, scope)
    node.right = _hash_join_rewrite(node.right, scope)
    if node.lateral or node.kind not in ("inner", "left") or node.condition is None:
        return node
    left_aliases = _plan_aliases(node.left)
    right_aliases = _plan_aliases(node.right)
    if left_aliases is None or right_aliases is None:
        return node

    pairs: List[_KeyPair] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(node.condition):
        keys = _cross_side_equality(conjunct, scope, left_aliases, right_aliases)
        if keys is not None:
            pairs.append(keys)
        else:
            residual.append(conjunct)

    if not pairs:
        return node
    left_keys, right_keys, left_checks, right_checks = (list(part) for part in zip(*pairs))
    return HashJoin(
        left=node.left,
        right=node.right,
        kind=node.kind,
        left_keys=left_keys,
        right_keys=right_keys,
        residual=conjoin(residual),
        left_checks=left_checks,
        right_checks=right_checks,
    )


# --------------------------------------------------------------------------- #
# Cost-based join reordering
# --------------------------------------------------------------------------- #
def _cost_join_order(
    from_items: List[FromItem],
    scope: _Scope,
    pushed: Dict[str, List[Expression]],
    residual_conjuncts: List[Expression],
    database,
) -> Optional[List[str]]:
    """A better-than-declared join order for a comma-join, or None.

    Only pure comma-joins of uniquely-labelled plain tables qualify (the
    order-restoring sort needs an ordinal tag per FROM item and inner/cross
    semantics), and only when *every* table has statistics - a partially
    analyzed schema keeps the declared order rather than guessing.
    """
    if len(from_items) < 2:
        return None
    if not all(isinstance(item, TableRef) for item in from_items):
        return None
    labels = [_item_label(item) for item in from_items]
    if len(set(labels)) != len(labels):
        return None

    estimates: Dict[str, int] = {}
    for item, label in zip(from_items, labels):
        stats = database.table(item.name).stats
        estimate = cost.estimate_filtered_rows(stats, pushed.get(label, []), label)
        if estimate is None:
            return None
        estimates[label] = estimate

    edges: Dict[frozenset, float] = {}
    for conjunct in residual_conjuncts:
        match = column_equality(conjunct)
        if match is None:
            continue
        first_owner = scope.resolve_column(match[0])
        second_owner = scope.resolve_column(match[1])
        if first_owner is None or second_owner is None:
            continue
        if first_owner[0] == second_owner[0]:
            continue
        ndvs = []
        for (alias, _schema), ref in ((first_owner, match[0]), (second_owner, match[1])):
            stats = database.table(scope.table_names[alias]).stats
            column_stats = stats.column(ref.name) if stats is not None else None
            if column_stats is not None and column_stats.n_distinct > 0:
                ndvs.append(column_stats.n_distinct)
        selectivity = 1.0 / max(ndvs) if ndvs else cost.OTHER_DEFAULT
        key = frozenset((first_owner[0], second_owner[0]))
        edges[key] = edges.get(key, 1.0) * selectivity

    order = cost.choose_join_order(labels, estimates, edges)
    return order if order != labels else None


def _choose_build_sides(node: PlanNode) -> None:
    """Hash the estimated-smaller input of each annotated hash join.

    Both execution modes emit identical row order (left-major, right
    insertion order per key), so this is purely a memory/probe-cost call.
    """
    if isinstance(node, HashJoin):
        left_rows = getattr(node.left, "estimated_rows", None)
        right_rows = getattr(node.right, "estimated_rows", None)
        if (
            left_rows is not None
            and right_rows is not None
            and left_rows < right_rows * BUILD_FLIP_RATIO
        ):
            node.build_side = "left"
    for child in node.children():
        _choose_build_sides(child)


# --------------------------------------------------------------------------- #
# ORDER BY via an ordered index
# --------------------------------------------------------------------------- #
def _order_column_for_rewrite(
    statement: SelectStatement, schema, label: str
) -> Optional[str]:
    """The single base-table column an ORDER BY rewrite may sort by, or None.

    Mirrors the executor's ``_order_value`` resolution: an *unqualified*
    name that matches an output-column name sorts by the **first** matching
    projected value, so the rewrite (which sorts by the stored column) is
    only sound when that first output item is the plain column itself.
    """
    if len(statement.order_by) != 1:
        return None
    expr = statement.order_by[0].expr
    if not isinstance(expr, ColumnRef) or not schema.has_column(expr.name):
        return None
    if expr.table is not None:
        return expr.name if expr.table == label else None

    # Statically expand the output-name list the executor would build.
    names: List[str] = []
    exprs: List[Optional[Expression]] = []
    for item in statement.items:
        item_expr = item.expr
        if isinstance(item_expr, Star):
            if item_expr.table is not None and item_expr.table != label:
                return None
            for column in schema.column_names:
                names.append(column)
                exprs.append(ColumnRef(name=column, table=label))
            continue
        if item.alias:
            name = item.alias
        elif isinstance(item_expr, ColumnRef):
            name = item_expr.name
        else:
            name = getattr(item_expr, "name", "?column?")
        names.append(name)
        exprs.append(item_expr)

    lowered = [name.lower() for name in names]
    if expr.name not in lowered:
        return expr.name  # evaluated on the source row: the stored column
    shadow = exprs[lowered.index(expr.name)]
    if (
        isinstance(shadow, ColumnRef)
        and shadow.name == expr.name
        and shadow.table in (None, label)
    ):
        return expr.name
    return None


def _rewrite_order_by_index(
    source: PlanNode, statement: SelectStatement, table, label: str
) -> Optional[PlanNode]:
    """Sort elimination: emit rows in index key order instead of sorting.

    Returns the rewritten source (the Sort node is then never added), or
    None when no B-tree index can produce the requested order.  Only the
    source *leaf* changes; residual Filters above it preserve row order.
    The sort column must be the index's last column, after the walk's
    equality prefix (none for a one-column index): inside the prefix's run
    equal sort values are equal keys, whose rows the tree keeps in storage
    order, as the executor's stable sort does.  A tree with columns after
    the sort column would break those ties by the later columns instead.
    """
    column = _order_column_for_rewrite(statement, table.schema, label)
    if column is None:
        return None
    direction = "asc" if statement.order_by[0].ascending else "desc"

    leaf = source
    filters: List[Filter] = []
    while isinstance(leaf, Filter):
        filters.append(leaf)
        leaf = leaf.child

    if isinstance(leaf, IndexRangeScan):
        columns = leaf.prefix_columns + [column]
        if table.indexes[leaf.index_name].columns != columns or leaf.ordered is not None:
            return None
        rewritten = leaf
    elif isinstance(leaf, Scan):
        index_name = None
        for index in table.indexes.values():
            if index.kind == "btree" and index.columns == [column]:
                index_name = index.name
                break
        if index_name is None:
            return None
        rewritten = IndexRangeScan(
            table_name=leaf.table_name,
            alias=leaf.alias,
            index_name=index_name,
            column=column,
            residual=leaf.predicate,
            full_predicate=leaf.predicate,
        )
    else:
        return None  # point lookups emit too few rows for ordering to pay off

    rewritten.ordered = direction
    if statement.limit is not None and not filters:
        # The top-k early exit is only safe when no filter sits above the
        # leaf (residual conjuncts inside the leaf are fine: the limit
        # counter runs after them).
        rewritten.hint_limit = statement.limit
        rewritten.hint_offset = statement.offset

    if filters:
        filters[-1].child = rewritten
        return filters[0]
    return rewritten


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def build_select_plan(statement: SelectStatement, database) -> PlanNode:
    """Plan one SELECT: source tree with pushdown, then the output pipeline."""
    from_items = statement.from_items

    scope = _collect_scope(from_items, database)
    single_table_label = None
    if len(from_items) == 1 and isinstance(from_items[0], TableRef):
        single_table_label = _item_label(from_items[0])

    pushed, derived, residual_conjuncts = _pushdown(
        statement.where, scope, single_table_label
    )

    cost_order = _cost_join_order(
        from_items, scope, pushed, residual_conjuncts, database
    )
    implied = _implied_conjuncts(statement, scope)

    source: Optional[PlanNode] = None
    if cost_order is not None:
        declared = [_item_label(item) for item in from_items]
        item_by_label = {label: item for label, item in zip(declared, from_items)}
        for label in cost_order:
            node = _build_item(item_by_label[label], database, pushed, derived, implied)
            node.ordinal_label = label
            if source is None:
                source = node
            else:
                source = NestedLoopJoin(left=source, right=node, kind="cross")
    else:
        for item in from_items:
            if _item_is_lateral(item):
                right: PlanNode = LateralSource(item=item)
                lateral = True
            else:
                right = _build_item(item, database, pushed, derived, implied)
                lateral = False
            if source is None:
                if lateral:
                    source = NestedLoopJoin(
                        left=EmptySource(), right=right, kind="cross", lateral=True
                    )
                else:
                    source = right
            else:
                source = NestedLoopJoin(
                    left=source, right=right, kind="cross", lateral=lateral
                )
    if source is None:
        source = EmptySource()

    residual_conjuncts = _attach_equi_conditions(source, residual_conjuncts, scope)
    source = _hash_join_rewrite(source, scope)
    if cost_order is not None:
        source = JoinOrderRestore(child=source, labels=declared)

    residual = conjoin(residual_conjuncts)
    if residual is not None:
        source = Filter(child=source, predicate=residual)

    aggregates = []
    for item in statement.items:
        aggregates.extend(collect_aggregates(item.expr))
    aggregates.extend(collect_aggregates(statement.having))
    for order in statement.order_by:
        aggregates.extend(collect_aggregates(order.expr))

    order_rewritten = False
    if (
        statement.order_by
        and single_table_label is not None
        and not aggregates
        and not statement.group_by
        and statement.having is None
        and not statement.distinct
    ):
        table = database.table(from_items[0].name)
        rewritten = _rewrite_order_by_index(
            source, statement, table, single_table_label
        )
        if rewritten is not None:
            source = rewritten
            order_rewritten = True

    if statement.group_by or aggregates:
        output: PlanNode = Aggregate(child=source, statement=statement, aggregates=aggregates)
    else:
        output = Project(child=source, items=statement.items)

    if statement.distinct:
        output = Distinct(child=output)

    if statement.order_by and not order_rewritten:
        output = Sort(
            child=output,
            order_by=statement.order_by,
            topk_limit=statement.limit,
            topk_offset=statement.offset if statement.limit is not None else None,
        )

    if statement.limit is not None or statement.offset is not None:
        output = Limit(child=output, limit=statement.limit, offset=statement.offset)

    cost.annotate_plan(output, database)
    _choose_build_sides(output)
    return output
