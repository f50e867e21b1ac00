"""Selectivity-based cardinality estimation over ANALYZE statistics.

The cost model is deliberately textbook (System R heuristics over the
per-column statistics :class:`~repro.sqldb.stats.TableStats` collects):

* ``col = const``            -> ``1 / n_distinct``
* ``col IN (k items)``       -> ``k / n_distinct``
* ``col IS [NOT] NULL``      -> null fraction (or its complement)
* range over ``[min, max]``  -> clipped interval fraction when the bounds
  are plan-time literals over a numeric column, else 1/3 (a ``$n`` bound is
  re-estimated from its value when the statement executes)
* anything else              -> 1/2
* equi-join                  -> ``|L| * |R| / max(ndv(l), ndv(r))``

Estimates are **advisory**: they pick the hash-join build side, the join
order, and scan-vs-index access, and they annotate EXPLAIN output, but
execution is always exact.  A table that was never ``ANALYZE``-d simply
yields ``None`` estimates and the planner stays purely rule-based.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sqldb.ast_nodes import (
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sqldb.planner.predicates import (
    RangeBound,
    constant_equality,
    constant_range,
    split_conjuncts,
)

#: Fallback selectivities when statistics cannot resolve a conjunct.
EQ_DEFAULT = 0.1
RANGE_DEFAULT = 1.0 / 3.0
OTHER_DEFAULT = 0.5

#: Estimated range fraction above which a sequential scan beats the B-tree
#: walk (index gives no locality here: positions are re-sorted anyway).
#: The planner applies it to literal bounds, the executor to bound values.
RANGE_SCAN_THRESHOLD = 0.3


def literal_value(expr: Expression) -> Tuple[object, bool]:
    """Evaluate a plan-time literal (unary minus allowed): ``(value, known)``."""
    if isinstance(expr, Literal):
        return expr.value, True
    if isinstance(expr, UnaryOp) and expr.op == "-":
        value, known = literal_value(expr.operand)
        if known and isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value, True
    return None, False


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        number = float(value)
        return None if number != number else number  # NaN is not a bound
    return None


def _column_stats(stats, column: ColumnRef, label: str):
    """Column statistics for a ref that targets this scan's label, or None."""
    if stats is None:
        return None
    if column.table is not None and column.table != label:
        return None
    return stats.column(column.name)


def range_fraction(
    stats, column: ColumnRef, bounds: List[RangeBound], label: str
) -> float:
    """Estimated fraction of rows inside a range predicate's interval.

    Only plan-time literal bounds are estimated; a ``$n``, cast or other
    bound known only at execution falls back to :data:`RANGE_DEFAULT` here,
    and the executor re-estimates it with :func:`interval_fraction` once its
    value is known.
    """
    low = high = None
    for bound in bounds:
        value, known = literal_value(bound.expr)
        if not known or value is None:
            return RANGE_DEFAULT
        if bound.side == "lower":
            low = value
        else:
            high = value
    return interval_fraction(_column_stats(stats, column, label), low, high)


def interval_fraction(column_stats, low: object, high: object) -> float:
    """Fraction of a column's ``[min, max]`` statistics span inside ``[low, high]``.

    ``None`` leaves a side open.  Exact interval arithmetic needs numeric
    bounds *and* numeric min/max statistics; anything else falls back to
    :data:`RANGE_DEFAULT`.
    """
    if column_stats is None:
        return RANGE_DEFAULT
    lo_stat = _numeric(column_stats.min_value)
    hi_stat = _numeric(column_stats.max_value)
    if lo_stat is None or hi_stat is None:
        return RANGE_DEFAULT

    lower, upper = lo_stat, hi_stat
    if low is not None:
        number = _numeric(low)
        if number is None:
            return RANGE_DEFAULT
        lower = max(lower, number)
    if high is not None:
        number = _numeric(high)
        if number is None:
            return RANGE_DEFAULT
        upper = min(upper, number)

    if upper < lower:
        return 0.0
    width = hi_stat - lo_stat
    if width <= 0:
        return 1.0  # single-valued column: the interval either hits or missed
    return max(0.0, min(1.0, (upper - lower) / width))


def conjunct_selectivity(stats, conjunct: Expression, label: str) -> float:
    """Estimated fraction of rows one pushed conjunct keeps."""
    equality = constant_equality(conjunct)
    if equality is not None:
        column, _value = equality
        column_stats = _column_stats(stats, column, label)
        if column_stats is not None and column_stats.n_distinct > 0:
            return 1.0 / column_stats.n_distinct
        return EQ_DEFAULT

    range_match = constant_range(conjunct)
    if range_match is not None:
        column, bounds = range_match
        return range_fraction(stats, column, bounds, label)

    if isinstance(conjunct, IsNull) and isinstance(conjunct.operand, ColumnRef):
        column_stats = _column_stats(stats, conjunct.operand, label)
        if column_stats is not None and stats.row_count > 0:
            null_fraction = min(1.0, column_stats.null_count / stats.row_count)
            return 1.0 - null_fraction if conjunct.negated else null_fraction
        return OTHER_DEFAULT

    if (
        isinstance(conjunct, InList)
        and not conjunct.negated
        and conjunct.subquery is None
        and isinstance(conjunct.operand, ColumnRef)
    ):
        column_stats = _column_stats(stats, conjunct.operand, label)
        if column_stats is not None and column_stats.n_distinct > 0:
            return min(1.0, len(conjunct.items) / column_stats.n_distinct)
        return min(1.0, len(conjunct.items) * EQ_DEFAULT)

    return OTHER_DEFAULT


def estimate_filtered_rows(
    stats, conjuncts: List[Expression], label: str
) -> Optional[int]:
    """Estimated rows a scan emits after its pushed conjuncts (None = no stats)."""
    if stats is None:
        return None
    selectivity = 1.0
    for conjunct in conjuncts:
        selectivity *= conjunct_selectivity(stats, conjunct, label)
    return _clamp_rows(stats.row_count * selectivity, stats.row_count)


def _clamp_rows(estimate: float, ceiling: Optional[int] = None) -> int:
    rows = int(round(estimate))
    if ceiling is not None:
        rows = min(rows, ceiling)
    return max(0, rows)


# --------------------------------------------------------------------------- #
# Plan annotation
# --------------------------------------------------------------------------- #
def annotate_plan(plan, database) -> Optional[int]:
    """Bottom-up cardinality annotation; returns the root's estimate.

    Sets ``estimated_rows`` on every Scan / IndexLookup / IndexRangeScan /
    HashJoin node whose inputs have statistics, and leaves the field ``None``
    (no EXPLAIN suffix) everywhere else - a never-ANALYZE-d database renders
    byte-identical plans to the pre-cost-model engine.
    """
    from repro.sqldb.planner.nodes import (
        Aggregate,
        Distinct,
        Filter,
        HashJoin,
        IndexLookup,
        IndexRangeScan,
        JoinOrderRestore,
        Limit,
        NestedLoopJoin,
        Project,
        Scan,
        Sort,
    )

    alias_stats: Dict[str, object] = {}
    alias_schema: Dict[str, object] = {}

    def collect(node) -> None:
        if isinstance(node, (Scan, IndexLookup, IndexRangeScan)):
            try:
                table = database.table(node.table_name)
            except Exception:
                return
            alias_stats[node.label] = table.stats
            alias_schema[node.label] = table.schema
        for child in node.children():
            collect(child)

    collect(plan)

    def column_ndv(ref: Expression) -> Optional[int]:
        if not isinstance(ref, ColumnRef):
            return None
        if ref.table is not None:
            stats = alias_stats.get(ref.table)
        else:
            owners = [
                alias
                for alias, schema in alias_schema.items()
                if schema.has_column(ref.name)
            ]
            stats = alias_stats.get(owners[0]) if len(owners) == 1 else None
        if stats is None:
            return None
        column_stats = stats.column(ref.name)
        if column_stats is None or column_stats.n_distinct <= 0:
            return None
        return column_stats.n_distinct

    def join_estimate(node, left: Optional[int], right: Optional[int]) -> Optional[int]:
        if left is None or right is None:
            return None
        ndvs = [
            ndv
            for pair in zip(node.left_keys, node.right_keys)
            for ndv in [column_ndv(pair[0]), column_ndv(pair[1])]
            if ndv is not None
        ]
        denominator = max(ndvs) if ndvs else max(1, min(left, right))
        estimate = left * right / max(1, denominator)
        if getattr(node, "residual", None) is not None:
            estimate *= OTHER_DEFAULT
        if node.kind == "left":
            estimate = max(estimate, left)
        return _clamp_rows(estimate)

    def visit(node) -> Optional[int]:
        if isinstance(node, Scan):
            stats = alias_stats.get(node.label)
            node.estimated_rows = estimate_filtered_rows(
                stats, split_conjuncts(node.predicate), node.label
            )
            return node.estimated_rows
        if isinstance(node, (IndexLookup, IndexRangeScan)):
            stats = alias_stats.get(node.label)
            node.estimated_rows = estimate_filtered_rows(
                stats, split_conjuncts(node.full_predicate), node.label
            )
            return node.estimated_rows
        if isinstance(node, HashJoin):
            left = visit(node.left)
            right = visit(node.right)
            node.estimated_rows = join_estimate(node, left, right)
            return node.estimated_rows
        if isinstance(node, NestedLoopJoin):
            left = visit(node.left)
            right = visit(node.right)
            if node.lateral or left is None or right is None:
                return None
            estimate = float(left * right)
            if node.kind != "cross" and node.condition is not None:
                for _ in split_conjuncts(node.condition):
                    estimate *= OTHER_DEFAULT
            if node.kind == "left":
                estimate = max(estimate, left)
            return _clamp_rows(estimate)
        if isinstance(node, Filter):
            child = visit(node.child)
            if child is None:
                return None
            estimate = float(child)
            for _ in split_conjuncts(node.predicate):
                estimate *= OTHER_DEFAULT
            return _clamp_rows(estimate)
        if isinstance(node, (JoinOrderRestore, Project, Sort, Limit)):
            results = [visit(child) for child in node.children()]
            return results[0] if results else None
        if isinstance(node, (Aggregate, Distinct)):
            for child in node.children():
                visit(child)
            return None  # group/dedup cardinality is not modelled
        for child in node.children():
            visit(child)
        return None

    return visit(plan)


# --------------------------------------------------------------------------- #
# Join-order search
# --------------------------------------------------------------------------- #
def choose_join_order(
    labels: List[str],
    estimates: Dict[str, int],
    edges: Dict[frozenset, float],
) -> List[str]:
    """Greedy join-order selection over estimated cardinalities.

    ``estimates`` maps each FROM label to its filtered scan estimate and
    ``edges`` maps ``frozenset({a, b})`` to the equi-join selectivity
    (``1 / max(ndv)``).  Starts from the smallest input, then repeatedly
    joins the table minimizing the running intermediate estimate; declared
    order breaks ties, so the choice is deterministic.
    """
    remaining = list(labels)
    first = min(remaining, key=lambda label: (estimates[label], labels.index(label)))
    order = [first]
    remaining.remove(first)
    current = float(estimates[first])

    while remaining:
        best = None
        best_rows = None
        for label in remaining:
            selectivity = 1.0
            connected = False
            for chosen in order:
                edge = edges.get(frozenset((chosen, label)))
                if edge is not None:
                    selectivity *= edge
                    connected = True
            rows = current * estimates[label] * selectivity
            if not connected:
                rows *= 10.0  # discourage Cartesian hops when a join edge exists
            if best_rows is None or rows < best_rows:
                best, best_rows = label, rows
        order.append(best)
        remaining.remove(best)
        current = max(1.0, best_rows)
    return order
