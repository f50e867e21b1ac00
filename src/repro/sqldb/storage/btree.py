"""Ordered (B+-tree) secondary indexes for range scans and ordered output.

:class:`OrderedIndex` mirrors the interface of the hash-based
:class:`~repro.sqldb.table.SecondaryIndex` (``name``/``columns``/
``positions``/``key_for_row``/``add``/``discard``/``remapped``/``rebuild``/
``lookup``) so the table layer can maintain either kind uniformly, and adds
the ordered operations the planner needs:

* :meth:`OrderedIndex.range_positions` - row positions whose key falls in a
  ``[low, high]`` interval (either bound optional/exclusive), emitted in key
  order with each key's positions in row order;
* :meth:`OrderedIndex.ordered_positions` - every indexed position in key
  order (ascending or descending), optionally followed by the NULL-key rows,
  which backs ``ORDER BY``/top-k rewrites;
* :meth:`OrderedIndex.verify` - a read-only structural + content audit used
  by the ``VERIFY`` statement.

The tree itself is a small in-memory B+-tree: leaves hold ``key -> [row
positions]`` (each key's positions in ascending row order) and are chained
for in-order iteration; inner nodes hold separator keys.  Single entries
are inserted and removed in place; whole trees (a rebuild from rows, or the
position remap after a DELETE compacts the table) are bulk-loaded bottom-up
from sorted ``(key, positions)`` pairs by :meth:`BTree.from_sorted`.  Node
writes pass through the ``btree.node_write`` chaos point
(:mod:`repro.faults`) so the fault harness can prove a failed index write
surfaces as a typed error instead of a silently wrong query result.

Keys are normalized like the hash index (``Variant`` unwrapped, integral
floats folded to ``int``) so point lookups agree across index kinds.  NaN
keys are rejected with :class:`~repro.errors.SqlTypeError`: NaN breaks the
total order the tree relies on, and the engine documents that restriction
for ``USING BTREE`` columns.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults
from repro.errors import SqlTypeError
from repro.sqldb.table import remap_positions
from repro.sqldb.types import Variant

# Maximum number of keys per node before it splits.  Small enough to get a
# real multi-level tree in tests, large enough to keep Python overhead low.
NODE_CAPACITY = 32

NODE_WRITE_POINT = "btree.node_write"


def normalize_key(value: Any) -> Any:
    """Normalize an indexed value the same way the hash index does.

    ``Variant`` wrappers are unwrapped and integral floats fold to ``int`` so
    ``2.0`` and ``2`` share a slot; this keeps point lookups on an ordered
    index byte-compatible with the hash-index behaviour.
    """
    if isinstance(value, Variant):
        value = value.value
    if isinstance(value, float) and not isinstance(value, bool) and value.is_integer():
        return int(value)
    return value


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[List[int]] = []
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.children: List[Any] = []


def _runs(count: int, capacity: int) -> Iterator[Tuple[int, int]]:
    """Split ``count`` items into the fewest ``[start, stop)`` runs of at
    most ``capacity`` items, sized evenly (so no node ends up near-empty)."""
    parts = -(-count // capacity)
    base, extra = divmod(count, parts)
    start = 0
    for part in range(parts):
        stop = start + base + (1 if part < extra else 0)
        yield start, stop
        start = stop


def _bisect_left(keys: Sequence[Any], key: Any) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right(keys: Sequence[Any], key: Any) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < keys[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class BTree:
    """A B+-tree mapping comparable keys to lists of row positions."""

    __slots__ = ("root", "size")

    def __init__(self) -> None:
        self.root: Any = _Leaf()
        self.size = 0  # number of distinct keys

    @classmethod
    def from_sorted(cls, keys: Sequence[Any], values: Sequence[List[int]]) -> "BTree":
        """Bulk-load a tree from distinct ascending ``keys`` and their
        position lists (adopted, not copied).

        Leaves are packed first and each inner level is built over the one
        below, so loading ``n`` keys costs O(n) with no per-key descent or
        split.  Every node written passes the ``btree.node_write`` fault
        point; a failed load leaves no tree behind for the caller to adopt.
        """
        tree = cls()
        if not keys:
            return tree
        level: List[Any] = []
        firsts: List[Any] = []  # smallest key under each node of ``level``
        previous: Optional[_Leaf] = None
        for start, stop in _runs(len(keys), NODE_CAPACITY):
            faults.check(NODE_WRITE_POINT)
            leaf = _Leaf()
            leaf.keys = list(keys[start:stop])
            leaf.values = list(values[start:stop])
            if previous is not None:
                previous.next = leaf
            previous = leaf
            level.append(leaf)
            firsts.append(leaf.keys[0])
        while len(level) > 1:
            parents: List[Any] = []
            parent_firsts: List[Any] = []
            for start, stop in _runs(len(level), NODE_CAPACITY + 1):
                faults.check(NODE_WRITE_POINT)
                node = _Inner()
                node.children = level[start:stop]
                node.keys = firsts[start + 1 : stop]
                parents.append(node)
                parent_firsts.append(firsts[start])
            level, firsts = parents, parent_firsts
        tree.root = level[0]
        tree.size = len(keys)
        return tree

    # -- mutation ---------------------------------------------------------

    def insert(self, key: Any, position: int) -> None:
        """Add ``position`` under ``key`` (in row order), splitting full nodes."""
        faults.check(NODE_WRITE_POINT)
        split = self._insert(self.root, key, position)
        if split is not None:
            sep, right = split
            new_root = _Inner()
            new_root.keys.append(sep)
            new_root.children.extend([self.root, right])
            self.root = new_root

    def _insert(self, node: Any, key: Any, position: int) -> Optional[Tuple[Any, Any]]:
        if isinstance(node, _Leaf):
            idx = _bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                insort(node.values[idx], position)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, [position])
            self.size += 1
            if len(node.keys) <= NODE_CAPACITY:
                return None
            return self._split_leaf(node)
        idx = _bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, position)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) <= NODE_CAPACITY:
            return None
        return self._split_inner(node)

    def _split_leaf(self, node: _Leaf) -> Tuple[Any, _Leaf]:
        faults.check(NODE_WRITE_POINT)
        mid = len(node.keys) // 2
        right = _Leaf()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_inner(self, node: _Inner) -> Tuple[Any, _Inner]:
        faults.check(NODE_WRITE_POINT)
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Inner()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    def remove(self, key: Any, position: int) -> None:
        """Drop one ``position`` from ``key``'s list (no rebalancing).

        Used when an UPDATE moves a row off ``key`` and to undo a partially
        applied insert.  A leaf may be left under-full or empty, which every
        lookup and walk tolerates; a DELETE bulk-loads a fresh, packed tree
        instead of removing entries one by one.
        """
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[_bisect_right(node.keys, key)]
        idx = _bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return
        positions = node.values[idx]
        if position in positions:
            positions.remove(position)
        if not positions:
            node.keys.pop(idx)
            node.values.pop(idx)
            self.size -= 1

    # -- lookup -----------------------------------------------------------

    def get(self, key: Any) -> List[int]:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[_bisect_right(node.keys, key)]
        idx = _bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return []

    def _leftmost(self) -> _Leaf:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[0]
        return node

    def _leaf_for(self, key: Any) -> _Leaf:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[_bisect_right(node.keys, key)]
        return node

    def items(self) -> Iterator[Tuple[Any, List[int]]]:
        """All ``(key, positions)`` pairs in ascending key order."""
        leaf: Optional[_Leaf] = self._leftmost()
        while leaf is not None:
            for key, positions in zip(leaf.keys, leaf.values):
                yield key, positions
            leaf = leaf.next

    def range_items(
        self,
        low: Any = None,
        low_inclusive: bool = True,
        high: Any = None,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, List[int]]]:
        """``(key, positions)`` pairs with keys inside the interval, ascending."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost()
            idx = 0
        else:
            leaf = self._leaf_for(low)
            idx = (
                _bisect_left(leaf.keys, low)
                if low_inclusive
                else _bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if high_inclusive:
                        if high < key:
                            return
                    elif not key < high:
                        return
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next
            idx = 0

    # -- audit ------------------------------------------------------------

    def audit(self) -> Optional[str]:
        """Check structural invariants; return a problem string or ``None``."""
        try:
            keys_walked: List[Any] = []
            problem = self._audit_node(self.root, keys_walked)
            if problem:
                return problem
            for earlier, later in zip(keys_walked, keys_walked[1:]):
                if not earlier < later:
                    return f"keys out of order: {earlier!r} !< {later!r}"
            if len(keys_walked) != self.size:
                return f"key count {len(keys_walked)} != recorded size {self.size}"
            chained = [key for key, _ in self.items()]
            if chained != keys_walked:
                return "leaf chain disagrees with tree descent"
        except Exception as exc:  # noqa: BLE001 - audit must never raise
            return f"audit failed: {exc!r}"
        return None

    def _audit_node(self, node: Any, keys_out: List[Any]) -> Optional[str]:
        if isinstance(node, _Leaf):
            if len(node.keys) != len(node.values):
                return "leaf key/value arity mismatch"
            for positions in node.values:
                if not positions:
                    return "empty position list in leaf"
            keys_out.extend(node.keys)
            return None
        if len(node.children) != len(node.keys) + 1:
            return "inner node fanout mismatch"
        for idx, child in enumerate(node.children):
            problem = self._audit_node(child, keys_out)
            if problem:
                return problem
            if idx < len(node.keys):
                boundary = node.keys[idx]
                if keys_out and boundary < keys_out[-1]:
                    return f"separator {boundary!r} below subtree maximum"
        return None


class OrderedIndex:
    """A single-column ordered secondary index backed by :class:`BTree`.

    Interface-compatible with the hash ``SecondaryIndex`` where it matters to
    the table layer (``add``/``discard``/``remapped``/``rebuild``/``lookup``/
    ``clear``), plus the ordered operations used by the planner's range
    scans.
    """

    kind = "btree"

    __slots__ = ("name", "columns", "positions", "tree", "null_positions")

    def __init__(self, name: str, columns: Sequence[str], positions: Sequence[int]):
        if len(columns) != 1 or len(positions) != 1:
            raise SqlTypeError("ordered indexes cover exactly one column")
        self.name = name
        self.columns = list(columns)
        self.positions = list(positions)
        self.tree = BTree()
        # Row positions whose key is NULL, kept in ascending row order so the
        # ordered emission (NULLs last) matches the executor's stable sort.
        self.null_positions: List[int] = []

    # -- maintenance (SecondaryIndex-compatible) --------------------------

    def key_for_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        return (normalize_key(row[self.positions[0]]),)

    def add(self, row: Sequence[Any], position: int) -> None:
        key = normalize_key(row[self.positions[0]])
        if key is None:
            faults.check(NODE_WRITE_POINT)
            insort(self.null_positions, position)
            return
        if isinstance(key, float) and math.isnan(key):
            raise SqlTypeError(
                f"cannot index NaN in ordered index {self.name!r} "
                f"on column {self.columns[0]!r}"
            )
        self.tree.insert(key, position)

    def discard(self, row: Sequence[Any], position: int) -> None:
        """Undo a prior :meth:`add` of this exact row/position."""
        key = normalize_key(row[self.positions[0]])
        if key is None:
            if position in self.null_positions:
                self.null_positions.remove(position)
            return
        self.tree.remove(key, position)

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        """Rebuild from scratch; assigns state only after a full clean build."""
        groups: Dict[Any, List[int]] = {}
        nulls: List[int] = []
        pos = self.positions[0]
        for row_position, row in enumerate(rows):
            key = normalize_key(row[pos])
            if key is None:
                nulls.append(row_position)
            elif isinstance(key, float) and math.isnan(key):
                raise SqlTypeError(
                    f"cannot index NaN in ordered index {self.name!r} "
                    f"on column {self.columns[0]!r}"
                )
            else:
                groups.setdefault(key, []).append(row_position)
        keys = sorted(groups)
        self.tree = BTree.from_sorted(keys, [groups[key] for key in keys])
        self.null_positions = nulls

    def remapped(self, remap: Sequence[Optional[int]]) -> "OrderedIndex":
        """This index after a DELETE compacted the table (see
        :func:`remap_positions`): the surviving pairs are already in key
        order, so the fresh tree is bulk-loaded without re-keying a row."""
        keys: List[Any] = []
        values: List[List[int]] = []
        for key, positions in self.tree.items():
            kept = remap_positions(positions, remap)
            if kept:
                keys.append(key)
                values.append(kept)
        fresh = OrderedIndex(self.name, self.columns, self.positions)
        fresh.tree = BTree.from_sorted(keys, values)
        fresh.null_positions = remap_positions(self.null_positions, remap)
        return fresh

    def clear(self) -> None:
        self.tree = BTree()
        self.null_positions = []

    # -- lookup -----------------------------------------------------------

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        """Point lookup, matching the hash index contract (NULL matches nothing)."""
        value = key[0]
        if value is None:
            return []
        if isinstance(value, float) and math.isnan(value):
            return []
        return list(self.tree.get(value))

    def range_positions(
        self,
        low: Any = None,
        low_inclusive: bool = True,
        high: Any = None,
        high_inclusive: bool = True,
        reverse: bool = False,
    ) -> List[int]:
        """Positions with keys inside the interval, in key + row order.

        ``reverse=True`` reverses the *key* order while keeping each key's
        positions in row order - matching a stable descending sort.
        NULL-key rows are never in a range (SQL comparisons with NULL are
        never true).
        """
        groups = [
            positions
            for _, positions in self.tree.range_items(
                normalize_key(low) if low is not None else None,
                low_inclusive,
                normalize_key(high) if high is not None else None,
                high_inclusive,
            )
        ]
        if reverse:
            groups.reverse()
        out: List[int] = []
        for positions in groups:
            out.extend(positions)
        return out

    def ordered_positions(self, reverse: bool = False, include_nulls: bool = True) -> List[int]:
        """Every non-NULL position in key order; NULL rows appended last.

        NULLs sort last in both directions (matching the executor's ORDER BY
        semantics), and ties within a key keep row order - the same
        tie-break a stable sort over the table produces.
        """
        groups = [positions for _, positions in self.tree.items()]
        if reverse:
            groups.reverse()
        out: List[int] = []
        for positions in groups:
            out.extend(positions)
        if include_nulls:
            out.extend(self.null_positions)
        return out

    # -- audit ------------------------------------------------------------

    def verify(self, rows: Sequence[Sequence[Any]]) -> Optional[str]:
        """Audit structure and contents against the table's rows.

        Returns a problem description, or ``None`` when the index is a
        faithful ordered image of ``rows`` (each key's positions ascending,
        as ordered emission relies on).  Never raises.
        """
        problem = self.tree.audit()
        if problem:
            return problem
        try:
            pos = self.positions[0]
            expected_nulls = []
            expected: dict = {}
            for row_position, row in enumerate(rows):
                key = normalize_key(row[pos])
                if key is None:
                    expected_nulls.append(row_position)
                else:
                    expected.setdefault(key, []).append(row_position)
            indexed = {key: list(positions) for key, positions in self.tree.items()}
            if self.null_positions != expected_nulls:
                return "NULL position list disagrees with table rows"
            if len(indexed) != len(expected):
                return (
                    f"index holds {len(indexed)} distinct keys, "
                    f"table implies {len(expected)}"
                )
            for key, positions in expected.items():
                if indexed.get(key) != positions:
                    return f"positions for key {key!r} disagree with table rows"
        except Exception as exc:  # noqa: BLE001 - verify must never raise
            return f"verify failed: {exc!r}"
        return None
