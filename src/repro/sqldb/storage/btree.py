"""Ordered (B+-tree) indexes for range scans and ordered output.

:class:`OrderedIndex` mirrors the interface of the hash-based
:class:`~repro.sqldb.table.SecondaryIndex` (``name``/``columns``/
``positions``/``key_for_row``/``add``/``discard``/``remapped``/``rebuild``/
``lookup``) so the table layer can maintain either kind uniformly, and adds
the ordered operations the planner needs:

* :meth:`OrderedIndex.range_positions` - row positions under an equality
  prefix of the leading columns whose next column falls in a ``[low,
  high]`` interval (either bound optional/exclusive), emitted in key order
  with each key's positions in row order;
* :meth:`OrderedIndex.ordered_positions` - every position under an
  equality prefix in key order of the one column after it (ascending or
  descending), optionally followed by the NULL-key rows, which backs
  ``ORDER BY``/top-k rewrites;
* :meth:`OrderedIndex.verify` - a read-only structural + content audit used
  by the ``VERIFY`` statement.

Keys are tuples with one part per column, compared lexicographically, as
in a PostgreSQL multi-column B-tree.  Parts compare like the hash index's
normalized values (``2`` and ``2.0`` are one key), so point lookups agree
across index kinds; NULL and NaN parts become markers that sort after
every real value of their column.  A declared ``USING BTREE``
index rejects NaN with :class:`~repro.errors.SqlTypeError`; the index
backing a primary key keeps NaN keys, which no equality or range matches.

The tree itself is a small in-memory B+-tree: leaves hold ``key -> [row
positions]`` (each key's positions in ascending row order; a key one row
holds, like every primary-key entry, stores its bare position) and are
chained for in-order iteration; inner nodes hold separator keys.  Single
entries are inserted and removed in place; whole trees (a rebuild from rows, or the
position remap after a DELETE compacts the table) are bulk-loaded bottom-up
from sorted ``(key, positions)`` pairs by :meth:`BTree.from_sorted`.  Node
writes pass through the ``btree.node_write`` chaos point
(:mod:`repro.faults`) so the fault harness can prove a failed index write
surfaces as a typed error instead of a silently wrong query result.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
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


def _packed(positions: List[int]) -> Any:
    """A leaf value: the bare position of a key one row holds (every
    primary-key entry, which then costs no list), else the ascending list."""
    return positions[0] if len(positions) == 1 else positions


def _positions(value: Any) -> List[int]:
    """The position list a leaf value stands for."""
    return [value] if value.__class__ is int else value


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


class BTree:
    """A B+-tree mapping comparable keys to lists of row positions.

    Leaves store a key held by one row as its bare position (see
    :func:`_packed`); every method hands callers position lists.
    """

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
        return cls._load(keys, [_packed(positions) for positions in values])

    def remapped(self, remap: Sequence[Optional[int]]) -> "BTree":
        """This tree after a DELETE compacted the table (see
        :func:`remap_positions`): the surviving pairs are already in key
        order, so the fresh tree is bulk-loaded without re-keying a row."""
        keys: List[Any] = []
        values: List[Any] = []
        leaf: Optional[_Leaf] = self._leftmost()
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                if value.__class__ is int:
                    value = remap[value]
                    if value is None:
                        continue
                else:
                    kept = remap_positions(value, remap)
                    if not kept:
                        continue
                    value = _packed(kept)
                keys.append(key)
                values.append(value)
            leaf = leaf.next
        return self._load(keys, values)

    @classmethod
    def _load(cls, keys: Sequence[Any], values: Sequence[Any]) -> "BTree":
        """:meth:`from_sorted` over leaf values already packed."""
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
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                positions = _positions(node.values[idx])
                insort(positions, position)
                node.values[idx] = positions
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, position)
            self.size += 1
            if len(node.keys) <= NODE_CAPACITY:
                return None
            return self._split_leaf(node)
        idx = bisect_right(node.keys, key)
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
        # The rightmost node of a level keeps its left part full, as
        # PostgreSQL splits its rightmost page: keys inserted in ascending
        # order then pack the tree as a bulk load does.
        mid = len(node.keys) - 1 if node.next is None else len(node.keys) // 2
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
        last = node.children[-1]
        while isinstance(last, _Inner):
            last = last.children[-1]
        mid = len(node.keys) - 2 if last.next is None else len(node.keys) // 2
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
            node = node.children[bisect_right(node.keys, key)]
        idx = bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return
        positions = [p for p in _positions(node.values[idx]) if p != position]
        if positions:
            node.values[idx] = _packed(positions)
        else:
            node.keys.pop(idx)
            node.values.pop(idx)
            self.size -= 1

    # -- lookup -----------------------------------------------------------

    def get(self, key: Any) -> List[int]:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[bisect_right(node.keys, key)]
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return _positions(node.values[idx])
        return []

    def _leftmost(self) -> _Leaf:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[0]
        return node

    def _leaf_for(self, key: Any) -> _Leaf:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def items(self) -> Iterator[Tuple[Any, List[int]]]:
        """All ``(key, positions)`` pairs in ascending key order."""
        leaf: Optional[_Leaf] = self._leftmost()
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                yield key, _positions(value)
            leaf = leaf.next

    def range_items(
        self,
        low: Any = None,
        low_inclusive: bool = True,
        high: Any = None,
        high_inclusive: bool = True,
    ) -> List[Tuple[Any, List[int]]]:
        """``(key, positions)`` pairs with keys inside the interval, ascending.

        Each leaf's share is found by bisection and sliced off whole, so a
        walk compares keys a logarithmic number of times per leaf rather
        than once per key.
        """
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost()
            idx = 0
        else:
            leaf = self._leaf_for(low)
            idx = (
                bisect_left(leaf.keys, low)
                if low_inclusive
                else bisect_right(leaf.keys, low)
            )
        out: List[Tuple[Any, List[int]]] = []
        while leaf is not None:
            keys = leaf.keys
            if high is None:
                end = len(keys)
            elif high_inclusive:
                end = bisect_right(keys, high, idx)
            else:
                end = bisect_left(keys, high, idx)
            out.extend(zip(keys[idx:end], map(_positions, leaf.values[idx:end])))
            if end < len(keys):
                break
            leaf = leaf.next
            idx = 0
        return out

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
            for value in node.values:
                if not _positions(value):
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


class _Marker:
    """A key part that sorts after every real value.

    NULL and NaN parts of an index key become markers so that every key
    keeps a total order: within each column, real values come first, then
    NaN, then NULL.  ``_TOP`` only ever appears in search keys, as the
    smallest part greater than all of them.
    """

    __slots__ = ("rank", "label")

    def __init__(self, rank: int, label: str):
        self.rank = rank
        self.label = label

    def __lt__(self, other: Any) -> bool:
        return isinstance(other, _Marker) and self.rank < other.rank

    def __le__(self, other: Any) -> bool:
        return isinstance(other, _Marker) and self.rank <= other.rank

    def __gt__(self, other: Any) -> bool:
        return not isinstance(other, _Marker) or self.rank > other.rank

    def __ge__(self, other: Any) -> bool:
        return not isinstance(other, _Marker) or self.rank >= other.rank

    def __eq__(self, other: Any) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.label


NAN_PART = _Marker(0, "NaN")
NULL_PART = _Marker(1, "NULL")
_TOP = _Marker(2, "TOP")


def _key_part(value: Any) -> Any:
    """One normalized key part, with NULL and NaN replaced by markers."""
    value = normalize_key(value)
    if value is None:
        return NULL_PART
    if isinstance(value, float) and math.isnan(value):
        return NAN_PART
    return value


def _search_head(prefix: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
    """The key parts of an equality prefix, or None when a part is NULL or
    NaN (an equality with either is never true)."""
    head = tuple([_key_part(value) for value in prefix])
    if any(isinstance(part, _Marker) for part in head):
        return None
    return head


class OrderedIndex:
    """An ordered index over one or more columns, backed by :class:`BTree`.

    Keys are tuples of column values compared lexicographically, so the
    rows sharing an equality prefix are one contiguous run of the tree and
    a range on the next column is an interval inside that run.  A NULL or
    NaN part is stored as a marker that sorts after every real value of
    its column: a range never reaches it and an equality never matches it,
    yet a walk on an earlier prefix still emits the row.

    Interface-compatible with the hash ``SecondaryIndex`` where it matters to
    the table layer (``add``/``discard``/``remapped``/``rebuild``/``lookup``/
    ``clear``), plus the ordered operations used by the planner's range
    scans.  ``nan_keys`` admits NaN parts; otherwise inserting one raises
    :class:`~repro.errors.SqlTypeError` (the contract of a declared
    ``USING BTREE`` index).  A primary key's index admits them, because the
    primary key itself always has.
    """

    kind = "btree"

    __slots__ = ("name", "columns", "positions", "tree", "nan_keys")

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        positions: Sequence[int],
        nan_keys: bool = False,
    ):
        self.name = name
        self.columns = list(columns)
        self.positions = list(positions)
        self.nan_keys = nan_keys
        self.tree = BTree()

    # -- maintenance (SecondaryIndex-compatible) --------------------------

    def key_for_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        key = tuple([row[p] for p in self.positions])
        for part in key:
            if part is None or part != part:  # NULL or NaN: needs a marker
                return tuple([_key_part(value) for value in key])
        return key

    def _checked_key(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        key = self.key_for_row(row)
        if not self.nan_keys and NAN_PART in key:
            raise SqlTypeError(
                f"cannot index NaN in ordered index {self.name!r} "
                f"on columns {self.columns!r}"
            )
        return key

    def add(self, row: Sequence[Any], position: int) -> None:
        self.tree.insert(self._checked_key(row), position)

    def discard(self, row: Sequence[Any], position: int) -> None:
        """Undo a prior :meth:`add` of this exact row/position."""
        self.tree.remove(self.key_for_row(row), position)

    def _grouped(self, rows: Sequence[Sequence[Any]]) -> Dict[Tuple[Any, ...], List[int]]:
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        for row_position, row in enumerate(rows):
            groups.setdefault(self._checked_key(row), []).append(row_position)
        return groups

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        """Rebuild from scratch; assigns state only after a full clean build."""
        groups = self._grouped(rows)
        keys = sorted(groups)
        self.tree = BTree.from_sorted(keys, [groups[key] for key in keys])

    def remapped(self, remap: Sequence[Optional[int]]) -> "OrderedIndex":
        """This index after a DELETE compacted the table (see
        :meth:`BTree.remapped`)."""
        fresh = OrderedIndex(self.name, self.columns, self.positions, self.nan_keys)
        fresh.tree = self.tree.remapped(remap)
        return fresh

    def clear(self) -> None:
        self.tree = BTree()

    def key_count(self) -> int:
        return self.tree.size

    # -- lookup -----------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> List[int]:
        """Point lookup on the full key, matching the hash index contract
        (a NULL or NaN part matches nothing, nor does a value that does not
        compare with the column's).  The list is read-only.

        A key of plain values is searched as is, as :meth:`key_for_row`
        stores it; only a NULL, NaN or ``Variant`` part is converted.
        """
        parts = tuple(key)
        for part in parts:
            if part is None or part.__class__ is Variant or part != part:
                parts = _search_head(parts)
                if parts is None:
                    return []
                break
        try:
            return self.tree.get(parts)
        except TypeError:
            return []

    def range_positions(
        self,
        low: Any = None,
        low_inclusive: bool = True,
        high: Any = None,
        high_inclusive: bool = True,
        reverse: bool = False,
        prefix: Sequence[Any] = (),
    ) -> List[int]:
        """Positions whose key starts with ``prefix`` and whose next part
        lies in the interval, in key + row order.

        ``prefix`` holds equality values for the leading columns; ``low``
        and ``high`` (either optional) bound the column after them.  With
        neither bound the walk emits the whole prefix run, rows with NULL
        or NaN parts after the prefix included; a bound, or an empty
        prefix, stops before the NULL/NaN parts of the bounded column
        (SQL comparisons with NULL or NaN are never true).

        ``reverse=True`` reverses the *key* order while keeping each key's
        positions in row order - matching a stable descending sort.
        """
        head = _search_head(prefix)
        if head is None:
            return []  # an equality with NULL or NaN is never true
        if low is None:
            start = head or None
        elif low_inclusive:
            start = head + (normalize_key(low),)
        else:
            start = head + (normalize_key(low), _TOP)
        if high is not None:
            stop = head + (
                (normalize_key(high), _TOP) if high_inclusive else (normalize_key(high),)
            )
        elif low is None and head:
            stop = head + (_TOP,)
        else:
            stop = head + (NAN_PART,)
        return self._walk(start, stop, reverse)

    def _walk(self, start: Any, stop: Any, reverse: bool) -> List[int]:
        """Positions of the keys in ``[start, stop)``, in key + row order
        (key order reversed when ``reverse``)."""
        items = self.tree.range_items(start, True, stop, False)
        if reverse:
            items.reverse()
        out: List[int] = []
        for _, positions in items:
            out.extend(positions)
        return out

    def holds_nan(self, prefix: Sequence[Any] = ()) -> bool:
        """Whether a key is ``prefix`` followed by NaN, where the index has
        one column after ``prefix`` (ordered emission cannot reproduce how
        a sort places NaN)."""
        head = _search_head(prefix)
        return (
            self.nan_keys and head is not None and bool(self.tree.get(head + (NAN_PART,)))
        )

    def ordered_positions(
        self, reverse: bool = False, include_nulls: bool = True, prefix: Sequence[Any] = ()
    ) -> List[int]:
        """Every non-NULL position under ``prefix`` in key order of the one
        column after it; NULL rows appended last.

        NULLs sort last in both directions (matching the executor's ORDER BY
        semantics), and ties within a key keep row order - the same
        tie-break a stable sort over the table produces.
        """
        head = _search_head(prefix)
        if head is None:
            return []
        out = self._walk(head or None, head + (NAN_PART,), reverse)
        if include_nulls:
            out.extend(self.tree.get(head + (NULL_PART,)))
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
            expected = self._grouped(rows)
            indexed = {key: list(positions) for key, positions in self.tree.items()}
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
