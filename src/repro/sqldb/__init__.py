"""In-memory relational SQL engine (PostgreSQL substrate).

pgFMU is a PostgreSQL extension; this subpackage provides the database the
extension plugs into.  It implements, from scratch, the slice of SQL the
paper's queries and workflows exercise:

* DDL: ``CREATE TABLE`` (with PRIMARY KEY / NOT NULL / REFERENCES), ``DROP
  TABLE``, ``CREATE INDEX`` / ``DROP INDEX`` (hash and ``USING BTREE``
  indexes; each primary key is backed by its own ``<table>_pkey``).
* DML: ``INSERT`` (VALUES and ``INSERT ... SELECT``), ``UPDATE``, ``DELETE``.
* Queries: ``SELECT`` with expressions, aliases, ``WHERE``, ``GROUP BY`` +
  aggregates, ``HAVING``, ``ORDER BY``, ``LIMIT``/``OFFSET``, ``DISTINCT``,
  cross/inner/left joins, ``LATERAL`` table functions, set-returning
  functions such as ``generate_series``, scalar subqueries and ``IN`` lists.
* Types: integers, floats, text, booleans, timestamps and the ``variant``
  type the pgFMU catalogue uses for heterogeneous variable values.
* Extensibility: scalar and set-returning user-defined functions (UDFs),
  which is how the pgFMU core registers ``fmu_create``, ``fmu_parest``,
  ``fmu_simulate`` and friends, and how the MADlib-like ML routines are
  exposed.
* Prepared statements with positional parameters (``$1``, ``$2``, ...).
* Optional durable storage (:mod:`repro.sqldb.storage`): ``connect(path=
  "fleet.db")`` attaches a write-ahead log + page store with crash
  recovery on open and a ``CHECKPOINT`` statement; the in-memory engine
  then acts as the cache over the on-disk state.
* A PEP-249-style driver layer (:func:`connect`, :class:`Connection`,
  :class:`Cursor`) with snapshot-based transactions.
* An extension mechanism (:func:`scalar_udf` / :func:`table_udf` decorators,
  :class:`Extension`, :meth:`Database.install_extension`) mirroring
  ``CREATE EXTENSION`` - the pgFMU core and the MADlib-like ML routines are
  both packaged and installed this way.

The engine is deliberately small, but it is a real query processor: SQL text
is tokenized, parsed into an AST, bound against the catalogue, planned by a
rule-based optimizer (:mod:`repro.sqldb.planner` - predicate pushdown, index
point lookups, hash joins, top-k sorts; inspect plans with ``EXPLAIN``), and
executed over the chosen plan tree.
"""

from repro.sqldb.connection import Connection, Cursor, connect
from repro.sqldb.database import Database
from repro.sqldb.result import ResultSet
from repro.sqldb.schema import ColumnDefinition, ForeignKey, TableSchema
from repro.sqldb.storage import FaultInjector, StorageEngine
from repro.sqldb.types import SqlType, Variant
from repro.sqldb.udf import (
    Extension,
    ScalarUdf,
    TableUdf,
    UdfSpec,
    available_extensions,
    register_extension_factory,
    scalar_udf,
    table_udf,
)

__all__ = [
    "Database",
    "Connection",
    "Cursor",
    "connect",
    "ResultSet",
    "ColumnDefinition",
    "ForeignKey",
    "TableSchema",
    "SqlType",
    "Variant",
    "StorageEngine",
    "FaultInjector",
    "ScalarUdf",
    "TableUdf",
    "UdfSpec",
    "Extension",
    "scalar_udf",
    "table_udf",
    "register_extension_factory",
    "available_extensions",
]
