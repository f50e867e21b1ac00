"""Loading datasets into the SQL database.

pgFMU's whole point is that measurements live in the DBMS and calibration /
simulation read them with plain SQL.  The loaders create one table per
dataset (``time`` plus one double-precision column per series) and bulk-insert
the rows, returning the SQL query that pgFMU's UDFs should be given as
``input_sql``.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.data.dataset import Dataset
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.types import SqlType


def dataset_table_name(dataset: Dataset) -> str:
    """A SQL-safe table name derived from the dataset name."""
    name = re.sub(r"[^a-zA-Z0-9_]", "_", dataset.name.lower())
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = f"ds_{name}"
    return name


def load_dataset(
    database: Database,
    dataset: Dataset,
    table_name: Optional[str] = None,
    replace: bool = True,
) -> str:
    """Create (or replace) a measurements table for ``dataset`` and fill it.

    Returns the table name, so callers can build ``SELECT * FROM <table>``
    queries to hand to ``fmu_parest`` / ``fmu_simulate``.
    """
    name = (table_name or dataset_table_name(dataset)).lower()
    if database.has_table(name):
        if not replace:
            return name
        database.drop_table(name)
    columns = [ColumnDefinition(name="time", sql_type=SqlType.DOUBLE, not_null=True)]
    columns += [
        ColumnDefinition(name=column, sql_type=SqlType.DOUBLE) for column in dataset.columns
    ]
    schema = TableSchema(name=name, columns=columns, primary_key=["time"])
    database.create_table(schema)
    database.insert_rows(name, dataset.rows())
    return name
