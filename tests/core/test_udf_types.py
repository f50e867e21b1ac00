"""Declared output types of the pgFMU and MADlib-style table UDFs.

A fully typed table UDF lets the planner hash-join its output, and hashing
agrees with ``=`` only within a type class.  These tests run every typed
table UDF the two extensions install and check the contract the planner
relies on: each value is NULL or belongs to its column's declared class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Session
from repro.data.loaders import load_dataset
from repro.models.heatpump import hp1_source
from repro.sqldb.types import SqlType, fits_type_class


@pytest.fixture()
def typed_session(tmp_path, hp1_dataset):
    """A session with both extensions, two HP1 instances, measurements, a
    trained ARIMA model and a trained logistic regression."""
    session = Session(storage_dir=str(tmp_path / "fmu_storage"), register_ml=True)
    db = session.database
    load_dataset(db, hp1_dataset, table_name="measurements")
    session.create(hp1_source(), "A")
    session.instance("A").copy("B")

    rng = np.random.default_rng(7)
    db.execute("CREATE TABLE series (time double precision PRIMARY KEY, value double precision)")
    value = 20.0
    for i in range(60):
        value = 20.0 + 0.6 * (value - 20.0) + rng.normal(0, 0.3)
        db.execute("INSERT INTO series VALUES ($1, $2)", [float(i), float(value)])
    db.execute("SELECT arima_train('series', 'series_model', 'time', 'value')")
    db.execute(
        "CREATE TABLE labelled (id integer PRIMARY KEY, f1 double precision, "
        "f2 double precision, label integer)"
    )
    for i in range(40):
        f1, f2 = rng.normal(size=2)
        db.execute(
            "INSERT INTO labelled VALUES ($1, $2, $3, $4)",
            [i, float(f1), float(f2), int(f1 + f2 > 0)],
        )
    db.execute("SELECT logregr_train('labelled', 'labelled_model', 'label', '{f1, f2}')")
    yield session
    session.close()


#: One call per typed table UDF: ``name -> argument lists``.
CALLS = {
    "fmu_variables": [("A",)],
    "fmu_get": [("A", "Cp"), ("B", "u")],
    "fmu_simulate": [
        ("A", "SELECT time, u FROM measurements"),
        ("{A, B}", "SELECT time, u FROM measurements", 2.0, 20.0),
    ],
    "fmu_models": [()],
    "fmu_instances": [()],
    "fmu_extensions": [()],
    "installed_extensions": [()],
    "arima_forecast": [("series_model", 5)],
    "arima_predict": [("series_model",)],
    "logregr_predict": [("labelled_model", "labelled")],
}


def test_every_typed_table_udf_keeps_its_declared_types(typed_session):
    db = typed_session.database
    typed = {name for name, udf in db.udfs.tables.items() if udf.typed}
    assert typed == set(CALLS), "every typed table UDF needs a conformance call"
    for name, calls in CALLS.items():
        udf = db.udfs.table(name)
        for args in calls:
            rows = udf.func(db, *args)
            assert rows, f"{name}{args} returned no rows"
            for row in rows:
                assert len(row) == len(udf.columns), f"{name}{args}: {row!r}"
                for column, sql_type, value in zip(udf.columns, udf.column_types, row):
                    assert fits_type_class(value, sql_type), (
                        f"{name}{args}: column {column} declared {sql_type.value} "
                        f"returned {value!r} ({type(value).__name__})"
                    )


def test_fmu_simulate_declares_the_analysis_join_types(typed_session):
    udf = typed_session.database.udfs.table("fmu_simulate")
    assert udf.columns == ["simulationtime", "instanceid", "varname", "value"]
    assert udf.column_types == [SqlType.DOUBLE, SqlType.TEXT, SqlType.TEXT, SqlType.DOUBLE]


def test_simulation_joins_measurements_by_hashing(typed_session):
    db = typed_session.database
    sql = (
        "SELECT count(*), avg(abs(s.value - m.x)) "
        "FROM fmu_simulate('A', 'SELECT time, u FROM measurements') s "
        "JOIN measurements m ON m.time = s.simulationtime WHERE s.varname = 'x'"
    )
    plan = db.explain(sql)
    assert "HashJoin inner (s.simulationtime = m.time)" in plan
    assert "NestedLoopJoin" not in plan
    planned = db.execute(sql).rows
    db.planner_enabled = False
    try:
        naive = db.execute(sql).rows
    finally:
        db.planner_enabled = True
    assert planned == naive
    assert planned[0][0] == db.execute("SELECT count(*) FROM measurements").scalar()
