"""SQL UDFs exposing the ML routines (the MADlib-style interface).

The routines are packaged as the ``"madlib"`` extension
(:data:`MADLIB_EXTENSION`) and installed with
``database.install_extension("madlib")`` - exactly how a PostgreSQL
deployment would ``CREATE EXTENSION madlib``.  ``Session(register_ml=True)``
makes that same call.

Registered functions (all callable from plain SQL):

* ``arima_train(source_table, output_table, time_column, value_column
  [, p, d, q])`` - fit an ARIMA model on a time series stored in a table and
  write the coefficients into ``output_table``.
* ``arima_forecast(output_table, steps)`` - set-returning function producing
  ``(step, value)`` forecasts from a previously trained model.
* ``arima_predict(output_table)`` - set-returning function producing the
  in-sample one-step predictions ``(row_index, value)``.
* ``logregr_train(source_table, output_table, dependent_column,
  independent_columns)`` - fit a logistic regression; independent columns are
  given as an array literal ``'{col1, col2}'``.
* ``logregr_predict(output_table, source_table)`` - set-returning function
  with ``(row_index, probability, prediction)`` per source row.
* ``logregr_accuracy(output_table, source_table, dependent_column)`` - scalar
  classification accuracy of a trained model on a labelled table.
* ``linregr_train(source_table, output_table, dependent_column,
  independent_columns)`` - ordinary least squares regression.

Trained models are persisted in their output tables (name/value rows), so the
model catalogue remains inspectable with plain SQL, mirroring MADlib.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import MlError, SqlCatalogError
from repro.ml.arima import ArimaModel, ArimaOrder
from repro.ml.linear import LinearRegression
from repro.ml.logistic import LogisticRegression
from repro.sqldb.arrays import parse_array_literal
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.types import SqlType
from repro.sqldb.udf import Extension, register_extension_factory, scalar_udf, table_udf


# --------------------------------------------------------------------------- #
# Output-table helpers
# --------------------------------------------------------------------------- #
def _write_model_table(database: Database, table_name: str, entries: Dict[str, Any]) -> None:
    name = table_name.lower()
    if database.has_table(name):
        database.drop_table(name)
    schema = TableSchema(
        name=name,
        columns=[
            ColumnDefinition(name="key", sql_type=SqlType.TEXT, not_null=True),
            ColumnDefinition(name="value", sql_type=SqlType.TEXT),
        ],
        primary_key=["key"],
    )
    database.create_table(schema)
    database.insert_rows(name, [[key, _encode(value)] for key, value in entries.items()])


def _encode(value: Any) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _read_model_table(database: Database, table_name: str) -> Dict[str, str]:
    rows = database.table(table_name).to_dicts()
    return {row["key"]: row["value"] for row in rows}


def _decode_floats(text: str) -> List[float]:
    text = text.strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


def _column_values(database: Database, table: str, column: str, order_by: Optional[str] = None) -> List[float]:
    order_clause = f" ORDER BY {order_by}" if order_by else ""
    rows = database.execute(f"SELECT {column} FROM {table}{order_clause}").rows
    values = []
    for row in rows:
        if row[0] is None:
            raise MlError(f"column {column!r} of table {table!r} contains NULL values")
        values.append(float(row[0]))
    return values


def _feature_matrix(database: Database, table: str, columns: Sequence[str]) -> np.ndarray:
    select_list = ", ".join(columns)
    rows = database.execute(f"SELECT {select_list} FROM {table}").rows
    matrix = []
    for row in rows:
        matrix.append([0.0 if v is None else float(v) for v in row])
    return np.asarray(matrix, dtype=float)


# --------------------------------------------------------------------------- #
# ARIMA UDFs
# --------------------------------------------------------------------------- #
@scalar_udf(name="arima_train", min_args=4, max_args=7,
            description="Fit an ARIMA model on a stored time series")
def _arima_train(
    database: Database,
    source_table: str,
    output_table: str,
    time_column: str,
    value_column: str,
    p: int = 1,
    d: int = 0,
    q: int = 1,
) -> str:
    """Fit ARIMA(p, d, q) on ``value_column`` ordered by ``time_column``."""
    series = _column_values(database, source_table, value_column, order_by=time_column)
    model = ArimaModel(order=ArimaOrder(int(p), int(d), int(q))).fit(series)
    payload = model.coefficients()
    _write_model_table(
        database,
        output_table,
        {
            "model_type": "arima",
            "source_table": source_table,
            "time_column": time_column,
            "value_column": value_column,
            "p": payload["p"],
            "d": payload["d"],
            "q": payload["q"],
            "ar": payload["ar"],
            "ma": payload["ma"],
            "intercept": payload["intercept"],
            "sigma2": payload["sigma2"],
            "n_train": len(series),
        },
    )
    return output_table


def _rebuild_arima(database: Database, output_table: str) -> ArimaModel:
    entries = _read_model_table(database, output_table)
    if entries.get("model_type") != "arima":
        raise MlError(f"table {output_table!r} does not hold an ARIMA model")
    order = ArimaOrder(int(entries["p"]), int(entries["d"]), int(entries["q"]))
    series = _column_values(
        database, entries["source_table"], entries["value_column"], order_by=entries["time_column"]
    )
    model = ArimaModel(order=order)
    model.ar_coefficients = np.asarray(_decode_floats(entries["ar"]))
    model.ma_coefficients = np.asarray(_decode_floats(entries["ma"]))
    model.intercept = float(entries["intercept"])
    model.sigma2 = float(entries["sigma2"])
    model._training_series = np.asarray(series, dtype=float)
    model.fitted = True
    return model


@table_udf(name="arima_forecast", columns=["step integer", "value double precision"],
           min_args=2, max_args=2,
           description="Forecast future values from a trained ARIMA model")
def _arima_forecast(database: Database, output_table: str, steps: int) -> List[List[Any]]:
    """Forecast ``steps`` values from a trained ARIMA model."""
    model = _rebuild_arima(database, output_table)
    forecast = model.forecast(int(steps))
    return [[i + 1, float(value)] for i, value in enumerate(forecast)]


@table_udf(name="arima_predict", columns=["row_index integer", "value double precision"],
           min_args=1, max_args=1,
           description="In-sample predictions of a trained ARIMA model")
def _arima_predict(database: Database, output_table: str) -> List[List[Any]]:
    """In-sample one-step-ahead predictions of a trained ARIMA model."""
    model = _rebuild_arima(database, output_table)
    predictions = model.predict_in_sample()
    return [[i, float(value)] for i, value in enumerate(predictions)]


# --------------------------------------------------------------------------- #
# Logistic / linear regression UDFs
# --------------------------------------------------------------------------- #
@scalar_udf(name="logregr_train", min_args=4, max_args=4,
            description="Fit a binary logistic regression")
def _logregr_train(
    database: Database,
    source_table: str,
    output_table: str,
    dependent_column: str,
    independent_columns: str,
) -> str:
    """Fit a logistic regression on a labelled table."""
    features_names = parse_array_literal(independent_columns)
    if not features_names:
        raise MlError("logregr_train requires at least one independent column")
    labels = _column_values(database, source_table, dependent_column)
    features = _feature_matrix(database, source_table, features_names)
    model = LogisticRegression().fit(features, labels)
    _write_model_table(
        database,
        output_table,
        {
            "model_type": "logregr",
            "source_table": source_table,
            "dependent_column": dependent_column,
            "independent_columns": ",".join(features_names),
            "coefficients": model.coefficients,
            "feature_means": model.feature_means,
            "feature_scales": model.feature_scales,
        },
    )
    return output_table


def _rebuild_logregr(database: Database, output_table: str) -> tuple:
    entries = _read_model_table(database, output_table)
    if entries.get("model_type") != "logregr":
        raise MlError(f"table {output_table!r} does not hold a logistic regression model")
    model = LogisticRegression()
    model.coefficients = np.asarray(_decode_floats(entries["coefficients"]))
    model.feature_means = np.asarray(_decode_floats(entries.get("feature_means", "")))
    model.feature_scales = np.asarray(_decode_floats(entries.get("feature_scales", "")))
    if model.feature_scales.size == 0:
        model.feature_scales = np.ones(model.coefficients.size - 1)
    model.fitted = True
    feature_names = entries["independent_columns"].split(",")
    return model, feature_names, entries


@table_udf(name="logregr_predict",
           columns=["row_index integer", "probability double precision", "prediction integer"],
           min_args=2, max_args=2,
           description="Predict class probabilities with a trained logistic regression")
def _logregr_predict(database: Database, output_table: str, source_table: str) -> List[List[Any]]:
    """Per-row probability and hard prediction for a source table."""
    model, feature_names, _ = _rebuild_logregr(database, output_table)
    features = _feature_matrix(database, source_table, feature_names)
    probabilities = model.predict_proba(features)
    predictions = (probabilities >= 0.5).astype(int)
    return [
        [i, float(p), int(c)] for i, (p, c) in enumerate(zip(probabilities, predictions))
    ]


@scalar_udf(name="logregr_accuracy", min_args=3, max_args=3,
            description="Accuracy of a trained logistic regression on a labelled table")
def _logregr_accuracy(
    database: Database, output_table: str, source_table: str, dependent_column: str
) -> float:
    """Accuracy of a trained logistic regression on a labelled table."""
    model, feature_names, _ = _rebuild_logregr(database, output_table)
    features = _feature_matrix(database, source_table, feature_names)
    labels = _column_values(database, source_table, dependent_column)
    return model.accuracy(features, labels)


@scalar_udf(name="linregr_train", min_args=4, max_args=4,
            description="Fit an ordinary least squares regression")
def _linregr_train(
    database: Database,
    source_table: str,
    output_table: str,
    dependent_column: str,
    independent_columns: str,
) -> str:
    """Fit an ordinary least squares regression on a table."""
    feature_names = parse_array_literal(independent_columns)
    if not feature_names:
        raise MlError("linregr_train requires at least one independent column")
    targets = _column_values(database, source_table, dependent_column)
    features = _feature_matrix(database, source_table, feature_names)
    model = LinearRegression().fit(features, targets)
    _write_model_table(
        database,
        output_table,
        {
            "model_type": "linregr",
            "source_table": source_table,
            "dependent_column": dependent_column,
            "independent_columns": ",".join(feature_names),
            "coefficients": model.coefficients,
            "r_squared": model.r_squared,
        },
    )
    return output_table


# --------------------------------------------------------------------------- #
# The extension bundle
# --------------------------------------------------------------------------- #
#: The MADlib-style ML pack.  Unlike the ``pgfmu`` extension its UDFs close
#: over nothing (the database arrives as the first call argument), so a single
#: module-level bundle serves every database.
MADLIB_EXTENSION = Extension.from_functions(
    "madlib",
    (
        _arima_train,
        _arima_forecast,
        _arima_predict,
        _logregr_train,
        _logregr_predict,
        _logregr_accuracy,
        _linregr_train,
    ),
    version="1.1",
    description="MADlib-style in-DBMS machine learning (ARIMA, logistic, OLS)",
)

def _madlib_factory(database: Database, **options: Any) -> Extension:
    if options:
        raise SqlCatalogError(
            f"the madlib extension accepts no install options; got {sorted(options)}"
        )
    return MADLIB_EXTENSION


register_extension_factory("madlib", _madlib_factory)
