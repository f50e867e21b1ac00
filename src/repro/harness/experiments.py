"""One function per table/figure of the paper's evaluation section.

All experiments are scaled-down by default so the full suite runs in minutes
on a laptop; pass larger ``ScenarioSettings`` / ``hours`` / ``n_instances``
(or set the environment variable ``PGFMU_FULL_SCALE=1`` in the benchmarks)
for paper-scale runs.  Every function returns an :class:`ExperimentResult`
containing the rows/series the paper reports plus metadata with the headline
quantities (speedups, improvements) that EXPERIMENTS.md records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.baseline.code_metrics import code_lines_table, totals
from repro.core.session import Session
from repro.data.classroom import generate_classroom_dataset
from repro.data.generators import generate_dataset_for
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.data.synthetic import scale_dataset
from repro.estimation.metrics import rmse
from repro.estimation.objective import MeasurementSet
from repro.harness.reporting import format_table
from repro.models.heatpump import heat_pump_abcde_source
from repro.models.registry import MODEL_REGISTRY, get_model_spec
from repro.workflows.scenarios import (
    ScenarioSettings,
    run_mi_scenario,
    run_si_scenario,
)
from repro.workflows.usability import UsabilityStudy


@dataclass
class ExperimentResult:
    """A reproduced table or figure: rows plus headline metadata."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        text = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.meta:
            notes = "\n".join(f"  {key}: {value}" for key, value in self.meta.items())
            text = f"{text}\nheadline:\n{notes}"
        return text


# --------------------------------------------------------------------------- #
# Table 1 - workflow code lines
# --------------------------------------------------------------------------- #
def table1_code_lines() -> ExperimentResult:
    """Code lines per workflow operation: Python stack vs pgFMU."""
    rows = []
    for entry in code_lines_table():
        rows.append(
            [
                entry.operation,
                ", ".join(entry.packages),
                entry.python_lines,
                entry.pgfmu_lines if entry.pgfmu_lines else "-",
            ]
        )
    summary = totals()
    rows.append(["Total", "", summary["python"], summary["pgfmu"]])
    return ExperimentResult(
        experiment_id="Table 1",
        title="Workflow operations and code lines (Python vs pgFMU)",
        headers=["Operation", "Packages (Python)", "Python lines", "pgFMU lines"],
        rows=rows,
        meta={
            "python_total_lines": summary["python"],
            "pgfmu_total_lines": summary["pgfmu"],
            "code_reduction_factor": summary["ratio"],
            "paper_reported": "88 vs 4 lines (22x fewer)",
        },
    )


# --------------------------------------------------------------------------- #
# Table 2 - feature comparison (qualitative)
# --------------------------------------------------------------------------- #
def table2_feature_matrix() -> ExperimentResult:
    """Feature comparison between in-DBMS analytics tools and pgFMU."""
    rows = [
        ["Data query language", "SQL", "SQL", "SQL"],
        ["Model integration approach", "UDFs", "Stored procedures", "UDFs"],
        ["In-DBMS machine learning", True, True, False],
        ["In-DBMS physical models", False, False, True],
        ["- FMU management", False, False, True],
        ["- FMU simulation", False, False, True],
        ["- FMU parameter estimation", False, False, True],
    ]
    return ExperimentResult(
        experiment_id="Table 2",
        title="In-DBMS analytics tools vs pgFMU (feature matrix)",
        headers=["Feature", "MADlib", "MS SQL Server ML Services", "pgFMU"],
        rows=rows,
        meta={"note": "qualitative table reproduced verbatim from the paper"},
    )


# --------------------------------------------------------------------------- #
# Table 3 / Table 4 - UDF output examples
# --------------------------------------------------------------------------- #
def table3_variables_example() -> ExperimentResult:
    """``fmu_variables`` output for the running-example heat pump instance."""
    session = Session(register_ml=False)
    session.create(heat_pump_abcde_source(), "HP1Instance1")
    result = session.execute(
        "SELECT * FROM fmu_variables('HP1Instance1') AS f WHERE f.vartype = 'parameter'"
    )
    return ExperimentResult(
        experiment_id="Table 3",
        title="fmu_variables example query output (parameters of HP1Instance1)",
        headers=result.columns,
        rows=result.rows,
        meta={"n_parameters": len(result.rows)},
    )


def table4_simulate_example(hours: float = 48.0) -> ExperimentResult:
    """``fmu_simulate`` long-format output for the running-example instance."""
    session = Session(register_ml=False)
    dataset = generate_hp1_dataset(hours=int(hours))
    load_dataset(session.database, dataset, table_name="measurements")
    archive_path = session.catalog.storage_dir / "hp1_table4.fmu"
    get_model_spec("HP1").builder().write(archive_path)
    session.create(str(archive_path), "HP1Instance1")
    result = session.execute(
        "SELECT simulationtime, instanceid, varname, value "
        "FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements') "
        "WHERE varname IN ('y', 'x') ORDER BY simulationtime LIMIT 10"
    )
    return ExperimentResult(
        experiment_id="Table 4",
        title="fmu_simulate example query output",
        headers=result.columns,
        rows=result.rows,
        meta={"n_rows_shown": len(result.rows)},
    )


# --------------------------------------------------------------------------- #
# Table 5 / Table 6 - models and datasets
# --------------------------------------------------------------------------- #
def table5_models() -> ExperimentResult:
    """The FMU model inventory (inputs, outputs, parameters)."""
    rows = []
    for spec in MODEL_REGISTRY.values():
        rows.append(
            [
                spec.name,
                spec.dataset_description,
                ", ".join(spec.inputs) if spec.inputs else "No inputs",
                ", ".join(spec.outputs + [v for v in spec.observed if v not in spec.outputs]),
                ", ".join(spec.estimated_parameters),
            ]
        )
    return ExperimentResult(
        experiment_id="Table 5",
        title="FMU models",
        headers=["ModelID", "Measurements dataset", "Inputs", "Outputs", "Parameters"],
        rows=rows,
        meta={"n_models": len(rows)},
    )


def table6_dataset_excerpts(n_rows: int = 3) -> ExperimentResult:
    """First rows of the heat pump and classroom datasets."""
    hp = generate_hp1_dataset(hours=24)
    classroom = generate_classroom_dataset(hours=24)
    rows: List[List[Any]] = []
    for i, record in enumerate(hp.to_dicts()[:n_rows]):
        rows.append(["HP", i + 1, ", ".join(f"{k}={v:.3f}" for k, v in record.items())])
    for i, record in enumerate(classroom.to_dicts()[:n_rows]):
        rows.append(["Classroom", i + 1, ", ".join(f"{k}={v:.3f}" for k, v in record.items())])
    return ExperimentResult(
        experiment_id="Table 6",
        title="Dataset excerpts for HP0/HP1 and Classroom",
        headers=["Dataset", "Row", "Values"],
        rows=rows,
        meta={"hp_columns": hp.columns, "classroom_columns": classroom.columns},
    )


# --------------------------------------------------------------------------- #
# Table 7 / Table 8 - SI scenario quality and time
# --------------------------------------------------------------------------- #
def _default_settings(model_name: str, **overrides) -> ScenarioSettings:
    settings = ScenarioSettings(model_name=model_name)
    for key, value in overrides.items():
        setattr(settings, key, value)
    return settings


def table7_si_quality(
    model_names: Sequence[str] = ("HP0", "HP1", "Classroom"),
    settings_overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """SI calibration quality: estimated parameters and RMSE per configuration."""
    rows: List[List[Any]] = []
    meta: Dict[str, Any] = {}
    for model_name in model_names:
        settings = _default_settings(model_name, **(settings_overrides or {}))
        outcome = run_si_scenario(settings)
        spec = get_model_spec(model_name)
        for label, result in outcome.results().items():
            rows.append(
                [
                    model_name,
                    label,
                    ", ".join(f"{k}={v:.4g}" for k, v in sorted(result.parameters.items())),
                    result.training_error,
                    result.validation_error,
                ]
            )
        python_error = outcome.python.training_error
        plus_error = outcome.pgfmu_plus.training_error
        relative_gap = abs(python_error - plus_error) / max(python_error, 1e-12)
        meta[f"{model_name}_relative_rmse_gap"] = round(relative_gap, 6)
        meta[f"{model_name}_true_parameters"] = spec.true_parameters
    meta["paper_reported"] = "RMSE differences between configurations are at most ~0.02%"
    return ExperimentResult(
        experiment_id="Table 7",
        title="SI scenario, model calibration comparison",
        headers=["Model", "Configuration", "Estimated parameters", "Training RMSE", "Validation RMSE"],
        rows=rows,
        meta=meta,
    )


def table8_si_time(
    model_names: Sequence[str] = ("HP0", "HP1", "Classroom"),
    settings_overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """SI per-operation execution time for Python and pgFMU configurations."""
    step_order = [
        "load_fmu",
        "read_measurements",
        "recalibrate",
        "validate_update",
        "simulate",
        "export_predictions",
        "further_analysis",
    ]
    rows: List[List[Any]] = []
    meta: Dict[str, Any] = {}
    for model_name in model_names:
        settings = _default_settings(model_name, **(settings_overrides or {}))
        outcome = run_si_scenario(settings)
        for label, result in outcome.results().items():
            step_seconds = {step.name: step.seconds for step in result.steps}
            rows.append(
                [model_name, label]
                + [round(step_seconds.get(step, 0.0), 4) for step in step_order]
                + [round(result.total_seconds, 4)]
            )
        python_total = outcome.python.total_seconds
        plus_total = outcome.pgfmu_plus.total_seconds
        calibration_share = outcome.pgfmu_plus.step_seconds("recalibrate") / max(plus_total, 1e-9)
        meta[f"{model_name}_python_over_pgfmu_total"] = round(python_total / max(plus_total, 1e-9), 3)
        meta[f"{model_name}_calibration_share_of_total"] = round(calibration_share, 3)
    meta["paper_reported"] = "Python and pgFMU within ~0.15% of each other; calibration >99% of time"
    return ExperimentResult(
        experiment_id="Table 8",
        title="Configurations comparison, SI scenario (seconds per operation)",
        headers=["Model", "Configuration"] + step_order + ["total"],
        rows=rows,
        meta=meta,
    )


# --------------------------------------------------------------------------- #
# Figure 6 - LO vs G+LaG under dataset dissimilarity
# --------------------------------------------------------------------------- #
def figure6_threshold_sweep(
    deltas: Sequence[float] = (1.0, 1.05, 1.1, 1.2, 1.3, 1.45, 1.6),
    hours: float = 120.0,
    ga_options: Optional[Dict[str, Any]] = None,
    local_options: Optional[Dict[str, Any]] = None,
    seed: int = 1,
) -> ExperimentResult:
    """RMSE and runtime of LO vs G+LaG for increasingly dissimilar datasets (HP1)."""
    spec = get_model_spec("HP1")
    ga_options = ga_options or {"population_size": 16, "generations": 10}
    local_options = local_options or {"max_iterations": 40}

    session = Session(ga_options=ga_options, local_options=local_options, seed=seed)
    base = generate_dataset_for("HP1", hours=hours, seed=seed + 100)
    load_dataset(session.database, base, table_name="measurements_ref")
    archive_path = session.catalog.storage_dir / "hp1_fig6.fmu"
    spec.builder().write(archive_path)
    session.create(str(archive_path), "HP1Reference")

    reference = session.estimator.estimate_single(
        "HP1Reference", "SELECT * FROM measurements_ref", spec.estimated_parameters
    )

    rows: List[List[Any]] = []
    for i, delta in enumerate(deltas):
        scaled = scale_dataset(base, delta, name=f"hp1_fig6_{i}", columns=["x", "y"])
        table = load_dataset(session.database, scaled, table_name=f"measurements_fig6_{i}")
        input_sql = f"SELECT * FROM {table}"
        dissimilarity = session.estimator.measurement_dissimilarity(
            session.estimator.load_measurements("SELECT * FROM measurements_ref"),
            session.estimator.load_measurements(input_sql),
        )

        # Full G+LaG calibration on a fresh instance.
        full_id = f"HP1Full{i}"
        session.instance("HP1Reference").copy(full_id).reset()
        started = time.perf_counter()
        full = session.estimator.estimate_single(full_id, input_sql, spec.estimated_parameters)
        full_seconds = time.perf_counter() - started

        # LO calibration warm-started from the reference optimum.
        lo_id = f"HP1Lo{i}"
        session.instance("HP1Reference").copy(lo_id)
        started = time.perf_counter()
        lo = session.estimator.estimate_single(
            lo_id,
            input_sql,
            spec.estimated_parameters,
            method="local",
            initial_values=reference.parameters,
        )
        lo_seconds = time.perf_counter() - started

        rows.append(
            [
                round(delta, 3),
                round(dissimilarity, 4),
                round(full.error, 4),
                round(lo.error, 4),
                round(full_seconds, 3),
                round(lo_seconds, 3),
            ]
        )

    lo_faster = all(row[5] < row[4] for row in rows)
    small = [row for row in rows if row[1] < 0.2]
    rmse_gap_small = max((abs(row[3] - row[2]) / max(row[2], 1e-9) for row in small), default=0.0)
    return ExperimentResult(
        experiment_id="Figure 6",
        title="Avg. RMSE & execution time of LO and G+LaG vs dataset dissimilarity (HP1)",
        headers=["delta", "dissimilarity", "rmse_g_lag", "rmse_lo", "seconds_g_lag", "seconds_lo"],
        rows=rows,
        meta={
            "lo_always_faster": lo_faster,
            "max_relative_rmse_gap_below_20pct_dissimilarity": round(rmse_gap_small, 4),
            "reference_parameters": reference.parameters,
            "paper_reported": "no RMSE difference until ~30% dissimilarity; G+LaG much slower than LO",
        },
    )


# --------------------------------------------------------------------------- #
# Figure 7 - MI scenario execution time
# --------------------------------------------------------------------------- #
def figure7_mi_scaling(
    model_names: Sequence[str] = ("HP0", "HP1", "Classroom"),
    instance_counts: Sequence[int] = (2, 4, 6),
    settings_overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Workflow execution time vs number of instances for the three configurations."""
    rows: List[List[Any]] = []
    meta: Dict[str, Any] = {}
    for model_name in model_names:
        speedups = []
        for count in instance_counts:
            settings = _default_settings(
                model_name, n_instances=count, **(settings_overrides or {})
            )
            outcome = run_mi_scenario(settings)
            rows.append(
                [
                    model_name,
                    count,
                    round(outcome.total_seconds["python"], 3),
                    round(outcome.total_seconds["pgfmu-"], 3),
                    round(outcome.total_seconds["pgfmu+"], 3),
                    round(outcome.speedup_over_python, 3),
                    outcome.mi_hits,
                    round(outcome.average_errors["python"], 4),
                    round(outcome.average_errors["pgfmu+"], 4),
                    *(
                        round(seconds, 3)
                        for arm in ("python", "pgfmu-", "pgfmu+")
                        for seconds in outcome.stage_seconds[arm]
                    ),
                    round(outcome.mi_ceiling, 2),
                ]
            )
            speedups.append(outcome.speedup_over_python)
        meta[f"{model_name}_max_speedup"] = round(max(speedups), 3)
    meta["paper_reported"] = "pgFMU+ 5.31x / 5.51x / 8.43x faster at 100 instances (avg 6.42x)"
    return ExperimentResult(
        experiment_id="Figure 7",
        title="MI scenario execution time (Python vs pgFMU- vs pgFMU+)",
        headers=[
            "Model",
            "instances",
            "python_s",
            "pgfmu-_s",
            "pgfmu+_s",
            "speedup_pgfmu+",
            "mi_warm_starts",
            "avg_rmse_python",
            "avg_rmse_pgfmu+",
            "ga_s_python",
            "local_s_python",
            "ga_s_pgfmu-",
            "local_s_pgfmu-",
            "ga_s_pgfmu+",
            "local_s_pgfmu+",
            "mi_ceiling",
        ],
        rows=rows,
        meta=meta,
    )


# --------------------------------------------------------------------------- #
# Figure 8 - usability study (simulated)
# --------------------------------------------------------------------------- #
def figure8_usability(n_participants: int = 30, seed: int = 42) -> ExperimentResult:
    """Simulated learning + development time per participant."""
    study = UsabilityStudy(n_participants=n_participants, seed=seed)
    outcomes = study.run()
    summary = study.summary(outcomes)
    rows = [
        [o.user_id, o.role, round(o.python_minutes, 1), round(o.pgfmu_minutes, 1), round(o.speedup, 2)]
        for o in outcomes
    ]
    return ExperimentResult(
        experiment_id="Figure 8",
        title="Users learning and development time (simulated study)",
        headers=["user", "role", "python_minutes", "pgfmu_minutes", "speedup"],
        rows=rows,
        meta={**summary, "paper_reported": "all users < 20 min with pgFMU; mean 11.74x faster"},
    )


# --------------------------------------------------------------------------- #
# MADlib combination experiments
# --------------------------------------------------------------------------- #
def madlib_occupancy_experiment(
    hours: float = 240.0,
    seed: int = 5,
    ga_options: Optional[Dict[str, Any]] = None,
    arima_order: Sequence[int] = (3, 0, 1),
) -> ExperimentResult:
    """ARIMA-predicted occupancy improves the Classroom FMU's accuracy."""
    spec = get_model_spec("Classroom")
    ga_options = ga_options or {"population_size": 16, "generations": 8}
    session = Session(ga_options=ga_options, seed=seed)
    dataset = generate_classroom_dataset(hours=hours, seed=seed + 10)
    load_dataset(session.database, dataset, table_name="classroom")

    n_total = len(dataset)
    n_train = int(round(n_total * 0.8))
    split_time = float(dataset.time[n_train - 1])
    train_sql = f"SELECT * FROM classroom WHERE time <= {split_time!r}"
    validation_rows = session.database.query_dicts(
        f"SELECT * FROM classroom WHERE time > {split_time!r}"
    )
    validation = MeasurementSet.from_rows(validation_rows)
    n_validation = len(validation.time)

    archive_path = session.catalog.storage_dir / "classroom_madlib.fmu"
    spec.builder().write(archive_path)
    session.create(str(archive_path), "ClassroomBase")
    calibration = session.estimator.estimate_single(
        "ClassroomBase", train_sql, spec.estimated_parameters
    )

    # Occupancy prediction with the MADlib-style ARIMA UDFs: the model is
    # trained on the stored occupancy series and its forecast over the
    # validation window stands in for the unknown occupancy.
    session.execute("SELECT arima_train('classroom', 'occ_model', 'time', 'occ', $1, $2, $3)",
                [int(arima_order[0]), int(arima_order[1]), int(arima_order[2])])
    forecast_rows = session.execute(
        "SELECT * FROM arima_forecast('occ_model', $1)", [n_validation]
    ).rows
    predicted_occupancy = np.clip(
        np.array([row[1] for row in forecast_rows], dtype=float), 0.0, None
    )

    measured_temperature = validation.series["t"]

    def simulate_with_occupancy(occupancy_values: np.ndarray) -> float:
        model = session.catalog.runtime_model("ClassroomBase")
        model.set_many(calibration.parameters)
        # Start from the measured room temperature at the beginning of the
        # validation window (otherwise the initial transient dominates).
        model.set("t", float(measured_temperature[0]))
        inputs = {
            name: (validation.time, validation.series[name])
            for name in ("solrad", "tout", "dpos", "vpos")
        }
        inputs["occ"] = (validation.time, occupancy_values)
        result = model.simulate(
            inputs=inputs,
            start_time=float(validation.time[0]),
            stop_time=float(validation.time[-1]),
            output_times=validation.time,
        )
        return float(rmse(measured_temperature, result["t"]))

    rmse_without = simulate_with_occupancy(np.zeros(n_validation))
    rmse_with = simulate_with_occupancy(predicted_occupancy)
    improvement = (rmse_without - rmse_with) / rmse_without * 100.0

    rows = [
        ["without occupancy information", round(rmse_without, 4)],
        ["with MADlib-ARIMA-predicted occupancy", round(rmse_with, 4)],
    ]
    return ExperimentResult(
        experiment_id="MADlib combo (a)",
        title="Classroom model RMSE with and without ARIMA-predicted occupancy",
        headers=["Configuration", "Validation RMSE [degC]"],
        rows=rows,
        meta={
            "rmse_improvement_percent": round(improvement, 2),
            "paper_reported": "up to 21.1% RMSE improvement",
            "calibrated_parameters": calibration.parameters,
        },
    )


def madlib_damper_experiment(hours: float = 168.0, seed: int = 6) -> ExperimentResult:
    """The FMU-simulated indoor temperature improves the damper classifier."""
    spec = get_model_spec("Classroom")
    session = Session(seed=seed)
    dataset = generate_classroom_dataset(hours=hours, seed=seed + 20)
    load_dataset(session.database, dataset, table_name="classroom")

    archive_path = session.catalog.storage_dir / "classroom_damper.fmu"
    spec.true_builder().write(archive_path)
    session.create(str(archive_path), "ClassroomTrue")

    # Simulate the indoor temperature with pgFMU and store it as a feature.
    result = session.simulate("ClassroomTrue", "SELECT * FROM classroom")
    simulated_temperature = result["t"]

    session.execute(
        "CREATE TABLE damper_features (time double precision PRIMARY KEY, "
        "solrad double precision, tout double precision, occ double precision, "
        "t_fmu double precision, damper_open integer)"
    )
    # "Open" is defined relative to the median damper position so the two
    # classes are balanced and the classification task is non-trivial.
    threshold_open = float(np.median(dataset.series["dpos"]))
    rows = []
    for i, record in enumerate(dataset.to_dicts()):
        rows.append(
            [
                record["time"],
                record["solrad"],
                record["tout"],
                record["occ"],
                float(simulated_temperature[i]),
                1 if record["dpos"] > threshold_open else 0,
            ]
        )
    session.database.insert_rows("damper_features", rows)

    # Train/validation split: every fifth sample is held out.  An interleaved
    # split keeps the two sets distributionally comparable (a purely temporal
    # split would confound the comparison with the building's slow thermal
    # drift over the measurement campaign).
    session.execute("CREATE TABLE damper_train (time double precision, solrad double precision, "
                "tout double precision, occ double precision, t_fmu double precision, damper_open integer)")
    session.execute("CREATE TABLE damper_validation (time double precision, solrad double precision, "
                "tout double precision, occ double precision, t_fmu double precision, damper_open integer)")
    session.database.insert_rows(
        "damper_train", [row for i, row in enumerate(rows) if i % 5 != 4]
    )
    session.database.insert_rows(
        "damper_validation", [row for i, row in enumerate(rows) if i % 5 == 4]
    )

    base_accuracy = _train_and_score(session, "damper_base", "{solrad, tout, occ}")
    fmu_accuracy = _train_and_score(session, "damper_with_fmu", "{solrad, tout, occ, t_fmu}")
    improvement = (fmu_accuracy - base_accuracy) / base_accuracy * 100.0

    return ExperimentResult(
        experiment_id="MADlib combo (b)",
        title="Damper-position classifier accuracy with and without the FMU temperature feature",
        headers=["Feature set", "Validation accuracy"],
        rows=[
            ["solrad, tout, occ", round(base_accuracy, 4)],
            ["solrad, tout, occ, t_fmu", round(fmu_accuracy, 4)],
        ],
        meta={
            "accuracy_improvement_percent": round(improvement, 2),
            "paper_reported": "5.9% accuracy improvement",
        },
    )


def _train_and_score(session: Session, model_table: str, features: str) -> float:
    session.execute(
        "SELECT logregr_train('damper_train', $1, 'damper_open', $2)",
        [model_table, features],
    )
    return float(
        session.execute(
            "SELECT logregr_accuracy($1, 'damper_validation', 'damper_open')",
            [model_table],
        ).scalar()
    )
