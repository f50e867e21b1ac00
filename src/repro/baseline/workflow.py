"""The traditional seven-step workflow of Figure 1, with per-step timing.

The baseline deliberately performs the inefficiencies pgFMU removes:

1. *Load FMU* - the archive is read from a file on disk.
2. *Read measurements* - the measurements are queried from the database and
   then written to (and re-read from) an intermediate CSV file, because the
   traditional modelling tools consume text files, not database cursors.
3. *Recalibrate* - Global + Local search on the training window.
4. *Validate & update* - RMSE on the held-out validation window, then the
   estimates are written back onto the model object by hand.
5. *Simulate* - the calibrated model is simulated over the whole window.
6. *Export predictions* - the simulation results are inserted back into the
   database row by row.
7. *Further analysis* - an aggregate SQL query over the stored predictions.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.estimation.estimator import Estimation
from repro.estimation.objective import MeasurementSet
from repro.fmi.archive import FmuArchive
from repro.fmi.model import FmuModel, load_fmu
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.types import SqlType


@dataclass
class StepTiming:
    """Wall-clock seconds spent in one workflow step."""

    name: str
    seconds: float


@dataclass
class WorkflowResult:
    """Outcome of one workflow run (any configuration)."""

    configuration: str
    model_name: str
    parameters: Dict[str, float]
    training_error: float
    validation_error: Optional[float]
    steps: List[StepTiming] = field(default_factory=list)
    #: Seconds of the calibration's global (GA) and local stages.
    global_time: float = 0.0
    local_time: float = 0.0

    @property
    def total_seconds(self) -> float:
        return float(sum(step.seconds for step in self.steps))

    def step_seconds(self, name: str) -> float:
        for step in self.steps:
            if step.name == name:
                return step.seconds
        raise ReproError(f"workflow has no step named {name!r}")


class PythonWorkflow:
    """The traditional-stack workflow for one model instance.

    Parameters
    ----------
    database:
        The database holding the measurements table (and receiving the
        predictions at the end).
    archive:
        The FMU archive of the model to calibrate.
    measurements_table:
        Name of the measurements table.
    parameters:
        Names of the parameters to estimate.
    training_fraction:
        Fraction of the measurement window used for calibration (the rest is
        the validation window), matching the paper's Feb 1-21 / Feb 22-28
        split (0.75).
    ga_options / local_options / seed:
        Calibration budget, shared with the pgFMU configurations so the
        quality comparison is apples-to-apples.
    workdir:
        Directory for the intermediate files (a temp dir by default).
    """

    def __init__(
        self,
        database: Database,
        archive: FmuArchive,
        measurements_table: str,
        parameters: Sequence[str],
        training_fraction: float = 0.75,
        ga_options: Optional[dict] = None,
        local_options: Optional[dict] = None,
        seed: int = 1,
        workdir: Optional[str] = None,
        predictions_table: str = "predictions_python",
    ):
        self.database = database
        self.archive = archive
        self.measurements_table = measurements_table
        self.parameters = list(parameters)
        self.training_fraction = float(training_fraction)
        self.ga_options = dict(ga_options or {})
        self.local_options = dict(local_options or {})
        self.seed = seed
        # A temporary work directory created here is removed by close()
        # (or the workflow's garbage collection); a given one is left alone.
        self._remove_workdir: Optional[weakref.finalize] = None
        if not workdir:
            workdir = tempfile.mkdtemp(prefix="pgfmu_baseline_")
            self._remove_workdir = weakref.finalize(
                self, shutil.rmtree, workdir, ignore_errors=True
            )
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.predictions_table = predictions_table

    def close(self) -> None:
        """Remove the work directory if this workflow created it."""
        if self._remove_workdir is not None:
            self._remove_workdir()

    def __enter__(self) -> "PythonWorkflow":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Workflow steps
    # ------------------------------------------------------------------ #
    def run(self) -> WorkflowResult:
        """Execute all seven steps and return the per-step timings."""
        steps: List[StepTiming] = []

        started = time.perf_counter()
        fmu_path = self.workdir / f"{self.archive.model_name}.fmu"
        self.archive.write(fmu_path)
        model = load_fmu(fmu_path)
        steps.append(StepTiming("load_fmu", time.perf_counter() - started))

        started = time.perf_counter()
        measurements = self._read_measurements_via_csv()
        steps.append(StepTiming("read_measurements", time.perf_counter() - started))

        training, validation = measurements.split(self.training_fraction)

        started = time.perf_counter()
        estimation = Estimation(
            model=model,
            measurements=training,
            parameters=self.parameters,
            ga_options=self.ga_options,
            local_options=self.local_options,
            seed=self.seed,
        )
        calibration = estimation.estimate("global+local")
        steps.append(StepTiming("recalibrate", time.perf_counter() - started))

        started = time.perf_counter()
        validation_error = estimation.validate(calibration.parameters, validation)
        model.set_many(calibration.parameters)
        steps.append(StepTiming("validate_update", time.perf_counter() - started))

        started = time.perf_counter()
        simulation = self._simulate(model, measurements)
        steps.append(StepTiming("simulate", time.perf_counter() - started))

        started = time.perf_counter()
        self._export_predictions(simulation)
        steps.append(StepTiming("export_predictions", time.perf_counter() - started))

        started = time.perf_counter()
        self._further_analysis()
        steps.append(StepTiming("further_analysis", time.perf_counter() - started))

        return WorkflowResult(
            configuration="python",
            model_name=self.archive.model_name,
            parameters=calibration.parameters,
            training_error=calibration.error,
            validation_error=validation_error,
            steps=steps,
            global_time=calibration.global_time,
            local_time=calibration.local_time,
        )

    # ------------------------------------------------------------------ #
    # Step implementations
    # ------------------------------------------------------------------ #
    def _read_measurements_via_csv(self) -> MeasurementSet:
        """Query the DB, export to CSV, and read the CSV back (Figure 1 step 2)."""
        rows = self.database.query_dicts(f"SELECT * FROM {self.measurements_table} ORDER BY time")
        if not rows:
            raise ReproError(f"measurements table {self.measurements_table!r} is empty")
        csv_path = self.workdir / f"{self.measurements_table}.csv"
        columns = list(rows[0])
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([row[c] for c in columns])
        with open(csv_path, newline="") as handle:
            reader = csv.DictReader(handle)
            parsed = [
                {key: float(value) for key, value in record.items()} for record in reader
            ]
        return MeasurementSet.from_rows(parsed)

    def _simulate(self, model: FmuModel, measurements: MeasurementSet):
        input_names = set(model.input_names())
        inputs = {
            name: (measurements.time, measurements.series[name])
            for name in measurements.variable_names()
            if name in input_names
        }
        return model.simulate(
            inputs=inputs,
            start_time=float(measurements.time[0]),
            stop_time=float(measurements.time[-1]),
            output_times=measurements.time,
        )

    def _export_predictions(self, simulation) -> None:
        table_name = self.predictions_table
        if self.database.has_table(table_name):
            self.database.drop_table(table_name)
        self.database.create_table(
            TableSchema(
                name=table_name,
                columns=[
                    ColumnDefinition("time", SqlType.DOUBLE, not_null=True),
                    ColumnDefinition("varname", SqlType.TEXT, not_null=True),
                    ColumnDefinition("value", SqlType.DOUBLE),
                ],
                primary_key=["time", "varname"],
            )
        )
        reported = simulation.variables
        rows = []
        for i, t in enumerate(simulation.time):
            for name in reported:
                rows.append([float(t), name, float(simulation[name][i])])
        self.database.insert_rows(table_name, rows)

    def _further_analysis(self) -> dict:
        result = self.database.execute(
            f"SELECT varname, avg(value) AS mean_value, min(value) AS min_value, "
            f"max(value) AS max_value FROM {self.predictions_table} GROUP BY varname"
        )
        return {row["varname"]: row for row in result.to_dicts()}

