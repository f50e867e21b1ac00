"""The running-example workflow executed through pgFMU.

This mirrors :class:`repro.baseline.workflow.PythonWorkflow` step by step so
the per-step timings are directly comparable (Table 8), but every step is
SQL against the pgFMU session: measurements are never exported, the
simulation is stored by one ``INSERT ... SELECT`` over ``fmu_simulate`` and
analyzed in place, and validation and model update happen inside
``fmu_parest``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.baseline.workflow import StepTiming, WorkflowResult
from repro.core.session import Session
from repro.errors import ReproError
from repro.estimation.objective import MeasurementSet
from repro.fmi.archive import FmuArchive

#: Table that step 5 stores the simulated trajectory in, as the Python
#: baseline's export step does in ``predictions_python``.
PREDICTIONS_TABLE = "predictions_pgfmu"


class PgFmuWorkflow:
    """The seven-step workflow expressed as pgFMU SQL calls.

    Parameters
    ----------
    session:
        The pgFMU session (owning the database with the measurements table).
    archive:
        The FMU archive to register (written to FMU storage on first use).
    measurements_table:
        Name of the measurements table inside the session's database.
    parameters:
        Parameters to estimate.
    instance_id:
        Identifier for the catalogue instance created by the workflow.
    training_fraction:
        Calibration/validation split, as in the baseline.
    use_mi_optimization:
        Whether ``fmu_parest`` may apply the MI optimization; the pgFMU-
        configuration of the paper disables it.
    observed:
        Name of the measured series used for validation RMSE.
    """

    def __init__(
        self,
        session: Session,
        archive: FmuArchive,
        measurements_table: str,
        parameters: Sequence[str],
        instance_id: str,
        training_fraction: float = 0.75,
        use_mi_optimization: bool = True,
        observed: str = "x",
        warm_start_from: Optional[Dict[str, float]] = None,
        threshold: float = 0.2,
    ):
        self.session = session
        self.archive = archive
        self.measurements_table = measurements_table
        self.parameters = list(parameters)
        self.instance_id = instance_id
        self.training_fraction = float(training_fraction)
        self.use_mi_optimization = use_mi_optimization
        self.observed = observed
        self.warm_start_from = warm_start_from
        self.threshold = threshold

    # ------------------------------------------------------------------ #
    # Workflow
    # ------------------------------------------------------------------ #
    def run(self) -> WorkflowResult:
        """Execute the workflow and return per-step timings."""
        steps: List[StepTiming] = []
        database = self.session.database

        # Step 1: load/build the FMU model (fmu_create on a stored archive).
        started = time.perf_counter()
        fmu_path = self.session.catalog.storage_dir / f"workflow_{self.archive.model_name}.fmu"
        if not Path(fmu_path).exists():
            self.archive.write(fmu_path)
        self.session.create(str(fmu_path), self.instance_id)
        steps.append(StepTiming("load_fmu", time.perf_counter() - started))

        # Step 2: read measurements - nothing to do, the data is already in
        # the DBMS; we only determine the training window boundary.
        started = time.perf_counter()
        bounds = database.execute(
            f"SELECT min(time) AS t0, max(time) AS t1, count(*) AS n FROM {self.measurements_table}"
        ).first()
        if not bounds or bounds["n"] == 0:
            raise ReproError(f"measurements table {self.measurements_table!r} is empty")
        split_time = bounds["t0"] + self.training_fraction * (bounds["t1"] - bounds["t0"])
        steps.append(StepTiming("read_measurements", time.perf_counter() - started))

        # Step 3: recalibrate with fmu_parest on the training window.
        started = time.perf_counter()
        training_sql = (
            f"SELECT * FROM {self.measurements_table} WHERE time <= {split_time!r}"
        )
        outcomes = self.session.estimator.estimate(
            [self.instance_id],
            [training_sql],
            parameters=self.parameters,
            threshold=self.threshold,
            use_mi_optimization=self.use_mi_optimization,
        ) if self.warm_start_from is None else [
            self._warm_started_estimate(training_sql)
        ]
        calibration = outcomes[0]
        steps.append(StepTiming("recalibrate", time.perf_counter() - started))

        # Step 4: validate on the held-out window (a simulation + RMSE, all
        # computed from in-DBMS data).
        started = time.perf_counter()
        validation_sql = (
            f"SELECT * FROM {self.measurements_table} WHERE time >= {split_time!r}"
        )
        validation_error = self._validation_rmse(validation_sql, calibration.parameters)
        steps.append(StepTiming("validate_update", time.perf_counter() - started))

        # Step 5: simulate the calibrated model over the full window, storing
        # the trajectory in a table with one INSERT ... SELECT.
        started = time.perf_counter()
        database.execute(f"DROP TABLE IF EXISTS {PREDICTIONS_TABLE}")
        database.execute(
            f"CREATE TABLE {PREDICTIONS_TABLE} (simulationtime DOUBLE PRECISION, "
            "instanceid TEXT, varname TEXT, value DOUBLE PRECISION)"
        )
        database.execute(
            f"INSERT INTO {PREDICTIONS_TABLE} SELECT * FROM fmu_simulate("
            f"'{self.instance_id}', 'SELECT * FROM {self.measurements_table}')"
        )
        steps.append(StepTiming("simulate", time.perf_counter() - started))

        # Step 6: export predictions - not needed, step 5 stored them.
        started = time.perf_counter()
        steps.append(StepTiming("export_predictions", time.perf_counter() - started))

        # Step 7: further analysis with plain SQL over the stored predictions.
        started = time.perf_counter()
        database.execute(
            "SELECT varname, avg(value) AS mean_value, min(value) AS min_value, "
            f"max(value) AS max_value FROM {PREDICTIONS_TABLE} GROUP BY varname"
        )
        steps.append(StepTiming("further_analysis", time.perf_counter() - started))

        configuration = "pgfmu+" if self.use_mi_optimization else "pgfmu-"
        return WorkflowResult(
            configuration=configuration,
            model_name=self.archive.model_name,
            parameters=dict(calibration.parameters),
            training_error=calibration.error,
            validation_error=validation_error,
            steps=steps,
            global_time=calibration.global_time,
            local_time=calibration.local_time,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _warm_started_estimate(self, training_sql: str):
        """MI-optimized calibration warm-started from a reference optimum."""
        return self.session.estimator.estimate_single(
            self.instance_id,
            training_sql,
            parameters=self.parameters,
            method="local",
            initial_values=self.warm_start_from,
        )

    def _validation_rmse(
        self, validation_sql: str, parameters: Dict[str, float]
    ) -> Optional[float]:
        rows = self.session.database.query_dicts(validation_sql)
        if len(rows) < 2:
            return None
        measurements = MeasurementSet.from_rows(rows)
        if self.observed not in measurements.series:
            return None
        from repro.estimation.objective import SimulationObjective

        model = self.session.catalog.runtime_model(self.instance_id)
        objective = SimulationObjective(
            model=model,
            measurements=measurements,
            parameter_names=list(parameters),
            observed_names=[self.observed],
        )
        return float(objective.error_for(parameters))
