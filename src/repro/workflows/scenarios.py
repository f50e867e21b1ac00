"""Single-instance (SI) and multi-instance (MI) scenario runners.

These functions reproduce the experimental setup of Section 8.1:

* three configurations - ``Python`` (the traditional stack),
  ``pgFMU-`` (pgFMU without the MI optimization) and ``pgFMU+`` (with it);
* the SI scenario calibrates, validates and simulates a single instance of a
  model and reports per-step timings (Table 8) and calibration quality
  (Table 7);
* the MI scenario repeats the store/calibrate/simulate/validate workflow for
  ``n_instances`` instances of the same model, each bound to a synthetic
  dataset obtained by delta-scaling the original one (Figure 7).

The scenario settings expose the calibration budget so benchmarks can scale
the experiments down (the paper's full-size runs take ~14 minutes per
calibration on the original hardware); the *relative* behaviour - which
configuration wins and by roughly which factor - is preserved at any budget
because it is driven by how many global searches each configuration runs.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baseline.workflow import PythonWorkflow, WorkflowResult
from repro.core.session import Session
from repro.data.generators import generate_dataset_for
from repro.data.loaders import load_dataset
from repro.data.synthetic import synthetic_family
from repro.errors import ReproError
from repro.estimation.objective import MeasurementSet
from repro.models.registry import get_model_spec
from repro.sqldb.database import Database
from repro.workflows.pgfmu_workflow import PgFmuWorkflow

#: Default calibration budget used by the scenario runners.  Chosen so a
#: single calibration takes on the order of a second on a laptop while still
#: running a genuine global + local search.
DEFAULT_GA_OPTIONS = {"population_size": 16, "generations": 10}
DEFAULT_LOCAL_OPTIONS = {"max_iterations": 40}


@dataclass
class ScenarioSettings:
    """Settings shared by the SI and MI scenario runners."""

    model_name: str = "HP1"
    hours: Optional[float] = 168.0
    n_instances: int = 5
    seed: int = 1
    threshold: float = 0.2
    training_fraction: float = 0.75
    ga_options: Dict = field(default_factory=lambda: dict(DEFAULT_GA_OPTIONS))
    local_options: Dict = field(default_factory=lambda: dict(DEFAULT_LOCAL_OPTIONS))

    def spec(self):
        return get_model_spec(self.model_name)


@dataclass
class SiScenarioResult:
    """Per-configuration results of the single-instance scenario."""

    model_name: str
    python: WorkflowResult
    pgfmu_minus: WorkflowResult
    pgfmu_plus: WorkflowResult
    true_parameters: Dict[str, float]

    def results(self) -> Dict[str, WorkflowResult]:
        return {
            "python": self.python,
            "pgfmu-": self.pgfmu_minus,
            "pgfmu+": self.pgfmu_plus,
        }


@dataclass
class MiScenarioResult:
    """Per-configuration results of the multi-instance scenario."""

    model_name: str
    n_instances: int
    total_seconds: Dict[str, float]
    errors: Dict[str, List[float]]
    mi_hits: int = 0
    #: Per configuration, the seconds of all calibrations' global (GA) and
    #: local stages, summed over the instances.
    stage_seconds: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: The two timing comparisons, each the median over the timing repeats
    #: of a ratio within one repeat, which a burst of host load spanning a
    #: repeat moves less than a ratio of the arms' separate medians:
    #: pgFMU+'s seconds over pgFMU-'s, and how many times faster pgFMU+ is
    #: than the Python configuration.
    plus_over_minus: float = float("nan")
    speedup_over_python: float = float("nan")

    @property
    def mi_ceiling(self) -> float:
        """The most pgFMU+ can gain over pgFMU-: (GA + local) / local.

        With every instance but the first warm-started, pgFMU+ runs the
        local stage alone, so no instance count beats this ratio of
        pgFMU-'s stage times.
        """
        global_s, local_s = self.stage_seconds.get("pgfmu-", (0.0, 0.0))
        return (global_s + local_s) / local_s if local_s > 0 else float("inf")

    @property
    def average_errors(self) -> Dict[str, float]:
        return {
            config: float(np.mean(values)) if values else float("nan")
            for config, values in self.errors.items()
        }


# --------------------------------------------------------------------------- #
# SI scenario
# --------------------------------------------------------------------------- #
def run_si_scenario(settings: Optional[ScenarioSettings] = None) -> SiScenarioResult:
    """Run the single-instance scenario for one model in all three configurations."""
    settings = settings or ScenarioSettings()
    spec = settings.spec()
    dataset = generate_dataset_for(spec.name, hours=settings.hours, seed=settings.seed + 100)

    # Python configuration: its own database with the measurements loaded.
    python_db = Database()
    table = load_dataset(python_db, dataset, table_name="measurements")
    with PythonWorkflow(
        database=python_db,
        archive=spec.builder(),
        measurements_table=table,
        parameters=spec.estimated_parameters,
        training_fraction=settings.training_fraction,
        ga_options=settings.ga_options,
        local_options=settings.local_options,
        seed=settings.seed,
    ) as python_workflow:
        python_result = python_workflow.run()

    # pgFMU- and pgFMU+ configurations.
    pgfmu_results = {}
    for use_mi, label in ((False, "pgfmu-"), (True, "pgfmu+")):
        with Session(
            ga_options=settings.ga_options,
            local_options=settings.local_options,
            seed=settings.seed,
        ) as session:
            load_dataset(session.database, dataset, table_name="measurements")
            workflow = PgFmuWorkflow(
                session=session,
                archive=spec.builder(),
                measurements_table="measurements",
                parameters=spec.estimated_parameters,
                instance_id=f"{spec.name}Instance1",
                training_fraction=settings.training_fraction,
                use_mi_optimization=use_mi,
                observed=spec.observed[0],
                threshold=settings.threshold,
            )
            pgfmu_results[label] = workflow.run()

    return SiScenarioResult(
        model_name=spec.name,
        python=python_result,
        pgfmu_minus=pgfmu_results["pgfmu-"],
        pgfmu_plus=pgfmu_results["pgfmu+"],
        true_parameters=dict(spec.true_parameters),
    )


# --------------------------------------------------------------------------- #
# MI scenario
# --------------------------------------------------------------------------- #
def _training_sql(database: Database, table: str, fraction: float) -> str:
    """The query for the training window :meth:`MeasurementSet.split` keeps."""
    times = [row[0] for row in database.execute(f"SELECT time FROM {table} ORDER BY time").rows]
    last = float(times[MeasurementSet.split_index(len(times), fraction) - 1])
    return f"SELECT * FROM {table} WHERE time <= {last!r}"


#: Each MI configuration is timed as the median of this many repeats, run
#: in alternation (Python, pgFMU-, pgFMU+, Python, ...), so a swing in host
#: speed hits every configuration alike instead of one single-shot timing.
MI_TIMING_REPEATS = 5


def run_mi_scenario(settings: Optional[ScenarioSettings] = None) -> MiScenarioResult:
    """Run the multi-instance scenario in all three configurations.

    Each instance is bound to a delta-scaled synthetic dataset, as in the
    paper.  The Python and pgFMU- configurations run the full global+local
    calibration for every instance; pgFMU+ applies the MI optimization and
    runs the global stage only for the first instance (and for any instance
    whose measurements are too dissimilar).  Every configuration calibrates
    on the same training window, the first ``training_fraction`` of each
    dataset's samples.

    Each configuration runs :data:`MI_TIMING_REPEATS` times, alternating
    with the others, each time on a fresh database; its reported seconds
    (total and per stage) are the medians over the repeats, and its
    ``plus_over_minus`` and ``speedup_over_python`` the medians of
    per-repeat ratios.  The seeds are fixed, so every repeat computes the
    same errors.
    """
    settings = settings or ScenarioSettings()
    spec = settings.spec()
    if settings.n_instances < 1:
        raise ReproError("n_instances must be at least 1")
    base_dataset = generate_dataset_for(spec.name, hours=settings.hours, seed=settings.seed + 100)
    family = synthetic_family(base_dataset, settings.n_instances, seed=settings.seed + 200)

    arms = {
        "python": lambda workdir: _python_arm(settings, spec, family, workdir),
        "pgfmu-": lambda workdir: _pgfmu_arm(settings, spec, family, workdir, use_mi=False),
        "pgfmu+": lambda workdir: _pgfmu_arm(settings, spec, family, workdir, use_mi=True),
    }
    runs: Dict[str, List[_ArmRun]] = {label: [] for label in arms}
    for _ in range(MI_TIMING_REPEATS):
        for label, arm in arms.items():
            # Each run's FMU files live in a directory removed after it.
            with tempfile.TemporaryDirectory(prefix="pgfmu_mi_") as workdir:
                runs[label].append(arm(workdir))

    return MiScenarioResult(
        model_name=spec.name,
        n_instances=settings.n_instances,
        total_seconds={
            label: float(np.median([run.seconds for run in arm_runs]))
            for label, arm_runs in runs.items()
        },
        errors={label: arm_runs[-1].errors for label, arm_runs in runs.items()},
        mi_hits=runs["pgfmu+"][-1].mi_hits,
        stage_seconds={
            label: (
                float(np.median([run.stages[0] for run in arm_runs])),
                float(np.median([run.stages[1] for run in arm_runs])),
            )
            for label, arm_runs in runs.items()
        },
        plus_over_minus=_paired_ratio(runs["pgfmu+"], runs["pgfmu-"]),
        speedup_over_python=_paired_ratio(runs["python"], runs["pgfmu+"]),
    )


def _paired_ratio(numerator: List[_ArmRun], denominator: List[_ArmRun]) -> float:
    """Median over the timing repeats of one arm's seconds over another's."""
    return float(
        np.median([top.seconds / bottom.seconds for top, bottom in zip(numerator, denominator)])
    )


@dataclass
class _ArmRun:
    """One timed run of one MI configuration."""

    seconds: float
    errors: List[float]
    #: Seconds of all calibrations' global and local stages, summed.
    stages: Tuple[float, float]
    mi_hits: int = 0


def _python_arm(settings: ScenarioSettings, spec, family, workdir: str) -> _ArmRun:
    python_db = Database()
    tables = [
        load_dataset(python_db, member, table_name=f"measurements_{i + 1}")
        for i, member in enumerate(family)
    ]
    started = time.perf_counter()
    errors, stages = [], []
    for i, table in enumerate(tables):
        workflow = PythonWorkflow(
            database=python_db,
            archive=spec.builder(),
            measurements_table=table,
            parameters=spec.estimated_parameters,
            training_fraction=settings.training_fraction,
            ga_options=settings.ga_options,
            local_options=settings.local_options,
            seed=settings.seed,
            predictions_table=f"predictions_python_{i + 1}",
            workdir=workdir,
        )
        result = workflow.run()
        errors.append(result.training_error)
        stages.append((result.global_time, result.local_time))
    return _ArmRun(time.perf_counter() - started, errors, _stage_sums(stages))


def _pgfmu_arm(
    settings: ScenarioSettings, spec, family, workdir: str, use_mi: bool
) -> _ArmRun:
    session = Session(
        storage_dir=workdir,
        ga_options=settings.ga_options,
        local_options=settings.local_options,
        seed=settings.seed,
    )
    member_tables = [
        load_dataset(session.database, member, table_name=f"measurements_{i + 1}")
        for i, member in enumerate(family)
    ]
    archive_path = session.catalog.storage_dir / f"{spec.name}_mi.fmu"
    spec.builder().write(archive_path)

    started = time.perf_counter()
    instance_ids = []
    for i in range(settings.n_instances):
        instance_id = f"{spec.name}Instance{i + 1}"
        if i == 0:
            session.create(str(archive_path), instance_id)
        else:
            session.instance(f"{spec.name}Instance1").copy(instance_id)
        instance_ids.append(instance_id)
    input_sqls = [
        _training_sql(session.database, table, settings.training_fraction)
        for table in member_tables
    ]
    outcomes = session.parest(
        instance_ids,
        input_sqls,
        parameters=spec.estimated_parameters,
        threshold=settings.threshold,
        use_mi_optimization=use_mi,
    )
    # Simulate every instance (part of the timed workflow, as in the paper)
    # and record the calibration error, which is the quality figure the
    # paper's MI comparison reports.
    for instance_id, table in zip(instance_ids, member_tables):
        session.simulate(instance_id, f"SELECT * FROM {table}")
    return _ArmRun(
        time.perf_counter() - started,
        [outcome.error for outcome in outcomes],
        _stage_sums([(outcome.global_time, outcome.local_time) for outcome in outcomes]),
        mi_hits=sum(1 for outcome in outcomes if outcome.used_mi_optimization),
    )


def _stage_sums(stages: List[Tuple[float, float]]) -> Tuple[float, float]:
    return float(sum(g for g, _ in stages)), float(sum(l for _, l in stages))
