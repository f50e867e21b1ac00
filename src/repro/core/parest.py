"""Parameter estimation UDFs: Algorithm 2 (single instance) and Algorithm 3 (MI).

``fmu_parest`` takes a list of instances and a list of SQL queries producing
their measurements.  For a single instance it runs the full Global+Local
search (G+LaG).  For multiple instances of the same parent model it applies
the multi-instance (MI) optimization: the first instance is calibrated with
G+LaG, and every further instance whose measurements are sufficiently similar
(relative L2 dissimilarity below ``threshold``) is warm-started from the
first optimum and refined with Local-Only search (LO), skipping the expensive
global stage entirely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.catalog import ModelCatalog
from repro.core.instances import InstanceManager
from repro.errors import EstimationError, PgFmuError
from repro.estimation.estimator import Estimation, EstimationResult
from repro.estimation.lockstep import Lockstep
from repro.estimation.metrics import relative_l2_dissimilarity
from repro.estimation.objective import MeasurementSet

#: Default dissimilarity threshold (20 %), chosen by the paper from Figure 6.
DEFAULT_SIMILARITY_THRESHOLD = 0.2


@dataclass
class ParestOutcome:
    """Result of calibrating one instance inside a ``fmu_parest`` call."""

    instance_id: str
    error: float
    parameters: Dict[str, float]
    method: str
    n_evaluations: int
    global_time: float
    local_time: float
    used_mi_optimization: bool = False
    dissimilarity: Optional[float] = None
    #: Objective calls served from the calibration's memo cache.
    n_cache_hits: int = 0

    @property
    def total_time(self) -> float:
        return self.global_time + self.local_time


@dataclass
class ParameterEstimator:
    """Implements ``fmu_parest`` on top of the catalogue and estimation stack.

    Attributes
    ----------
    catalog / instances:
        The model catalogue and instance manager.
    ga_options / local_options:
        Budget options forwarded to the estimation stack.  The experiment
        harness shrinks these to keep benchmark runtimes manageable; the
        defaults match a thorough calibration.
    seed:
        Seed for the global search.
    """

    catalog: ModelCatalog
    instances: InstanceManager
    ga_options: Dict = field(default_factory=dict)
    local_options: Dict = field(default_factory=dict)
    seed: int = 1

    # ------------------------------------------------------------------ #
    # Measurement loading
    # ------------------------------------------------------------------ #
    def load_measurements(self, input_sql: str) -> MeasurementSet:
        """Execute an ``input_sql`` query and convert it to a measurement set."""
        if not input_sql or not str(input_sql).strip():
            raise PgFmuError("fmu_parest requires a measurement query (input_sql)")
        rows = self.catalog.database.query_dicts(str(input_sql))
        if not rows:
            raise PgFmuError(f"measurement query returned no rows: {input_sql!r}")
        return MeasurementSet.from_rows(rows)

    # ------------------------------------------------------------------ #
    # Single instance (Algorithm 2)
    # ------------------------------------------------------------------ #
    def estimate_single(
        self,
        instance_id: str,
        input_sql: str,
        parameters: Optional[Sequence[str]] = None,
        method: str = "global+local",
        initial_values: Optional[Dict[str, float]] = None,
        measurements: Optional[MeasurementSet] = None,
    ) -> ParestOutcome:
        """Calibrate one instance and write the estimates back to the catalogue."""
        measurement_set = measurements if measurements is not None else self.load_measurements(input_sql)
        estimation = self._estimation(instance_id, parameters, measurement_set)
        result = estimation.estimate(method=method, initial_values=initial_values)
        return self._write_back(instance_id, result)

    def _estimation(
        self,
        instance_id: str,
        parameters: Optional[Sequence[str]],
        measurements: MeasurementSet,
    ) -> Estimation:
        """An :class:`Estimation` of the instance's current runtime model."""
        parameter_names = list(parameters) if parameters else self.instances.parameter_names(instance_id)
        if not parameter_names:
            raise EstimationError(
                f"instance {instance_id!r} has no parameters to estimate"
            )
        return Estimation(
            model=self.catalog.runtime_model(instance_id),
            measurements=measurements,
            parameters=parameter_names,
            bounds=self.instances.bounds(instance_id),
            ga_options=dict(self.ga_options),
            local_options=dict(self.local_options),
            seed=self.seed,
        )

    def _write_back(self, instance_id: str, result: EstimationResult) -> ParestOutcome:
        for name, value in result.parameters.items():
            self.catalog.set_instance_value(instance_id, name, value)
        return ParestOutcome(
            instance_id=instance_id,
            error=result.error,
            parameters=result.parameters,
            method=result.method,
            n_evaluations=result.n_evaluations,
            n_cache_hits=result.n_cache_hits,
            global_time=result.global_time,
            local_time=result.local_time,
        )

    # ------------------------------------------------------------------ #
    # Multi-instance (Algorithm 3)
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        instance_ids: Sequence[str],
        input_sqls: Sequence[str],
        parameters: Optional[Sequence[str]] = None,
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        use_mi_optimization: bool = True,
    ) -> List[ParestOutcome]:
        """Calibrate one or more instances, applying the MI optimization.

        Parameters
        ----------
        instance_ids / input_sqls:
            Parallel lists of instances and their measurement queries.
        parameters:
            Optional explicit parameter list (shared by all instances).
        threshold:
            Relative L2 dissimilarity below which the LO warm start is used.
        use_mi_optimization:
            Disable to force the full G+LaG for every instance (this is the
            pgFMU- configuration of the paper's experiments).

        The calibrations run in lockstep (:mod:`repro.estimation.lockstep`),
        so the candidates all instances need at once are simulated as one
        batched solve; outcomes equal calibrating the instances one by one
        in order.  The schedule is fixed up front, since dissimilarity
        needs only measurements: instance 0 and every instance that takes
        the full G+LaG start together, and the warm-started (LO) instances
        join once instance 0's optimum is known.  Catalogue reads and
        writes stay on the caller's thread, and each instance's estimates
        are written back in instance order.  If calibrations fail, the
        error of the lowest failing instance is raised.
        """
        instance_ids = [str(i) for i in instance_ids]
        input_sqls = [str(q) for q in input_sqls]
        if not instance_ids:
            raise PgFmuError("fmu_parest requires at least one instance")
        if len(instance_ids) != len(input_sqls):
            raise PgFmuError(
                f"fmu_parest received {len(instance_ids)} instances but "
                f"{len(input_sqls)} measurement queries"
            )

        measurements = [self.load_measurements(sql) for sql in input_sqls]
        model_ids = [self.instances.model_id_of(i) for i in instance_ids]
        # dissimilarity[i] is recorded for every instance compared with
        # instance 0; unless it reaches the threshold (a NaN does not), the
        # instance is warm-started (LO).
        dissimilarity: Dict[int, float] = {}
        if use_mi_optimization:
            for index in range(1, len(instance_ids)):
                if model_ids[index] == model_ids[0]:
                    dissimilarity[index] = self.measurement_dissimilarity(
                        measurements[0], measurements[index]
                    )
        warm = [i for i, d in dissimilarity.items() if not d >= threshold]

        outcomes: List[Optional[ParestOutcome]] = [None] * len(instance_ids)
        results: Dict[int, EstimationResult] = {}
        written = 0
        scheduler = Lockstep()

        def start(index: int, method: str = "global+local", initial_values=None) -> None:
            try:
                estimation = self._estimation(
                    instance_ids[index], parameters, measurements[index]
                )
            except Exception as exc:
                scheduler.fail(index, exc)
            else:
                scheduler.submit(
                    index, functools.partial(estimation.estimate, method, initial_values)
                )

        def finished(index: int, result: EstimationResult) -> None:
            nonlocal written
            results[index] = result
            # Write back in instance order, as a one-by-one run would.
            while written in results:
                outcome = self._write_back(instance_ids[written], results.pop(written))
                outcome.dissimilarity = dissimilarity.get(written)
                outcome.used_mi_optimization = written in warm
                outcomes[written] = outcome
                written += 1
            if index == 0:
                # MI optimization: warm-start from the reference optimum, LO only.
                reference = outcomes[0].parameters
                for lo_index in warm:
                    for name, value in reference.items():
                        self.catalog.set_instance_value(instance_ids[lo_index], name, value)
                    start(lo_index, "local", reference)

        for index in range(len(instance_ids)):
            if index not in warm:
                start(index)
        scheduler.run(finished)
        return outcomes

    # ------------------------------------------------------------------ #
    # Similarity measure
    # ------------------------------------------------------------------ #
    @staticmethod
    def measurement_dissimilarity(
        reference: Optional[MeasurementSet], candidate: MeasurementSet
    ) -> float:
        """Maximum relative L2 dissimilarity across shared measured series."""
        if reference is None:
            return float("inf")
        shared = [
            name for name in reference.variable_names() if name in candidate.series
        ]
        if not shared:
            return float("inf")
        dissimilarities = []
        for name in shared:
            a = reference.series[name]
            b = candidate.series[name]
            n = min(len(a), len(b))
            if n < 2:
                continue
            dissimilarities.append(relative_l2_dissimilarity(a[:n], b[:n]))
        if not dissimilarities:
            return float("inf")
        return float(np.max(dissimilarities))
