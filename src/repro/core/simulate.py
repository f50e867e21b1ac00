"""Model simulation UDF (Algorithm 4 of the paper).

``fmu_simulate`` loads the instance's runtime FMU from storage, binds the
measured input series produced by the optional ``input_sql`` query to the
model's input variables using the catalogue metadata (Challenge 2), resolves
the simulation window, integrates the model, and emits the results as a long
table ``(simulationTime, instanceId, varName, value)`` - one row per time
step and variable, the shape the paper's Table 4 shows.

For fleets, :meth:`Simulator.simulate_many` amortizes the per-call overhead
twice over: the ``input_sql`` query is executed and its series bound
**once**, and instances of the same model are *batched* - their states are
stacked into an ``(N, d)`` matrix and integrated together through one
numpy-vectorized right-hand side
(:meth:`repro.fmi.model.FmuModel.simulate_batch`), so the fleet costs one
solver loop instead of N.  This backs both ``Session.simulate_many`` and
the array-literal overload of the ``fmu_simulate`` UDF.  Setting
:attr:`Simulator.batch_enabled` to False restores the sequential
per-instance path (the escape hatch equivalence tests and benchmarks use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.catalog import ModelCatalog
from repro.core.instances import InstanceManager
from repro.errors import SimulationInputError
from repro.fmi.model import FmuModel
from repro.fmi.results import SimulationResult
from repro.solvers.retry import RetryPolicy


class _PreparedInputs:
    """The result of executing an ``input_sql`` query, shareable across
    instances: raw rows plus a cache of per-input-set bindings."""

    __slots__ = ("rows", "_bindings")

    def __init__(self, rows: Optional[List[Dict[str, Any]]]):
        self.rows = rows
        self._bindings: Dict[frozenset, tuple] = {}

    def bind(self, input_names: set) -> tuple:
        """Bound ``(inputs, measured_time)`` for a model's input-name set.

        Keyed by the exact names: the bound dict is looked up by the model's
        own spelling, so two models whose input names differ only in case
        must not share a binding.
        """
        if self.rows is None:
            return {}, None
        key = frozenset(input_names)
        bound = self._bindings.get(key)
        if bound is None:
            bound = Simulator._bind_inputs(self.rows, input_names)
            self._bindings[key] = bound
        return bound


@dataclass
class Simulator:
    """Implements ``fmu_simulate`` on top of the catalogue and FMI runtime."""

    catalog: ModelCatalog
    instances: InstanceManager
    #: Solver used for simulation; the adaptive solver is the default because
    #: simulation (unlike calibration) runs once and accuracy matters most.
    solver: str = "rk45"
    #: Batch same-model fleets through one vectorized integration pass
    #: (:meth:`FmuModel.simulate_batch`).  False forces the sequential
    #: per-instance path - the escape hatch equivalence tests and the fleet
    #: benchmark use to compare the two.
    batch_enabled: bool = True
    #: Degradation ladder applied when an integration raises
    #: :class:`~repro.errors.SolverError`: retry with tightened numerics,
    #: then fall back to a fixed-step solver (see
    #: :class:`~repro.solvers.retry.RetryPolicy`).  ``None`` disables
    #: retries (a divergence propagates on the first attempt).
    retry_policy: Optional[RetryPolicy] = field(default_factory=RetryPolicy)

    # ------------------------------------------------------------------ #
    # Core simulation
    # ------------------------------------------------------------------ #
    def prepare_inputs(self, input_sql: Optional[str]) -> _PreparedInputs:
        """Execute an input query once for reuse across many simulations."""
        if input_sql is None or not str(input_sql).strip():
            return _PreparedInputs(None)
        rows = self.catalog.database.query_dicts(str(input_sql))
        if not rows:
            raise SimulationInputError(f"input query returned no rows: {input_sql!r}")
        return _PreparedInputs(rows)

    def simulate_result(
        self,
        instance_id: str,
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
        output_step: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate an instance and return the full trajectory object."""
        return self._simulate_prepared(
            instance_id, self.prepare_inputs(input_sql), time_from, time_to, output_step
        )

    def _bind_call(
        self,
        instance_id: str,
        model,
        prepared: _PreparedInputs,
        time_from: Optional[float],
        time_to: Optional[float],
    ) -> tuple:
        """Resolve the ``(inputs, start, stop, output_times)`` of one call."""
        input_names = set(model.input_names())
        inputs, measured_time = prepared.bind(input_names)
        if prepared.rows is None and input_names:
            raise SimulationInputError(
                f"model instance {instance_id!r} declares input variables "
                f"({', '.join(sorted(input_names))}) but no input query was supplied"
            )
        start, stop = self._resolve_window(
            instance_id, measured_time, time_from, time_to
        )
        output_times = None
        if measured_time is not None:
            mask = (measured_time >= start) & (measured_time <= stop)
            if mask.sum() >= 2:
                output_times = measured_time[mask]
        return inputs, start, stop, output_times

    def _simulate_prepared(
        self,
        instance_id: str,
        prepared: _PreparedInputs,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
        output_step: Optional[float] = None,
    ) -> SimulationResult:
        model = self.catalog.runtime_model(instance_id)
        inputs, start, stop, output_times = self._bind_call(
            instance_id, model, prepared, time_from, time_to
        )

        def run(solver_name: str, solver_options: Dict[str, Any]) -> SimulationResult:
            return model.simulate(
                inputs=inputs,
                start_time=start,
                stop_time=stop,
                output_step=output_step,
                output_times=output_times,
                solver=solver_name,
                solver_options=solver_options or None,
            )

        if self.retry_policy is None:
            return run(self.solver, {})
        return self.retry_policy.run(run, self.solver)

    def simulate_many(
        self,
        instance_ids: Sequence[str],
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> Dict[str, SimulationResult]:
        """Simulate many instances against one shared input pass, batching
        same-model fleets through one vectorized integration.

        The measurement query runs once and each distinct input-variable set
        is bound once, instead of once per instance as N sequential
        ``simulate`` calls would.  Instances are then grouped by model: each
        group of two or more integrates as one ``(N, d)`` batched solve
        (:meth:`FmuModel.simulate_batch`; trajectories match the sequential
        path to floating-point rounding).  Results are keyed by instance id
        in input order.  Duplicate ids are simulated (and returned) once.
        """
        prepared = self.prepare_inputs(input_sql)
        unique_ids = list(dict.fromkeys(str(i) for i in instance_ids))
        if not self.batch_enabled:
            return {
                instance_id: self._simulate_prepared(
                    instance_id, prepared, time_from, time_to
                )
                for instance_id in unique_ids
            }
        groups: Dict[str, List[str]] = {}
        for instance_id in unique_ids:
            model_id = self.catalog.instance_row(instance_id)["modelid"]
            groups.setdefault(model_id, []).append(instance_id)
        results: Dict[str, SimulationResult] = {}
        for group_ids in groups.values():
            if len(group_ids) == 1:
                results[group_ids[0]] = self._simulate_prepared(
                    group_ids[0], prepared, time_from, time_to
                )
                continue
            models = [self.catalog.runtime_model(i) for i in group_ids]
            # Same model => same catalogue defaults and same shared series,
            # so the window and grid resolved for the first instance hold
            # for the whole group.
            inputs, start, stop, output_times = self._bind_call(
                group_ids[0], models[0], prepared, time_from, time_to
            )
            def run_batch(
                solver_name: str, solver_options: Dict[str, Any]
            ) -> List[SimulationResult]:
                return FmuModel.simulate_batch(
                    models,
                    inputs=inputs,
                    start_time=start,
                    stop_time=stop,
                    output_times=output_times,
                    solver=solver_name,
                    solver_options=solver_options or None,
                )

            if self.retry_policy is None:
                fleet = run_batch(self.solver, {})
            else:
                fleet = self.retry_policy.run(run_batch, self.solver)
            results.update(zip(group_ids, fleet))
        return {instance_id: results[instance_id] for instance_id in unique_ids}

    def simulate_rows(
        self,
        instance_id: str,
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> List[List[Any]]:
        """Simulate and emit long-format rows for the ``fmu_simulate`` UDF."""
        return self.simulate_rows_many([instance_id], input_sql, time_from, time_to)

    def simulate_rows_many(
        self,
        instance_ids: Sequence[str],
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> List[List[Any]]:
        """Long-format rows for one or more instances (one shared input pass,
        same-model fleets batched - see :meth:`simulate_many`).

        Duplicate ids contribute rows once, matching :meth:`simulate_many`.
        """
        results = self.simulate_many(instance_ids, input_sql, time_from, time_to)
        rows: List[List[Any]] = []
        for instance_id, result in results.items():
            model = self.catalog.runtime_model(instance_id)
            state_names = list(model.state_names())
            reported = state_names + [
                name for name in model.output_names() if name not in state_names
            ]
            for i, t in enumerate(result.time):
                for name in reported:
                    rows.append([float(t), instance_id, name, float(result[name][i])])
        return rows

    # ------------------------------------------------------------------ #
    # Input binding and window resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _bind_inputs(rows: List[Dict[str, Any]], input_names: set) -> tuple:
        """Map query columns onto model inputs by name (case-insensitive)."""
        first = rows[0]
        column_map = {column.lower(): column for column in first}
        time_column = None
        for candidate in ("time", "simulationtime", "timestamp"):
            if candidate in column_map:
                time_column = column_map[candidate]
                break
        if time_column is None:
            raise SimulationInputError(
                "the input query must expose a time column "
                "(one of: time, simulationTime, timestamp)"
            )
        time = np.array([float(row[time_column]) for row in rows], dtype=float)
        order = np.argsort(time, kind="stable")
        time = time[order]

        inputs: Dict[str, tuple] = {}
        for name in input_names:
            column = column_map.get(name.lower())
            if column is None:
                continue
            values = np.array(
                [0.0 if row[column] is None else float(row[column]) for row in rows],
                dtype=float,
            )[order]
            inputs[name] = (time, values)
        return inputs, time

    def _resolve_window(
        self,
        instance_id: str,
        measured_time: Optional[np.ndarray],
        time_from: Optional[float],
        time_to: Optional[float],
    ) -> tuple:
        model_row = self.catalog.model_row(self.instances.model_id_of(instance_id))
        start = time_from
        stop = time_to
        if start is None:
            if measured_time is not None:
                start = float(measured_time[0])
            else:
                start = model_row.get("defaultstarttime")
        if stop is None:
            if measured_time is not None:
                stop = float(measured_time[-1])
            else:
                stop = model_row.get("defaultendtime")
        if start is None or stop is None:
            raise SimulationInputError(
                "the simulation time window could not be determined; supply "
                "time_from/time_to or an input query with a time column"
            )
        start, stop = float(start), float(stop)
        if stop <= start:
            raise SimulationInputError(
                f"invalid simulation window: [{start}, {stop}]"
            )
        return start, stop
