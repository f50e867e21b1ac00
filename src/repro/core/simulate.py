"""Model simulation UDF (Algorithm 4 of the paper).

``fmu_simulate`` loads the instance's runtime FMU from storage, binds the
measured input series produced by the optional ``input_sql`` query to the
model's input variables using the catalogue metadata (Challenge 2), resolves
the simulation window, integrates the model, and emits the results as a long
table ``(simulationTime, instanceId, varName, value)`` - one row per time
step and variable, the shape the paper's Table 4 shows.

For fleets, :meth:`Simulator.simulate_many` amortizes the per-call overhead:
the ``input_sql`` query is executed and its series bound **once**, and
instances of the same model simulate as one fleet in one
:meth:`repro.fmi.model.FmuModel.simulate_batch` call.  Under the adaptive
:data:`SIMULATION_SOLVER` the FMI runtime steps each row in the solver's
scalar float loop; a fixed-step solver (the ladder's last rung) stacks
the rows into an ``(N, d)`` matrix and steps them together.  This backs
both ``Session.simulate_many`` and the array-literal overload of the
``fmu_simulate`` UDF.  One instance takes the same path as a one-row
fleet.  Every fleet solve walks the
:class:`~repro.solvers.retry.RetryPolicy` ladder; only a fleet of two or
more whose solve fails on every rung is rerun instance by instance, so the
rerun reports exactly the error N single-instance calls would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.catalog import ModelCatalog
from repro.core.instances import InstanceManager
from repro.errors import SimulationInputError, SolverError
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


#: Solver used for simulation; the adaptive solver because simulation
#: (unlike calibration) runs once and accuracy matters most.
SIMULATION_SOLVER = "rk45"

#: Degradation ladder applied when an integration raises
#: :class:`~repro.errors.SolverError`: retry with tightened numerics, then
#: fall back to a fixed-step solver (see :class:`~repro.solvers.retry.RetryPolicy`).
_RETRY_POLICY = RetryPolicy()


@dataclass
class Simulator:
    """Implements ``fmu_simulate`` on top of the catalogue and FMI runtime."""

    catalog: ModelCatalog
    instances: InstanceManager

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
    ) -> SimulationResult:
        """Simulate an instance and return the full trajectory object."""
        return self.simulate_many([instance_id], input_sql, time_from, time_to)[
            str(instance_id)
        ]

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
        ``simulate`` calls would.  Instances are then grouped by model and
        each group integrates as one fleet solve (see
        :meth:`_simulate_group`).  Results are keyed by instance id in input
        order.  Duplicate ids are simulated (and returned) once.
        """
        prepared = self.prepare_inputs(input_sql)
        unique_ids = list(dict.fromkeys(str(i) for i in instance_ids))
        groups: Dict[str, List[str]] = {}
        for instance_id in unique_ids:
            model_id = self.catalog.instance_row(instance_id)["modelid"]
            groups.setdefault(model_id, []).append(instance_id)
        results: Dict[str, SimulationResult] = {}
        for group_ids in groups.values():
            results.update(
                zip(group_ids, self._simulate_group(group_ids, prepared, time_from, time_to))
            )
        return {instance_id: results[instance_id] for instance_id in unique_ids}

    def _simulate_group(
        self,
        instance_ids: List[str],
        prepared: _PreparedInputs,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> List[SimulationResult]:
        """Simulate instances of one model as one fleet down the retry ladder.

        The fleet is one :meth:`FmuModel.simulate_batch` call per rung (a
        single instance is a one-row fleet).  A fleet of two or more that
        fails on every rung is rerun instance by instance, each with its
        own ladder, so the error raised (or the results returned) are those
        of N single-instance calls.
        """
        models = [self.catalog.runtime_model(i) for i in instance_ids]
        # Same model => same catalogue defaults and same shared series, so
        # the window and grid resolved for the first instance hold for the
        # whole group.
        inputs, start, stop, output_times = self._bind_call(
            instance_ids[0], models[0], prepared, time_from, time_to
        )

        def run(solver_name: str, solver_options: Dict[str, Any]) -> List[SimulationResult]:
            return FmuModel.simulate_batch(
                models,
                inputs=inputs,
                start_time=start,
                stop_time=stop,
                output_times=output_times,
                solver=solver_name,
                solver_options=solver_options or None,
            )

        try:
            return _RETRY_POLICY.run(run, SIMULATION_SOLVER)
        except SolverError:
            if len(instance_ids) == 1:
                raise
        return [
            result
            for instance_id in instance_ids
            for result in self._simulate_group([instance_id], prepared, time_from, time_to)
        ]

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
            # The reported names are the model's, so the stored archive
            # lists them; the runtime model needs no second sync.
            archive = self.catalog.load_archive(self.catalog.instance_row(instance_id)["modelid"])
            state_names = list(archive.ode_system.state_names)
            reported = state_names + [
                variable.name
                for variable in archive.model_description.outputs
                if variable.name not in state_names
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
