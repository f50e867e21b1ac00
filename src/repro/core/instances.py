"""Model and instance management: fmu_create, fmu_copy, fmu_delete_*, fmu_get/set.

This module implements Algorithm 1 of the paper (``fmu_create``) and the
catalogue manipulation utilities of Section 5.  The manager is deliberately
stateless beyond the catalogue: every operation reads from and writes to the
catalogue tables, so all state remains visible to plain SQL queries.
"""

from __future__ import annotations

import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import DuplicateInstanceError, PgFmuError
from repro.core.catalog import (
    INSTANCE_TABLE,
    MODEL_TABLE,
    VALUES_TABLE,
    VARIABLE_TABLE,
    VARTYPE_CONSTANT,
    VARTYPE_INPUT,
    VARTYPE_LOCAL,
    VARTYPE_OUTPUT,
    VARTYPE_PARAMETER,
    VARTYPE_STATE,
    ModelCatalog,
)
from repro.fmi.archive import FmuArchive, read_fmu
from repro.fmi.variables import Causality, ScalarVariable, Variability
from repro.modelica.compiler import compile_model
from repro.sqldb.types import Variant


def _classify_variable(variable: ScalarVariable) -> str:
    """Map FMI causality/variability onto the catalogue ``vartype`` classes."""
    if variable.causality is Causality.PARAMETER:
        return VARTYPE_PARAMETER
    if variable.causality is Causality.INPUT:
        return VARTYPE_INPUT
    if variable.causality is Causality.OUTPUT:
        return VARTYPE_OUTPUT
    if variable.variability is Variability.CONSTANT:
        return VARTYPE_CONSTANT
    if variable.is_state:
        return VARTYPE_STATE
    return VARTYPE_LOCAL


def _looks_like_model_reference(text: str) -> bool:
    """Heuristic: does a string denote an FMU/Modelica reference (vs an id)?"""
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered.endswith(".fmu") or lowered.endswith(".mo"):
        return True
    if "model " in lowered and "end " in lowered:
        return True
    if "/" in stripped or "\\" in stripped:
        return True
    return False


class InstanceManager:
    """Implements model/instance lifecycle operations on a catalogue."""

    def __init__(self, catalog: ModelCatalog):
        self.catalog = catalog
        self.database = catalog.database

    # ------------------------------------------------------------------ #
    # fmu_create (Algorithm 1)
    # ------------------------------------------------------------------ #
    def create(self, model_ref: str, instance_id: Optional[str] = None) -> str:
        """Load or compile a model and register a new instance of it.

        ``model_ref`` may be a path to a ``.fmu`` file, a path to a ``.mo``
        file, or inline Modelica source.  For user convenience (and to match
        the paper's examples, which list the arguments in both orders) the
        two arguments may be swapped; the one that looks like a model
        reference is treated as such.
        """
        if instance_id is not None and _looks_like_model_reference(instance_id) and not _looks_like_model_reference(model_ref):
            model_ref, instance_id = instance_id, model_ref
        if not model_ref or not str(model_ref).strip():
            raise PgFmuError("fmu_create requires a model reference")
        model_ref = str(model_ref)

        model_id = self.catalog.model_id_by_reference(model_ref)
        if model_id is None:
            archive = self._load_or_compile(model_ref)
            model_id = self._register_model(archive, model_ref)
        return self._register_instance(model_id, instance_id)

    def _load_or_compile(self, model_ref: str) -> FmuArchive:
        lowered = model_ref.strip().lower()
        if lowered.endswith(".fmu"):
            path = Path(model_ref.strip())
            if not path.exists():
                raise PgFmuError(f"FMU file does not exist: {model_ref}")
            return read_fmu(path)
        # .mo files and inline Modelica source both go through the compiler.
        return compile_model(model_ref)

    def _register_model(self, archive: FmuArchive, model_ref: str) -> str:
        existing = self.catalog.model_id_by_guid(archive.guid)
        if existing is not None:
            return existing
        model_id = archive.guid or str(uuid.uuid4())
        self.catalog.store_archive(archive)
        md = archive.model_description
        experiment = md.default_experiment
        self.database.table(MODEL_TABLE).insert(
            [
                model_id,
                md.model_name,
                md.description,
                model_ref,
                experiment.start_time,
                experiment.stop_time,
                experiment.step_size,
                experiment.tolerance,
            ]
        )
        variable_table = self.database.table(VARIABLE_TABLE)
        for variable in md.variables:
            variable_table.insert(
                [
                    model_id,
                    variable.name,
                    _classify_variable(variable),
                    variable.var_type.value,
                    Variant.wrap(variable.start),
                    Variant.wrap(variable.minimum),
                    Variant.wrap(variable.maximum),
                    variable.description,
                ]
            )
        return model_id

    def new_instance(self, model_id: str, instance_id: Optional[str] = None) -> str:
        """Register another instance of an already-registered model."""
        self.catalog.model_row(model_id)  # raises if unknown
        return self._register_instance(model_id, instance_id)

    def _register_instance(self, model_id: str, instance_id: Optional[str]) -> str:
        if instance_id is None or not str(instance_id).strip():
            instance_id = f"{self.catalog.model_row(model_id)['modelname']}Instance{uuid.uuid4().hex[:8]}"
        instance_id = str(instance_id)
        if self.catalog.has_instance(instance_id):
            raise DuplicateInstanceError(
                f"model instance {instance_id!r} already exists"
            )
        self.database.table(INSTANCE_TABLE).insert([instance_id, model_id, None])
        values_table = self.database.table(VALUES_TABLE)
        for row in self.catalog.variable_rows(model_id):
            values_table.insert([model_id, instance_id, row["varname"], row["initialvalue"]])
        return instance_id

    # ------------------------------------------------------------------ #
    # fmu_copy
    # ------------------------------------------------------------------ #
    def copy(self, instance_id: str, new_instance_id: Optional[str] = None) -> str:
        """Copy an instance (values included) under a new identifier."""
        source = self.catalog.instance_row(instance_id)
        model_id = source["modelid"]
        if new_instance_id is None or not str(new_instance_id).strip():
            new_instance_id = f"{instance_id}_copy_{uuid.uuid4().hex[:6]}"
        new_instance_id = str(new_instance_id)
        if self.catalog.has_instance(new_instance_id):
            raise DuplicateInstanceError(
                f"model instance {new_instance_id!r} already exists"
            )
        self.database.table(INSTANCE_TABLE).insert([new_instance_id, model_id, None])
        values_table = self.database.table(VALUES_TABLE)
        for row in self.catalog.instance_value_rows(instance_id):
            values_table.insert([model_id, new_instance_id, row["varname"], row["value"]])
        return new_instance_id

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #
    def delete_instance(self, instance_id: str) -> str:
        """Delete a model instance and its values."""
        self.catalog.instance_row(instance_id)  # raises if unknown
        self.database.table(VALUES_TABLE).delete_where(
            lambda row: row["instanceid"] == instance_id
        )
        self.database.table(INSTANCE_TABLE).delete_where(
            lambda row: row["instanceid"] == instance_id
        )
        self.catalog.invalidate_runtime(instance_id)
        return instance_id

    def delete_model(self, model_id: str) -> str:
        """Delete a model, all of its instances, and its stored FMU."""
        self.catalog.model_row(model_id)  # raises if unknown
        for instance_id in self.catalog.instances_of(model_id):
            self.delete_instance(instance_id)
        self.database.table(VARIABLE_TABLE).delete_where(
            lambda row: row["modelid"] == model_id
        )
        self.database.table(MODEL_TABLE).delete_where(
            lambda row: row["modelid"] == model_id
        )
        self.catalog.remove_archive(model_id)
        return model_id

    # ------------------------------------------------------------------ #
    # Variable access
    # ------------------------------------------------------------------ #
    def variables(self, instance_id: str) -> List[Dict[str, Any]]:
        """Rows for ``fmu_variables``: per-instance variable details."""
        instance = self.catalog.instance_row(instance_id)
        model_id = instance["modelid"]
        values = self.catalog.instance_values(instance_id)
        rows = []
        for row in self.catalog.variable_rows(model_id):
            initial = values.get(row["varname"], _unwrap(row["initialvalue"]))
            rows.append(
                {
                    "instanceid": instance_id,
                    "varname": row["varname"],
                    "vartype": row["vartype"],
                    "initialvalue": initial,
                    "minvalue": _unwrap(row["minvalue"]),
                    "maxvalue": _unwrap(row["maxvalue"]),
                }
            )
        return rows

    def get(self, instance_id: str, var_name: str) -> Dict[str, Any]:
        """The (initial, min, max) values of one variable of an instance."""
        for row in self.variables(instance_id):
            if row["varname"] == var_name:
                return {
                    "initialvalue": row["initialvalue"],
                    "minvalue": row["minvalue"],
                    "maxvalue": row["maxvalue"],
                }
        raise PgFmuError(
            f"variable {var_name!r} does not exist for instance {instance_id!r}"
        )

    def set_initial(self, instance_id: str, var_name: str, value: Any) -> str:
        """Set the per-instance initial value of a variable."""
        instance = self.catalog.instance_row(instance_id)
        self.catalog.variable_row(instance["modelid"], var_name)  # validates the name
        self.catalog.set_instance_value(instance_id, var_name, value)
        return instance_id

    def set_minimum(self, instance_id: str, var_name: str, value: Any) -> str:
        """Set the minimum bound of a variable (shared across the model)."""
        return self._set_bound(instance_id, var_name, "minvalue", value)

    def set_maximum(self, instance_id: str, var_name: str, value: Any) -> str:
        """Set the maximum bound of a variable (shared across the model)."""
        return self._set_bound(instance_id, var_name, "maxvalue", value)

    def _set_bound(self, instance_id: str, var_name: str, column: str, value: Any) -> str:
        instance = self.catalog.instance_row(instance_id)
        model_id = instance["modelid"]
        self.catalog.variable_row(model_id, var_name)
        self.database.table(VARIABLE_TABLE).update_where(
            lambda row: row["modelid"] == model_id and row["varname"] == var_name,
            lambda row: {column: Variant.wrap(value)},
        )
        self.catalog.invalidate_runtime(instance_id)
        return instance_id

    def reset(self, instance_id: str) -> str:
        """Reset all per-instance values to the model's initial values."""
        instance = self.catalog.instance_row(instance_id)
        model_id = instance["modelid"]
        defaults = {
            row["varname"]: row["initialvalue"]
            for row in self.catalog.variable_rows(model_id)
        }
        values_table = self.database.table(VALUES_TABLE)
        values_table.delete_where(lambda row: row["instanceid"] == instance_id)
        for var_name, value in defaults.items():
            values_table.insert([model_id, instance_id, var_name, value])
        self.catalog.invalidate_runtime(instance_id)
        return instance_id

    # ------------------------------------------------------------------ #
    # Helpers shared with parest/simulate
    # ------------------------------------------------------------------ #
    def parameter_names(self, instance_id: str) -> List[str]:
        """Names of estimable parameters of an instance's model."""
        instance = self.catalog.instance_row(instance_id)
        return [
            row["varname"]
            for row in self.catalog.variable_rows(instance["modelid"])
            if row["vartype"] == VARTYPE_PARAMETER
        ]

    def bounds(self, instance_id: str) -> Dict[str, tuple]:
        """Declared (min, max) bounds for an instance's parameters."""
        instance = self.catalog.instance_row(instance_id)
        bounds: Dict[str, tuple] = {}
        for row in self.catalog.variable_rows(instance["modelid"]):
            if row["vartype"] != VARTYPE_PARAMETER:
                continue
            minimum = _unwrap(row["minvalue"])
            maximum = _unwrap(row["maxvalue"])
            if minimum is not None and maximum is not None:
                bounds[row["varname"]] = (float(minimum), float(maximum))
        return bounds

    def model_id_of(self, instance_id: str) -> str:
        return self.catalog.instance_row(instance_id)["modelid"]


def _unwrap(value: Any) -> Any:
    if isinstance(value, Variant):
        return value.value
    return value
