"""The pgFMU model catalogue (Figure 4 of the paper) and FMU storage.

The catalogue consists of four SQL tables living inside the database, so they
stay queryable with plain SQL:

* ``model`` - one row per loaded FMU model: UUID, name, reference, default
  experiment settings.
* ``modelvariable`` - one row per model variable: name, type (causality
  class), initial/min/max values stored as ``variant``.
* ``modelinstance`` - one row per model instance, referencing its parent
  model.
* ``modelinstancevalues`` - the per-instance variable values (``variant``),
  updated by ``fmu_set_initial`` and by parameter estimation.

FMU archives themselves are kept in *FMU storage*: a directory holding one
``<uuid>.fmu`` file per model, mirroring the paper's non-volatile FMU store.
A single stored archive is shared by all instances of the same model
(Challenge 3: never load or copy the FMU file more than once).
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import UnknownInstanceError, UnknownModelError
from repro.fmi.archive import FmuArchive
from repro.fmi.model import FmuModel
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDefinition, TableSchema
from repro.sqldb.types import SqlType, Variant

MODEL_TABLE = "model"
VARIABLE_TABLE = "modelvariable"
INSTANCE_TABLE = "modelinstance"
VALUES_TABLE = "modelinstancevalues"
#: Blob store for FMU archives, created only on databases with durable
#: storage attached - the zip bytes then live in the WAL/page store and
#: survive restarts, making the file store a rebuildable cache.
ARCHIVE_TABLE = "fmuarchive"

#: Causality classes stored in ``modelvariable.vartype``.
VARTYPE_PARAMETER = "parameter"
VARTYPE_INPUT = "input"
VARTYPE_OUTPUT = "output"
VARTYPE_STATE = "state"
VARTYPE_CONSTANT = "constant"
VARTYPE_LOCAL = "local"


class ModelCatalog:
    """Creates and manages the four catalogue tables plus FMU storage."""

    def __init__(self, database: Database, storage_dir: Optional[str] = None):
        self.database = database
        # A temporary directory created here is this catalog's own: close()
        # removes it (and so does the catalog's garbage collection, as a
        # safety net); a given directory is left alone.
        self._remove_storage: Optional[weakref.finalize] = None
        if not storage_dir:
            storage_dir = tempfile.mkdtemp(prefix="pgfmu_storage_")
            self._remove_storage = weakref.finalize(
                self, shutil.rmtree, storage_dir, ignore_errors=True
            )
        self._storage_dir = Path(storage_dir)
        self._storage_dir.mkdir(parents=True, exist_ok=True)
        self._archive_cache: Dict[str, FmuArchive] = {}
        self._runtime_cache: Dict[str, FmuModel] = {}
        self._create_tables()

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    def _create_tables(self) -> None:
        if not self.database.has_table(MODEL_TABLE):
            self.database.create_table(
                TableSchema(
                    name=MODEL_TABLE,
                    columns=[
                        ColumnDefinition("modelid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("modelname", SqlType.TEXT, not_null=True),
                        ColumnDefinition("description", SqlType.TEXT),
                        ColumnDefinition("fmureference", SqlType.TEXT),
                        ColumnDefinition("defaultstarttime", SqlType.DOUBLE),
                        ColumnDefinition("defaultendtime", SqlType.DOUBLE),
                        ColumnDefinition("defaultstepsize", SqlType.DOUBLE),
                        ColumnDefinition("tolerance", SqlType.DOUBLE),
                    ],
                    primary_key=["modelid"],
                )
            )
        if not self.database.has_table(VARIABLE_TABLE):
            self.database.create_table(
                TableSchema(
                    name=VARIABLE_TABLE,
                    columns=[
                        ColumnDefinition("modelid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("varname", SqlType.TEXT, not_null=True),
                        ColumnDefinition("vartype", SqlType.TEXT, not_null=True),
                        ColumnDefinition("datatype", SqlType.TEXT),
                        ColumnDefinition("initialvalue", SqlType.VARIANT),
                        ColumnDefinition("minvalue", SqlType.VARIANT),
                        ColumnDefinition("maxvalue", SqlType.VARIANT),
                        ColumnDefinition("description", SqlType.TEXT),
                    ],
                    primary_key=["modelid", "varname"],
                    foreign_keys=[],
                )
            )
        if not self.database.has_table(INSTANCE_TABLE):
            self.database.create_table(
                TableSchema(
                    name=INSTANCE_TABLE,
                    columns=[
                        ColumnDefinition("instanceid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("modelid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("createdat", SqlType.TEXT),
                    ],
                    primary_key=["instanceid"],
                )
            )
        if not self.database.has_table(VALUES_TABLE):
            self.database.create_table(
                TableSchema(
                    name=VALUES_TABLE,
                    columns=[
                        ColumnDefinition("modelid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("instanceid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("varname", SqlType.TEXT, not_null=True),
                        ColumnDefinition("value", SqlType.VARIANT),
                    ],
                    primary_key=["modelid", "instanceid", "varname"],
                )
            )
        if self.database.storage is not None and not self.database.has_table(ARCHIVE_TABLE):
            self.database.create_table(
                TableSchema(
                    name=ARCHIVE_TABLE,
                    columns=[
                        ColumnDefinition("modelid", SqlType.TEXT, not_null=True),
                        ColumnDefinition("archive", SqlType.BYTEA, not_null=True),
                    ],
                    primary_key=["modelid"],
                )
            )

    # ------------------------------------------------------------------ #
    # FMU storage
    # ------------------------------------------------------------------ #
    @property
    def storage_dir(self) -> Path:
        return self._storage_dir

    def close(self) -> None:
        """Remove the FMU storage directory if this catalog created it."""
        if self._remove_storage is not None:
            self._remove_storage()

    def store_archive(self, archive: FmuArchive) -> Path:
        """Write an FMU archive into FMU storage (idempotent per GUID).

        A file written inside a transaction is removed again on rollback
        (together with its cache entry), mirroring how :meth:`remove_archive`
        defers its unlink to commit.
        """
        path = self._storage_dir / f"{archive.guid}.fmu"
        guid = archive.guid
        if not path.exists():
            archive.write(path)

            def undo_store() -> None:
                self._archive_cache.pop(guid, None)
                if path.exists():
                    path.unlink()

            self.database.on_rollback(undo_store)
        self._persist_archive_blob(archive)
        self._archive_cache[guid] = archive
        return path

    def _persist_archive_blob(self, archive: FmuArchive) -> None:
        """Upsert the archive zip bytes into the blob table (durable DBs only).

        Row inserts go through the normal table path, so the blob is
        WAL-logged with the rest of the registration transaction and rolls
        back with it.
        """
        if not self.database.has_table(ARCHIVE_TABLE):
            return
        table = self.database.table(ARCHIVE_TABLE)
        if table.lookup_pk([archive.guid]) is None:
            table.insert([archive.guid, archive.to_bytes()])

    def load_archive(self, model_id: str) -> FmuArchive:
        """Load an FMU archive by model UUID.

        Lookup order: in-memory cache, then the ``<uuid>.fmu`` file in FMU
        storage, then (durable databases) the blob table - a reopened
        database with a fresh file-store directory still finds every
        archive.
        """
        if model_id in self._archive_cache:
            return self._archive_cache[model_id]
        path = self._storage_dir / f"{model_id}.fmu"
        if path.exists():
            archive = FmuArchive.read(path)
        else:
            archive = self._load_archive_blob(model_id)
            if archive is None:
                raise UnknownModelError(
                    f"model {model_id!r} is not present in FMU storage"
                )
        self._archive_cache[model_id] = archive
        return archive

    def _load_archive_blob(self, model_id: str) -> Optional[FmuArchive]:
        if not self.database.has_table(ARCHIVE_TABLE):
            return None
        row = self.database.table(ARCHIVE_TABLE).lookup_pk([model_id])
        if row is None:
            return None
        return FmuArchive.from_bytes(row["archive"])

    def remove_archive(self, model_id: str) -> None:
        """Remove a stored FMU archive and its cached runtimes.

        The cache evictions are immediate (caches rebuild from the file),
        but the file unlink is deferred to transaction commit: a rolled-back
        ``fmu_delete_model`` restores the catalogue rows, so the archive must
        still be loadable afterwards.
        """
        self._archive_cache.pop(model_id, None)
        path = self._storage_dir / f"{model_id}.fmu"
        if self.database.has_table(ARCHIVE_TABLE):
            # The blob row is table data, so this delete is transactional on
            # its own: a rollback restores it with the catalogue rows.
            blob_table = self.database.table(ARCHIVE_TABLE)
            blob_table.delete_where(
                lambda row: row["modelid"] == model_id,
                candidate_positions=blob_table.pk_positions_for([model_id]),
            )

        def unlink_archive() -> None:
            # The model may have been re-created between the (transactional)
            # delete and the commit; the archive then belongs to the new
            # registration and must survive.
            if self.database.has_table(MODEL_TABLE) and (
                self.database.table(MODEL_TABLE).lookup_pk([model_id]) is not None
            ):
                return
            if path.exists():
                path.unlink()

        self.database.on_commit(unlink_archive)
        stale = [key for key, model in self._runtime_cache.items() if model.guid == model_id]
        for key in stale:
            del self._runtime_cache[key]

    # ------------------------------------------------------------------ #
    # Runtime model cache
    # ------------------------------------------------------------------ #
    def runtime_model(self, instance_id: str) -> FmuModel:
        """The cached runtime FMU for an instance, synced with catalogue values."""
        row = self.instance_row(instance_id)
        model_id = row["modelid"]
        cached = self._runtime_cache.get(instance_id)
        if cached is None or cached.guid != model_id:
            cached = FmuModel(self.load_archive(model_id), instance_name=instance_id)
            self._runtime_cache[instance_id] = cached
        cached.reset()
        settable_types = {VARTYPE_PARAMETER, VARTYPE_INPUT, VARTYPE_STATE}
        settable = {
            row["varname"]
            for row in self.variable_rows(model_id)
            if row["vartype"] in settable_types
        }
        for name, value in self.instance_values(instance_id).items():
            if value is None or name not in settable:
                continue
            try:
                cached.set(name, float(value))
            except (TypeError, ValueError):
                continue  # non-numeric values (strings) are not settable states
        return cached

    def invalidate_runtime(self, instance_id: str) -> None:
        self._runtime_cache.pop(instance_id, None)

    # ------------------------------------------------------------------ #
    # Catalogue row access
    # ------------------------------------------------------------------ #
    def model_row(self, model_id: str) -> Dict[str, Any]:
        row = self.database.table(MODEL_TABLE).lookup_pk([model_id])
        if row is None:
            raise UnknownModelError(f"model {model_id!r} does not exist in the catalogue")
        return row

    def model_id_by_reference(self, reference: str) -> Optional[str]:
        """Find an already-loaded model by its original reference string."""
        for row in self.database.table(MODEL_TABLE).to_dicts():
            if row.get("fmureference") == reference:
                return row["modelid"]
        return None

    def model_id_by_guid(self, guid: str) -> Optional[str]:
        row = self.database.table(MODEL_TABLE).lookup_pk([guid])
        return row["modelid"] if row else None

    def has_instance(self, instance_id: str) -> bool:
        return self.database.table(INSTANCE_TABLE).lookup_pk([instance_id]) is not None

    def instance_row(self, instance_id: str) -> Dict[str, Any]:
        row = self.database.table(INSTANCE_TABLE).lookup_pk([instance_id])
        if row is None:
            raise UnknownInstanceError(
                f"model instance {instance_id!r} does not exist in the catalogue"
            )
        return row

    def instances_of(self, model_id: str) -> List[str]:
        return [
            row["instanceid"]
            for row in self.database.table(INSTANCE_TABLE).to_dicts()
            if row["modelid"] == model_id
        ]

    def variable_rows(self, model_id: str) -> List[Dict[str, Any]]:
        return [
            row
            for row in self.database.table(VARIABLE_TABLE).to_dicts()
            if row["modelid"] == model_id
        ]

    def variable_row(self, model_id: str, var_name: str) -> Dict[str, Any]:
        row = self.database.table(VARIABLE_TABLE).lookup_pk([model_id, var_name])
        if row is None:
            raise UnknownInstanceError(
                f"variable {var_name!r} does not exist for model {model_id!r}"
            )
        return row

    def instance_values(self, instance_id: str) -> Dict[str, Any]:
        """Per-instance variable values, unwrapped from their variant wrappers."""
        values: Dict[str, Any] = {}
        for row in self.database.table(VALUES_TABLE).to_dicts():
            if row["instanceid"] == instance_id:
                value = row["value"]
                values[row["varname"]] = value.value if isinstance(value, Variant) else value
        return values

    def set_instance_value(self, instance_id: str, var_name: str, value: Any) -> None:
        """Update one per-instance variable value."""
        instance = self.instance_row(instance_id)
        model_id = instance["modelid"]
        table = self.database.table(VALUES_TABLE)
        existing = table.lookup_pk([model_id, instance_id, var_name])
        if existing is None:
            table.insert([model_id, instance_id, var_name, Variant.wrap(value)])
        else:
            table.update_where(
                lambda row: row["instanceid"] == instance_id and row["varname"] == var_name,
                lambda row: {"value": Variant.wrap(value)},
            )
        self.invalidate_runtime(instance_id)
