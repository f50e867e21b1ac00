"""The pgFMU session: owner of the database, catalogue, and API layers.

The public API is layered like a real database system (this is the seam the
scaling roadmap plugs into - async sessions, multi-backend, caching):

1. **Driver layer** - :func:`repro.connect` returns a PEP-249-style
   :class:`~repro.sqldb.connection.Connection` with cursors, parameter
   binding, ``executemany``, and transactions, all delegated to the SQL
   engine; :meth:`Session.execute` is the one-call shortcut.
2. **Object layer** - :meth:`Session.create` returns a fluent
   :class:`~repro.core.handles.InstanceHandle`
   (``inst.set_initial(...).set_bounds(...).simulate(...)``), and
   :meth:`Session.simulate_many` batches a fleet through one shared input
   pass.  Handles subclass :class:`str`, so they remain valid wherever a raw
   instance id was accepted before.
3. **Extension layer** - the ``fmu_*`` UDFs are packaged as the ``pgfmu``
   :class:`~repro.sqldb.udf.Extension` and the MADlib-style ML UDFs as
   ``"madlib"``; both are installed with
   :meth:`~repro.sqldb.database.Database.install_extension` and listed by
   the ``fmu_extensions()`` set-returning function.

:class:`Session` is the one Python surface: the paper harness, the
workflows and the tests all build on it, its handles and
:meth:`~repro.sqldb.database.Database.install_extension`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.catalog import ModelCatalog
from repro.core.handles import InstanceHandle, ModelHandle
from repro.core.instances import InstanceManager
from repro.core.parest import DEFAULT_SIMILARITY_THRESHOLD, ParameterEstimator, ParestOutcome
from repro.core.simulate import Simulator
from repro.core.udfs import pgfmu_extension
from repro.fmi.results import SimulationResult
from repro.sqldb.connection import Connection
from repro.sqldb.database import Database
from repro.sqldb.result import ResultSet


class Session:
    """A pgFMU session: database + model catalogue + installed extensions.

    The session is the object-layer entry point.  It owns the SQL database,
    creates the four catalogue tables and FMU storage, installs the
    ``pgfmu`` extension (and optionally ``madlib``), and hands out fluent
    handles::

        session = Session()                      # or repro.connect().session
        inst = session.create(model_source, "HP1Instance1")
        inst.set_initial("Cp", 2.0).calibrate("SELECT * FROM measurements")
        result = inst.simulate("SELECT * FROM measurements")
        fleet = session.simulate_many([inst, inst.copy()], "SELECT * FROM measurements")

    SQL is always available through :meth:`execute` / :meth:`cursor`, and
    every ``fmu_*`` UDF routes back into this object's managers - the SQL
    and Python surfaces cannot diverge.

    Parameters
    ----------
    database:
        An existing database to extend; a fresh one is created when omitted.
    storage_dir:
        Directory for FMU storage.  By default a temporary directory, which
        :meth:`close` (or leaving a ``with Session() as session:`` block)
        removes.
    ga_options / local_options:
        Default calibration budgets used by ``fmu_parest``; benchmarks shrink
        them to keep run times manageable.
    seed:
        Seed for the calibration global search.
    register_ml:
        Also install the ``"madlib"`` extension (``arima_train`` etc.).

    Attributes
    ----------
    database:
        The underlying :class:`~repro.sqldb.database.Database`.
    catalog:
        The :class:`~repro.core.catalog.ModelCatalog` (catalogue tables +
        FMU storage + runtime-model caches).
    instances / simulator / estimator:
        The managers behind the ``fmu_*`` UDFs.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        storage_dir: Optional[str] = None,
        ga_options: Optional[dict] = None,
        local_options: Optional[dict] = None,
        seed: int = 1,
        register_ml: bool = True,
    ):
        self.database = database if database is not None else Database()
        self.catalog = ModelCatalog(self.database, storage_dir=storage_dir)
        self.instances = InstanceManager(self.catalog)
        self.estimator = ParameterEstimator(
            catalog=self.catalog,
            instances=self.instances,
            ga_options=dict(ga_options or {}),
            local_options=dict(local_options or {}),
            seed=seed,
        )
        self.simulator = Simulator(catalog=self.catalog, instances=self.instances)
        self._connection = Connection(self.database, session=self)
        self.database.install_extension(pgfmu_extension(self))
        if register_ml:
            self.database.install_extension("madlib")

    # ------------------------------------------------------------------ #
    # Driver layer
    # ------------------------------------------------------------------ #
    def connection(self) -> Connection:
        """The session's driver-layer connection.

        Long-lived, but not load-bearing: closing it (e.g. leaving a
        ``with repro.connect() as conn:`` block) only invalidates that
        handle - the next call here mints a fresh connection over the same
        database, so the session itself stays usable.
        """
        if self._connection.closed:
            self._connection = Connection(self.database, session=self)
        return self._connection

    def cursor(self):
        """A fresh cursor on the session's connection."""
        return self.connection().cursor()

    def execute(self, sql: str, params: Optional[Sequence[Any]] = None) -> ResultSet:
        """Execute a SQL statement and return its result set."""
        return self.connection().execute(sql, params).result

    # ------------------------------------------------------------------ #
    # Object layer: models and instances
    # ------------------------------------------------------------------ #
    def create(self, model_ref: str, instance_id: Optional[str] = None) -> InstanceHandle:
        """``fmu_create``: load/compile a model and return an instance handle."""
        created = self.instances.create(model_ref, instance_id)
        return InstanceHandle(created, self)

    def instance(self, instance_id: str) -> InstanceHandle:
        """Handle for an existing instance (raises if unknown)."""
        self.catalog.instance_row(str(instance_id))
        return InstanceHandle(str(instance_id), self)

    def model(self, model_id: str) -> ModelHandle:
        """Handle for an existing model (raises if unknown)."""
        self.catalog.model_row(str(model_id))
        return ModelHandle(str(model_id), self)

    def models(self) -> List[ModelHandle]:
        """Handles for every model in the catalogue."""
        return [ModelHandle(model_id, self) for model_id in self.model_ids()]

    # ------------------------------------------------------------------ #
    # Calibration and simulation
    # ------------------------------------------------------------------ #
    def parest(
        self,
        instance_ids: Sequence[str],
        input_sqls: Sequence[str],
        parameters: Optional[Sequence[str]] = None,
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        use_mi_optimization: bool = True,
    ) -> List[ParestOutcome]:
        """``fmu_parest``: calibrate one or more instances."""
        return self.estimator.estimate(
            instance_ids,
            input_sqls,
            parameters=parameters,
            threshold=threshold,
            use_mi_optimization=use_mi_optimization,
        )

    def simulate(
        self,
        instance_id: str,
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> SimulationResult:
        """``fmu_simulate`` returning the trajectory object (Python API)."""
        return self.simulator.simulate_result(instance_id, input_sql, time_from, time_to)

    def simulate_many(
        self,
        instance_ids: Sequence[str],
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> Dict[str, SimulationResult]:
        """Batch ``fmu_simulate``: simulate a whole fleet in one pass.

        The measurement query executes once (instead of once per instance),
        and instances of the same model integrate as a single batched
        ``(N, d)`` solve through one vectorized right-hand side
        (:meth:`~repro.fmi.model.FmuModel.simulate_batch`), which scales
        sub-linearly in fleet size.  Batched trajectories match the
        sequential per-instance path within 1e-9; systems that cannot batch
        fall back to it automatically.  Results are keyed by instance id in
        input order.

        Parameters
        ----------
        instance_ids:
            Instance ids (or handles) to simulate; duplicates are simulated
            once.  The instances may belong to different models - each
            same-model group batches separately.
        input_sql:
            Optional measurement query; its time column defines the output
            grid and its remaining columns bind to model inputs by name.
        time_from / time_to:
            Optional simulation window overrides.
        """
        return self.simulator.simulate_many(instance_ids, input_sql, time_from, time_to)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def instance_parameters(self, instance_id: str) -> Dict[str, float]:
        """Current per-instance parameter values (from the catalogue)."""
        parameter_names = set(self.instances.parameter_names(instance_id))
        values = self.catalog.instance_values(instance_id)
        result: Dict[str, float] = {}
        for name in parameter_names:
            value = values.get(name)
            if value is not None:
                result[name] = float(value)
        return result

    def model_ids(self) -> List[str]:
        """All model UUIDs present in the catalogue."""
        return [row["modelid"] for row in self.database.table("model").to_dicts()]

    def instance_ids(self) -> List[str]:
        """All instance identifiers present in the catalogue."""
        return [row["instanceid"] for row in self.database.table("modelinstance").to_dicts()]

    def extensions(self) -> List[str]:
        """Names of the extensions installed on the session's database."""
        return [ext.name for ext in self.database.extensions()]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the session's connection and remove the FMU storage
        directory if the session created it (a given ``storage_dir`` is
        left alone).  The database itself stays open."""
        self._connection.close()
        self.catalog.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
