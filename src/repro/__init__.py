"""pgFMU reproduction: in-DBMS storage, simulation and calibration of FMUs.

This package reproduces the system described in "pgFMU: Integrating Data
Management with Physical System Modelling" (EDBT 2020) as a self-contained
Python library.  The public API is layered like a real database system:

* :func:`repro.connect` - the **driver layer**: a PEP-249-style
  :class:`~repro.sqldb.connection.Connection` / Cursor pair with parameter
  binding, ``executemany`` and transactions, plus ``conn.session`` for the
  object layer.
* :class:`repro.core.Session` - the **object layer**: ``session.create(...)``
  returns fluent :class:`~repro.core.handles.InstanceHandle` objects
  (``inst.set_initial(...).simulate(...)``) and ``session.simulate_many``
  batches a same-model fleet through one shared input pass and one
  vectorized ``(N, d)`` integration.
* ``database.install_extension("pgfmu" | "madlib")`` - the **extension
  layer**: UDF packs are declared with decorators and installed like
  PostgreSQL extensions; ``SELECT * FROM fmu_extensions()`` lists them.
* :class:`repro.sqldb.Database` - the in-memory SQL engine on its own.
* :func:`repro.serve` / :func:`repro.client.connect` - the **service
  layer**: a threaded socket server exposing one shared engine to many
  authenticated sessions over a length-prefixed JSON wire protocol
  (:mod:`repro.server`), and the matching network driver.
* :func:`repro.modelica.compile_fmu` / :func:`repro.fmi.load_fmu` - the
  Modelica compiler and FMU runtime.
* :mod:`repro.harness` - one function per table/figure of the paper.

See README.md for a quickstart, docs/architecture.md for the layer
walkthrough and module map, and docs/sql_reference.md for the full SQL
surface.
"""

from typing import Optional

from repro.core import InstanceHandle, ModelHandle, Session
from repro.fmi import FmuArchive, FmuModel, load_fmu
from repro.modelica import compile_fmu
from repro.sqldb import Connection, Cursor, Database, Extension

__version__ = "1.1.0"


def connect(
    database: Optional[Database] = None,
    storage_dir: Optional[str] = None,
    register_ml: bool = True,
    path: Optional[str] = None,
    fsync: bool = True,
    statement_timeout: Optional[float] = None,
    **session_options,
) -> Connection:
    """Open a pgFMU connection (the application-level driver entry point).

    Boots a :class:`~repro.core.Session` (installing the ``pgfmu`` extension
    and, with ``register_ml=True``, ``madlib``) and returns a DB-API-style
    :class:`~repro.sqldb.Connection` over its database.  The object layer
    stays reachable through ``conn.session``::

        with repro.connect() as conn:
            cur = conn.cursor()
            cur.execute("SELECT fmu_create($1, 'HP1Instance1')", [hp1_source()])
            inst = conn.session.instance(cur.fetchone()[0])
            inst.calibrate(measurements="SELECT * FROM measurements")

    ``path`` makes the database **durable**: the SQL state (model
    catalogue, measurements, FMU archive blobs) lives in a write-ahead
    log + page store at ``path`` / ``path + ".wal"`` and is recovered on
    the next ``connect(path=...)`` - committed transactions survive a
    crash, models stay calibrated across process restarts.  A string or
    ``Path`` first argument is taken as the path, so the short form reads
    like ``sqlite3.connect``::

        with repro.connect("fleet.db") as conn:
            ...

    ``storage_dir`` is the directory for the FMU archive *file* store
    (defaults to a temp dir); with ``path`` set, archives are additionally
    persisted as blobs inside the database, so the file store is just a
    cache.  ``statement_timeout`` (seconds) installs a deadline around
    every statement; an overrun raises the typed
    :class:`~repro.errors.TimeoutError` (see ``Cursor.cancel()`` for
    cross-thread cancellation).  ``session_options`` are forwarded to
    :class:`~repro.core.Session` (``ga_options``, ``local_options``,
    ``seed``).
    """
    from pathlib import Path

    if isinstance(database, (str, Path)):
        if path is not None:
            raise ValueError(
                "pass either an existing database or a storage path, not both"
            )
        database, path = None, database
    if path is not None:
        if database is not None:
            raise ValueError(
                "pass either an existing database or a storage path, not both"
            )
        from repro.sqldb.storage import StorageEngine

        database = Database(storage=StorageEngine(path, fsync=fsync))
    session = Session(
        database=database,
        storage_dir=storage_dir,
        register_ml=register_ml,
        **session_options,
    )
    if statement_timeout is not None:
        session.database.statement_timeout = statement_timeout
    return session.connection()


def __getattr__(name: str):
    # The service layer is imported lazily so that `import repro` does not
    # pull in the socket server for purely in-process users.
    if name in ("serve", "ReproServer"):
        from repro import server as _server

        return getattr(_server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "connect",
    "serve",
    "ReproServer",
    "Session",
    "InstanceHandle",
    "ModelHandle",
    "Connection",
    "Cursor",
    "Database",
    "Extension",
    "FmuArchive",
    "FmuModel",
    "load_fmu",
    "compile_fmu",
    "__version__",
]
