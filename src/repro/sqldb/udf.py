"""User-defined function registry and the extension packaging layer.

pgFMU (like MADlib) integrates with the database by registering functions:

* *scalar UDFs* return one value and can appear anywhere an expression can
  (``SELECT fmu_create(...)``, nested calls, WHERE clauses);
* *table UDFs* (set-returning functions) return rows with a fixed output
  schema and appear in FROM (``SELECT * FROM fmu_variables('HP1Instance1')``),
  including LATERAL usage.  Like PostgreSQL's ``RETURNS TABLE (...)``, each
  output column may declare its SQL type (``"simulationtime double
  precision"``); the planner can then hash-join a fully typed function's
  output with base tables (see :func:`table_udf`).

Both kinds receive the owning :class:`~repro.sqldb.database.Database` as
their first argument, which is how pgFMU's functions execute the user-supplied
``input_sql`` queries "in place" without any data export/import.

UDFs are packaged and installed the way PostgreSQL installs pgFMU or MADlib:
a function is declared with the :func:`scalar_udf` / :func:`table_udf`
decorators (which attach an immutable :class:`UdfSpec`), a set of declared
functions is bundled into an :class:`Extension`, and the bundle is installed
with :meth:`Database.install_extension`.  Extensions installable by name
(``install_extension("madlib")``) register a factory here via
:func:`register_extension_factory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SqlCatalogError, SqlTypeError
from repro.sqldb.types import SqlType


def parse_output_columns(
    udf_name: str, columns: Sequence[str]
) -> Tuple[List[str], List[Optional[SqlType]]]:
    """Split a table UDF's ``"name [type]"`` column entries.

    Returns the lower-cased names and, per column, the declared type
    (parsed like a ``CREATE TABLE`` column type) or None for a bare name.
    """
    names: List[str] = []
    types: List[Optional[SqlType]] = []
    for entry in columns:
        parts = entry.split(None, 1)
        if not parts:
            raise SqlCatalogError(f"table UDF {udf_name!r} declares an empty column")
        names.append(parts[0].lower())
        if len(parts) == 1:
            types.append(None)
            continue
        try:
            types.append(SqlType.parse(parts[1]))
        except SqlTypeError as exc:
            raise SqlCatalogError(f"table UDF {udf_name!r}, column {parts[0]!r}: {exc}") from None
    return names, types


def _first_docstring_line(func: Callable) -> str:
    doc = (func.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


@dataclass(frozen=True)
class UdfSpec:
    """Immutable declaration of one UDF, as attached by the decorators.

    ``kind`` is ``"scalar"`` or ``"table"``; table UDFs carry their fixed
    output ``columns`` (``"name"`` or ``"name type"`` entries).  The spec
    is pure data - it binds to a concrete database only when an
    :class:`Extension` containing it is installed.
    """

    name: str
    kind: str
    func: Callable[..., Any]
    columns: Tuple[str, ...] = ()
    min_args: int = 0
    max_args: Optional[int] = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("scalar", "table"):
            raise SqlCatalogError(f"UDF {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "table":
            if not self.columns:
                raise SqlCatalogError(f"table UDF {self.name!r} must declare output columns")
            parse_output_columns(self.name, self.columns)


def scalar_udf(
    name: Optional[str] = None,
    min_args: int = 0,
    max_args: Optional[int] = None,
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Declare a function as a scalar UDF (``func.__udf_spec__`` is attached).

    The decorated function is returned unchanged, so it stays directly
    callable (and testable) as plain Python.
    """

    def decorator(func: Callable) -> Callable:
        func.__udf_spec__ = UdfSpec(
            name=(name or func.__name__).lower(),
            kind="scalar",
            func=func,
            min_args=min_args,
            max_args=max_args,
            description=description or _first_docstring_line(func),
        )
        return func

    return decorator


def table_udf(
    name: Optional[str] = None,
    columns: Sequence[str] = (),
    min_args: int = 0,
    max_args: Optional[int] = None,
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Declare a function as a set-returning UDF with a fixed output schema.

    Each entry of ``columns`` is an output column name, optionally followed
    by its SQL type as ``CREATE TABLE`` spells it: ``["simulationtime double
    precision", "instanceid text", ...]``.  A bare name stays untyped
    (``variant``), and a function with any untyped column plans as an
    opaque source, exactly as before types existed.

    When every column declares a type, the planner treats a non-LATERAL
    call as a relation with known columns: unqualified names resolve to
    it, and an equality between one of its columns and a column of the
    same type class (numeric, text, timestamp) becomes a hash-join key.
    The declaration is a contract the function must keep: each value is
    NULL or of its column's class (``int``/``float``/``bool`` for numeric
    types, ``str`` for text, ``datetime`` for timestamps).  Values are not
    converted as rows are produced; a hash join checks its key values and
    raises :class:`~repro.errors.SqlExecutionError` on a value that breaks
    its declaration, rather than silently matching differently from the
    nested loop's ``=``.
    """

    def decorator(func: Callable) -> Callable:
        func.__udf_spec__ = UdfSpec(
            name=(name or func.__name__).lower(),
            kind="table",
            func=func,
            columns=tuple(c.lower() for c in columns),
            min_args=min_args,
            max_args=max_args,
            description=description or _first_docstring_line(func),
        )
        return func

    return decorator


@dataclass(frozen=True)
class Extension:
    """A named, versioned bundle of UDFs - the unit of installation.

    Mirrors PostgreSQL's ``CREATE EXTENSION``: installing an extension
    registers every UDF it declares on the target database, and the
    installation is recorded so ``fmu_extensions()`` can report it.
    """

    name: str
    version: str = "1.0"
    description: str = ""
    udfs: Tuple[UdfSpec, ...] = ()

    def __post_init__(self):
        # Extension names are case-insensitive everywhere (installation,
        # lookup, idempotency), so normalize once at construction.
        object.__setattr__(self, "name", self.name.lower())

    @classmethod
    def from_functions(
        cls,
        name: str,
        functions: Iterable[Callable],
        version: str = "1.0",
        description: str = "",
    ) -> "Extension":
        """Bundle functions declared with ``@scalar_udf`` / ``@table_udf``."""
        specs = []
        for func in functions:
            spec = getattr(func, "__udf_spec__", None)
            if spec is None:
                raise SqlCatalogError(
                    f"{func!r} is not a declared UDF; decorate it with "
                    f"@scalar_udf(...) or @table_udf(...)"
                )
            specs.append(spec)
        return cls(name=name.lower(), version=version, description=description, udfs=tuple(specs))


#: Factories for extensions installable by name: name -> factory(database, **options).
_EXTENSION_FACTORIES: Dict[str, Callable[..., Extension]] = {}

#: Built-in packs are registered on import of their module; the lazy table
#: lets ``install_extension("madlib")`` work before anything imported them.
_BUILTIN_EXTENSION_MODULES: Dict[str, str] = {
    "pgfmu": "repro.core.udfs",
    "madlib": "repro.ml.udfs",
}


def register_extension_factory(name: str, factory: Callable[..., Extension]) -> None:
    """Make ``Database.install_extension(name)`` able to build this extension."""
    _EXTENSION_FACTORIES[name.lower()] = factory


def extension_factory(name: str) -> Callable[..., Extension]:
    """Look up a registered extension factory by name (lazily importing
    the providing module for the built-in packs)."""
    key = name.lower()
    factory = _EXTENSION_FACTORIES.get(key)
    if factory is None and key in _BUILTIN_EXTENSION_MODULES:
        import importlib

        importlib.import_module(_BUILTIN_EXTENSION_MODULES[key])
        factory = _EXTENSION_FACTORIES.get(key)
    if factory is None:
        known = ", ".join(sorted(set(_EXTENSION_FACTORIES) | set(_BUILTIN_EXTENSION_MODULES)))
        raise SqlCatalogError(
            f"unknown extension {name!r}; known extensions: {known}"
        )
    return factory


def available_extensions() -> List[str]:
    """Names of all extensions installable by name."""
    return sorted(set(_EXTENSION_FACTORIES) | set(_BUILTIN_EXTENSION_MODULES))


@dataclass
class ScalarUdf:
    """A scalar user-defined function."""

    name: str
    func: Callable[..., Any]
    min_args: int = 0
    max_args: Optional[int] = None
    description: str = ""

    def __post_init__(self):
        self.name = self.name.lower()
        if self.max_args is not None and self.max_args < self.min_args:
            raise SqlCatalogError(
                f"UDF {self.name!r}: max_args must be >= min_args"
            )

    def check_arity(self, n_args: int) -> None:
        if n_args < self.min_args or (self.max_args is not None and n_args > self.max_args):
            expected = (
                f"{self.min_args}" if self.max_args == self.min_args
                else f"{self.min_args}..{self.max_args if self.max_args is not None else 'N'}"
            )
            raise SqlCatalogError(
                f"function {self.name!r} expects {expected} arguments, got {n_args}"
            )


@dataclass
class TableUdf:
    """A set-returning user-defined function with a fixed output schema.

    ``columns`` is given as ``"name [type]"`` entries (see
    :func:`table_udf`) and holds the bare names after construction;
    ``column_types`` holds each declared type (``variant`` for an untyped
    column) and ``typed`` says whether every column declared one.
    """

    name: str
    func: Callable[..., Sequence[Sequence[Any]]]
    columns: List[str]
    min_args: int = 0
    max_args: Optional[int] = None
    description: str = ""
    column_types: List[SqlType] = field(init=False)
    typed: bool = field(init=False)

    def __post_init__(self):
        self.name = self.name.lower()
        if not self.columns:
            raise SqlCatalogError(f"table UDF {self.name!r} must declare output columns")
        self.columns, types = parse_output_columns(self.name, self.columns)
        self.typed = all(sql_type is not None for sql_type in types)
        self.column_types = [sql_type or SqlType.VARIANT for sql_type in types]

    def check_arity(self, n_args: int) -> None:
        if n_args < self.min_args or (self.max_args is not None and n_args > self.max_args):
            expected = (
                f"{self.min_args}" if self.max_args == self.min_args
                else f"{self.min_args}..{self.max_args if self.max_args is not None else 'N'}"
            )
            raise SqlCatalogError(
                f"function {self.name!r} expects {expected} arguments, got {n_args}"
            )


@dataclass
class UdfRegistry:
    """Holds all registered scalar and table UDFs of a database."""

    scalars: Dict[str, ScalarUdf] = field(default_factory=dict)
    tables: Dict[str, TableUdf] = field(default_factory=dict)
    #: Bumped on every registration change (and on transaction rollback);
    #: the statement-lock classifier caches against it.
    version: int = 0

    def register_scalar(
        self,
        name: str,
        func: Callable[..., Any],
        min_args: int = 0,
        max_args: Optional[int] = None,
        description: str = "",
    ) -> ScalarUdf:
        """Register (or replace) a scalar UDF."""
        udf = ScalarUdf(name=name, func=func, min_args=min_args, max_args=max_args, description=description)
        self.scalars[udf.name] = udf
        self.version += 1
        return udf

    def register_table(
        self,
        name: str,
        func: Callable[..., Sequence[Sequence[Any]]],
        columns: Sequence[str],
        min_args: int = 0,
        max_args: Optional[int] = None,
        description: str = "",
    ) -> TableUdf:
        """Register (or replace) a set-returning UDF."""
        udf = TableUdf(
            name=name,
            func=func,
            columns=list(columns),
            min_args=min_args,
            max_args=max_args,
            description=description,
        )
        self.tables[udf.name] = udf
        self.version += 1
        return udf

    def register_spec(self, spec: UdfSpec) -> None:
        """Register a declarative :class:`UdfSpec` (from the decorators)."""
        if spec.kind == "scalar":
            self.register_scalar(
                spec.name,
                spec.func,
                min_args=spec.min_args,
                max_args=spec.max_args,
                description=spec.description,
            )
        else:
            self.register_table(
                spec.name,
                spec.func,
                spec.columns,
                min_args=spec.min_args,
                max_args=spec.max_args,
                description=spec.description,
            )

    def scalar(self, name: str) -> Optional[ScalarUdf]:
        return self.scalars.get(name.lower())

    def table(self, name: str) -> Optional[TableUdf]:
        return self.tables.get(name.lower())

    def names(self) -> Tuple[List[str], List[str]]:
        """Names of (scalar, table) UDFs, sorted."""
        return sorted(self.scalars), sorted(self.tables)
