"""One PEP-249 conformance sequence, run against both drivers.

The in-process :class:`~repro.sqldb.connection.Cursor` (``repro.connect()``)
and the network :class:`~repro.server.client.RemoteCursor`
(``repro.client.connect()`` against ``repro.serve()``) share their fetch,
iteration, ``description``/``rowcount`` and lifecycle code through
:class:`~repro.sqldb.connection.BaseCursor`.  This test drives the same
statements through each and requires the same answers; every driver-side
error must arrive as that driver's own type.
"""

from __future__ import annotations

import pytest

import repro
import repro.client
from repro.errors import ServerError, SqlCatalogError, SqlExecutionError


@pytest.fixture(params=["in-process", "remote"])
def driver(request):
    """``(connection, driver error type)`` for each driver."""
    if request.param == "in-process":
        conn = repro.connect(register_ml=False)
        yield conn, SqlExecutionError
        conn.close()
        conn.session.close()  # removes the session's temporary FMU storage
        return
    server = repro.serve()
    conn = repro.client.connect(server.url)
    yield conn, ServerError
    conn.close()
    server.shutdown()


def test_cursor_conformance(driver):
    conn, error = driver
    cur = conn.cursor()

    # Before any execute: no description, rowcount -1, every fetch refused.
    assert cur.description is None and cur.rowcount == -1
    for fetch in (cur.fetchone, cur.fetchmany, cur.fetchall, lambda: next(cur)):
        with pytest.raises(error, match="no query has been executed"):
            fetch()

    cur.execute("CREATE TABLE c (k integer, v text)")
    cur.executemany("INSERT INTO c VALUES ($1, $2)", [[k, f"v{k}"] for k in range(1, 5)])
    assert cur.rowcount == 4

    # The fetch family walks one result; a negative size is refused
    # without consuming anything.
    cur.execute("SELECT k, v FROM c ORDER BY k")
    assert cur.description == [
        ("k", None, None, None, None, None, None),
        ("v", None, None, None, None, None, None),
    ]
    assert cur.rowcount == 4
    assert cur.fetchone() == [1, "v1"]
    assert cur.fetchmany() == [[2, "v2"]]  # arraysize defaults to 1
    with pytest.raises(error, match="non-negative"):
        cur.fetchmany(-1)
    assert cur.fetchmany(5) == [[3, "v3"], [4, "v4"]]
    assert cur.fetchmany(2) == [] and cur.fetchone() is None and cur.fetchall() == []

    # Iteration and arraysize.
    cur.execute("SELECT k FROM c WHERE k > $1 ORDER BY k", [1])
    cur.arraysize = 2
    assert cur.fetchmany() == [[2], [3]]
    assert list(cur) == [[4]]

    # DML reports the affected rows.
    cur.execute("UPDATE c SET v = 'x' WHERE k > $1", [2])
    assert cur.rowcount == 2

    # A failing statement leaves the cursor empty, not serving old rows.
    cur.execute("SELECT k FROM c")
    with pytest.raises(SqlCatalogError, match="missing"):
        cur.execute("SELECT * FROM missing")
    assert cur.description is None and cur.rowcount == -1
    with pytest.raises(error, match="no query has been executed"):
        cur.fetchall()

    # Use after close: the context manager closes the cursor.
    with conn.cursor() as closed:
        assert closed.execute("SELECT 1").fetchone() == [1]
    assert closed.description is None
    for use in (closed.fetchone, closed.fetchall, lambda: closed.execute("SELECT 1")):
        with pytest.raises(error, match="cursor is closed"):
            use()

    # Closing the connection invalidates its open cursors.
    cur.execute("SELECT 1")
    conn.close()
    for use in (cur.fetchone, lambda: cur.execute("SELECT 1"), conn.cursor):
        with pytest.raises(error, match="connection is closed"):
            use()
