"""Multi-client integration: real sockets, concurrent sessions, shutdown.

A live :class:`ReproServer` on a loopback port, driven through the public
:func:`repro.client.connect` driver.  The suite covers the acceptance
criteria of the service layer: many concurrent clients against one shared
engine with correct isolation (auth rejection, per-connection cancel that
never touches a neighbour, per-session timeouts), wire transactions and
batch atomicity, typed error mapping, and graceful shutdown that releases
every session.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.client
from repro.errors import (
    AuthError,
    CancelledError,
    ProtocolError,
    ServerError,
    SqlCatalogError,
    TimeoutError,
)
from repro.server import ReproServer, serve
from repro.server.client import _parse_url
from repro.sqldb import Database

TOKEN = "integration-s3cret"


@pytest.fixture()
def server():
    srv = serve(tokens={"analyst": TOKEN})
    yield srv
    srv.shutdown()


@pytest.fixture()
def conn(server):
    connection = repro.client.connect(server.url, token=TOKEN)
    yield connection
    connection.close()


class TestHandshake:
    def test_url_parsing(self):
        assert _parse_url("repro://127.0.0.1:5433") == ("127.0.0.1", 5433)
        assert _parse_url("127.0.0.1:5433") == ("127.0.0.1", 5433)
        with pytest.raises(ProtocolError):
            _parse_url("postgres://127.0.0.1:5433")
        with pytest.raises(ProtocolError):
            _parse_url("repro://no-port")

    def test_hello_carries_session_identity(self, server, conn):
        assert conn.user == "analyst"
        assert conn.protocol_version >= 1
        assert conn.session_id > 0
        assert len(conn.cancel_key) == 32
        assert conn.ping()

    def test_wrong_token_rejected_with_typed_error(self, server):
        with pytest.raises(AuthError):
            repro.client.connect(server.url, token="wrong")
        # The rejection did not wedge the server.
        good = repro.client.connect(server.url, token=TOKEN)
        assert good.execute("SELECT 1").fetchone() == [1]
        good.close()

    def test_open_server_needs_no_token(self):
        with ReproServer() as srv:
            with repro.client.connect(srv.url) as c:
                assert c.user == "anonymous"
                assert c.execute("SELECT 1 + 1").fetchone() == [2]


class TestStatements:
    def test_parameters_and_fetch_family(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE m (t double precision, x double precision)")
        cur.executemany(
            "INSERT INTO m VALUES ($1, $2)",
            [[0.0, 20.7], [1.0, 20.9], [2.0, 21.4]],
        )
        assert cur.rowcount == 3
        cur.execute("SELECT t, x FROM m WHERE x > $1", [20.8])
        assert [d[0] for d in cur.description] == ["t", "x"]
        assert cur.fetchone() == [1.0, 20.9]
        assert cur.fetchall() == [[2.0, 21.4]]
        assert cur.fetchone() is None
        cur.execute("SELECT t FROM m")
        assert sorted(row[0] for row in cur) == [0.0, 1.0, 2.0]

    def test_engine_errors_reraise_typed(self, conn):
        with pytest.raises(SqlCatalogError, match="missing"):
            conn.execute("SELECT * FROM missing")
        # The session survives the error.
        assert conn.execute("SELECT 1").fetchone() == [1]

    def test_explain_over_the_wire(self, conn):
        conn.execute("CREATE TABLE t (id integer)")
        assert "Scan" in conn.explain("SELECT id FROM t")

    def test_wire_executemany_is_atomic(self, conn):
        conn.execute("CREATE TABLE t (id integer)")
        with pytest.raises(Exception):
            conn.cursor().executemany(
                "INSERT INTO t VALUES ($1)", [[1], [2], ["boom"]]
            )
        assert conn.execute("SELECT count(*) FROM t").fetchone() == [0]

    def test_transactions_over_the_wire(self, server, conn):
        conn.execute("CREATE TABLE t (id integer)")
        conn.begin()
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        conn.begin()
        conn.execute("INSERT INTO t VALUES (2)")
        conn.rollback()
        assert conn.execute("SELECT count(*) FROM t").fetchone() == [1]

    def test_closing_mid_transaction_rolls_back(self, server):
        first = repro.client.connect(server.url, token=TOKEN)
        first.execute("CREATE TABLE t (id integer)")
        first.begin()
        first.execute("INSERT INTO t VALUES (1)")
        first.close()  # server rolls the open transaction back
        second = repro.client.connect(server.url, token=TOKEN)
        assert second.execute("SELECT count(*) FROM t").fetchone() == [0]
        second.close()

    def test_closed_connection_raises(self, conn):
        conn.close()
        with pytest.raises(ServerError, match="closed"):
            conn.execute("SELECT 1")


class TestSessionIsolation:
    def test_per_session_statement_timeout(self, server):
        strict = repro.client.connect(server.url, token=TOKEN, statement_timeout=0)
        relaxed = repro.client.connect(server.url, token=TOKEN)
        try:
            with pytest.raises(TimeoutError):
                strict.execute("SELECT 1")
            assert relaxed.execute("SELECT 1").fetchone() == [1]
            strict.statement_timeout = None
            assert strict.execute("SELECT 1").fetchone() == [1]
            assert relaxed.statement_timeout is None
        finally:
            strict.close()
            relaxed.close()

    def test_cancel_is_scoped_to_its_session(self, server):
        victim = repro.client.connect(server.url, token=TOKEN)
        neighbour = repro.client.connect(server.url, token=TOKEN)
        try:
            victim.execute("CREATE TABLE big (id integer)")
            victim.execute(
                "INSERT INTO big VALUES " + ", ".join(f"({i})" for i in range(300))
            )
            errors = []
            started = threading.Event()

            def run_big_query():
                started.set()
                try:
                    victim.execute(
                        "SELECT count(*) FROM big a, big b, big c "
                        "WHERE a.id + b.id + c.id > 1"
                    )
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            worker = threading.Thread(target=run_big_query)
            worker.start()
            started.wait(timeout=5.0)
            deadline = time.monotonic() + 10.0
            while worker.is_alive() and time.monotonic() < deadline:
                victim.cancel()
                time.sleep(0.005)
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert errors and isinstance(errors[0], CancelledError)
            # The neighbouring session never noticed.
            assert neighbour.execute("SELECT count(*) FROM big").fetchone() == [300]
        finally:
            victim.close()
            neighbour.close()

    def test_cancel_with_wrong_key_is_refused(self, server, conn):
        conn.execute("SELECT 1")
        impostor = repro.client.connect(server.url, token=TOKEN)
        try:
            impostor.session_id = conn.session_id
            impostor.cancel_key = "00" * 16
            assert impostor.cancel() is False
        finally:
            impostor.close()


class TestConcurrentClients:
    def test_eight_clients_share_one_engine(self, server):
        seed = repro.client.connect(server.url, token=TOKEN)
        seed.execute("CREATE TABLE hits (client integer, n integer)")
        seed.close()
        n_clients, n_statements = 8, 12
        failures = []
        barrier = threading.Barrier(n_clients)

        def client_run(client_id: int):
            try:
                with repro.client.connect(server.url, token=TOKEN) as c:
                    barrier.wait(timeout=10.0)
                    for i in range(n_statements):
                        c.execute(
                            "INSERT INTO hits VALUES ($1, $2)", [client_id, i]
                        )
                        count = c.execute(
                            "SELECT count(*) FROM hits WHERE client = $1",
                            [client_id],
                        ).fetchone()[0]
                        assert count == i + 1, (client_id, i, count)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((client_id, exc))

        threads = [
            threading.Thread(target=client_run, args=(cid,))
            for cid in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not failures, failures
        check = repro.client.connect(server.url, token=TOKEN)
        total = check.execute("SELECT count(*) FROM hits").fetchone()[0]
        check.close()
        assert total == n_clients * n_statements

    def test_concurrent_selects_overlap(self, server):
        # Two SELECTs sharing the read lock must not serialize: with a
        # sleep-free engine we assert overlap indirectly - both finish in
        # far less than twice the single-query time on a big cross join.
        seed = repro.client.connect(server.url, token=TOKEN)
        seed.execute("CREATE TABLE big (id integer)")
        seed.execute(
            "INSERT INTO big VALUES " + ", ".join(f"({i})" for i in range(120))
        )

        def timed_select():
            start = time.monotonic()
            with repro.client.connect(server.url, token=TOKEN) as c:
                c.execute("SELECT count(*) FROM big a, big b WHERE a.id < b.id")
            return time.monotonic() - start

        solo = timed_select()
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(timed_select()))
            for _ in range(4)
        ]
        wall_start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        wall = time.monotonic() - wall_start
        seed.close()
        assert len(results) == 4
        # Four fully serialized runs would take ~4x solo; generous margin
        # for scheduling noise while still proving reads overlap.
        assert wall < max(4 * solo * 0.75, solo + 2.0)


class TestShutdown:
    def test_graceful_shutdown_unblocks_running_statements(self):
        server = serve()
        conn = repro.client.connect(server.url)
        conn.execute("CREATE TABLE big (id integer)")
        conn.execute(
            "INSERT INTO big VALUES " + ", ".join(f"({i})" for i in range(300))
        )
        outcome = []
        started = threading.Event()

        def long_query():
            started.set()
            try:
                conn.execute(
                    "SELECT count(*) FROM big a, big b, big c "
                    "WHERE a.id + b.id + c.id > 1"
                )
                outcome.append("finished")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                outcome.append(exc)

        worker = threading.Thread(target=long_query)
        worker.start()
        started.wait(timeout=5.0)
        time.sleep(0.2)  # let the statement reach the engine
        server.shutdown(timeout=10.0)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert outcome  # cancelled server-side or connection torn down
        # Shutdown is idempotent and new connections are refused.
        server.shutdown()
        with pytest.raises((ConnectionError, OSError, ServerError)):
            repro.client.connect("repro://127.0.0.1:%d" % 1, connect_timeout=0.5)

    def test_shutdown_is_prompt_and_leaves_no_threads(self):
        # Regression: close() alone never woke the blocked accept(), so every
        # shutdown waited out its full join timeout and leaked the thread.
        server = serve()
        idle = repro.client.connect(server.url)
        assert idle.execute("SELECT 1").fetchone() == [1]
        started = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - started < 0.5
        leftover = [
            t.name for t in threading.enumerate() if t.name.startswith("repro-server-")
        ]
        assert leftover == []
        idle.close()

    def test_context_manager_serves_and_shuts_down(self):
        with ReproServer(Database()) as srv:
            with repro.client.connect(srv.url) as c:
                assert c.execute("SELECT 1").fetchone() == [1]
