"""The TCP server: accept loop, thread-per-connection, graceful shutdown.

A :class:`ReproServer` binds one listening socket and serves each client
connection on its own thread - the natural fit for the engine's
concurrency model, where a session's statements must run on one thread so
its explicit transactions own the statement lock correctly.

Connection lifecycle::

    client                                server
      | -- hello {token, options} ------->  authenticate, open session
      | <-- {ok, session, cancel_key} ---
      | -- {op: execute, sql, params} --->  dispatch on the session
      | <-- {ok, columns, rows, ...} -----
      | ...                                 (one request in flight at a time)
      | -- {op: close} ------------------>  close session, goodbye

Cancellation is out-of-band, exactly like PostgreSQL's ``CancelRequest``:
while a statement runs, its connection's socket is busy, so the client
opens a *second* short-lived connection whose first message is
``{op: cancel, session, cancel_key}``.  The service flips that session's
cancel token and the running statement unwinds cooperatively.

:meth:`ReproServer.shutdown` is graceful: stop accepting, cancel every
in-flight statement, shut client sockets down (which unblocks their
readers), and join the handler threads.  Sessions that were mid-transaction
roll back through their connection close, releasing the statement lock.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import ProtocolError, ReproError
from repro.server import protocol
from repro.server.service import ReproService, SessionState, error_response
from repro.sqldb.database import Database


class ReproServer:
    """A threaded socket server over one shared engine.

    Parameters
    ----------
    database:
        The :class:`~repro.sqldb.Database` to serve (a fresh in-memory one
        by default).  Pass ``repro.connect(...).database`` to serve a full
        pgFMU session - the fmu UDFs are then reachable over the wire.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    tokens:
        Credentials forwarded to :class:`~repro.server.service.ReproService`;
        None leaves the server open (no auth).
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tokens: Union[Mapping[str, str], Iterable[str], None] = None,
        backlog: int = 128,
    ):
        self.service = ReproService(database, tokens=tokens)
        self._bind_host = host
        self._bind_port = port
        self._backlog = backlog
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._handlers: Dict[threading.Thread, Tuple[socket.socket, Dict[str, Any]]] = {}
        self._handlers_mutex = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ReproServer":
        """Bind, listen, and start accepting (returns self for chaining)."""
        if self._listener is not None:
            raise ReproError("server is already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._bind_host, self._bind_port))
        listener.listen(self._backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) - resolves port 0 to the real port."""
        if self._listener is None:
            raise ReproError("server is not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        """The ``repro://host:port`` URL clients connect to."""
        host, port = self.address
        return f"repro://{host}:{port}"

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting, cancel in-flight statements, join handlers.

        Idempotent.  Handler threads still alive after ``timeout`` seconds
        are abandoned (they are daemons), which only happens if a statement
        ignores its cancel token.
        """
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # On Linux close() alone does not wake a thread blocked in
            # accept(); shutdown() does, so the accept loop exits at once.
            _shutdown_quietly(listener)
            _close_quietly(listener)
        # Join the accept loop first: once it is gone no new handler can
        # register behind the snapshot below.
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
            self._accept_thread = None
        with self._handlers_mutex:
            handlers = dict(self._handlers)
        for thread, (sock, slot) in handlers.items():
            session = slot.get("session")
            if isinstance(session, SessionState):
                session.connection.cancel()
            _shutdown_quietly(sock)
        for thread in handlers:
            thread.join(timeout=timeout)

    def __enter__(self) -> "ReproServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Accept loop and connection handlers
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set() and listener is not None:
            try:
                client, _addr = listener.accept()
            except OSError:
                break  # listener shut down by shutdown()
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            slot: Dict[str, Any] = {}
            thread = threading.Thread(
                target=self._handle_connection,
                args=(client, slot),
                name="repro-server-conn",
                daemon=True,
            )
            with self._handlers_mutex:
                self._handlers[thread] = (client, slot)
            thread.start()

    def _handle_connection(self, sock: socket.socket, slot: Dict[str, Any]) -> None:
        session: Optional[SessionState] = None
        try:
            hello = protocol.recv_message(sock)
            if hello is None:
                return
            op = hello.get("op")
            if op == "cancel":
                # Out-of-band cancel connection: one request, one reply.
                cancelled = self.service.cancel(
                    hello.get("session"), hello.get("cancel_key")
                )
                protocol.send_message(sock, {"ok": True, "cancelled": cancelled})
                return
            if op != "hello":
                protocol.send_message(
                    sock,
                    error_response(ProtocolError("the first message must be a hello")),
                )
                return
            try:
                session = self.service.open_session(
                    hello.get("token"), hello.get("options")
                )
            except ReproError as exc:
                protocol.send_message(sock, error_response(exc))
                return
            slot["session"] = session
            from repro import __version__

            protocol.send_message(
                sock,
                {
                    "ok": True,
                    "session": session.id,
                    "cancel_key": session.cancel_key,
                    "user": session.user,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "server": f"repro/{__version__}",
                },
            )
            while not self._stopping.is_set():
                request = protocol.recv_message(sock)
                if request is None:
                    break
                if request.get("op") == "close":
                    protocol.send_message(sock, {"ok": True})
                    break
                protocol.send_message(sock, self.service.dispatch(session, request))
        except (OSError, ProtocolError):
            # The peer vanished or sent garbage; the finally block already
            # rolls back and releases everything this session held.
            pass
        finally:
            if session is not None:
                self.service.close_session(session)
            _close_quietly(sock)
            with self._handlers_mutex:
                self._handlers.pop(threading.current_thread(), None)


def serve(
    database: Optional[Database] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    tokens: Union[Mapping[str, str], Iterable[str], None] = None,
) -> ReproServer:
    """Start a :class:`ReproServer` and return it (already listening)."""
    return ReproServer(database, host=host, port=port, tokens=tokens).start()


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _shutdown_quietly(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
