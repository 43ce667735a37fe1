"""``NetworkSUT``: the LoadGen-side adapter onto a remote server.

The Network division's defining property is that the *unmodified*
LoadGen measures a SUT that lives across a wire.  ``NetworkSUT``
implements the ordinary :class:`~repro.core.sut.SutBase` contract, so
every scenario driver, referee rule, and validity check applies
unchanged; everything network-specific stays inside this adapter:

* a small **connection pool**, queries issued round-robin across it;
* **per-attempt deadlines** and bounded retries, re-sending under the
  *same* query id so a straggling first answer and a retried second one
  are de-duplicated by the attempt engine
  (:class:`~repro.faults.filtering.CompletionFilter`) the in-process
  retry wrappers use;
* **reconnect with backoff** when a connection drops, with the in-flight
  queries on it retried over surviving connections or reported through
  the failed-query machinery (never a hang);
* **transport timestamps** (client send/receive, server receive/send)
  kept per query for the trace exporter's network spans.

Threading model: socket reader threads never touch SUT state - they hand
frames to the run loop via :meth:`~repro.core.events.EventLoop.post`,
so all bookkeeping happens on the loop thread exactly as in an
in-process SUT.  The adapter therefore requires a realtime loop (real
sockets do not speak virtual time; for deterministic experiments use
:mod:`repro.network.simulated`).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.events import EventLoop
from ..core.query import Query, QuerySampleResponse, StreamChunk
from ..core.sut import Responder, SutBase
from ..core.trace import TransportTiming
from ..faults.filtering import Attempt, CompletionFilter
from . import protocol
from .protocol import FrameReader, FrameType, ProtocolError

_RECV_CHUNK = 64 * 1024
_POLL = 0.2


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Accept ``(host, port)`` or ``"host:port"``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    return host, int(port)


@dataclass
class NetworkStats:
    """What the adapter observed during one run."""

    queries_sent: int = 0
    retries: int = 0
    recovered_queries: int = 0
    gave_up_queries: int = 0
    #: Duplicates and post-resolution stragglers swallowed.
    filtered_completions: int = 0
    #: CHUNK frames forwarded to the referee.
    chunks_received: int = 0
    #: Stale, duplicate, or out-of-sequence CHUNK frames dropped.
    filtered_chunks: int = 0
    #: FAIL frames received from the server.
    server_failures: int = 0
    malformed_completions: int = 0
    protocol_errors: int = 0
    connections_lost: int = 0
    reconnects: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def summary(self) -> str:
        return (
            f"sent={self.queries_sent} retries={self.retries} "
            f"recovered={self.recovered_queries} "
            f"gave_up={self.gave_up_queries} "
            f"lost_conns={self.connections_lost} "
            f"reconnects={self.reconnects}"
        )


class _Connection:
    """One pooled TCP connection plus its reader thread."""

    _ids = itertools.count(1)

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.id = next(self._ids)
        self.alive = True
        self.reader: Optional[threading.Thread] = None
        self._send_lock = threading.Lock()

    def send(self, frame: bytes) -> bool:
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                self.alive = False
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class NetworkSUT(SutBase):
    """Drive a remote :class:`~repro.network.server.InferenceServer`.

    ``address`` is ``(host, port)`` or ``"host:port"``.  The pool is
    opened (and HELLO-exchanged) in :meth:`start_run`, which is untimed -
    connection setup never counts against a query's latency, mirroring
    the untimed LOAD steps of Fig. 3.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        connections: int = 1,
        query_timeout: float = 2.0,
        max_attempts: int = 2,
        reconnect_backoff: float = 0.05,
        name: Optional[str] = None,
    ) -> None:
        host, port = parse_address(address)
        super().__init__(name or f"network[{host}:{port}]")
        if connections < 1:
            raise ValueError(f"connections must be >= 1, got {connections}")
        if query_timeout <= 0:
            raise ValueError(
                f"query_timeout must be positive, got {query_timeout}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.address = (host, port)
        self.pool_size = connections
        self.query_timeout = query_timeout
        self.max_attempts = max_attempts
        self.reconnect_backoff = reconnect_backoff
        self.stats = NetworkStats()
        #: Per-query wire timestamps, keyed by query id (for tracing).
        self.transport_records: Dict[int, TransportTiming] = {}
        #: The server's final STATS payload, captured by :meth:`close`.
        self.server_stats: Optional[Dict[str, object]] = None
        self._attempts = CompletionFilter(
            self, timeout=query_timeout, lost=self._lost,
            succeeded=self._succeeded, stale=self._stale,
            forward=self._forward_chunk)
        self._pool: List[_Connection] = []
        self._rr = 0
        self._closed = False
        self._stats_event = threading.Event()
        self._hello: Optional[Dict[str, object]] = None

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        if not loop.realtime:
            raise ValueError(
                "NetworkSUT needs a realtime event loop: real sockets "
                "cannot be driven by a virtual clock (use "
                "repro.network.simulated for deterministic runs)"
            )
        super().start_run(loop, responder)
        self.stats = NetworkStats()
        self.transport_records = {}
        self._attempts.reset(loop)
        self._closed = False
        self._pool = [self._connect() for _ in range(self.pool_size)]
        for conn in self._pool:
            self._start_reader(conn)

    def load_samples(self, indices) -> None:
        """Forward an untimed preload to the server (LOAD frame)."""
        conn = self._pick_connection()
        if conn is not None:
            self._send(conn, protocol.load_frame(indices))

    def close(self, timeout: float = 2.0) -> None:
        """Gracefully drain the session and tear the pool down."""
        if self._closed:
            return
        self._closed = True
        live = [c for c in self._pool if c.alive]
        if live:
            self._stats_event.clear()
            if self._send(live[0], protocol.drain_frame()):
                self._stats_event.wait(timeout)
        for conn in self._pool:
            conn.close()
        for conn in self._pool:
            if conn.reader is not None:
                conn.reader.join(timeout=timeout)
        self._pool = []

    def __enter__(self) -> "NetworkSUT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- SUT contract -----------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        conn = self._pick_connection()
        if conn is None:
            self.stats.gave_up_queries += 1
            self.fail(query, "no live connection to server")
            return
        state = self._attempts.open(query, conn)
        self._attempts.launch(state, self._send_query)

    def flush(self) -> None:
        """Nothing is client-buffered; frames go out as queries arrive."""

    # -- routing policy (loop thread) -------------------------------------------

    def _send_query(self, state: Attempt) -> None:
        # Every attempt restarts the wire clock, so a retried query's
        # round trip does not include the dead attempt's deadline.
        state.sent_at = self.loop.now
        self.stats.queries_sent += 1
        if not self._send(state.target, protocol.issue_frame(state.query)):
            # The write itself failed: this connection is gone.
            self._connection_lost(state.target)

    def _lost(self, state: Attempt, flaw: Optional[str], source) -> None:
        if flaw is None:
            reason = f"no response within {self.query_timeout}s deadline"
        else:
            self.stats.malformed_completions += 1
            reason = f"malformed completion: {flaw}"
        self._retry_or_give_up(state, reason)

    def _retry_or_give_up(self, state: Attempt, reason: str) -> None:
        """This attempt is dead; retry on a live connection or give up."""
        if self._attempts.get(state.query.id) is not state:
            return  # resolved while a dead connection was being swept
        self._attempts.disarm(state)
        conn = self._pick_connection()
        if state.attempt + 1 < self.max_attempts and conn is not None:
            state.attempt += 1
            state.target = conn
            self.stats.retries += 1
            self._attempts.launch(state, self._send_query)
            return
        self.stats.gave_up_queries += 1
        self._attempts.give_up(
            state,
            f"{reason} (after {state.attempt + 1} attempt(s))",
        )

    def _pick_connection(self) -> Optional[_Connection]:
        live = [c for c in self._pool if c.alive]
        if not live:
            return None
        self._rr += 1
        return live[self._rr % len(live)]

    def _send(self, conn: _Connection, frame: bytes) -> bool:
        if conn.send(frame):
            self.stats.bytes_sent += len(frame)
            return True
        return False

    # -- completion path --------------------------------------------------------

    def _on_complete(
        self,
        query_id: int,
        responses: List[QuerySampleResponse],
        server_recv: float,
        server_send: float,
        recv_time: float,
    ) -> None:
        self._attempts.deliver(
            query_id, responses, (recv_time, server_recv, server_send))

    def _succeeded(self, state: Attempt, source) -> None:
        if state.attempt > 0:
            self.stats.recovered_queries += 1
        recv_time, server_recv, server_send = source
        self.transport_records[state.query.id] = TransportTiming(
            send_time=state.sent_at,
            recv_time=recv_time,
            server_recv=server_recv,
            server_send=server_send,
        )

    def _on_chunk(self, chunk: StreamChunk) -> None:
        """Loop thread: one CHUNK frame.  The engine drops stragglers
        from a superseded attempt, duplicates and out-of-sequence
        arrivals (the terminal COMPLETE still carries the authoritative
        answer) and re-arms the deadline on clean ones - a server
        mid-stream is not a server that timed out."""
        self._attempts.deliver(chunk.query_id, chunk)

    def _forward_chunk(self, query: Query, chunk: StreamChunk) -> None:
        self.stats.chunks_received += 1
        self.emit_chunk(query, chunk)

    def _stale(self, source, responses) -> None:
        # Duplicates and post-resolution stragglers (e.g. the first
        # attempt answering after a retry already completed).
        if isinstance(responses, StreamChunk):
            self.stats.filtered_chunks += 1
        else:
            self.stats.filtered_completions += 1

    def _on_fail(self, query_id: int, reason: str) -> None:
        state = self._attempts.get(query_id)
        if state is None:
            self.stats.filtered_completions += 1
            return
        self.stats.server_failures += 1
        self._retry_or_give_up(state, f"server failed the query: {reason}")

    def _connection_lost(self, conn: _Connection) -> None:
        """Runs on the loop thread once ``conn`` is known dead."""
        if not conn.alive and conn not in self._pool:
            return  # already handled
        conn.close()
        if conn in self._pool:
            self._pool.remove(conn)
        self.stats.connections_lost += 1
        # Every in-flight query that went out on this connection lost its
        # attempt; retry elsewhere or surface a recorded failure.
        for state in self._attempts.states():
            if state.target is conn:
                self._retry_or_give_up(state, "connection to server lost")
        if not self._closed:
            threading.Thread(
                target=self._reconnect_loop,
                name=f"{self.name}-reconnect",
                daemon=True,
            ).start()

    def _reconnect_loop(self) -> None:
        """Background: restore the pool to size, with capped backoff."""
        backoff = self.reconnect_backoff
        while not self._closed and len(self._pool) < self.pool_size:
            time.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            try:
                conn = self._connect()
            except OSError:
                continue
            self._start_reader(conn)

            def _register(c=conn):
                if self._closed:
                    c.close()
                    return
                self._pool.append(c)
                self.stats.reconnects += 1

            self.loop.post(_register)
            return

    # -- connection plumbing ----------------------------------------------------

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self.address, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        hello = protocol.hello_frame(self.name, "loadgen")
        sock.sendall(hello)
        self.stats.bytes_sent += len(hello)
        # Blocking HELLO exchange: read until the server's greeting.
        reader = FrameReader()
        frames: List = []
        while not frames:
            data = sock.recv(_RECV_CHUNK)
            if not data:
                raise ConnectionError("server closed during HELLO exchange")
            self.stats.bytes_received += len(data)
            frames = reader.feed(data)
        ftype, payload = frames[0]
        if ftype is not FrameType.HELLO:
            raise ProtocolError(f"expected HELLO, got {ftype.name}")
        self._hello = protocol.parse_hello(payload)
        conn._leftover = frames[1:]
        sock.settimeout(_POLL)
        return conn

    def _start_reader(self, conn: _Connection) -> None:
        conn.reader = threading.Thread(
            target=lambda: self._reader_loop(conn),
            name=f"{self.name}-reader-{conn.id}",
            daemon=True,
        )
        conn.reader.start()

    def _reader_loop(self, conn: _Connection) -> None:
        reader = FrameReader()
        for frame in getattr(conn, "_leftover", []):
            self._dispatch_frame(conn, *frame)
        try:
            while conn.alive and not self._closed:
                try:
                    data = conn.sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                self.stats.bytes_received += len(data)
                for ftype, payload in reader.feed(data):
                    self._dispatch_frame(conn, ftype, payload)
        except ProtocolError:
            # Corrupt stream from the server: poison this connection.
            self.stats.protocol_errors += 1
        finally:
            was_alive = conn.alive
            conn.alive = False
            if not self._closed and was_alive:
                self.loop.post(lambda: self._connection_lost(conn))

    def _dispatch_frame(self, conn: _Connection, ftype: FrameType, payload) -> None:
        """Reader thread: decode and hand off to the loop thread."""
        if ftype is FrameType.COMPLETE:
            query_id, responses, s_recv, s_send = protocol.parse_complete(payload)
            recv_time = time.monotonic()
            self.loop.post(
                lambda: self._on_complete(
                    query_id, responses, s_recv, s_send, recv_time
                )
            )
        elif ftype is FrameType.CHUNK:
            chunk = protocol.parse_chunk(payload)
            self.loop.post(lambda: self._on_chunk(chunk))
        elif ftype is FrameType.FAIL:
            query_id, reason = protocol.parse_fail(payload)
            self.loop.post(lambda: self._on_fail(query_id, reason))
        elif ftype is FrameType.STATS:
            # Replies to LOAD and DRAIN; handled off-loop because close()
            # waits for the drain reply after the loop has finished.
            if isinstance(payload, dict) and payload.get("drained"):
                self.server_stats = payload
                self._stats_event.set()
        elif ftype is FrameType.HELLO:
            pass  # late duplicate greeting: harmless
        else:
            raise ProtocolError(
                f"server may not send {ftype.name} frames"
            )
