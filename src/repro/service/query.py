"""JSON query port: snapshots and per-flow answers over a TCP socket.

The read side of the service boundary.  The protocol is deliberately
boring -- newline-delimited JSON objects, one request per line, one
response per line, many requests per connection -- because the answers
are small and operators will point ``jq``/scripts at it, not a binary
codec.

Requests (``op`` selects the verb)::

    {"op": "ping"}
    {"op": "snapshot"}                 -> Snapshot.as_dict() + service counters
    {"op": "stats"}                    -> front-door ServiceStats
    {"op": "metrics"}                  -> merged obs registry dump
    {"op": "flow",   "flow_id": 17}    -> decode state + answer for one flow
    {"op": "result", "flow_id": 17}    -> just the answer
    {"op": "flows",  "flow_ids": [..]} -> bulk "flow": one round-trip and
                                          one point-in-time cut of the sink

The three per-flow verbs read the sink through one call --
``collector.answers(flow_ids)``, an
:class:`~repro.collector.answers.AnswerTable` -- under one hold of the
ingest lock, so a bulk reply is consistent across its flows and costs
a process-backed sink one RPC per worker, not one per flow.

Every response carries ``"ok": true`` or ``"ok": false`` with an
``"error"`` string; a malformed line gets an error response rather
than a dropped connection, and a line longer than ``MAX_LINE`` is
answered with one error and discarded as it streams past (the buffer
never grows with it).  Non-finite floats are serialised as JSON
``null`` (same policy as the bench writers), and latency answers --
dicts keyed by hop index -- arrive with string keys because JSON
object keys are strings.

``QueryHandler`` is the transport-free core (also what the CLI and
tests exercise); ``QueryServer`` wraps it in an accept loop sharing
the ingest thread's collector lock; ``QueryClient`` is the matching
blocking client.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from typing import Callable, List, Optional

from repro.collector.records import int64_field
from repro.exceptions import ReproError
from repro.jsonutil import jsonable

__all__ = [
    "MAX_LINE",
    "QueryClient",
    "QueryError",
    "QueryHandler",
    "QueryServer",
    "jsonable",  # canonical home: repro.jsonutil; re-exported for compat
]

#: Longest request line the server will parse (bytes, newline
#: excluded).  No legitimate query comes close (the largest is a
#: ``flows`` list); anything longer is a bug or abuse, and buffering
#: it unboundedly would let one connection grow the server's memory
#: without ever sending a newline.
MAX_LINE = 1 << 20

#: The one answer to a request line longer than :data:`MAX_LINE`.
_LINE_TOO_LONG = {
    "ok": False, "error": f"request line exceeds {MAX_LINE} bytes",
}


class QueryError(ReproError):
    """Raised client-side when the server answers ``ok: false``."""


class QueryHandler:
    """Answer query dicts against a collector (transport-free).

    ``lock`` serialises reads against the server's ingest thread;
    pass a fresh ``threading.Lock()`` when wrapping a bare collector.
    """

    def __init__(
        self,
        collector,
        lock,
        stats_fn: Optional[Callable] = None,
        snapshot_fn: Optional[Callable] = None,
        metrics_fn: Optional[Callable] = None,
    ) -> None:
        self.collector = collector
        self.lock = lock
        self._stats_fn = stats_fn
        self._snapshot_fn = snapshot_fn
        self._metrics_fn = metrics_fn

    def handle(self, request) -> dict:
        """One request dict in, one JSON-ready response dict out.

        Never raises: a handler bug (or a hostile request shape no
        verb anticipated) becomes an ``ok: false`` envelope, because
        one bad request must cost one error line, not the connection.
        """
        try:
            return self._handle(request)
        except Exception as exc:  # the connection outlives any bug
            return {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
            }

    def _handle(self, request) -> dict:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "snapshot":
                if self._snapshot_fn is not None:
                    snap = self._snapshot_fn()
                else:
                    with self.lock:
                        snap = self.collector.snapshot()
                return {"ok": True, "op": op,
                        "snapshot": jsonable(snap.as_dict())}
            if op == "stats":
                if self._stats_fn is None:
                    return {"ok": False,
                            "error": "no service stats on this endpoint"}
                return {"ok": True, "op": op,
                        "stats": dataclasses.asdict(self._stats_fn())}
            if op == "metrics":
                metrics = (
                    self._metrics_fn() if self._metrics_fn is not None
                    else None
                )
                if metrics is None:
                    return {"ok": False,
                            "error": "no metrics on this endpoint "
                                     "(serve with an obs registry)"}
                return {"ok": True, "op": op,
                        "metrics": jsonable(metrics)}
            if op == "flow":
                fid = int64_field(request.get("flow_id"), "flow_id")
                return self._answers([fid])[0]
            if op == "flows":
                fids = request.get("flow_ids")
                if not isinstance(fids, list):
                    return {"ok": False,
                            "error": "'flows' needs a flow_ids list"}
                fids = [int64_field(f, "flow_id") for f in fids]
                return {"ok": True, "op": op, "flows": self._answers(fids)}
            if op == "result":
                fid = int64_field(request.get("flow_id"), "flow_id")
                return {"ok": True, "op": op, "flow_id": fid,
                        "result": self._answers([fid])[0].get("result")}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}

    def _answers(self, fids: List[int]) -> List[dict]:
        """One ``flow`` reply per id, from one cut of the sink.

        A single ``collector.answers(fids)`` under a single lock hold
        -- one point in time against the ingest thread however many
        flows are asked, and one RPC per worker on a parallel sink --
        then every reply is that table's ``answer(row)``, so each query
        kind is serialised in exactly one place.
        """
        with self.lock:
            table = self.collector.answers(fids)
        out = []
        for fid, row in zip(fids, table.rows_of(fids).tolist()):
            reply = {"ok": True, "op": "flow", "flow_id": fid,
                     "known": row >= 0}
            if row >= 0:
                reply.update(jsonable(table.answer(row)))
            out.append(reply)
        return out


def close_waking(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it (best effort).

    On Linux ``shutdown`` wakes a thread blocked in ``recvfrom`` /
    ``accept`` / ``recv`` on the socket, which a bare ``close`` does
    not; on an unconnected UDP socket it raises ``ENOTCONN`` yet still
    wakes the reader.  The listeners' receive timeouts stay as the
    fallback.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class QueryServer:
    """Serve a :class:`QueryHandler` on a TCP port (one thread + conn threads)."""

    def __init__(
        self,
        collector,
        lock,
        host: str = "127.0.0.1",
        port: int = 0,
        stats_fn: Optional[Callable] = None,
        snapshot_fn: Optional[Callable] = None,
        metrics_fn: Optional[Callable] = None,
    ) -> None:
        self.handler = QueryHandler(
            collector, lock, stats_fn=stats_fn, snapshot_fn=snapshot_fn,
            metrics_fn=metrics_fn,
        )
        self.host = host
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._stopping = threading.Event()

    def start(self) -> "QueryServer":
        if self._sock is not None:
            return self
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        # close() wakes accept/recv with shutdown(); the timeout is
        # the fallback poll of the stopping event.
        self._sock.settimeout(0.2)
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(
            target=self._accept_loop, name="service-query", daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._stopping.set()
        if self._sock is not None:
            close_waking(self._sock)
        # The accept loop publishes connections: once it has exited,
        # the list woken below is final.
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for conn in list(self._conns):
            close_waking(conn)
        for t in self._conn_threads:
            t.join(timeout=5.0)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.2)
            self._conns.append(conn)
            t = threading.Thread(
                target=self._conn_loop, args=(conn,),
                name="service-query-conn", daemon=True,
            )
            # Started before it is published: close() joins every
            # thread on the list, and an unstarted one cannot be joined.
            t.start()
            self._conn_threads.append(t)

    def _conn_loop(self, conn: socket.socket) -> None:
        buf = b""
        # True while streaming past an over-MAX_LINE request: its
        # error was already sent, its remaining bytes are discarded
        # (never buffered) until the terminating newline re-syncs the
        # line protocol.
        discarding = False
        try:
            while not self._stopping.is_set():
                try:
                    data = conn.recv(1 << 16)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                if discarding:
                    cut = data.find(b"\n")
                    if cut < 0:
                        continue  # still inside the oversized line
                    data = data[cut + 1:]
                    discarding = False
                buf += data
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if not line.strip():
                        continue
                    if len(line) > MAX_LINE:
                        response = _LINE_TOO_LONG
                    else:
                        try:
                            request = json.loads(line)
                        except ValueError as exc:
                            # ValueError, not just JSONDecodeError:
                            # non-UTF8 bytes raise UnicodeDecodeError
                            # before the parser even sees JSON.
                            response = {"ok": False,
                                        "error": f"bad JSON: {exc}"}
                        else:
                            response = self.handler.handle(request)
                    if not _send_line(conn, response):
                        return
                if len(buf) > MAX_LINE:
                    # The open line already blew the cap without a
                    # newline in sight: answer once, drop the bytes,
                    # and discard the rest of the line as it arrives.
                    if not _send_line(conn, _LINE_TOO_LONG):
                        return
                    buf = b""
                    discarding = True
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


def _send_line(conn: socket.socket, response: dict) -> bool:
    """Send one strict-JSON response line; False once the peer is gone."""
    try:
        conn.sendall(json.dumps(response, allow_nan=False).encode() + b"\n")
    except OSError:
        return False
    return True


class QueryClient:
    """Blocking line-JSON client for :class:`QueryServer`."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self.sock.makefile("rb")

    def request(self, obj: dict) -> dict:
        """One round-trip; raises :class:`QueryError` on ``ok: false``."""
        self.sock.sendall(json.dumps(obj, allow_nan=False).encode() + b"\n")
        line = self._fh.readline()
        if not line:
            raise QueryError("query connection closed by server")
        response = json.loads(line)
        if not response.get("ok"):
            raise QueryError(response.get("error", "unknown query failure"))
        return response

    def ping(self) -> bool:
        return self.request({"op": "ping"})["ok"]

    def snapshot(self) -> dict:
        return self.request({"op": "snapshot"})["snapshot"]

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def metrics(self) -> dict:
        return self.request({"op": "metrics"})["metrics"]

    def flow(self, flow_id: int) -> dict:
        return self.request({"op": "flow", "flow_id": int(flow_id)})

    def flows(self, flow_ids) -> List[dict]:
        """Bulk :meth:`flow`: one round-trip, one cut of the sink."""
        return self.request(
            {"op": "flows", "flow_ids": [int(f) for f in flow_ids]}
        )["flows"]

    def result(self, flow_id: int):
        return self.request(
            {"op": "result", "flow_id": int(flow_id)}
        )["result"]

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
