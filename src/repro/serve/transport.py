"""Transports for the concurrent serving runtime: in-process + stdlib HTTP.

A transport turns the :class:`~repro.serve.server.InferenceServer` object
API into a wire protocol.  Both transports here speak the **same JSON
dict protocol** through one shared :class:`ServingProtocol` core, so the
in-process transport is a faithful stand-in for the HTTP one in tests
(same serialization, same error paths, no sockets):

* ``predict``  — ``{"graph": G, "spec": S[, "timeout_s": t]}`` ->
  ``{"logits": [...], "seq": n, "batch_size": k}`` (blocks until a
  worker executes the request's micro-batch);
* ``submit``   — same request -> ``{"seq": n}`` immediately; poll
  ``result`` with ``{"seq": n[, "timeout_s": t]}`` ->
  ``{"logits": ...}``, ``{"pending": true}``, or — for a failed
  micro-batch — ``{"error": msg, "seq": n}``.  A delivered result is a
  **one-shot claim**: the ticket leaves the window atomically with
  delivery (the pop under the window lock decides the single winner
  among concurrent pollers; every other poller gets ``unknown or
  expired seq``), and an error delivery is claimed exactly the same
  way — a failed ticket cannot wedge in the window;
* ``stats``    — ``{}`` -> the server's full stats tree.

Requests are validated at admission, before anything is queued: a
``timeout_s`` must be a finite, non-negative number of seconds no larger
than ``threading.TIMEOUT_MAX`` (a bool is not a number here), and
every spec field must name a candidate of
:data:`~repro.core.space.DEFAULT_SPACE`.  Anything else is a
:class:`TransportError` (HTTP 400).

Graphs go over the wire as ``{"x": [[...]], "edge_index": [[...]],
"edge_attr": [[...]], "y": [...]|null}`` (the struct-of-arrays layout of
:class:`~repro.graph.graph.Graph`); specs as ``{"identity": [...],
"fusion": ..., "readout": ..., "conv": ...}``.

The HTTP transport is a deliberately minimal stdlib ``http.server``
deployment surface — ``ThreadingHTTPServer`` gives one thread per
connection, so a blocking ``/predict`` holds only its own connection
while the server's worker pool does the real work.  POST
``/submit | /predict``, POST-or-GET ``/stats``, POST ``/result``; errors
come back as ``{"error": msg}`` with a 4xx/5xx status.  Connections are
HTTP/1.1 keep-alive (:class:`HTTPServingClient` holds one per thread);
stopping the transport closes every open one.  Binds to loopback by
default; it does no auth — put a real ingress in front of it before
exposing it beyond localhost.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import urllib.parse
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

__all__ = [
    "ServingProtocol",
    "InProcessTransport",
    "HTTPServingTransport",
    "HTTPServingClient",
    "TransportError",
    "TransportConnectionError",
    "graph_to_payload",
    "graph_from_payload",
    "spec_to_payload",
    "spec_from_payload",
]


# ----------------------------------------------------------------------
# payload <-> object codecs
# ----------------------------------------------------------------------
def graph_to_payload(graph) -> dict:
    """JSON-safe dict for one :class:`~repro.graph.graph.Graph`."""
    return {
        "x": graph.x.tolist(),
        "edge_index": graph.edge_index.tolist(),
        "edge_attr": graph.edge_attr.tolist(),
        "y": None if graph.y is None else graph.y.tolist(),
    }


def graph_from_payload(payload: dict):
    """Inverse of :func:`graph_to_payload` (validates via ``Graph``).

    Atom and bond ids are checked against the embedding tables here, at
    admission: an out-of-range id raises ``ValueError`` (a 400) instead
    of failing the whole micro-batch the graph would have joined.
    """
    from ..graph.graph import Graph
    from ..graph.molecule import (MASK_ATOM_ID, MASK_BOND_ID, NUM_ATOM_TAGS,
                                  NUM_BOND_TAGS)

    graph = Graph(
        x=np.asarray(payload["x"], dtype=np.int64).reshape(-1, 2),
        edge_index=np.asarray(payload["edge_index"], dtype=np.int64).reshape(2, -1),
        edge_attr=np.asarray(payload["edge_attr"], dtype=np.int64).reshape(-1, 2),
        y=payload.get("y"),
    )
    for ids, size, what in ((graph.x[:, 0], MASK_ATOM_ID + 1, "atom type"),
                            (graph.x[:, 1], NUM_ATOM_TAGS, "atom tag"),
                            (graph.edge_attr[:, 0], MASK_BOND_ID + 1,
                             "bond type"),
                            (graph.edge_attr[:, 1], NUM_BOND_TAGS,
                             "bond tag")):
        if ids.size and (ids.min() < 0 or ids.max() >= size):
            raise ValueError(f"{what} ids must lie in [0, {size}), got "
                             f"{ids.min()}..{ids.max()}")
    return graph


def spec_to_payload(spec) -> dict:
    """JSON-safe dict for one :class:`FineTuneStrategySpec`."""
    return {"identity": list(spec.identity), "fusion": spec.fusion,
            "readout": spec.readout, "conv": spec.conv}


def spec_from_payload(payload: dict):
    """Inverse of :func:`spec_to_payload` (validates every field).

    Each field must name a candidate of
    :data:`~repro.core.space.DEFAULT_SPACE`, checked here at admission:
    anything else raises ``ValueError`` (a 400) instead of failing the
    micro-batch the request would have joined.
    """
    from ..core.space import DEFAULT_SPACE, FineTuneStrategySpec

    spec = FineTuneStrategySpec(
        identity=tuple(payload["identity"]), fusion=payload["fusion"],
        readout=payload["readout"], conv=payload.get("conv", "pre_trained"))
    for field, names in (("identity", spec.identity), ("fusion", (spec.fusion,)),
                         ("readout", (spec.readout,)), ("conv", (spec.conv,))):
        candidates = getattr(DEFAULT_SPACE, field)
        for name in names:
            if not isinstance(name, str) or name not in candidates:
                raise ValueError(f"{field} must be one of {list(candidates)}, "
                                 f"got {name!r}")
    return spec


def _json_safe(value):
    """Recursively convert numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        # Checked before np.integer: np.bool_ is not an np.integer
        # subclass, and json.dumps rejects it outright.
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class TransportError(ValueError):
    """Malformed or unanswerable request (maps to HTTP 4xx)."""


class TransportConnectionError(RuntimeError):
    """The server did not answer at all (socket refused/dropped/timed out).

    Distinct from a served error status — a request that *reached* the
    server raises a plain ``RuntimeError`` with the HTTP code.  The
    cluster router keys failover on exactly this distinction: connection
    failure means the shard is gone (retry, then re-dispatch); a 4xx/5xx
    means the shard is alive and the request itself failed.
    """


def _timeout_s(payload: dict, default: float | None) -> float | None:
    """The request's ``timeout_s`` (``default`` when absent or null).

    Anything but a finite, non-negative number no larger than
    ``threading.TIMEOUT_MAX`` is a :class:`TransportError`: a bool, a
    string, ``NaN`` or ``Infinity`` (which ``json.loads`` accepts) would
    otherwise fail inside the ticket wait, or not wait at all.
    """
    value = payload.get("timeout_s")
    if value is None:
        return default
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= threading.TIMEOUT_MAX):  # NaN fails too
        raise TransportError("timeout_s must be a finite, non-negative "
                             f"number of seconds, got {value!r}")
    return float(value)


# ----------------------------------------------------------------------
# shared protocol core
# ----------------------------------------------------------------------
#: Capacity of a :class:`ServingProtocol`'s submit/result ticket window.
TICKET_WINDOW = 4096


class ServingProtocol:
    """Dict-in / dict-out request handlers shared by every transport.

    Holds a bounded window of submitted tickets so ``submit``/``result``
    can speak sequence numbers instead of object references across a
    wire.  Resolved tickets age out of the window once it holds more than
    :data:`TICKET_WINDOW`, oldest first; unresolved tickets are never
    dropped.
    """

    def __init__(self, server):
        self.server = server
        self._tickets: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- request decoding ------------------------------------------------
    @staticmethod
    def _decode(payload: dict):
        try:
            graph = graph_from_payload(payload["graph"])
            spec = spec_from_payload(payload["spec"])
        except (KeyError, TypeError, ValueError) as err:
            raise TransportError(f"malformed request: {err}") from err
        return graph, spec

    def _remember(self, ticket) -> None:
        with self._lock:
            self._tickets[ticket.seq] = ticket
            if len(self._tickets) > TICKET_WINDOW:
                # Age out *resolved* tickets oldest-first; pending tickets
                # are never dropped (their result must stay claimable).
                done = [s for s, t in self._tickets.items() if t.done]
                for seq in done[:len(self._tickets) - TICKET_WINDOW]:
                    del self._tickets[seq]

    # -- handlers --------------------------------------------------------
    def handle_predict(self, payload: dict) -> dict:
        graph, spec = self._decode(payload)
        timeout = _timeout_s(payload, None)
        ticket = self.server.request(graph, spec, timeout=timeout)
        return {"logits": ticket.result().tolist(), "seq": ticket.seq,
                "batch_size": len(ticket.batch_graphs)}

    def handle_submit(self, payload: dict) -> dict:
        graph, spec = self._decode(payload)
        ticket = self.server.submit(graph, spec)
        self._remember(ticket)
        return {"seq": ticket.seq}

    def handle_result(self, payload: dict) -> dict:
        try:
            seq = int(payload["seq"])
        except (KeyError, TypeError, ValueError) as err:
            raise TransportError("result needs an integer 'seq'") from err
        timeout = _timeout_s(payload, 0.0)
        with self._lock:
            ticket = self._tickets.get(seq)
        if ticket is None:
            raise TransportError(f"unknown or expired seq {seq}")
        if not ticket.done and timeout:
            try:
                ticket.wait(timeout)
            except TimeoutError:
                pass
            except RuntimeError:
                pass  # failed micro-batch: delivered as a claim below
        if not ticket.done:
            return {"seq": seq, "pending": True}
        # One-shot claim, atomically: the pop under the lock decides the
        # single winner among concurrent pollers of the same seq — every
        # later poller finds the window empty and gets unknown/expired.
        # Delivery (including *error* delivery) happens only on the
        # claimed ticket, so a failed micro-batch leaves the window on
        # its first poll instead of wedging there re-raising forever.
        with self._lock:
            claimed = self._tickets.pop(seq, None)
        if claimed is None:
            raise TransportError(f"unknown or expired seq {seq}")
        try:
            logits = claimed.result()
        except RuntimeError as err:
            cause = err.__cause__
            message = (f"{type(cause).__name__}: {cause}"
                       if cause is not None else str(err))
            return {"seq": seq, "error": message}
        return {"seq": seq, "logits": logits.tolist(),
                "batch_size": len(claimed.batch_graphs)}

    def handle_stats(self, payload: dict) -> dict:
        return _json_safe(self.server.stats())

    HANDLERS = {"predict": handle_predict, "submit": handle_submit,
                "result": handle_result, "stats": handle_stats}

    def handle(self, op: str, payload: dict) -> dict:
        handler = self.HANDLERS.get(op)
        if handler is None:
            raise TransportError(f"unknown operation {op!r}")
        return handler(self, payload or {})


class InProcessTransport:
    """The dict protocol without sockets — same codecs, same errors.

    Useful as an embedded API for callers that already hold the graphs
    (and as the deterministic test double for the HTTP transport)."""

    def __init__(self, server):
        self.protocol = ServingProtocol(server)

    def request(self, op: str, payload: dict | None = None) -> dict:
        return self.protocol.handle(op, payload or {})

    # convenience mirrors of the client API
    def predict(self, graph, spec, timeout_s: float | None = None) -> np.ndarray:
        payload = {"graph": graph_to_payload(graph), "spec": spec_to_payload(spec)}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return np.asarray(self.request("predict", payload)["logits"])

    def submit(self, graph, spec) -> int:
        return self.request("submit", {"graph": graph_to_payload(graph),
                                       "spec": spec_to_payload(spec)})["seq"]

    def result(self, seq: int, timeout_s: float = 0.0) -> dict:
        return self.request("result", {"seq": seq, "timeout_s": timeout_s})

    def stats(self) -> dict:
        return self.request("stats")


# ----------------------------------------------------------------------
# stdlib HTTP transport
# ----------------------------------------------------------------------
#: Largest request body the HTTP handler reads (bytes).  A single-graph
#: request is a few KB; anything above this is refused with 413 before a
#: byte of it is read.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Replies go out as one write with TCP_NODELAY: with Nagle's
    # algorithm on, a reply split into a header send and a body send
    # waits for the client's delayed ACK (~40 ms) on keep-alive
    # connections.
    disable_nagle_algorithm = True

    # set by HTTPServingTransport on the server object
    def _core(self) -> ServingProtocol:
        return self.server.serving_protocol  # type: ignore[attr-defined]

    def _reply(self, status: int, body: dict, close: bool = False) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        # end_headers() without its separate flush: the blank line and
        # the body join the buffered headers, and one write sends all.
        self._headers_buffer.append(b"\r\n" + data)
        self.flush_headers()

    def _dispatch(self, op: str, payload: dict) -> None:
        try:
            self._reply(200, self._core().handle(op, payload))
        except TransportError as err:
            self._reply(400, {"error": str(err)})
        except TimeoutError as err:
            self._reply(504, {"error": str(err)})
        except BaseException as err:
            # Wire boundary: protocol-level failures become a 500 so one
            # bad request cannot kill the handler thread.  Everything
            # outside Exception (KeyboardInterrupt, SystemExit) must keep
            # propagating — swallowing those would turn Ctrl-C into an
            # opaque 500 and keep a dying process serving.
            if not isinstance(err, Exception):
                raise
            self._reply(500, {"error": f"{type(err).__name__}: {err}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        op = self.path.strip("/")
        # Checked before reading: rfile.read(-1) would block until the
        # client hangs up, and a huge length would be read into memory.
        # Refusals close the connection so the unread body is never
        # parsed as the next keep-alive request.
        header = self.headers.get("Content-Length", "0").strip()
        if not header.isdecimal():
            self._reply(400, {"error": "Content-Length must be a "
                                       "non-negative integer"}, close=True)
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"request body of {length} bytes "
                                       f"exceeds the {MAX_BODY_BYTES}-byte "
                                       "limit"}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, TypeError) as err:
            self._reply(400, {"error": f"bad JSON body: {err}"})
            return
        self._dispatch(op, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.strip("/") == "stats":
            self._dispatch("stats", {})
        else:
            self._reply(404, {"error": "GET supports /stats only"})

    def log_message(self, fmt, *args):  # quiet by default
        pass


class _HTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that remembers its open connections.

    ``shutdown()`` and ``server_close()`` close only the listening
    socket: each keep-alive connection's handler thread would go on
    answering requests.  :meth:`close_connections` ends them.  The set is
    added to by the accept thread and discarded from by handler threads;
    single set operations are atomic in CPython, so it needs no lock.
    """

    daemon_threads = True

    def __init__(self, address, protocol: ServingProtocol):
        super().__init__(address, _Handler)
        self.serving_protocol = protocol
        self.connections: set = set()

    def process_request(self, request, client_address):
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A connection its peer reset (or close_connections ended) is not
        # a server fault; anything else still prints its traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        for sock in list(self.connections):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


class HTTPServingTransport:
    """Minimal stdlib HTTP/JSON front end for an :class:`InferenceServer`.

    ``ThreadingHTTPServer`` spawns one thread per connection; handler
    threads block in ``predict``/``result`` waits while the server's
    worker pool executes micro-batches.  Binds loopback on an ephemeral
    port by default (``port=0``); read :attr:`port` after :meth:`start`.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self.serving_server = server
        self.protocol = ServingProtocol(server)
        self._httpd = _HTTPServer((host, port), self.protocol)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPServingTransport":
        if self._thread is not None:
            raise RuntimeError("transport already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then end every open keep-alive connection."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self._httpd.close_connections()

    def serve_forever(self) -> None:
        """Serve on the caller's thread until interrupted (CLI mode)."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def __enter__(self) -> "HTTPServingTransport":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


class HTTPServingClient:
    """Keep-alive ``http.client`` client for :class:`HTTPServingTransport`.

    Each calling thread holds one persistent connection (created on its
    first call), so a call costs one request/response round trip, not a
    TCP handshake.  A connection that fails is dropped and the call
    raises :class:`TransportConnectionError`; the next call on that
    thread connects afresh.  Nothing is retried here: ``/submit`` is not
    idempotent, and :class:`~repro.serve.cluster.ClusterRouter` owns the
    retry policy.  A served error status raises ``RuntimeError`` with the
    code.

    The socket ``timeout_s`` defaults comfortably *above* the server's
    default 60 s predict wait, so a slow micro-batch surfaces as the
    server's own 504 rather than a client-side socket drop mid-compute.
    """

    def __init__(self, url: str, timeout_s: float = 90.0):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urllib.parse.urlsplit(self.url)
        self._address = (parts.hostname, parts.port)
        self._path = parts.path
        self._local = threading.local()

    def _post(self, op: str, payload: dict) -> dict:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                *self._address, timeout=self.timeout_s)
        try:
            connection.request("POST", f"{self._path}/{op}",
                               body=json.dumps(payload).encode(),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as err:
            # Nothing answered (refused, reset, socket timeout): typed so
            # callers — the cluster router above all — can tell "server
            # gone" from "server served an error".
            self.close()
            raise TransportConnectionError(
                f"{op} failed: no response from {self.url} within "
                f"{self.timeout_s}s ({err!r})") from err
        if response.status >= 400:
            try:
                message = json.loads(body).get("error", body.decode())
            except (ValueError, AttributeError, UnicodeDecodeError):
                # Non-JSON / non-dict / non-UTF-8 error body: fall back to
                # a lossy decode.  Anything else propagates — this is a
                # diagnostic path, not a place to hide real failures.
                message = body.decode(errors="replace")
            raise RuntimeError(f"{op} failed ({response.status}): {message}")
        return json.loads(body)

    def close(self) -> None:
        """Close the calling thread's connection (the next call on this
        thread reconnects).  Another thread's connection closes when
        that thread calls this or exits."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def predict(self, graph, spec, timeout_s: float | None = None) -> np.ndarray:
        payload = {"graph": graph_to_payload(graph), "spec": spec_to_payload(spec)}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return np.asarray(self._post("predict", payload)["logits"])

    def submit(self, graph, spec) -> int:
        return self._post("submit", {"graph": graph_to_payload(graph),
                                     "spec": spec_to_payload(spec)})["seq"]

    def result(self, seq: int, timeout_s: float = 0.0) -> dict:
        return self._post("result", {"seq": seq, "timeout_s": timeout_s})

    def stats(self) -> dict:
        return self._post("stats", {})
