"""The shard process: one serving stack in its own OS process.

A **shard** is one :class:`~repro.serve.server.InferenceServer` behind
one :class:`~repro.serve.transport.HTTPServingTransport`, running in a
spawned child process with its own
:class:`~repro.serve.registry.ModelRegistry` and caches.
:class:`ShardProcess` launches it with a **ready handshake**: the child
binds an ephemeral port and sends ``("ready", port)`` up a pipe, and the
parent only returns from :meth:`ShardProcess.start` once the shard is
serving.  A startup failure — a reported error, a child that exits
before reporting, or no report within :data:`READY_TIMEOUT_S` — kills
and reaps the child and raises ``RuntimeError``, leaving the shard
restartable.  ``perfbench``'s serve-wire workload serves through one.

Parity: a shard executes the exact ``service.predict(graphs, spec,
batch_size=len(graphs))`` call the in-process stack runs, so a
single-request micro-batch served over the wire is **bit-identical** to
``InferenceService.predict([graph], spec, batch_size=1)`` on an
identically-seeded local service — pinned by ``tests/serve/
test_cluster.py``.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["ShardProcess"]

#: Bound on the ready handshake, in seconds (a cold child builds its
#: kernels and service before it reports).
READY_TIMEOUT_S = 120.0


def _shard_main(service_factory, server_kwargs: dict, host: str, conn) -> None:
    """Child-process entry: build the stack, handshake, serve until told.

    Sends ``("ready", port)`` once the HTTP transport is bound, or
    ``("error", repr)`` if construction fails, then blocks on the pipe —
    any parent message (or parent death closing the pipe) is the stop
    signal.
    """
    from .server import InferenceServer
    from .transport import HTTPServingTransport

    try:
        service = service_factory()
        server = InferenceServer(service, **server_kwargs).start()
        transport = HTTPServingTransport(server, host=host, port=0).start()
    except BaseException as err:  # report startup failure, then die
        conn.send(("error", repr(err)))
        raise
    conn.send(("ready", transport.port))
    try:
        conn.recv()  # blocks until the parent says stop (or disappears)
    except EOFError:
        pass
    transport.stop()
    server.stop()
    conn.close()


class ShardProcess:
    """One shard = server + HTTP transport in a spawned child process.

    Parameters
    ----------
    service_factory:
        Picklable zero-argument callable building the shard's
        :class:`InferenceService` (a module-level function or a
        dataclass instance; the child receives how to build the service,
        not a live one).
    host:
        Bind address of the shard's HTTP transport.
    **server_kwargs:
        Passed straight to :class:`InferenceServer` in the child, which
        validates them (``num_workers``, ``max_batch_size``,
        ``max_delay``, ``tick_interval_s``, ``queue_size``).

    The child is a fresh ``multiprocessing`` spawn interpreter: slower
    to boot than a fork, but immune to forked-lock hazards from a
    threaded parent.
    """

    def __init__(self, service_factory, host: str = "127.0.0.1",
                 **server_kwargs):
        self.service_factory = service_factory
        self.host = host
        self.server_kwargs = server_kwargs
        self.port: int | None = None
        self._process = None
        self._conn = None

    def start(self) -> "ShardProcess":
        """Spawn the shard and block on the ready handshake."""
        if self._process is not None:
            raise RuntimeError("shard already started")
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_main,
            args=(self.service_factory, self.server_kwargs, self.host,
                  child_conn),
            name="repro-shard", daemon=True)
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        if not parent_conn.poll(READY_TIMEOUT_S):
            self.kill()
            raise RuntimeError(f"shard not ready within {READY_TIMEOUT_S}s")
        try:
            tag, value = parent_conn.recv()
        except EOFError:
            # The child exited without reporting (os._exit, SIGKILL, a
            # crash in C): the pipe is at EOF and the child is gone.
            self._process.join()
            tag, value = "error", (f"exited with code "
                                   f"{self._process.exitcode} before the "
                                   f"ready handshake")
        if tag != "ready":
            self.kill()
            raise RuntimeError(f"shard failed to start: {value}")
        self.port = value
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("shard not started")
        return f"http://{self.host}:{self.port}"

    def client(self, timeout_s: float = 90.0):
        """An :class:`HTTPServingClient` for this shard."""
        from .transport import HTTPServingClient

        return HTTPServingClient(self.url, timeout_s=timeout_s)

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def stop(self, timeout_s: float = 15.0) -> None:
        """Graceful shutdown: signal the pipe, join, escalate if stuck."""
        if self._process is None:
            return
        try:
            self._conn.send(("stop",))
        except (OSError, BrokenPipeError, ValueError):
            pass  # child already gone / pipe closed
        self._process.join(timeout_s)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout_s)
        self._conn.close()
        self._process = self._conn = None

    def kill(self) -> None:
        """Hard-kill the shard and reap it."""
        if self._process is None:
            return
        self._process.kill()
        self._process.join()
        self._conn.close()
        self._process = self._conn = None

    def __enter__(self) -> "ShardProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("new" if self.port is None
                                            else "stopped")
        return f"ShardProcess({state}, port={self.port})"
