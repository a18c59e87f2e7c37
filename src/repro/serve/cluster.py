"""Multi-process sharded serving: shard processes + a spec-affinity router.

PR 5's worker threads overlap micro-batches only while the forward is off
the GIL (BLAS kernels, device waits); on pure-CPU numpy work a single
process is a hard ceiling.  This module scales *past* the process:

* a **shard** is one :class:`~repro.serve.server.InferenceServer` behind
  one :class:`~repro.serve.transport.HTTPServingTransport`, running in its
  own OS process with its own :class:`~repro.serve.registry.ModelRegistry`
  and caches.  :class:`ShardProcess` launches it (``multiprocessing``
  spawn by default) with a **ready handshake**: the child binds an
  ephemeral port, sends ``("ready", port)`` up a pipe, and the parent
  only returns from :meth:`ShardProcess.start` once the shard is
  serving (or raises :class:`ClusterError` on a startup failure /
  timeout);
* :class:`ClusterRouter` is the front end: **deterministic spec-affinity
  dispatch** — a stable content hash of the spec's wire payload picks the
  shard, so every request for one strategy spec lands on the same shard
  and each shard's model registry only ever materializes *its* slice of
  the spec space;
* per-shard **health probes** (the ``/stats`` endpoint), **retry with
  exponential backoff** on connection failure, and **failover**: a shard
  that stays unreachable after the retry budget is marked dead and the
  request re-dispatches to the next live shard in the deterministic
  affinity walk.  :meth:`ClusterRouter.probe` resurrects shards that
  answer again; :meth:`ClusterRouter.start_probes` runs it on a
  background interval timer;
* :meth:`ClusterRouter.stats` aggregates the cluster view: router
  counters (requests, retries, failovers, per-shard dispatch) plus every
  live shard's full stats tree.

Parity: a shard executes the exact ``service.predict(graphs, spec,
batch_size=len(graphs))`` call the in-process stack runs, so a
single-request micro-batch served over the cluster is **bit-identical**
to ``InferenceService.predict([graph], spec, batch_size=1)`` on an
identically-seeded local service — pinned by ``tests/serve/
test_cluster.py``, the ``serve-cluster --self-test`` CLI, and in-bench by
``benchmarks/bench_cluster.py``.

Clock discipline: routing logic reads no wall clock.  The affinity walk,
failover and health bookkeeping are pure functions of router state, so
the whole dispatch path is testable with in-process fakes (the same way
the router's simulated ``tick()`` keeps deadline logic testable).  The
only real-time sites are the *deployment* boundaries, mirroring the
server's ticker thread: the retry backoff sleep and the probe interval
timer (both injectable; the defaults carry the REP002 pragma).

Thread safety: ``ClusterRouter._lock`` (rank 5 — acquired before any
other serve-stack lock, see :mod:`repro.serve.service`) guards only the
health flags and counters; shard calls — network or in-process doubles
that take the whole serve stack's locks — always run with no cluster
lock held.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import threading
import time
from dataclasses import dataclass

import numpy as np

from .transport import TransportConnectionError, spec_to_payload

__all__ = [
    "ClusterError",
    "ClusterRouter",
    "ShardProcess",
    "ShardServiceConfig",
    "launch_shards",
    "spec_affinity",
]


class ClusterError(RuntimeError):
    """Cluster-level failure: shard startup failed, or no live shard left."""


#: errors that mean "the shard did not answer" (retry / fail over), as
#: opposed to a served error response (a 4xx/5xx RuntimeError propagates —
#: the shard is alive and already executed or rejected the request).
_CONNECTION_ERRORS = (TransportConnectionError, ConnectionError, OSError)


def _wall_sleep(seconds: float) -> None:
    """Default real-time sleep for retry backoff / probe pacing.

    This is a deployment boundary exactly like the server's ticker
    thread: tests inject a recording fake instead, so routing logic
    stays wall-clock-free.
    """
    time.sleep(seconds)  # repro: disable=REP002


def spec_affinity(spec, num_shards: int) -> int:
    """Deterministic home shard for ``spec`` in a ``num_shards`` cluster.

    Hashes the spec's canonical JSON wire payload (sorted keys) with
    sha256 — stable across processes, hosts and interpreter hash
    randomization, unlike builtin ``hash``.  Every front end therefore
    computes the same affinity, and a spec's derived model is built on
    exactly one shard.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    payload = json.dumps(spec_to_payload(spec), sort_keys=True).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


# ----------------------------------------------------------------------
# the front-end router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Spec-affinity dispatch over shard clients, with health + failover.

    Parameters
    ----------
    clients:
        One client per shard, in shard-index order.  Anything speaking
        the serving client API works: :class:`~repro.serve.transport.
        HTTPServingClient` for real shard processes, or
        :class:`~repro.serve.transport.InProcessTransport` / hand-rolled
        fakes as deterministic in-process doubles in tests.
    max_retries:
        Connection-failure re-attempts *on the same shard* before it is
        declared dead and the request fails over.
    backoff_s:
        First retry delay; doubles per attempt (exponential backoff).
    sleep:
        The backoff sleep callable — injectable so tests record delays
        instead of waiting.  Defaults to the real-time sleep.

    Dispatch walk: the home shard is ``spec_affinity(spec, len(clients))``;
    if it is dead (or dies now), the request walks forward cyclically to
    the next live shard — deterministic, so two front ends with the same
    health view re-dispatch identically.
    """

    def __init__(self, clients, max_retries: int = 2, backoff_s: float = 0.05,
                 sleep=_wall_sleep):
        clients = list(clients)
        if not clients:
            raise ValueError("ClusterRouter needs at least one shard client")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.clients = clients
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        # Cluster lock (rank 5, above every serve-stack lock): health
        # flags + counters only; never held across a shard call.
        self._lock = threading.Lock()
        self._live = [True] * len(clients)
        self.requests = 0
        self.retries = 0
        self.failovers = 0
        self.deaths = 0
        self.resurrections = 0
        self.dispatched = [0] * len(clients)
        self._probe_stop: threading.Event | None = None
        self._probe_thread: threading.Thread | None = None

    # -- health bookkeeping ---------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.clients)

    def live_shards(self) -> list[int]:
        with self._lock:
            return [i for i, live in enumerate(self._live) if live]

    def _mark_dead(self, index: int) -> None:
        with self._lock:
            if self._live[index]:
                self._live[index] = False
                self.deaths += 1

    def _mark_live(self, index: int) -> None:
        with self._lock:
            if not self._live[index]:
                self._live[index] = True
                self.resurrections += 1

    # -- dispatch --------------------------------------------------------
    def shard_for(self, spec, exclude=()) -> int | None:
        """The shard that should serve ``spec`` right now, or ``None``.

        Deterministic affinity walk: the home shard when live, else the
        next live shard cyclically after it (skipping ``exclude`` — the
        shards this request already failed over from).
        """
        home = spec_affinity(spec, len(self.clients))
        with self._lock:
            live = list(self._live)
        for offset in range(len(self.clients)):
            index = (home + offset) % len(self.clients)
            if live[index] and index not in exclude:
                return index
        return None

    def _call_with_retry(self, index: int, op, *args, **kwargs):
        """Run one client call with exponential backoff on connect errors.

        Raises the last connection error once the retry budget is spent;
        the caller decides whether to fail over.
        """
        delay = self.backoff_s
        for attempt in range(self.max_retries + 1):
            try:
                return op(self.clients[index], *args, **kwargs)
            except _CONNECTION_ERRORS:
                if attempt == self.max_retries:
                    raise
                with self._lock:
                    self.retries += 1
                self._sleep(delay)
                delay *= 2

    def _dispatch(self, spec, op, *args, **kwargs):
        """Affinity dispatch + failover loop shared by predict/submit."""
        with self._lock:
            self.requests += 1
        failed: set[int] = set()
        last_error: BaseException | None = None
        while True:
            index = self.shard_for(spec, exclude=failed)
            if index is None:
                raise ClusterError(
                    f"no live shard left for dispatch "
                    f"(cluster of {len(self.clients)}, "
                    f"failed over from {sorted(failed)})") from last_error
            try:
                result = self._call_with_retry(index, op, *args, **kwargs)
            except _CONNECTION_ERRORS as err:
                last_error = err
                self._mark_dead(index)
                failed.add(index)
                with self._lock:
                    self.failovers += 1
                continue
            with self._lock:
                self.dispatched[index] += 1
            return index, result

    # -- request API -----------------------------------------------------
    def predict(self, graph, spec, timeout_s: float | None = None) -> np.ndarray:
        """Logits for one graph from ``spec``'s shard, shape ``(num_tasks,)``.

        Retries the home shard on connection failure, then fails over to
        the next live shard.  A shard-side *served* error (HTTP 4xx/5xx)
        propagates — the shard is alive, failover would just re-fail.
        """
        _, logits = self._dispatch(
            spec, lambda c: c.predict(graph, spec, timeout_s=timeout_s))
        return np.asarray(logits)

    def submit(self, graph, spec) -> tuple[int, int]:
        """Async submit to ``spec``'s shard; returns ``(shard, seq)``.

        The seq is scoped to the shard that accepted it — poll it back
        with :meth:`result` on the same shard index.
        """
        return self._dispatch(spec, lambda c: c.submit(graph, spec))

    def result(self, shard: int, seq: int, timeout_s: float = 0.0) -> dict:
        """Poll a submitted ticket on its shard (no failover: the ticket
        lives in that shard's protocol window and nowhere else)."""
        return self.clients[shard].result(seq, timeout_s=timeout_s)

    # -- health probes ---------------------------------------------------
    def probe(self) -> dict[int, bool]:
        """Probe every shard's ``/stats`` endpoint; update health flags.

        A dead shard that answers is resurrected (its affinity traffic
        returns to it); a live shard that stops answering is marked dead.
        Returns ``{shard index: alive}``.
        """
        health = {}
        for index in range(len(self.clients)):
            try:
                self.clients[index].stats()
            except _CONNECTION_ERRORS + (RuntimeError,):
                self._mark_dead(index)
                health[index] = False
            else:
                self._mark_live(index)
                health[index] = True
        return health

    def start_probes(self, interval_s: float = 1.0) -> "ClusterRouter":
        """Run :meth:`probe` on a background interval timer.

        The ``Event.wait`` doubles as the interval sleep and the stop
        signal, exactly like the server's ticker loop; probe *logic*
        stays directly callable (and tested) without the timer.
        """
        if self._probe_thread is not None:
            raise RuntimeError("probe timer already started")
        self._probe_stop = threading.Event()

        def loop():
            while not self._probe_stop.wait(interval_s):
                self.probe()

        self._probe_thread = threading.Thread(
            target=loop, name="repro-cluster-probe", daemon=True)
        self._probe_thread.start()
        return self

    def stop_probes(self) -> None:
        if self._probe_thread is not None:
            self._probe_stop.set()
            self._probe_thread.join()
            self._probe_thread = None
            self._probe_stop = None

    # -- aggregation -----------------------------------------------------
    def stats(self) -> dict:
        """Cluster counters plus every reachable shard's full stats tree."""
        with self._lock:
            cluster = {
                "shards": len(self.clients),
                "live": [i for i, live in enumerate(self._live) if live],
                "requests": self.requests,
                "retries": self.retries,
                "failovers": self.failovers,
                "deaths": self.deaths,
                "resurrections": self.resurrections,
                "dispatched": {str(i): n for i, n in enumerate(self.dispatched)},
            }
        shards = {}
        for index in range(len(self.clients)):
            try:
                shards[str(index)] = self.clients[index].stats()
            except _CONNECTION_ERRORS + (RuntimeError,):
                shards[str(index)] = {"unreachable": True}
        return {"cluster": cluster, "shards": shards}

    def __repr__(self) -> str:
        return (f"ClusterRouter(shards={len(self.clients)}, "
                f"live={self.live_shards()}, requests={self.requests}, "
                f"failovers={self.failovers})")


# ----------------------------------------------------------------------
# shard processes
# ----------------------------------------------------------------------
@dataclass
class ShardServiceConfig:
    """Picklable recipe for the :class:`InferenceService` a shard builds.

    Spawned shard processes cannot receive a live service (weights,
    locks, caches don't pickle) — they receive *how to build one*.  Two
    shards (or a shard and a local reference) built from equal configs
    are identically seeded, which is what makes cross-process logits
    bit-comparable to the serial path.
    """

    dataset: str = "bbbp"
    size: int = 60
    num_layers: int = 2
    emb_dim: int = 12
    batch_size: int = 8
    seed: int = 0

    def __call__(self):
        from ..gnn import GNNEncoder
        from ..graph import load_dataset
        from .service import InferenceService

        data = load_dataset(self.dataset, size=self.size)

        def encoder_factory():
            return GNNEncoder("gin", num_layers=self.num_layers,
                              emb_dim=self.emb_dim, dropout=0.0,
                              seed=self.seed)

        return InferenceService(encoder_factory, data.num_tasks,
                                batch_size=self.batch_size, seed=self.seed)


def _shard_main(service_factory, server_kwargs: dict, host: str,
                offload_stall_s: float, conn) -> None:
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
        pre_execute = None
        if offload_stall_s:
            def pre_execute():
                _wall_sleep(offload_stall_s)
        server = InferenceServer(service, pre_execute=pre_execute,
                                 **server_kwargs).start()
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
    """One shard = server + HTTP transport in a child process.

    Parameters
    ----------
    service_factory:
        Picklable zero-argument callable building the shard's
        :class:`InferenceService` (e.g. a :class:`ShardServiceConfig`).
    shard_id:
        Index for naming / diagnostics.
    num_workers / max_batch_size / max_delay / tick_interval_s / queue_size:
        The shard server's parameters (see :class:`InferenceServer`).
    offload_stall_s:
        Optional per-micro-batch sleep in the shard's workers — the same
        device-wait emulation ``bench_concurrency.py`` uses, here so the
        cluster benchmark can measure process overlap on a 1-core box.
    ready_timeout_s:
        Bound on the ready handshake; exceeding it kills the child and
        raises :class:`ClusterError`.
    start_method:
        ``multiprocessing`` start method.  Default ``"spawn"``: a fresh
        interpreter per shard — slower to boot but immune to
        forked-lock hazards from a threaded parent (the test suite runs
        server threads in-process).
    """

    def __init__(self, service_factory, shard_id: int = 0,
                 host: str = "127.0.0.1", num_workers: int = 2,
                 max_batch_size: int = 32, max_delay: int = 4,
                 tick_interval_s: float = 0.002, queue_size: int = 64,
                 offload_stall_s: float = 0.0, ready_timeout_s: float = 120.0,
                 start_method: str = "spawn"):
        self.service_factory = service_factory
        self.shard_id = shard_id
        self.host = host
        self.server_kwargs = {
            "num_workers": num_workers, "max_batch_size": max_batch_size,
            "max_delay": max_delay, "tick_interval_s": tick_interval_s,
            "queue_size": queue_size,
        }
        self.offload_stall_s = offload_stall_s
        self.ready_timeout_s = ready_timeout_s
        self.start_method = start_method
        self.port: int | None = None
        self._process = None
        self._conn = None

    def start(self) -> "ShardProcess":
        """Spawn the shard and block on the ready handshake."""
        if self._process is not None:
            raise RuntimeError("shard already started")
        context = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_main,
            args=(self.service_factory, self.server_kwargs, self.host,
                  self.offload_stall_s, child_conn),
            name=f"repro-shard-{self.shard_id}", daemon=True)
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        if not parent_conn.poll(self.ready_timeout_s):
            self.kill()
            raise ClusterError(
                f"shard {self.shard_id} not ready within "
                f"{self.ready_timeout_s}s")
        tag, value = parent_conn.recv()
        if tag != "ready":
            self.kill()
            raise ClusterError(f"shard {self.shard_id} failed to start: {value}")
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
        self._process = None

    def kill(self) -> None:
        """Hard-kill the shard (the failover tests' murder weapon)."""
        if self._process is None:
            return
        self._process.kill()
        self._process.join()
        self._conn.close()
        self._process = None

    def __enter__(self) -> "ShardProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("new" if self.port is None
                                            else "stopped")
        return f"ShardProcess(id={self.shard_id}, {state}, port={self.port})"


def launch_shards(service_factory, num_shards: int,
                  **shard_kwargs) -> list[ShardProcess]:
    """Launch ``num_shards`` shard processes; all ready or none.

    Any shard failing its handshake kills the ones already launched and
    re-raises — a half-started cluster is worse than no cluster.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    shards: list[ShardProcess] = []
    try:
        for index in range(num_shards):
            shards.append(ShardProcess(service_factory, shard_id=index,
                                       **shard_kwargs).start())
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards
