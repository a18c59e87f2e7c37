"""Concurrent serving front end: ticker thread + worker pool over the router.

:class:`~repro.serve.router.BatchingRouter` is deliberately passive — it
batches, but somebody must drive its deadline clock and execute its
micro-batches.  In tests that somebody is the test itself (the simulated
``tick()`` clock keeps deadline behaviour exactly reproducible, and that
**remains the test path**).  :class:`InferenceServer` is the deployment
counterpart:

* a **ticker thread** maps the router's simulated clock onto real
  monotonic time: every ``tick_interval_s`` seconds it advances the clock
  one tick, so a bucket's deadline of ``max_delay`` ticks becomes
  ``~max_delay * tick_interval_s`` seconds of real latency bound;
* a **worker pool** of ``num_workers`` threads executes flushed
  micro-batches from a bounded job queue (the router's ``executor`` hook
  feeds it).  Workers run the exact same
  ``service.predict(graphs, spec, batch_size=len(graphs))`` call the
  inline router runs, so routed logits stay bit-identical to the serial
  path — the concurrency changes *when* a micro-batch runs, never *what*
  it computes;
* :meth:`submit` returns a :class:`~repro.serve.router.RoutedRequest`
  ticket whose :meth:`~repro.serve.router.RoutedRequest.wait` blocks on a
  ``threading.Event``; :meth:`predict` is the synchronous convenience.

Where the parallelism comes from: eval forwards spend most of their time
in BLAS / numpy kernels that release the GIL, so on a multi-core host N
workers genuinely overlap distinct micro-batches (forwards take no model
lock, so even two micro-batches of one spec run in parallel).  In a
deployment whose forward is offloaded (an accelerator, a remote shard),
the worker thread blocks on the device instead and the pool hides that
latency the same way — ``pre_execute`` exists so benchmarks can emulate
exactly that interval on hosts without one.

Lock order (see :mod:`repro.serve.service` for the full table): server
internals sit *above* the router — the executor hook only enqueues, and
workers take no server lock while executing, so a full job queue can
never deadlock against completion bookkeeping.

Shutdown contract: :meth:`stop` (or leaving the context manager) stops
the ticker, force-flushes the router, drains the job queue, and joins the
workers — every ticket submitted before ``stop()`` resolves.  A
:meth:`submit` *racing* ``stop()`` either raises ``RuntimeError`` or is
resolved by stop's inline clean-up sweeps (best effort: quiesce your
submitters before stopping; a ticket's ``wait(timeout)`` is the backstop
either way).
"""

from __future__ import annotations

import queue
import threading
from collections import deque

import numpy as np

from .router import BatchingRouter

__all__ = ["InferenceServer"]


_SENTINEL = object()

#: :meth:`InferenceServer.request`'s wait bound when the caller gives none.
DEFAULT_TIMEOUT_S = 60.0

#: Capacity of :attr:`InferenceServer.worker_errors`.  Tickets already
#: carry their own error, so the server keeps only the last few for
#: diagnostics — under sustained micro-batch failure an unbounded list
#: would grow (with full tracebacks pinned) for the life of the process.
MAX_WORKER_ERRORS = 64


class InferenceServer:
    """Threaded serving front end over one :class:`InferenceService`.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.InferenceService` to serve.  The
        service (and the whole stack under it) is thread-safe; the server
        owns a *private* router, so other routers over the same service
        can coexist with it.
    num_workers:
        Worker threads executing micro-batches.
    max_batch_size / max_delay:
        Router parameters (see :class:`~repro.serve.router.BatchingRouter`);
        ``max_delay`` is in ticks.
    tick_interval_s:
        Real-time seconds per simulated-clock tick.  The deadline latency
        bound is ``~max_delay * tick_interval_s``.  ``None`` disables the
        ticker thread — the caller drives :meth:`tick` manually, which
        keeps server tests deterministic (the simulated-clock test path).
    queue_size:
        Bound on the micro-batch job queue.  A full queue blocks the
        flushing thread (backpressure by waiting, never by dropping);
        workers only ever *take* from the queue, so this cannot deadlock.
    pre_execute:
        Optional zero-argument callable run by a worker immediately
        before each micro-batch — telemetry, rate limiting, or (in
        benchmarks) emulating a blocked-on-device interval.

    :attr:`worker_errors` keeps the last :data:`MAX_WORKER_ERRORS`
    micro-batch failures; :attr:`worker_error_total` counts every failure
    monotonically and is what ``stats()`` reports.
    """

    def __init__(self, service, num_workers: int = 2, max_batch_size: int = 32,
                 max_delay: int = 4, tick_interval_s: float | None = 0.002,
                 queue_size: int = 64, pre_execute=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if tick_interval_s is not None and tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive (or None)")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.service = service
        self.num_workers = num_workers
        self.tick_interval_s = tick_interval_s
        self.pre_execute = pre_execute
        self.router = BatchingRouter(service, max_batch_size=max_batch_size,
                                     max_delay=max_delay, executor=self._enqueue)
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._started = False
        self._stopped = False
        self._ticker: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self.executed_batches = 0
        # Ring of the last K failures (diagnostics) + monotonic total:
        # the waiting tickets own the errors that matter, the server
        # must not accumulate every exception of a failing deployment.
        self.worker_errors: "deque[BaseException]" = deque(
            maxlen=MAX_WORKER_ERRORS)
        self.worker_error_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Spawn the worker pool (and the ticker, unless disabled)."""
        with self._lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
            for i in range(self.num_workers):
                worker = threading.Thread(target=self._worker_loop,
                                          name=f"repro-serve-worker-{i}",
                                          daemon=True)
                worker.start()
                self._workers.append(worker)
            if self.tick_interval_s is not None:
                self._ticker = threading.Thread(target=self._ticker_loop,
                                                name="repro-serve-ticker",
                                                daemon=True)
                self._ticker.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: every ticket submitted before this resolves.

        Order matters: stop the ticker (no new deadline flushes), flush
        every pending bucket into the job queue, then let the workers
        drain the queue FIFO before their shutdown sentinels."""
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        self._stop_event.set()
        if self._ticker is not None:
            self._ticker.join()
        self.router.flush()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join()
        # Close the submit/stop race: a submit that passed its _stopped
        # check before we set the flag may have bucketed a request after
        # the flush above (or dispatched a job behind the sentinels).
        # From here flushes execute inline on this thread; drain whatever
        # the workers never got to, flush stragglers, and drain once more
        # for a dispatch that was in flight during the first sweep.
        self.router.executor = None
        self._drain_queue_inline()
        self.router.flush()
        self._drain_queue_inline()

    def _drain_queue_inline(self) -> None:
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            try:
                if job is not _SENTINEL:
                    job()
            finally:
                self._queue.task_done()

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # request API
    # ------------------------------------------------------------------
    def submit(self, graph, spec):
        """Enqueue one graph; returns its ticket (resolve via ``wait()``).

        The ticket completes when its bucket flushes (size or deadline)
        and a worker executes the micro-batch."""
        if self._stopped:
            raise RuntimeError("server is stopped")
        if not self._started:
            raise RuntimeError("server not started (call start() or use 'with')")
        ticket = self.router.submit(graph, spec)
        if self._stopped and not ticket.done:
            # Raced stop(): its final flush may have run before our insert.
            # Flush the bucket ourselves — stop() has (or will have) turned
            # the router inline and drains the queue, so this resolves.
            self.router.flush(ticket.spec)
        return ticket

    def request(self, graph, spec, timeout: float | None = None):
        """Submit and block until served; returns the *resolved* ticket.

        Unlike the router's ``predict_one`` this does *not* force a
        flush — the request batches with concurrent traffic and the
        deadline ticker bounds its latency, which is the whole point of
        dynamic batching under load.  (Without a ticker the bucket is
        flushed immediately, since nothing else would resolve it.)  The
        ticket carries the logits (``result()``) plus the micro-batch
        provenance (``seq``, ``batch_graphs``, ``batch_index``) the
        transports put on the wire."""
        ticket = self.submit(graph, spec)
        if self._ticker is None and not ticket.done:
            self.router.flush(spec)
        ticket.wait(DEFAULT_TIMEOUT_S if timeout is None else timeout)
        return ticket

    def predict(self, graph, spec, timeout: float | None = None) -> np.ndarray:
        """Synchronous single-graph prediction, shape ``(num_tasks,)``
        (see :meth:`request` for the batching/deadline semantics)."""
        return self.request(graph, spec, timeout=timeout).result()

    def flush(self):
        """Force all pending micro-batches into the job queue."""
        return self.router.flush()

    def tick(self, ticks: int = 1):
        """Advance the simulated clock manually (ticker-less test mode)."""
        return self.router.tick(ticks)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enqueue(self, job) -> None:
        """Router executor hook.  Called with no router lock held."""
        self._queue.put(job)

    def _ticker_loop(self) -> None:
        # wait() doubles as the interval sleep and the stop signal; the
        # clock is therefore monotonic-real-time driven, jitter bounded
        # by the scheduler.
        while not self._stop_event.wait(self.tick_interval_s):
            self.router.tick()

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is _SENTINEL:
                    return
                try:
                    if self.pre_execute is not None:
                        self.pre_execute()
                    job()
                except BaseException as err:  # tickets already carry the error
                    with self._lock:
                        self.worker_errors.append(err)
                        self.worker_error_total += 1
                else:
                    with self._lock:
                        self.executed_batches += 1
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service stats plus the server's own router/queue/worker view."""
        stats = self.service.stats()
        stats["server_router"] = self.router.stats()
        with self._lock:
            stats["server"] = {
                "workers": self.num_workers,
                "running": self.running,
                "queue_depth": self._queue.qsize(),
                "executed_batches": self.executed_batches,
                # the true monotonic failure count, not the ring's size
                "worker_errors": self.worker_error_total,
                "recent_worker_errors": len(self.worker_errors),
                "tick_interval_s": self.tick_interval_s,
            }
        return stats

    def __repr__(self) -> str:
        state = "running" if self.running else ("stopped" if self._stopped
                                                else "new")
        return (f"InferenceServer({state}, workers={self.num_workers}, "
                f"ticker={'real' if self.tick_interval_s is not None else 'manual'})")
