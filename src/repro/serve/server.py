"""Concurrent serving front end: worker pool + ticker thread over the router.

:class:`~repro.serve.router.BatchingRouter` is deliberately passive — it
batches, but somebody must execute its micro-batches and drive its
deadline clock.  In tests that somebody is the test itself (the simulated
``tick()`` clock keeps deadline behaviour exactly reproducible, and that
**remains the test path**).  :class:`InferenceServer` is the deployment
counterpart:

* a **worker pool** of ``num_workers`` threads dispatches
  **work-conserving**: an idle worker takes the bucket holding the
  globally oldest request the moment one exists (an ``"idle"`` flush),
  and a worker that finishes a micro-batch with the job queue empty does
  the same.  So requests pile up in buckets only while every worker is
  busy, and micro-batch size follows load (Clipper's adaptive batching).
  Size, deadline, backpressure and forced flushes still go through a
  bounded job queue (the router's ``executor`` hook feeds it), which
  workers drain first, in order.  Workers run the exact same
  ``service.predict(graphs, spec, batch_size=len(graphs))`` call the
  inline router runs, so routed logits stay bit-identical to a serial
  replay of each micro-batch — the concurrency changes *when* and *with
  whom* a request runs, never *what* its micro-batch computes;
* a **ticker thread** maps the router's simulated clock onto real
  monotonic time: every ``tick_interval_s`` seconds it advances the clock
  one tick, so while every worker is busy a bucket's deadline of
  ``max_delay`` ticks freezes its micro-batch after
  ``~max_delay * tick_interval_s`` seconds;
* :meth:`submit` returns a :class:`~repro.serve.router.RoutedRequest`
  ticket whose :meth:`~repro.serve.router.RoutedRequest.wait` blocks on a
  ``threading.Event``; :meth:`predict` is the synchronous convenience.

Idle workers sleep on a condition over the *router's* lock, and so does
a flushing thread waiting for room in the job queue.  A worker's
"nothing queued, no bucket" check and its wait are therefore one atomic
step against the router's bucket insert: a request can never sit in a
bucket beside an idle worker.

Where the parallelism comes from: eval forwards spend most of their time
in BLAS / numpy kernels that release the GIL, so on a multi-core host N
workers genuinely overlap distinct micro-batches (forwards take no model
lock, so even two micro-batches of one spec run in parallel).  In a
deployment whose forward is offloaded (an accelerator, a remote shard),
the worker thread blocks on the device instead and the pool hides that
latency the same way.

Lock order (see :mod:`repro.serve.service` for the full table): server
internals sit *above* the router — the executor hook only enqueues, and
workers take no server lock while executing, so a full job queue can
never deadlock against completion bookkeeping.

Shutdown contract: :meth:`stop` (or leaving the context manager) stops
the ticker, lets the workers drain the job queue and every bucket, and
joins them — every ticket submitted before ``stop()`` resolves.  A
:meth:`submit` *racing* ``stop()`` either raises ``RuntimeError`` or is
resolved by stop's inline clean-up sweep (best effort: quiesce your
submitters before stopping; a ticket's ``wait(timeout)`` is the backstop
either way).
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .router import BatchingRouter

__all__ = ["InferenceServer"]


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
        Worker threads executing micro-batches.  An idle worker takes a
        bucket as soon as it holds a request.
    max_batch_size / max_delay:
        Router parameters (see :class:`~repro.serve.router.BatchingRouter`);
        ``max_delay`` is in ticks.
    tick_interval_s:
        Real-time seconds per simulated-clock tick.  While every worker is
        busy, a bucket's micro-batch is frozen after
        ``~max_delay * tick_interval_s``; with a worker idle nothing waits
        for the deadline.  ``None`` disables the ticker thread — the
        caller drives :meth:`tick` manually, which keeps server tests
        deterministic (the simulated-clock test path).
    queue_size:
        Bound on the micro-batch job queue.  A full queue blocks the
        flushing thread (backpressure by waiting, never by dropping);
        workers only ever *take* from the queue, so this cannot deadlock.
    pre_execute:
        Optional zero-argument callable run by a worker immediately
        before each micro-batch.  The tests' ``gate`` fixture
        (``tests/serve/conftest.py``) uses it to hold every worker busy,
        so requests stay queued long enough to see a flush or an error.

    :attr:`worker_errors` keeps the last :data:`MAX_WORKER_ERRORS`
    failures of a worker (a micro-batch, or taking the next job);
    :attr:`worker_error_total` counts every failure monotonically and is
    what ``stats()`` reports.  A worker survives its failures.
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
        self.queue_size = queue_size
        self.router = BatchingRouter(service, max_batch_size=max_batch_size,
                                     max_delay=max_delay, executor=self._enqueue)
        # The job queue and its two conditions share the router's lock:
        # workers wait on _work for a job or a bucket, flushing threads on
        # _room for space.  Sharing it makes a worker's "nothing to do"
        # check and its wait atomic against the router's bucket insert.
        self._jobs: deque = deque()
        self._work = threading.Condition(self.router._lock)
        self._room = threading.Condition(self.router._lock)
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

        Stop the ticker (no new deadline flushes), then wake the workers:
        each drains the job queue and the buckets, and exits once both
        are empty."""
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        self._stop_event.set()
        if self._ticker is not None:
            self._ticker.join()
        with self._work:
            self._work.notify_all()
        for worker in self._workers:
            worker.join()
        # Close the submit/stop race: a submit that passed its _stopped
        # check before we set the flag may have bucketed a request or
        # queued a job after the workers left.  From here flushes execute
        # inline, and this thread drains whatever is left like a worker.
        self.router.executor = None
        self._worker_loop()

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

        The ticket completes when a worker executes its micro-batch: at
        once if a worker is idle, else when one frees up (or its bucket
        flushes on size or deadline first)."""
        if self._stopped:
            raise RuntimeError("server is stopped")
        if not self._started:
            raise RuntimeError("server not started (call start() or use 'with')")
        ticket = self.router.submit(graph, spec)
        with self._work:  # an idle worker takes the bucket
            self._work.notify()
        if self._stopped and not ticket.done:
            # Raced stop(): the workers may have left before our insert.
            # Flush the bucket ourselves — stop() has (or will have) turned
            # the router inline and drains the queue, so this resolves.
            self.router.flush(ticket.spec)
        return ticket

    def request(self, graph, spec, timeout: float | None = None):
        """Submit and block until served; returns the *resolved* ticket.

        Unlike the router's ``predict_one`` this does *not* force a
        flush: an idle worker takes the request at once, and while every
        worker is busy it batches with concurrent traffic.  The ticket
        carries the logits (``result()``) plus the micro-batch provenance
        (``seq``, ``batch_graphs``, ``batch_index``) the transports put on
        the wire."""
        ticket = self.submit(graph, spec)
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
        with self._room:
            while len(self._jobs) >= self.queue_size:
                self._room.wait()
            self._jobs.append(job)
            self._work.notify()

    def _next_job(self):
        """Block until there is a micro-batch to run; ``None`` once
        stopping with nothing left.

        Queued jobs go first, in order; with the queue empty the worker
        takes the bucket holding the oldest request itself, and waits
        only when there is none — all under the router lock, so a submit
        cannot slip a request in between the check and the wait."""
        with self._work:
            while True:
                if self._jobs:
                    self._room.notify()
                    return self._jobs.popleft()
                job = self.router.take_oldest()
                if job is not None or self._stop_event.is_set():
                    return job
                self._work.wait()

    def _ticker_loop(self) -> None:
        # wait() doubles as the interval sleep and the stop signal; the
        # clock is therefore monotonic-real-time driven, jitter bounded
        # by the scheduler.
        while not self._stop_event.wait(self.tick_interval_s):
            self.router.tick()

    def _worker_loop(self) -> None:
        while True:
            try:
                job = self._next_job()
                if job is None:
                    return
                if self.pre_execute is not None:
                    self.pre_execute()
                job()
            # A failed job's tickets already carry the error; a failed take
            # is only recorded, and the worker keeps serving either way.
            except BaseException as err:
                with self._lock:
                    self.worker_errors.append(err)
                    self.worker_error_total += 1
            else:
                with self._lock:
                    self.executed_batches += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service stats plus the server's own router/queue/worker view."""
        stats = self.service.stats()
        stats["server_router"] = self.router.stats()
        with self._lock:
            stats["server"] = {
                "workers": self.num_workers,
                "running": self.running,
                "queue_depth": len(self._jobs),
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
