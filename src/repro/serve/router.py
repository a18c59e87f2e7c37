"""Dynamic-batching request router: single-graph requests -> micro-batches.

The batch-serving layer answers requests for *lists* of graphs; the true
online-serving workload is the opposite shape — a stream of independent
single-graph requests, each too small to amortize a forward on its own.
:class:`BatchingRouter` closes that gap:

* :meth:`~BatchingRouter.submit` accepts one graph + one strategy spec and
  returns a :class:`RoutedRequest` ticket immediately;
* pending requests are **bucketed by spec** (mixed-spec queues never share
  a forward — each spec routes to its own persistent model)
  and accumulated in a bounded queue;
* a bucket is flushed into a **micro-batch** when it reaches
  ``max_batch_size`` (flush-on-size), when its oldest request has waited
  ``max_delay`` clock ticks (flush-on-deadline), or on an explicit
  :meth:`~BatchingRouter.flush`; an executor with an idle worker also
  takes the bucket holding the oldest request at once
  (:meth:`~BatchingRouter.take_oldest`, the ``"idle"`` trigger);
* each micro-batch costs **one** disjoint-union collation + **one**
  forward through the owning :class:`~repro.serve.service.InferenceService`
  (``batch_size=len(micro-batch)``), and the response rows are sliced
  back out to the tickets in submission order.

Clock semantics
---------------
The router keeps a *simulated* clock: :meth:`~BatchingRouter.tick`
advances it and fires deadline flushes.  Nothing in the router reads
wall-clock time, so deadline behaviour is exactly reproducible in tests;
a deployment maps ticks to real time by calling ``tick()`` from a timer —
that is precisely what :class:`~repro.serve.server.InferenceServer`'s
background ticker thread does.  Under a server the deadline only matters
while every worker is busy: an idle worker takes a bucket the moment it
holds a request.

Thread safety and execution modes
---------------------------------
All router state (ticket sequence counter, buckets, counters) is guarded
by one ``RLock``; in particular **ticket allocation and bucket insert are
atomic**, so concurrent submitters get unique, strictly increasing
``seq`` numbers.  The router keeps no completed tickets: whoever holds a
ticket owns its result.  Micro-batch execution runs in one of two modes:

* **inline** (default, ``executor=None``) — the flushing call executes
  the forward itself, holding no router lock during the service call
  except for final bookkeeping.  ``submit`` that fills a bucket returns
  an already-``done`` ticket.
* **executor** — ``executor`` is a callable receiving a zero-argument
  job; the router dispatches flushed micro-batches to it and returns
  without waiting.  :class:`~repro.serve.server.InferenceServer` passes
  the enqueue side of its worker pool here, and its idle workers pull
  buckets themselves through :meth:`~BatchingRouter.take_oldest`,
  sleeping on a condition over the router lock, so a bucket insert and
  a worker going idle never interleave.  Tickets resolve when a worker
  runs the job; callers block on :meth:`RoutedRequest.wait`.

Lock order: the router lock is *above* every
:class:`~repro.serve.service.InferenceService` lock (the flush path calls
into the service while holding no router lock) — see
:mod:`repro.serve.service` for the full stack-wide order.

Parity guarantee
----------------
A routed request's logits are, by construction, the request's row of
``service.predict(micro_batch_graphs, spec, batch_size=len(micro_batch))``
— bit-identical to what the caller would get asking the service for the
assembled micro-batch directly, and for a single-request flush
bit-identical to ``service.predict([graph], spec)``.  Note that batching
*changes the BLAS summation shapes*: a request served inside a larger
micro-batch can differ from its own batch-of-one forward in the last few
float bits (~1e-15), exactly as ``predict`` on a larger list does.  The
contract pinned by ``tests/serve/test_router.py`` is therefore stated
against ``predict`` on the same graphs; every ticket records its
micro-batch (:attr:`RoutedRequest.batch_graphs` /
:attr:`RoutedRequest.batch_index`) so the reference is always
reconstructible — the concurrency stress tests replay it serially.

Because micro-batches run through ``service.predict``, they see exactly
what list requests see: repeated graph sets hit the batch/plan cache, and
every micro-batch runs the forward on the model's current weights.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["BatchingRouter", "RoutedRequest"]


class RoutedRequest:
    """Ticket for one submitted graph; resolves when its bucket flushes.

    Attributes
    ----------
    graph, spec:
        The submitted graph and its strategy spec.
    seq:
        Global submission index — unique and strictly increasing even
        under concurrent submitters (allocation happens under the router
        lock).
    submitted_tick:
        Router clock value at submission (deadline flushes fire when
        ``clock - submitted_tick >= max_delay``).
    batch_graphs / batch_index:
        Set at completion: the tuple of graphs that formed this request's
        micro-batch and this request's row position in it.  Together they
        make the parity reference reconstructible after the fact —
        ``service.predict(list(batch_graphs), spec,
        batch_size=len(batch_graphs))[batch_index]`` is bit-identical to
        :meth:`result`.
    """

    __slots__ = ("graph", "spec", "seq", "submitted_tick", "batch_graphs",
                 "batch_index", "_logits", "_error", "_event")

    def __init__(self, graph, spec, seq: int, submitted_tick: int):
        self.graph = graph
        self.spec = spec
        self.seq = seq
        self.submitted_tick = submitted_tick
        self.batch_graphs: tuple | None = None
        self.batch_index: int | None = None
        self._logits: np.ndarray | None = None
        self._error: BaseException | None = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        """True once the micro-batch executed (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> np.ndarray:
        """Block until this request's micro-batch has executed.

        Returns the logits row (see :meth:`result`).  Raises
        ``TimeoutError`` if ``timeout`` seconds elapse first — the ticket
        stays valid and may be waited on again.  Built on a
        ``threading.Event``, so any number of threads may wait on one
        ticket.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request seq={self.seq} still queued after {timeout}s")
        return self.result()

    def result(self) -> np.ndarray:
        """This request's logits row, shape ``(num_tasks,)``.

        The row is private to the ticket (sliced and copied at flush), so
        callers may mutate it freely.  Raises while still queued — call
        :meth:`BatchingRouter.flush` / :meth:`BatchingRouter.tick` first,
        use :meth:`BatchingRouter.predict_one`, or block on :meth:`wait`.
        If the micro-batch execution failed, re-raises that error.
        """
        if self._error is not None:
            raise RuntimeError(
                f"micro-batch execution failed for request seq={self.seq}"
            ) from self._error
        if self._logits is None:
            raise RuntimeError(
                "request is still queued (flush() or tick() the router)")
        return self._logits

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"RoutedRequest(seq={self.seq}, {state})"


class BatchingRouter:
    """Bucket single-graph requests into server-side micro-batches.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.InferenceService` that executes
        micro-batches (and supplies every cache behind them).
    max_batch_size:
        Flush a spec's bucket as soon as it holds this many requests.
    max_delay:
        Flush a bucket once its *oldest* request has waited this many
        clock ticks — bounds latency for trickle traffic that never fills
        a micro-batch.
    max_pending:
        Bound on the total queue across all buckets.  A submit that would
        exceed it first flushes the bucket holding the globally oldest
        request (backpressure by serving, never by dropping).
    executor:
        Optional callable receiving a zero-argument job per flushed
        micro-batch (see module docstring).  ``None`` executes inline.
        Buckets an executor's idle workers take through
        :meth:`take_oldest` do not pass through it.
    """

    def __init__(self, service, max_batch_size: int = 32, max_delay: int = 4,
                 max_pending: int = 1024, executor=None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1 tick")
        if max_pending < max_batch_size:
            raise ValueError("max_pending must be >= max_batch_size")
        self.service = service
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.executor = executor
        self._lock = threading.RLock()
        self._buckets: "OrderedDict[object, list[RoutedRequest]]" = OrderedDict()
        self._tick = 0
        self._seq = 0
        self.served = 0
        self.batches = 0
        self.flushes = {"size": 0, "deadline": 0, "forced": 0,
                        "backpressure": 0, "idle": 0}

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests queued across all spec buckets."""
        with self._lock:
            return sum(len(bucket) for bucket in self._buckets.values())

    def submit(self, graph, spec) -> RoutedRequest:
        """Enqueue one graph under ``spec``; returns its ticket.

        Ticket allocation (the ``seq`` counter) and the bucket insert are
        one atomic step under the router lock, so concurrent submitters —
        including submits racing a mid-flush worker — cannot interleave
        sequence numbers or lose requests.

        Flush-on-size fires from this call: without an executor the
        micro-batch runs inline and the returned ticket is already
        ``done``; with one, the batch is dispatched and the ticket
        resolves when a worker executes it.
        """
        flushed = None
        with self._lock:
            request = RoutedRequest(graph, spec, self._seq, self._tick)
            self._seq += 1
            bucket = self._buckets.setdefault(spec, [])
            bucket.append(request)
            if len(bucket) >= self.max_batch_size:
                flushed = spec, self._pop(spec, "size")
            elif self.pending > self.max_pending:
                oldest = next(iter(self._buckets))
                flushed = oldest, self._pop(oldest, "backpressure")
        if flushed is not None:
            self._dispatch(*flushed)
        return request

    def tick(self, ticks: int = 1) -> list[RoutedRequest]:
        """Advance the simulated clock, firing deadline flushes.

        Returns the requests flushed by those deadlines, in submission
        order (inline mode: already ``done``; executor mode: dispatched,
        resolve via :meth:`RoutedRequest.wait`)."""
        completed: list[RoutedRequest] = []
        for _ in range(ticks):
            with self._lock:
                self._tick += 1
                expired = [spec for spec, bucket in self._buckets.items()
                           if self._tick - bucket[0].submitted_tick >= self.max_delay]
            for spec in expired:
                completed.extend(self._flush_bucket(spec, "deadline"))
        return sorted(completed, key=lambda r: r.seq)

    def flush(self, spec=None) -> list[RoutedRequest]:
        """Force pending micro-batches out (one spec, or all of them).

        An empty queue (or an unknown/empty spec bucket) is a no-op
        returning ``[]``.  Returns the flushed requests in submission
        order (see :meth:`tick` for executor-mode semantics)."""
        with self._lock:
            if spec is not None:
                specs = [spec] if self._buckets.get(spec) else []
            else:
                # Buckets sit in oldest-request order (see take_oldest),
                # so backlogged traffic is served in arrival order.
                specs = list(self._buckets)
        completed: list[RoutedRequest] = []
        for s in specs:
            completed.extend(self._flush_bucket(s, "forced"))
        return sorted(completed, key=lambda r: r.seq)

    def predict_one(self, graph, spec) -> np.ndarray:
        """Synchronous convenience: submit, force completion, return logits.

        Piggy-backs on whatever the spec's bucket already holds — the
        forced flush serves *all* of its pending requests in one forward,
        so interleaving ``predict_one`` with ``submit`` traffic still
        batches.  Always waits on the ticket's event (not ``result()``):
        even in inline mode a concurrent caller may have popped this
        request's bucket and be mid-forward with it, in which case the
        forced flush here is a no-op and the event resolves when that
        execution finishes."""
        request = self.submit(graph, spec)
        if not request.done:
            self._flush_bucket(spec, "forced")
        return request.wait()

    def take_oldest(self):
        """Pop the bucket holding the globally oldest request, for an idle
        worker; returns a zero-argument job running its micro-batch on the
        caller's thread, or ``None`` when nothing is queued.

        Counted as an ``"idle"`` flush.  A bucket is created by its oldest
        request and leaves whole, so the first bucket in insertion order
        is the one holding the globally oldest request.  An executor calls
        this with the router lock held, so its "anything queued?" check
        and its wait for the next :meth:`submit` are one atomic step."""
        with self._lock:
            if not self._buckets:
                return None
            spec = next(iter(self._buckets))
            bucket = self._pop(spec, "idle")
        return lambda: self._execute(spec, bucket)

    # ------------------------------------------------------------------
    def _pop(self, spec, trigger: str) -> list[RoutedRequest]:
        """Remove ``spec``'s bucket and count its flush (lock held)."""
        bucket = self._buckets.pop(spec, None)
        if not bucket:
            return []
        self.batches += 1
        self.flushes[trigger] += 1
        return bucket

    def _flush_bucket(self, spec, trigger: str) -> list[RoutedRequest]:
        """Pop ``spec``'s bucket and execute (or dispatch) its micro-batch."""
        with self._lock:
            bucket = self._pop(spec, trigger)
        if bucket:
            self._dispatch(spec, bucket)
        return bucket

    def _dispatch(self, spec, bucket: list[RoutedRequest]) -> None:
        """Execute a popped micro-batch inline, or hand it to the executor.

        Called with **no router lock held**, so inline execution never
        blocks concurrent submitters on the forward and an executor's
        bounded queue cannot deadlock against workers doing completion
        bookkeeping."""
        executor = self.executor  # one read: robust to a concurrent swap
        if executor is None:
            self._execute(spec, bucket)
        else:
            executor(lambda: self._execute(spec, bucket))

    def _execute(self, spec, bucket: list[RoutedRequest]) -> None:
        """Run one micro-batch and resolve its tickets (worker-side half).

        One disjoint-union collation + one forward for the whole
        micro-batch: ``batch_size=len(graphs)`` makes the shared loader
        yield a single batch, and the service's batch/plan caches
        apply to it like to any list request.  A failed forward resolves
        every ticket with the error instead of leaving waiters hanging."""
        graphs = [request.graph for request in bucket]
        try:
            logits = self.service.predict(graphs, spec, batch_size=len(graphs))
        except BaseException as err:  # resolve waiters, then bookkeeping
            for request in bucket:
                request._error = err
                request._event.set()
            raise
        batch_graphs = tuple(graphs)
        for i, request in enumerate(bucket):
            request._logits = np.array(logits[i], copy=True)
            request.batch_graphs = batch_graphs
            request.batch_index = i
            request._event.set()
        with self._lock:
            self.served += len(bucket)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "pending": sum(len(b) for b in self._buckets.values()),
                "served": self.served,
                "batches": self.batches,
                "mean_batch_size": (self.served / self.batches
                                    if self.batches else 0.0),
                "flushes": dict(self.flushes),
                "tick": self._tick,
            }

    def __repr__(self) -> str:
        return (f"BatchingRouter(pending={self.pending}, served={self.served}, "
                f"batches={self.batches}, max_batch_size={self.max_batch_size}, "
                f"max_delay={self.max_delay})")
