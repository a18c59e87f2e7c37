"""``repro.serve`` — batch-serving layer on top of the fast-path stack.

Seven pieces: :class:`BatchCacheRegistry` (one collated + plan-cached
loader per graph set and batch size, shared by every phase of a run),
:class:`ModelRegistry` (persistent derived models keyed by spec, LRU),
:class:`InferenceService` (prediction requests + many-spec scoring
fan-outs over the shared caches), :class:`BatchingRouter` (dynamic
batching: single-graph requests bucketed by spec into server-side
micro-batches, flushed on size or deadline), :class:`InferenceServer`
(the concurrent front end: a work-conserving worker pool that takes a
micro-batch as soon as a worker is idle, plus a real-clock ticker for
deadline flushes while every worker is busy), the transports
(:class:`InProcessTransport` / :class:`HTTPServingTransport` — one JSON
dict protocol exposing submit/predict/stats in-process or over stdlib
HTTP), and :class:`ShardProcess` (one server + HTTP transport in a
spawned child process, started through a ready handshake).  The whole
stack is thread-safe; :mod:`repro.serve.service` documents the lock
order.
"""

from .cache import BatchCacheRegistry
from .cluster import ShardProcess
from .registry import ModelRegistry, spec_key
from .router import BatchingRouter, RoutedRequest
from .server import InferenceServer
from .service import InferenceService, SpecScore
from .transport import (
    HTTPServingClient,
    HTTPServingTransport,
    InProcessTransport,
    ServingProtocol,
    TransportConnectionError,
    TransportError,
)

__all__ = [
    "BatchCacheRegistry",
    "ModelRegistry",
    "spec_key",
    "BatchingRouter",
    "RoutedRequest",
    "InferenceService",
    "InferenceServer",
    "SpecScore",
    "ServingProtocol",
    "InProcessTransport",
    "HTTPServingTransport",
    "HTTPServingClient",
    "TransportError",
    "TransportConnectionError",
    "ShardProcess",
]
