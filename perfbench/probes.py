"""Wrappers around each layer's public entry points, installed from outside.

Each ``install_*`` function patches one layer through a
:class:`~spans.Tracer`, which restores every patch on ``restore()``.
Span names are ``"<layer>/<what>"``; the layer names follow the
program's packages (``core.search``, ``nn.ops``, ``serve.router``, ...).
Only traced runs install them.
"""

from __future__ import annotations

import time


def install_finetune(tracer) -> None:
    """finetune/finetune and finetune/evaluate (validation and test passes)."""
    from repro.finetune import base

    tracer.wrap_everywhere(base.finetune, "finetune/finetune")
    tracer.wrap_everywhere(base.evaluate_model, "finetune/evaluate")


def install_search(tracer) -> None:
    """core.search / core.controller spans, with theta and alpha steps.

    A step starts at the controller ``sample`` that opens it and ends
    when an optimizer step finishes; it is an alpha step when that
    optimizer updates the controller's parameters.
    """
    from repro.core import controller, search
    from repro.nn import optim

    state = {"step": None, "alpha_ids": frozenset()}
    tracer.wrap(search.S2PGNNSearcher, "search", "core.search/search")
    tracer.wrap(search.S2PGNNSearcher, "evaluate_spec", "core.search/evaluate_spec")

    sample_original = controller.StrategyController.sample

    def sample(self, tau, rng, hard=False):
        if not hard:
            if state["step"] is not None:
                tracer.close(state["step"], name="core.search/unfinished_step")
            state["alpha_ids"] = frozenset(id(p) for p in self.parameters())
            state["step"] = tracer.open("core.search/step")
        index = tracer.open("core.controller/sample")
        try:
            return sample_original(self, tau, rng, hard)
        finally:
            tracer.close(index)

    step_original = optim.Adam.step

    def step(self):
        index = tracer.open("nn/optim.step")
        try:
            return step_original(self)
        finally:
            tracer.close(index)
            if state["step"] is not None:
                alpha = bool(self.params) and id(self.params[0]) in state["alpha_ids"]
                tracer.close(state["step"], name="core.search/alpha_step" if alpha
                             else "core.search/theta_step")
                state["step"] = None

    tracer.patch(controller.StrategyController, "sample", sample)
    tracer.patch(optim.Adam, "step", step)


def install_models(tracer) -> None:
    """core.supernet forwards (split by grad mode) and DerivedModel forwards."""
    from repro.core import supernet
    from repro.nn import is_grad_enabled

    forward_original = supernet.S2PGNNSupernet.forward_full

    def forward_full(self, batch, strategy):
        name = ("core.supernet/forward_grad" if is_grad_enabled()
                else "core.supernet/forward_nograd")
        index = tracer.open(name)
        try:
            return forward_original(self, batch, strategy)
        finally:
            tracer.close(index)

    tracer.patch(supernet.S2PGNNSupernet, "forward_full", forward_full)
    tracer.wrap(supernet.DerivedModel, "forward_full", "core.supernet/derived_forward")


def install_nn(tracer) -> None:
    """Autograd backward, gradient clipping and the task loss."""
    from repro.finetune import base
    from repro.nn import optim, tensor

    tracer.wrap(tensor.Tensor, "backward", "nn/backward")
    tracer.wrap_everywhere(optim.clip_grad_norm, "nn/clip_grad_norm")
    tracer.wrap_everywhere(base.supervised_loss, "finetune/supervised_loss")


def install_ops(tracer) -> dict:
    """One span per registered kernel-op dispatcher call.

    Every module that imported a dispatcher holds the same object, so
    each binding is wrapped.  Returns the label the table is printed
    with: the active backend and the compiled backend's state.
    """
    from repro.nn.compiled import compiled_status
    from repro.nn.ops import OP_REGISTRY, active_backend

    for op in OP_REGISTRY.ops():
        tracer.wrap_everywhere(OP_REGISTRY.dispatcher(op), f"nn.ops/{op}")
    return {"backend": active_backend(), "compiled": compiled_status()["state"]}


def install_loader(tracer) -> None:
    """graph/loader.wait: time a consumer waits on each DataLoader batch."""
    from repro.graph import loader

    iter_original = loader.DataLoader.__iter__

    def __iter__(self):
        iterator = iter_original(self)
        while True:
            start = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                tracer.record("graph/loader.wait", start, time.perf_counter())
                return
            tracer.record("graph/loader.wait", start, time.perf_counter())
            yield batch

    tracer.patch(loader.DataLoader, "__iter__", __iter__)


def install_service(tracer) -> None:
    """serve.service entry points."""
    from repro.serve import service

    tracer.wrap(service.InferenceService, "score_specs", "serve.service/score_specs")
    tracer.wrap(service.InferenceService, "predict_spec_onehot",
                "serve.service/predict_onehot")


def install_training_all(tracer) -> dict:
    install_finetune(tracer)
    install_search(tracer)
    install_models(tracer)
    install_nn(tracer)
    install_loader(tracer)
    return install_ops(tracer)


def install_shard(tracer) -> dict:
    """Server-side serve.transport / serve.router / serve.server spans.

    Installed inside the shard process by the benchmark's service
    factory.  Queue wait runs from a request's router ``submit`` to the
    start of the service ``predict`` that executes its micro-batch; job
    wait from a micro-batch's dispatch to a worker picking it up.
    """
    from repro.serve import router, server, service, transport

    submitted = {}

    handle_original = transport.ServingProtocol.handle

    def handle(self, op, payload):
        if not tracer.enabled:
            return handle_original(self, op, payload)
        index = tracer.open(f"serve.transport/handle.{op}", (payload or {}).get("seq"))
        try:
            reply = handle_original(self, op, payload)
            if op == "submit":
                tracer.spans[index][4] = reply.get("seq")
            return reply
        finally:
            tracer.close(index)

    submit_original = router.BatchingRouter.submit

    def submit(self, graph, spec):
        start = time.perf_counter()
        ticket = submit_original(self, graph, spec)
        if tracer.enabled:
            submitted[id(graph)] = (start, ticket.seq)
        return ticket

    predict_original = service.InferenceService.predict

    def predict(self, graphs, spec, batch_size=None):
        if not tracer.enabled:
            return predict_original(self, graphs, spec, batch_size)
        now = time.perf_counter()
        seqs = []
        for graph in graphs:
            entry = submitted.pop(id(graph), None)
            if entry is not None:
                tracer.record("serve.router/queue_wait", entry[0], now, rid=entry[1],
                              nested=False)
                seqs.append(entry[1])
        index = tracer.open("serve.service/predict", seqs)
        try:
            return predict_original(self, graphs, spec, batch_size)
        finally:
            tracer.close(index)

    start_original = server.InferenceServer.start

    def start(self):
        started = start_original(self)
        dispatch = self.router.executor

        def traced_dispatch(job):
            queued = time.perf_counter()

            def traced_job():
                if not tracer.enabled:
                    return job()
                tracer.record("serve.server/job_wait", queued, time.perf_counter(),
                              nested=False)
                with tracer.span("serve.server/execute"):
                    return job()

            dispatch(traced_job)

        self.router.executor = traced_dispatch
        return started

    tracer.patch(transport.ServingProtocol, "handle", handle)
    tracer.wrap(transport, "graph_from_payload", "serve.transport/decode")
    tracer.wrap(transport, "spec_from_payload", "serve.transport/decode")
    tracer.patch(router.BatchingRouter, "submit", submit)
    tracer.patch(service.InferenceService, "predict", predict)
    tracer.patch(server.InferenceServer, "start", start)
    install_models(tracer)
    return install_ops(tracer)
