"""Transport protocol tests: codecs, in-process dict protocol, real HTTP.

The in-process transport and the HTTP transport share one
``ServingProtocol`` core, so protocol semantics (submit/result windows,
error mapping, payload validation) are pinned against the in-process
transport — deterministic, no sockets — and the HTTP tests only add the
wire: real POST/GET round-trips through ``http.server`` and the
keep-alive client, status-code mapping, connection lifetime, and
concurrent connections.
"""

import json
import re
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.space import FineTuneStrategySpec
from repro.gnn import GNNEncoder
from repro.serve import (
    HTTPServingClient,
    HTTPServingTransport,
    InferenceServer,
    InferenceService,
    InProcessTransport,
)
from repro.serve import transport as transport_module
from repro.serve.transport import (
    MAX_BODY_BYTES,
    TransportError,
    _Handler,
    graph_from_payload,
    graph_to_payload,
    spec_from_payload,
    spec_to_payload,
)

SPEC_A = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                              fusion="last", readout="mean")

#: ``timeout_s`` values a request must be refused for (JSON carries the
#: floats as ``Infinity`` / ``NaN``, which ``json.loads`` accepts; 1e300
#: is finite but beyond ``threading.TIMEOUT_MAX``).
BAD_TIMEOUTS = ["abc", float("inf"), float("nan"), -1.0, True, 1e300]

#: Spec fields (as ``field, value``) outside the search space.
BAD_SPEC_FIELDS = [("identity", [["zero_aug"], "zero_aug"]),
                   ("identity", [7, "zero_aug"]),
                   ("identity", ["bogus", "zero_aug"]),
                   ("fusion", "bogus"), ("readout", "bogus"), ("conv", "bogus")]
BAD_SPEC_IDS = [f"{field}={value!r}" for field, value in BAD_SPEC_FIELDS]


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


@pytest.fixture
def server(tiny_dataset):
    service = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                               seed=0)
    with InferenceServer(service, num_workers=2, max_batch_size=4,
                         max_delay=2, tick_interval_s=0.001) as srv:
        yield srv


@pytest.fixture
def idle_server(tiny_dataset, gate):
    """A running server whose one worker is held busy until it stops:
    every admitted request stays queued."""
    service = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                               seed=0)
    with InferenceServer(service, num_workers=1, max_batch_size=100,
                         max_delay=10_000, tick_interval_s=5.0,
                         pre_execute=gate) as srv:
        gate.hold(srv, tiny_dataset.graphs[1], SPEC_A)
        try:
            yield srv
        finally:
            gate.open()


@pytest.fixture
def reference(tiny_dataset):
    return InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                            seed=0)


class TestCodecs:
    def test_graph_round_trip(self, tiny_dataset):
        graph = tiny_dataset.graphs[0]
        clone = graph_from_payload(json.loads(json.dumps(graph_to_payload(graph))))
        assert np.array_equal(clone.x, graph.x)
        assert np.array_equal(clone.edge_index, graph.edge_index)
        assert np.array_equal(clone.edge_attr, graph.edge_attr)
        assert np.array_equal(clone.y, graph.y)

    def test_unlabeled_graph_round_trip(self, tiny_dataset):
        graph = tiny_dataset.graphs[0].copy()
        graph.y = None
        assert graph_from_payload(graph_to_payload(graph)).y is None

    def test_spec_round_trip(self):
        clone = spec_from_payload(json.loads(json.dumps(spec_to_payload(SPEC_A))))
        assert clone == SPEC_A  # frozen dataclass equality == same strategy

    def test_malformed_graph_rejected(self):
        with pytest.raises(ValueError):
            graph_from_payload({"x": [[0, 0]], "edge_index": [[0], [5]],
                                "edge_attr": [[0, 0]], "y": None})


class TestInProcessProtocol:
    def test_predict_matches_service(self, tiny_dataset, server, reference):
        transport = InProcessTransport(server)
        graph = tiny_dataset.graphs[0]
        logits = transport.predict(graph, SPEC_A, timeout_s=30)
        # The JSON round-trip rebuilds the graph object, so the service
        # collates a fresh batch — values equal, bits equal (same arrays).
        ref = reference.predict([graph], SPEC_A, batch_size=1)
        assert np.array_equal(logits, ref[0])

    def test_submit_then_result(self, tiny_dataset, server):
        transport = InProcessTransport(server)
        seq = transport.submit(tiny_dataset.graphs[1], SPEC_A)
        reply = transport.result(seq, timeout_s=30)
        assert reply["seq"] == seq
        assert len(reply["logits"]) == tiny_dataset.num_tasks
        assert reply["batch_size"] >= 1

    def test_result_pending_then_unknown_seq(self, tiny_dataset, gate):
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as srv:
            gate.hold(srv, tiny_dataset.graphs[1], SPEC_A)
            transport = InProcessTransport(srv)
            seq = transport.submit(tiny_dataset.graphs[0], SPEC_A)
            assert transport.result(seq)["pending"] is True  # worker busy
            gate.open()
            assert "logits" in transport.result(seq, timeout_s=30)
            with pytest.raises(TransportError, match="unknown or expired"):
                transport.result(seq + 999)

    def test_malformed_requests_raise_transport_errors(self, server):
        transport = InProcessTransport(server)
        with pytest.raises(TransportError, match="malformed request"):
            transport.request("predict", {"graph": {"x": "nope"}})
        with pytest.raises(TransportError, match="unknown operation"):
            transport.request("frobnicate", {})
        with pytest.raises(TransportError, match="integer 'seq'"):
            transport.request("result", {})

    def test_bad_graph_fails_alone(self, tiny_dataset, gate):
        # Regression: a graph with an out-of-range atom id was admitted
        # and failed the whole micro-batch with the embedding's
        # IndexError, taking the valid graph batched with it down too.
        # The gate holds the only worker, so the good request is still in
        # its bucket while each bad payload is rejected at admission.
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        good_graph = tiny_dataset.graphs[0]
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as srv:
            held = gate.hold(srv, tiny_dataset.graphs[2], SPEC_A)
            transport = InProcessTransport(srv)
            good = transport.submit(good_graph, SPEC_A)
            for column, key in ((0, "x"), (1, "x"), (0, "edge_attr"),
                                (1, "edge_attr")):
                payload = graph_to_payload(tiny_dataset.graphs[1])
                rows = np.asarray(payload[key]).reshape(-1, 2)
                rows[0, column] = 9999
                payload[key] = rows.tolist()
                with pytest.raises(TransportError, match="ids must lie"):
                    transport.request("submit", {
                        "graph": payload, "spec": spec_to_payload(SPEC_A)})
            gate.open()
            srv.flush()
            held[0].wait(30)
            reply = transport.result(good, timeout_s=30)
        assert "error" not in reply
        assert reply["batch_size"] == 1
        np.testing.assert_array_equal(
            reply["logits"], service.predict([good_graph], SPEC_A)[0])

    def test_odd_label_width_does_not_fail_its_neighbour(self, tiny_dataset,
                                                         gate):
        # Regression: collation stacked every member's labels, so one
        # request whose ``y`` had another width raised in np.stack and
        # failed every ticket of the micro-batch it joined.
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        sizes = []
        predict = service.predict

        def recording_predict(graphs, spec, batch_size=None):
            sizes.append(len(graphs))
            return predict(graphs, spec, batch_size)

        service.predict = recording_predict
        neighbour = tiny_dataset.graphs[0]
        odd = tiny_dataset.graphs[2].copy()
        odd.y = np.zeros(3)
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as srv:
            held = gate.hold(srv, tiny_dataset.graphs[1], SPEC_A)
            transport = InProcessTransport(srv)
            seqs = [transport.submit(g, SPEC_A) for g in (neighbour, odd)]
            gate.open()
            srv.flush()
            held[0].wait(30)
            replies = [transport.result(seq, timeout_s=30) for seq in seqs]
        assert sizes == [1, 2]  # the held request, then one shared bucket
        assert all("error" not in reply for reply in replies)
        # Each row is bit-identical to a serial replay of the micro-batch.
        replay = predict([neighbour, odd], SPEC_A)
        for reply, row in zip(replies, replay):
            np.testing.assert_array_equal(reply["logits"], row)

    def test_stats_are_json_safe(self, server):
        stats = InProcessTransport(server).stats()
        json.dumps(stats)  # numpy scalars would raise
        assert stats["server"]["workers"] == 2

    def test_ticket_window_drops_only_resolved(self, tiny_dataset,
                                               monkeypatch):
        monkeypatch.setattr(transport_module, "TICKET_WINDOW", 3)
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        with InferenceServer(service, num_workers=1, max_batch_size=2,
                             max_delay=10_000, tick_interval_s=None) as srv:
            transport = InProcessTransport(srv)
            seqs = [transport.submit(g, SPEC_A)
                    for g in tiny_dataset.graphs[:8]]
            srv.flush()
            for seq in seqs:
                transport.result(seq, timeout_s=30)  # one-shot claims
            # Claimed tickets leave the window; nothing unresolved lingers.
            assert len(transport.protocol._tickets) <= 3
            with pytest.raises(TransportError, match="unknown or expired"):
                transport.result(seqs[0])  # already claimed


class TestAdmission:
    """A malformed ``timeout_s`` or spec is a TransportError (HTTP 400)
    raised before anything is queued — not a 500 from deep in the wait,
    a 504, or a failed micro-batch."""

    @pytest.mark.parametrize("timeout_s", BAD_TIMEOUTS, ids=repr)
    def test_predict_rejects_bad_timeout_before_queueing(self, tiny_dataset,
                                                         idle_server,
                                                         timeout_s):
        transport = InProcessTransport(idle_server)
        with pytest.raises(TransportError, match="timeout_s"):
            transport.predict(tiny_dataset.graphs[0], SPEC_A,
                              timeout_s=timeout_s)
        assert idle_server.router.pending == 0

    @pytest.mark.parametrize("timeout_s", BAD_TIMEOUTS, ids=repr)
    def test_result_rejects_bad_timeout(self, tiny_dataset, idle_server,
                                        timeout_s):
        transport = InProcessTransport(idle_server)
        seq = transport.submit(tiny_dataset.graphs[0], SPEC_A)
        with pytest.raises(TransportError, match="timeout_s"):
            transport.result(seq, timeout_s=timeout_s)
        assert transport.result(seq)["pending"] is True  # still claimable

    @pytest.mark.parametrize("field, value", BAD_SPEC_FIELDS, ids=BAD_SPEC_IDS)
    def test_submit_rejects_spec_outside_space_before_queueing(
            self, tiny_dataset, idle_server, field, value):
        transport = InProcessTransport(idle_server)
        spec = dict(spec_to_payload(SPEC_A), **{field: value})
        with pytest.raises(TransportError, match=field):
            transport.request("submit", {
                "graph": graph_to_payload(tiny_dataset.graphs[0]),
                "spec": spec})
        assert idle_server.router.pending == 0


class TestResultClaim:
    """The one-shot claim must be atomic and must cover failed tickets."""

    def test_concurrent_pollers_exactly_one_claim(self, tiny_dataset):
        # Regression: handle_result used to check done-ness and then
        # delete the ticket in a separate lock section, so two pollers
        # racing on a resolved seq could both deliver (or crash on the
        # second delete).  The pop under the window lock must pick
        # exactly one winner.
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        with InferenceServer(service, num_workers=1, max_batch_size=2,
                             max_delay=10_000, tick_interval_s=None) as srv:
            transport = InProcessTransport(srv)
            seq = transport.submit(tiny_dataset.graphs[0], SPEC_A)
            srv.flush()
            transport.result(seq, timeout_s=30)  # poll once -> resolved...
            # ...but claimed!  Re-submit to race on a fresh resolved seq.
            seq = transport.submit(tiny_dataset.graphs[1], SPEC_A)
            srv.flush()

            outcomes = []
            barrier = threading.Barrier(8)

            def poll():
                barrier.wait()
                try:
                    outcomes.append(("ok", transport.result(seq, timeout_s=30)))
                except TransportError as err:
                    outcomes.append(("expired", str(err)))

            threads = [threading.Thread(target=poll) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        wins = [reply for tag, reply in outcomes if tag == "ok"]
        assert len(wins) == 1, f"{len(wins)} pollers claimed seq {seq}"
        assert "logits" in wins[0] and wins[0]["seq"] == seq
        assert sum(tag == "expired" for tag, _ in outcomes) == 7

    def test_failed_ticket_is_claimed_not_wedged(self, tiny_dataset,
                                                 failing_service):
        # Regression: a failed micro-batch used to raise out of
        # handle_result *before* the ticket left the window, so the seq
        # wedged there re-raising forever (and, over HTTP, burning a 500
        # per poll).  The error must be delivered as a one-shot claim.
        with InferenceServer(failing_service, num_workers=1, max_batch_size=2,
                             max_delay=10_000, tick_interval_s=None) as srv:
            transport = InProcessTransport(srv)
            seq = transport.submit(tiny_dataset.graphs[0], SPEC_A)
            srv.flush()
            reply = transport.result(seq, timeout_s=30)
            assert reply["seq"] == seq
            assert "error" in reply and "logits" not in reply
            # the claim emptied the window — the seq is gone, not wedged
            with pytest.raises(TransportError, match="unknown or expired"):
                transport.result(seq)

    def test_json_safe_numpy_bools(self):
        # Regression: _json_safe missed np.bool_ (not an np.integer
        # subclass), so a stats tree containing one blew up json.dumps.
        from types import SimpleNamespace

        from repro.serve.transport import _json_safe

        tree = {
            "running": np.bool_(True),
            "flags": [np.bool_(False), np.True_],
            "count": np.int64(3),
            "ratio": np.float32(0.5),
            "mask": np.array([True, False]),
        }
        safe = json.loads(json.dumps(_json_safe(tree)))
        assert safe["running"] is True
        assert safe["flags"] == [False, True]
        assert safe["count"] == 3 and abs(safe["ratio"] - 0.5) < 1e-9
        assert safe["mask"] == [True, False]
        # and through the stats handler, end to end
        from repro.serve.transport import ServingProtocol

        protocol = ServingProtocol(SimpleNamespace(stats=lambda: tree))
        json.dumps(protocol.handle("stats", {}))


class TestHandlerErrorBoundary:
    """The HTTP handler's catch-all must never swallow interpreter exits."""

    @staticmethod
    def _bare_handler(raise_err):
        """A ``_Handler`` with no socket: stubbed core + reply collector."""
        from types import SimpleNamespace

        class _Core:
            def handle(self, op, payload):
                raise raise_err

        handler = _Handler.__new__(_Handler)
        handler.server = SimpleNamespace(serving_protocol=_Core())
        handler.replies = []
        handler._reply = lambda status, body: handler.replies.append(
            (status, body))
        return handler

    def test_plain_exception_maps_to_500(self):
        handler = self._bare_handler(RuntimeError("boom"))
        handler._dispatch("predict", {})
        assert handler.replies == [(500, {"error": "RuntimeError: boom"})]

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interpreter_exits_propagate(self, exc_type):
        handler = self._bare_handler(exc_type())
        with pytest.raises(exc_type):
            handler._dispatch("predict", {})
        assert handler.replies == []  # no 500 written for a dying process

    def test_transport_and_timeout_mapping_unchanged(self):
        handler = self._bare_handler(TransportError("bad request"))
        handler._dispatch("predict", {})
        assert handler.replies == [(400, {"error": "bad request"})]
        handler = self._bare_handler(TimeoutError("too slow"))
        handler._dispatch("predict", {})
        assert handler.replies == [(504, {"error": "too slow"})]


class TestHTTPTransport:
    def test_predict_round_trip(self, tiny_dataset, server, reference):
        with HTTPServingTransport(server, port=0) as http:
            client = HTTPServingClient(http.url)
            graph = tiny_dataset.graphs[2]
            logits = client.predict(graph, SPEC_A, timeout_s=30)
            ref = reference.predict([graph], SPEC_A, batch_size=1)
            assert np.array_equal(logits, ref[0])

    def test_submit_result_stats_endpoints(self, tiny_dataset, server):
        with HTTPServingTransport(server, port=0) as http:
            client = HTTPServingClient(http.url)
            seq = client.submit(tiny_dataset.graphs[3], SPEC_A)
            reply = client.result(seq, timeout_s=30)
            assert reply["seq"] == seq and "logits" in reply
            stats = client.stats()
            assert stats["server_router"]["served"] >= 1
            # GET /stats works too (the curl-able endpoint)
            with urllib.request.urlopen(f"{http.url}/stats", timeout=10) as resp:
                assert json.loads(resp.read())["server"]["running"] is True

    def test_error_status_codes(self, tiny_dataset, server):
        with HTTPServingTransport(server, port=0) as http:
            client = HTTPServingClient(http.url)
            with pytest.raises(RuntimeError, match=r"\(400\)"):
                client.result(10_000_000)  # unknown seq
            request = urllib.request.Request(f"{http.url}/predict",
                                             data=b"not json", method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{http.url}/nope", timeout=10)
            assert err.value.code == 404

    def test_malformed_admission_maps_to_400(self, tiny_dataset, idle_server):
        graph = graph_to_payload(tiny_dataset.graphs[0])
        spec = spec_to_payload(SPEC_A)
        with HTTPServingTransport(idle_server, port=0) as http:
            client = HTTPServingClient(http.url)
            seq = client.submit(tiny_dataset.graphs[0], SPEC_A)
            cases = ([("predict", {"graph": graph, "spec": spec,
                                   "timeout_s": t}) for t in BAD_TIMEOUTS]
                     + [("result", {"seq": seq, "timeout_s": t})
                        for t in BAD_TIMEOUTS]
                     + [("submit", {"graph": graph,
                                    "spec": dict(spec, **{field: value})})
                        for field, value in BAD_SPEC_FIELDS])
            for op, payload in cases:
                with pytest.raises(RuntimeError, match=r"\(400\)"):
                    client._post(op, payload)
            assert client.stats()["server_router"]["pending"] == 1

    def test_predict_timeout_maps_to_504(self, tiny_dataset, gate):
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        # The one worker is held busy and the deadline ~ max_delay *
        # tick_interval = hours: nothing serves a lone request before the
        # client's tiny predict timeout expires.
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=5.0,
                             pre_execute=gate) as srv:
            gate.hold(srv, tiny_dataset.graphs[1], SPEC_A)
            with HTTPServingTransport(srv, port=0) as http:
                client = HTTPServingClient(http.url)
                with pytest.raises(RuntimeError, match=r"\(504\)"):
                    client.predict(tiny_dataset.graphs[0], SPEC_A,
                                   timeout_s=0.05)
            gate.open()

    def test_failed_batch_maps_to_500_and_result_claims_error(self, tiny_dataset,
                                                              failing_service):
        with InferenceServer(failing_service, num_workers=1, max_batch_size=1,
                             max_delay=1, tick_interval_s=0.001) as srv:
            with HTTPServingTransport(srv, port=0) as http:
                client = HTTPServingClient(http.url)
                with pytest.raises(RuntimeError, match=r"\(500\)"):
                    client.predict(tiny_dataset.graphs[0], SPEC_A, timeout_s=30)
                # submit/result path: the error arrives as a one-shot
                # claim dict, not a status blast, and then expires.
                seq = client.submit(tiny_dataset.graphs[1], SPEC_A)
                reply = client.result(seq, timeout_s=30)
                assert reply["seq"] == seq and "error" in reply
                with pytest.raises(RuntimeError, match=r"\(400\)"):
                    client.result(seq)

    @pytest.mark.parametrize("length, status", [
        ("-1", 400), ("twelve", 400), (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_refused_before_reading(self, server, length,
                                                       status):
        # Regression: the handler passed Content-Length to rfile.read
        # unchecked — -1 held the handler thread until the client hung up,
        # and a huge value was read straight into memory.  The refusal
        # must arrive without the client sending a body or disconnecting.
        with HTTPServingTransport(server, port=0) as http:
            with socket.create_connection((http.host, http.port),
                                          timeout=10) as sock:
                sock.sendall(("POST /stats HTTP/1.1\r\nHost: test\r\n"
                              f"Content-Length: {length}\r\n\r\n").encode())
                reply = b""
                while chunk := sock.recv(65536):  # server closes after it
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status}".encode()), head
            assert b"Connection: close" in head
            assert "error" in json.loads(body)
            # the handler is free again: a well-formed request still works
            assert HTTPServingClient(http.url).stats()["server"]["running"]

    def test_keep_alive_replies_do_not_wait_for_delayed_ack(self, server):
        # Regression: each reply left in two sends (headers, then body)
        # with Nagle's algorithm on, so on a keep-alive connection the
        # body waited for the client's delayed ACK — 20 sequential
        # requests took ~0.8 s.  Sent as one write with TCP_NODELAY, they
        # take a few milliseconds each.
        request = (b"POST /stats HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: 2\r\n\r\n{}")
        with HTTPServingTransport(server, port=0) as http:
            with socket.create_connection((http.host, http.port),
                                          timeout=10) as sock:
                started = time.perf_counter()
                for _ in range(20):
                    sock.sendall(request)
                    reply = b""
                    while b"\r\n\r\n" not in reply:
                        reply += sock.recv(65536)
                    head, _, body = reply.partition(b"\r\n\r\n")
                    length = int(re.search(rb"Content-Length: (\d+)",
                                           head).group(1))
                    while len(body) < length:
                        body += sock.recv(65536)
                    assert head.startswith(b"HTTP/1.1 200"), head
                    assert json.loads(body)["server"]["running"]
                elapsed = time.perf_counter() - started
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.2f} s"

    def test_client_keeps_one_connection_per_thread(self, server,
                                                    monkeypatch):
        # Regression: the urllib client opened a new TCP connection for
        # every call.  A "Connection: close" refusal (here a 413) must
        # not break the call after it: the client reconnects once.
        with HTTPServingTransport(server, port=0) as http:
            accepted = []
            process_request = http._httpd.process_request

            def counting(request, client_address):
                accepted.append(client_address)
                process_request(request, client_address)

            monkeypatch.setattr(http._httpd, "process_request", counting)
            client = HTTPServingClient(http.url)
            for _ in range(20):
                assert client.stats()["server"]["running"]
            assert len(accepted) == 1
            monkeypatch.setattr(transport_module, "MAX_BODY_BYTES", 64)
            with pytest.raises(RuntimeError, match=r"\(413\)"):
                client._post("stats", {"pad": "x" * 1000})
            assert client.stats()["server"]["running"]
            assert len(accepted) == 2
            client.close()  # the next call reconnects
            assert client.stats()["server"]["running"]
            assert len(accepted) == 3
            client.close()

    def test_stop_closes_open_keep_alive_connections(self, server):
        # Regression: stop() closed only the listening socket, so the
        # handler thread of an open keep-alive connection went on
        # answering requests after the transport had stopped.
        request = (b"POST /stats HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: 2\r\n\r\n{}")
        http = HTTPServingTransport(server, port=0).start()
        with socket.create_connection((http.host, http.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 200")
            http.stop()
            try:
                sock.sendall(request)
                answer = sock.recv(65536)
            except (ConnectionResetError, BrokenPipeError):
                answer = b""  # reset by the closed peer
            assert answer == b"", answer

    def test_dead_server_raises_typed_connection_error(self, tiny_dataset, server):
        from repro.serve import TransportConnectionError

        with HTTPServingTransport(server, port=0) as http:
            url = http.url
            client = HTTPServingClient(url, timeout_s=2.0)
            client.stats()  # alive
        # transport stopped: connection refused must surface as the typed
        # error the cluster router keys failover on, not a bare RuntimeError
        with pytest.raises(TransportConnectionError):
            client.stats()

    def test_concurrent_http_clients(self, tiny_dataset, server, reference):
        graphs = tiny_dataset.graphs
        expected = {id(g): reference.predict([g], SPEC_A, batch_size=1)[0]
                    for g in graphs[:6]}
        failures = []
        with HTTPServingTransport(server, port=0) as http:
            def client_thread(tid):
                try:
                    client = HTTPServingClient(http.url)
                    for i in range(4):
                        g = graphs[(tid + i) % 6]
                        logits = client.predict(g, SPEC_A, timeout_s=30)
                        # Batch composition under concurrency is nondeterministic,
                        # so allow micro-batch BLAS-shape float noise here; exact
                        # parity is pinned via batch replay in the stress suite.
                        if not np.allclose(logits, expected[id(g)], atol=1e-9):
                            failures.append((tid, i))
                except BaseException as err:
                    failures.append(repr(err))

            threads = [threading.Thread(target=client_thread, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures
