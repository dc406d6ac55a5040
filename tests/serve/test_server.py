"""End-to-end tests for the HTTP/JSON adapter (repro.serve.server).

Everything here goes over a real socket on a loopback ephemeral port — the
same path production traffic takes — via the keep-alive
:class:`repro.serve.ServiceClient`.
"""

import contextlib
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    EstimationResult,
    ObserveRequest,
    PipelineRequest,
    QTDAService,
    SweepRequest,
)
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.datasets import HighDimStreamConfig, generate_highdim_cloud_stream
from repro.datasets.point_clouds import circle_cloud
from repro.serve import (
    MAX_BODY_BYTES,
    QTDAServer,
    ServeConfig,
    ServiceClient,
    ServiceError,
    validate_stats_dict,
)

TRIANGLE = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


def estimate_request(**config_overrides):
    config = {"precision_qubits": 3, "shots": 100, "seed": 7}
    config.update(config_overrides)
    return EstimationRequest(simplices=TRIANGLE, k=1, config=config)


def with_config(**fields):
    """A schema-current estimate document whose config carries ``fields``."""
    body = estimate_request().as_dict()
    body["config"].update(fields)
    return body


@contextlib.contextmanager
def serve(**config_kwargs):
    """A live server on an ephemeral port plus a connected client."""
    server = QTDAServer(ServeConfig(port=0, **config_kwargs))
    with server:
        with ServiceClient(server.host, server.port, caller="test") as client:
            yield server, client


@pytest.fixture(scope="module")
def shared():
    """One server/client pair reused by the read-mostly tests (cheap setup)."""
    server = QTDAServer(ServeConfig(port=0))
    server.start()
    client = ServiceClient(server.host, server.port, caller="shared")
    yield server, client
    client.close()
    server.stop()


class TestRoutes:
    def test_health(self, shared):
        _server, client = shared
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["kinds"] == ["estimate", "pipeline", "sweep", "observe"]

    def test_estimate_round_trip(self, shared):
        _server, client = shared
        envelope = client.estimate(estimate_request())
        EstimationResult.validate_dict({k: v for k, v in envelope.items() if k != "coalesced"})
        assert envelope["payload"]["betti_rounded"] == 1
        assert envelope["coalesced"] is False

    def test_pipeline_round_trip(self, shared):
        _server, client = shared
        request = PipelineRequest(
            point_clouds=[circle_cloud(8, seed=0)],
            pipeline=PipelineConfig(epsilon=0.8, use_quantum=False),
        )
        envelope = client.pipeline(request)
        features = np.asarray(envelope["payload"]["features"])
        assert features.shape == (1, 2)

    def test_sweep_round_trip(self, shared):
        _server, client = shared
        request = SweepRequest(
            point_clouds=[circle_cloud(8, seed=0)],
            epsilons=(0.5, 0.9),
            pipeline=PipelineConfig(use_quantum=False),
        )
        envelope = client.sweep(request)
        assert np.asarray(envelope["payload"]["features"]).shape == (2, 1, 2)

    def test_observe_round_trip_is_stateful(self, shared):
        """The observe route reaches the streaming engine: windows complete
        as samples accumulate across requests to the same session."""
        _server, client = shared
        pipeline = PipelineConfig(use_quantum=False)
        signal = np.sin(np.linspace(0.0, 8.0 * np.pi, 64))

        def observe(samples):
            return client.observe(
                ObserveRequest(
                    samples=samples,
                    session="http-stream",
                    window_length=32,
                    stride=16,
                    epsilons=(0.5,),
                    pipeline=pipeline,
                )
            )

        first = observe(signal[:16])  # not enough for a window yet
        assert first["payload"]["windows"] == []
        second = observe(signal[16:48])
        assert len(second["payload"]["windows"]) >= 1
        assert second["coalesced"] is False  # observe never coalesces

    def test_stats_schema(self, shared):
        _server, client = shared
        client.estimate(estimate_request())
        stats = client.stats()
        validate_stats_dict(stats)  # the documented contract
        assert stats["requests"]["total"] >= 1
        assert "estimate" in stats["requests"]["by_route"]
        latency = stats["requests"]["by_route"]["estimate"]["latency_ms"]
        assert latency["count"] >= 1 and latency["p50_ms"] is not None

    def test_experiment_kind_not_served(self, shared):
        """Experiment requests are CLI-only; the route does not exist."""
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/experiment", {"schema_version": SCHEMA_VERSION})
        assert excinfo.value.status == 404


class TestErrorEnvelopes:
    def test_unknown_get_path(self, shared):
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.envelope["error"]["reason"] == "not_found"
        assert excinfo.value.envelope["schema_version"] == SCHEMA_VERSION

    def test_invalid_json_body(self, shared):
        server, _client = shared
        status, document, _headers = server.handle_post("estimate", b"{not json", "t")
        assert status == 400
        assert document["error"]["reason"] == "invalid_json"

    def test_missing_schema_version(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        del body["schema_version"]
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "missing_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]

    @pytest.mark.parametrize("version", [4, SCHEMA_VERSION + 1], ids=["previous", "future"])
    def test_unsupported_schema_version(self, shared, version):
        _server, client = shared
        body = estimate_request().as_dict()
        body["schema_version"] = version
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "unsupported_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]
        assert client.estimate(estimate_request())["payload"]["betti_rounded"] == 1

    def test_kind_route_mismatch(self, shared):
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.pipeline(estimate_request())  # estimate body on /v1/pipeline
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "kind_mismatch"

    def test_kind_defaults_to_route(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        del body["kind"]  # the route is authoritative when the body omits it
        assert client.estimate(body)["payload"]["betti_rounded"] == 1

    @pytest.mark.parametrize(
        "body,fragments",
        [
            ({"schema_version": SCHEMA_VERSION, "kind": "estimate", "k": 1}, ("exactly one",)),
            # Surface removed in schema 5: each is refused by the existing
            # validation, naming the field or listing what is available.
            (with_config(backend="noisy-density"), ("noisy-density", "statevector")),
            (with_config(use_purification=False), ("use_purification",)),
            (with_config(fuse_purified=True), ("fuse_purified",)),
            (with_config(devices=[0, 1]), ("devices",)),
            (with_config(shard_backend="device"), ("shard_backend", "process")),
            # Gone without a schema bump: as_dict never emitted the key.
            (with_config(noise_model=None), ("noise_model",)),
        ],
        ids=[
            "no-geometry",
            "noisy-density-backend",
            "use-purification",
            "fuse-purified",
            "devices",
            "device-shard-backend",
            "noise-model",
        ],
    )
    def test_invalid_request_document(self, shared, body, fragments):
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "invalid_request"
        message = excinfo.value.envelope["error"]["message"]
        for fragment in fragments:
            assert fragment in message
        # The refusal leaves the server serving.
        assert client.estimate(estimate_request())["payload"]["betti_rounded"] == 1

    def test_execution_failure_is_500(self, shared):
        """A request that validates but fails during execution returns a
        structured 500 — the worker thread survives."""
        _server, client = shared
        pipeline = PipelineConfig(use_quantum=False)

        def observe_body(window_length):
            return ObserveRequest(
                session="mismatch-session",
                window_length=window_length,
                stride=16,
                epsilons=(0.5,),
                pipeline=pipeline,
            ).as_dict()

        client.observe(observe_body(32))  # creates the session
        with pytest.raises(ServiceError) as excinfo:
            client.observe(observe_body(64))  # config mismatch: _session_for raises
        assert excinfo.value.status == 500
        assert excinfo.value.reason == "internal_error"
        assert client.health()["status"] == "ok"  # server is still alive


def raw_post(server, content_length, body=b""):
    """POST with a hand-written ``Content-Length``: ``(status, will_close, document)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/estimate")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, response.will_close, json.loads(response.read())
    finally:
        conn.close()


class TestBodyFraming:
    @pytest.mark.parametrize("declared", ["abc", "-5", "1.5", ""])
    def test_malformed_content_length_gets_structured_400(self, shared, declared):
        server, client = shared
        status, will_close, document = raw_post(server, declared, b"{}")
        assert status == 400
        assert will_close
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["error"]["reason"] == "invalid_content_length"
        # The server keeps serving: a well-formed request right after succeeds.
        assert client.estimate(estimate_request())["payload"]["betti_rounded"] == 1

    def test_oversized_content_length_gets_413_without_reading(self, shared):
        server, client = shared
        # No body is sent: if the server tried to read the declared bytes it
        # would block until the client's timeout instead of answering.
        started = time.monotonic()
        status, will_close, document = raw_post(server, str(MAX_BODY_BYTES + 1))
        assert time.monotonic() - started < 5.0
        assert status == 413
        assert will_close
        assert document["error"]["reason"] == "body_too_large"
        assert document["error"]["max_body_bytes"] == MAX_BODY_BYTES
        assert client.estimate(estimate_request())["payload"]["betti_rounded"] == 1

    def test_body_at_declared_length_is_served(self, shared):
        server, _client = shared
        body = json.dumps(estimate_request().as_dict()).encode("utf-8")
        status, will_close, document = raw_post(server, str(len(body)), body)
        assert status == 200
        assert not will_close
        assert document["payload"]["betti_rounded"] == 1


class TestQuotasOverHTTP:
    def test_quota_exhaustion_returns_429_with_retry_after(self):
        with serve(quota_rate=0.001, quota_burst=2.0) as (_server, client):
            client.estimate(estimate_request())
            client.estimate(estimate_request(seed=8))
            with pytest.raises(ServiceError) as excinfo:
                client.estimate(estimate_request(seed=9))
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "quota"
            assert excinfo.value.retry_after_s > 0

    def test_callers_are_isolated(self):
        with serve(quota_rate=0.001, quota_burst=1.0) as (server, _client):
            with ServiceClient(server.host, server.port, caller="alice") as alice, \
                 ServiceClient(server.host, server.port, caller="bob") as bob:
                alice.estimate(estimate_request())
                bob.estimate(estimate_request())  # bob's own bucket
                with pytest.raises(ServiceError) as excinfo:
                    alice.estimate(estimate_request(seed=8))
                assert excinfo.value.status == 429

    def test_rejections_show_up_in_stats(self):
        with serve(quota_rate=0.001, quota_burst=1.0) as (_server, client):
            client.estimate(estimate_request())
            with pytest.raises(ServiceError):
                client.estimate(estimate_request(seed=8))
            stats = client.stats()
            validate_stats_dict(stats)
            assert stats["queue"]["rejected_quota"] == 1
            assert stats["requests"]["errors"] == 1


class TestCoalescingOverHTTP:
    def test_concurrent_duplicates_coalesce(self):
        """N identical requests in flight together: one computes, the rest are
        marked coalesced; all payloads identical.

        The injected service's run() is slowed so the leader is guaranteed to
        still be executing when the other callers arrive (no cache to hide
        behind: both caches are disabled, coalescing does all the work).
        """
        service = QTDAService(result_cache_size=0, spectrum_cache_size=0)
        original_run = service.run
        run_count = threading.Semaphore(0)

        def slow_run(request):
            run_count.release()
            time.sleep(0.5)
            return original_run(request)

        service.run = slow_run
        server = QTDAServer(ServeConfig(port=0), service=service)
        server.start()
        try:
            request = estimate_request()
            n = 6
            envelopes, errors = [None] * n, [None] * n
            barrier = threading.Barrier(n, timeout=30.0)

            def call(index):
                try:
                    with ServiceClient(server.host, server.port, caller=f"c{index}") as client:
                        barrier.wait()
                        envelopes[index] = client.estimate(request)
                except Exception as exc:  # noqa: BLE001
                    errors[index] = exc

            threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert errors == [None] * n
            flags = [e["coalesced"] for e in envelopes]
            assert flags.count(True) >= 1  # duplicates rode along
            payloads = [e["payload"] for e in envelopes]
            assert all(p == payloads[0] for p in payloads)
            stats = server.stats()
            assert stats["coalescer"]["hits"] == flags.count(True)
            assert stats["coalescer"]["leaders"] == flags.count(False)
        finally:
            server.stop()
            service.close()

    def test_coalescing_disabled_stats(self):
        with serve(coalesce=False) as (_server, client):
            client.estimate(estimate_request())
            stats = client.stats()
            validate_stats_dict(stats)
            assert stats["coalescer"] == {"enabled": False}


class TestShardedOverHTTP:
    def test_process_sharded_request_matches_in_process_run(self):
        """A shard_backend='process' request served over HTTP is byte-identical
        (through JSON) to the same request run in-process — the acceptance
        criterion that sharding and serving compose without changing numbers."""
        request = EstimationRequest(
            simplices=TRIANGLE,
            k=1,
            config=QTDAConfig(
                precision_qubits=4, shots=300, seed=11, shards=2, shard_backend="process"
            ),
        )
        with QTDAService() as service:
            expected = service.run(request)
        expected_payload = json.loads(json.dumps(expected.as_dict()))["payload"]
        with serve() as (_server, client):
            envelope = client.estimate(request)
        assert envelope["payload"] == expected_payload
        assert envelope["payload"]["counts"] == expected_payload["counts"]  # full distribution


class TestHighDimStreamOverHTTP:
    def test_highdim_frames_estimate_consistently(self):
        """Frames of the rotating high-dimensional stream all report the
        circle's Betti numbers through the service."""
        frames = generate_highdim_cloud_stream(
            3, HighDimStreamConfig(shape="circle", ambient_dim=6, num_points=14, noise_std=0.01),
            seed=5,
        )
        with serve() as (_server, client):
            for frame in frames:
                envelope = client.estimate(
                    EstimationRequest(
                        points=frame, epsilon=0.6, k=1, compute_exact=True,
                        config={"precision_qubits": 4, "shots": 500, "seed": 3},
                    )
                )
                assert envelope["payload"]["exact_betti"] == 1


class TestLifecycle:
    def test_draining_returns_503_and_health_reflects_it(self):
        server = QTDAServer(ServeConfig(port=0))
        server.start()
        try:
            with ServiceClient(server.host, server.port) as client:
                client.estimate(estimate_request())
                server.admission.begin_drain()
                assert client.health()["status"] == "draining"
                with pytest.raises(ServiceError) as excinfo:
                    client.estimate(estimate_request(seed=8))
                assert excinfo.value.status == 503
                assert excinfo.value.reason == "draining"
        finally:
            server.stop()

    def test_stop_is_idempotent_and_closes_owned_service(self):
        server = QTDAServer(ServeConfig(port=0))
        server.start()
        server.stop()
        server.stop()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            server.service.submit(estimate_request())

    def test_injected_service_is_not_closed(self):
        with QTDAService() as service:
            server = QTDAServer(ServeConfig(port=0), service=service)
            server.start()
            server.stop()
            # The injected service stays usable: the caller owns its lifecycle.
            result = service.run(estimate_request())
            assert result.payload["betti_rounded"] == 1

    def test_connection_reuse_across_requests(self):
        """The client keeps one TCP connection across sequential requests."""
        with serve() as (_server, client):
            client.health()
            connection = client._connection
            client.estimate(estimate_request())
            assert client._connection is connection
