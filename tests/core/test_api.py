"""Tests for the service-grade front door (repro.core.api / repro.api).

Covers the request layer (validation, immutability, hashability, wire-format
round trips), the result envelope (schema validation, JSON emission) and —
most importantly — the acceptance criterion that every legacy entry point is
expressible as a request and produces bit-identical numerics through the
service.
"""

import json

import numpy as np
import pytest

from repro.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    EstimationResult,
    ExperimentRequest,
    ObserveRequest,
    PipelineRequest,
    QTDAService,
    SweepRequest,
    deterministic_request,
    request_from_dict,
)
from repro.core.batch import BatchConfig, BatchFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.estimator import BettiEstimate, QTDABettiEstimator
from repro.core.pipeline import PipelineConfig, QTDAPipeline
from repro.datasets.point_clouds import circle_cloud
from repro.experiments.worked_example import APPENDIX_SIMPLICES
from repro.tda.betti import betti_number
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import FlagComplexArrays, RipsComplex

TRIANGLE = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


@pytest.fixture
def clouds():
    return [circle_cloud(10, seed=i) for i in range(3)]


@pytest.fixture
def quantum_pipeline():
    return PipelineConfig(
        epsilon=0.8, estimator=QTDAConfig(precision_qubits=3, shots=100, seed=3)
    )


# -- request layer --------------------------------------------------------------


class TestRequestValidation:
    def test_exactly_one_geometry_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            EstimationRequest(k=1)
        with pytest.raises(ValueError, match="exactly one"):
            EstimationRequest(k=1, simplices=TRIANGLE, points=((0.0, 0.0),), epsilon=1.0)

    def test_points_require_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            EstimationRequest(k=1, points=((0.0, 0.0), (1.0, 0.0)))

    def test_simplices_reject_cloud_only_fields(self):
        with pytest.raises(ValueError, match="point-cloud"):
            EstimationRequest(k=1, simplices=TRIANGLE, epsilon=1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            EstimationRequest(k=-1, simplices=TRIANGLE)

    def test_config_mapping_coerced(self):
        request = EstimationRequest(simplices=TRIANGLE, config={"shots": 5, "seed": 1})
        assert isinstance(request.config, QTDAConfig)
        assert request.config.shots == 5

    def test_geometry_normalised_to_tuples(self):
        request = EstimationRequest(
            k=1, points=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), epsilon=1.5
        )
        assert isinstance(request.points, tuple)
        assert all(isinstance(row, tuple) for row in request.points)

    def test_sweep_requires_epsilons(self):
        with pytest.raises(ValueError, match="epsilons"):
            SweepRequest(point_clouds=[circle_cloud(6, seed=0)], epsilons=())

    def test_pipeline_include_exact_needs_clouds(self):
        series = np.vstack([np.sin(np.linspace(0, 7, 40))] * 2)
        with pytest.raises(ValueError, match="include_exact"):
            PipelineRequest(time_series=series, include_exact=True)

    def test_experiment_name_validated(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentRequest(experiment="fig99")

    def test_requests_are_frozen(self):
        request = EstimationRequest(simplices=TRIANGLE)
        with pytest.raises(AttributeError):
            request.k = 2


class TestRequestHashingAndRoundTrip:
    def test_hashable_and_equal(self):
        a = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 7})
        b = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 7})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fingerprint_distinguishes_requests(self):
        a = EstimationRequest(simplices=TRIANGLE, k=0)
        b = EstimationRequest(simplices=TRIANGLE, k=1)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("build", [
        lambda: EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config={"shots": 10, "seed": 2}),
        lambda: EstimationRequest(points=circle_cloud(8, seed=1), epsilon=0.9, k=1),
        lambda: PipelineRequest(
            point_clouds=[circle_cloud(6, seed=0)],
            epsilon=0.7,
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=4)),
        ),
        lambda: SweepRequest(
            point_clouds=[circle_cloud(6, seed=0)],
            epsilons=(0.4, 0.8),
            pipeline=PipelineConfig(use_quantum=False),
        ),
        lambda: ExperimentRequest(
            experiment="timeseries",
            params={"num_samples_per_class": 2, "batch": BatchConfig().as_dict()},
        ),
        lambda: ObserveRequest(
            samples=np.sin(np.linspace(0.0, 4.0, 32)),
            session="wire-test",
            window_length=16,
            stride=4,
            epsilons=(0.3, 0.6),
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=5)),
        ),
        # Noise-rich config: per-gate strength overrides (pairs on the wire),
        # two-qubit channel, readout error, trajectory count.
        lambda: EstimationRequest(
            simplices=TRIANGLE,
            k=1,
            config=QTDAConfig(
                precision_qubits=2,
                shots=20,
                backend="statevector",
                circuit_engine="trajectory",
                noise_channel="depolarizing",
                noise_strength=0.01,
                noise_gate_strengths=(("h", 0.02), ("cp", 0.005)),
                noise_two_qubit_channel="two-qubit-depolarizing",
                noise_two_qubit_strength=0.03,
                readout_error=0.01,
                n_trajectories=4,
                seed=2,
            ),
        ),
        # Sharded config: the shard settings must survive the wire.
        lambda: EstimationRequest(
            simplices=TRIANGLE,
            k=1,
            config=QTDAConfig(shards=2, shard_backend="thread", seed=3),
        ),
    ])
    def test_wire_format_round_trip(self, build):
        """as_dict -> actual JSON bytes -> from_dict preserves equality and fingerprint.

        The serialisation goes through real ``bytes`` (encode/decode), the
        path an HTTP body takes — not just ``json.dumps``/``loads`` — so any
        type JSON cannot represent fails here rather than in production.
        """
        request = build()
        wire = json.dumps(request.as_dict()).encode("utf-8")
        data = json.loads(wire.decode("utf-8"))
        assert data["schema_version"] == SCHEMA_VERSION
        rebuilt = request_from_dict(data)
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()
        # And the round trip is idempotent: re-serialising produces the
        # byte-identical document (canonical field ordering, exact floats).
        assert json.dumps(rebuilt.as_dict()).encode("utf-8") == wire

    def test_float64_values_survive_json_bytes_exactly(self):
        """Awkward float64s (1/3, 1e-17, big magnitudes) round-trip exactly —
        JSON's repr-based emission is shortest-round-trip, so byte-level
        equality over HTTP is a sound assertion for the serve layer."""
        cloud = np.array(
            [[1.0 / 3.0, 2.0 / 7.0], [1e-17, 1e17], [np.pi, -np.e], [0.1 + 0.2, 0.0]]
        )
        request = EstimationRequest(points=cloud, epsilon=1.0 / 3.0, k=1)
        wire = json.dumps(request.as_dict()).encode("utf-8")
        rebuilt = request_from_dict(json.loads(wire.decode("utf-8")))
        assert rebuilt.points == request.points  # exact, not approximate
        assert rebuilt.epsilon == request.epsilon

    def test_noise_gate_strengths_normalise_identically_from_wire(self):
        """Mapping and pair-sequence spellings of noise_gate_strengths are the
        same request (same fingerprint) and survive JSON, which only has the
        pair-free object spelling."""
        as_pairs = EstimationRequest(
            simplices=TRIANGLE,
            config=QTDAConfig(noise_channel="depolarizing", noise_gate_strengths=(("h", 0.02),), seed=1),
        )
        as_mapping = EstimationRequest(
            simplices=TRIANGLE,
            config=QTDAConfig(noise_channel="depolarizing", noise_gate_strengths={"h": 0.02}, seed=1),
        )
        assert as_pairs == as_mapping
        assert as_pairs.fingerprint() == as_mapping.fingerprint()
        rebuilt = request_from_dict(json.loads(json.dumps(as_pairs.as_dict())))
        assert rebuilt.config.noise_gate_strengths == {"h": 0.02}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            request_from_dict({"kind": "nope"})

    def test_future_schema_version_rejected(self):
        data = EstimationRequest(simplices=TRIANGLE).as_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            request_from_dict(data)


# -- bit-identity with the legacy entry points ----------------------------------


class TestLegacyEquivalence:
    def test_estimator_entry_point(self):
        """QTDABettiEstimator.estimate == service.run(EstimationRequest)."""
        config = QTDAConfig(precision_qubits=4, shots=500, seed=7)
        legacy = QTDABettiEstimator(config).estimate(SimplicialComplex(APPENDIX_SIMPLICES), 1)
        with QTDAService() as service:
            result = service.run(
                EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config=config)
            )
        assert result.payload == legacy.as_dict()

    def test_pipeline_entry_point(self, clouds, quantum_pipeline):
        """QTDAPipeline.transform_point_clouds == service.run(PipelineRequest)."""
        legacy = BatchFeatureEngine(quantum_pipeline).transform_point_clouds(clouds)
        shim = QTDAPipeline(quantum_pipeline).transform_point_clouds(clouds)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(point_clouds=clouds, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)
        assert np.array_equal(shim, legacy)

    def test_pipeline_time_series_entry_point(self, quantum_pipeline):
        series = np.vstack([np.sin(np.linspace(0, 4 * np.pi, 60)) + 0.1 * i for i in range(3)])
        legacy = BatchFeatureEngine(quantum_pipeline).transform_time_series(series)
        shim = QTDAPipeline(quantum_pipeline).transform_time_series(series)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(time_series=series, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)
        assert np.array_equal(shim, legacy)

    def test_batch_sweep_entry_point(self, clouds, quantum_pipeline):
        """BatchFeatureEngine.sweep == service.run(SweepRequest)."""
        epsilons = (0.5, 0.8, 1.1)
        legacy = BatchFeatureEngine(quantum_pipeline).sweep(clouds, epsilons)
        with QTDAService() as service:
            result = service.run(
                SweepRequest(point_clouds=clouds, epsilons=epsilons, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)

    def test_features_and_exact_entry_point(self, clouds, quantum_pipeline):
        estimated, exact = BatchFeatureEngine(quantum_pipeline).features_and_exact(clouds)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(point_clouds=clouds, include_exact=True, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], estimated)
        assert np.array_equal(result.payload["exact"], exact)

    def test_experiment_driver_entry_point(self):
        """run_timeseries_classification == service.run(ExperimentRequest)."""
        from repro.experiments.gearbox_table1 import run_timeseries_classification

        params = {
            "num_samples_per_class": 3,
            "window_length": 200,
            "takens_stride": 24,
            "use_quantum": False,
            "seed": 7,
        }
        legacy = run_timeseries_classification(**params)
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="timeseries", params=params))
        assert result.payload["training_accuracy"] == legacy.training_accuracy
        assert result.payload["validation_accuracy"] == legacy.validation_accuracy
        assert result.payload["epsilon"] == legacy.epsilon
        assert "report" in result.payload


# -- the object-level request path, kept as a test oracle -------------------------


def object_level_oracle(request, spectrum_cache=None):
    """Payload of ``request`` on the object-level route the service used to take.

    The named test oracle for the request path: an object-level
    :class:`SimplicialComplex` (Python simplices, networkx cliques) from
    ``RipsComplex.complex()``, ``combinatorial_laplacian`` and a ground-truth
    ``exact_betti`` by rank-nullity on the boundary matrices
    (``betti_number``).  The service now builds point clouds as flag arrays
    and counts the kernel of the cached spectrum; its payloads must equal
    these exactly, shot counts included.
    """
    if request.simplices is not None:
        complex_ = SimplicialComplex(request.simplices)
    else:
        complex_ = RipsComplex.from_points(
            np.asarray(request.points, dtype=float), request.epsilon, request.max_dimension
        ).complex()
    estimator = QTDABettiEstimator(request.config, spectrum_cache=spectrum_cache)
    k = request.k
    exact = betti_number(complex_, k) if request.compute_exact else None
    if complex_.num_simplices(k) == 0:
        config = request.config
        return BettiEstimate(
            betti_estimate=0.0,
            betti_rounded=0,
            p_zero=0.0,
            num_system_qubits=0,
            precision_qubits=config.precision_qubits,
            shots=config.shots,
            backend=config.backend,
            exact_betti=exact,
            lambda_max=0.0,
            delta=config.delta,
        ).as_dict()
    laplacian = combinatorial_laplacian(
        complex_, k, sparse_format=estimator.operator_format == "sparse"
    )
    return estimator.estimate_from_laplacian(laplacian, exact_betti=exact).as_dict()


#: Backend configurations the request path must agree on with the oracle:
#: every spectral backend plus both statevector circuit routes.
ORACLE_CONFIGS = {
    "exact": dict(backend="exact"),
    "sparse-exact": dict(backend="sparse-exact"),
    "stochastic-trace": dict(backend="stochastic-trace"),
    "statevector-ensemble": dict(backend="statevector", circuit_engine="ensemble"),
    "statevector-ptm": dict(
        backend="statevector", noise_channel="depolarizing", noise_strength=0.01
    ),
}

#: Geometries: a noisy circle, ε = 0 (no edges), an all-duplicate cloud
#: (every point at distance 0) and an explicit complex.
ORACLE_GEOMETRIES = {
    "noisy-circle": dict(points=circle_cloud(8, noise=0.05, seed=3), epsilon=1.5),
    "epsilon-zero": dict(points=circle_cloud(6, noise=0.05, seed=4), epsilon=0.0),
    "all-duplicates": dict(points=np.ones((5, 2)), epsilon=0.5),
    "simplices": dict(simplices=APPENDIX_SIMPLICES),
}


class TestObjectLevelOracle:
    @pytest.mark.parametrize("geometry", sorted(ORACLE_GEOMETRIES))
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("backend", sorted(ORACLE_CONFIGS))
    def test_service_payload_equals_oracle(self, backend, k, geometry):
        config = QTDAConfig(
            precision_qubits=3, shots=256, delta=6.0, seed=11, **ORACLE_CONFIGS[backend]
        )
        request = EstimationRequest(k=k, config=config, **ORACLE_GEOMETRIES[geometry])
        with QTDAService(result_cache_size=0) as service:
            result = service.run(request)
            again = service.run(request)  # spectrum cache warm
        expected = object_level_oracle(request)
        assert result.payload == expected
        assert again.payload == expected
        if backend == "statevector-ptm" and expected["num_system_qubits"]:
            assert result.payload["engine_route"] == "ptm"

    def test_compute_exact_false_reports_no_ground_truth(self):
        request = EstimationRequest(
            k=1, compute_exact=False, config={"seed": 2}, **ORACLE_GEOMETRIES["noisy-circle"]
        )
        with QTDAService() as service:
            result = service.run(request)
        assert result.payload["exact_betti"] is None
        assert result.payload == object_level_oracle(request)

    @pytest.mark.parametrize("k, flag", [(0, True), (1, True), (2, False)])
    def test_build_complex_representation(self, k, flag):
        request = EstimationRequest(k=k, **ORACLE_GEOMETRIES["noisy-circle"])
        complex_ = request.build_complex()
        assert isinstance(complex_, FlagComplexArrays) is flag
        assert isinstance(complex_, SimplicialComplex) is not flag
        assert isinstance(
            EstimationRequest(k=k, simplices=TRIANGLE).build_complex(), SimplicialComplex
        )


# -- streaming sweeps -----------------------------------------------------------


class TestStreamSweep:
    def test_stream_matches_materialised_sweep(self, clouds, quantum_pipeline):
        epsilons = (0.5, 0.8, 1.1)
        request = SweepRequest(point_clouds=clouds, epsilons=epsilons, pipeline=quantum_pipeline)
        with QTDAService() as service:
            full = service.run(request)
            streamed = list(service.stream_sweep(request))
        assert [r.payload["epsilon"] for r in streamed] == list(epsilons)
        stacked = np.stack([r.payload["features"] for r in streamed])
        assert np.array_equal(stacked, full.payload["features"])

    def test_stream_is_incremental(self, clouds, quantum_pipeline):
        """Results arrive one scale at a time; early exit skips later work."""
        request = SweepRequest(
            point_clouds=clouds, epsilons=(0.5, 0.8, 1.1), pipeline=quantum_pipeline
        )
        with QTDAService() as service:
            stream = service.stream_sweep(request)
            first = next(stream)
            assert first.payload["epsilon_index"] == 0
            assert first.payload["num_epsilons"] == 3
            assert first.payload["features"].shape == (len(clouds), 2)
            stream.close()  # abandoning mid-sweep must not raise

    def test_stream_provenance_populated(self, clouds, quantum_pipeline):
        request = SweepRequest(point_clouds=clouds, epsilons=(0.5, 0.9), pipeline=quantum_pipeline)
        with QTDAService() as service:
            for result in service.stream_sweep(request):
                provenance = result.provenance
                assert provenance.backend == "exact"
                assert provenance.operator_format in ("dense", "sparse")
                assert provenance.request_fingerprint == request.fingerprint()
                assert provenance.wall_time_s >= 0.0
                assert provenance.seed == 3

    def test_stream_rejects_non_sweep_requests(self):
        with QTDAService() as service:
            with pytest.raises(TypeError, match="SweepRequest"):
                next(service.stream_sweep(EstimationRequest(simplices=TRIANGLE)))


# -- the result envelope --------------------------------------------------------


class TestResultEnvelope:
    def test_provenance_fields(self):
        config = QTDAConfig(precision_qubits=3, shots=None, seed=11, backend="stochastic-trace")
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config=config))
        provenance = result.provenance
        assert provenance.backend == "stochastic-trace"
        assert provenance.operator_format == "sparse"
        assert provenance.seed == 11
        assert provenance.betti_std is not None and provenance.betti_std > 0
        assert provenance.wall_time_s > 0
        assert not provenance.result_cache_hit

    def test_json_emission_validates(self):
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 5}))
        data = json.loads(result.to_json())
        EstimationResult.validate_dict(data)  # must not raise

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(kind="nope"), "kind"),
        (lambda d: d.update(payload=[1, 2]), "payload"),
        (lambda d: d["provenance"].pop("backend"), "missing"),
        (lambda d: d["provenance"].update(request_fingerprint="0" * 64), "fingerprint"),
    ])
    def test_schema_violations_rejected(self, mutate, match):
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 5}))
        data = json.loads(result.to_json())
        mutate(data)
        with pytest.raises(ValueError, match=match):
            EstimationResult.validate_dict(data)

    def test_spectrum_cache_deltas_surface(self):
        request = EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config={"seed": 1})
        with QTDAService(result_cache_size=0) as service:
            first = service.run(request)
            second = service.run(request)
        assert first.provenance.cache_misses >= 1
        assert second.provenance.cache_hits >= 1
        assert second.provenance.cache_misses == 0


# -- service behaviour ----------------------------------------------------------


class TestServiceBehaviour:
    def test_result_cache_serves_identical_requests(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": 9})
        with QTDAService() as service:
            first = service.run(request)
            second = service.run(request)
            assert not first.provenance.result_cache_hit
            assert second.provenance.result_cache_hit
            assert second.payload == first.payload
            assert service.stats["result_cache_hits"] == 1

    def test_unseeded_requests_bypass_result_cache(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": None})
        with QTDAService() as service:
            service.run(request)
            second = service.run(request)
        assert not second.provenance.result_cache_hit

    def test_classical_pipeline_is_cacheable_without_seed(self, clouds):
        request = PipelineRequest(
            point_clouds=clouds, pipeline=PipelineConfig(epsilon=0.8, use_quantum=False)
        )
        with QTDAService() as service:
            service.run(request)
            assert service.run(request).provenance.result_cache_hit

    def test_map_preserves_request_order(self, clouds, quantum_pipeline):
        requests = [
            EstimationRequest(simplices=TRIANGLE, k=0, config={"seed": 1}),
            PipelineRequest(point_clouds=clouds, pipeline=quantum_pipeline),
            EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 1}),
        ]
        with QTDAService(max_workers=3) as service:
            results = service.map(requests)
        assert [r.request for r in results] == requests
        assert results[0].payload["betti_rounded"] == 1  # β_0 of the hollow triangle
        assert results[2].payload["betti_rounded"] == 1  # β_1

    def test_submit_returns_future(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 2})
        with QTDAService() as service:
            future = service.submit(request)
            result = future.result(timeout=30)
        assert result.payload["betti_rounded"] == 1

    def test_closed_service_rejects_submissions(self):
        service = QTDAService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(EstimationRequest(simplices=TRIANGLE))

    def test_run_rejects_non_requests(self):
        with QTDAService() as service:
            with pytest.raises(TypeError):
                service.run({"kind": "estimate"})

    def test_run_dict_wire_entry_point(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 3})
        with QTDAService() as service:
            result = service.run_dict(json.loads(json.dumps(request.as_dict())))
        assert result.payload["betti_rounded"] == 1


class TestCacheIsolation:
    def test_cached_payload_arrays_are_not_aliased(self, clouds):
        """Mutating a returned feature matrix must not corrupt later cache hits."""
        pipeline = PipelineConfig(epsilon=0.8, use_quantum=False)
        request = PipelineRequest(point_clouds=clouds, pipeline=pipeline)
        with QTDAService() as service:
            first = service.run(request)
            pristine = first.payload["features"].copy()
            first.payload["features"] *= 100.0  # caller-side in-place scaling
            second = service.run(request)
        assert second.provenance.result_cache_hit
        assert np.array_equal(second.payload["features"], pristine)
        assert second.payload["features"] is not first.payload["features"]

    def test_pipeline_shim_returns_fresh_arrays(self, clouds, quantum_pipeline):
        pipeline = QTDAPipeline(quantum_pipeline)
        first = pipeline.transform_point_clouds(clouds)
        pristine = first.copy()
        first *= 100.0
        second = pipeline.transform_point_clouds(clouds)
        assert np.array_equal(second, pristine)


class TestExperimentParamValidation:
    def test_fig3_paper_scale_rejects_unknown_params(self):
        with QTDAService() as service:
            with pytest.raises(TypeError, match="backend"):
                service.run(
                    ExperimentRequest(
                        experiment="fig3", params={"paper_scale": True, "shot_grid": (10,)}
                    )
                )

    def test_classical_timeseries_provenance_backend(self):
        params = {
            "num_samples_per_class": 2,
            "window_length": 200,
            "takens_stride": 24,
            "use_quantum": False,
        }
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="timeseries", params=params))
        assert result.provenance.backend == "classical-exact"


class TestUnserialisableRequests:
    def test_service_runs_unserialisable_request_uncached(self):
        """A non-JSON experiment param (here a generator seed) executes fine;
        the request is just uncacheable and unfingerprinted."""
        params = {"shots": 50, "backend": "exact", "seed": np.random.default_rng(0)}
        request = ExperimentRequest(experiment="appendix", params=params)
        with QTDAService() as service:
            first = service.run(request)
            second = service.run(request)
        assert first.provenance.request_fingerprint == ""
        assert first.provenance.seed is None
        assert not second.provenance.result_cache_hit
        assert first.payload["estimate"]["betti_rounded"] == 1

    def test_observe_session_with_generator_seed_still_streams(self):
        """A generator seed leaves the session config unserialisable; the
        session still works, matching configs by trusting the caller."""
        pipeline = PipelineConfig(
            use_quantum=False, estimator=QTDAConfig(seed=np.random.default_rng(0))
        )

        def observe(samples):
            return ObserveRequest(
                samples=samples,
                session="generator-seeded",
                window_length=16,
                stride=4,
                epsilons=(0.3, 0.6),
                pipeline=pipeline,
            )

        signal = np.sin(np.linspace(0.0, 8.0, 48))
        with QTDAService() as service:
            first = service.run(observe(signal[:24]))
            second = service.run(observe(signal[24:]))
        assert first.provenance.request_fingerprint == ""
        # The second call continued the first call's session.
        assert second.payload["samples_seen"] == 48
        assert second.payload["windows_emitted"] == 9

    def test_experiment_batch_none_uses_defaults(self):
        params = {
            "num_rows": 16,
            "num_healthy": 6,
            "precision_grid": (2,),
            "batch": None,
            "seed": 5,
        }
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="table1", params=params))
        assert result.payload["rows"][0]["precision_qubits"] == 2


def test_unserialisable_request_is_still_hashable():
    """hash() must not raise for requests with a non-JSON param (set/dict use)."""
    request = ExperimentRequest(
        experiment="fig3", params={"seed": 1, "rng": np.random.default_rng(0)}
    )
    assert isinstance(hash(request), int)
    assert request in {request}
    with pytest.raises(TypeError, match="JSON"):
        request.fingerprint()


def test_fingerprint_is_memoised():
    request = EstimationRequest(simplices=TRIANGLE, config={"seed": 1})
    assert request.fingerprint() is request.fingerprint()


def test_appendix_json_carries_requested_drawing():
    params = {"shots": 50, "include_drawing": True, "seed": 1, "backend": "exact"}
    with QTDAService() as service:
        result = service.run(ExperimentRequest(experiment="appendix", params=params))
    assert isinstance(result.payload["circuit_drawing"], str)
    assert result.payload["circuit_drawing"].strip()


def test_unversioned_request_dict_rejected():
    """Documents without schema_version are rejected, never assumed current."""
    data = EstimationRequest(simplices=TRIANGLE).as_dict()
    del data["schema_version"]
    with pytest.raises(ValueError, match="schema_version"):
        request_from_dict(data)


def test_request_isolated_from_caller_config_mutation():
    """Mutating the caller's config after building a request must not change
    the request (or its memoised fingerprint / cache identity)."""
    config = QTDAConfig(shots=100, seed=1)
    request = EstimationRequest(simplices=TRIANGLE, config=config)
    before = request.fingerprint()
    config.shots = 10000
    assert request.config.shots == 100
    assert request.fingerprint() == before
    fresh = EstimationRequest(simplices=TRIANGLE, config=config)
    assert fresh.fingerprint() != before


def test_stream_sweep_validates_eagerly():
    """The type check fires at the call site, not at first iteration."""
    with QTDAService() as service:
        with pytest.raises(TypeError, match="SweepRequest"):
            service.stream_sweep(EstimationRequest(simplices=TRIANGLE))


# -- reuse predicate, geometry fingerprint, service lifecycle -------------------


class TestDeterministicRequest:
    def test_seeded_estimation_is_deterministic(self):
        assert deterministic_request(EstimationRequest(simplices=TRIANGLE, config={"seed": 1}))

    def test_unseeded_estimation_is_not(self):
        assert not deterministic_request(EstimationRequest(simplices=TRIANGLE, config={"seed": None}))

    def test_classical_pipeline_is_deterministic_without_seed(self, clouds):
        request = PipelineRequest(
            point_clouds=clouds, pipeline=PipelineConfig(epsilon=0.8, use_quantum=False)
        )
        assert deterministic_request(request)

    def test_observe_is_never_deterministic(self):
        request = ObserveRequest(
            session="s", window_length=8, epsilons=(0.5,),
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=1)),
        )
        assert not deterministic_request(request)

    def test_experiment_with_explicit_none_seed_is_not(self):
        assert not deterministic_request(
            ExperimentRequest(experiment="fig3", params={"seed": None})
        )
        assert deterministic_request(ExperimentRequest(experiment="fig3", params={}))

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(0), 1.0, "7"], ids=["generator", "float", "str"]
    )
    def test_experiment_with_non_integer_seed_is_not(self, seed):
        """Only an integer seed reproduces a run; anything else does not."""
        assert not deterministic_request(
            ExperimentRequest(experiment="fig3", params={"seed": seed})
        )

    def test_experiment_with_integer_seed_is_deterministic(self):
        for seed in (0, 5, np.int64(3)):
            assert deterministic_request(
                ExperimentRequest(experiment="fig3", params={"seed": seed})
            )

    def test_matches_service_result_cache_behaviour(self):
        """The predicate and the result cache must never disagree."""
        seeded = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 20, "seed": 9})
        unseeded = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 20, "seed": None})
        with QTDAService() as service:
            service.run(seeded)
            service.run(unseeded)
            assert service.run(seeded).provenance.result_cache_hit == deterministic_request(seeded)
            assert (
                service.run(unseeded).provenance.result_cache_hit
                == deterministic_request(unseeded)
            )


class TestGeometryFingerprint:
    def test_same_geometry_different_config_share_fingerprint(self):
        a = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 10, "seed": 1})
        b = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 9999, "seed": 2})
        assert a.fingerprint() != b.fingerprint()
        assert a.geometry_fingerprint() == b.geometry_fingerprint()

    def test_different_geometry_differs(self):
        a = EstimationRequest(simplices=TRIANGLE)
        b = EstimationRequest(simplices=APPENDIX_SIMPLICES)
        c = EstimationRequest(points=circle_cloud(8, seed=1), epsilon=0.9)
        assert len({a.geometry_fingerprint(), b.geometry_fingerprint(), c.geometry_fingerprint()}) == 3

    def test_memoised(self):
        request = EstimationRequest(simplices=TRIANGLE)
        assert request.geometry_fingerprint() is request.geometry_fingerprint()


class TestServiceLifecycle:
    def test_close_is_idempotent(self):
        service = QTDAService()
        service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 1}))
        service.close()
        service.close()  # second close must be a no-op, not an error
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(EstimationRequest(simplices=TRIANGLE))

    def test_services_registered_for_atexit_until_closed(self):
        import repro.core.api as api_module

        service = QTDAService()
        # The hook is registered lazily, on first service construction.
        assert api_module._ATEXIT_REGISTERED
        assert service in api_module._LIVE_SERVICES
        service.close()
        assert service not in api_module._LIVE_SERVICES

    def test_atexit_hook_closes_leaked_services(self):
        from repro.core.api import _LIVE_SERVICES, _close_live_services

        service = QTDAService()
        try:
            _close_live_services()  # what the interpreter-exit hook runs
            assert service not in _LIVE_SERVICES
            with pytest.raises(RuntimeError, match="closed"):
                service.submit(EstimationRequest(simplices=TRIANGLE))
        finally:
            service.close()


def test_result_envelope_through_json_bytes():
    """The full envelope survives actual JSON bytes and re-validates."""
    request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": 5})
    with QTDAService() as service:
        result = service.run(request)
    wire = json.dumps(result.as_dict()).encode("utf-8")
    data = json.loads(wire.decode("utf-8"))
    EstimationResult.validate_dict(data)
    assert data["payload"]["betti_estimate"] == result.payload["betti_estimate"]
    assert data["provenance"]["request_fingerprint"] == request.fingerprint()
