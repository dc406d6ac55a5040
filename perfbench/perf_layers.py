"""The layers the traced run times, and the end-to-end metric each should move.

``SPAN_TARGETS`` maps a span name to the program entry points recorded under
it (``"module:qualname"``).  Every timed layer metric ``<span>_ms`` is the
*self time* of those spans: time inside the entry points minus time inside
other timed entry points they call.  The timed layers therefore partition
the server's ``handle_post`` time, and with ``serve.transport_ms`` they add
up to the client round trip.

``repro.quantum.sharding`` is left out: process sharding is slower than one
process on a 2-core machine, so its effect cannot show there.  The
``experiments``/``ml`` batch jobs are left out because the server does not
expose them.
"""

from __future__ import annotations

from typing import Dict, Tuple

_REQUEST_CLASSES = (
    "EstimationRequest",
    "PipelineRequest",
    "SweepRequest",
    "ExperimentRequest",
    "ObserveRequest",
)

SPAN_TARGETS: Dict[str, Tuple[str, ...]] = {
    "serve.handle_self": ("repro.serve.server:QTDAServer.handle_post",),
    "serve.coalescer_wait": ("repro.serve.coalescer:RequestCoalescer.execute",),
    "api.decode": ("repro.core.api:request_from_dict",),
    "api.fingerprint": tuple(f"repro.core.api:{cls}.fingerprint" for cls in _REQUEST_CLASSES)
    + ("repro.core.api:EstimationRequest.geometry_fingerprint",),
    "api.run_self": ("repro.core.api:QTDAService.run",),
    "api.encode": ("repro.core.api:EstimationResult.as_dict",),
    "tda.complex": (
        "repro.tda.rips:RipsComplex.from_points",
        "repro.tda.rips:RipsComplex.complex",
        "repro.tda.rips:flag_complex_arrays",
    ),
    "tda.laplacian": (
        "repro.tda.laplacian:combinatorial_laplacian",
        "repro.tda.laplacian:laplacian_from_flag_arrays",
    ),
    "tda.betti": ("repro.tda.betti:betti_number",),
    "estimator.self": ("repro.core.estimator:QTDABettiEstimator.estimate",),
    "backends.self": (
        "repro.core.backends.exact:ExactBackend.run",
        "repro.core.backends.sparse_exact:SparseExactBackend.run",
        "repro.core.backends.stochastic_trace:StochasticTraceBackend.run",
        "repro.core.backends.statevector:StatevectorBackend.run",
        "repro.core.backends.noisy_density:NoisyDensityBackend.run",
        "repro.core.backends.trotter:TrotterBackend.run",
    ),
    "hamiltonian.build": ("repro.core.hamiltonian:build_hamiltonian",),
    "hamiltonian.spectrum": ("repro.core.hamiltonian:SpectrumCache.spectrum",),
    "circuit.synthesis": ("repro.core.qtda_circuit:qtda_circuit",),
    "fusion.compile": (
        "repro.quantum.engine:EnsembleExecutor.gate_plan",
        "repro.quantum.ptm:PTMExecutor.program",
    ),
    "engine.evolve": (
        "repro.quantum.engine:EnsembleExecutor.basis_ensemble_distribution",
        "repro.quantum.engine:EnsembleExecutor.trajectory_basis_distribution",
    ),
    "ptm.evolve": ("repro.quantum.ptm:PTMExecutor.qtda_distribution",),
    "measurement.sample": ("repro.quantum.measurement:sample_counts",),
    "batch.features": (
        "repro.core.batch:BatchFeatureEngine.transform_point_clouds",
        "repro.core.batch:BatchFeatureEngine.features_and_exact",
        "repro.core.batch:BatchFeatureEngine.sweep",
    ),
    "batch.stream": ("repro.core.batch:StreamingFeatureEngine.extend",),
}

#: Root span of one request on the server.
ROOT_SPAN = "serve.handle_self"

#: Layer metric -> (end-to-end metrics it should move, workload it mostly
#: shows on, workload where it should not change).  "-" means none.
LAYER_MAP: Dict[str, Tuple[str, str, str]] = {
    "serve.transport_ms": ("latency_p50_ms, throughput_rps", "service-mix", "-"),
    "serve.server_ms": ("latency_p50_ms, server_cpu_ms_per_req", "all", "-"),
    "serve.handle_self_ms": ("latency_p90_ms, throughput_rps", "service-mix", "cloud-exact"),
    "serve.coalescer_wait_ms": ("latency_p90_ms, throughput_rps", "service-mix", "cloud-exact"),
    "serve.coalesced_ratio": ("latency_p90_ms, throughput_rps", "service-mix", "cloud-exact"),
    "serve.rejected_ratio": ("latency_p90_ms, throughput_rps", "service-mix", "cloud-exact"),
    "api.decode_ms": ("server_cpu_ms_per_req, latency_p50_ms", "service-mix", "circuit-noisy"),
    "api.fingerprint_ms": ("server_cpu_ms_per_req, latency_p50_ms", "service-mix", "circuit-noisy"),
    "api.run_self_ms": ("server_cpu_ms_per_req, latency_p50_ms", "service-mix", "circuit-noisy"),
    "api.encode_ms": ("server_cpu_ms_per_req, latency_p50_ms", "service-mix", "circuit-noisy"),
    "api.result_cache_hit_ratio": ("server_cpu_ms_per_req, latency_p50_ms", "service-mix", "circuit-noisy"),
    "tda.complex_ms": ("latency_p50_ms", "cloud-exact", "circuit-noisy"),
    "tda.laplacian_ms": ("latency_p50_ms", "cloud-exact", "circuit-noisy"),
    "tda.betti_ms": ("latency_p50_ms", "cloud-exact", "circuit-noisy"),
    "tda.k_simplices": ("latency_p50_ms", "cloud-exact", "circuit-noisy"),
    "estimator.self_ms": ("latency_p50_ms", "cloud-exact", "service-mix"),
    "backends.self_ms": ("latency_p50_ms", "cloud-exact", "service-mix"),
    "hamiltonian.build_ms": ("latency_p50_ms", "cloud-exact, circuit-noisy", "service-mix"),
    "hamiltonian.spectrum_ms": ("latency_p50_ms", "cloud-exact, circuit-noisy", "service-mix"),
    "hamiltonian.spectrum_hit_ratio": ("latency_p50_ms", "cloud-exact, circuit-noisy", "service-mix"),
    "circuit.synthesis_ms": ("latency_p50_ms", "circuit-noisy", "cloud-exact"),
    "fusion.compile_ms": ("latency_p50_ms", "circuit-noisy", "cloud-exact"),
    "fusion.cache_hit_ratio": ("latency_p50_ms", "circuit-noisy", "cloud-exact"),
    "fusion.fused_ops": ("latency_p50_ms", "circuit-noisy", "cloud-exact"),
    "engine.evolve_ms": ("latency_p50_ms, peak_rss_mb", "circuit-noisy", "cloud-exact"),
    "ptm.evolve_ms": ("latency_p50_ms, peak_rss_mb", "circuit-noisy", "cloud-exact"),
    "ptm.state_mb": ("latency_p50_ms, peak_rss_mb", "circuit-noisy", "cloud-exact"),
    "measurement.sample_ms": ("server_cpu_ms_per_req", "circuit-noisy", "-"),
    "batch.features_ms": ("latency_p90_ms", "service-mix", "cloud-exact"),
    "batch.stream_ms": ("latency_p90_ms", "service-mix", "cloud-exact"),
    "batch.stream_incremental_ratio": ("latency_p90_ms", "service-mix", "cloud-exact"),
    "trace.latency_p50_ms": ("tracing overhead against the untraced latency_p50_ms", "all", "-"),
}
