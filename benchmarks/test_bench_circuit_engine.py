"""Benchmark — the batched (``ensemble``) circuit route vs the legacy routes.

The faithful Fig. 6 backends used to simulate the maximally mixed input
either by purification (statevector on ``t + 2q`` qubits) or by density-
matrix evolution (a ``2^(t+q) x 2^(t+q)`` matrix, squared cost per gate).
The execution engine (DESIGN.md §11) evolves the ``2^q`` system basis states
as one ``(2^(t+q), 2^q)`` batched array with fused gates instead.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (a
48-dimensional Laplacian padded to 64), the ensemble route must beat the
density-matrix route by at least 5× — comparing medians of three
cold-fusion-cache runs of each — while agreeing with it to 1e-10 on the
readout distribution.  The purified route is timed for the JSON artefact but
does not gate (it loses to both on memory long before it loses on time).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.quantum.fusion import clear_fusion_cache

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
GATE = 5.0
COLD_RUNS = 3


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """A deterministic symmetric PSD matrix with a small kernel (rank dim-2).

    Twin of ``synthetic_laplacian`` in examples/circuit_engine.py (the
    example illustrates the routes this benchmark gates) — keep the
    construction in sync.
    """
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def _route_seconds(problem: EstimationProblem, engine: str):
    config = QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        delta=DELTA,
        backend="statevector",
        circuit_engine=engine,
    )
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact")
    return time.perf_counter() - start, result


def _cold_route_runs(problem: EstimationProblem, engine: str):
    """``COLD_RUNS`` timings of one route, each from an empty fusion cache."""
    runs = []
    for _ in range(COLD_RUNS):
        clear_fusion_cache()
        runs.append(_route_seconds(problem, engine))
    return [seconds for seconds, _ in runs], runs[-1][1]


@pytest.mark.benchmark(group="circuit-engine")
def test_bench_ensemble_route_speedup(benchmark, paper_scale, bench_json, bench_timing):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)

    # A cold fusion cache is part of the route's real cost (same convention
    # as the cold spectrum caches of the other benchmarks), so every gated
    # run starts from a cleared cache, and the gate compares medians of
    # COLD_RUNS such runs: one slow sample (the suite's previous benchmark
    # still holding the cores) cannot fail it alone.  The pedantic rerun
    # that feeds the pytest-benchmark table hits the warm fusion cache; its
    # timing is recorded separately so the artefact shows both regimes.
    ensemble_runs, ensemble = _cold_route_runs(problem, "ensemble")
    density_runs, density = _cold_route_runs(problem, "density")
    clear_fusion_cache()
    purified_seconds, purified = _route_seconds(problem, "purified")
    ensemble_cold = bench_timing(ensemble_runs)
    density_cold = bench_timing(density_runs)
    ensemble_seconds = ensemble_cold["median"]
    density_seconds = density_cold["median"]

    warm = benchmark.pedantic(
        lambda: _route_seconds(problem, "ensemble")[0], rounds=1, iterations=1
    )
    ensemble_warm_seconds = float(warm)

    speedup = density_seconds / ensemble_seconds
    agreement = float(np.max(np.abs(ensemble.distribution - density.distribution)))
    print()
    print(
        f"q=6 t={PRECISION}: ensemble median {ensemble_seconds:.3f}s of {COLD_RUNS} cold (warm "
        f"{ensemble_warm_seconds:.3f}s) | density {density_seconds:.3f}s | "
        f"purified {purified_seconds:.3f}s | speedup vs density {speedup:.1f}x | "
        f"max |Δp| {agreement:.2e} | fused gates {ensemble.fused_gates}"
    )
    bench_json(
        "circuit_engine",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "cold_runs": COLD_RUNS,
            "ensemble_seconds": ensemble_seconds,
            "ensemble_cold_seconds": ensemble_cold,
            "ensemble_warm_fusion_cache_seconds": ensemble_warm_seconds,
            "density_seconds": density_seconds,
            "density_cold_seconds": density_cold,
            "purified_seconds": purified_seconds,
            "speedup_vs_density": speedup,
            "max_distribution_delta": agreement,
            "fused_gates": ensemble.fused_gates,
            "gate": GATE,
        },
    )

    # Same science: all three routes prepare the same mixed-state readout.
    np.testing.assert_allclose(ensemble.distribution, density.distribution, atol=1e-10)
    np.testing.assert_allclose(purified.distribution, density.distribution, atol=1e-10)
    assert ensemble.engine_route == "ensemble"
    assert ensemble.fused_gates is not None
    # The acceptance criterion of the execution-engine PR.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the density-matrix route, measured {speedup:.1f}x"
    )
