"""Benchmark — the fused-PTM noise route vs the density-matrix route under noise.

The PTM route (DESIGN.md §16) is the *exact* fast path for declarative
noise: every gate and attached channel becomes a real Pauli-transfer
matrix, adjacent PTMs fuse greedily into single superoperators, and one
``4^n`` Pauli vector is evolved instead of a ``2^n x 2^n`` density matrix.
No trajectories, no sampling spread — the answer must match the density
contraction to machine precision, at gate-fusion speed.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (the
same 48-dimensional workload Laplacian as the other circuit-engine
benchmarks) under per-gate-class depolarising noise, the warm PTM route
must beat the density-matrix route under noise by at least 5× while agreeing
with it to 1e-8 (absolute, per readout probability — an exactness pin,
not a statistical tolerance).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.utils.rng import as_rng

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
NOISE_STRENGTH = 0.002
GATE_STRENGTHS = {"c-U": 0.004, "H": 0.001}
GATE = 5.0
SEED = 2023


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """The same deterministic PSD workload as test_bench_circuit_engine.py."""
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
        noise_channel="depolarizing",
        noise_strength=NOISE_STRENGTH,
        noise_gate_strengths=GATE_STRENGTHS,
        seed=SEED,
    )
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact", rng=as_rng(config.seed))
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="ptm")
def test_bench_ptm_route_speedup(benchmark, paper_scale, bench_json):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)

    # Cold pass populates the program cache; the gate is measured warm
    # (cached fused program, steady-state allocator) because that is how
    # every run after the first executes in practice.
    cold_seconds, ptm = _route_seconds(problem, "ptm")
    density_seconds, density = _route_seconds(problem, "density")

    warm = benchmark.pedantic(
        lambda: _route_seconds(problem, "ptm")[0], rounds=1, iterations=1
    )
    ptm_warm_seconds = float(warm)

    dim = 2**6
    betti_ptm = dim * float(ptm.distribution[0])
    betti_density = dim * float(density.distribution[0])
    max_abs_diff = float(np.max(np.abs(ptm.distribution - density.distribution)))
    speedup = density_seconds / ptm_warm_seconds
    print()
    print(
        f"q=6 t={PRECISION} depolarizing p={NOISE_STRENGTH} "
        f"gate_strengths={GATE_STRENGTHS}: ptm {cold_seconds:.3f}s cold / "
        f"{ptm_warm_seconds:.3f}s warm ({ptm.fused_gates} fused superops) | "
        f"density {density_seconds:.3f}s | speedup {speedup:.1f}x | "
        f"betti {betti_ptm:.6f} vs density {betti_density:.6f} "
        f"(max |Δp| = {max_abs_diff:.2e})"
    )
    bench_json(
        "ptm",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "noise_channel": "depolarizing",
            "noise_strength": NOISE_STRENGTH,
            "noise_gate_strengths": dict(GATE_STRENGTHS),
            "ptm_cold_seconds": cold_seconds,
            "ptm_warm_seconds": ptm_warm_seconds,
            "density_seconds": density_seconds,
            "speedup_vs_density": speedup,
            "fused_superoperators": ptm.fused_gates,
            "betti_ptm": betti_ptm,
            "betti_density": betti_density,
            "max_abs_distribution_diff": max_abs_diff,
            "gate": GATE,
        },
    )

    assert ptm.engine_route == "ptm"
    assert ptm.fused_gates is not None and ptm.fused_gates > 0
    assert ptm.noise_spec is not None
    assert density.engine_route == "density"
    # Exactness pin: the PTM route is the same contraction in a different
    # basis — machine-precision agreement, no statistical tolerance.
    assert max_abs_diff <= 1e-8, (
        f"ptm and density distributions diverge by {max_abs_diff:.2e} (> 1e-8)"
    )
    # The acceptance criterion of the fused-PTM-route PR.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the density-matrix route under noise, measured {speedup:.1f}x"
    )
