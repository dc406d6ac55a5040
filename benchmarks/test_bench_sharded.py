"""Benchmark — process-sharded ensemble execution vs single-process.

The ensemble route's batch axis is embarrassingly parallel, and the sharded
executor (DESIGN.md §14) splits it across spawn-context CPU processes while
staying bit-identical to the unsharded engine.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (the
same 48-dimensional workload the circuit-engine benchmark uses), the
process-sharded route must beat the single-process route by at least 2× on
a machine with ≥ 4 cores — with byte-for-byte identical readout.  Machines
with fewer cores still measure and record, but only the core-rich
configuration is gated (CI's bench-smoke job provides it).

Both sides are measured at *steady state* (best of several warm requests):
a service pays pool spawn-up, circuit fusion, and the once-per-shard IR
shipment exactly once across its lifetime, so per-request latency is the
honest comparison.  The IR cache is what makes the sharded side viable at
this scale — warm requests ship a fingerprint and an index range, not the
megabyte of fused gate matrices.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.quantum.sharding import shutdown_shard_pools

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
GATE = 2.0
GATE_MIN_CORES = 4
CORES = os.cpu_count() or 1
REPEATS = 5  # best-of-N warm requests per side (steady-state latency)


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """Same deterministic workload as benchmarks/test_bench_circuit_engine.py."""
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def _route_seconds(problem: EstimationProblem, shards: int):
    config = QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        delta=DELTA,
        backend="statevector",
        circuit_engine="ensemble",
        shards=shards,
        shard_backend="process",
    )
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact")
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="sharded")
def test_bench_process_sharded_speedup(benchmark, paper_scale, bench_json):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)
    shards = min(GATE_MIN_CORES, max(2, CORES))

    # Warm every one-time *service* cost on both sides: the fusion cache
    # (shared convention with the circuit-engine benchmark's warm rerun),
    # the spawn-context worker pool, and the once-per-shard IR shipment into
    # the workers' fingerprint caches (see repro.quantum.sharding).  Two
    # sharded warm-ups so a worker that sat out the first round still gets
    # the plan before measurement starts.
    _route_seconds(problem, shards=1)
    _route_seconds(problem, shards=shards)
    _route_seconds(problem, shards=shards)

    single_seconds = min(_route_seconds(problem, shards=1)[0] for _ in range(REPEATS))
    sharded_seconds = min(_route_seconds(problem, shards=shards)[0] for _ in range(REPEATS))
    _, single = _route_seconds(problem, shards=1)
    _, sharded = _route_seconds(problem, shards=shards)
    warm = benchmark.pedantic(
        lambda: _route_seconds(problem, shards=shards)[0], rounds=1, iterations=1
    )

    speedup = single_seconds / sharded_seconds
    identical = bool(np.array_equal(sharded.distribution, single.distribution))
    gated = CORES >= GATE_MIN_CORES
    print()
    print(
        f"q=6 t={PRECISION} on {CORES} core(s): single {single_seconds:.3f}s | "
        f"{shards}-shard process {sharded_seconds:.3f}s (warm {float(warm):.3f}s) | "
        f"speedup {speedup:.2f}x | bit-identical {identical} | "
        f"gate {'armed' if gated else f'skipped (< {GATE_MIN_CORES} cores)'}"
    )
    bench_json(
        "sharded",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "cores": CORES,
            "shards": shards,
            "shard_backend": "process",
            "repeats": REPEATS,
            "single_process_seconds": single_seconds,
            "sharded_seconds": sharded_seconds,
            "sharded_warm_seconds": float(warm),
            "speedup": speedup,
            "bit_identical": identical,
            "gate": GATE,
            "gate_min_cores": GATE_MIN_CORES,
            "gate_armed": gated,
        },
    )

    # Same science, stronger than the usual 1e-10: the sharded route replays
    # the unsharded reduction byte for byte.
    assert identical, "sharded distribution diverged from the single-process bytes"
    assert sharded.shards == shards
    assert sharded.shard_backend == "process"
    assert (single.shards, single.shard_backend) == (None, None)
    if gated:
        # The acceptance criterion of the sharded-execution PR.
        assert speedup >= GATE, (
            f"expected >= {GATE}x over single-process on {CORES} cores, measured {speedup:.2f}x"
        )
    shutdown_shard_pools()

