"""Benchmark — a point-cloud estimate request on the flag-array path vs the object-level oracle.

An ``EstimationRequest`` with a point cloud used to build an object-level
Rips complex (Python simplices, networkx cliques), the object-level
Laplacian, and a second ground-truth ``β_k`` from dense SVDs of both
boundary matrices.  The request path now builds the flag-array complex and
Laplacian and reads ``exact_betti`` as the kernel count of the spectrum the
``exact`` backend already holds in the service's spectrum cache (DESIGN.md
§10).  The old route survives as ``object_level_oracle`` in
``tests/core/test_api.py``.

The gate: a warm exact-route request (noisy 80-point circle, ε = 0.75,
k = 1, t = 4, 4096 shots; spectrum cache warm for both routes) must be at
least 10× faster than the oracle, comparing medians of repeated runs, with
an identical payload, shot counts included.  The first (cold-cache) request
is recorded separately and does not gate.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.api import EstimationRequest, QTDAService
from repro.core.config import QTDAConfig
from repro.datasets.point_clouds import circle_cloud

# The oracle lives with the request-path tests it anchors.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "core"))
from test_api import object_level_oracle  # noqa: E402

NUM_POINTS = 80
EPSILON = 0.75
REPEATS = 7
ORACLE_REPEATS = 5
GATE = 10.0


def _request() -> EstimationRequest:
    return EstimationRequest(
        points=circle_cloud(NUM_POINTS, noise=0.05, seed=2023),
        epsilon=EPSILON,
        k=1,
        config=QTDAConfig(precision_qubits=4, shots=4096, seed=7),
    )


def _timed(call):
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


@pytest.mark.benchmark(group="request-path")
def test_bench_request_path_speedup(benchmark, bench_json, bench_timing):
    request = _request()
    # No result cache: every run re-executes, with the spectrum cache warm
    # after the first one.
    with QTDAService(result_cache_size=0) as service:
        cold_seconds, cold = _timed(lambda: service.run(request))
        runs = [_timed(lambda: service.run(request)) for _ in range(REPEATS)]
        oracle_runs = [
            _timed(lambda: object_level_oracle(request, service.spectrum_cache))
            for _ in range(ORACLE_REPEATS)
        ]
        warm = benchmark.pedantic(lambda: service.run(request), rounds=1, iterations=1)

    fast = bench_timing([seconds for seconds, _ in runs])
    oracle = bench_timing([seconds for seconds, _ in oracle_runs])
    speedup = oracle["median"] / fast["median"]
    expected = oracle_runs[0][1]
    num_edges = request.build_complex().num_simplices(1)
    print()
    print(
        f"{NUM_POINTS}-point circle, eps={EPSILON}, |S_1|={num_edges}: "
        f"flag-array request {fast['median'] * 1e3:.1f} ms (IQR {fast['iqr'] * 1e3:.1f}, "
        f"cold {cold_seconds * 1e3:.1f}) | object-level oracle {oracle['median'] * 1e3:.1f} ms "
        f"(IQR {oracle['iqr'] * 1e3:.1f}) | speedup {speedup:.1f}x"
    )
    bench_json(
        "request_path",
        {
            "num_points": NUM_POINTS,
            "epsilon": EPSILON,
            "k": 1,
            "precision_qubits": 4,
            "shots": 4096,
            "num_k_simplices": num_edges,
            "request_seconds": fast,
            "request_cold_seconds": cold_seconds,
            "oracle_seconds": oracle,
            "speedup": speedup,
            "gate": GATE,
        },
    )

    # Same science: the payloads are equal, ground truth and counts included.
    for result in [cold, warm] + [result for _, result in runs]:
        assert result.payload == expected
    assert all(payload == expected for _, payload in oracle_runs)
    assert expected["exact_betti"] == 1
    # ROADMAP item 3's bound on the warm 80-point request.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the object-level request path, measured {speedup:.1f}x"
    )
