"""Benchmark — the ``sparse-exact`` backend vs the dense ``exact`` path.

Two gates guard the sparse spectral backend (see DESIGN.md §5):

* *exactness at paper scale* — on the worked example and Table 1-style
  four-point windows the Laplacians sit far below the dense-fallback
  threshold, so ``sparse-exact`` must reproduce the ``exact`` backend's
  estimates **bit-identically**;
* *speed at engineering scale* — on a ~1000-simplex Rips complex (annulus,
  ``|S_1| = 1000``) the shift-invert partial-spectrum path must beat the
  dense ``eigvalsh`` path by at least 3×, while still rounding to the same
  Betti estimate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.estimator import QTDABettiEstimator
from repro.datasets.features import feature_rows_to_point_clouds
from repro.datasets.gearbox import generate_processed_gearbox_dataset
from repro.datasets.point_clouds import circle_cloud
from repro.experiments.worked_example import appendix_complex
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import RipsComplex, rips_complex

PRECISION = 5
DELTA = 6.0


def _estimator(backend: str) -> QTDABettiEstimator:
    # No spectrum cache: both paths must pay their full per-estimate cost.
    return QTDABettiEstimator(precision_qubits=PRECISION, shots=None, delta=DELTA, backend=backend)


def _large_sparse_laplacian(num_edges: int = 1000):
    """Δ_1 of an annulus Rips complex with ``num_edges`` 1-simplices."""
    points = num_edges // 4  # 4 neighbours per side -> |S_1| = 4 * points
    cloud = circle_cloud(points)
    epsilon = 2.0 * np.sin(4.0 * np.pi / points) + 1e-9
    complex_ = rips_complex(cloud, epsilon, max_dimension=2)
    laplacian = combinatorial_laplacian(complex_, 1, sparse_format=True)
    assert laplacian.shape[0] == num_edges
    return laplacian


def _interleaved_best_of(dense_call, sparse_call, repetitions: int = 5) -> tuple:
    """Best-of-``repetitions`` timings of both arms, run alternately.

    Alternating the arms exposes both to the same machine state instead of
    giving each its own stretch of time.
    """
    best = [np.inf, np.inf]
    values = [None, None]
    for _ in range(repetitions):
        for arm, call in enumerate((dense_call, sparse_call)):
            start = time.perf_counter()
            values[arm] = call()
            best[arm] = min(best[arm], time.perf_counter() - start)
    return best[0], values[0], best[1], values[1]


def test_bench_sparse_exact_matches_exact_on_paper_scale_complexes():
    """Bit-identical estimates on the worked example and Table 1 windows."""
    exact, sparse = _estimator("exact"), _estimator("sparse-exact")
    for k in (0, 1):
        a = exact.estimate(appendix_complex(), k)
        b = sparse.estimate(appendix_complex(), k)
        assert b.betti_estimate == a.betti_estimate, f"worked example k={k}"
        assert b.p_zero == a.p_zero

    features, _ = generate_processed_gearbox_dataset(num_rows=12, num_healthy=4, seed=3)
    clouds = feature_rows_to_point_clouds(features)
    for cloud in clouds[:6]:
        complex_ = RipsComplex.from_points(cloud, 1.0, max_dimension=2).complex()
        for k in (0, 1):
            if complex_.num_simplices(k) == 0:
                continue
            laplacian = combinatorial_laplacian(complex_, k, sparse_format=True)
            a = exact.estimate_from_laplacian(laplacian)
            b = sparse.estimate_from_laplacian(laplacian)
            assert b.betti_estimate == a.betti_estimate, f"table1 window k={k}"


@pytest.mark.benchmark(group="sparse-backend")
def test_bench_sparse_exact_speedup_on_large_complex(
    benchmark, paper_scale, bench_json, blas_single_thread
):
    num_edges = 2000 if paper_scale else 1000
    laplacian = _large_sparse_laplacian(num_edges)
    exact, sparse = _estimator("exact"), _estimator("sparse-exact")

    sparse_estimate = benchmark.pedantic(
        sparse.estimate_from_laplacian, args=(laplacian,), rounds=1, iterations=1
    )
    # One BLAS thread for both arms.  With two, the sparse arm's many small
    # BLAS calls (ARPACK, SuperLU) stall whenever the second core is busy,
    # and in full-suite runs the ratio swung between 2.3x and 4x.
    with blas_single_thread() as pinned_libraries:
        dense_seconds, dense_estimate, sparse_seconds, sparse_estimate = _interleaved_best_of(
            lambda: exact.estimate_from_laplacian(laplacian),
            lambda: sparse.estimate_from_laplacian(laplacian),
        )

    speedup = dense_seconds / sparse_seconds
    print()
    print(
        f"dense {dense_seconds * 1000:.1f} ms | sparse {sparse_seconds * 1000:.1f} ms | "
        f"speedup {speedup:.1f}x on a {num_edges}-simplex Laplacian"
    )
    bench_json(
        "sparse_backend",
        {
            "num_edges": num_edges,
            "precision_qubits": PRECISION,
            "dense_seconds": dense_seconds,
            "sparse_seconds": sparse_seconds,
            "speedup": speedup,
            "blas_threads": 1 if pinned_libraries else None,
            "gate": 3.0,
        },
    )
    # Same science: the surrogate spectrum rounds to the same estimate and
    # stays within a few hundredths of the full-spectrum value.
    assert sparse_estimate.betti_rounded == dense_estimate.betti_rounded
    assert sparse_estimate.betti_estimate == pytest.approx(
        dense_estimate.betti_estimate, abs=0.25
    )
    # The acceptance criterion of the sparse spectral backend.
    assert speedup >= 3.0, f"expected >= 3x over the dense path, measured {speedup:.1f}x"
