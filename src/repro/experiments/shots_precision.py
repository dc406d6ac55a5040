"""Fig. 3 — absolute estimation error vs shots and precision qubits.

The paper draws 100 random simplicial complexes for each ``n ∈ {5, 10, 15}``,
estimates Betti numbers with the QPE algorithm for shots ``10^2 … 10^6`` and
1–10 precision qubits, and reports boxplots of the absolute error
``AE = |β̃_k - β_k|`` (Eq. 12).

The driver below reproduces that sweep.  The hot path is organised so the
expensive pieces are computed exactly once per complex:

1. Laplacian and the eigen-decomposition of the small ``|S_k| x |S_k|`` matrix
   (per complex, cached); padding and rescaling are applied analytically to
   the spectrum instead of rediagonalising the padded ``2^q x 2^q`` matrix;
2. the analytical QPE outcome distribution (per complex × precision setting);
3. multinomial shot sampling of that distribution (per complex × precision ×
   shots setting) — cheap even for 10^6 shots because only the total count of
   the all-zero outcome matters (a single binomial draw).

This matches the ``exact`` estimator backend; agreement of that backend with
the explicit circuit backends is established separately by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.hamiltonian import SpectrumCache, kernel_dimension, padded_spectrum
from repro.quantum.qpe import qpe_outcome_distribution
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.random_complexes import random_simplicial_complex
from repro.utils.ascii_plots import render_boxplot_table
from repro.utils.rng import SeedLike, as_rng, spawn_rngs


@dataclass
class ShotsPrecisionConfig:
    """Parameter grid of the Fig. 3 sweep.

    The defaults are a reduced grid that finishes in seconds while preserving
    the figure's qualitative shape; the paper's full grid is
    ``complex_sizes=(5, 10, 15)``, ``num_complexes=100``,
    ``shots_grid=(10**2, ..., 10**6)``, ``precision_grid=(1, ..., 10)``.
    """

    complex_sizes: Tuple[int, ...] = (5, 10, 15)
    num_complexes: int = 10
    shots_grid: Tuple[int, ...] = (10**2, 10**3, 10**4)
    precision_grid: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    homology_dimension: int = 1
    delta: float = 2.0 * np.pi * 0.9
    max_complex_dimension: int = 2
    seed: SeedLike = 1234
    #: Any registered estimator backend (repro.core.backends).  The default
    #: ``"exact"`` keeps the inline spectral fast path below; other names are
    #: resolved through the registry per (complex, precision) cell.
    backend: str = "exact"

    @classmethod
    def paper_scale(cls) -> "ShotsPrecisionConfig":
        """The exact grid reported in the paper (long-running)."""
        return cls(
            complex_sizes=(5, 10, 15),
            num_complexes=100,
            shots_grid=tuple(10**e for e in range(2, 7)),
            precision_grid=tuple(range(1, 11)),
        )


@dataclass
class ShotsPrecisionResult:
    """Absolute errors grouped by (n, shots, precision)."""

    config: ShotsPrecisionConfig
    #: errors[(n, shots, precision)] -> list of absolute errors (one per complex)
    errors: Dict[Tuple[int, int, int], List[float]] = field(default_factory=dict)

    def group(self, n: int, shots: int, precision: int) -> List[float]:
        return self.errors[(n, shots, precision)]

    def median_error(self, n: int, shots: int, precision: int) -> float:
        return float(np.median(self.errors[(n, shots, precision)]))

    def mean_error(self, n: int, shots: int, precision: int) -> float:
        return float(np.mean(self.errors[(n, shots, precision)]))

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable view (the service API's experiment payload).

        The tuple-keyed error groups are flattened to ``"n=..,shots=..,t=.."``
        string keys so the payload is JSON-serialisable as-is.
        """
        cfg = self.config
        return {
            "config": {
                "complex_sizes": list(cfg.complex_sizes),
                "num_complexes": cfg.num_complexes,
                "shots_grid": list(cfg.shots_grid),
                "precision_grid": list(cfg.precision_grid),
                "homology_dimension": cfg.homology_dimension,
                "delta": cfg.delta,
                "max_complex_dimension": cfg.max_complex_dimension,
                "seed": cfg.seed,
                "backend": cfg.backend,
            },
            "errors": {
                f"n={n},shots={shots},t={precision}": [float(e) for e in values]
                for (n, shots, precision), values in self.errors.items()
            },
            "trend_summary": error_trend_summary(self),
        }


def _sample_zero_probability(distribution: np.ndarray, shots: int, rng: np.random.Generator) -> float:
    """Empirical probability of the all-zero readout from ``shots`` samples.

    Only the count of outcome 0 matters, so a single binomial draw with
    ``p = distribution[0]`` is statistically identical to sampling the full
    multinomial and reading one cell — and stays O(1) even for 10^6 shots.
    """
    return float(rng.binomial(shots, float(distribution[0]))) / shots


def run_shots_precision_experiment(config: ShotsPrecisionConfig | None = None) -> ShotsPrecisionResult:
    """Run the Fig. 3 sweep and return the per-group absolute errors."""
    cfg = config if config is not None else ShotsPrecisionConfig()
    result = ShotsPrecisionResult(config=cfg)
    for key_n in cfg.complex_sizes:
        for key_shots in cfg.shots_grid:
            for key_precision in cfg.precision_grid:
                result.errors[(key_n, key_shots, key_precision)] = []

    rngs = spawn_rngs(cfg.seed, len(cfg.complex_sizes))
    cache = SpectrumCache()
    for n, rng in zip(cfg.complex_sizes, rngs):
        for _ in range(cfg.num_complexes):
            complex_ = random_simplicial_complex(
                n, max_dimension=cfg.max_complex_dimension, seed=rng
            )
            k = cfg.homology_dimension
            num_k = complex_.num_simplices(k)
            if num_k == 0:
                # β_k = 0 and the estimate is identically 0: error 0 everywhere.
                for shots in cfg.shots_grid:
                    for precision in cfg.precision_grid:
                        result.errors[(n, shots, precision)].append(0.0)
                continue
            laplacian = combinatorial_laplacian(complex_, k, sparse_format=True)
            # Ground truth β_k = dim ker Δ_k (Eq. 6), counted on the cached
            # spectrum the exact route diagonalises anyway.
            exact = kernel_dimension(laplacian, cache)
            if cfg.backend == "exact":
                # Analytical padded spectrum: only the small |S_k| x |S_k|
                # matrix is diagonalised (cached across repeated Laplacians),
                # and its eigenphases are shared across the precision grid.
                spectrum = padded_spectrum(laplacian, delta=cfg.delta, cache=cache)
                phases = spectrum.eigenphases()
                dim = 2**spectrum.num_qubits
                distributions = [
                    (qpe_outcome_distribution(phases, precision), dim)
                    for precision in cfg.precision_grid
                ]
            else:
                # Any other registered backend: one registry call per
                # precision setting yields the readout distribution.
                from repro.core.backends import EstimationProblem, get_backend
                from repro.core.config import QTDAConfig

                backend = get_backend(cfg.backend)
                problem = EstimationProblem(laplacian=laplacian, spectrum_cache=cache)
                distributions = []
                for precision in cfg.precision_grid:
                    config = QTDAConfig(
                        precision_qubits=precision, shots=None, delta=cfg.delta, backend=cfg.backend
                    )
                    outcome = backend.run(problem, config, rng)
                    distributions.append((outcome.distribution, 2**outcome.num_system_qubits))
            for precision, (distribution, dim) in zip(cfg.precision_grid, distributions):
                for shots in cfg.shots_grid:
                    p_zero = _sample_zero_probability(distribution, shots, rng)
                    estimate = dim * p_zero
                    result.errors[(n, shots, precision)].append(abs(estimate - exact))
    return result


def render_shots_precision_results(result: ShotsPrecisionResult) -> str:
    """Text boxplot tables, one block per complex size (mirroring Fig. 3a–c)."""
    blocks = []
    cfg = result.config
    for n in cfg.complex_sizes:
        groups = {}
        for shots in cfg.shots_grid:
            for precision in cfg.precision_grid:
                label = f"shots=1e{int(np.log10(shots))} t={precision}"
                groups[label] = result.errors[(n, shots, precision)]
        blocks.append(render_boxplot_table(groups, title=f"Fig. 3 analogue — n = {n} (absolute error |β̃ - β|)"))
    return "\n\n".join(blocks)


def error_trend_summary(result: ShotsPrecisionResult) -> Dict[str, object]:
    """Headline checks of the figure's qualitative claims.

    Returns a dictionary with, per complex size, the mean error at the
    smallest and largest resource settings — the paper's claims are that the
    error decreases when either shots or precision qubits increase, and that
    the error scale grows with ``n``.
    """
    cfg = result.config
    summary: Dict[str, object] = {}
    for n in cfg.complex_sizes:
        low = result.mean_error(n, cfg.shots_grid[0], cfg.precision_grid[0])
        high = result.mean_error(n, cfg.shots_grid[-1], cfg.precision_grid[-1])
        summary[f"n={n}"] = {"lowest_resources_mean_ae": low, "highest_resources_mean_ae": high}
    return summary
