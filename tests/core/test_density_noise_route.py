"""Tests for noisy runs on the exact density-matrix route and the noise parametrisation.

NISQ workloads are the ``statevector`` backend with a noise configuration;
``circuit_engine="density"`` pins them to the exact Kraus contraction of
the density-matrix simulator, which places channels through the same
``NoiseSpec.channels_for_gate`` as the PTM and trajectory routes.
"""

import numpy as np
import pytest

from repro.core.backends import EstimationProblem, get_backend
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.quantum.channels import NOISE_CHANNELS
from repro.tda.laplacian import combinatorial_laplacian


def _estimate(complex_, **config_kwargs):
    defaults = dict(
        precision_qubits=3,
        shots=None,
        delta=6.0,
        backend="statevector",
        circuit_engine="density",
    )
    defaults.update(config_kwargs)
    return QTDABettiEstimator(QTDAConfig(**defaults)).estimate(complex_, 1)


def test_noise_degrades_estimate_monotonically_in_strength(hollow_triangle):
    clean = _estimate(hollow_triangle)
    weak = _estimate(hollow_triangle, noise_channel="depolarizing", noise_strength=0.01)
    strong = _estimate(hollow_triangle, noise_channel="depolarizing", noise_strength=0.10)
    assert clean.engine_route == weak.engine_route == strong.engine_route == "density"
    assert weak.p_zero != pytest.approx(clean.p_zero, abs=1e-12)
    assert abs(weak.betti_estimate - clean.betti_estimate) < abs(
        strong.betti_estimate - clean.betti_estimate
    )
    # Noise perturbs but does not destroy the estimate at these strengths.
    assert abs(weak.betti_estimate - clean.betti_estimate) < 1.0


@pytest.mark.parametrize("channel", NOISE_CHANNELS)
def test_every_channel_is_runnable(hollow_triangle, channel):
    estimate = _estimate(hollow_triangle, noise_channel=channel, noise_strength=0.02)
    assert np.isfinite(estimate.betti_estimate)
    assert 0.0 <= estimate.p_zero <= 1.0


def test_zero_strength_channel_matches_noiseless_density_route(hollow_triangle):
    clean = _estimate(hollow_triangle)
    zero = _estimate(hollow_triangle, noise_channel="depolarizing", noise_strength=0.0)
    assert zero.engine_route == clean.engine_route == "density"
    assert zero.p_zero == pytest.approx(clean.p_zero, abs=1e-12)
    assert zero.betti_estimate == pytest.approx(clean.betti_estimate, abs=1e-10)


def test_unknown_noise_channel_error_lists_channels():
    with pytest.raises(ValueError, match="amplitude-damping"):
        QTDAConfig(noise_channel="cosmic-rays", noise_strength=0.1)


def test_noisy_run_with_shots_is_reproducible(hollow_triangle):
    kwargs = dict(
        precision_qubits=3,
        shots=200,
        delta=6.0,
        backend="statevector",
        circuit_engine="density",
        noise_channel="depolarizing",
        noise_strength=0.02,
        seed=42,
    )
    a = QTDABettiEstimator(QTDAConfig(**kwargs)).estimate(hollow_triangle, 1)
    b = QTDABettiEstimator(QTDAConfig(**kwargs)).estimate(hollow_triangle, 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 200


def test_noisy_run_through_pipeline(circle_points):
    from repro.core.pipeline import PipelineConfig, QTDAPipeline

    pipeline = QTDAPipeline(
        PipelineConfig(
            epsilon=0.7,
            estimator=QTDAConfig(
                precision_qubits=2,
                shots=None,
                backend="statevector",
                circuit_engine="density",
                noise_channel="depolarizing",
                noise_strength=0.01,
            ),
        )
    )
    features = pipeline.features_from_point_cloud(circle_points)
    assert features.shape == (2,)
    assert np.all(np.isfinite(features))


# Readout distribution and estimator p(0) of the density route on the hollow
# triangle (k=1, t=2, q=2, one Trotter step), captured when the density route
# still placed single-channel noise by its own per-qubit Kraus loop.  The
# NoiseSpec placement applies the same Kraus operators in the same order, so
# the values must match exactly.
_DENSITY_NOISE_CASES = {
    **{channel: dict(noise_channel=channel, noise_strength=0.02) for channel in NOISE_CHANNELS},
    "extended": dict(
        noise_channel="depolarizing",
        noise_strength=0.02,
        noise_gate_strengths={"CNOT": 0.05, "H": 0.0},
        noise_two_qubit_channel="correlated-zz",
        noise_two_qubit_strength=0.02,
    ),
}

_DENSITY_NOISE_PINS = {
    ("statevector", "amplitude-damping"): (
        (0.27279514506250535, 0.029964704353744136, 0.263066731711146, 0.4341734188726046),
        0.27279514506250535,
    ),
    ("statevector", "bit-flip"): (
        (0.2552155779398449, 0.04779303568461992, 0.2606716267440475, 0.4363197596314877),
        0.2552155779398449,
    ),
    ("statevector", "depolarizing"): (
        (0.2523901693319783, 0.05593665106198439, 0.2626694158177034, 0.42900376378833394),
        0.2523901693319783,
    ),
    ("statevector", "phase-flip"): (
        (0.2523143241681471, 0.059147051649409074, 0.26293739232838964, 0.4256012318540542),
        0.2523143241681471,
    ),
    ("statevector", "extended"): (
        (0.25378022889206997, 0.060070279206538964, 0.2610730605706297, 0.4250764313307614),
        0.25378022889206997,
    ),
    ("trotter", "amplitude-damping"): (
        (0.23684466639087462, 0.1919417482743919, 0.24689594976482443, 0.3243176355699092),
        0.23684466639087462,
    ),
    ("trotter", "bit-flip"): (
        (0.23205455072968462, 0.23446333745669054, 0.26318513566396257, 0.2702969761496623),
        0.23205455072968462,
    ),
    ("trotter", "depolarizing"): (
        (0.24439296090732826, 0.24147320265485833, 0.2525888219452807, 0.26154501449253276),
        0.24439296090732826,
    ),
    ("trotter", "phase-flip"): (
        (0.24627918219568642, 0.24415003377498273, 0.25258910788413963, 0.2569816761451912),
        0.24627918219568642,
    ),
    ("trotter", "extended"): (
        (0.2481458301685991, 0.24558371906683468, 0.25100563932736597, 0.2552648114372005),
        0.2481458301685991,
    ),
}


@pytest.mark.parametrize("backend,case", sorted(_DENSITY_NOISE_PINS), ids="-".join)
def test_density_route_noise_is_pinned(hollow_triangle, backend, case):
    expected_distribution, expected_p_zero = _DENSITY_NOISE_PINS[(backend, case)]
    config = QTDAConfig(
        precision_qubits=2,
        shots=None,
        delta=6.0,
        backend=backend,
        trotter_steps=1,
        circuit_engine="density",
        **_DENSITY_NOISE_CASES[case],
    )
    problem = EstimationProblem(laplacian=combinatorial_laplacian(hollow_triangle, 1))
    result = get_backend(backend).run(problem, config, np.random.default_rng(0))
    assert result.engine_route == "density"
    assert tuple(float(p) for p in result.distribution) == expected_distribution
    estimate = QTDABettiEstimator(config).estimate(hollow_triangle, 1)
    assert estimate.p_zero == expected_p_zero
