"""Property-based tests for the TDA substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QTDAConfig
from repro.core.hamiltonian import SpectrumCache, build_hamiltonian, kernel_dimension
from repro.core.padding import pad_laplacian
from repro.datasets.point_clouds import circle_cloud
from repro.experiments.worked_example import appendix_complex
from repro.tda.betti import betti_number, betti_numbers, euler_characteristic
from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.tda.homology import betti_numbers_gf2
from repro.tda.laplacian import combinatorial_laplacian, laplacian_from_flag_arrays
from repro.tda.random_complexes import random_simplicial_complex
from repro.tda.rips import RipsComplex

complex_params = st.tuples(
    st.integers(min_value=3, max_value=9),      # number of vertices
    st.floats(min_value=0.1, max_value=0.9),    # edge probability
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_boundary_squared_is_zero(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    for k in range(1, complex_.dimension + 1):
        d_k = boundary_matrix(complex_, k)
        d_k1 = boundary_matrix(complex_, k + 1)
        if d_k.size and d_k1.size:
            assert np.allclose(d_k @ d_k1, 0.0)


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_euler_poincare_identity(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    numbers = betti_numbers(complex_)
    assert euler_characteristic(complex_) == sum((-1) ** k * b for k, b in enumerate(numbers))


@settings(max_examples=20, deadline=None)
@given(complex_params)
def test_betti_methods_agree(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    rank_betti = betti_numbers(complex_, method="rank")
    laplacian_betti = betti_numbers(complex_, method="laplacian")
    gf2_betti = betti_numbers_gf2(complex_)
    assert rank_betti == laplacian_betti == gf2_betti


@settings(max_examples=20, deadline=None)
@given(complex_params)
def test_laplacian_is_psd_and_padding_preserves_kernel(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed)
    k = 1
    if complex_.num_simplices(k) == 0:
        return
    laplacian = combinatorial_laplacian(complex_, k)
    eigenvalues = np.linalg.eigvalsh(laplacian)
    assert eigenvalues.min() >= -1e-8
    padded = pad_laplacian(laplacian)
    padded_zeros = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(padded.matrix)) < 1e-8))
    true_zeros = int(np.count_nonzero(np.abs(eigenvalues) < 1e-8))
    if padded.lambda_max > 0:
        assert padded_zeros == true_zeros


@settings(max_examples=15, deadline=None)
@given(complex_params)
def test_exact_infinite_precision_limit_recovers_betti(params):
    """With enough precision qubits the exact-backend estimate converges on β_k."""
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed)
    k = 1
    if complex_.num_simplices(k) == 0:
        return
    laplacian = combinatorial_laplacian(complex_, k)
    hamiltonian = build_hamiltonian(laplacian)
    betti = betti_numbers(complex_)[k] if k < len(betti_numbers(complex_)) else 0
    assert hamiltonian.zero_eigenvalue_count() == betti


# -- rank-based β_k versus the Δ_k kernel count ----------------------------------
#
# The estimator reports ``exact_betti`` as the kernel count of the
# small-Laplacian spectrum at ``zero_eigenvalue_atol`` (Eq. 6), not by
# rank-nullity on the boundary matrices.  These properties pin the two equal
# on random complexes and on the reference complexes, and pin the flag-array
# Laplacian the request path builds to the object-level one.

ZERO_ATOL = QTDAConfig().zero_eigenvalue_atol

cloud_params = st.tuples(
    st.integers(min_value=4, max_value=30),        # number of points
    st.floats(min_value=0.0, max_value=0.15),      # radial noise
    st.floats(min_value=0.0, max_value=1.5),       # grouping scale ε
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


def _kernel_count(complex_, k, cache=None):
    return kernel_dimension(combinatorial_laplacian(complex_, k), cache, ZERO_ATOL)


def _assert_rank_equals_kernel(complex_):
    cache = SpectrumCache()
    for k in (0, 1, 2):
        rank = betti_number(complex_, k, method="rank")
        assert _kernel_count(complex_, k) == rank, (k, complex_.f_vector())
        # Through a cache the count is read from the stored spectrum.
        assert _kernel_count(complex_, k, cache) == rank


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_rank_betti_equals_laplacian_kernel_count(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(
        n, edge_probability=p, max_dimension=3, seed=seed, ensure_nontrivial=False
    )
    _assert_rank_equals_kernel(complex_)


@pytest.mark.parametrize(
    "complex_",
    [
        appendix_complex(),
        SimplicialComplex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
        SimplicialComplex.from_maximal_simplices([(0, 1, 2)]),
    ],
    ids=["appendix", "hollow-triangle", "filled-triangle"],
)
def test_rank_betti_equals_kernel_count_on_reference_complexes(complex_):
    _assert_rank_equals_kernel(complex_)


@settings(max_examples=25, deadline=None)
@given(cloud_params)
def test_rank_betti_equals_kernel_count_on_noisy_circles(params):
    n, noise, epsilon, seed = params
    complex_ = RipsComplex.from_points(
        circle_cloud(n, noise=noise, seed=seed), epsilon, max_dimension=3
    ).complex()
    _assert_rank_equals_kernel(complex_)


@settings(max_examples=25, deadline=None)
@given(cloud_params, st.integers(min_value=0, max_value=2))
def test_flag_array_laplacian_equals_object_laplacian(params, max_dimension):
    n, noise, epsilon, seed = params
    rips = RipsComplex.from_points(circle_cloud(n, noise=noise, seed=seed), epsilon, max_dimension)
    arrays, complex_ = rips.flag_arrays(), rips.complex()
    for k in range(max_dimension + 1):
        assert arrays.num_simplices(k) == complex_.num_simplices(k)
        for sparse_format in (False, True):
            flag = laplacian_from_flag_arrays(arrays, k, sparse_format=sparse_format)
            dispatched = combinatorial_laplacian(arrays, k, sparse_format=sparse_format)
            reference = combinatorial_laplacian(complex_, k, sparse_format=sparse_format)
            if sparse_format:
                flag, dispatched, reference = flag.toarray(), dispatched.toarray(), reference.toarray()
            assert flag.shape == reference.shape
            assert np.array_equal(flag, reference)
            assert np.array_equal(dispatched, reference)
