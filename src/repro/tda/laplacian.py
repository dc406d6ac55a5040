"""Combinatorial Laplacians.

The ``k``-th combinatorial Laplacian of a complex is

    Δ_k = ∂_k† ∂_k + ∂_{k+1} ∂_{k+1}†                    (Eq. 5)

a real, symmetric, positive semi-definite ``|S_k| x |S_k|`` matrix whose
kernel dimension equals the ``k``-th Betti number (Eq. 6).  The QTDA
algorithm estimates exactly that kernel dimension with QPE.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.tda.rips import FlagComplexArrays
from repro.utils.validation import check_integer


def combinatorial_laplacian(
    complex_: SimplicialComplex | FlagComplexArrays, k: int, sparse_format: bool = False
) -> np.ndarray | sparse.csr_matrix:
    """The combinatorial Laplacian ``Δ_k`` of ``complex_``.

    Returns a ``|S_k| x |S_k|`` matrix; when the complex has no
    ``k``-simplices the result is a ``0 x 0`` matrix (and ``β_k = 0``).
    :class:`~repro.tda.rips.FlagComplexArrays` go through
    :func:`laplacian_from_flag_arrays`, which builds the same matrix without
    per-simplex objects.
    """
    if isinstance(complex_, FlagComplexArrays):
        return laplacian_from_flag_arrays(complex_, k, sparse_format=sparse_format)
    k = check_integer(k, "k", minimum=0)
    num_k = complex_.num_simplices(k)
    if num_k == 0:
        return sparse.csr_matrix((0, 0)) if sparse_format else np.zeros((0, 0))
    d_k = boundary_matrix(complex_, k, sparse_format=True)
    d_k1 = boundary_matrix(complex_, k + 1, sparse_format=True)
    down = d_k.T @ d_k if d_k.shape[0] > 0 else sparse.csr_matrix((num_k, num_k))
    up = d_k1 @ d_k1.T if d_k1.shape[1] > 0 else sparse.csr_matrix((num_k, num_k))
    lap = (down + up).tocsr()
    if sparse_format:
        return lap
    return np.asarray(lap.todense(), dtype=float)


def laplacian_from_flag_arrays(arrays, k: int, sparse_format: bool = False) -> np.ndarray | sparse.csr_matrix:
    """``Δ_k`` straight from :class:`repro.tda.rips.FlagComplexArrays`.

    The array representation keeps the lexicographic simplex order of
    :class:`SimplicialComplex`, so this returns *exactly* the matrix
    :func:`combinatorial_laplacian` would build from the equivalent complex —
    without per-simplex Python objects on the batch engine's hot path.
    Supports ``k <= 2`` (the arrays hold nothing higher).
    """
    k = check_integer(k, "k", minimum=0)
    n = arrays.num_points
    edges = arrays.edges
    triangles = arrays.triangles
    num_k = arrays.num_simplices(k)
    if num_k == 0:
        return sparse.csr_matrix((0, 0)) if sparse_format else np.zeros((0, 0))
    if k == 0:
        # ∂_1 ∂_1ᵀ is the graph Laplacian: vertex degrees on the diagonal,
        # -1 per edge — built directly instead of via two sparse products
        # (same integer entries either way).
        dense = np.zeros((n, n))
        if len(edges):
            dense[edges[:, 0], edges[:, 1]] = -1.0
            dense[edges[:, 1], edges[:, 0]] = -1.0
            degrees = np.bincount(edges.reshape(-1), minlength=n).astype(float)
            np.fill_diagonal(dense, degrees)
        if sparse_format:
            return sparse.csr_matrix(dense)
        return dense
    elif k == 1:
        d1 = _flag_d1(edges, n)
        lap = (d1.T @ d1).tocsr()
        if len(triangles):
            d2 = _flag_d2(triangles, edges, n)
            lap = (lap + d2 @ d2.T).tocsr()
    elif k == 2:
        d2 = _flag_d2(triangles, edges, n)
        lap = (d2.T @ d2).tocsr()
    else:  # pragma: no cover - num_k == 0 for k > 2 always returns above
        raise ValueError("flag arrays hold no simplices above dimension 2")
    if sparse_format:
        return lap
    return np.asarray(lap.todense(), dtype=float)


def _flag_d1(edges: np.ndarray, num_points: int) -> sparse.csr_matrix:
    """``∂_1`` (shape ``(n, |S_1|)``): column for edge ``(i, j)`` is ``+1`` at ``j``, ``-1`` at ``i``."""
    m = len(edges)
    cols = np.repeat(np.arange(m), 2)
    rows = edges[:, ::-1].reshape(-1)  # (j, i) per column
    data = np.tile(np.array([1.0, -1.0]), m)
    return sparse.csr_matrix((data, (rows, cols)), shape=(num_points, m))


def _flag_d2(triangles: np.ndarray, edges: np.ndarray, num_points: int) -> sparse.csr_matrix:
    """``∂_2`` (shape ``(|S_1|, |S_2|)``): column for ``(a, b, c)`` hits faces ``(b,c), (a,c), (a,b)`` with signs ``+1, -1, +1``."""
    edge_codes = edges[:, 0] * num_points + edges[:, 1]
    t = len(triangles)
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    face_codes = np.stack([b * num_points + c, a * num_points + c, a * num_points + b], axis=1)
    rows = np.searchsorted(edge_codes, face_codes.reshape(-1))
    cols = np.repeat(np.arange(t), 3)
    data = np.tile(np.array([1.0, -1.0, 1.0]), t)
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(edges), t))


def combinatorial_laplacian_operator(
    complex_: SimplicialComplex | FlagComplexArrays, k: int, sparse_format: bool = True
):
    """``Δ_k`` wrapped as a :class:`repro.core.operators.LaplacianOperator`.

    The operator-returning variant of :func:`combinatorial_laplacian` for
    consumers that negotiate formats with estimator backends (sparse CSR by
    default — the boundary products are built sparse anyway, so the sparse
    operator is the zero-copy view).
    """
    # Imported lazily: repro.tda must stay importable without repro.core.
    from repro.core.operators import as_operator

    return as_operator(combinatorial_laplacian(complex_, k, sparse_format=sparse_format))


def laplacian_operator_from_flag_arrays(arrays, k: int, sparse_format: bool = True):
    """Operator-returning variant of :func:`laplacian_from_flag_arrays`."""
    from repro.core.operators import as_operator

    return as_operator(laplacian_from_flag_arrays(arrays, k, sparse_format=sparse_format))


def laplacian_spectrum(complex_: SimplicialComplex, k: int) -> np.ndarray:
    """Sorted eigenvalues of ``Δ_k`` (empty array when there are no ``k``-simplices)."""
    lap = combinatorial_laplacian(complex_, k)
    if lap.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(lap)


def laplacian_kernel_dimension(complex_: SimplicialComplex, k: int, atol: float = 1e-8) -> int:
    """Number of (numerically) zero eigenvalues of ``Δ_k`` — the Betti number ``β_k``."""
    spectrum = laplacian_spectrum(complex_, k)
    return int(np.count_nonzero(np.abs(spectrum) <= atol))


def hodge_decomposition_ranks(complex_: SimplicialComplex, k: int, atol: float = 1e-8) -> dict:
    """Ranks of the Hodge decomposition ``C_k = im ∂_{k+1} ⊕ im ∂_k† ⊕ ker Δ_k``.

    Returned as a dictionary with keys ``"gradient"`` (rank ∂_k),
    ``"curl"`` (rank ∂_{k+1}) and ``"harmonic"`` (dim ker Δ_k = β_k); their sum
    equals ``|S_k|``, which the property tests verify.
    """
    d_k = boundary_matrix(complex_, k)
    d_k1 = boundary_matrix(complex_, k + 1)
    rank_k = int(np.linalg.matrix_rank(d_k, tol=atol)) if d_k.size else 0
    rank_k1 = int(np.linalg.matrix_rank(d_k1, tol=atol)) if d_k1.size else 0
    harmonic = complex_.num_simplices(k) - rank_k - rank_k1
    return {"gradient": rank_k, "curl": rank_k1, "harmonic": int(harmonic)}
