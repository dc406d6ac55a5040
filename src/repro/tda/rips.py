"""Vietoris–Rips complex construction (the GUDHI ``RipsComplex`` substitute).

Given a point cloud (or a precomputed distance matrix) and a grouping scale
``ε``, the Vietoris–Rips complex contains a ``k``-simplex for every set of
``k + 1`` points that are *pairwise* within ``ε``.  Equivalently, it is the
clique (flag) complex of the ε-neighbourhood graph — which is how it is built
here, reusing :func:`repro.tda.distances.epsilon_graph` and clique
enumeration on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.tda.complexes import SimplicialComplex
from repro.tda.distances import MetricLike, epsilon_graph, pairwise_distances
from repro.utils.validation import check_integer


@dataclass
class RipsComplex:
    """Vietoris–Rips complex of a point cloud at a fixed grouping scale.

    Attributes
    ----------
    distance_matrix:
        Symmetric ``(n, n)`` matrix of pairwise distances.
    epsilon:
        Grouping scale ``ε``; pairs at distance <= ``ε`` are connected.
    max_dimension:
        Largest simplex dimension to enumerate (2 is enough for ``β_0`` and
        ``β_1``, the features used throughout the paper).
    """

    distance_matrix: np.ndarray
    epsilon: float
    max_dimension: int = 2
    _complex: Optional[SimplicialComplex] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dist = np.asarray(self.distance_matrix, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance_matrix must be a square matrix")
        if not np.allclose(dist, dist.T, atol=1e-9):
            raise ValueError("distance_matrix must be symmetric")
        if float(self.epsilon) < 0:
            raise ValueError("epsilon must be non-negative")
        self.distance_matrix = dist
        self.epsilon = float(self.epsilon)
        self.max_dimension = check_integer(self.max_dimension, "max_dimension", minimum=0)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        epsilon: float,
        max_dimension: int = 2,
        metric: MetricLike = "euclidean",
    ) -> "RipsComplex":
        """Build from an ``(n, m)`` point cloud using ``metric`` distances."""
        return cls(pairwise_distances(points, metric=metric), epsilon, max_dimension)

    @classmethod
    def from_distance_matrix(
        cls, distance_matrix: np.ndarray, epsilon: float, max_dimension: int = 2
    ) -> "RipsComplex":
        """Build from a precomputed distance matrix."""
        return cls(np.asarray(distance_matrix, dtype=float), epsilon, max_dimension)

    # -- API --------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return int(self.distance_matrix.shape[0])

    def graph(self):
        """The ε-neighbourhood graph ``G_ε`` underlying the complex."""
        return epsilon_graph(self.distance_matrix, self.epsilon, is_distance_matrix=True)

    def complex(self) -> SimplicialComplex:
        """The simplicial complex ``K_ε`` (cached after the first call)."""
        if self._complex is None:
            self._complex = SimplicialComplex.from_graph(self.graph(), max_dimension=self.max_dimension)
        return self._complex

    def num_simplices(self, dimension: Optional[int] = None) -> int:
        """Simplex count of ``K_ε`` (all dimensions or a single one)."""
        return self.complex().num_simplices(dimension)

    def with_epsilon(self, epsilon: float) -> "RipsComplex":
        """A new :class:`RipsComplex` at a different ε sharing this distance matrix.

        The ε-sweep fast path: the expensive ``cdist`` call happens once and
        only the neighbourhood graph / complex is rebuilt per scale.
        """
        return replace(self, epsilon=float(epsilon), _complex=None)

    def flag_arrays(self) -> "FlagComplexArrays":
        """Vectorised array view of the complex (see :class:`FlagComplexArrays`)."""
        return flag_complex_arrays(self.distance_matrix, self.epsilon, self.max_dimension)

    def fast_complex(self) -> "FlagComplexArrays | SimplicialComplex":
        """:meth:`flag_arrays` when ``max_dimension <= 2``, else :meth:`complex`.

        Both representations yield the same Laplacians entry for entry; this
        picks the vectorised one whenever it can hold the skeleton.
        """
        return self.flag_arrays() if self.max_dimension <= 2 else self.complex()

    def __repr__(self) -> str:
        return (
            f"RipsComplex(num_points={self.num_points}, epsilon={self.epsilon:.4g}, "
            f"max_dimension={self.max_dimension})"
        )


@dataclass(frozen=True)
class FlagComplexArrays:
    """A Vietoris–Rips (flag) complex as plain integer arrays, up to dimension 2.

    The batched feature engine avoids per-simplex Python objects on its hot
    path: vertices are implicitly ``0..num_points-1`` and edges/triangles are
    integer arrays listed in the *same lexicographic order* that
    :class:`repro.tda.complexes.SimplicialComplex` uses, so boundary matrices
    and Laplacians built from either representation are identical entry for
    entry (the equivalence the test suite pins down).
    """

    num_points: int
    edges: np.ndarray      # (|S_1|, 2) int64, rows lexicographically sorted
    triangles: np.ndarray  # (|S_2|, 3) int64, rows lexicographically sorted
    max_dimension: int

    def num_simplices(self, dimension: Optional[int] = None) -> int:
        counts = {0: self.num_points, 1: len(self.edges), 2: len(self.triangles)}
        if dimension is not None:
            return counts.get(int(dimension), 0)
        return sum(counts.values())

    def f_vector(self) -> Tuple[int, ...]:
        counts = [self.num_points, len(self.edges), len(self.triangles)]
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        return tuple(counts) if self.num_points else ()

    def to_complex(self) -> SimplicialComplex:
        """Materialise the equivalent :class:`SimplicialComplex` (slow path)."""
        simplices: List[Tuple[int, ...]] = [(v,) for v in range(self.num_points)]
        simplices.extend(tuple(int(v) for v in row) for row in self.edges)
        simplices.extend(tuple(int(v) for v in row) for row in self.triangles)
        return SimplicialComplex(simplices)


def flag_complex_arrays(
    distance_matrix: np.ndarray, epsilon: float, max_dimension: int = 2
) -> FlagComplexArrays:
    """Vectorised flag-complex enumeration from a precomputed distance matrix.

    Fast counterpart of ``SimplicialComplex.from_graph(epsilon_graph(...))``
    for the dimensions the paper uses (``max_dimension <= 2``); higher
    dimensions must go through the generic clique-enumeration route.
    """
    dist = np.asarray(distance_matrix, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance_matrix must be a square matrix")
    if float(epsilon) < 0:
        raise ValueError("epsilon must be non-negative")
    max_dimension = check_integer(max_dimension, "max_dimension", minimum=0)
    if max_dimension > 2:
        raise ValueError(
            "flag_complex_arrays supports max_dimension <= 2; "
            "use RipsComplex.complex() for higher-dimensional skeletons"
        )
    n = dist.shape[0]
    adjacency = dist <= float(epsilon)
    np.fill_diagonal(adjacency, False)
    if max_dimension >= 1 and n > 1:
        iu, ju = np.triu_indices(n, k=1)
        mask = adjacency[iu, ju]
        edges = np.stack([iu[mask], ju[mask]], axis=1).astype(np.int64)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    triangles: np.ndarray
    if max_dimension >= 2 and len(edges):
        # Common neighbours v > j of every edge (i, j) at once: row e of
        # ``candidates`` flags the vertices closing a triangle over edge e.
        # np.nonzero walks rows (edges, already lexicographic) then columns
        # (v ascending), so the triangles (i, j, v) come out in exactly the
        # sorted order SimplicialComplex uses for 2-simplices.
        candidates = adjacency[edges[:, 0]] & adjacency[edges[:, 1]]
        candidates &= np.arange(n)[None, :] > edges[:, 1][:, None]
        edge_rows, third = np.nonzero(candidates)
        triangles = np.empty((len(edge_rows), 3), dtype=np.int64)
        triangles[:, :2] = edges[edge_rows]
        triangles[:, 2] = third
    else:
        triangles = np.zeros((0, 3), dtype=np.int64)
    return FlagComplexArrays(
        num_points=n, edges=edges, triangles=triangles, max_dimension=max_dimension
    )


def rips_sweep(
    points_or_distances: np.ndarray,
    epsilons: Sequence[float] | Iterable[float],
    max_dimension: int = 2,
    metric: MetricLike = "euclidean",
    is_distance_matrix: bool = False,
) -> List[RipsComplex]:
    """Rips complexes of one cloud at several grouping scales, sharing distances.

    The distance matrix is computed once; each returned :class:`RipsComplex`
    rebuilds only the ε-neighbourhood graph (Fig. 4's sweep pattern).
    """
    if is_distance_matrix:
        dist = np.asarray(points_or_distances, dtype=float)
    else:
        dist = pairwise_distances(points_or_distances, metric=metric)
    return [RipsComplex(dist, float(eps), max_dimension) for eps in epsilons]


def rips_complex(
    points: np.ndarray,
    epsilon: float,
    max_dimension: int = 2,
    metric: MetricLike = "euclidean",
) -> SimplicialComplex:
    """One-call convenience: the Vietoris–Rips complex of ``points`` at scale ``epsilon``."""
    return RipsComplex.from_points(points, epsilon, max_dimension, metric).complex()
