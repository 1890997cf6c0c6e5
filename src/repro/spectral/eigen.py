"""Eigenvalues of the walk: ``λ_2``, ``λ_n``, ``λ_max`` and the gap.

The paper measures edge expansion by the eigenvalue gap ``1 − λ_max`` of the
SRW transition matrix, where ``λ_max = max(λ_2, |λ_n|)``.  On bipartite
graphs ``λ_n = −1`` makes the gap vanish; the paper's remedy — make the walk
lazy, so the spectrum maps ``λ ↦ (1+λ)/2`` — is exposed via ``lazy=True``.

Dense solvers are exact and used below ``DENSE_THRESHOLD`` vertices; larger
graphs go through symmetric Lanczos on the normalized adjacency.
scipy.sparse.linalg is imported on the first Lanczos call, so importing
this module (and every sweep) stays free of it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SpectralError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected
from repro.spectral.matrices import normalized_adjacency

__all__ = [
    "DENSE_THRESHOLD",
    "transition_spectrum",
    "lambda_2",
    "lambda_n",
    "lambda_max",
    "spectral_gap",
    "extreme_eigenvalues",
]

DENSE_THRESHOLD = 600


def transition_spectrum(graph: Graph) -> np.ndarray:
    """All eigenvalues of ``P`` in descending order (dense; small graphs).

    Computed from the symmetric normalization so values are real by
    construction.
    """
    if graph.n > 4 * DENSE_THRESHOLD:
        raise SpectralError(
            f"full spectrum requested for n={graph.n}; use extreme_eigenvalues"
        )
    sym = normalized_adjacency(graph, sparse=False)
    values = np.linalg.eigvalsh(sym)
    return values[::-1]


def extreme_eigenvalues(graph: Graph) -> Tuple[float, float, float]:
    """``(λ_1, λ_2, λ_n)`` of the transition matrix.

    ``λ_1`` is 1 for connected graphs (returned as computed, a numerical
    check).  Uses dense solvers for small graphs and Lanczos above
    :data:`DENSE_THRESHOLD`.
    """
    if graph.n < 2:
        raise SpectralError("need at least 2 vertices for a walk spectrum")
    if not is_connected(graph):
        raise SpectralError("spectrum of a disconnected graph has λ_2 = 1; refusing")
    if graph.n <= DENSE_THRESHOLD:
        values = transition_spectrum(graph)
        return float(values[0]), float(values[1]), float(values[-1])
    import scipy.sparse.linalg as spla

    sym = normalized_adjacency(graph, sparse=True)
    top = spla.eigsh(sym, k=2, which="LA", return_eigenvectors=False)
    bottom = spla.eigsh(sym, k=1, which="SA", return_eigenvectors=False)
    top_sorted = np.sort(top)[::-1]
    return float(top_sorted[0]), float(top_sorted[1]), float(bottom[0])


def lambda_2(graph: Graph) -> float:
    """Second-largest eigenvalue of ``P``."""
    return extreme_eigenvalues(graph)[1]


def lambda_n(graph: Graph) -> float:
    """Smallest eigenvalue of ``P``."""
    return extreme_eigenvalues(graph)[2]


def lambda_max(graph: Graph, lazy: bool = False) -> float:
    """``max(λ_2, |λ_n|)`` — the paper's λmax.

    With ``lazy=True`` the walk's spectrum is mapped through
    ``λ ↦ (1 + λ)/2`` (all eigenvalues become non-negative), so
    ``λ_max = (1 + λ_2)/2`` and bipartiteness no longer kills the gap.
    """
    _one, l2, ln = extreme_eigenvalues(graph)
    if lazy:
        return (1.0 + l2) / 2.0
    return max(l2, abs(ln))


def spectral_gap(graph: Graph, lazy: bool = False) -> float:
    """Eigenvalue gap ``1 − λ_max`` (clipped at 0 against numerical noise)."""
    return max(0.0, 1.0 - lambda_max(graph, lazy=lazy))
