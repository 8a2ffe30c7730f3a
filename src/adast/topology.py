"""Communication graphs, doubly-stochastic weight matrices and connectivity.

Graphs are stored as an (n, n) boolean receive-adjacency: entry (i, j)
says that node i receives node j's values each round.  Undirected kinds
(ring, dense, complete) have symmetric adjacency; directed-ring and
exponential are directed but keep equal in- and out-degrees, which is
what makes the uniform weighting doubly stochastic.

The connectivity constant is ``rho_w = ||W - J||_2^2`` (squared spectral
norm, J = ones/n).  Note that experiment write-ups conventionally quote
the unsquared norm; ``WeightMatrix.spectral_norm`` carries that value.
Ring, directed-ring, exponential and complete weights are circulant, so
``spectral_rho`` reads their constant off one DFT of a row.  Dense weights
(whose rounded diagonal breaks the circulant pattern at most n), custom
graphs and any other W take a dense eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GraphConnectivityError, InvalidGraphError

__all__ = [
    "GraphKind",
    "GraphSpec",
    "WeightMatrix",
    "build_graph",
    "metropolis_weights",
    "uniform_out_weights",
    "weights_for",
    "spectral_rho",
    "validate_doubly_stochastic",
    "is_connected",
]


class GraphKind(str, Enum):
    RING = "ring"
    DIRECTED_RING = "directed-ring"
    EXPONENTIAL = "exponential"
    DENSE = "dense"
    COMPLETE = "complete"
    CUSTOM = "custom"


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a communication graph.

    ``edges`` is only used for CUSTOM and lists ordered pairs (i, j)
    meaning node i receives from node j.
    """

    n: int
    kind: GraphKind
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"node count must be >= 1, got {self.n}")
        if self.kind is GraphKind.CUSTOM:
            if self.edges is None:
                raise ConfigError("custom graph requires an edge list")
            for i, j in self.edges:
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise ConfigError(f"edge ({i},{j}) out of range for n={self.n}")
        elif self.edges is not None:
            raise ConfigError(f"edge list only valid for custom graphs, not {self.kind.value}")


@dataclass(frozen=True)
class WeightMatrix:
    """Doubly-stochastic mixing matrix with its cached connectivity constant."""

    W: np.ndarray
    rho_w: float

    @property
    def spectral_norm(self) -> float:
        """Unsquared ||W - J||_2, the figure conventionally reported for graphs."""
        return float(np.sqrt(self.rho_w))


def _exponential_offsets(n: int) -> list[int]:
    offsets, o = [], 1
    while o <= n - 1:
        offsets.append(o)
        o *= 2
    return offsets


def _dense_offsets(n: int) -> list[int]:
    # Powers of two up to n/2, padded with the smallest missing offsets
    # until every node has at least n//2 neighbors.  An offset o < n/2
    # contributes two neighbors (+o and -o); o == n/2 contributes one.
    target = n // 2
    offsets = [o for o in _exponential_offsets(n) if o <= n // 2]

    def degree(offs: list[int]) -> int:
        return sum(1 if 2 * o == n else 2 for o in offs)

    cand = 2
    while degree(offsets) < target and cand <= n // 2:
        cand += 1
        if cand <= n // 2 and cand not in offsets:
            offsets.append(cand)
    return sorted(offsets)


def build_graph(spec: GraphSpec) -> np.ndarray:
    """The (n, n) boolean receive-adjacency of a graph specification:
    entry (i, j) is True when node i receives from node j.

    Self-loops are excluded; they enter through the weight construction.
    """
    n = spec.n
    adj = np.zeros((n, n), dtype=bool)
    if spec.kind is GraphKind.CUSTOM:
        if spec.edges:
            adj[tuple(np.array(spec.edges).T)] = True
    else:
        # node i receives from node (i + o) % n for each offset o
        if spec.kind is GraphKind.RING:
            offsets = [-1, 1]
        elif spec.kind is GraphKind.DIRECTED_RING:
            offsets = [1]
        elif spec.kind is GraphKind.EXPONENTIAL:
            offsets = [-o for o in _exponential_offsets(n)]
        elif spec.kind is GraphKind.DENSE:
            offsets = [s * o for o in _dense_offsets(n) for s in (-1, 1)]
        else:  # complete
            offsets = range(1, n)
        nodes = np.arange(n)
        for o in offsets:
            adj[nodes, (nodes + o) % n] = True
    np.fill_diagonal(adj, False)
    return adj


def is_connected(adj: np.ndarray) -> bool:
    """Breadth-first traversal on the union graph (edges of W and W^T)."""
    union = adj | adj.T
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = union[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def metropolis_weights(adj: np.ndarray) -> WeightMatrix:
    """Symmetric doubly-stochastic weights: W_ij = 1/(1 + max(deg_i, deg_j)).

    Requires an undirected, connected graph.
    """
    if not np.array_equal(adj, adj.T):
        i, j = np.argwhere(adj & ~adj.T)[0]
        raise InvalidGraphError(
            f"metropolis weights need an undirected graph; edge {i}<-{j} has no reverse"
        )
    if not is_connected(adj):
        raise GraphConnectivityError("graph is not connected")

    deg = adj.sum(axis=1)
    i, j = np.nonzero(adj)
    W = np.zeros(adj.shape)
    W[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return WeightMatrix(W=W, rho_w=spectral_rho(W))


def uniform_out_weights(adj: np.ndarray) -> WeightMatrix:
    """Uniform weights 1/(d+1) on in-neighbors and self.

    Doubly stochastic provided every node has in-degree == out-degree == d.
    """
    in_deg, out_deg = adj.sum(axis=1), adj.sum(axis=0)
    if (in_deg != in_deg[0]).any() or (out_deg != in_deg[0]).any():
        raise InvalidGraphError(
            "uniform weighting needs equal in/out degrees, "
            f"got in={in_deg.tolist()} out={out_deg.tolist()}"
        )
    if not is_connected(adj):
        raise GraphConnectivityError("graph is not connected")

    w = 1.0 / (in_deg[0] + 1)
    W = adj * w
    np.fill_diagonal(W, w)
    return WeightMatrix(W=W, rho_w=spectral_rho(W))


def weights_for(spec: GraphSpec) -> WeightMatrix:
    """Default weight scheme per kind: uniform for the directed graphs and
    the complete graph (whose W is then exactly J = ones/n), Metropolis
    for the other undirected ones."""
    adj = build_graph(spec)
    uniform = (GraphKind.DIRECTED_RING, GraphKind.EXPONENTIAL, GraphKind.COMPLETE)
    if spec.kind in uniform or not np.array_equal(adj, adj.T):
        return uniform_out_weights(adj)
    return metropolis_weights(adj)


def spectral_rho(W: np.ndarray) -> float:
    """Squared spectral norm of A = W - J, exactly.

    A circulant A (row i is row 0 shifted right by i, as for every
    built-in kind but dense at most n) is normal, so its singular values
    are the magnitudes of the DFT of row 0: O(n^2) to detect, O(n log n)
    to solve.  On a 400-node ring this gives 0.9998355167397894 against
    the closed form's 0.99983551673978950; the eigen-solve gives
    0.9998355167397917.  Any other A takes max |eigenvalue|^2 when it is
    symmetric, else the largest eigenvalue of A^T A."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError(f"weight matrix must be square, got shape {W.shape}")
    A = W - 1.0 / W.shape[0]
    row = A[0]
    if np.array_equal(A, sliding_window_view(np.concatenate([row, row])[1:], len(row))[::-1]):
        return float(np.abs(np.fft.fft(row)).max() ** 2)
    if np.array_equal(A, A.T):
        return float(np.abs(np.linalg.eigvalsh(A)).max() ** 2)
    return float(np.linalg.eigvalsh(A.T @ A)[-1])


def validate_doubly_stochastic(W: np.ndarray, tol: float = 1e-12) -> dict:
    """Largest row- and column-sum deviations from 1 and the smallest entry
    of a candidate W, and whether all three are within ``tol``."""
    W = np.asarray(W, dtype=float)
    row_dev = float(np.abs(W.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(W.sum(axis=0) - 1.0).max())
    min_entry = float(W.min())
    return {
        "max_row_dev": row_dev,
        "max_col_dev": col_dev,
        "min_entry": min_entry,
        "tol": tol,
        "passed": row_dev <= tol and col_dev <= tol and min_entry >= -tol,
    }
