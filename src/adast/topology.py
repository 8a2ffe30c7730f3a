"""Communication graphs, doubly-stochastic weight matrices and connectivity.

Graphs are stored as receive-adjacency: ``graph.recv[i]`` is the set of
nodes whose values node i receives each round.  Undirected kinds (ring,
dense, complete) have symmetric adjacency; directed-ring and exponential
are directed but keep equal in- and out-degrees, which is what makes the
uniform weighting doubly stochastic.

The connectivity constant is ``rho_w = ||W - J||_2^2`` (squared spectral
norm, J = ones/n).  Note that experiment write-ups conventionally quote
the unsquared norm; ``WeightMatrix.spectral_norm`` carries that value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, GraphConnectivityError, InvalidGraphError

__all__ = [
    "GraphKind",
    "GraphSpec",
    "Graph",
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
class Graph:
    """Receive-adjacency: recv[i] lists the in-neighbors of node i (no self-loops)."""

    n: int
    recv: tuple[tuple[int, ...], ...]

    def is_symmetric(self) -> bool:
        sets = [set(r) for r in self.recv]
        return all(i in sets[j] for i in range(self.n) for j in sets[i])


@dataclass(frozen=True)
class WeightMatrix:
    """Doubly-stochastic mixing matrix with its cached connectivity constant."""

    W: np.ndarray
    rho_w: float

    @property
    def n(self) -> int:
        return self.W.shape[0]

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


def build_graph(spec: GraphSpec) -> Graph:
    """Materialize adjacency lists for a graph specification.

    Self-loops are excluded; they enter through the weight construction.
    """
    n = spec.n
    recv: list[set[int]] = [set() for _ in range(n)]

    if spec.kind is GraphKind.RING:
        for i in range(n):
            recv[i].update({(i - 1) % n, (i + 1) % n})
    elif spec.kind is GraphKind.DIRECTED_RING:
        for i in range(n):
            recv[i].add((i + 1) % n)
    elif spec.kind is GraphKind.EXPONENTIAL:
        for i in range(n):
            for o in _exponential_offsets(n):
                recv[i].add((i - o) % n)
    elif spec.kind is GraphKind.DENSE:
        for i in range(n):
            for o in _dense_offsets(n):
                recv[i].update({(i - o) % n, (i + o) % n})
    elif spec.kind is GraphKind.COMPLETE:
        for i in range(n):
            recv[i].update(j for j in range(n) if j != i)
    elif spec.kind is GraphKind.CUSTOM:
        assert spec.edges is not None
        for i, j in spec.edges:
            if i != j:
                recv[i].add(j)
    else:  # pragma: no cover
        raise ConfigError(f"unknown graph kind {spec.kind!r}")

    for i in range(n):
        recv[i].discard(i)
    return Graph(n=n, recv=tuple(tuple(sorted(r)) for r in recv))


def is_connected(graph: Graph) -> bool:
    """Breadth-first traversal on the union graph (edges of W and W^T)."""
    n = graph.n
    if n == 1:
        return True
    union: list[set[int]] = [set(r) for r in graph.recv]
    for i in range(n):
        for j in graph.recv[i]:
            union[j].add(i)
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in union[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def metropolis_weights(graph: Graph) -> WeightMatrix:
    """Symmetric doubly-stochastic weights: W_ij = 1/(1 + max(deg_i, deg_j)).

    Requires an undirected, connected graph.
    """
    n = graph.n
    sets = [set(r) for r in graph.recv]
    for i in range(n):
        for j in sets[i]:
            if i not in sets[j]:
                raise InvalidGraphError(
                    f"metropolis weights need an undirected graph; edge {i}<-{j} has no reverse"
                )
    if not is_connected(graph):
        raise GraphConnectivityError("graph is not connected")

    deg = [len(s) for s in sets]
    W = np.zeros((n, n))
    for i in range(n):
        for j in sets[i]:
            W[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, i] = 1.0 - W[i].sum()
    return WeightMatrix(W=W, rho_w=spectral_rho(W))


def uniform_out_weights(graph: Graph) -> WeightMatrix:
    """Uniform weights 1/(d+1) on in-neighbors and self.

    Doubly stochastic provided every node has in-degree == out-degree == d.
    """
    n = graph.n
    in_deg = [len(r) for r in graph.recv]
    out_deg = [0] * n
    for i in range(n):
        for j in graph.recv[i]:
            out_deg[j] += 1
    degrees = set(in_deg) | set(out_deg)
    if len(degrees) != 1:
        raise InvalidGraphError(
            f"uniform weighting needs equal in/out degrees, got in={in_deg} out={out_deg}"
        )
    if not is_connected(graph):
        raise GraphConnectivityError("graph is not connected")

    d = in_deg[0]
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = 1.0 / (d + 1)
        for j in graph.recv[i]:
            W[i, j] = 1.0 / (d + 1)
    return WeightMatrix(W=W, rho_w=spectral_rho(W))


def weights_for(spec: GraphSpec) -> WeightMatrix:
    """Default weight scheme per kind: Metropolis for undirected graphs,
    uniform for the directed constructions."""
    graph = build_graph(spec)
    if spec.kind in (GraphKind.DIRECTED_RING, GraphKind.EXPONENTIAL):
        return uniform_out_weights(graph)
    if spec.kind is GraphKind.CUSTOM:
        return metropolis_weights(graph) if graph.is_symmetric() else uniform_out_weights(graph)
    return metropolis_weights(graph)


def spectral_rho(W: np.ndarray) -> float:
    """Squared spectral norm of A = W - J, exactly: max |eigenvalue|^2 when
    A is symmetric, else the largest eigenvalue of A^T A."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError(f"weight matrix must be square, got shape {W.shape}")
    A = W - 1.0 / W.shape[0]
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
