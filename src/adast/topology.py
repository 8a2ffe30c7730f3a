"""Communication graphs, doubly-stochastic weight matrices and connectivity.

A graph is a list of receive edges (i, j): node i receives node j's
values each round.  Undirected kinds (ring, dense, complete) have a
symmetric edge list; directed-ring and exponential are directed but keep
equal in- and out-degrees, which is what makes the uniform weighting
doubly stochastic.  ``weights_for`` builds W from the edge list, by one
builder for the uniform and the Metropolis rule.

Apart from W itself, building W costs O(edges), times log(edges) where
the sorted edge list is searched: the edge arrays, the symmetry, degree
and connectivity checks and the scatter of the weights all work on the
edge list.  What stays O(n^2) is what reads or writes the dense W:
zeroing it, the Metropolis diagonal ``1 - row sum``, and
``spectral_rho``'s circulance test, which compares W - J with its first
row's shifts a block of rows at a time and so needs no second (n, n)
array.

The connectivity constant is ``rho_w = ||W - J||_2^2`` (squared spectral
norm, J = ones/n).  Note that experiment write-ups conventionally quote
the unsquared norm; ``WeightMatrix.spectral_norm`` carries that value.
Ring, directed-ring, exponential and complete weights are circulant, so
``spectral_rho`` reads their constant off one DFT of a row.  Dense weights
(whose rounded diagonal breaks the circulant pattern at most n), custom
graphs and any other W take a dense eigen-solve.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GraphConnectivityError, InvalidGraphError
from .problems import require_int

__all__ = [
    "GraphKind",
    "GraphSpec",
    "WeightMatrix",
    "build_graph",
    "metropolis_weights",
    "weights_for",
    "spectral_rho",
    "validate_doubly_stochastic",
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

    ``kind`` may be given by its value, "ring" say, and is kept as the
    GraphKind.  ``edges`` is only used for CUSTOM and lists ordered pairs
    (i, j) meaning node i receives from node j.
    """

    n: int
    kind: GraphKind
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        require_int(1, n=self.n)
        try:
            object.__setattr__(self, "kind", GraphKind(self.kind))
        except ValueError:
            raise ConfigError(f"unknown topology {self.kind!r}") from None
        if self.kind is GraphKind.CUSTOM:
            if self.edges is None:
                raise ConfigError("custom graph requires an edge list")
            if not isinstance(self.edges, Iterable):
                raise ConfigError(f"edge list must hold node pairs, got {self.edges!r}")
            for edge in self.edges:
                try:
                    i, j = map(operator.index, edge)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"edge {edge!r} is not a pair of integer node labels") from None
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
    return [1 << i for i in range(int(n - 1).bit_length())]


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


def _offsets(kind: GraphKind, n: int) -> list[int]:
    """The offsets o of a built-in kind: node i receives from (i + o) % n."""
    if kind is GraphKind.RING:
        return [-1, 1]
    if kind is GraphKind.DIRECTED_RING:
        return [1]
    if kind is GraphKind.EXPONENTIAL:
        return [-o for o in _exponential_offsets(n)]
    if kind is GraphKind.DENSE:
        return [s * o for o in _dense_offsets(n) for s in (-1, 1)]
    return list(range(1, n))  # complete


def _edges(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """The receive edges (i, j) of a graph specification, node i receiving
    from node j: sorted by i then j, without duplicates or self-loops."""
    n = spec.n
    if spec.kind is GraphKind.CUSTOM:
        i, j = np.array(spec.edges, dtype=np.int64).reshape(-1, 2).T
        keys = np.sort((i * n + j)[i != j])
        return np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    # node i receives from i + r (mod n) for each distinct nonzero residue r;
    # its row starts at the residues that wrap past n - 1, and so is sorted
    residues = np.array(sorted({o % n for o in _offsets(spec.kind, n)} - {0}), dtype=np.int64)
    nodes, m = np.arange(n), len(residues)
    turn = (np.arange(m) + np.searchsorted(residues, n - nodes)[:, None]) % max(m, 1)
    j = nodes[:, None] + residues[turn]
    j[j >= n] -= n
    return np.repeat(nodes, m), j.ravel()


def build_graph(spec: GraphSpec) -> np.ndarray:
    """The (n, n) boolean receive-adjacency of a graph specification:
    entry (i, j) is True when node i receives from node j.

    Self-loops are excluded; they enter through the weight construction.
    Only ``bench/test_bench.py`` and the tests call this.
    """
    adj = np.zeros((spec.n, spec.n), dtype=bool)
    adj[_edges(spec)] = True
    return adj


def _symmetric(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether every edge, sorted by i then j, has its reverse edge."""
    keys, rev = i * n + j, j * n + i
    return np.array_equal(keys.take(np.searchsorted(keys, rev), mode="clip"), rev)


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the union graph of the edges (and their reverses) is
    connected, by min-label hooking with pointer jumping.

    Every node points at a smaller label or at itself, so the pointers form
    a forest.  A round hooks each tree's root onto the smallest root that
    an edge reaches, then jumps pointers until every node points at its
    root.  The graph is connected once every node's root is node 0, and
    is not when an edge-less round leaves some other root.  A round costs
    O(edges + n log n); every built-in kind takes one, since each node but
    0 has the neighbour one below it."""
    parent = np.arange(n)
    while parent.any():
        a, b = parent[i], parent[j]
        hook = a != b
        if not hook.any():
            return False
        a, b = a[hook], b[hook]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    return True


def _weights(n: int, i: np.ndarray, j: np.ndarray, w: float | None) -> WeightMatrix:
    """W of a connected edge list: the weight w on every edge and on the
    diagonal, or for w None the Metropolis weights 1/(1 + max(deg_i, deg_j))
    on the edges and 1 - row sum on the diagonal."""
    if not _connected(n, i, j):
        raise GraphConnectivityError("graph is not connected")
    deg = np.bincount(i, minlength=n)
    W = np.zeros((n, n))
    W[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j])) if w is None else w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1) if w is None else w)
    return WeightMatrix(W=W, rho_w=spectral_rho(W))


def metropolis_weights(adj: np.ndarray) -> WeightMatrix:
    """Symmetric doubly-stochastic weights: W_ij = 1/(1 + max(deg_i, deg_j)).

    Requires an undirected, connected graph.  Only ``bench/test_bench.py``
    and the tests call this.
    """
    n, (i, j) = len(adj), np.nonzero(adj)
    if not _symmetric(n, i, j):
        k = np.argmin(np.isin(j * n + i, i * n + j))
        raise InvalidGraphError(
            f"metropolis weights need an undirected graph; edge {i[k]}<-{j[k]} has no reverse"
        )
    return _weights(n, i, j, None)


def weights_for(spec: GraphSpec) -> WeightMatrix:
    """Default weight scheme per kind: uniform for the directed graphs and
    the complete graph (whose W is then exactly J = ones/n), Metropolis
    for the other undirected ones.  Uniform weights need every node to
    have one in- and out-degree, checked before connectivity."""
    n, (i, j) = spec.n, _edges(spec)
    uniform = (GraphKind.DIRECTED_RING, GraphKind.EXPONENTIAL, GraphKind.COMPLETE)
    if spec.kind not in uniform and _symmetric(n, i, j):
        return _weights(n, i, j, None)
    in_deg, out_deg = np.bincount(i, minlength=n), np.bincount(j, minlength=n)
    if (in_deg != in_deg[0]).any() or (out_deg != in_deg[0]).any():
        raise InvalidGraphError(
            "uniform weighting needs equal in/out degrees, "
            f"got in={in_deg.tolist()} out={out_deg.tolist()}"
        )
    return _weights(n, i, j, 1.0 / (in_deg[0] + 1))


# Entries of W - J formed at a time by the circulance test (128 KiB).
_BLOCK_DOUBLES = 2**14


def spectral_rho(W: np.ndarray) -> float:
    """Squared spectral norm of A = W - J, exactly.

    A circulant A (row i is row 0 shifted right by i, as for every
    built-in kind but dense at most n) is normal, so its singular values
    are the magnitudes of the DFT of row 0: O(n^2) time to detect, in
    blocks of rows that need about 128 KiB beside W, and O(n log n) to
    solve.  On a 400-node ring this gives 0.9998355167397894 against
    the closed form's 0.99983551673978950; the eigen-solve gives
    0.9998355167397917.  Any other A is built in full and takes
    max |eigenvalue|^2 when it is symmetric, else the largest eigenvalue
    of A^T A."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError(f"weight matrix must be square, got shape {W.shape}")
    n, J = W.shape[0], 1.0 / W.shape[0]
    row = W[0] - J
    shifted = sliding_window_view(np.concatenate([row, row])[1:], n)[::-1]
    rows = max(1, _BLOCK_DOUBLES // n)
    if all(np.array_equal(W[r:r + rows] - J, shifted[r:r + rows]) for r in range(0, n, rows)):
        return float(np.abs(np.fft.fft(row)).max() ** 2)
    A = W - J
    if np.array_equal(A, A.T):
        return float(np.abs(np.linalg.eigvalsh(A)).max() ** 2)
    return float(np.linalg.eigvalsh(A.T @ A)[-1])


_STOCHASTIC_TOL = 1e-12


def validate_doubly_stochastic(W: np.ndarray) -> dict:
    """Largest row- and column-sum deviations from 1 and the smallest entry
    of a candidate W, and whether all three are within ``_STOCHASTIC_TOL``."""
    W = np.asarray(W, dtype=float)
    tol = _STOCHASTIC_TOL
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
