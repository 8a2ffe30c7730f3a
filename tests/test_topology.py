import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from adast.errors import ConfigError, GraphConnectivityError, InvalidGraphError
from adast.topology import (
    GraphKind,
    GraphSpec,
    _connected,
    build_graph,
    metropolis_weights,
    spectral_rho,
    validate_doubly_stochastic,
    weights_for,
)
from conftest import sinkhorn_doubly_stochastic


def svd_rho(W: np.ndarray) -> float:
    """||W - J||_2^2 by a dense SVD, the reference for spectral_rho."""
    return float(np.linalg.svd(W - 1.0 / W.shape[0], compute_uv=False)[0] ** 2)


def test_ring3_neighbors_all_others():
    g = build_graph(GraphSpec(n=3, kind=GraphKind.RING))
    for i in range(3):
        assert set(np.flatnonzero(g[i])) == {j for j in range(3) if j != i}


def test_complete4_degree():
    g = build_graph(GraphSpec(n=4, kind=GraphKind.COMPLETE))
    assert all(len(np.flatnonzero(g[i])) == 3 for i in range(4))


def test_exponential4_out_neighbors():
    # offsets 2^0, 2^1: node 0 sends to nodes 1 and 2
    g = build_graph(GraphSpec(n=4, kind=GraphKind.EXPONENTIAL))
    out0 = [i for i in range(4) if 0 in np.flatnonzero(g[i])]
    assert out0 == [1, 2]


def test_invalid_specs():
    with pytest.raises(ConfigError):
        GraphSpec(n=0, kind=GraphKind.RING)
    with pytest.raises(ConfigError):
        GraphSpec(n=3, kind=GraphKind.CUSTOM, edges=((0, 5),))
    with pytest.raises(ConfigError):
        GraphSpec(n=3, kind=GraphKind.CUSTOM)


@pytest.mark.parametrize("n,edges,named", [
    # a fractional label is not truncated onto node 1
    (3, ((0, 1.7), (1.7, 0), (1, 2), (2, 1)), "1.7"),
    (2.5, None, "2.5"),
    (3, ((0, 1, 2), (1, 0)), r"\(0, 1, 2\)"),
])
def test_malformed_specs_raise_config_error(n, edges, named):
    kind = GraphKind.RING if edges is None else GraphKind.CUSTOM
    with pytest.raises(ConfigError, match=named):
        GraphSpec(n=n, kind=kind, edges=edges)


def test_metropolis_ring3_is_averaging_matrix():
    wm = metropolis_weights(build_graph(GraphSpec(n=3, kind=GraphKind.RING)))
    assert np.allclose(wm.W, 1.0 / 3.0, atol=1e-15)
    assert wm.rho_w <= 1e-12


def test_metropolis_ring4_circulant_and_rho():
    wm = metropolis_weights(build_graph(GraphSpec(n=4, kind=GraphKind.RING)))
    W = wm.W
    for i in range(4):
        assert W[i, i] == pytest.approx(1.0 / 3.0)
        assert W[i, (i + 1) % 4] == pytest.approx(1.0 / 3.0)
        assert W[i, (i - 1) % 4] == pytest.approx(1.0 / 3.0)
        assert W[i, (i + 2) % 4] == 0.0
    assert wm.rho_w == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_metropolis_complete_gives_uniform():
    for n in (2, 5, 9):
        wm = metropolis_weights(build_graph(GraphSpec(n=n, kind=GraphKind.COMPLETE)))
        assert np.allclose(wm.W, 1.0 / n, atol=1e-15)
        assert wm.rho_w <= 1e-12


def test_metropolis_rejects_directed_and_disconnected():
    directed = build_graph(GraphSpec(n=3, kind=GraphKind.DIRECTED_RING))
    with pytest.raises(InvalidGraphError, match="edge 0<-1 has no reverse"):
        metropolis_weights(directed)
    # a path with two one-way edges: the message names the first in row order
    one_way = build_graph(GraphSpec(n=4, kind=GraphKind.CUSTOM, edges=(
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (0, 2))))
    with pytest.raises(InvalidGraphError, match="edge 0<-2 has no reverse"):
        metropolis_weights(one_way)
    two_pairs = GraphSpec(n=4, kind=GraphKind.CUSTOM, edges=((0, 1), (1, 0), (2, 3), (3, 2)))
    with pytest.raises(GraphConnectivityError):
        metropolis_weights(build_graph(two_pairs))
    with pytest.raises(GraphConnectivityError):
        weights_for(two_pairs)


def test_uniform_directed_ring3():
    wm = weights_for(GraphSpec(n=3, kind=GraphKind.DIRECTED_RING))
    for i in range(3):
        assert wm.W[i, i] == pytest.approx(0.5)
        assert wm.W[i, (i + 1) % 3] == pytest.approx(0.5)


def test_uniform_exponential_small():
    wm = weights_for(GraphSpec(n=2, kind=GraphKind.EXPONENTIAL))
    assert np.allclose(wm.W, 0.5)
    wm50 = weights_for(GraphSpec(n=50, kind=GraphKind.EXPONENTIAL))
    # reported connectivity figure for the 50-node exponential graph
    assert wm50.spectral_norm == pytest.approx(0.71, abs=0.02)


def test_custom_edge_lists():
    # a self-loop and a duplicate edge are dropped: the path 0 - 1 - 2
    path = GraphSpec(n=3, kind=GraphKind.CUSTOM,
                     edges=((0, 0), (0, 1), (0, 1), (1, 0), (1, 2), (2, 1)))
    g = build_graph(path)
    assert g.dtype == bool and g.sum() == 4
    assert [np.flatnonzero(g[i]).tolist() for i in range(3)] == [[1], [0, 2], [1]]
    # a symmetric edge list takes Metropolis weights
    wm = weights_for(path)
    assert np.array_equal(wm.W, metropolis_weights(g).W)
    assert wm.W == pytest.approx(np.array([[2, 1, 0], [1, 1, 1], [0, 1, 2]]) / 3.0, abs=1e-15)
    # a balanced directed edge list takes uniform weights: the cycle 0 <- 2 <- 1 <- 0
    cycle = GraphSpec(n=3, kind=GraphKind.CUSTOM, edges=((0, 2), (2, 1), (1, 0)))
    wm = weights_for(cycle)
    assert np.array_equal(wm.W, [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])


def test_uniform_rejects_unequal_degrees():
    # one-way edges take the uniform rule, which needs balanced degrees
    unbalanced = GraphSpec(n=3, kind=GraphKind.CUSTOM, edges=((0, 1), (0, 2), (1, 2)))
    with pytest.raises(InvalidGraphError, match="equal in/out degrees"):
        weights_for(unbalanced)


def test_spectral_rho_of_averaging_matrix_is_zero():
    for n in (1, 2, 7):
        assert spectral_rho(np.full((n, n), 1.0 / n)) == pytest.approx(0.0, abs=1e-12)


def test_spectral_rho_matches_svd_oracle_small():
    W = sinkhorn_doubly_stochastic(5, seed=3)
    assert spectral_rho(W) == pytest.approx(svd_rho(W), abs=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_rho_matches_svd_oracle_property(seed):
    n = 2 + (seed * 3) % 19
    W = sinkhorn_doubly_stochastic(n, seed=seed)
    assert spectral_rho(W) == pytest.approx(svd_rho(W), abs=1e-8)


@pytest.mark.parametrize("n", [400, 1600])
def test_spectral_rho_matches_ring_closed_form(n):
    rho = weights_for(GraphSpec(n=n, kind=GraphKind.RING)).rho_w
    exact = ((1.0 + 2.0 * np.cos(2.0 * np.pi / n)) / 3.0) ** 2
    assert abs((1.0 - rho) - (1.0 - exact)) <= 1e-9 * (1.0 - exact)


@pytest.mark.parametrize("n,expect", [(64, 0.5102040816), (512, 0.64)])
def test_spectral_rho_matches_exponential_closed_form(n, expect):
    # Ying et al. 2021: with n = 2^tau, rho_w = (1 - 2 / (1 + tau))^2
    rho = weights_for(GraphSpec(n=n, kind=GraphKind.EXPONENTIAL)).rho_w
    assert rho == pytest.approx((1.0 - 2.0 / (1.0 + np.log2(n))) ** 2, rel=1e-12)
    assert rho == pytest.approx(expect, rel=1e-10)


def _circulant(row: np.ndarray) -> np.ndarray:
    """The matrix whose row i is ``row`` shifted right by i."""
    return np.array([np.roll(row, i) for i in range(len(row))])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), symmetric=st.booleans(),
       density=st.floats(0.0, 1.0))
def test_spectral_rho_of_random_circulants_matches_svd_oracle(n, seed, symmetric, density):
    rng = np.random.default_rng(seed)
    row = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < density)
    row[rng.integers(n)] += 1.0
    if symmetric:
        row = row + row[-np.arange(n) % n]
    W = _circulant(row / row.sum())
    assert validate_doubly_stochastic(W)["passed"]
    assert spectral_rho(W) == pytest.approx(svd_rho(W), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 400])
@pytest.mark.parametrize("kind", [k for k in GraphKind if k is not GraphKind.CUSTOM])
def test_spectral_rho_of_every_kind_matches_svd_oracle(kind, n):
    W = weights_for(GraphSpec(n=n, kind=kind)).W
    assert spectral_rho(W) == pytest.approx(svd_rho(W), rel=1e-12, abs=1e-14)


def test_circulant_weights_skip_the_eigen_solve(monkeypatch):
    class EigenSolve(Exception):
        pass

    def refuse(*args, **kwargs):
        raise EigenSolve

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    ring = weights_for(GraphSpec(n=400, kind=GraphKind.RING)).rho_w
    assert ring == pytest.approx(((1.0 + 2.0 * np.cos(2.0 * np.pi / 400)) / 3.0) ** 2, rel=1e-15)
    assert weights_for(GraphSpec(n=64, kind=GraphKind.EXPONENTIAL)).rho_w == pytest.approx(
        (1.0 - 2.0 / 7.0) ** 2, rel=1e-12)
    # a dense W whose rounded diagonal is not circulant, and a Sinkhorn W
    with pytest.raises(EigenSolve):
        weights_for(GraphSpec(n=63, kind=GraphKind.DENSE))
    with pytest.raises(EigenSolve):
        spectral_rho(sinkhorn_doubly_stochastic(6, seed=1))
    # a ring W that is circulant but for its last two rows, past the
    # circulance test's first blocks of rows
    W = weights_for(GraphSpec(n=400, kind=GraphKind.RING)).W.copy()
    W[[398, 399], [398, 399]] -= 1e-3
    W[[398, 399], [399, 398]] += 1e-3
    with pytest.raises(EigenSolve):
        spectral_rho(W)


def test_validation_report():
    J = np.full((3, 3), 1.0 / 3.0)
    assert validate_doubly_stochastic(J)["passed"]
    bad = np.array([[1.0, 0.0], [0.5, 0.5]])
    rep = validate_doubly_stochastic(bad)
    assert not rep["passed"]
    assert rep["max_row_dev"] <= 1e-15
    assert rep["max_col_dev"] == pytest.approx(0.5)
    wm = metropolis_weights(build_graph(GraphSpec(n=4, kind=GraphKind.RING)))
    assert validate_doubly_stochastic(wm.W)["passed"]
    assert json.dumps(rep)  # report serializes


@pytest.mark.parametrize(
    "kind,n",
    [
        (GraphKind.RING, 2),
        (GraphKind.RING, 5),
        (GraphKind.RING, 12),
        (GraphKind.DIRECTED_RING, 6),
        (GraphKind.EXPONENTIAL, 6),
        (GraphKind.EXPONENTIAL, 17),
        (GraphKind.DENSE, 8),
        (GraphKind.DENSE, 20),
        (GraphKind.COMPLETE, 3),
        (GraphKind.COMPLETE, 6),
    ],
)
def test_all_weightings_doubly_stochastic_and_contractive(kind, n):
    wm = weights_for(GraphSpec(n=n, kind=kind))
    assert validate_doubly_stochastic(wm.W)["passed"]
    assert wm.W.min() >= 0.0
    assert wm.rho_w < 1.0
    if kind is not GraphKind.COMPLETE and n >= 4:
        assert wm.rho_w > 0.0
    if kind is GraphKind.COMPLETE:
        # equal in- and out-degrees: uniform weights, which are exactly J
        assert np.array_equal(wm.W, np.full((n, n), 1.0 / n))
        assert wm.rho_w == 0.0


def _loop_weights(adj: np.ndarray, metropolis: bool) -> np.ndarray:
    """The weights written node by node from the in-neighbour lists: the
    reference for the vectorised constructions."""
    n = len(adj)
    nbrs = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    W = np.zeros((n, n))
    for i in range(n):
        for j in nbrs[i]:
            W[i, j] = (1.0 / (1.0 + max(len(nbrs[i]), len(nbrs[j]))) if metropolis
                       else 1.0 / (len(nbrs[i]) + 1))
        W[i, i] = 1.0 - W[i].sum() if metropolis else 1.0 / (len(nbrs[i]) + 1)
    return W


def _dense_rho(W: np.ndarray) -> float:
    """``spectral_rho`` with the circulance test on the whole of A = W - J
    at once: the reference for the test in row blocks."""
    A = W - 1.0 / len(W)
    row = A[0]
    if np.array_equal(A, sliding_window_view(np.concatenate([row, row])[1:], len(row))[::-1]):
        return float(np.abs(np.fft.fft(row)).max() ** 2)
    if np.array_equal(A, A.T):
        return float(np.abs(np.linalg.eigvalsh(A)).max() ** 2)
    return float(np.linalg.eigvalsh(A.T @ A)[-1])


@pytest.mark.parametrize("n", [1, 2, 5, 37, 64, 65, 100, 129, 400])
def test_weights_equal_the_node_by_node_construction(n):
    metropolis = {GraphKind.RING, GraphKind.DENSE}
    for kind in [k for k in GraphKind if k is not GraphKind.CUSTOM]:
        spec = GraphSpec(n=n, kind=kind)
        adj = build_graph(spec)
        wm = weights_for(spec)
        assert np.array_equal(wm.W, _loop_weights(adj, kind in metropolis))
        assert wm.rho_w == _dense_rho(wm.W)
    for kind in (GraphKind.RING, GraphKind.DENSE, GraphKind.COMPLETE):
        adj = build_graph(GraphSpec(n=n, kind=kind))
        assert np.array_equal(metropolis_weights(adj).W, _loop_weights(adj, True))


def _connected_by_hooking(adj: np.ndarray) -> bool:
    """The connectivity check that ``weights_for`` makes, by label hooking
    over the edge list, on a receive-adjacency."""
    return _connected(len(adj), *np.nonzero(adj))


def _bfs_connected(adj: np.ndarray) -> bool:
    """Breadth-first traversal on the union graph (edges of W and W^T),
    one frontier of the dense adjacency per round: the reference for
    ``_connected_by_hooking``."""
    union = adj | adj.T
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = union[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


@st.composite
def _edge_lists(draw):
    """A directed edge list on at most 30 nodes: random pairs, and for about
    half the draws a path through every node in a random order (so that
    labels do not follow the path), less one of its edges for some."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        path = [(a, b) if draw(st.booleans()) else (b, a) for a, b in zip(order, order[1:])]
        if path and draw(st.booleans()):
            del path[draw(st.integers(0, len(path) - 1))]
        edges += path
    return n, tuple(edges)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph=_edge_lists())
@example(graph=(3, ()))
@example(graph=(4, ((0, 1), (1, 0), (2, 3), (3, 2))))
@example(graph=(6, ((5, 0), (1, 5), (4, 1), (2, 4), (3, 2))))  # the path 0-5-1-4-2-3
def test_connectivity_matches_breadth_first_search(graph):
    n, edges = graph
    adj = build_graph(GraphSpec(n=n, kind=GraphKind.CUSTOM, edges=edges))
    assert _connected_by_hooking(adj) == _bfs_connected(adj)


def test_every_built_in_kind_is_connected():
    for kind in [k for k in GraphKind if k is not GraphKind.CUSTOM]:
        for n in range(1, 71):
            adj = build_graph(GraphSpec(n=n, kind=kind))
            assert _connected_by_hooking(adj) and _bfs_connected(adj), (kind, n)


def test_weights_hold_little_memory_beside_w():
    # W is 8 MB; the edge lists, the checks and the circulance test's row
    # blocks add about 3 %, where a dense adjacency and a dense W - J
    # would add more than W again
    spec = GraphSpec(n=1000, kind=GraphKind.RING)
    weights_for(spec)
    tracemalloc.start()
    try:
        W = weights_for(spec).W
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * W.nbytes, peak / W.nbytes


def test_metropolis_symmetry():
    for kind, n in ((GraphKind.RING, 9), (GraphKind.DENSE, 12)):
        wm = metropolis_weights(build_graph(GraphSpec(n=n, kind=kind)))
        assert np.abs(wm.W - wm.W.T).max() <= 1e-15


def test_dense_graph_degree_target():
    for n in (8, 10, 20):
        g = build_graph(GraphSpec(n=n, kind=GraphKind.DENSE))
        assert all(len(np.flatnonzero(g[i])) >= n // 2 for i in range(n))
        assert np.array_equal(g, g.T)


def test_single_node_graph():
    wm = weights_for(GraphSpec(n=1, kind=GraphKind.RING))
    assert wm.W.shape == (1, 1)
    assert wm.W[0, 0] == 1.0
    assert wm.rho_w == 0.0
