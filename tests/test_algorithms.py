import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from adast.algorithms import (
    ALGORITHMS,
    AbortInfo,
    AlgoConfig,
    mix,
    run,
)
from adast.errors import ConfigError
from adast.metrics import TRACE_HEADER
from adast.problems import (
    ALL,
    NoiseModel,
    ProjectionSet,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_two_node_case_study,
)
from adast.topology import GraphKind, GraphSpec, weights_for
from conftest import _NEAR_OVERFLOW, grads_at, make_random_problem, reference_run, \
    reference_weights, scalar_problem, sinkhorn_doubly_stochastic


def _scalar_problem(B, A, C, b, c, n=1):
    return scalar_problem(A=[A] * n, B=[B] * n, C=[C] * n, b=[b] * n, c=[c] * n)


def _records_equal(t1, t2):
    """The two traces hold the same records, a NaN grad_phi_sq matching NaN."""
    return all(
        np.array_equal(getattr(t1, name), getattr(t2, name), equal_nan=name == "grad_phi_sq")
        for name in ("k", "grad_phi_sq", "grad_xf_sq", "consensus_x", "consensus_y",
                     "zeta_v_inst", "zeta_u_inst", "avg_m_x", "avg_m_y", "xbar", "ybar")
    )


# ------------------------------------------------------------- config checks

def test_config_validation():
    with pytest.raises(ConfigError):
        AlgoConfig(algo="sgd", gamma_x=0.1, gamma_y=0.1)
    with pytest.raises(ConfigError):
        AlgoConfig(algo="d-sgda", gamma_x=0.0, gamma_y=0.1)
    with pytest.raises(ConfigError):
        AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, alpha=0.4, beta=0.6)
    with pytest.raises(ConfigError):
        AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, alpha=1.0, beta=0.4)
    with pytest.raises(ConfigError):
        AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, c0=-1.0)
    with pytest.raises(ConfigError):
        AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, stepsize_source="both")
    # d-sgda ignores the exponent ordering constraint
    AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, alpha=0.1, beta=0.9)


def test_mix_preserves_average_and_reaches_consensus():
    rng = np.random.default_rng(0)
    W = weights_for(GraphSpec(n=5, kind=GraphKind.RING)).W
    V = rng.standard_normal((5, 3)) * 100
    mixed = mix(W, V)
    assert np.allclose(mixed.mean(axis=0), V.mean(axis=0), rtol=0, atol=1e-13)
    for _ in range(400):
        V = mix(W, V)
    assert np.allclose(V, V.mean(axis=0), atol=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 40), cols=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(-3, 3))
def test_mix_conserves_column_means_on_both_paths(n, cols, seed, scale):
    W = sinkhorn_doubly_stochastic(n, seed)
    rng = np.random.default_rng(seed)
    V = (rng.standard_normal((n, cols)) + 10.0 * rng.standard_normal(cols)) * 10.0**scale
    mean = V.mean(axis=0)
    # two n-term means and one add, each rounding at most n eps max|V|
    tol = 4 * n * np.finfo(float).eps * np.abs(V).max()
    for Wm in (W, csr_array(W)):
        assert np.abs(mix(Wm, V).mean(axis=0) - mean).max() <= tol


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 40), cols=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(-3, 3))
def test_plain_mix_is_the_product_bit_for_bit_on_both_paths(n, cols, seed, scale):
    # the round of iterates alone: W @ V as it is, into a buffer or not
    W = sinkhorn_doubly_stochastic(n, seed)
    rng = np.random.default_rng(seed)
    V = (rng.standard_normal((n, cols)) + 10.0 * rng.standard_normal(cols)) * 10.0**scale
    for Wm in (W, csr_array(W)):
        expected = Wm @ V
        assert np.array_equal(mix(Wm, V, centered=False), expected)
        out = np.empty_like(V)
        assert mix(Wm, V, out, centered=False) is out
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("n", [3, 64, 65, 400])
@pytest.mark.parametrize("cols", [1, 2, 3, 8, 16])
def test_column_sums_are_the_ufunc_reduction_bit_for_bit(n, cols):
    # mix's mean; its form depends on the shape, its bits must not
    from adast.algorithms import _column_sums

    rng = np.random.default_rng(n * cols)
    for _ in range(20):
        V = rng.standard_normal((n, cols)) * 10.0 ** rng.uniform(-6, 6, (n, cols))
        assert np.array_equal(_column_sums(V), np.add.reduce(V, axis=0))


def _sparse_doubly_stochastic(n, seed, symmetric=False):
    """A convex mix of the identity and three random permutation matrices,
    so at most 4 nonzeros per row (7 once symmetrised)."""
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.ones(4))
    W = c[0] * np.eye(n)
    for cj in c[1:]:
        W[np.arange(n), rng.permutation(n)] += cj
    return 0.5 * (W + W.T) if symmetric else W


@pytest.mark.parametrize("n,symmetric", [(256, False), (512, True), (1000, False)])
def test_csr_product_matches_dense_product_and_conserves_mass(n, symmetric):
    W = _sparse_doubly_stochastic(n, seed=n, symmetric=symmetric)
    G = csr_array(W)
    rng = np.random.default_rng(1)
    for c in (1, 2, 9):
        D = rng.standard_normal((n, c)) * 10
        assert np.abs(G @ D - W @ D).max() <= 1e-15 * np.linalg.norm(D)
    V = rng.standard_normal((n, 3)) * 100
    mean = V.mean(axis=0)
    for _ in range(50):
        V = mix(G, V)
    assert np.allclose(V.mean(axis=0), mean, rtol=0, atol=1e-13)


def test_large_ring_run_on_csr_matches_the_dense_run(monkeypatch):
    import adast.algorithms as alg

    prob = make_random_problem(n=400, p=2, d=2, seed=11)
    W = weights_for(GraphSpec(n=400, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.05, gamma_y=0.1, K=200)
    kw = dict(x0=np.linspace(-1, 1, 400)[:, None] * [1.0, 0.5], y0=0.2, seed=3, trace_stride=10)
    state = alg._initial_state(prob, cfg, None, None)
    assert isinstance(alg._Stepper(state, W, cfg).W, csr_array)
    got = run(prob, W, cfg, NoiseModel.gaussian(0.1), **kw)
    with monkeypatch.context() as m:
        m.setattr(alg, "csr_array", lambda W: W)
        ref = run(prob, W, cfg, NoiseModel.gaussian(0.1), **kw)
    assert np.array_equal(got.k, ref.k)
    for name in ("grad_phi_sq", "grad_xf_sq", "consensus_x", "consensus_y", "zeta_v_inst",
                 "zeta_u_inst", "avg_m_x", "avg_m_y", "xbar", "ybar"):
        assert np.allclose(getattr(got, name), getattr(ref, name), rtol=1e-12, atol=0), name
    later = got.k[1:] - 1
    mx, my = got.avg_m_x[1:], got.avg_m_y[1:]
    assert np.all(np.abs(mx - cfg.c0 - got.gsum_x_series[later]) <= 1e-12 * mx)
    assert np.all(np.abs(my - cfg.c0 - got.gsum_y_series[later]) <= 1e-12 * my)


def test_post_mix_tracking_on_a_large_ring_keeps_the_identity():
    # post-mix tracking mixes [X | Y] by the plain product and centers only
    # the accumulator round, whose node mean is what the identity reads
    import adast.algorithms as alg

    prob = make_random_problem(n=400, p=2, d=2, seed=12)
    W = weights_for(GraphSpec(n=400, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.05, gamma_y=0.1, K=10_000,
                     stepsize_source="mixed")
    stepper = alg._Stepper(alg._initial_state(prob, cfg, None, None), W, cfg)
    assert stepper.split and stepper.post_mix and isinstance(stepper.W, csr_array)
    trace = run(prob, W, cfg, NoiseModel.gaussian(0.1),
                x0=np.linspace(-1, 1, 400)[:, None] * [1.0, 0.5], y0=0.2, seed=5,
                trace_stride=500)
    assert not trace.aborted and trace.k[-1] == 10_000
    later = trace.k[1:] - 1
    mx, my = trace.avg_m_x[1:], trace.avg_m_y[1:]
    assert np.all(np.abs(mx - cfg.c0 - trace.gsum_x_series[later]) <= 1e-12 * mx)
    assert np.all(np.abs(my - cfg.c0 - trace.gsum_y_series[later]) <= 1e-12 * my)


@pytest.mark.parametrize("source", ["local", "mixed"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_stepper_keeps_at_most_29_attributes(algo, source):
    # step() reads about 20 stepper attributes per iteration.  Without
    # __slots__, CPython 3.11 keeps at most 29 instance attributes inline, and
    # a 30th moved them all to a dict (the n = 50 synthetic runs then took
    # about 10 % longer).  With __slots__ no stepper has a dict, so that
    # ceiling is gone: this checks the slots, whatever their number.
    import adast.algorithms as alg

    prob = make_random_problem(n=5, p=2, d=2, seed=1)
    W = weights_for(GraphSpec(n=5, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo=algo, gamma_x=0.05, gamma_y=0.1, K=1, stepsize_source=source)
    state = alg._initial_state(prob, cfg, None, None)
    assert not hasattr(alg._Stepper(state, W, cfg), "__dict__")


def test_noisy_run_does_not_depend_on_the_noise_chunk(monkeypatch):
    import adast.problems as problems

    prob = make_random_problem(n=50, p=1, d=1, seed=8)
    W = weights_for(GraphSpec(n=50, kind=GraphKind.EXPONENTIAL)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.05, gamma_y=0.1, K=1000)
    kw = dict(x0=0.3, y0=-0.2, seed=6, trace_stride=50)
    got = run(prob, W, cfg, NoiseModel.gaussian(0.3), **kw)
    monkeypatch.setattr(problems, "CHUNK_DOUBLES", 1)
    ref = run(prob, W, cfg, NoiseModel.gaussian(0.3), **kw)
    assert not got.aborted and len(got.k) == len(ref.k) > 20
    assert _records_equal(got, ref)
    assert np.array_equal(got.final_state.Z, ref.final_state.Z)
    assert np.array_equal(got.gsum_x_series, ref.gsum_x_series)


# ------------------------------------------------------------------- d-sgda

def test_dsgda_single_node_is_plain_gda():
    p = _scalar_problem(B=1.0, A=0.5, C=0.3, b=0.2, c=-0.1)
    g = 0.05
    cfg = AlgoConfig(algo="d-sgda", gamma_x=g, gamma_y=g, K=1)
    trace = run(p, np.ones((1, 1)), cfg, x0=1.0, y0=2.0, trace_stride=1)
    x0, y0 = 1.0, 2.0
    gx, gy = grads_at(p, [x0], [y0])[0]
    assert trace.xbar[-1, 0] == pytest.approx(x0 - g * gx, rel=1e-15)
    assert trace.ybar[-1, 0] == pytest.approx(y0 + g * gy, rel=1e-15)


def test_dsgda_zero_gradient_consensual_fixed_point():
    # all-zero coefficients: gradients vanish and consensual iterates persist
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=0.0, c=0.0, n=3)
    W = weights_for(GraphSpec(n=3, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, K=20)
    trace = run(p, W, cfg, x0=2.0, y0=-1.0, trace_stride=5)
    assert trace.xbar[:, 0] == pytest.approx(2.0, rel=1e-15)
    assert trace.consensus_x == pytest.approx(0.0, abs=1e-28)


def test_dsgda_opposite_gradients_cancel_in_average():
    # b = (+1, -1): x-gradients are opposite at consensual points; W = J
    p = scalar_problem(A=[0.0, 0.0], B=[1.0, 1.0], C=[0.0, 0.0], b=[1.0, -1.0], c=[0.0, 0.0])
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.2, gamma_y=0.2, K=7)
    trace = run(p, W, cfg, x0=0.5, y0=0.0, trace_stride=1)
    assert trace.xbar[:, 0] == pytest.approx(0.5, abs=1e-15)


# ------------------------------------------------------------------- d-tiada

def test_dtiada_single_node_stepsize_denominator():
    # first gradients have squared norms 3 and 8; with c0 = 1 the max
    # denominator is 9 and the x step uses gamma * 9^(-alpha)
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=np.sqrt(3.0), c=np.sqrt(8.0))
    alpha, beta, g = 0.7, 0.3, 0.5
    cfg = AlgoConfig(algo="d-tiada", gamma_x=g, gamma_y=g, alpha=alpha, beta=beta, c0=1.0, K=1)
    trace = run(p, np.ones((1, 1)), cfg, x0=0.0, y0=0.0, trace_stride=1)
    assert trace.xbar[-1, 0] == pytest.approx(-g * 9.0 ** (-alpha) * np.sqrt(3.0), rel=1e-14)
    assert trace.ybar[-1, 0] == pytest.approx(g * 9.0 ** (-beta) * np.sqrt(8.0), rel=1e-14)
    assert trace.avg_m_x[-1] == pytest.approx(4.0)
    assert trace.avg_m_y[-1] == pytest.approx(9.0)


def test_dtiada_accumulators_nondecreasing_per_node():
    case = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, K=300)
    trace = run(case, W, cfg, NoiseModel.gaussian(0.2), x0=1.0, y0=1.0, seed=1, trace_stride=1)
    assert np.all(np.diff(trace.avg_m_x) >= 0)
    assert np.all(np.diff(trace.avg_m_y) >= 0)


def test_psi_bounds():
    from adast.algorithms import _psi

    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 10.0, size=1000)
    b = rng.uniform(0.0, 10.0, size=1000)
    a[::17] = b[::17]  # exact ties resolve to 1
    psi = _psi(a, b)
    assert np.all(psi > 0.0)
    assert np.all(psi <= 1.0)
    assert np.all(psi[::17] == 1.0)
    assert _psi(np.zeros(3), np.zeros(3)) == pytest.approx([1.0, 1.0, 1.0])


def test_psi_equivalence_identity():
    # gamma * v^(-a) == gamma * psi * m_x^(-a) with v = max(m_x, m_y)
    rng = np.random.default_rng(0)
    for _ in range(200):
        m_x, m_y = rng.uniform(1e-8, 1e6, size=2)
        a = rng.uniform(0.05, 0.95)
        v = max(m_x, m_y)
        psi = m_x**a / max(m_x**a, m_y**a)
        assert v ** (-a) == pytest.approx(psi * m_x ** (-a), rel=1e-12)


def test_dtiada_counterexample_invariance_short():
    problem, slope = make_counterexample(0.6, 0.4)
    cfg = AlgoConfig(algo="d-tiada", gamma_x=0.3, gamma_y=0.7, alpha=0.6, beta=0.4,
                     c0=0.0, K=100)
    W = np.full((3, 3), 1.0 / 3.0)
    trace = run(problem, W, cfg, x0=np.full((3, 1), 5.0), y0=np.full((3, 1), slope * 5.0),
                trace_stride=1)
    g0 = trace.grad_xf_sq[0]
    assert np.all(np.abs(trace.grad_xf_sq - g0) / g0 <= 1e-9)


# ------------------------------------------------------------------- d-adast

@st.composite
def _one_local_and_start(draw):
    """One random local objective (n = 1, p, d <= 3) and a start (x0, y0)."""
    p, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return make_random_problem(1, p, d, seed), rng.standard_normal(p), rng.standard_normal(d)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_one_local_and_start(), n=st.integers(1, 9),
       pair=st.sampled_from([(0.6, 0.4), (0.75, 0.25), (0.9, 0.1)]),
       gamma=st.sampled_from([0.05, 0.1, 0.2]), K=st.just(100))
@example(case=(_scalar_problem(B=1.0, A=1.2, C=0.8, b=-0.3, c=0.4), [1.0], [0.5]),
         n=3, pair=(0.6, 0.4), gamma=0.2, K=50)
def test_dadast_uniform_network_matches_centralized_trajectory(case, n, pair, gamma, K):
    # identical locals, identical init, W = J: every node mirrors the
    # centralized TiAda iterate.  The locals must be identical: otherwise
    # sum_i |g_i|^2 != n |mean_i g_i|^2 and the accumulators differ.
    local, x0, y0 = case
    stacks = (local.A_stack, local.B_stack, local.C_stack, local.b_stack, local.c_stack)
    p = QuadraticMinimaxProblem(*(np.repeat(M, n, axis=0) for M in stacks))
    W = np.full((n, n), 1.0 / n)
    cfg = AlgoConfig(algo="d-adast", gamma_x=gamma, gamma_y=gamma, alpha=pair[0],
                     beta=pair[1], K=K)
    dist = run(p, W, cfg, x0=np.tile(x0, (n, 1)), y0=np.tile(y0, (n, 1)), trace_stride=1)
    cent = run(p.averaged(), np.ones((1, 1)), cfg, x0=np.tile(x0, (1, 1)),
               y0=np.tile(y0, (1, 1)), trace_stride=1)
    assert np.array_equal(dist.k, cent.k)
    assert dist.xbar == pytest.approx(cent.xbar, rel=1e-12, abs=1e-13)
    assert dist.ybar == pytest.approx(cent.ybar, rel=1e-12, abs=1e-13)
    assert dist.consensus_x.max() <= 1e-20


def test_dadast_tracking_mix_two_nodes():
    # squared first gradients 4 and 2 with c0 = 1 and W = J: both nodes'
    # accumulators land on the global average (1+4+1+2)/2 = 4
    p = scalar_problem(A=[0.0, 0.0], B=[1.0, 1.0], C=[0.0, 0.0], b=[2.0, np.sqrt(2.0)],
                       c=[0.0, 0.0])
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, c0=1.0, K=1)
    trace = run(p, W, cfg, x0=0.0, y0=0.0, trace_stride=1)
    state = trace.final_state
    assert state.Mx[0] == pytest.approx(4.0, rel=1e-15)
    assert state.Mx[1] == pytest.approx(4.0, rel=1e-15)
    assert trace.avg_m_x[-1] == pytest.approx(4.0, rel=1e-15)


def test_dadast_tracking_conservation_and_min_monotone():
    prob = make_random_problem(n=4, p=2, d=2, seed=8)
    W = weights_for(GraphSpec(n=4, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, c0=1e-6, K=300)
    trace = run(prob, W, cfg, NoiseModel.gaussian(0.1), x0=0.3, y0=-0.2, seed=5,
                trace_stride=1)
    # node-average of accumulators equals c0 + running global mean
    later = trace.k[1:] - 1
    mx, my = trace.avg_m_x[1:], trace.avg_m_y[1:]
    assert np.all(np.abs(mx - (cfg.c0 + trace.gsum_x_series[later])) / mx <= 1e-12)
    assert np.all(np.abs(my - (cfg.c0 + trace.gsum_y_series[later])) / my <= 1e-12)
    # minimum accumulator over nodes never decreases (checked by driving
    # the run loop's stepper, which exposes the state every step)
    mins = []
    from adast.algorithms import _initial_state, _Stepper  # test-only reach-in
    from adast.problems import GradientStream, sample_grad_block

    state = _initial_state(prob, cfg, 0.3, -0.2)
    stepper = _Stepper(state, W, cfg)
    H, D = np.empty((4, stepper.q)), np.empty((4, stepper.q))
    stream = GradientStream(5)
    noise = NoiseModel.gaussian(0.1)
    for k in range(200):
        stepper.step(sample_grad_block(prob, stepper.XY, noise, stream, k), H, D)
        mins.append(state.Mx.min())
    assert all(b >= a - 1e-15 for a, b in zip(mins, mins[1:]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 12), p=st.integers(1, 3), d=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), algo=st.sampled_from(["d-adast", "d-adast-coord"]),
       source=st.sampled_from(["local", "mixed"]), noisy=st.booleans())
def test_tracking_identity_on_random_problems_and_graphs(n, p, d, seed, algo, source, noisy):
    # criterion 5's bound: the node mean of each tracked accumulator is
    # c0 plus the running mean of squared gradients, to 1e-12 relative
    prob = make_random_problem(n=n, p=p, d=d, seed=seed)
    W = sinkhorn_doubly_stochastic(n, seed)
    cfg = AlgoConfig(algo=algo, gamma_x=0.1, gamma_y=0.1, stepsize_source=source, K=200)
    noise = NoiseModel.gaussian(0.2) if noisy else NoiseModel.none()
    rng = np.random.default_rng(seed)
    trace = run(prob, W, cfg, noise, x0=rng.standard_normal((n, p)),
                y0=rng.standard_normal((n, d)), seed=seed, trace_stride=1)
    later = trace.k > 0
    for avg_m, gsum in ((trace.avg_m_x, trace.gsum_x_series),
                        (trace.avg_m_y, trace.gsum_y_series)):
        avg_m = avg_m[later]
        rel = np.abs(avg_m - cfg.c0 - gsum[trace.k[later] - 1]) / np.abs(avg_m)
        assert rel.max() <= 1e-12


def test_dadast_mixed_stepsize_source_variant():
    case = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    loc = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=200)
    mixed = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=200,
                       stepsize_source="mixed")
    t_loc = run(case, W, loc, x0=1.0, y0=1.0, trace_stride=1)
    t_mix = run(case, W, mixed, x0=1.0, y0=1.0, trace_stride=1)
    # both conserve the tracking average ...
    for tr in (t_loc, t_mix):
        expect = 1e-6 + tr.gsum_x_series[-1]
        assert abs(tr.avg_m_x[-1] - expect) / tr.avg_m_x[-1] <= 1e-12
    # ... but the orderings are genuinely different updates
    assert t_loc.xbar[-1, 0] != t_mix.xbar[-1, 0]
    # post-mix denominators are consensual, so the applied inconsistency
    # is smaller in the two-round ordering
    assert t_mix.zeta_v_series[10:].max() <= t_loc.zeta_v_series[10:].max()


def test_effective_stepsize_monotone_for_local_accumulation():
    p = _scalar_problem(B=1.0, A=0.9, C=0.5, b=0.3, c=-0.2)
    cfg = AlgoConfig(algo="d-tiada", gamma_x=0.3, gamma_y=0.3, K=150, c0=1e-6)
    trace = run(p, np.ones((1, 1)), cfg, NoiseModel.gaussian(0.2), x0=1.0, y0=1.0, seed=2,
                trace_stride=1)
    v = np.maximum.accumulate(np.maximum(trace.avg_m_x, trace.avg_m_y))
    steps = 0.3 * v ** (-cfg.alpha)
    assert all(b <= a + 1e-18 for a, b in zip(steps, steps[1:]))


# -------------------------------------------------------------- coordinate-wise

def test_coordinate_scalar_psi_normalization_difference():
    # p = d = 1 with m_y > m_x: the coordinate variant scales the x step by
    # the extra factor (m_x / m_y)^alpha relative to the scalar variant
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=1.0, c=2.0)
    al = 0.6
    kw = dict(gamma_x=0.5, gamma_y=0.5, alpha=al, beta=0.4, c0=1e-3, K=1)
    t_scalar = run(p, np.ones((1, 1)), AlgoConfig(algo="d-adast", **kw),
                   x0=0.0, y0=0.0, trace_stride=1)
    t_coord = run(p, np.ones((1, 1)), AlgoConfig(algo="d-adast-coord", **kw),
                  x0=0.0, y0=0.0, trace_stride=1)
    m_x = 1e-3 + 1.0
    m_y = 1e-3 + 4.0
    dx_scalar = t_scalar.xbar[-1, 0]
    dx_coord = t_coord.xbar[-1, 0]
    assert dx_coord == pytest.approx(dx_scalar * (m_x / m_y) ** al, rel=1e-12)
    # y updates agree between variants at p = d = 1
    assert t_coord.ybar[-1, 0] == pytest.approx(t_scalar.ybar[-1, 0], rel=1e-14)


def test_coordinate_zero_coordinate_accumulator_untouched():
    # second x-coordinate has identically zero gradient at n = 1
    p = QuadraticMinimaxProblem(
        A=np.zeros((1, 2, 1)), B=np.eye(1)[None], C=np.zeros((1, 2, 2)),
        b=np.array([[1.0, 0.0]]), c=np.zeros((1, 1)),
    )
    cfg = AlgoConfig(algo="d-adast-coord", gamma_x=0.1, gamma_y=0.1, c0=0.5, K=3)
    trace = run(p, np.ones((1, 1)), cfg, x0=0.0, y0=0.0, trace_stride=1)
    assert trace.final_state.Mx[0, 1] == pytest.approx(0.5, rel=1e-15)
    assert trace.final_state.Mx[0, 0] > 0.5


def test_coordinate_duplicated_coordinates_reduce_to_scalar_case():
    # duplicating the coordinate structure leaves each coordinate on the
    # p = 1 trajectory (the norm scaling cancels inside psi)
    p1 = scalar_problem(A=[0.7, 0.7], B=[1.0, 1.0], C=[0.4, 0.4], b=[-0.5, -0.5], c=[0.3, 0.3])
    p2 = QuadraticMinimaxProblem(
        A=np.stack([0.7 * np.eye(2)] * 2), B=np.stack([np.eye(2)] * 2),
        C=np.stack([0.4 * np.eye(2)] * 2), b=np.full((2, 2), -0.5), c=np.full((2, 2), 0.3),
    )
    W = np.full((2, 2), 0.5)
    kw = dict(gamma_x=0.2, gamma_y=0.2, alpha=0.6, beta=0.4, c0=1e-6, K=40)
    t1 = run(p1, W, AlgoConfig(algo="d-adast-coord", **kw), x0=1.0, y0=0.5, trace_stride=1)
    t2 = run(p2, W, AlgoConfig(algo="d-adast-coord", **kw), x0=1.0, y0=0.5, trace_stride=1)
    x1, y1, x2, y2 = t1.xbar[-1], t1.ybar[-1], t2.xbar[-1], t2.ybar[-1]
    assert x2[0] == pytest.approx(x2[1], rel=1e-12)
    assert x2[0] == pytest.approx(x1[0], rel=1e-10)
    assert y2[0] == pytest.approx(y1[0], rel=1e-10)


# ------------------------------------------------------------------ run loop

# Worst deviation of run() from the per-node reference over 72000 random
# examples drawn from the property's cases below: 3.9e-12, a grad_xf_sq at
# a start near 1e150 whose node gradients (about 4.6e149) cancel to
# 1.6e145; then 1.6e-12, 1.2e-12 and 1.0e-12, final Ys of 1e-4 or less
# after ybar had passed 0.4 or more.  Four more were between 5e-13 and
# 1e-12, all final states, and every other example below 5e-13: the
# outliers are rounding on the scale of the values a column was computed
# from.  Pinned at 5x the worst.
_REFERENCE_RTOL = 2e-11


def _deviation(ref, got, zeta=False, skip=False) -> float:
    """max |ref - got| over max |ref|, |got|.  A zeta column is compared as
    sqrt(zeta), the relative spread of the stepsizes, on a scale of at least
    1: a tracked run on a near-complete graph has every stepsize equal up
    to rounding, and its zeta is then rounding noise of about 1e-30.
    Entries equal on both sides, inf and NaN included, count 0, and so do
    the entries marked in ``skip`` and finite reference entries at the
    overflow boundary; any other entry that is not finite on one side
    counts inf."""
    ref, got = np.asarray(ref, dtype=float), np.asarray(got, dtype=float)
    boundary = np.isfinite(ref) & (np.abs(ref) > _NEAR_OVERFLOW)
    if zeta:
        ref, got = np.sqrt(ref), np.sqrt(got)
    differ = ~((ref == got) | (np.isnan(ref) & np.isnan(got)) | boundary | skip)
    if not (np.isfinite(ref[differ]).all() and np.isfinite(got[differ]).all()):
        return np.inf
    finite = np.abs(np.concatenate([ref[np.isfinite(ref)], got[np.isfinite(got)]]))
    scale = max(finite.max(initial=0.0), float(zeta))
    return 0.0 if scale == 0.0 else float(np.abs(ref[differ] - got[differ]).max(initial=0.0)
                                          / scale)


@functools.cache
def _graph(kind: str, n: int) -> np.ndarray:
    if kind == "sinkhorn":
        return sinkhorn_doubly_stochastic(n, seed=n)
    return weights_for(GraphSpec(n=n, kind=GraphKind(kind))).W


def _custom_edges(n: int, directed: bool, rng) -> tuple:
    """A connected edge list in random node order: for the directed graph a
    cycle, plus a second offset when n > 3, so that every node has one in-
    and out-degree; for the undirected one a path plus n random chords
    (self-loops and repeats included), each edge with its reverse."""
    order = rng.permutation(n).tolist()
    if directed:
        offsets = [1] + ([int(rng.integers(2, n))] if n > 3 else [])
        return tuple((order[t], order[(t + o) % n]) for t in range(n) for o in offsets)
    edges = list(zip(order, order[1:])) + [tuple(e) for e in rng.integers(0, n, (n, 2)).tolist()]
    return tuple(edges + [(j, i) for i, j in edges])


def _reference_case(n, p, d, K, seed, algo, source, graph, noise, projection, gammas,
                    exponents, blowup):
    """run() and reference_run() on one drawn example: the trace, the
    reference's output and the deviation of every compared column."""
    rng = np.random.default_rng(seed)
    prob = make_random_problem(n=n, p=p, d=d, seed=seed)
    if graph.startswith("custom"):
        edges = _custom_edges(n, graph == "custom-directed", rng)
        W = weights_for(GraphSpec(n=n, kind=GraphKind.CUSTOM, edges=edges)).W
        W_ref = reference_weights(n, edges)
    else:
        W = W_ref = _graph(graph, n)
    # a start of about 10^e and stepsizes scaled by 10^s make runs diverge
    e, s = blowup
    cfg = AlgoConfig(algo=algo, gamma_x=gammas[0] * 10.0 ** s, gamma_y=gammas[1] * 10.0 ** s,
                     alpha=exponents[0], beta=exponents[1], K=K, stepsize_source=source,
                     projection={"all": ALL,
                                 "box": ProjectionSet.box(-rng.uniform(0.1, 2, d),
                                                          rng.uniform(0.1, 2, d)),
                                 "ball": ProjectionSet.ball(rng.uniform(-1, 1, d),
                                                            rng.uniform(0.1, 2))}[projection])
    # the clip bound scales with the start: clipped to unit size, a large
    # start's gradients would step every node by one length, and the node
    # mean of such steps cancels to rounding noise
    noise = {"none": NoiseModel.none(), "gaussian": NoiseModel.gaussian(0.5),
             "clipped": NoiseModel.clipped(0.5, rng.uniform(0.2, 2) * 10.0 ** e)}[noise]
    X0, Y0 = (rng.standard_normal((n, m)) * 10.0 ** e for m in (p, d))
    trace = run(prob, W, cfg, noise, x0=X0, y0=Y0, seed=seed, trace_stride=1)
    ref = reference_run(prob, W_ref, cfg, noise, X0, Y0, seed)
    devs = {}
    if ref["abort"] is None and ref["boundary"] is None:
        final = trace.final_state
        devs = {name: _deviation(ref[name].reshape(getattr(final, name).shape),
                                 getattr(final, name)) for name in ("X", "Y", "Mx", "My")}
    # the records up to the reference's first step at the overflow boundary
    rows = trace.k < (ref["boundary"] or K + 1)
    k = trace.k[rows]
    for name in ("xbar", "ybar", "avg_m_x", "avg_m_y", "grad_phi_sq", "grad_xf_sq"):
        devs[name] = _deviation(ref[name][k], getattr(trace, name)[rows])
    for side in ("x", "y"):
        # a rounding step of nodes above 1e160 overflows when squared (README),
        # so their consensus is at the overflow boundary too
        mean = np.abs(ref[f"{side}bar"][k]).max(axis=1)
        devs[f"consensus_{side}"] = _deviation(ref[f"consensus_{side}"][k],
                                               getattr(trace, f"consensus_{side}")[rows],
                                               skip=mean > 1e160)
    for name in ("zeta_v_inst", "zeta_u_inst", "zeta_v_hat_inst"):
        if getattr(trace, name) is not None:
            devs[name] = _deviation(ref[name][k], getattr(trace, name)[rows], True)
    for side in ("v", "u"):
        sup = np.maximum.accumulate(ref[f"zeta_{side}_inst"])[k]
        devs[f"zeta_{side}_sup"] = _deviation(sup, getattr(trace, f"zeta_{side}_sup")[rows], True)
    return trace, ref, devs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(1, 2), d=st.integers(1, 2), K=st.integers(0, 30),
       seed=st.integers(0, 2**16), algo=st.sampled_from(ALGORITHMS),
       source=st.sampled_from(["local", "mixed"]),
       graph=st.sampled_from(["ring", "directed-ring", "complete", "exponential", "sinkhorn",
                              "custom-undirected", "custom-directed"]),
       noise=st.sampled_from(["none", "gaussian", "clipped"]),
       gammas=st.tuples(*[st.floats(0.01, 0.3)] * 2),
       exponents=st.tuples(st.floats(0.55, 0.9), st.floats(0.1, 0.45)),
       # (the dual domain, the start's exponent and stepsize scale); a start
       # near 1e150 steps y by about 1e148, and a gossip whose terms cancel
       # leaves rounding noise of about 1e132 that a box or ball of unit
       # size maps anywhere within itself, so such starts run unconstrained
       case=st.sampled_from([("all", (0, 0)), ("box", (0, 0)), ("ball", (0, 0)),
                             ("all", (250, 30)), ("all", (150, 0))]))
# a 256-node ring gossips by the sparse product (3 * 64 < 256)
@example(n=256, p=2, d=1, K=5, seed=11, algo="d-adast-coord", source="mixed", graph="ring",
         noise="gaussian", gammas=(0.1, 0.1), exponents=(0.6, 0.4), case=("all", (0, 0)))
def test_run_matches_the_per_node_reference(n, p, d, K, seed, algo, source, graph, noise,
                                            gammas, exponents, case):
    trace, ref, devs = _reference_case(n, p, d, K, seed, algo, source, graph, noise, case[0],
                                       gammas, exponents, case[1])
    got = trace.abort and (trace.abort.k, trace.abort.node, trace.abort.field)
    if ref["boundary"] is None:
        assert got == ref["abort"]
    else:  # past the boundary an abort turns on rounding, but none comes before it
        assert got is None or got[0] >= ref["boundary"]
    worst = max(devs, key=devs.get)
    assert devs[worst] <= _REFERENCE_RTOL, (worst, devs[worst])


@pytest.mark.parametrize("source", ["local", "mixed"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_aborts_where_the_per_node_reference_does(algo, source):
    """A 4-node ring on a problem without coupling (A = 0) overflows at
    k = 1, clear of the overflow boundary: d-sgda's steps (stepsizes 1e150)
    in x at node 3 and in y at nodes 1 and 2, the adaptive methods' squared
    dual gradients at nodes 1 and 2.  The drawn property above rarely meets
    such a step; every method must name the field and node the reference
    does, the first of each."""
    prob = scalar_problem(A=[0.0] * 4, B=[1.0] * 4, C=[-0.5] * 4, b=[0.1, 0.2, 0.3, 0.4],
                          c=[0.0] * 4)
    W = _graph("ring", 4)
    sgda = algo == "d-sgda"
    gamma = 1e150 if sgda else 0.1
    cfg = AlgoConfig(algo=algo, gamma_x=gamma, gamma_y=gamma, K=5, stepsize_source=source)
    X0 = np.array([[0.0], [0.0], [0.0], [1e160 if sgda else 0.0]])
    Y0 = np.array([[0.0], [1e160], [-1e160], [0.0]])
    trace = run(prob, W, cfg, x0=X0, y0=Y0)
    ref = reference_run(prob, W, cfg, NoiseModel.none(), X0, Y0, seed=0)
    assert ref["boundary"] is None
    expected = (1, 3, "X") if sgda else (1, 1, "My")
    assert (trace.abort.k, trace.abort.node, trace.abort.field) == ref["abort"] == expected


def test_run_zeta_stays_finite_where_vbar_power_squared_underflows():
    # accumulators near 1e240 put vbar^-2a (alpha = 0.7) below the smallest
    # double: zeta read NaN from k = 1, and its running maximum stayed NaN
    prob = scalar_problem(A=[0.5] * 2, B=[1.0] * 2, C=[0.5] * 2, b=[0.0] * 2, c=[0.0] * 2)
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, alpha=0.7, beta=0.4, K=5)
    X0 = np.array([[1e120], [2e120]])
    trace = run(prob, W, cfg, x0=X0)
    ref = reference_run(prob, W, cfg, NoiseModel.none(), X0, np.zeros((2, 1)), seed=0)
    assert trace.abort is None and ref["abort"] is None and trace.avg_m_x[1] > 1e239
    for name in ("zeta_v_inst", "zeta_v_sup"):
        assert np.isfinite(getattr(trace, name)).all() and getattr(trace, name)[1] > 0, name
    assert _deviation(ref["zeta_v_inst"][trace.k], trace.zeta_v_inst, True) <= _REFERENCE_RTOL


def test_run_k0_only_initial_record():
    p = make_two_node_case_study()
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=0)
    trace = run(p, W, cfg, x0=1.0, y0=1.0, trace_stride=10)
    assert trace.k.tolist() == [0]


def test_run_record_counting_rule():
    p = make_two_node_case_study()
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=100)
    trace = run(p, W, cfg, x0=1.0, y0=1.0, trace_stride=10)
    assert len(trace.k) == 12
    assert trace.k[:3].tolist() == [0, 10, 20]
    assert trace.k[-1] == 100


def test_run_determinism_bit_identical():
    prob = make_random_problem(n=3, p=2, d=2, seed=1)
    W = weights_for(GraphSpec(n=3, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=120)
    kw = dict(x0=0.5, y0=0.1, seed=9, trace_stride=7)
    t1 = run(prob, W, cfg, NoiseModel.gaussian(0.2), **kw)
    t2 = run(prob, W, cfg, NoiseModel.gaussian(0.2), **kw)
    assert _records_equal(t1, t2)
    assert np.array_equal(t1.zeta_v_series, t2.zeta_v_series)


def test_run_abort_on_divergence():
    case = make_two_node_case_study()
    W = np.full((2, 2), 0.5)
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.5, gamma_y=0.5, K=20_000)
    trace = run(case, W, cfg, x0=1.0, y0=1.0, trace_stride=100)
    assert trace.aborted
    assert trace.abort.k <= 20_000
    assert trace.abort.field in ("X", "Y", "Mx", "My")
    assert trace.k[-1] < trace.abort.k + 100


def _strided_run(algo, projection):
    prob = make_random_problem(n=4, p=2, d=2, seed=3)
    W = weights_for(GraphSpec(n=4, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo=algo, gamma_x=0.05, gamma_y=0.05, K=60, projection=projection)
    return run(prob, W, cfg, NoiseModel.gaussian(0.2), x0=0.5, y0=0.1, seed=4, trace_stride=7)


_COLUMN_CASES = [
    ("d-adast", ALL),
    ("d-adast-coord", ALL),
    ("d-adast", ProjectionSet(kind="box", lo=[-0.2, -0.2], hi=[0.2, 0.2])),
]


@pytest.mark.parametrize("algo, projection", _COLUMN_CASES)
def test_record_columns(algo, projection):
    trace = _strided_run(algo, projection)
    coord, projected = algo == "d-adast-coord", projection.kind != "all"
    R = 10  # k = 0, 7, ..., 56 and the final 60
    assert trace.k.tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 56, 60]
    assert trace.xbar.shape == (R, 2) and trace.ybar.shape == (R, 2)
    for h in TRACE_HEADER[1:]:
        assert getattr(trace, h).shape == (R,)
    if projected:
        assert np.isnan(trace.grad_phi_sq).all()
    else:
        assert np.isfinite(trace.grad_phi_sq).all()
    if coord:
        assert trace.zeta_v_hat_inst.shape == (R,)
    else:
        assert trace.zeta_v_hat_inst is None
    assert (projected or trace.grad_phi_sq[1] > 0) and trace.zeta_v_inst[1] > 0


@pytest.mark.parametrize("algo, projection", _COLUMN_CASES)
def test_records_view_matches_columns(algo, projection):
    # the benchmark's checks read rows: an int k, float metrics, xbar and ybar
    trace = _strided_run(algo, projection)
    rows = trace.records
    assert len(rows) == len(trace.k)
    for t, row in enumerate(rows):
        assert type(row.k) is int and row.k == trace.k[t]
        for h in TRACE_HEADER[1:]:
            v, col = getattr(row, h), getattr(trace, h)[t]
            assert type(v) is float and (v == col or (np.isnan(v) and np.isnan(col)))
        assert np.array_equal(row.xbar, trace.xbar[t]) and np.array_equal(row.ybar, trace.ybar[t])


def test_stride_one_records_retain_little_memory():
    """Records are columns: a stride-1 trace of an n = 3 run with K = 2e4
    holds about 17 doubles per record and 4 per iteration, 2.6 MiB."""
    problem, slope = make_counterexample(0.75, 0.25)
    cfg = AlgoConfig(algo="d-adast", gamma_x=1.0, gamma_y=1.0, alpha=0.75, beta=0.25, c0=0.0,
                     K=20_000)
    tracemalloc.start()
    try:
        trace = run(problem, np.full((3, 3), 1.0 / 3.0), cfg, x0=10.0, y0=slope * 10.0,
                    trace_stride=1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.k) == 20_002
    assert retained < 5 * 2**20, f"{retained / 2**20:.1f} MiB retained"


def test_large_run_works_in_a_small_window():
    """The run's working memory, its peak above the trace it returns, is the
    chunk window (H, D, snapshots and flush's temporaries), not a multiple
    of the state: 1.8 MiB for this 400-node coordinate-wise run with K = 300
    and stride-1 records, where 2**18-double chunks took 6.4 MiB."""
    prob = make_random_problem(n=400, p=2, d=2, seed=1)
    W = weights_for(GraphSpec(n=400, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast-coord", gamma_x=0.05, gamma_y=0.05, K=300,
                     stepsize_source="mixed")
    tracemalloc.start()
    try:
        trace = run(prob, W, cfg, x0=0.1, y0=-0.1, trace_stride=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not trace.aborted and len(trace.k) == 302
    assert peak - retained < 3 * 2**20, f"{(peak - retained) / 2**20:.1f} MiB above the trace"


@pytest.mark.parametrize("chunk_iters", [1, 7])
def test_run_chunked_reduction_matches_one_chunk(monkeypatch, chunk_iters):
    # the loop's per-iteration rows and record snapshots are reduced a chunk
    # at a time; chunk boundaries, including one an abort cuts short, must
    # not change a single trace value
    import adast.algorithms as alg

    cases = [
        (make_random_problem(n=4, p=2, d=3, seed=2), algo, src, NoiseModel.gaussian(0.2), 0.1)
        for algo, src in [("d-sgda", "local"), ("d-tiada", "local"), ("d-adast", "local"),
                          ("d-adast", "mixed"), ("d-adast-coord", "local"),
                          ("d-adast-coord", "mixed")]
    ] + [(make_two_node_case_study(), "d-sgda", "local", NoiseModel.none(), 0.5)]
    for prob, algo, src, noise, g in cases:
        W = weights_for(GraphSpec(n=prob.n, kind=GraphKind.RING)).W
        cfg = AlgoConfig(algo=algo, gamma_x=g, gamma_y=g, K=1300, stepsize_source=src)
        kw = dict(x0=0.4, y0=-0.3, seed=4, trace_stride=3)
        with monkeypatch.context() as m:
            m.setattr(alg, "_CHUNK_DOUBLES", 1 << 40)
            ref = run(prob, W, cfg, noise, **kw)
        size = alg._initial_state(prob, cfg, None, None).Z.size
        with monkeypatch.context() as m:
            m.setattr(alg, "_CHUNK_DOUBLES", chunk_iters * size)
            got = run(prob, W, cfg, noise, **kw)
        assert got.abort == ref.abort
        assert _records_equal(got, ref)
        for name in ("zeta_v_sup", "zeta_u_sup", "zeta_v_hat_inst"):  # None equals None
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        for name in ("zeta_v_series", "zeta_u_series", "gsum_x_series", "gsum_y_series"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        if algo == "d-adast-coord":
            assert np.array_equal(got.zeta_v_hat_series, ref.zeta_v_hat_series)
    assert ref.aborted  # the last case diverges mid-run


def test_run_large_finite_state_does_not_abort():
    # squares of the entries overflow, their sums do not: the abort screen
    # is still consulted and the run goes on (zero x-gradients keep X in place)
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=0.0, c=0.0, n=3)
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, K=5)
    trace = run(p, np.full((3, 3), 1.0 / 3.0), cfg, x0=1e200, y0=1e200, trace_stride=1)
    assert not trace.aborted
    assert np.all(trace.final_state.X == 1e200)


def test_run_finite_state_whose_sum_overflows_does_not_abort():
    # two finite 1e308 entries in X sum to inf; only a non-finite entry aborts
    p = QuadraticMinimaxProblem(A=np.zeros((1, 2, 1)), B=np.eye(1)[None], C=np.zeros((1, 2, 2)),
                                b=np.zeros((1, 2)), c=np.zeros((1, 1)))
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, K=5)
    trace = run(p, np.ones((1, 1)), cfg, x0=[1e308, 1e308], trace_stride=1)
    assert not trace.aborted
    assert np.all(trace.final_state.X == 1e308)


def test_run_abort_names_the_node_and_field_of_the_nonfinite_entry():
    # node 2's squared y-gradient overflows into its accumulator My; the
    # zero stepsize that follows keeps X and Y finite.  Each state layout:
    # d-tiada keeps [X | Y] and [Mx | My] as two blocks, d-adast local
    # mixes the one block [X | Y | Mx | My], d-adast mixed mixes the two
    # blocks in two rounds.  Local accumulators keep the inf at node 2; a
    # mix spreads it, as NaN, to every node of the column, and the abort
    # still names node 2, where the pre-mix buffer held the inf.
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=0.0, c=0.0, n=3)
    for algo, source in [("d-tiada", "local"), ("d-adast", "local"), ("d-adast", "mixed")]:
        cfg = AlgoConfig(algo=algo, gamma_x=0.1, gamma_y=0.1, K=5, stepsize_source=source)
        trace = run(p, np.full((3, 3), 1.0 / 3.0), cfg, y0=[[0.0], [0.0], [1e200]])
        assert trace.abort == AbortInfo(k=1, node=2, field="My"), algo
        # the state at the abort: x-gradients are 0, node 2's y step is 0
        # and one round averages Y
        state = trace.final_state
        assert state.k == 1
        assert np.array_equal(state.X, np.zeros((3, 1)))
        assert state.Y == pytest.approx(np.full((3, 1), 1e200 / 3), rel=1e-15)
        assert state.Mx == pytest.approx(np.full(3, cfg.c0), rel=1e-15)
        if algo == "d-tiada":
            assert np.array_equal(state.My, [cfg.c0, cfg.c0, np.inf])
        else:
            assert np.isnan(state.My).all()


def test_run_abort_names_the_node_whose_iterate_overflowed_before_the_mix():
    # node 2's x-gradient -C x overflows, so its pre-mix x is non-finite
    # while nodes 0 and 1 stay at 0; the round then spreads it to every
    # node, for every method and ordering, and the abort names node 2.
    # d-sgda's pre-mix x is inf, and its plain round of iterates spreads
    # inf.  The adaptive methods' is NaN already (the squared gradient
    # makes node 2's stepsize 0, or NaN after a centered accumulator
    # round, times an infinite gradient), and so is every node after them
    p = _scalar_problem(B=1.0, A=0.0, C=1e10, b=0.0, c=0.0, n=3)
    for algo, source in itertools.product(ALGORITHMS, ("local", "mixed")):
        cfg = AlgoConfig(algo=algo, gamma_x=0.1, gamma_y=0.1, K=5, stepsize_source=source)
        trace = run(p, np.full((3, 3), 1.0 / 3.0), cfg, x0=[[0.0], [0.0], [1e300]])
        assert trace.abort == AbortInfo(k=1, node=2, field="X"), (algo, source)
        spread = np.isinf if algo == "d-sgda" else np.isnan
        assert spread(trace.final_state.X).all(), (algo, source)


def test_run_abort_past_the_mix_names_the_state_entry():
    # every pre-mix entry is finite and the round itself overflows: the
    # centered round of pre-mix tracking sums 1e308 twice, so the screen
    # falls back to the state, where node 0 is the first non-finite entry
    # of X.  d-sgda's plain round of iterates adds 0.5 * 1e308 twice, which
    # is finite
    p = _scalar_problem(B=1.0, A=0.0, C=0.0, b=0.0, c=0.0, n=2)
    W = np.full((2, 2), 0.5)
    for algo in ("d-adast", "d-adast-coord"):
        cfg = AlgoConfig(algo=algo, gamma_x=0.1, gamma_y=0.1, K=3)
        trace = run(p, W, cfg, x0=1e308, y0=0.0)
        assert trace.abort == AbortInfo(k=1, node=0, field="X"), algo
    trace = run(p, W, AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, K=3), x0=1e308, y0=0.0)
    assert trace.abort is None and trace.final_state.k == 3
    assert np.isfinite(trace.final_state.X).all()


def test_run_rejects_mismatched_weights():
    p = make_two_node_case_study()
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=1)
    with pytest.raises(ConfigError):
        run(p, np.ones((3, 3)) / 3.0, cfg)


@pytest.mark.parametrize("start", [{"x0": np.inf}, {"y0": [[0.0], [np.nan]]}],
                         ids=["x0", "y0"])
def test_run_refuses_a_non_finite_start(start):
    p = make_two_node_case_study()
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=1)
    with pytest.raises(ConfigError, match=f"{next(iter(start))} must be finite"):
        run(p, np.full((2, 2), 0.5), cfg, **start)


def test_run_projection_applied_and_grad_phi_suppressed():
    p = make_two_node_case_study()
    W = np.full((2, 2), 0.5)
    ball = ProjectionSet.ball(np.zeros(1), 0.75)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=60, projection=ball)
    trace = run(p, W, cfg, x0=1.0, y0=1.0, trace_stride=10)
    assert np.isnan(trace.grad_phi_sq).all()
    assert abs(trace.final_state.Y).max() <= 0.75 + 1e-12


def test_centralized_requires_single_node():
    # the centralized method is run() on W = [1], which needs a one-node problem
    p = make_two_node_case_study()
    cfg = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, K=3)
    with pytest.raises(ConfigError):
        run(p, np.ones((1, 1)), cfg)
    run(p.averaged(), np.ones((1, 1)), cfg)


def test_centralized_bit_identical_to_run():
    # a one-node problem and its averaged() collapse run bit for bit alike
    prob = make_random_problem(n=1, p=2, d=2, seed=3)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.15, gamma_y=0.25, K=200)
    kw = dict(x0=0.7, y0=-0.3, seed=4, trace_stride=11)
    t1 = run(prob, np.ones((1, 1)), cfg, NoiseModel.gaussian(0.1), **kw)
    t2 = run(prob.averaged(), np.ones((1, 1)), cfg, NoiseModel.gaussian(0.1), **kw)
    assert _records_equal(t1, t2)


def test_dadast_and_dtiada_coincide_at_single_node():
    # psi-equivalence: with one node tracking changes nothing
    prob = make_random_problem(n=1, p=1, d=1, seed=6)
    kw = dict(gamma_x=0.2, gamma_y=0.3, alpha=0.65, beta=0.35, c0=1e-4, K=300)
    t1 = run(prob, np.ones((1, 1)), AlgoConfig(algo="d-tiada", **kw), x0=1.0, y0=0.0,
             trace_stride=50)
    t2 = run(prob, np.ones((1, 1)), AlgoConfig(algo="d-adast", **kw), x0=1.0, y0=0.0,
             trace_stride=50)
    assert t1.xbar[:, 0] == pytest.approx(t2.xbar[:, 0], rel=1e-12)
    assert t1.ybar[:, 0] == pytest.approx(t2.ybar[:, 0], rel=1e-12)
