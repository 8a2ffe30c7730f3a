import json
import math
import warnings

import numpy as np
import pytest

from adast.algorithms import AlgoConfig, run
from adast.errors import ConfigError
from adast.problems import (
    ALL,
    X_AXIS,
    Y_AXIS,
    GradientStream,
    NoiseModel,
    ProjectionSet,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
    project,
    sample_grad_block,
)
from conftest import (
    grads_at,
    local_grads,
    local_value,
    make_random_problem,
    node_sample,
    phi,
    scalar_problem,
)


# ---------------------------------------------------------------- case study

def test_case_study_gradients_at_origin():
    p = make_two_node_case_study()
    G = grads_at(p, [0.0], [0.0])  # rows [grad_x f_i, grad_y f_i]
    assert G[0, 0] == pytest.approx(-1.0)
    assert G[1, 0] == pytest.approx(-1.0)
    assert G[0, 1] == pytest.approx(0.6)
    assert grads_at(p, [0.0], [2.0 / 3.0])[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_case_study_values_and_heterogeneity():
    p = make_two_node_case_study()
    assert local_value(p, 0, [1.0], [1.0]) == pytest.approx(-0.35)
    assert local_value(p, 1, [1.0], [1.0]) == pytest.approx(-0.85)
    assert p.mu == pytest.approx(0.9)


def test_case_study_stationary_line():
    p = make_two_node_case_study()
    # y*(x) = 2/3 + (5/3) x and the primal gradient vanishes everywhere
    for x in (-3.0, 0.0, 1.0, 10.0):
        assert p.y_star([[x]])[0, 0] == pytest.approx(2.0 / 3.0 + 5.0 / 3.0 * x)
        assert abs(p.grad_phi([[x]])[0, 0]) <= 1e-12
    assert p.stationary_point() is None  # the whole line is stationary


def test_case_study_grad_zero_on_line():
    p = make_two_node_case_study()
    x = 0.7
    y = (5 * x + 2) / 3
    assert p.grad_x_avg([[x]], [[y]])[0] == pytest.approx([0.0], abs=1e-14)
    assert p.grad_y_avg([[x]], [[y]])[0] == pytest.approx([0.0], abs=1e-14)


# ------------------------------------------------------------- counterexample

def test_counterexample_constants():
    _, slope = make_counterexample(0.75, 0.25)
    assert slope == pytest.approx(-4.0)
    prob, _ = make_counterexample(0.6, 0.4)
    assert prob.meta["a"] == pytest.approx(2.0 ** -5)
    assert prob.meta["b"] == pytest.approx(2.0 ** 5)


def test_counterexample_origin_is_stationary():
    prob, _ = make_counterexample(0.75, 0.25)
    assert prob.grad_x_avg([[0.0]], [[0.0]])[0] == pytest.approx([0.0])
    assert prob.grad_y_avg([[0.0]], [[0.0]])[0] == pytest.approx([0.0])
    x_star, y_star = prob.stationary_point()
    assert x_star == pytest.approx([0.0], abs=1e-12)
    assert y_star == pytest.approx([0.0], abs=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.25), (0.75, 0.5), (0.4, 0.2), (1.0, 0.25)])
def test_counterexample_rejects_bad_exponents(alpha, beta):
    with pytest.raises(ConfigError):
        make_counterexample(alpha, beta)


@pytest.mark.parametrize("alpha,beta,name", [(0.5000001, 0.25, "alpha"), (0.5004, 0.25, "alpha"),
                                             (0.9, 0.4999999, "beta"), (0.75, 0.4996, "beta")])
def test_counterexample_refuses_exponents_whose_constants_leave_the_doubles(alpha, beta, name):
    # 2^(-1/(2*alpha - 1)) underflows to 0 and 2^(-1/(2*beta - 1)) overflows
    # for exponents this close to 0.5
    with pytest.raises(ConfigError, match=f"got {name}="):
        make_counterexample(alpha, beta)


def test_counterexample_constants_next_to_the_refused_band_are_finite():
    # at 2*alpha - 1 = 0.002 and 1 - 2*beta = 0.0012 every constant and
    # closed form is finite; at 2*alpha - 1 = 0.0012 the band passes, but
    # Abar Bbar^-1 Abar^T overflows, and the problem is refused
    prob, slope = make_counterexample(0.501, 0.4994)
    assert 0.0 < prob.meta["a"] < 1e-150 and 1e250 < prob.meta["b"] < math.inf
    assert np.isfinite(prob.A_stack).all() and math.isfinite(slope)
    assert np.isfinite(prob.grad_phi([[1.0]])).all() and np.isfinite(prob.y_star([[1.0]])).all()
    with pytest.raises(ConfigError, match="closed forms"):
        make_counterexample(0.5006, 0.4994)


@pytest.mark.parametrize("coefficients", [
    {"A": [1e200, 1e200]},  # Abar Bbar^-1 Abar^T is 1e400
    {"B": [1e-10, 1e-10], "c": [1e300, 1e300]},  # Bbar^-1 cbar is 1e310
], ids=["phi_lin", "y_const"])
def test_problem_whose_closed_forms_overflow_is_refused(coefficients):
    fields = {"A": [1.0, 1.0], "B": [1.0, 1.0], "C": [1.0, 1.0], "b": [0.0, 0.0],
              "c": [0.0, 0.0], **coefficients}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a RuntimeWarning
        with pytest.raises(ConfigError, match="closed forms"):
            scalar_problem(**fields)


# ------------------------------------------------------------------ synthetic

def test_synthetic_forced_pair_closed_forms():
    p = scalar_problem(A=[1.5, 2.5], B=[1.0, 1.0], C=[1.5**2, 2.5**2], b=[-3.0, -5.0],
                       c=[1.5, 2.5])
    assert p.y_star([[1.0]])[0, 0] == pytest.approx(4.0)  # y*(x) = 2(x+1)
    assert p.grad_phi([[0.0]])[0, 0] == pytest.approx(0.0)
    x_star, y_star = p.stationary_point()
    assert x_star[0] == pytest.approx(0.0, abs=1e-12)
    assert y_star[0] == pytest.approx(2.0)


def test_synthetic_equal_L_degenerate():
    L = 1.7
    p = scalar_problem(A=[L] * 3, B=[1.0] * 3, C=[L * L] * 3, b=[-2 * L] * 3, c=[L] * 3)
    for x in (-2.0, 0.0, 5.0):
        assert p.grad_phi([[x]])[0, 0] == pytest.approx(L * L - 2 * L)


def test_make_synthetic_seeded():
    p1 = make_synthetic(10, seed=7)
    p2 = make_synthetic(10, seed=7)
    assert p1.meta["L_values"] == p2.meta["L_values"]
    assert all(1.5 <= L <= 2.5 for L in p1.meta["L_values"])
    assert p1.mu == pytest.approx(1.0)
    assert make_synthetic(3, seed=0).n == 3
    with pytest.raises(ConfigError):
        make_synthetic(0, seed=0)
    # 4.0 used to reach numpy, which raised a bare TypeError
    with pytest.raises(ConfigError, match=r"n must be an integer, got 4\.0"):
        make_synthetic(4.0, seed=0)


# ------------------------------------------------------------------ gradients

def test_trivial_gradients():
    p = scalar_problem(A=[0.0], B=[1.0], C=[0.0], b=[0.0], c=[0.0])
    assert grads_at(p, [3.0], [5.0])[0, :1] == pytest.approx([0.0])
    d = 3
    p2 = QuadraticMinimaxProblem(
        A=np.zeros((1, 2, d)), B=np.eye(d)[None], C=np.zeros((1, 2, 2)), b=np.zeros((1, 2)),
        c=np.zeros((1, d)),
    )
    e1 = np.array([1.0, 0.0, 0.0])
    assert grads_at(p2, np.zeros(2), e1)[0, 2:] == pytest.approx(-e1)


def test_dimension_and_index_contracts():
    p = make_two_node_case_study()
    with pytest.raises(ConfigError):
        p.grad_x_avg([[0.0, 1.0]], [[0.0]])
    with pytest.raises(ConfigError):
        p.y_star([[0.0, 1.0]])
    with pytest.raises(ConfigError):
        p.grad_phi([0.0])  # a point, not a stack of points
    # per-node initial iterates must have one row per node
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=1)
    with pytest.raises(ConfigError):
        run(p, np.full((2, 2), 0.5), cfg, x0=np.zeros((5, 1)))


def test_non_pd_B_rejected():
    with pytest.raises(ConfigError):
        scalar_problem(A=[0.0], B=[-1.0], C=[0.0], b=[0.0], c=[0.0])


@pytest.mark.parametrize("seed", range(12))
def test_finite_difference_gradients(seed):
    # central differences at step 1e-5 agree to 1e-6 relative
    prob = make_random_problem(n=3, p=2, d=3, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal(2)
    y = rng.standard_normal(3)
    i = seed % prob.n
    h = 1e-5
    gx, gy = np.split(grads_at(prob, x, y)[i], [2])
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (local_value(prob, i, x + e, y) - local_value(prob, i, x - e, y)) / (2 * h)
        assert fd == pytest.approx(gx[j], rel=1e-6, abs=1e-8)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (local_value(prob, i, x, y + e) - local_value(prob, i, x, y - e)) / (2 * h)
        assert fd == pytest.approx(gy[j], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_danskin_gradient_of_primal_function(seed):
    prob = make_random_problem(n=2, p=3, d=2, seed=100 + seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    g = prob.grad_phi([x])[0]
    h = 1e-5
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (phi(prob, x + e) - phi(prob, x - e)) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_strong_concavity_inequality(seed):
    prob = make_random_problem(n=2, p=2, d=3, seed=200 + seed)
    rng = np.random.default_rng(seed)
    for _ in range(170):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(2)
        y = rng.standard_normal(3)
        y2 = rng.standard_normal(3)
        lhs = local_value(prob, i, x, y) - local_value(prob, i, x, y2)
        gy = grads_at(prob, x, y)[i, 2:]
        rhs = gy @ (y - y2) + 0.5 * prob.mu * np.sum((y - y2) ** 2)
        assert lhs >= rhs - 1e-9


# ---------------------------------------------------------------- projections

def test_projection_examples():
    ball5 = ProjectionSet.ball(np.zeros(2), 5.0)
    assert project(ball5, np.array([3.0, 4.0])) == pytest.approx([3.0, 4.0])
    ball1 = ProjectionSet.ball(np.zeros(2), 1.0)
    assert project(ball1, np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])
    box = ProjectionSet.box([0.0], [1.0])
    assert project(box, np.array([-2.0])) == pytest.approx([0.0])
    assert project(ALL, np.array([9.0, -9.0])) == pytest.approx([9.0, -9.0])


def test_projection_invalid_box():
    with pytest.raises(ConfigError):
        ProjectionSet.box([1.0], [0.0])
    with pytest.raises(ConfigError):
        ProjectionSet.ball([0.0], -1.0)


@pytest.mark.parametrize("make", [
    lambda: ProjectionSet.box([0.0, math.nan], [1.0, 1.0]),
    lambda: ProjectionSet.box([0.0], [math.nan]),
    lambda: ProjectionSet.box([math.inf], [math.inf]),
    lambda: ProjectionSet.box([-math.inf], [-math.inf]),
    lambda: ProjectionSet.ball([math.inf], 1.0),
    lambda: ProjectionSet.ball([0.0, math.nan], 1.0),
    lambda: ProjectionSet.ball([0.0], math.nan),
    lambda: ProjectionSet.ball([0.0], math.inf),
    lambda: ProjectionSet.ball([0.0], 0.0),
], ids=["box-nan-lo", "box-nan-hi", "box-lo-inf", "box-hi-minus-inf", "ball-inf-center",
        "ball-nan-center", "ball-nan-radius", "ball-inf-radius", "ball-zero-radius"])
def test_projection_refuses_a_bound_that_is_not_a_number_or_empties_the_set(make):
    # each of these used to be accepted; the NaN and infinite centers then
    # projected every point to NaN
    with pytest.raises(ConfigError):
        make()


def test_projection_onto_a_half_open_box():
    # an infinite bound leaves that side open, and the box stays convex
    box = ProjectionSet.box([-math.inf, 0.0], [1.0, math.inf])
    assert project(box, np.array([[-5.0, -2.0], [3.0, 7.0]])).tolist() == [[-5.0, 0.0],
                                                                             [1.0, 7.0]]


def test_projection_nonexpansive():
    rng = np.random.default_rng(0)
    for trial in range(250):
        d = int(rng.integers(1, 5))
        if trial % 2 == 0:
            lo = rng.standard_normal(d)
            pset = ProjectionSet.box(lo, lo + rng.uniform(0.1, 2.0, d))
        else:
            pset = ProjectionSet.ball(rng.standard_normal(d), float(rng.uniform(0.1, 3.0)))
        u = rng.standard_normal(d) * 3
        v = rng.standard_normal(d) * 3
        pu, pv = project(pset, u), project(pset, v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_projection_stacked_rows():
    ball = ProjectionSet.ball(np.zeros(2), 1.0)
    V = np.array([[3.0, 4.0], [0.1, 0.1]])
    out = project(ball, V)
    assert out[0] == pytest.approx([0.6, 0.8])
    assert out[1] == pytest.approx([0.1, 0.1])


# -------------------------------------------------------------------- noise

def test_gaussian_unbiasedness_clt():
    # 1e6 draws at a fixed point: empirical mean within 4 standard errors
    p = make_two_node_case_study()
    sigma = 0.1
    stream = GradientStream(123)
    exact = grads_at(p, [1.0], [1.0])[0, 0]
    draws = stream.normal_block(k=0, axis=0, n=1_000_000, dim=1)[:, 0]
    noisy_mean = exact + sigma * draws.mean()
    assert abs(noisy_mean - exact) <= 4 * sigma / 1e3


def test_clipped_norm_bound():
    p = make_two_node_case_study()
    noise = NoiseModel.clipped(sigma=50.0, clip=2.0)
    stream = GradientStream(7)
    for k in range(50):
        G = sample_grad_block(p, np.ones((2, 2)), noise, stream, k)
        assert np.abs(G).max() <= 2.0 + 1e-12  # one coordinate per side


def test_stream_determinism_and_keying():
    s1 = GradientStream(42)
    s2 = GradientStream(42)
    b1 = s1.normal_block(k=3, axis=0, n=4, dim=2)
    b2 = s2.normal_block(k=3, axis=0, n=4, dim=2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, s1.normal_block(k=4, axis=0, n=4, dim=2))
    assert not np.array_equal(b1, s1.normal_block(k=3, axis=1, n=4, dim=2))
    assert not np.array_equal(b1, GradientStream(43).normal_block(k=3, axis=0, n=4, dim=2))
    # node i's sample is its exact gradient plus sigma times row i of the block
    prob = make_random_problem(n=4, p=2, d=2, seed=5)
    x, y = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    XY = np.tile(np.concatenate([x, y]), (4, 1))
    G = sample_grad_block(prob, XY, NoiseModel.gaussian(0.7), s1, k=3)
    E = prob.grads_block(XY)
    assert np.array_equal(G[:, :2], E[:, :2] + 0.7 * b1)
    assert np.array_equal(G[:, 2:], E[:, 2:] + 0.7 * s1.normal_block(k=3, axis=1, n=4, dim=2))


def _reference_block(seed, k, axis, n, dim):
    """Iteration k's block drawn on its own: words [k B, (k+1) B) of the
    (seed, axis) Philox stream, Box-Muller on word pairs."""
    B = -(-n * dim // 4) * 4
    w = np.random.Philox(key=[seed, axis]).random_raw((k + 1) * B)[k * B:]
    u = (((w >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53).reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(u[:, 0]))
    z = np.stack([r * np.cos(2.0 * np.pi * u[:, 1]), r * np.sin(2.0 * np.pi * u[:, 1])], 1)
    return z.reshape(-1)[: n * dim].reshape(n, dim)


# iterations read forward, back, far ahead and across chunk boundaries
_KS = [0, 1, 2, 9, 400, 401, 3, 0, 1000, 999, 64, 5]


@pytest.mark.parametrize("n,dim", [(50, 1), (3, 2), (7, 3), (700, 40)])
def test_stream_chunks_equal_single_iteration_draws(monkeypatch, n, dim):
    import adast.problems as problems

    cold = GradientStream(2024)
    got = [cold.normal_block(k, 1, n, dim).copy() for k in _KS]
    monkeypatch.setattr(problems, "CHUNK_DOUBLES", 1)
    single = GradientStream(2024)
    for k, block in zip(_KS, got):
        assert np.array_equal(block, single.normal_block(k, 1, n, dim))
    for k in (0, 1, 5):
        assert np.array_equal(got[_KS.index(k)], _reference_block(2024, k, 1, n, dim))
    # the chunk is shared, so the blocks it hands out cannot be written
    with pytest.raises(ValueError):
        cold.normal_block(2, 1, n, dim)[0, 0] = 0.0


@pytest.mark.parametrize("chunk", [1, 200, None])
def test_noise_block_equals_sigma_times_each_axis(monkeypatch, chunk):
    import adast.problems as problems

    if chunk is not None:  # 200 doubles: 5 iterations of the joint (7, 3 + 2) chunk
        monkeypatch.setattr(problems, "CHUNK_DOUBLES", chunk)
    n, p, d, sigma = 7, 3, 2, 0.37
    joint, per_axis = GradientStream(2024), GradientStream(2024)
    for k in _KS:
        block = joint.noise_block(k, sigma, n, p, d)
        assert block.shape == (n, p + d)
        assert np.array_equal(block[:, :p], sigma * per_axis.normal_block(k, X_AXIS, n, p))
        assert np.array_equal(block[:, p:], sigma * per_axis.normal_block(k, Y_AXIS, n, d))
    for k in (0, 1, 5):
        block = joint.noise_block(k, sigma, n, p, d)
        assert np.array_equal(block[:, :p], sigma * _reference_block(2024, k, X_AXIS, n, p))
        assert np.array_equal(block[:, p:], sigma * _reference_block(2024, k, Y_AXIS, n, d))


def _per_axis_sample(problem, XY, noise, stream, k):
    """Each side's own sigma * normal_block added, then that side clipped:
    the per-axis form of ``sample_grad_block``."""
    G = problem.grads_block(XY)
    for axis, side in ((X_AXIS, G[:, :problem.p]), (Y_AXIS, G[:, problem.p:])):
        side += noise.sigma * stream.normal_block(k, axis, problem.n, side.shape[1])
        if noise.kind == "gaussian-clipped":
            norms = np.linalg.norm(side, axis=-1, keepdims=True)
            side *= np.where(norms > noise.clip, noise.clip / np.maximum(norms, 1e-300), 1.0)
    return G


@pytest.mark.parametrize("noise", [NoiseModel.gaussian(0.7), NoiseModel.clipped(3.0, 1.5)],
                         ids=lambda nm: nm.kind)
def test_sample_grad_block_equals_the_per_axis_formula(monkeypatch, noise):
    import adast.problems as problems

    monkeypatch.setattr(problems, "CHUNK_DOUBLES", 200)
    prob = make_random_problem(n=7, p=3, d=2, seed=4)
    rng = np.random.default_rng(9)
    joint, per_axis = GradientStream(31), GradientStream(31)
    at_bound = 0  # x sides the clip shortened
    for k in _KS:
        XY = 2.0 * rng.standard_normal((7, 5))
        G = sample_grad_block(prob, XY, noise, joint, k)
        assert np.array_equal(G, _per_axis_sample(prob, XY, noise, per_axis, k))
        at_bound += np.sum(np.abs(np.linalg.norm(G[:, :3], axis=1) - 1.5) < 1e-12)
    assert noise.kind == "gaussian" or at_bound > 0


def test_shared_noise_chunks_stay_read_only():
    prob = make_random_problem(n=7, p=3, d=2, seed=4)
    stream = GradientStream(8)
    block = stream.noise_block(4, 3.0, 7, 3, 2)
    before = block.copy()
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    with pytest.raises(ValueError):
        block += 1.0
    # clipping works on the gradients, never on the chunk they were summed from
    sample_grad_block(prob, np.ones((7, 5)), NoiseModel.clipped(3.0, 0.5), stream, 4)
    assert np.array_equal(stream.noise_block(4, 3.0, 7, 3, 2), before)


def test_stream_consecutive_iterations_share_no_noise():
    # Regression: a stream that starts iteration k+1 four words after
    # iteration k shares 46 of 50 values between them (lag-1 correlation 0.92).
    stream = GradientStream(3)
    means = np.empty(4000)
    for k in range(4000):
        block = stream.normal_block(k, 0, 50, 1)
        if k % 500 == 0:
            nxt = stream.normal_block(k + 1, 0, 50, 1)
            assert np.intersect1d(block, nxt).size == 0
        means[k] = block.mean()
    rho = np.corrcoef(means[:-1], means[1:])[0, 1]
    assert abs(rho) < 0.1


def test_stream_normals_are_standard():
    z = GradientStream(99).normal_block(k=0, axis=1, n=1_000_000, dim=1)[:, 0]
    assert np.isfinite(z).all()
    assert abs(z.mean()) <= 4 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 0.01
    tail = np.mean(np.abs(z) > 3.0)
    assert abs(tail - 0.0027) <= 0.1 * 0.0027


def test_sample_grads_block_matches_per_node():
    prob = make_random_problem(n=4, p=2, d=2, seed=5)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 2))
    XY = np.concatenate([X, Y], axis=1)
    E = prob.grads_block(XY)
    for noise in (NoiseModel.none(), NoiseModel.gaussian(0.3), NoiseModel.clipped(3.0, 1.5)):
        stream = GradientStream(11)
        G = sample_grad_block(prob, XY, noise, stream, k=9)
        for i in range(4):
            gx, gy = node_sample(prob, i, X[i], Y[i], noise, stream, k=9)
            ex, ey = local_grads(prob, i, X[i], Y[i])
            if noise.kind == "gaussian":
                # identical noise stream per node; gradient bases agree to rounding
                assert np.array_equal(G[i, :2] - E[i, :2], gx - ex)
                assert np.array_equal(G[i, 2:] - E[i, 2:], gy - ey)
            assert np.allclose(G[i, :2], gx, rtol=1e-14, atol=1e-14)
            assert np.allclose(G[i, 2:], gy, rtol=1e-14, atol=1e-14)


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel.gaussian(0.0)
    with pytest.raises(ConfigError):
        NoiseModel.clipped(1.0, 0.0)
    with pytest.raises(ConfigError):
        NoiseModel(kind="weird")


# -------------------------------------------------------------- serialization

def test_problem_json_round_trip():
    p = make_synthetic(4, seed=3)
    doc = json.loads(json.dumps(p.to_dict()))
    q = QuadraticMinimaxProblem.from_dict(doc)
    assert q.n == p.n
    assert np.array_equal(q.A_stack, p.A_stack)
    assert np.array_equal(q.B_stack, p.B_stack)
    assert q.meta["L_values"] == p.meta["L_values"]
    assert q.mu == p.mu


def test_averaged_collapse():
    p = make_two_node_case_study()
    avg = p.averaged()
    assert avg.n == 1
    G = grads_at(avg, [0.0], [0.0])
    assert G[0, 0] == pytest.approx(-1.0)
    assert G[0, 1] == pytest.approx(0.6)
    # average coupling (1+2)/2 and curvature (1+4)/2
    assert avg.A_bar[0, 0] == pytest.approx(1.5)
    assert avg.C_bar[0, 0] == pytest.approx(2.5)
