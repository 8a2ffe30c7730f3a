import json
import math

import numpy as np
import pytest

from adast.errors import ConfigError, UnsupportedConfigError
from adast.problems import (
    ALL,
    GradientStream,
    NoiseModel,
    ProjectionSet,
    QuadraticLocal,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
    project,
    sample_grad,
    sample_grads,
)
from conftest import make_random_problem


# ---------------------------------------------------------------- case study

def test_case_study_gradients_at_origin():
    p = make_two_node_case_study()
    assert p.grad_x(0, [0.0], [0.0]) == pytest.approx([-1.0])
    assert p.grad_x(1, [0.0], [0.0]) == pytest.approx([-1.0])
    assert p.grad_y(0, [0.0], [0.0]) == pytest.approx([0.6])
    assert p.grad_y(0, [0.0], [2.0 / 3.0]) == pytest.approx([0.0], abs=1e-15)


def test_case_study_values_and_heterogeneity():
    p = make_two_node_case_study()
    assert p.f_local(0, [1.0], [1.0]) == pytest.approx(-0.35)
    assert p.f_local(1, [1.0], [1.0]) == pytest.approx(-0.85)
    assert p.mu == pytest.approx(0.9)


def test_case_study_stationary_line():
    p = make_two_node_case_study()
    # y*(x) = 2/3 + (5/3) x and the primal gradient vanishes everywhere
    for x in (-3.0, 0.0, 1.0, 10.0):
        assert p.y_star([x])[0] == pytest.approx(2.0 / 3.0 + 5.0 / 3.0 * x)
        assert abs(p.grad_phi([x])[0]) <= 1e-12
    assert p.stationary_point() is None  # the whole line is stationary


def test_case_study_grad_zero_on_line():
    p = make_two_node_case_study()
    x = 0.7
    y = (5 * x + 2) / 3
    assert p.grad_x_avg([x], [y]) == pytest.approx([0.0], abs=1e-14)
    assert p.grad_y_avg([x], [y]) == pytest.approx([0.0], abs=1e-14)


# ------------------------------------------------------------- counterexample

def test_counterexample_constants():
    _, slope = make_counterexample(0.75, 0.25)
    assert slope == pytest.approx(-4.0)
    prob, _ = make_counterexample(0.6, 0.4)
    assert prob.meta["a"] == pytest.approx(2.0 ** -5)
    assert prob.meta["b"] == pytest.approx(2.0 ** 5)


def test_counterexample_origin_is_stationary():
    prob, _ = make_counterexample(0.75, 0.25)
    assert prob.grad_x_avg([0.0], [0.0]) == pytest.approx([0.0])
    assert prob.grad_y_avg([0.0], [0.0]) == pytest.approx([0.0])
    x_star, y_star = prob.stationary_point()
    assert x_star == pytest.approx([0.0], abs=1e-12)
    assert y_star == pytest.approx([0.0], abs=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.25), (0.75, 0.5), (0.4, 0.2), (1.0, 0.25)])
def test_counterexample_rejects_bad_exponents(alpha, beta):
    with pytest.raises(ConfigError):
        make_counterexample(alpha, beta)


# ------------------------------------------------------------------ synthetic

def test_synthetic_forced_pair_closed_forms():
    locs = [
        QuadraticLocal.from_scalars(B=1.0, A=1.5, C=1.5**2, b=-3.0, c=1.5),
        QuadraticLocal.from_scalars(B=1.0, A=2.5, C=2.5**2, b=-5.0, c=2.5),
    ]
    p = QuadraticMinimaxProblem(locs)
    assert p.y_star([1.0])[0] == pytest.approx(4.0)  # y*(x) = 2(x+1)
    assert p.grad_phi([0.0])[0] == pytest.approx(0.0)
    x_star, y_star = p.stationary_point()
    assert x_star[0] == pytest.approx(0.0, abs=1e-12)
    assert y_star[0] == pytest.approx(2.0)


def test_synthetic_equal_L_degenerate():
    L = 1.7
    locs = [QuadraticLocal.from_scalars(B=1.0, A=L, C=L * L, b=-2 * L, c=L) for _ in range(3)]
    p = QuadraticMinimaxProblem(locs)
    for x in (-2.0, 0.0, 5.0):
        assert p.grad_phi([x])[0] == pytest.approx(L * L - 2 * L)


def test_make_synthetic_seeded():
    p1 = make_synthetic(10, seed=7)
    p2 = make_synthetic(10, seed=7)
    assert p1.meta["L_values"] == p2.meta["L_values"]
    assert all(1.5 <= L <= 2.5 for L in p1.meta["L_values"])
    assert p1.mu == pytest.approx(1.0)
    assert make_synthetic(3, seed=0).n == 3
    with pytest.raises(ConfigError):
        make_synthetic(0, seed=0)


# ------------------------------------------------------------------ gradients

def test_trivial_gradients():
    z = QuadraticLocal.from_scalars(B=1.0, A=0.0, C=0.0, b=0.0, c=0.0)
    p = QuadraticMinimaxProblem([z])
    assert p.grad_x(0, [3.0], [5.0]) == pytest.approx([0.0])
    d = 3
    identity_B = QuadraticLocal(
        B=np.eye(d), A=np.zeros((2, d)), C=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(d)
    )
    p2 = QuadraticMinimaxProblem([identity_B])
    e1 = np.array([1.0, 0.0, 0.0])
    assert p2.grad_y(0, np.zeros(2), e1) == pytest.approx(-e1)


def test_dimension_and_index_contracts():
    p = make_two_node_case_study()
    with pytest.raises(ConfigError):
        p.grad_x(0, [0.0, 1.0], [0.0])
    with pytest.raises(ConfigError):
        p.grad_x(5, [0.0], [0.0])


def test_non_pd_B_rejected():
    bad = QuadraticLocal.from_scalars(B=-1.0, A=0.0, C=0.0, b=0.0, c=0.0)
    with pytest.raises(ConfigError):
        QuadraticMinimaxProblem([bad])


@pytest.mark.parametrize("seed", range(12))
def test_finite_difference_gradients(seed):
    # central differences at step 1e-5 agree to 1e-6 relative
    prob = make_random_problem(n=3, p=2, d=3, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal(2)
    y = rng.standard_normal(3)
    i = seed % prob.n
    h = 1e-5
    gx = prob.grad_x(i, x, y)
    gy = prob.grad_y(i, x, y)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (prob.f_local(i, x + e, y) - prob.f_local(i, x - e, y)) / (2 * h)
        assert fd == pytest.approx(gx[j], rel=1e-6, abs=1e-8)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (prob.f_local(i, x, y + e) - prob.f_local(i, x, y - e)) / (2 * h)
        assert fd == pytest.approx(gy[j], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_danskin_gradient_of_primal_function(seed):
    prob = make_random_problem(n=2, p=3, d=2, seed=100 + seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    g = prob.grad_phi(x)
    h = 1e-5
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (prob.phi(x + e) - prob.phi(x - e)) / (2 * h)
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
        lhs = prob.f_local(i, x, y) - prob.f_local(i, x, y2)
        rhs = prob.grad_y(i, x, y) @ (y - y2) + 0.5 * prob.mu * np.sum((y - y2) ** 2)
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


def test_y_star_unsupported_for_constrained_domain():
    p = make_two_node_case_study()
    with pytest.raises(UnsupportedConfigError):
        p.y_star([0.0], projection=ProjectionSet.ball([0.0], 1.0))


# -------------------------------------------------------------------- noise

def test_sample_grad_none_is_exact():
    p = make_two_node_case_study()
    stream = GradientStream(0)
    gx, gy = sample_grad(p, 1, [0.3], [0.4], NoiseModel.none(), stream, k=5)
    assert gx == pytest.approx(p.grad_x(1, [0.3], [0.4]))
    assert gy == pytest.approx(p.grad_y(1, [0.3], [0.4]))


def test_gaussian_unbiasedness_clt():
    # 1e6 draws at a fixed point: empirical mean within 4 standard errors
    p = make_two_node_case_study()
    sigma = 0.1
    stream = GradientStream(123)
    exact = p.grad_x(0, [1.0], [1.0])[0]
    draws = stream.normal_block(k=0, axis=0, n=1_000_000, dim=1)[:, 0]
    noisy_mean = exact + sigma * draws.mean()
    assert abs(noisy_mean - exact) <= 4 * sigma / 1e3


def test_clipped_norm_bound():
    p = make_two_node_case_study()
    noise = NoiseModel.clipped(sigma=50.0, clip=2.0)
    stream = GradientStream(7)
    for k in range(50):
        gx, gy = sample_grad(p, 0, [1.0], [1.0], noise, stream, k=k)
        assert np.linalg.norm(gx) <= 2.0 + 1e-12
        assert np.linalg.norm(gy) <= 2.0 + 1e-12


def test_stream_determinism_and_keying():
    s1 = GradientStream(42)
    s2 = GradientStream(42)
    b1 = s1.normal_block(k=3, axis=0, n=4, dim=2)
    b2 = s2.normal_block(k=3, axis=0, n=4, dim=2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, s1.normal_block(k=4, axis=0, n=4, dim=2))
    assert not np.array_equal(b1, s1.normal_block(k=3, axis=1, n=4, dim=2))
    assert not np.array_equal(b1, GradientStream(43).normal_block(k=3, axis=0, n=4, dim=2))
    # a per-node sample is its row of the block
    prob = make_random_problem(n=4, p=2, d=2, seed=5)
    x, y = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    for i in range(4):
        gx, gy = sample_grad(prob, i, x, y, NoiseModel.gaussian(0.7), s1, k=3)
        assert np.array_equal(gx, prob.grad_x(i, x, y) + 0.7 * b1[i])
        assert np.array_equal(
            gy, prob.grad_y(i, x, y) + 0.7 * s1.normal_block(k=3, axis=1, n=4, dim=2)[i])


def _reference_block(seed, k, axis, n, dim):
    """Iteration k's block drawn on its own: words [k B, (k+1) B) of the
    (seed, axis) Philox stream, Box-Muller on word pairs."""
    B = -(-n * dim // 4) * 4
    w = np.random.Philox(key=[seed, axis]).random_raw((k + 1) * B)[k * B:]
    u = (((w >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53).reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(u[:, 0]))
    z = np.stack([r * np.cos(2.0 * np.pi * u[:, 1]), r * np.sin(2.0 * np.pi * u[:, 1])], 1)
    return z.reshape(-1)[: n * dim].reshape(n, dim)


@pytest.mark.parametrize("n,dim", [(50, 1), (3, 2), (7, 3), (700, 40)])
def test_stream_chunks_equal_single_iteration_draws(monkeypatch, n, dim):
    import adast.problems as problems

    ks = [0, 1, 2, 9, 400, 401, 3, 0, 1000, 999, 64, 5]
    cold = GradientStream(2024)
    got = [cold.normal_block(k, 1, n, dim).copy() for k in ks]
    monkeypatch.setattr(problems, "CHUNK_DOUBLES", 1)
    single = GradientStream(2024)
    for k, block in zip(ks, got):
        assert np.array_equal(block, single.normal_block(k, 1, n, dim))
    for k in (0, 1, 5):
        assert np.array_equal(got[ks.index(k)], _reference_block(2024, k, 1, n, dim))
    # the chunk is shared, so the blocks it hands out cannot be written
    with pytest.raises(ValueError):
        cold.normal_block(2, 1, n, dim)[0, 0] = 0.0


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
    stream = GradientStream(11)
    noise = NoiseModel.gaussian(0.3)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 2))
    GX, GY = sample_grads(prob, X, Y, noise, stream, k=9)
    EX, EY = prob.grads_all(X, Y)
    for i in range(4):
        gx, gy = sample_grad(prob, i, X[i], Y[i], noise, stream, k=9)
        # identical noise stream per node; gradient bases agree to rounding
        assert np.array_equal(GX[i] - EX[i], gx - prob.grad_x(i, X[i], Y[i]))
        assert np.array_equal(GY[i] - EY[i], gy - prob.grad_y(i, X[i], Y[i]))
        assert np.allclose(GX[i], gx, rtol=1e-14, atol=1e-14)
        assert np.allclose(GY[i], gy, rtol=1e-14, atol=1e-14)


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
    doc = json.loads(p.to_json())
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
    assert avg.grad_x(0, [0.0], [0.0])[0] == pytest.approx(-1.0)
    assert avg.grad_y(0, [0.0], [0.0])[0] == pytest.approx(0.6)
    # average coupling (1+2)/2 and curvature (1+4)/2
    assert avg.A_bar[0, 0] == pytest.approx(1.5)
    assert avg.C_bar[0, 0] == pytest.approx(2.5)
