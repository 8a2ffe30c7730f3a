import math

import numpy as np
import pytest

from adast.algorithms import AlgoConfig, run
from adast.errors import ConfigError
from adast.metrics import (
    consensus_error,
    grad_phi_sq,
    grad_xf_sq,
    zeta_hat_series,
    zeta_series,
)
from adast.problems import NoiseModel, make_two_node_case_study
from adast.topology import GraphKind, GraphSpec, weights_for
from conftest import make_random_problem, phi, scalar_problem


def _zeta(V, expo):
    """The inconsistency of one iteration's denominators V: a one-row series."""
    return zeta_series(np.asarray(V)[None], expo)[0]


def _zeta_hat(V, expo):
    return zeta_hat_series(np.asarray(V)[None], expo)[0]


def test_inconsistency_all_equal_is_zero():
    assert _zeta(np.full(5, 3.7), 0.6) == 0.0
    assert _zeta(np.full(3, 0.2), 0.4) == 0.0
    assert _zeta(np.array([9.0]), 0.6) == 0.0  # n = 1


def test_inconsistency_two_node_example():
    # v = {1, 16}, alpha = 0.5: vbar = 8.5 and the max ratio is
    # (1 - 8.5^-0.5)^2 * 8.5 = 9.5 - 17/sqrt(8.5)
    expect = 9.5 - 17.0 / math.sqrt(8.5)
    assert _zeta(np.array([1.0, 16.0]), 0.5) == pytest.approx(expect, abs=1e-9)


def test_inconsistency_u_mirrors_v():
    # the run reduces the v and u denominators of a chunk with the same
    # series at their own exponents; each row equals its one-row value
    rng = np.random.default_rng(5)
    V = rng.uniform(0.5, 7.0, size=(6, 3))
    for expo in (0.37, 0.63):
        series = zeta_series(V, expo)
        assert [_zeta(v, expo) for v in V] == series.tolist()


@pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["scalar", "coordinate-wise"])
def test_zeta_takes_the_ratio_form_where_vbar_power_squared_underflows(shape):
    # zeta is invariant under scaling the denominators; past about 1e220
    # (alpha = 0.7) or 1e171 (0.9) vbar^-2a underflows, and the quotient
    # form read 0 / 0.  Those rows take ((v / vbar)^-a - 1)^2, and a row
    # clear of the underflow keeps its bits
    rng = np.random.default_rng(7)
    V = rng.uniform(0.5, 2.0, (1, *shape))
    stack = np.concatenate([V, V * 1e230, V * 1e300])
    for expo in (0.7, 0.9):
        series = [zeta_series(stack, expo)] + ([zeta_hat_series(stack, expo)] if V.ndim == 3
                                                 else [])
        for z in series:
            assert np.isfinite(z).all() and z[0] > 0
            assert z[1:] == pytest.approx([z[0]] * 2, rel=1e-12)
        assert series[0][0] == zeta_series(V, expo)[0]


def test_coordinate_inconsistency_flattened_mean():
    # independent hand evaluation of the Frobenius form for V = [[1, 4]]
    V = np.array([[1.0, 4.0]])
    a = 0.5
    vbar = 2.5 ** -a
    dev0 = 1.0 ** -a - vbar
    dev1 = 4.0 ** -a - vbar
    expect = (dev0 * dev0 + dev1 * dev1) / (1 * 2 * vbar * vbar)
    assert _zeta(V, a) == pytest.approx(expect, rel=1e-12)


def test_zeta_hat_hand_example():
    V = np.array([[1.0, 4.0]])
    a = 0.5
    vbar = 2.5 ** -a
    row = 2.5 ** -a  # row mean of [1, 4] is 2.5
    dev0 = 1.0 ** -a - row
    dev1 = 4.0 ** -a - row
    expect = (dev0 * dev0 + dev1 * dev1) / (1 * 2 * vbar * vbar)
    assert _zeta_hat(V, a) == pytest.approx(expect, rel=1e-12)
    # consensual rows across nodes but spread within rows: zeta_hat persists
    V2 = np.tile(np.array([1.0, 4.0]), (6, 1))
    assert _zeta_hat(V2, a) == pytest.approx(_zeta_hat(V, a), rel=1e-12)
    # equal coordinates within each row: zeta_hat vanishes
    V3 = np.array([[2.0, 2.0], [5.0, 5.0]])
    assert _zeta_hat(V3, a) == 0.0


def test_zeta_series_with_the_power_given_equal_the_plain_calls():
    # the run loop makes v ** -alpha once and hands it to both series
    rng = np.random.default_rng(4)
    for shape in [(30, 5), (30, 4, 3)]:
        V = rng.uniform(0.1, 10.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
        V[::7] = V[::7].flat[0]  # rows of equal values, zeta 0 by definition
        for expo in (0.6, 0.35):
            v_pow = V ** -expo
            got = zeta_series(V, expo, v_pow)
            assert np.array_equal(got, zeta_series(V, expo))
            assert np.all(got[::7] == 0.0)
            if V.ndim == 3:
                assert np.array_equal(zeta_hat_series(V, expo, v_pow), zeta_hat_series(V, expo))
            assert np.array_equal(v_pow, V ** -expo)  # the power is left as it was


def test_consensus_error_examples():
    X = np.array([[[1.0], [1.0], [1.0]]])
    cx, cy = consensus_error(X, X)
    assert (cx[0], cy[0]) == (0.0, 0.0)
    X2 = np.array([[[0.0], [2.0]]])
    cx, _ = consensus_error(X2, X2)
    assert cx[0] == pytest.approx(2.0)
    shifted = X2 + 17.3
    assert consensus_error(shifted, shifted)[0][0] == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        consensus_error(X2[0], X2[0])  # one snapshot, not a stack of them


@pytest.mark.parametrize("value", [1e160, 0.1 * 2.0 ** 566, 0.1 * 2.0 ** 568])
def test_consensus_error_of_equal_nodes_is_exactly_zero(value):
    # the rounded mean of three equal values can be one rounding step off
    # them: squared, that step read 3.37e307 at 0.1 * 2^566 and inf at
    # 0.1 * 2^568 (9.7e169, the size of the counterexample's d-sgda iterates)
    X = np.full((2, 3, 2), value)
    X[1] *= -1.0
    cx, cy = consensus_error(X, X[:, :, :1])
    assert cx.tolist() == cy.tolist() == [0.0, 0.0]


def test_grad_phi_sq_examples():
    case = make_two_node_case_study()
    for x in (0.0, 1.0, -2.5):
        assert grad_phi_sq(case, np.array([[x]]))[0] <= 1e-24
    pair = scalar_problem(A=[1.5, 2.5], B=[1.0, 1.0], C=[1.5**2, 2.5**2], b=[-3.0, -5.0],
                          c=[1.5, 2.5])
    assert grad_phi_sq(pair, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-24)
    assert grad_phi_sq(pair, np.array([[1.0]]))[0] == pytest.approx(0.0625)


def test_grad_phi_sq_matches_finite_difference():
    prob = make_random_problem(n=3, p=2, d=2, seed=9)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2)
    h = 1e-5
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[j] = (phi(prob, x + e) - phi(prob, x - e)) / (2 * h)
    assert grad_phi_sq(prob, x[None])[0] == pytest.approx(float(fd @ fd), rel=1e-6)


def test_grad_xf_sq_uses_average_objective():
    case = make_two_node_case_study()
    g = case.grad_x_avg([[1.0]], [[1.0]])[0]
    gxf = grad_xf_sq(case, np.array([[1.0]]), np.array([[1.0]]))
    assert gxf[0] == pytest.approx(float(g @ g))


def test_batched_metrics_match_single_record_forms():
    # runs reduce their records in stacks; every row must equal the metric
    # of a one-row stack bit for bit, also on strided views of a state block
    rng = np.random.default_rng(11)
    for n, p, d in ((2, 1, 1), (5, 2, 3), (9, 4, 4), (50, 1, 1)):
        prob = make_random_problem(n=n, p=p, d=d, seed=n)
        blocks = rng.standard_normal((6, n, p + d + 2)) * 10.0 ** rng.integers(-3, 4, (6, 1, 1))
        Xs, Ys = blocks[:, :, :p], blocks[:, :, p:p + d]
        xbars = np.add.reduce(Xs, axis=1) / n
        ybars = np.add.reduce(Ys, axis=1) / n
        gphi = grad_phi_sq(prob, xbars)
        gxf = grad_xf_sq(prob, xbars, ybars)
        cx, cy = consensus_error(Xs, Ys)
        assert gphi.shape == gxf.shape == cx.shape == cy.shape == (6,)
        with pytest.raises(ConfigError):
            grad_xf_sq(prob, xbars, ybars[:5])
        for t in range(6):
            assert np.array_equal(xbars[t], Xs[t].mean(axis=0))
            g = prob.grad_phi(xbars[t:t + 1])[0]
            assert gphi[t] == float(g @ g)
            g = prob.grad_x_avg(xbars[t:t + 1], ybars[t:t + 1])[0]
            assert gxf[t] == float(g @ g)
            # deviations of the data shifted by node 0
            sx, sy = Xs[t] - Xs[t][0], Ys[t] - Ys[t][0]
            dx = sx - sx.mean(axis=0)
            dy = sy - sy.mean(axis=0)
            cx1, cy1 = consensus_error(Xs[t:t + 1], Ys[t:t + 1])
            assert (cx[t], cy[t]) == (cx1[0], cy1[0])
            assert (cx[t], cy[t]) == (float(np.sum(dx * dx)), float(np.sum(dy * dy)))


def test_dsgda_zeta_is_zero_by_convention():
    case = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-sgda", gamma_x=0.05, gamma_y=0.05, K=50)
    trace = run(case, W, cfg, NoiseModel.none(), x0=1.0, y0=1.0, trace_stride=10)
    assert np.all(trace.zeta_v_inst == 0.0) and np.all(trace.zeta_u_inst == 0.0)
    assert np.all(trace.zeta_v_series == 0.0)


def test_tracked_inconsistency_window_decay():
    # with tracking, the 100-iteration window means of the per-iteration
    # inconsistency eventually decrease and land below 1e-3
    case = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, alpha=0.6, beta=0.4,
                     K=20_000)
    trace = run(case, W, cfg, NoiseModel.none(),
                x0=np.array([[1.0], [1.01]]), y0=np.array([[1.0], [1.01]]),
                trace_stride=1000)
    w = trace.zeta_v_series.reshape(-1, 100).mean(axis=1)
    peak = int(np.argmax(w))
    tail = w[peak:]
    # monotone until the sequence hits rounding dust far below the target
    above_floor = tail[:-1] > 1e-12
    assert np.all(np.diff(tail)[above_floor] <= 1e-9 * tail[:-1][above_floor])
    assert w[-1] < 1e-3


def test_zeta_sup_monotone_and_dominates_inst():
    case = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=400)
    trace = run(case, W, cfg, NoiseModel.gaussian(0.3), x0=1.0, y0=1.0, seed=3,
                trace_stride=20)
    assert np.all(np.diff(trace.zeta_v_sup) >= 0)
    assert np.all(trace.zeta_v_sup >= trace.zeta_v_inst)
    assert np.all(np.diff(trace.zeta_u_sup) >= 0)
