"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion-stated tolerances are hard-coded here; run-derived calibrations
(per-instance stepsizes, window sizes, golden floors) come from
goldens.json and were frozen from verified reference runs.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from adast.algorithms import AlgoConfig, run
from adast.harness import RunConfig, run_experiment
from adast.problems import (
    NoiseModel,
    ProjectionSet,
    make_counterexample,
    make_two_node_case_study,
    project,
)
from adast.topology import (
    GraphKind,
    GraphSpec,
    spectral_rho,
    validate_doubly_stochastic,
    weights_for,
)
from conftest import grads_at, local_value, make_random_problem, phi, sinkhorn_doubly_stochastic

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())

CE_CONFIGS = [(0.6, 0.4), (0.75, 0.25), (0.9, 0.1)]
CE_X0 = (1.0, 10.0, 100.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _line_distance(xbar, ybar) -> float:
    """Distance of (xbar, ybar) from the case study's stationary line 5x - 3y + 2 = 0."""
    return abs(5.0 * xbar[0] - 3.0 * ybar[0] + 2.0) / math.sqrt(34.0)


def _ce_gammas(alpha: float, beta: float, x0: float) -> tuple[float, float]:
    key = f"{alpha},{beta},{int(x0)}"
    gx, gy = GOLDENS["counterexample"]["gamma_table"][key]
    return gx, gy


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def case_study_traces():
    """Criterion-3 reference runs, shared with the conservation check."""
    g = GOLDENS["case_study"]["gamma"]
    problem = make_two_node_case_study()
    W = weights_for(GraphSpec(n=2, kind=GraphKind.RING)).W
    base = GOLDENS["case_study"]["init_base"]
    spread = GOLDENS["case_study"]["init_spread"]
    X0 = (base + spread * np.arange(2))[:, None]
    Y0 = (base + spread * np.arange(2))[:, None]
    t0 = time.perf_counter()
    traces = {}
    for algo in ("d-sgda", "d-tiada", "d-adast"):
        cfg = AlgoConfig(algo=algo, gamma_x=g, gamma_y=g, alpha=0.6, beta=0.4,
                         c0=1e-6, K=100_000)
        traces[algo] = run(problem, W, cfg, NoiseModel.none(), x0=X0, y0=Y0,
                           seed=0, trace_stride=100)
    traces["_elapsed"] = time.perf_counter() - t0
    traces["_problem"] = problem
    return traces


@pytest.fixture(scope="module")
def coordinate_traces():
    """Criterion-9 runs: scalar vs coordinate-wise trackers on p = d = 4."""
    gd = GOLDENS["coordinate_steady_state"]
    problem = make_random_problem(n=8, p=4, d=4, seed=gd["problem_seed"])
    W = weights_for(GraphSpec(n=8, kind=GraphKind.RING)).W
    g = gd["gamma"]
    t0 = time.perf_counter()
    out = {}
    for algo in ("d-adast", "d-adast-coord"):
        cfg = AlgoConfig(algo=algo, gamma_x=g, gamma_y=g, alpha=0.6, beta=0.4,
                         c0=1e-6, K=100_000)
        out[algo] = run(problem, W, cfg, NoiseModel.none(), x0=1.0, y0=1.0,
                        seed=0, trace_stride=1000)
    out["_elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def counterexample_escape_traces():
    """Criterion-2 runs at the frozen per-instance stepsizes; d-tiada reuses
    the same stepsizes in criterion 1 for an apples-to-apples comparison."""
    t0 = time.perf_counter()
    out = {}
    for alpha, beta in CE_CONFIGS:
        problem, slope = make_counterexample(alpha, beta)
        W = np.full((3, 3), 1.0 / 3.0)
        for x0 in CE_X0:
            gx, gy = _ce_gammas(alpha, beta, x0)
            cfg = AlgoConfig(algo="d-adast", gamma_x=gx, gamma_y=gy, alpha=alpha,
                             beta=beta, c0=0.0, K=10_000)
            out[(alpha, beta, x0)] = run(
                problem, W, cfg, NoiseModel.none(),
                x0=np.full((3, 1), x0), y0=np.full((3, 1), slope * x0),
                seed=0, trace_stride=10,
            )
    out["_elapsed"] = time.perf_counter() - t0
    return out


# -------------------------------------------------------------- criterion 1

def test_criterion_1_dtiada_invariance_exact():
    # Stepsizes are free here (the invariance holds for any gamma > 0 in
    # exact arithmetic); gamma = 1 keeps the line a numerically stable
    # equilibrium so rounding noise stays microscopic.
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, beta in CE_CONFIGS:
        problem, slope = make_counterexample(alpha, beta)
        W = np.full((3, 3), 1.0 / 3.0)
        for x0 in CE_X0:
            cfg = AlgoConfig(algo="d-tiada", gamma_x=1.0, gamma_y=1.0, alpha=alpha,
                             beta=beta, c0=0.0, K=1000)
            trace = run(problem, W, cfg, NoiseModel.none(),
                        x0=np.full((3, 1), x0), y0=np.full((3, 1), slope * x0),
                        seed=0, trace_stride=1)
            xb, yb = trace.xbar[:, 0], trace.ybar[:, 0]
            gxn = np.sqrt(trace.grad_xf_sq)
            # averaged dual gradient: -Bbar*y + Abar*x + cbar, scalar case
            gyn = np.abs(
                problem.A_bar[0, 0] * xb - problem.B_bar[0, 0] * yb + problem.c_bar[0]
            )
            drift_x = np.abs(gxn - gxn[0]).max() / gxn[0]
            drift_y = np.abs(gyn - gyn[0]).max() / gyn[0]
            worst = max(worst, drift_x, drift_y)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report("1 (untracked frozen-iterates invariance)", ok,
            f"worst relative drift {worst:.2e} <= 1e-9 over 9 configs, {elapsed:.2f}s < 1s")
    assert worst <= 1e-9
    assert elapsed < 1.0, f"nine K=1e3 runs took {elapsed:.2f}s (budget 1s)"


# -------------------------------------------------------------- criterion 2

def test_criterion_2_dadast_escapes(counterexample_escape_traces):
    gd = GOLDENS["counterexample"]
    window = gd["escape_window"]
    tail = gd["escape_trailing_windows"]
    rtol = gd["escape_monotone_rel_tol"]
    all_ok = True
    details = []
    for (alpha, beta, x0), trace in (
        (k, v) for k, v in counterexample_escape_traces.items() if isinstance(k, tuple)
    ):
        ratio = math.sqrt(trace.grad_xf_sq[-1] / trace.grad_xf_sq[0])
        dists = np.hypot(trace.xbar[1:-1, 0], trace.ybar[1:-1, 0])
        w = dists.reshape(10, window // 10).mean(axis=1)
        tw = w[-tail:]
        mono = bool(np.all(np.diff(tw) <= rtol * tw[:-1] + 1e-12 * (w[0] + 1.0)))
        ok = (ratio < 0.5) and mono and not trace.aborted
        all_ok &= ok
        details.append(f"({alpha},{beta},x0={x0:g}): ratio={ratio:.3f} mono={mono}")
    elapsed = counterexample_escape_traces["_elapsed"]
    _report("2 (d-adast escape)", all_ok and elapsed < 5.0,
            "; ".join(details) + f"; {elapsed:.1f}s < 5s")
    assert all_ok, details
    assert elapsed < 5.0, f"nine K=1e4 runs took {elapsed:.1f}s (budget 5s)"


# -------------------------------------------------------------- criterion 3

def test_criterion_3_case_study(case_study_traces):
    gd = GOLDENS["case_study"]
    problem = case_study_traces["_problem"]
    adast = case_study_traces["d-adast"]
    tiada = case_study_traces["d-tiada"]
    sgda = case_study_traces["d-sgda"]

    dist_adast = _line_distance(adast.xbar[-1], adast.ybar[-1])
    ok_a = dist_adast < 1e-2

    zeta_tail = adast.zeta_v_series[-gd["zeta_window"]:].mean()
    ok_b = zeta_tail < 1e-3

    zeta_min = tiada.zeta_v_series.min()
    ok_c = zeta_min >= gd["dtiada_zeta_floor"] and gd["dtiada_zeta_floor"] >= 1e-2

    sgda_dists = [
        _line_distance(xbar, ybar)
        for xbar, ybar in zip(sgda.xbar, sgda.ybar)
        if np.isfinite(xbar).all()
    ]
    ok_d = min(sgda_dists) >= dist_adast

    elapsed = case_study_traces["_elapsed"]
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 30.0
    _report(
        "3 (case study)", ok,
        f"(a) d-adast dist {dist_adast:.2e} < 1e-2: {ok_a}; "
        f"(b) zeta tail {zeta_tail:.2e} < 1e-3: {ok_b}; "
        f"(c) d-tiada zeta min {zeta_min:.3f} >= {gd['dtiada_zeta_floor']}: {ok_c}; "
        f"(d) d-sgda min dist {min(sgda_dists):.3f} >= d-adast final: {ok_d}; "
        f"{elapsed:.1f}s < 30s",
    )
    assert ok_a and ok_b and ok_c and ok_d
    assert elapsed < 30.0, f"case-study runs took {elapsed:.1f}s (budget 30s)"
    # the d-sgda non-convergence here is divergence: an aborted run is the
    # expected outcome and its partial trace is what the check consumed
    assert sgda.aborted


# -------------------------------------------------------------- criterion 4

def test_criterion_4_synthetic_ordering():
    """Faithful implementation of the stated criterion.

    KNOWN RED (gamma_x = 0.1 leg): on this problem family the averaged
    primal function is concave (curvature -Var(L)), so its unique
    stationary point is an unstable saddle of the gradient-descent-ascent
    flow (the linearization has negative determinant).  The tracking
    algorithm follows the true averaged flow and escapes the saddle within
    a few thousand iterations at gamma_x = 0.1, while the untracked
    variant's stepsize-inconsistency bias acts as a restoring force that
    parks it at a constant offset (~2.3e-2), which on this metric looks
    better once escape begins.  Verified across initializations (origin,
    +-1, 5, y-offsets, stationary point), horizons (500..1e5), both update
    orderings and several exponent pairs: no configuration gives a robust
    pass for the 0.1 leg, so it is left to fail rather than weakening the
    check.  The gamma_x = 0.02 leg isolates the steady-state error as
    intended (escape is ~25x slower) and passes with a ~20x margin.

    Centralized limit: the averaged Phi has curvature -Var(L) (the affine
    closed form's slope ``_phi_lin`` is -0.085 for seed 0 and -0.077 for
    seed 1), so Phi is concave and unbounded below and its stationary point
    is a maximum that gradient descent leaves; nonconvex rates bound
    stationarity through Phi(x0) - inf Phi, which is infinite here.  The
    centralized counterpart behaves the same way: ``run`` on
    ``problem.averaged()`` with W = [1], started at the stationary point with the
    network-averaged noise sigma = sqrt(0.1 / 50) and gamma_x = 0.1, ends
    at a windowed ||grad Phi||^2 of 0.59 (seed 0) and 0.46 (seed 1).
    D-AdaST's ~9.4e-2 is therefore faithful tracking of that flow, and
    D-TiAda's ~2.3e-2 is its inconsistency bias pinning it in place.  The
    check stays as stated until the source's own synthetic setup and
    metric can settle it.
    """
    gd = GOLDENS["synthetic"]
    K = gd["K"]
    window = max(1, int(gd["window_fraction"] * K))
    t0 = time.perf_counter()
    finals: dict[tuple[float, str], list[float]] = {}
    rho_reported = None
    for gamma_x in (0.1, 0.02):
        for seed in gd["seeds"]:
            cfg = RunConfig(
                experiment="synthetic",
                algo_configs=[
                    AlgoConfig(algo=a, gamma_x=gamma_x, gamma_y=0.1, alpha=0.6,
                               beta=0.4, c0=1e-6, K=K)
                    for a in ("d-sgda", "d-tiada", "d-adast")
                ],
                n=50,
                noise=NoiseModel.gaussian(math.sqrt(0.1)),
                seed=seed,
                trace_stride=100,
                out_dir=None,
            )
            result = run_experiment(cfg)
            rho_reported = result.manifest["rho_w_spectral_norm"]
            for label, trace in result.traces.items():
                g = trace.grad_phi_sq[trace.k > K - window]
                vals = g[np.isfinite(g)]
                final = float(np.mean(vals)) if len(vals) else float("inf")
                if trace.aborted:
                    final = float("inf")
                finals.setdefault((gamma_x, label), []).append(final)
    elapsed = time.perf_counter() - t0

    ok_rho = abs(rho_reported - 0.71) <= 0.02
    details = [f"rho_w reported {rho_reported:.3f} in 0.71+-0.02: {ok_rho}"]
    ok_order = True
    for gamma_x in (0.1, 0.02):
        mean = {a: float(np.mean(finals[(gamma_x, a)])) for a in ("d-sgda", "d-tiada", "d-adast")}
        leg = mean["d-adast"] < mean["d-tiada"] and mean["d-tiada"] < mean["d-sgda"] \
            and mean["d-adast"] < mean["d-sgda"]
        ok_order &= leg
        details.append(
            f"gx={gamma_x}: d-adast={mean['d-adast']:.3e} d-tiada={mean['d-tiada']:.3e} "
            f"d-sgda={mean['d-sgda']:.3e} ordering={leg}"
        )
    ok = ok_order and ok_rho and elapsed < 300.0
    _report("4 (synthetic ordering)", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok_rho
    assert elapsed < 300.0
    assert ok_order, (
        "final windowed grad_phi_sq ordering failed; the gamma_x=0.1 leg is a "
        "known impossibility on this instance family (saddle escape vs "
        "inconsistency-bias pinning; see this test's docstring). "
        + "; ".join(details)
    )


# -------------------------------------------------------------- criterion 5

def test_criterion_5_tracking_conservation(case_study_traces, coordinate_traces,
                                            counterexample_escape_traces):
    worst = 0.0

    def check(trace, c0):
        nonlocal worst
        rows = zip(trace.k[1:].tolist(), trace.avg_m_x[1:].tolist(), trace.avg_m_y[1:].tolist())
        for k, avg_m_x, avg_m_y in rows:
            if k == 0 or avg_m_x <= 0:
                continue
            idx = min(k, len(trace.gsum_x_series)) - 1
            dx = abs(avg_m_x - (c0 + trace.gsum_x_series[idx])) / avg_m_x
            dy = abs(avg_m_y - (c0 + trace.gsum_y_series[idx])) / avg_m_y
            worst = max(worst, dx, dy)

    check(case_study_traces["d-adast"], 1e-6)
    check(case_study_traces["d-tiada"], 1e-6)
    check(coordinate_traces["d-adast"], 1e-6)
    check(coordinate_traces["d-adast-coord"], 1e-6)
    check(counterexample_escape_traces[(0.75, 0.25, 10.0)], 0.0)
    # a noisy synthetic run as well
    cfg = RunConfig(
        experiment="synthetic",
        algo_configs=[AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=10_000)],
        n=50,
        noise=NoiseModel.gaussian(math.sqrt(0.1)),
        seed=0,
        trace_stride=100,
        out_dir=None,
    )
    check(run_experiment(cfg).traces["d-adast"], 1e-6)

    ok = worst <= 1e-12
    _report("5 (tracking conservation)", ok,
            f"worst relative deviation {worst:.2e} <= 1e-12 across golden runs")
    assert ok


# -------------------------------------------------------------- criterion 6

def test_criterion_6_weight_matrix_suite():
    specs = [
        (GraphKind.RING, n) for n in (2, 3, 4, 8, 20)
    ] + [
        (GraphKind.DIRECTED_RING, 7),
        (GraphKind.EXPONENTIAL, 6),
        (GraphKind.EXPONENTIAL, 50),
        (GraphKind.DENSE, 8),
        (GraphKind.DENSE, 20),
        (GraphKind.COMPLETE, 5),
    ]
    all_valid = True
    for kind, n in specs:
        wm = weights_for(GraphSpec(n=n, kind=kind))
        all_valid &= validate_doubly_stochastic(wm.W)["passed"]

    worst_gap = 0.0
    for seed in range(20):
        n = 2 + seed % 19
        W = sinkhorn_doubly_stochastic(n, seed=seed)
        svd_rho = np.linalg.svd(W - 1.0 / n, compute_uv=False)[0] ** 2
        worst_gap = max(worst_gap, abs(spectral_rho(W) - svd_rho))

    ring4 = weights_for(GraphSpec(n=4, kind=GraphKind.RING))
    ring4_err = abs(ring4.rho_w - 1.0 / 9.0)

    ok = all_valid and worst_gap <= 1e-8 and ring4_err <= 1e-9
    _report("6 (weight-matrix suite)", ok,
            f"all doubly stochastic at 1e-12: {all_valid}; eigenvalue route vs SVD "
            f"gap {worst_gap:.2e} <= 1e-8; ring4 |rho - 1/9| = {ring4_err:.2e} <= 1e-9")
    assert all_valid
    assert worst_gap <= 1e-8
    assert ring4_err <= 1e-9


# -------------------------------------------------------------- criterion 7

def test_criterion_7_oracle_suite():
    rng = np.random.default_rng(0)
    h = 1e-5

    worst_fd = 0.0
    for seed in range(100):
        prob = make_random_problem(n=2, p=2, d=2, seed=3000 + seed)
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        i = seed % 2
        gx, gy = np.split(grads_at(prob, x, y)[i], [2])
        gphi = prob.grad_phi([x])[0]
        scale = max(1.0, np.abs(gx).max(), np.abs(gy).max(), np.abs(gphi).max())
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fdx = (local_value(prob, i, x + e, y) - local_value(prob, i, x - e, y)) / (2 * h)
            fdy = (local_value(prob, i, x, y + e) - local_value(prob, i, x, y - e)) / (2 * h)
            fdp = (phi(prob, x + e) - phi(prob, x - e)) / (2 * h)
            worst_fd = max(
                worst_fd,
                abs(fdx - gx[j]) / scale,
                abs(fdy - gy[j]) / scale,
                abs(fdp - gphi[j]) / scale,
            )
    ok_fd = worst_fd <= 1e-6

    worst_exp = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 4))
        if trial % 2 == 0:
            lo = rng.standard_normal(d)
            pset = ProjectionSet.box(lo, lo + rng.uniform(0.1, 2.0, d))
        else:
            pset = ProjectionSet.ball(rng.standard_normal(d), float(rng.uniform(0.1, 3.0)))
        u = rng.standard_normal(d) * 4
        v = rng.standard_normal(d) * 4
        gap = np.linalg.norm(project(pset, u) - project(pset, v)) - np.linalg.norm(u - v)
        worst_exp = max(worst_exp, gap)
    ok_proj = worst_exp <= 1e-12

    worst_sc = -np.inf
    probs = [make_random_problem(n=2, p=2, d=2, seed=4000 + s) for s in range(5)]
    for trial in range(1000):
        prob = probs[trial % 5]
        i = trial % 2
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        y2 = rng.standard_normal(2)
        lhs = local_value(prob, i, x, y) - local_value(prob, i, x, y2)
        gy = grads_at(prob, x, y)[i, 2:]
        rhs = gy @ (y - y2) + 0.5 * prob.mu * np.sum((y - y2) ** 2)
        worst_sc = max(worst_sc, rhs - lhs)
    ok_sc = worst_sc <= 1e-9

    ok = ok_fd and ok_proj and ok_sc
    _report("7 (oracle suite)", ok,
            f"FD gradient worst rel err {worst_fd:.2e} <= 1e-6 (100 instances); "
            f"non-expansiveness slack {worst_exp:.2e} <= 1e-12 (1000 pairs); "
            f"strong-concavity violation {worst_sc:.2e} <= 1e-9 (1000 triples)")
    assert ok_fd
    assert ok_proj
    assert ok_sc


# -------------------------------------------------------------- criterion 8

def test_criterion_8_centralized_limit():
    prob = make_random_problem(n=1, p=2, d=3, seed=77)
    cfg = AlgoConfig(algo="d-adast", gamma_x=0.2, gamma_y=0.3, alpha=0.6, beta=0.4,
                     c0=1e-6, K=1000)
    noise = NoiseModel.gaussian(0.2)
    kw = dict(x0=0.5, y0=-0.5, seed=13, trace_stride=1)
    t1 = run(prob, np.ones((1, 1)), cfg, noise, **kw)
    t2 = run(prob.averaged(), np.ones((1, 1)), cfg, noise, **kw)
    identical = all(
        np.array_equal(getattr(t1, name), getattr(t2, name), equal_nan=name == "grad_phi_sq")
        for name in ("k", "grad_phi_sq", "grad_xf_sq", "avg_m_x", "avg_m_y", "xbar", "ybar")
    )
    _report("8 (centralized limit)", identical,
            f"{len(t1.k)} records bit-identical over 1e3 iterations: {identical}")
    assert identical


# -------------------------------------------------------------- criterion 9

def test_criterion_9_coordinate_steady_state(coordinate_traces):
    gd = GOLDENS["coordinate_steady_state"]
    window = gd["window"]
    scalar_zeta = float(coordinate_traces["d-adast"].zeta_v_series[-window:].mean())
    coord_hat = float(coordinate_traces["d-adast-coord"].zeta_v_hat_series[-window:].mean())
    elapsed = coordinate_traces["_elapsed"]

    ok_margin = scalar_zeta <= gd["scalar_zeta_window_max"] \
        and coord_hat >= gd["coord_zeta_hat_window_min"]
    ok = scalar_zeta < coord_hat and ok_margin and elapsed < 60.0
    _report("9 (coordinate steady state)", ok,
            f"scalar zeta windowed {scalar_zeta:.2e} < coordinate zeta-hat windowed "
            f"{coord_hat:.2e}; golden margins: {ok_margin}; {elapsed:.1f}s < 60s")
    assert scalar_zeta < coord_hat
    assert ok_margin
    assert elapsed < 60.0
