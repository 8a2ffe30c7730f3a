"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from adast.problems import X_AXIS, Y_AXIS, QuadraticLocal, QuadraticMinimaxProblem


def make_random_problem(
    n: int, p: int, d: int, seed: int, mu_min: float = 0.5, scale: float = 1.0
) -> QuadraticMinimaxProblem:
    """Random NC-SC instance: B blocks SPD with eigenvalues >= mu_min,
    C symmetric and possibly indefinite."""
    rng = np.random.default_rng(seed)
    locs = []
    for _ in range(n):
        Mb = rng.standard_normal((d, d)) * scale
        B = Mb @ Mb.T / d + mu_min * np.eye(d)
        A = rng.standard_normal((p, d)) * scale
        Mc = rng.standard_normal((p, p)) * scale
        C = 0.5 * (Mc + Mc.T)
        b = rng.standard_normal(p) * scale
        c = rng.standard_normal(d) * scale
        locs.append(QuadraticLocal(B=B, A=A, C=C, b=b, c=c))
    return QuadraticMinimaxProblem(locs, meta={"name": "random", "seed": seed})


def sinkhorn_doubly_stochastic(n: int, seed: int, iters: int = 2000) -> np.ndarray:
    """Random doubly-stochastic matrix by alternating row/column normalization."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 1.0, size=(n, n))
    for _ in range(iters):
        W /= W.sum(axis=1, keepdims=True)
        W /= W.sum(axis=0, keepdims=True)
    return W


# Reference objective, written from the coefficients as in the problems
# module docstring, independent of the stacked oracle ``grads_block``.

def local_value(loc: QuadraticLocal, x, y) -> float:
    """f_i(x, y) = -1/2 y'B y + x'A y - 1/2 x'C x + b'x + c'y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(-0.5 * y @ loc.B @ y + x @ loc.A @ y - 0.5 * x @ loc.C @ x
                 + loc.b @ x + loc.c @ y)


def local_grads(loc: QuadraticLocal, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(grad_x f_i, grad_y f_i) = (A y - C x + b, -B y + A'x + c)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return loc.A @ y - loc.C @ x + loc.b, -loc.B @ y + loc.A.T @ x + loc.c


def phi(problem: QuadraticMinimaxProblem, x) -> float:
    """Phi(x) = f(x, y*(x)) of the averaged objective f = mean_i f_i."""
    y = problem.y_star(x)
    return float(np.mean([local_value(loc, x, y) for loc in problem.locals]))


def grads_at(problem: QuadraticMinimaxProblem, x, y) -> np.ndarray:
    """The production oracle ``grads_block`` with every node at the point
    (x, y): row i is [grad_x f_i | grad_y f_i]."""
    xy = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]).astype(float)
    return problem.grads_block(np.tile(xy, (problem.n, 1)))


def node_sample(problem: QuadraticMinimaxProblem, i: int, x, y, noise, stream, k: int):
    """Node i's stochastic gradient at (x, y), one node at a time: the
    reference gradient plus sigma times row i of iteration k's block, each
    side norm-clipped on its own."""
    gx, gy = local_grads(problem.locals[i], x, y)
    if noise.kind == "none":
        return gx, gy
    gx = gx + noise.sigma * stream.normal_block(k, X_AXIS, problem.n, problem.p)[i]
    gy = gy + noise.sigma * stream.normal_block(k, Y_AXIS, problem.n, problem.d)[i]
    if noise.kind == "gaussian-clipped":
        gx, gy = (g * min(1.0, noise.clip / np.linalg.norm(g)) for g in (gx, gy))
    return gx, gy
