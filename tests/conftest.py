"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from adast.problems import X_AXIS, Y_AXIS, QuadraticMinimaxProblem


def make_random_problem(
    n: int, p: int, d: int, seed: int, mu_min: float = 0.5, scale: float = 1.0
) -> QuadraticMinimaxProblem:
    """Random NC-SC instance: B blocks SPD with eigenvalues >= mu_min,
    C symmetric and possibly indefinite."""
    rng = np.random.default_rng(seed)
    A, B, C = np.empty((n, p, d)), np.empty((n, d, d)), np.empty((n, p, p))
    b, c = np.empty((n, p)), np.empty((n, d))
    for i in range(n):
        Mb = rng.standard_normal((d, d)) * scale
        B[i] = Mb @ Mb.T / d + mu_min * np.eye(d)
        A[i] = rng.standard_normal((p, d)) * scale
        Mc = rng.standard_normal((p, p)) * scale
        C[i] = 0.5 * (Mc + Mc.T)
        b[i] = rng.standard_normal(p) * scale
        c[i] = rng.standard_normal(d) * scale
    return QuadraticMinimaxProblem(A, B, C, b, c, meta={"name": "random", "seed": seed})


def scalar_problem(A, B, C, b, c) -> QuadraticMinimaxProblem:
    """The p = d = 1 problem whose node i has the scalar coefficients
    A[i], B[i], C[i], b[i], c[i]."""
    A, B, C = (np.reshape(np.asarray(M, dtype=float), (-1, 1, 1)) for M in (A, B, C))
    b, c = (np.reshape(np.asarray(v, dtype=float), (-1, 1)) for v in (b, c))
    return QuadraticMinimaxProblem(A, B, C, b, c)


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

def local_value(problem: QuadraticMinimaxProblem, i: int, x, y) -> float:
    """f_i(x, y) = -1/2 y'B y + x'A y - 1/2 x'C x + b'x + c'y, from node
    i's rows of the coefficient stacks."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    A, B, C = problem.A_stack[i], problem.B_stack[i], problem.C_stack[i]
    b, c = problem.b_stack[i], problem.c_stack[i]
    return float(-0.5 * y @ B @ y + x @ A @ y - 0.5 * x @ C @ x + b @ x + c @ y)


def local_grads(problem: QuadraticMinimaxProblem, i: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Node i's (grad_x f_i, grad_y f_i) = (A y - C x + b, -B y + A'x + c)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    A, B, C = problem.A_stack[i], problem.B_stack[i], problem.C_stack[i]
    return A @ y - C @ x + problem.b_stack[i], -B @ y + A.T @ x + problem.c_stack[i]


def phi(problem: QuadraticMinimaxProblem, x) -> float:
    """Phi(x) = f(x, y*(x)) of the averaged objective f = mean_i f_i."""
    y = problem.y_star([x])[0]
    return float(np.mean([local_value(problem, i, x, y) for i in range(problem.n)]))


def grads_at(problem: QuadraticMinimaxProblem, x, y) -> np.ndarray:
    """The production oracle ``grads_block`` with every node at the point
    (x, y): row i is [grad_x f_i | grad_y f_i]."""
    xy = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]).astype(float)
    return problem.grads_block(np.tile(xy, (problem.n, 1)))


def node_sample(problem: QuadraticMinimaxProblem, i: int, x, y, noise, stream, k: int):
    """Node i's stochastic gradient at (x, y), one node at a time: the
    reference gradient plus sigma times row i of iteration k's block, each
    side norm-clipped on its own."""
    gx, gy = local_grads(problem, i, x, y)
    if noise.kind == "none":
        return gx, gy
    gx = gx + noise.sigma * stream.normal_block(k, X_AXIS, problem.n, problem.p)[i]
    gy = gy + noise.sigma * stream.normal_block(k, Y_AXIS, problem.n, problem.d)[i]
    if noise.kind == "gaussian-clipped":
        gx, gy = (g * min(1.0, noise.clip / np.linalg.norm(g)) for g in (gx, gy))
    return gx, gy
