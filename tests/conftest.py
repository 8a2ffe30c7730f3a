"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from adast.problems import X_AXIS, Y_AXIS, GradientStream, QuadraticMinimaxProblem


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


# Reference run, one node at a time, written from the update rules in
# README and the algorithms module docstring rather than from the stepper:
# every sum over neighbours and over nodes is an explicit loop, and gossip
# is the plain weighted sum, not the mean-centered form.

_TINY = np.finfo(float).tiny  # the smallest normal double

# A value a step computes is at the overflow boundary within this
# factor of the largest double: a form that sums or scales in another
# order (the mean-centered gossip sums n values first) may overflow there.
_NEAR_OVERFLOW = np.finfo(float).max / 2**8


def reference_weights(n: int, edges) -> np.ndarray:
    """W of the custom graph in which node i receives from node j for each
    edge (i, j), self-loops and repeats dropped, by README's weight rules:
    when every edge has its reverse, Metropolis weights 1 / (1 + max(deg_i,
    deg_j)) on the edges and 1 - row sum on the diagonal; otherwise
    1 / (d + 1) on each in-neighbour and on the node itself, d being every
    node's one in- and out-degree."""
    nbrs = [sorted({j for a, j in edges if a == i and j != i}) for i in range(n)]
    W = np.zeros((n, n))
    undirected = all(i in nbrs[j] for i in range(n) for j in nbrs[i])
    for i in range(n):
        for j in nbrs[i]:
            W[i, j] = (1.0 / (1 + max(len(nbrs[i]), len(nbrs[j]))) if undirected
                       else 1.0 / (len(nbrs[i]) + 1))
        W[i, i] = 1.0 - sum(W[i]) if undirected else 1.0 / (len(nbrs[i]) + 1)
    return W


def _gossip(rows: list, vals: list) -> list:
    """Node i's sum of W[i, j] * vals[j] over its in-neighbours j, given
    as ``rows[i]``, the pairs (j, W[i, j]) with W[i, j] != 0."""
    return [sum(w * vals[j] for j, w in row) for row in rows]


def _project(pset, y: np.ndarray) -> np.ndarray:
    """y's Euclidean projection onto the box [lo, hi] or the ball of radius
    r about c: the nearest point of the set; everything else leaves y."""
    if pset.kind == "box":
        return np.minimum(np.maximum(y, pset.lo), pset.hi)
    if pset.kind == "ball":
        dev = y - pset.center
        norm = np.sqrt(dev @ dev)
        return pset.center + dev * (pset.radius / norm) if norm > pset.radius else y
    return y


def _zeta(v: list, expo: float, coord: bool) -> float:
    """Stepsize inconsistency of the denominators v (one array per node):
    the largest (v_i^-a - vbar^-a)^2 / vbar^-2a over nodes for scalars, the
    mean of that ratio over every entry for coordinate-wise ones; 0 when
    every denominator is equal.  Where vbar^-2a underflows, the quotient
    would be rounding over 0, so the ratio is taken in its equal form
    ((v_i / vbar)^-a - 1)^2."""
    flat = np.concatenate(v)
    vbar = flat.mean()
    ref = vbar ** -expo
    if flat.min() == flat.max():
        return 0.0
    if ref ** 2 < _TINY:
        dev = np.concatenate([((vi / vbar) ** -expo - 1.0) ** 2 for vi in v])
    else:
        dev = np.concatenate([(vi ** -expo - ref) ** 2 / ref ** 2 for vi in v])
    return float(dev.mean() if coord else dev.max())


def _zeta_hat(v: list, expo: float) -> float:
    """Each node's entries of v against their own mean, scaled by the
    network mean as in ``_zeta``, with the same equal form where vbar^-2a
    underflows."""
    vbar = np.concatenate(v).mean()
    ref = vbar ** -expo
    if ref ** 2 < _TINY:
        dev = (((vi / vbar) ** -expo - (vi.mean() / vbar) ** -expo) ** 2 for vi in v)
        scale = 1.0
    else:
        dev = ((vi ** -expo - vi.mean() ** -expo) ** 2 for vi in v)
        scale = ref ** 2
    return sum(d.sum() for d in dev) / (len(v) * len(v[0]) * scale)


def _consensus(v: list) -> float:
    """Sum over nodes of the squared deviation from the node mean, taken on
    the values less node 0's (README), so nodes that agree give 0."""
    shifted = [vi - v[0] for vi in v]
    mean = sum(shifted) / len(v)
    return sum((si - mean) @ (si - mean) for si in shifted)


def _first_nonfinite(fields: dict):
    """(node, name) of the first field, in the order given, holding a
    non-finite entry, and its first such node; None when all are finite."""
    for name, vals in fields.items():
        for node, v in enumerate(vals):
            if not np.isfinite(v).all():
                return node, name
    return None


def reference_run(problem: QuadraticMinimaxProblem, W: np.ndarray, cfg, noise, X0, Y0,
                  seed: int) -> dict:
    """``run(problem, W, cfg, noise, x0=X0, y0=Y0, seed=seed)`` for every
    method, recorded at every iteration 0..K.

    Per iteration each node i samples (g_x, g_y) at its iterates and adds
    the squares (||g||^2 per node, g*g per coordinate for d-adast-coord) to
    its accumulators m_x, m_y, except d-sgda, whose accumulators stay c0.
    The stepsizes read the accumulated values, or for the tracked methods
    with ``stepsize_source="mixed"`` their gossip.  D-TiAda steps x by
    gamma_x * max(m_x, m_y)^-alpha; D-AdaST by gamma_x * psi * m_x^-alpha,
    psi = m_x^alpha / max(m_x^alpha, m_y^alpha) from the accumulator norms
    raised to 2 alpha for the coordinate-wise variant; every adaptive
    method steps y by gamma_y * m_y^-beta.  Then x_i - s_x g_x and y_i +
    s_y g_y are gossiped, each y_i is projected onto ``cfg.projection``,
    and the accumulators of the tracked methods with
    ``stepsize_source="local"`` are gossiped too.  The applied denominators
    v are max(m_x, m_y) (entrywise for d-adast-coord when p == d, else
    m_x) and u = m_y.  grad_phi_sq is NaN under a constrained dual domain.

    A step that leaves a value that is not finite ends the run, and no
    record is taken at it.  The abort names the step k and the first field
    with a non-finite entry, and its first such node, among the values
    before gossip (X, Y, and Mx, My for the tracked methods) and, when
    those are all finite, among the state after the step (X, Y, Mx, My).
    A step is at the overflow boundary when it computes a NaN (an
    operation on an overflowed value, whose outcome depends on the form
    evaluated) or a finite value above ``_NEAR_OVERFLOW`` (which another
    form may overflow); from there on, whether and where a run aborts
    turns on rounding.

    Returns the final ``X``, ``Y``, ``Mx`` and ``My`` as (n, .) arrays;
    keyed by its name, each record column of the trace with one row per
    iteration up to the abort or K; ``abort``, the (k, node, field) of the
    abort or None; and ``boundary``, the first step k at the overflow
    boundary or None."""
    n, p, K = problem.n, problem.p, cfg.K
    algo, ax, by = cfg.algo, cfg.alpha, cfg.beta
    tracked = algo in ("d-adast", "d-adast-coord")
    coord = algo == "d-adast-coord"
    constrained = cfg.projection.kind != "all"
    stream = GradientStream(seed)
    rows = [[(j, w) for j, w in enumerate(row) if w != 0.0] for row in W.tolist()]
    x = [np.array(X0[i], dtype=float) for i in range(n)]
    y = [np.array(Y0[i], dtype=float) for i in range(n)]
    mx = [np.full(p if coord else 1, cfg.c0) for _ in range(n)]
    my = [np.full(problem.d if coord else 1, cfg.c0) for _ in range(n)]
    Abar, Bbar, Cbar, bbar, cbar = (sum(S[i] for i in range(n)) / n for S in (
        problem.A_stack, problem.B_stack, problem.C_stack, problem.b_stack, problem.c_stack))
    cols = {name: [] for name in ("xbar", "ybar", "consensus_x", "consensus_y", "avg_m_x",
                                  "avg_m_y", "grad_phi_sq", "grad_xf_sq", "zeta_v_inst",
                                  "zeta_u_inst", "zeta_v_hat_inst")}
    zeta = (0.0, 0.0, 0.0)
    abort = boundary = None

    def record():
        xbar, ybar = sum(x) / n, sum(y) / n
        ystar = np.linalg.solve(Bbar, Abar.T @ xbar + cbar)
        gphi = Abar @ ystar - Cbar @ xbar + bbar
        gx = sum(local_grads(problem, i, xbar, ybar)[0] for i in range(n)) / n
        values = (xbar, ybar, _consensus(x), _consensus(y),
                  sum(m.mean() for m in mx) / n, sum(m.mean() for m in my) / n,
                  np.nan if constrained else gphi @ gphi, gx @ gx, *zeta)
        for name, value in zip(cols, values):
            cols[name].append(value)

    with np.errstate(all="ignore"):
        record()
        for k in range(K):
            g = [node_sample(problem, i, x[i], y[i], noise, stream, k) for i in range(n)]
            pre = {}
            if algo != "d-sgda":
                sq = (lambda v: v * v) if coord else (lambda v: np.array([v @ v]))
                mx = [mx[i] + sq(g[i][0]) for i in range(n)]
                my = [my[i] + sq(g[i][1]) for i in range(n)]
                pre = {"Mx": mx, "My": my} if tracked else {}
                if tracked and cfg.stepsize_source == "mixed":
                    mx, my = _gossip(rows, mx), _gossip(rows, my)
            sx, sy, v = [], [], []
            for i in range(n):
                if algo == "d-sgda":
                    sx.append(cfg.gamma_x)
                    sy.append(cfg.gamma_y)
                    continue
                if algo == "d-tiada":
                    sx.append(cfg.gamma_x * np.maximum(mx[i], my[i]) ** -ax)
                else:
                    px, py = ((mx[i] @ mx[i]) ** ax, (my[i] @ my[i]) ** ax) if coord else (
                        mx[i] ** ax, my[i] ** ax)
                    psi = px / max(px, py) if max(px, py) > 0 else 1.0
                    sx.append(cfg.gamma_x * psi * mx[i] ** -ax)
                sy.append(cfg.gamma_y * my[i] ** -by)
                v.append(np.maximum(mx[i], my[i]) if not coord or p == problem.d else mx[i])
            if algo != "d-sgda":
                hat = _zeta_hat(v, ax) if coord else 0.0
                zeta = (_zeta(v, ax, coord), _zeta(my, by, coord), hat)
            pre = {"X": [x[i] - sx[i] * g[i][0] for i in range(n)],
                   "Y": [y[i] + sy[i] * g[i][1] for i in range(n)], **pre}
            x = _gossip(rows, pre["X"])
            y = [_project(cfg.projection, yi) for yi in _gossip(rows, pre["Y"])]
            if tracked and cfg.stepsize_source == "local":
                mx, my = _gossip(rows, mx), _gossip(rows, my)
            # the values the step computed up to the fields where the abort is found
            seen = [[gi[0] for gi in g], [gi[1] for gi in g], sx, sy, *pre.values()]
            found = _first_nonfinite(pre)
            if not found:
                post = {"X": x, "Y": y, "Mx": mx, "My": my}
                found = _first_nonfinite(post)
                seen += post.values()
            if boundary is None:
                step = np.concatenate([np.ravel(part) for part in seen])  # a field's nodes alike
                if np.isnan(step).any() or (np.abs(step[np.isfinite(step)]) > _NEAR_OVERFLOW).any():
                    boundary = k + 1
            if found:
                abort = (k + 1, *found)
                break
            record()
    out = {"X": np.array(x), "Y": np.array(y), "Mx": np.array(mx), "My": np.array(my)}
    return {**out, **{name: np.array(c) for name, c in cols.items()}, "abort": abort,
            "boundary": boundary}
