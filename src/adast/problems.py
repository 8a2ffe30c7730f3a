"""Quadratic nonconvex-strongly-concave minimax problems and their oracles.

Each node i carries a local objective

    f_i(x, y) = -1/2 y^T B_i y + x^T A_i y - 1/2 x^T C_i x + b_i^T x + c_i^T y

with B_i symmetric positive definite (strong concavity in y) and C_i
symmetric but otherwise unconstrained, so the primal side can be
nonconvex.  The averaged objective f = (1/n) sum_i f_i has the closed
forms

    y*(x)      = Bbar^{-1} (Abar^T x + cbar)
    grad_phi(x) = Abar y*(x) - Cbar x + bbar

used as stationarity oracles when the dual domain is unconstrained.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConfigError

__all__ = [
    "QuadraticMinimaxProblem",
    "NoiseModel",
    "NOISE_KINDS",
    "ProjectionSet",
    "ALL",
    "GradientStream",
    "X_AXIS",
    "Y_AXIS",
    "project",
    "sample_grad_block",
    "make_two_node_case_study",
    "make_counterexample",
    "make_synthetic",
]

X_AXIS = 0
Y_AXIS = 1
NOISE_KINDS = ("none", "gaussian", "gaussian-clipped")


def _as_stack(M: Any, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A float copy of M, which must have the given (n, ...) shape."""
    M = np.array(M, dtype=float)
    if M.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {M.shape}")
    return M


def _node_stack(nodes: list, key: str) -> np.ndarray:
    """Coefficient ``key`` of each problem-JSON node, stacked in one call;
    when that fails, names the first node that lacks it, holds a
    non-number or differs from node 0 in shape."""
    try:
        return np.array([node[key] for node in nodes], dtype=float)
    except (KeyError, IndexError, TypeError, ValueError):
        pass
    rows = []
    for i, node in enumerate(nodes):
        try:
            entry = node[key]
        except (KeyError, IndexError, TypeError) as exc:
            raise ConfigError(f"problem node {i} has no {key!r} entry") from exc
        try:
            rows.append(np.asarray(entry, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}[{i}] is not numeric: {exc}") from exc
        if rows[i].shape != rows[0].shape:
            raise ConfigError(f"{key}[{i}] must have shape {rows[0].shape} as {key}[0] has, "
                              f"got {rows[i].shape}")
    return np.array(rows)


def _as_rows(v: Any, size: int, name: str) -> np.ndarray:
    """v as a float stack of points, which must have shape (R, size)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != size:
        raise ConfigError(f"{name} must be a stack of shape (R, {size}), got {v.shape}")
    return v


def _matvec_rows(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for each row v of V (R, m)."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


class QuadraticMinimaxProblem:
    """A finite-sum quadratic minimax instance over n nodes, built from the
    coefficient stacks A (n, p, d), B (n, d, d), C (n, p, p), b (n, p)
    and c (n, d), whose row i holds node i's coefficients.

    Construction validates the coefficients (finite, B_i and C_i
    symmetric) and the strong-concavity assumption (every B_i and their
    average must be positive definite; Cholesky failure is a hard error)
    and caches stacked coefficients for vectorized gradient evaluation
    plus the affine closed forms of y*(x) and grad Phi(x).
    """

    def __init__(self, A: Any, B: Any, C: Any, b: Any, c: Any, meta: dict | None = None):
        A = np.array(A, dtype=float)
        if A.ndim != 3 or len(A) == 0:
            raise ConfigError(f"A must be a non-empty (n, p, d) stack, got shape {A.shape}")
        n, p, d = A.shape
        B, C, b, c = (_as_stack(M, (n, *shape), name) for M, shape, name in
                      ((B, (d, d), "B"), (C, (p, p), "C"), (b, (p,), "b"), (c, (d,), "c")))
        for M, name in ((B, "B"), (C, "C")):
            asym = np.abs(M - np.swapaxes(M, 1, 2)).max(axis=(1, 2)) > 1e-10
            if asym.any():
                raise ConfigError(f"{name}[{np.argmax(asym)}] must be symmetric")

        self.n, self.p, self.d = n, p, d
        self.meta = dict(meta or {})
        self.A_stack, self.B_stack, self.C_stack = A, B, C  # (n, p, d), (n, d, d), (n, p, p)
        self.b_stack, self.c_stack = b, c  # (n, p), (n, d)

        self.A_bar, self.B_bar, self.C_bar, self.b_bar, self.c_bar = (
            M.mean(axis=0) for M in (A, B, C, b, c))

        # Fused per-node gradient map: (grad_x, grad_y) = M_i (x, y) + r_i.
        self._M_stack = np.zeros((n, p + d, p + d))
        self._M_stack[:, :p, :p] = -self.C_stack
        self._M_stack[:, :p, p:] = self.A_stack
        self._M_stack[:, p:, :p] = np.swapaxes(self.A_stack, 1, 2)
        self._M_stack[:, p:, p:] = -self.B_stack
        self._r_stack = np.concatenate([self.b_stack, self.c_stack], axis=1)
        if not (np.isfinite(self._M_stack).all() and np.isfinite(self._r_stack).all()):
            for M, name in ((A, "A"), (B, "B"), (C, "C"), (b, "b"), (c, "c")):
                finite = np.isfinite(M).reshape(n, -1).all(axis=1)
                if not finite.all():
                    raise ConfigError(f"{name}[{np.argmin(finite)}] must be finite")

        try:
            np.linalg.cholesky(self.B_bar)
            np.linalg.cholesky(self.B_stack)
        except LinAlgError as exc:
            raise ConfigError(
                "strong concavity violated: a B block is not positive definite"
            ) from exc

        # Affine closed forms (Bbar is PD, so the inverse is benign):
        #   y*(x) = _y_lin x + _y_const,  grad_phi(x) = _phi_lin x + _phi_const
        with np.errstate(over="ignore", invalid="ignore"):
            B_inv = np.linalg.inv(self.B_bar)
            self._y_lin = B_inv @ self.A_bar.T
            self._y_const = B_inv @ self.c_bar
            self._phi_lin = self.A_bar @ self._y_lin - self.C_bar
            self._phi_const = self.A_bar @ self._y_const + self.b_bar
        closed = (self._y_lin, self._y_const, self._phi_lin, self._phi_const)
        if not all(np.isfinite(F).all() for F in closed):
            raise ConfigError("the closed forms of y*(x) and grad Phi(x) overflow the doubles")

        # Modulus of strong concavity: the smallest eigenvalue over all
        # local B blocks (lambda_min is concave, so this also bounds Bbar).
        self.mu = float(np.linalg.eigvalsh(self.B_stack)[:, 0].min())
        # Joint smoothness: largest spectral norm of the stacked gradient maps.
        self.L = float(np.linalg.norm(self._M_stack, ord=2, axis=(1, 2)).max())

    def grads_block(self, XY: np.ndarray) -> np.ndarray:
        """Exact per-node gradients [grad_x | grad_y] (n, p+d) at the
        stacked iterate block XY = [X | Y]."""
        G = np.einsum("nij,nj->ni", self._M_stack, XY)
        G += self._r_stack
        return G

    def _row_pairs(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and y as stacks (R, p), (R, d) of the same length."""
        X, Y = _as_rows(x, self.p, "x"), _as_rows(y, self.d, "y")
        if len(X) != len(Y):
            raise ConfigError(f"x and y stacks differ in length: {len(X)} vs {len(Y)}")
        return X, Y

    def grad_x_avg(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """grad_x of the averaged objective at each row pair of the stacks
        x (R, p), y (R, d)."""
        X, Y = self._row_pairs(x, y)
        return _matvec_rows(self.A_bar, Y) - _matvec_rows(self.C_bar, X) + self.b_bar

    def grad_y_avg(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """grad_y of the averaged objective at each row pair of the stacks
        x (R, p), y (R, d)."""
        X, Y = self._row_pairs(x, y)
        return _matvec_rows(self.A_bar.T, X) - _matvec_rows(self.B_bar, Y) + self.c_bar

    def y_star(self, x: np.ndarray) -> np.ndarray:
        """Best response of the averaged objective at each row of a stack
        x (R, p); the closed form needs an unconstrained dual domain."""
        return _matvec_rows(self._y_lin, _as_rows(x, self.p, "x")) + self._y_const

    def grad_phi(self, x: np.ndarray) -> np.ndarray:
        """grad Phi at each row of a stack x (R, p)."""
        return _matvec_rows(self._phi_lin, _as_rows(x, self.p, "x")) + self._phi_const

    def stationary_point(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Solve grad_phi(x) = 0 for the averaged objective.

        grad_phi is affine: (Abar Bbar^{-1} Abar^T - Cbar) x + Abar Bbar^{-1} cbar + bbar.
        Returns None when the linear map is singular (a line or all of R^p
        is stationary, as in the two-node case study).
        """
        M, r = self._phi_lin, self._phi_const
        try:
            x_star = np.linalg.solve(M, -r)
        except LinAlgError:
            return None
        if not np.isfinite(x_star).all() or np.linalg.cond(M) > 1e12:
            return None
        return x_star, self.y_star(x_star[None])[0]

    def averaged(self) -> "QuadraticMinimaxProblem":
        """Collapse to the single-node problem with averaged coefficients."""
        meta = dict(self.meta)
        meta["collapsed_from_n"] = self.n
        return QuadraticMinimaxProblem(self.A_bar[None], self.B_bar[None], self.C_bar[None],
                                       self.b_bar[None], self.c_bar[None], meta=meta)

    def to_dict(self) -> dict:
        """The problem-JSON document: per-node coefficients under ``locals``."""
        stacks = (self.B_stack, self.A_stack, self.C_stack, self.b_stack, self.c_stack)
        return {
            "p": self.p,
            "d": self.d,
            "n": self.n,
            "locals": [dict(zip("BACbc", node)) for node in zip(*(M.tolist() for M in stacks))],
            "mu": self.mu,
            "L": self.L,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QuadraticMinimaxProblem":
        """The problem of a ``to_dict`` document; a malformed one raises
        ConfigError naming the node at fault.

        The coefficients under ``locals`` define the problem.  A given
        ``n``, ``p`` or ``d`` must agree with them, or ConfigError names
        the field; ``mu`` and ``L`` are not read but recomputed.
        """
        try:
            nodes, meta = list(doc["locals"]), dict(doc.get("meta") or {})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("problem JSON needs a 'locals' list of per-node coefficients "
                              "and, if any, a 'meta' object") from exc
        problem = cls(*(_node_stack(nodes, key) for key in "ABCbc"), meta=meta)
        for key in ("n", "p", "d"):
            if key in doc and doc[key] != getattr(problem, key):
                raise ConfigError(f"problem JSON gives {key!r} = {doc[key]!r}, but its "
                                  f"locals make {key} = {getattr(problem, key)}")
        return problem


def require_finite(**values: float | None) -> None:
    """Raise ConfigError naming the first value that is NaN or +-inf (None passes)."""
    for name, value in values.items():
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def require_int(least: int, **values) -> None:
    """Raise ConfigError naming the first value that is not an integer or
    is below ``least``."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise: none, Gaussian, or norm-clipped Gaussian."""

    kind: str = "none"  # one of NOISE_KINDS
    sigma: float = 0.0
    clip: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        require_finite(sigma=self.sigma, clip=self.clip)
        if self.kind != "none" and self.sigma <= 0:
            raise ConfigError("gaussian noise needs sigma > 0")
        if self.kind == "gaussian-clipped" and (self.clip is None or self.clip <= 0):
            raise ConfigError("clipped noise needs clip > 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseModel":
        return cls(kind="gaussian", sigma=float(sigma))

    @classmethod
    def clipped(cls, sigma: float, clip: float) -> "NoiseModel":
        # a missing bound is left to __post_init__, which names it
        return cls(kind="gaussian-clipped", sigma=float(sigma),
                   clip=None if clip is None else float(clip))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": self.sigma, "clip": self.clip}


@dataclass(frozen=True)
class ProjectionSet:
    """Closed convex dual domain: everything, a box, or a Euclidean ball."""

    kind: str = "all"  # all | box | ball
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "all":
            return
        if self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ConfigError("box projection needs lo and hi")
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
            if lo.shape != hi.shape:
                raise ConfigError("box lo/hi shape mismatch")
            # a bound may be infinite (a half-open box is convex too), but not
            # NaN, and no side may be empty
            if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
                raise ConfigError(f"box projection needs lo <= hi elementwise, lo < inf and "
                                  f"hi > -inf, got lo={lo.tolist()}, hi={hi.tolist()}")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "ball":
            if self.center is None or self.radius is None or not 0 < self.radius < np.inf:
                raise ConfigError(f"ball projection needs a center and a finite radius > 0, "
                                  f"got radius={self.radius}")
            center = np.atleast_1d(np.asarray(self.center, dtype=float))
            if not np.isfinite(center).all():
                raise ConfigError(f"ball center must be finite, got {center.tolist()}")
            object.__setattr__(self, "center", center)
        else:
            raise ConfigError(f"unknown projection kind {self.kind!r}")

    @classmethod
    def box(cls, lo, hi) -> "ProjectionSet":
        return cls(kind="box", lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius: float) -> "ProjectionSet":
        return cls(kind="ball", center=center, radius=float(radius))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lo": None if self.lo is None else np.asarray(self.lo).tolist(),
            "hi": None if self.hi is None else np.asarray(self.hi).tolist(),
            "center": None if self.center is None else np.asarray(self.center).tolist(),
            "radius": self.radius,
        }


ALL = ProjectionSet()


def project(pset: ProjectionSet, v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the set; a ball projects each row of a
    stacked (n, d) v independently, and a 1-D v as one row."""
    v = np.asarray(v, dtype=float)
    if pset.kind == "all":
        return v
    if pset.kind == "box":
        return np.clip(v, pset.lo, pset.hi)
    # ball
    dev = v - pset.center
    norms = np.linalg.norm(dev, axis=-1, keepdims=True)
    scale = np.where(norms > pset.radius, pset.radius / np.maximum(norms, 1e-300), 1.0)
    return pset.center + dev * scale


# Doubles in one cached chunk of a GradientStream.  A speed constant only:
# a value never depends on the chunk it was read from.
CHUNK_DOUBLES = 1 << 14


def _box_muller(words: np.ndarray) -> np.ndarray:
    """One standard normal per 64-bit word.

    Each word w gives u = ((w >> 11) + 0.5) 2^-53 in (0, 1] (rounded to
    the nearest double), and each pair (u0, u1) gives r cos(2 pi u1) and
    r sin(2 pi u1) with r = sqrt(-2 log u0).
    """
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    u = u.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    z = np.empty_like(u)
    np.multiply(r, np.cos(theta), out=z[:, 0])
    np.multiply(r, np.sin(theta), out=z[:, 1])
    return z.reshape(-1)


class GradientStream:
    """Counter-based Gaussian noise (stream version ``VERSION``).

    Axis a reads the Philox4x64 stream keyed (seed, a) (Salmon et al.,
    SC'11).  Iteration k of an (n, dim) block reads the stream's words
    [k B, (k+1) B), where B is n * dim rounded up to whole 4-word Philox
    blocks, and every normal uses exactly one word (``_box_muller``).  So
    node i's value depends only on (seed, n, dim, i, k, axis), and not on
    the horizon, the order of reads, the chunking or the thread count.

    The words are drawn a chunk of iterations at a time, by ``_block``
    alone: one chunk per (n, axes, scale), of at most CHUNK_DOUBLES words
    over its axes or a single iteration, refilled when k leaves it.  A
    chunk row holds the axes side by side, already scaled, so a run's
    noise is one read-only (n, p + d) row per iteration.
    """

    VERSION = 2

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._chunks: dict[tuple, tuple[int, np.ndarray]] = {}

    def normal_block(self, k: int, axis: int, n: int, dim: int) -> np.ndarray:
        """The read-only (n, dim) standard normals of iteration k on axis."""
        return self._block(k, n, ((axis, dim),), 1.0)

    def noise_block(self, k: int, sigma: float, n: int, p: int, d: int) -> np.ndarray:
        """The read-only (n, p + d) noise [sigma z_x | sigma z_y] of iteration
        k, where z_x and z_y are ``normal_block(k, X_AXIS, n, p)`` and
        ``normal_block(k, Y_AXIS, n, d)``, each entry the same double."""
        return self._block(k, n, ((X_AXIS, p), (Y_AXIS, d)), sigma)

    def _block(self, k: int, n: int, axes: tuple[tuple[int, int], ...],
               scale: float) -> np.ndarray:
        """Iteration k's row of the chunk that holds, for each (axis, dim) of
        axes in turn, scale times that axis's (n, dim) normals."""
        key = (n, axes, scale)
        cached = self._chunks.get(key)
        if cached is not None:
            k0, chunk = cached
            if 0 <= k - k0 < len(chunk):
                return chunk[k - k0]
        sizes = [-(-n * dim // 4) * 4 for _, dim in axes]
        C = max(1, CHUNK_DOUBLES // sum(sizes))
        k0 = k - k % C
        chunk = np.empty((C, n, sum(dim for _, dim in axes)))
        at = 0
        for (axis, dim), B in zip(axes, sizes):
            bitgen = np.random.Philox(key=[self.seed, axis], counter=k0 * B // 4)
            z = _box_muller(bitgen.random_raw(C * B)).reshape(C, B)
            chunk[:, :, at:at + dim] = z[:, :n * dim].reshape(C, n, dim)
            at += dim
        chunk *= scale
        chunk.flags.writeable = False
        self._chunks[key] = (k0, chunk)
        return chunk[k - k0]


def sample_grad_block(
    problem: QuadraticMinimaxProblem,
    XY: np.ndarray,
    noise: NoiseModel,
    stream: GradientStream,
    k: int,
) -> np.ndarray:
    """Stochastic gradients [GX | GY] (n, p+d) for all nodes at iteration k,
    at the stacked iterate block XY = [X | Y]; clipped noise bounds the
    norm of each node's GX and GY on its own."""
    G = problem.grads_block(XY)
    if noise.kind != "none":
        p = problem.p
        G += stream.noise_block(k, noise.sigma, problem.n, p, problem.d)
        if noise.kind == "gaussian-clipped":
            for side in (G[:, :p], G[:, p:]):
                norms = np.linalg.norm(side, axis=-1, keepdims=True)
                side *= np.where(norms > noise.clip, noise.clip / np.maximum(norms, 1e-300), 1.0)
    return G


def _scalar_problem(A, B, C, b, c, meta: dict) -> QuadraticMinimaxProblem:
    """The p = d = 1 problem whose node i has the coefficients A[i], ..., c[i]."""
    A, B, C = (np.asarray(M, dtype=float).reshape(-1, 1, 1) for M in (A, B, C))
    b, c = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (b, c))
    return QuadraticMinimaxProblem(A, B, C, b, c, meta=meta)


def make_two_node_case_study() -> QuadraticMinimaxProblem:
    """Two scalar nodes whose average has the stationary line 3y = 5x + 2.

    f1(x,y) = -(9/20) y^2 + (3/5) y - x +   x y - (1/2) x^2
    f2(x,y) = -(9/20) y^2 + (3/5) y - x + 2 x y -   2   x^2
    """
    return _scalar_problem(A=[1.0, 2.0], B=[0.9, 0.9], C=[1.0, 4.0], b=[-1.0, -1.0],
                           c=[0.6, 0.6], meta={"name": "two-node-case-study"})


def make_counterexample(alpha: float, beta: float) -> tuple[QuadraticMinimaxProblem, float]:
    """Three-node complete-graph instance on which locally adaptive
    stepsizes cancel exactly.

    Returns the problem and the slope s of the initialization line: runs
    started at (x0, s*x0) with exact gradients leave D-TiAda frozen.
    Requires 0 < beta < 0.5 < alpha < 1 strictly, and neither within 5e-4
    of 0.5: the constants a = 2^(-1/(2 alpha - 1)) and b = 2^(-1/(2 beta -
    1)) blow up at 0.5, and past 2^(+-1000) one of them or its reciprocal
    leaves the double range.  The problem also refuses alpha with 2 alpha -
    1 below about 0.00196, where its closed form of grad Phi overflows.
    """
    if not (0.0 < beta < 0.5 < alpha < 1.0):
        raise ConfigError(
            f"counterexample needs 0 < beta < 0.5 < alpha < 1, got alpha={alpha}, beta={beta}"
        )
    for name, expo in (("alpha", alpha), ("beta", beta)):
        if abs(2.0 * expo - 1.0) <= 1e-3:
            raise ConfigError(f"counterexample needs |2*{name} - 1| > 1e-3, got {name}={expo}: "
                              f"its constant 2^(-1/(2*{name} - 1)) leaves the double range")
    a = 2.0 ** (-1.0 / (2.0 * alpha - 1.0))
    b = 2.0 ** (-1.0 / (2.0 * beta - 1.0))
    coupling = -(1.0 + 1.0 / a + 1.0 / b)
    slope = -(1.0 + a) / (a + a / b)
    problem = _scalar_problem(
        A=[1.0, coupling, coupling], B=np.ones(3), C=np.ones(3), b=np.zeros(3), c=np.zeros(3),
        meta={"name": "counterexample", "alpha": alpha, "beta": beta, "a": a, "b": b,
              "init_slope": slope},
    )
    return problem, slope


# The interval the synthetic problem draws its L_i from.
L_LOW, L_HIGH = 1.5, 2.5


def make_synthetic(n: int, seed: int) -> QuadraticMinimaxProblem:
    """n scalar nodes f_i(x,y) = -y^2/2 + L_i x y - L_i^2 x^2 / 2 - 2 L_i x + L_i y
    with L_i drawn uniformly from [L_LOW, L_HIGH]."""
    require_int(1, n=n)
    rng = np.random.default_rng(seed)
    L = rng.uniform(L_LOW, L_HIGH, size=n)
    return _scalar_problem(
        A=L, B=np.ones(n), C=L * L, b=-2.0 * L, c=L,
        meta={
            "name": "synthetic",
            "seed": int(seed),
            "L_values": L.tolist(),
            "L_low": L_LOW,
            "L_high": L_HIGH,
        },
    )
