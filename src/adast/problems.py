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

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConfigError, UnsupportedConfigError

__all__ = [
    "QuadraticLocal",
    "QuadraticMinimaxProblem",
    "NoiseModel",
    "ProjectionSet",
    "ALL",
    "GradientStream",
    "X_AXIS",
    "Y_AXIS",
    "project",
    "sample_grad",
    "sample_grads",
    "sample_grad_block",
    "make_two_node_case_study",
    "make_counterexample",
    "make_synthetic",
]

X_AXIS = 0
Y_AXIS = 1


def _as_matrix(M: Any, rows: int, cols: int, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (rows, cols):
        raise ConfigError(f"{name} must have shape ({rows},{cols}), got {M.shape}")
    return M


def _as_vector(v: Any, size: int, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (size,):
        raise ConfigError(f"{name} must have shape ({size},), got {v.shape}")
    return v


def _as_rows(v: Any, size: int, name: str) -> tuple[np.ndarray, bool]:
    """v as a stack of points (R, size), and whether it was given as one;
    a single point (size,) becomes a one-row stack."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 2 and v.shape[1] == size:
        return v, True
    return _as_vector(v, size, name)[None], False


def _matvec_rows(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for each row v of V (R, m)."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class QuadraticLocal:
    """Coefficients of one node's quadratic objective."""

    B: np.ndarray  # (d, d) symmetric positive definite
    A: np.ndarray  # (p, d) coupling
    C: np.ndarray  # (p, p) symmetric, sign unconstrained
    b: np.ndarray  # (p,)
    c: np.ndarray  # (d,)

    @classmethod
    def from_scalars(cls, B: float, A: float, C: float, b: float, c: float) -> "QuadraticLocal":
        return cls(
            B=np.array([[float(B)]]),
            A=np.array([[float(A)]]),
            C=np.array([[float(C)]]),
            b=np.array([float(b)]),
            c=np.array([float(c)]),
        )

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        x = _as_vector(x, self.p, "x")
        y = _as_vector(y, self.d, "y")
        return float(
            -0.5 * y @ self.B @ y + x @ self.A @ y - 0.5 * x @ self.C @ x + self.b @ x + self.c @ y
        )

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.p, "x")
        y = _as_vector(y, self.d, "y")
        return self.A @ y - self.C @ x + self.b

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.p, "x")
        y = _as_vector(y, self.d, "y")
        return -self.B @ y + self.A.T @ x + self.c


class QuadraticMinimaxProblem:
    """A finite-sum quadratic minimax instance over n nodes.

    Construction validates the strong-concavity assumption (every B_i
    and their average must be positive definite; Cholesky failure is a
    hard error) and caches stacked coefficients for vectorized gradient
    evaluation plus the Cholesky factor of Bbar for y*(x).
    """

    def __init__(self, locals_: list[QuadraticLocal] | tuple[QuadraticLocal, ...],
                 meta: dict | None = None):
        if not locals_:
            raise ConfigError("problem needs at least one local objective")
        p, d = locals_[0].p, locals_[0].d
        for i, loc in enumerate(locals_):
            loc_B = _as_matrix(loc.B, d, d, f"B[{i}]")
            _as_matrix(loc.A, p, d, f"A[{i}]")
            _as_matrix(loc.C, p, p, f"C[{i}]")
            _as_vector(loc.b, p, f"b[{i}]")
            _as_vector(loc.c, d, f"c[{i}]")
            if np.abs(loc_B - loc_B.T).max() > 1e-10:
                raise ConfigError(f"B[{i}] must be symmetric")
            if np.abs(loc.C - loc.C.T).max() > 1e-10:
                raise ConfigError(f"C[{i}] must be symmetric")

        self.locals = tuple(locals_)
        self.p, self.d = p, d
        self.meta = dict(meta or {})

        self.A_stack = np.stack([l.A for l in self.locals])  # (n, p, d)
        self.B_stack = np.stack([l.B for l in self.locals])  # (n, d, d)
        self.C_stack = np.stack([l.C for l in self.locals])  # (n, p, p)
        self.b_stack = np.stack([l.b for l in self.locals])  # (n, p)
        self.c_stack = np.stack([l.c for l in self.locals])  # (n, d)

        self.A_bar = self.A_stack.mean(axis=0)
        self.B_bar = self.B_stack.mean(axis=0)
        self.C_bar = self.C_stack.mean(axis=0)
        self.b_bar = self.b_stack.mean(axis=0)
        self.c_bar = self.c_stack.mean(axis=0)

        # Fused per-node gradient map: (grad_x, grad_y) = M_i (x, y) + r_i.
        n = len(self.locals)
        self._M_stack = np.zeros((n, p + d, p + d))
        self._M_stack[:, :p, :p] = -self.C_stack
        self._M_stack[:, :p, p:] = self.A_stack
        self._M_stack[:, p:, :p] = np.swapaxes(self.A_stack, 1, 2)
        self._M_stack[:, p:, p:] = -self.B_stack
        self._r_stack = np.concatenate([self.b_stack, self.c_stack], axis=1)

        try:
            self._B_bar_chol = np.linalg.cholesky(self.B_bar)
            np.linalg.cholesky(self.B_stack)
        except LinAlgError as exc:
            raise ConfigError(
                "strong concavity violated: a B block is not positive definite"
            ) from exc

        # Affine closed forms (Bbar is PD, so the inverse is benign):
        #   y*(x) = _y_lin x + _y_const,  grad_phi(x) = _phi_lin x + _phi_const
        B_inv = np.linalg.inv(self.B_bar)
        self._y_lin = B_inv @ self.A_bar.T
        self._y_const = B_inv @ self.c_bar
        self._phi_lin = self.A_bar @ self._y_lin - self.C_bar
        self._phi_const = self.A_bar @ self._y_const + self.b_bar

        # Modulus of strong concavity: the smallest eigenvalue over all
        # local B blocks (lambda_min is concave, so this also bounds Bbar).
        self.mu = float(np.linalg.eigvalsh(self.B_stack)[:, 0].min())
        # Joint smoothness: largest spectral norm of the stacked gradient maps.
        self.L = float(np.linalg.norm(self._M_stack, ord=2, axis=(1, 2)).max())

    @property
    def n(self) -> int:
        return len(self.locals)

    def _check_point(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _as_vector(x, self.p, "x"), _as_vector(y, self.d, "y")

    def grad_x(self, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.n:
            raise ConfigError(f"node index {i} out of range for n={self.n}")
        x, y = self._check_point(x, y)
        return self.locals[i].grad_x(x, y)

    def grad_y(self, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.n:
            raise ConfigError(f"node index {i} out of range for n={self.n}")
        x, y = self._check_point(x, y)
        return self.locals[i].grad_y(x, y)

    def grads_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-node gradients for stacked iterates X (n,p), Y (n,d)."""
        G = self.grads_block(np.concatenate([X, Y], axis=1))
        return G[:, : self.p], G[:, self.p:]

    def grads_block(self, XY: np.ndarray) -> np.ndarray:
        """Exact per-node gradients [grad_x | grad_y] (n, p+d) at the
        stacked iterate block XY = [X | Y]."""
        G = np.einsum("nij,nj->ni", self._M_stack, XY)
        G += self._r_stack
        return G

    def f_local(self, i: int, x: np.ndarray, y: np.ndarray) -> float:
        return self.locals[i].value(x, y)

    def f_avg(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean([l.value(x, y) for l in self.locals]))

    def grad_x_avg(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """grad_x of the averaged objective at (x, y), or at each row pair
        of the stacks x (R, p), y (R, d)."""
        X, stacked = _as_rows(x, self.p, "x")
        Y, _ = _as_rows(y, self.d, "y")
        if len(X) != len(Y):
            raise ConfigError(f"x and y stacks differ in length: {len(X)} vs {len(Y)}")
        G = _matvec_rows(self.A_bar, Y) - _matvec_rows(self.C_bar, X) + self.b_bar
        return G if stacked else G[0]

    def grad_y_avg(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = self._check_point(x, y)
        return -self.B_bar @ y + self.A_bar.T @ x + self.c_bar

    def y_star(self, x: np.ndarray, projection: "ProjectionSet | None" = None) -> np.ndarray:
        """Best response of the averaged objective; closed form needs an
        unconstrained dual domain."""
        if projection is not None and projection.kind != "all":
            raise UnsupportedConfigError(
                "closed-form best response requires an unconstrained dual domain"
            )
        x = _as_vector(x, self.p, "x")
        return self._y_lin @ x + self._y_const

    def grad_phi(self, x: np.ndarray, projection: "ProjectionSet | None" = None) -> np.ndarray:
        """grad Phi at x, or at each row of a stack x (R, p)."""
        if projection is not None and projection.kind != "all":
            raise UnsupportedConfigError(
                "closed-form best response requires an unconstrained dual domain"
            )
        X, stacked = _as_rows(x, self.p, "x")
        G = _matvec_rows(self._phi_lin, X) + self._phi_const
        return G if stacked else G[0]

    def phi(self, x: np.ndarray) -> float:
        return self.f_avg(x, self.y_star(x))

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
        return x_star, self.y_star(x_star)

    def averaged(self) -> "QuadraticMinimaxProblem":
        """Collapse to the single-node problem with averaged coefficients."""
        avg = QuadraticLocal(
            B=self.B_bar, A=self.A_bar, C=self.C_bar, b=self.b_bar, c=self.c_bar
        )
        meta = dict(self.meta)
        meta["collapsed_from_n"] = self.n
        return QuadraticMinimaxProblem([avg], meta=meta)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "n": self.n,
            "locals": [
                {
                    "B": l.B.tolist(),
                    "A": l.A.tolist(),
                    "C": l.C.tolist(),
                    "b": l.b.tolist(),
                    "c": l.c.tolist(),
                }
                for l in self.locals
            ],
            "mu": self.mu,
            "L": self.L,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QuadraticMinimaxProblem":
        locals_ = [
            QuadraticLocal(
                B=np.asarray(l["B"], dtype=float),
                A=np.asarray(l["A"], dtype=float),
                C=np.asarray(l["C"], dtype=float),
                b=np.asarray(l["b"], dtype=float),
                c=np.asarray(l["c"], dtype=float),
            )
            for l in doc["locals"]
        ]
        return cls(locals_, meta=doc.get("meta"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise: none, Gaussian, or norm-clipped Gaussian."""

    kind: str = "none"  # none | gaussian | gaussian-clipped
    sigma: float = 0.0
    clip: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian", "gaussian-clipped"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
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
        return cls(kind="gaussian-clipped", sigma=float(sigma), clip=float(clip))

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
            if np.any(lo > hi):
                raise ConfigError("box projection needs lo <= hi elementwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "ball":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ConfigError("ball projection needs a center and radius > 0")
            object.__setattr__(
                self, "center", np.atleast_1d(np.asarray(self.center, dtype=float))
            )
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
    """Euclidean projection onto the set; rows are projected independently
    when v is a stacked (n, d) array and the set is a ball."""
    v = np.asarray(v, dtype=float)
    if pset.kind == "all":
        return v
    if pset.kind == "box":
        return np.clip(v, pset.lo, pset.hi)
    # ball
    dev = v - pset.center
    if v.ndim == 1:
        norm = np.linalg.norm(dev)
        if norm <= pset.radius:
            return v
        return pset.center + dev * (pset.radius / norm)
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

    The words are drawn a chunk of iterations at a time: one chunk per
    (axis, n, dim), of at most CHUNK_DOUBLES doubles or a single
    iteration, refilled when k leaves it.
    """

    VERSION = 2

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._chunks: dict[tuple[int, int, int], tuple[int, np.ndarray]] = {}

    def normal_block(self, k: int, axis: int, n: int, dim: int) -> np.ndarray:
        """The read-only (n, dim) standard normals of iteration k on axis."""
        cached = self._chunks.get((axis, n, dim))
        if cached is not None:
            k0, blocks = cached
            if 0 <= k - k0 < len(blocks):
                return blocks[k - k0]
        B = -(-n * dim // 4) * 4
        C = max(1, CHUNK_DOUBLES // B)
        k0 = k - k % C
        bitgen = np.random.Philox(key=[self.seed, axis], counter=k0 * B // 4)
        z = _box_muller(bitgen.random_raw(C * B)).reshape(C, B)
        blocks = z[:, :n * dim].reshape(C, n, dim)
        blocks.flags.writeable = False
        self._chunks[(axis, n, dim)] = (k0, blocks)
        return blocks[k - k0]


def _apply_noise(
    G: np.ndarray, noise: NoiseModel, stream: GradientStream | None, k: int, axis: int
) -> None:
    """Add (and clip) the noise of one axis in place; G is that axis's (n, dim) view."""
    if stream is None:
        raise ConfigError("noisy sampling needs a gradient stream")
    n, dim = G.shape
    G += noise.sigma * stream.normal_block(k, axis, n, dim)
    if noise.kind == "gaussian-clipped":
        norms = np.linalg.norm(G, axis=-1, keepdims=True)
        G *= np.where(norms > noise.clip, noise.clip / np.maximum(norms, 1e-300), 1.0)


def sample_grad_block(
    problem: QuadraticMinimaxProblem,
    XY: np.ndarray,
    noise: NoiseModel,
    stream: GradientStream | None,
    k: int,
) -> np.ndarray:
    """Stochastic gradients [GX | GY] (n, p+d) for all nodes at iteration k,
    at the stacked iterate block XY = [X | Y]."""
    G = problem.grads_block(XY)
    if noise.kind != "none":
        _apply_noise(G[:, :problem.p], noise, stream, k, X_AXIS)
        _apply_noise(G[:, problem.p:], noise, stream, k, Y_AXIS)
    return G


def sample_grads(
    problem: QuadraticMinimaxProblem,
    X: np.ndarray,
    Y: np.ndarray,
    noise: NoiseModel,
    stream: GradientStream | None,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic gradients for all nodes at iteration k."""
    G = sample_grad_block(problem, np.concatenate([X, Y], axis=1), noise, stream, k)
    return G[:, :problem.p], G[:, problem.p:]


def sample_grad(
    problem: QuadraticMinimaxProblem,
    i: int,
    x: np.ndarray,
    y: np.ndarray,
    noise: NoiseModel,
    stream: GradientStream | None,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-node stochastic gradient; its noise is row i of the
    (problem.n, dim) block draw."""
    gx = problem.grad_x(i, x, y)
    gy = problem.grad_y(i, x, y)
    if noise.kind == "none":
        return gx, gy
    if stream is None:
        raise ConfigError("noisy sampling needs a gradient stream")
    gx = gx + noise.sigma * stream.normal_block(k, X_AXIS, problem.n, problem.p)[i]
    gy = gy + noise.sigma * stream.normal_block(k, Y_AXIS, problem.n, problem.d)[i]
    if noise.kind == "gaussian-clipped":
        for g in (gx, gy):
            norm = np.linalg.norm(g)
            if norm > noise.clip:
                g *= noise.clip / norm
    return gx, gy


def make_two_node_case_study() -> QuadraticMinimaxProblem:
    """Two scalar nodes whose average has the stationary line 3y = 5x + 2.

    f1(x,y) = -(9/20) y^2 + (3/5) y - x +   x y - (1/2) x^2
    f2(x,y) = -(9/20) y^2 + (3/5) y - x + 2 x y -   2   x^2
    """
    locals_ = [
        QuadraticLocal.from_scalars(B=0.9, A=1.0, C=1.0, b=-1.0, c=0.6),
        QuadraticLocal.from_scalars(B=0.9, A=2.0, C=4.0, b=-1.0, c=0.6),
    ]
    return QuadraticMinimaxProblem(locals_, meta={"name": "two-node-case-study"})


def make_counterexample(alpha: float, beta: float) -> tuple[QuadraticMinimaxProblem, float]:
    """Three-node complete-graph instance on which locally adaptive
    stepsizes cancel exactly.

    Returns the problem and the slope s of the initialization line: runs
    started at (x0, s*x0) with exact gradients leave D-TiAda frozen.
    Requires 0 < beta < 0.5 < alpha < 1 strictly; the construction's
    exponents blow up at 0.5.
    """
    if not (0.0 < beta < 0.5 < alpha < 1.0):
        raise ConfigError(
            f"counterexample needs 0 < beta < 0.5 < alpha < 1, got alpha={alpha}, beta={beta}"
        )
    a = 2.0 ** (-1.0 / (2.0 * alpha - 1.0))
    b = 2.0 ** (-1.0 / (2.0 * beta - 1.0))
    coupling = -(1.0 + 1.0 / a + 1.0 / b)
    locals_ = [
        QuadraticLocal.from_scalars(B=1.0, A=1.0, C=1.0, b=0.0, c=0.0),
        QuadraticLocal.from_scalars(B=1.0, A=coupling, C=1.0, b=0.0, c=0.0),
        QuadraticLocal.from_scalars(B=1.0, A=coupling, C=1.0, b=0.0, c=0.0),
    ]
    slope = -(1.0 + a) / (a + a / b)
    problem = QuadraticMinimaxProblem(
        locals_,
        meta={"name": "counterexample", "alpha": alpha, "beta": beta, "a": a, "b": b,
              "init_slope": slope},
    )
    return problem, slope


def make_synthetic(
    n: int, seed: int, L_low: float = 1.5, L_high: float = 2.5
) -> QuadraticMinimaxProblem:
    """n scalar nodes f_i(x,y) = -y^2/2 + L_i x y - L_i^2 x^2 / 2 - 2 L_i x + L_i y
    with L_i drawn uniformly from [L_low, L_high]."""
    if n < 1:
        raise ConfigError(f"node count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    L = rng.uniform(L_low, L_high, size=n)
    locals_ = [
        QuadraticLocal.from_scalars(B=1.0, A=Li, C=Li * Li, b=-2.0 * Li, c=Li) for Li in L
    ]
    return QuadraticMinimaxProblem(
        locals_,
        meta={
            "name": "synthetic",
            "seed": int(seed),
            "L_values": L.tolist(),
            "L_low": L_low,
            "L_high": L_high,
        },
    )
