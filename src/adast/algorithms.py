"""The stepper shared by the four methods, and the run loop.

Node state is one block Z = [X | Y | Mx | My]: the iterates X (n, p) and
Y (n, d), then the accumulators, one column each for d-sgda / d-tiada /
d-adast and one per coordinate ((n, p) and (n, d)) for the
coordinate-wise variant.  The methods differ in four switches only:

- constant (d-sgda) or adaptive stepsizes;
- accumulators kept local (d-tiada) or mixed with the iterates
  (tracking: d-adast, d-adast-coord);
- one accumulator per node or one per coordinate;
- whether the stepsize reads the accumulators before the communication
  round (``stepsize_source="local"``, the pseudo-code ordering: one round
  for all four quantities) or after it (``"mixed"``, the compact-form
  ordering, which costs an extra round).

With one accumulator per node the primal stepsize is
gamma_x * max(m_x, m_y)^(-alpha) for every adaptive method.  D-AdaST's
form gamma_x * psi * m_x^(-alpha), psi = m_x^alpha / max(m_x^alpha,
m_y^alpha), is the same number in exact arithmetic and differs only at
rounding level, so D-TiAda is D-AdaST without the accumulator columns in
the mix.  The coordinate-wise variant keeps psi, built from accumulator
norms.

Mixing uses the mean-centered form  mean + W @ (v - mean), identical to
W @ v in exact arithmetic for a row-stochastic W but mass-conserving to
roughly eps * consensus-error instead of eps * magnitude, which is what
keeps the tracking-average identity tight over 1e5 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .metrics import TRACE_HEADER, consensus_error, grad_phi_sq, grad_xf_sq
from .metrics import zeta_hat_series as _zeta_hat_series
from .metrics import zeta_series as _zeta_series
from .problems import ALL, GradientStream, NoiseModel, ProjectionSet, QuadraticMinimaxProblem, \
    project, sample_grad_block

__all__ = [
    "ALGORITHMS",
    "ADAPTIVE_ALGORITHMS",
    "AlgoConfig",
    "RunState",
    "AbortInfo",
    "Trace",
    "run",
    "mix",
]

ALGORITHMS = ("d-sgda", "d-tiada", "d-adast", "d-adast-coord")
ADAPTIVE_ALGORITHMS = ("d-tiada", "d-adast", "d-adast-coord")
TRACKING_ALGORITHMS = ("d-adast", "d-adast-coord")

# Per-iteration rows and record snapshots are reduced in chunks of about
# this many doubles, so a run's buffers do not grow with K.  Run times are
# flat from 2**12 to 2**20 on n=50 runs; 2**10 is about 40% slower.
_CHUNK_DOUBLES = 1 << 18


@dataclass(frozen=True)
class AlgoConfig:
    """Stepper configuration.

    c0 is the initial accumulator buffer; it may be zero, in which case a
    zero denominator simply suppresses the (necessarily zero) update term.
    """

    algo: str
    gamma_x: float
    gamma_y: float
    alpha: float = 0.6
    beta: float = 0.4
    c0: float = 1e-6
    projection: ProjectionSet = field(default=ALL)
    K: int = 1000
    stepsize_source: str = "local"  # "local" (pseudo-code) | "mixed" (compact form)

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}; expected one of {ALGORITHMS}")
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ConfigError("stepsizes gamma_x and gamma_y must be positive")
        if self.c0 < 0:
            raise ConfigError("initial buffer c0 must be nonnegative")
        if self.K < 0:
            raise ConfigError("iteration count K must be nonnegative")
        if self.stepsize_source not in ("local", "mixed"):
            raise ConfigError("stepsize_source must be 'local' or 'mixed'")
        if self.algo in ADAPTIVE_ALGORITHMS and not (0.0 < self.beta < self.alpha < 1.0):
            raise ConfigError(
                f"adaptive exponents need 0 < beta < alpha < 1, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )

    def to_dict(self) -> dict:
        return {
            "algo": self.algo,
            "gamma_x": self.gamma_x,
            "gamma_y": self.gamma_y,
            "alpha": self.alpha,
            "beta": self.beta,
            "c0": self.c0,
            "projection": self.projection.to_dict(),
            "K": self.K,
            "stepsize_source": self.stepsize_source,
        }


@dataclass
class RunState:
    """Stacked node state; X, Y, Mx and My are views into the block Z.

    Mx / My are (n,) with one accumulator per node and (n, p) / (n, d)
    for the coordinate-wise variant.
    """

    Z: np.ndarray  # (n, p + d + qx + qy)
    p: int
    d: int
    coord: bool = False
    k: int = 0

    @property
    def X(self) -> np.ndarray:
        return self.Z[:, :self.p]

    @property
    def Y(self) -> np.ndarray:
        return self.Z[:, self.p:self.p + self.d]

    @property
    def Mx(self) -> np.ndarray:
        a = self.p + self.d
        return self.Z[:, a:a + self.p] if self.coord else self.Z[:, a]

    @property
    def My(self) -> np.ndarray:
        a = self.p + self.d
        return self.Z[:, a + self.p:] if self.coord else self.Z[:, a + 1]


@dataclass(frozen=True)
class AbortInfo:
    """Where a run first produced a non-finite value."""

    k: int
    node: int
    field: str


@dataclass
class Trace:
    """Run output: record columns plus cheap per-iteration series.

    Row t of every record column is the record at iteration k[t]: the
    metrics of ``TRACE_HEADER`` as (R,) arrays, the node means xbar (R, p)
    and ybar (R, d), and zeta_v_hat_inst (R,) for the coordinate-wise
    variant (None otherwise).  grad_phi_sq is NaN when the dual domain is
    constrained (the closed-form best response does not apply).

    zeta_*_series[t] is the inconsistency of the stepsizes applied at
    iteration t (0-based); gsum_*_series[t] is the running node-mean of
    squared sampled gradient norms through iteration t, the quantity the
    accumulator average must track (plus c0).
    """

    k: np.ndarray
    grad_phi_sq: np.ndarray
    grad_xf_sq: np.ndarray
    consensus_x: np.ndarray
    consensus_y: np.ndarray
    zeta_v_inst: np.ndarray
    zeta_v_sup: np.ndarray
    zeta_u_inst: np.ndarray
    zeta_u_sup: np.ndarray
    avg_m_x: np.ndarray
    avg_m_y: np.ndarray
    xbar: np.ndarray
    ybar: np.ndarray
    zeta_v_hat_inst: np.ndarray | None
    zeta_v_series: np.ndarray
    zeta_u_series: np.ndarray
    zeta_v_hat_series: np.ndarray | None
    gsum_x_series: np.ndarray
    gsum_y_series: np.ndarray
    abort: AbortInfo | None
    final_state: RunState

    @property
    def aborted(self) -> bool:
        return self.abort is not None

    @property
    def records(self) -> list[SimpleNamespace]:
        """The records as rows: k, the metrics of ``TRACE_HEADER``, xbar and
        ybar.  Only the benchmark's checks in ``bench/`` read rows; this
        stays for them until the benchmark reads columns (ROADMAP item 1)."""
        names = [*TRACE_HEADER, "xbar", "ybar"]
        cols = [getattr(self, h).tolist() for h in TRACE_HEADER] + [self.xbar, self.ybar]
        return [SimpleNamespace(**dict(zip(names, row))) for row in zip(*cols)]


def mix(W: np.ndarray, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One gossip round in the mean-centered form (see module docstring).

    W is a dense matrix or a ``_Gather``; only ``W @`` is used."""
    m = np.add.reduce(V, axis=0) / V.shape[0]
    return np.add(m, W @ (V - m), out=out)


class _Gather:
    """A sparse W as padded neighbour lists: row i of ``W @ D`` sums the
    rows idx[i] of D weighted by w[i], O(n k c) instead of the dense
    GEMM's O(n^2 c).  Rows with fewer than k nonzeros pad with their own
    index at weight 0."""

    def __init__(self, W: np.ndarray, k: int):
        n = W.shape[0]
        rows, cols = np.nonzero(W)
        counts = np.bincount(rows, minlength=n)
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.repeat(np.arange(n)[:, None], k, axis=1)
        idx[rows, slot] = cols
        self.idx = idx.ravel()
        self.w = np.zeros((n, k))
        self.w[rows, slot] = W[rows, cols]

    def __matmul__(self, D: np.ndarray) -> np.ndarray:
        n, k = self.w.shape
        return np.einsum("nk,nkc->nc", self.w, np.take(D, self.idx, axis=0).reshape(n, k, -1))


def _neg_pow(m: np.ndarray, neg_expo) -> np.ndarray:
    """m ** neg_expo for a negative exponent (a float, or an array that
    broadcasts against m), with nonpositive m mapped to 0.

    A zero accumulator means every gradient seen so far (including the
    current one) was zero, so the paired update term is zero anyway.
    """
    if np.minimum.reduce(m, axis=None) > 0.0:
        return np.power(m, neg_expo)
    safe = np.where(m > 0.0, m, 1.0)
    return np.where(m > 0.0, safe ** neg_expo, 0.0)


def _psi(mx_pow: np.ndarray, my_pow: np.ndarray) -> np.ndarray:
    """Ratio m_x^a / max(m_x^a, m_y^a) with ties and zeros resolving to 1."""
    denom = np.maximum(mx_pow, my_pow)
    if denom.min() > 0.0:
        return mx_pow / denom
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, mx_pow / safe, 1.0)


def _row_sq_norms(G: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.einsum("np,np->n", G, G, out=out)


def _initial_state(
    problem: QuadraticMinimaxProblem, cfg: AlgoConfig, x0, y0
) -> RunState:
    n, p, d = problem.n, problem.p, problem.d

    def expand(v, dim, name):
        if v is None:
            return np.zeros((n, dim))
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            return np.full((n, dim), float(arr))
        if arr.shape == (dim,):
            return np.tile(arr, (n, 1))
        if arr.shape == (n, dim):
            return arr
        raise ConfigError(f"{name} must be scalar, ({dim},) or ({n},{dim}), got {arr.shape}")

    coord = cfg.algo == "d-adast-coord"
    M = np.full((n, p + d if coord else 2), cfg.c0)
    Z = np.concatenate([expand(x0, p, "x0"), expand(y0, d, "y0"), M], axis=1)
    return RunState(Z=Z, p=p, d=d, coord=coord)


class _Stepper:
    """One iteration of the configured method, in place on a state block.

    ``step(G, row)`` takes the sampled gradients G = [GX | GY] (n, p + d)
    and writes into ``row`` (n, width) the squared-gradient increments of
    the accumulators, H, followed for the adaptive methods by the applied
    stepsize denominators D = [v | u] (v = max(m_x, m_y), u = m_y; v = m_x
    for the coordinate-wise variant when p != d).
    """

    def __init__(self, state: RunState, W: np.ndarray, cfg: AlgoConfig):
        Z = state.Z
        n, cols = Z.shape
        p, d = state.p, state.d
        a = p + d
        self.Z, self.p, self.a, self.q = Z, p, a, cols - a
        # Gossip by neighbour gather when the widest row of W has k nonzeros
        # and k * 64 < n, so never for n <= 64.  Microseconds per mix call,
        # dense / gather, 2-core box, 2 columns: ring (k = 3) n = 128 16 / 23,
        # n = 200 23 / 28, n = 400 39 / 29 (96 / 40 at 8 columns), n = 1600
        # 1508 / 128; exponential n = 400 (k = 10) 48 / 45, n = 1024 (k = 11)
        # 568 / 108; dense n = 400 (k = 201) 31 / 561.
        k = int(np.count_nonzero(W, axis=1).max())
        self.W = _Gather(W, k) if k * 64 < n else W
        self.coord = state.coord
        self.adaptive = cfg.algo in ADAPTIVE_ALGORITHMS
        tracking = cfg.algo in TRACKING_ALGORITHMS
        self.post_mix = tracking and cfg.stepsize_source == "mixed"
        self.pre_mix = tracking and not self.post_mix
        self.projection = None if cfg.projection.kind == "all" else cfg.projection
        self.width = 2 * self.q if self.adaptive else self.q
        # one accumulator per side over several coordinates: sum squares per row
        self.row_norms = not self.coord and a > 2
        self.alpha = cfg.alpha
        self.coef = np.repeat([-cfg.gamma_x, cfg.gamma_y], [p, d])
        self.neg_expo = -np.repeat([cfg.alpha, cfg.beta], [p, d] if self.coord else [1, 1])
        self.side = np.repeat([0, 1], [p, d])  # stepsize column of each entry
        self.psi = np.ones((n, a))  # coordinate-wise psi on the x columns, 1 on the y columns
        self.S = np.empty((n, a))  # signed stepsize of every iterate entry
        B = np.empty_like(Z)  # the pre-mix block
        self.XY, self.M, self.Y = Z[:, :a], Z[:, a:], Z[:, p:a]
        self.B_XY, self.B_M = B[:, :a], B[:, a:]
        # accumulators ride along in the iterate round for pre-mix tracking
        n_mix = cols if self.pre_mix else a
        self.mix_in, self.mix_out = B[:, :n_mix], Z[:, :n_mix]
        # the accumulators the stepsize reads, and their x and y parts
        M = self.B_M if self.pre_mix else self.M
        self.mx, self.my = (M[:, :p], M[:, p:]) if self.coord else (M[:, 0], M[:, 1])
        self.M_read = M

    def step(self, G: np.ndarray, row: np.ndarray) -> None:
        H = row[:, :self.q]
        if self.row_norms:
            _row_sq_norms(G[:, :self.p], out=H[:, 0])
            _row_sq_norms(G[:, self.p:], out=H[:, 1])
        else:
            np.multiply(G, G, out=H)
        if self.adaptive:
            if self.pre_mix:
                np.add(self.M, H, out=self.B_M)
            elif self.post_mix:
                mix(self.W, np.add(self.M, H, out=self.B_M), out=self.M)
            else:
                np.add(self.M, H, out=self.M)
            if self.coord:
                self._coord_stepsizes(row[:, self.q:])
            else:
                self._scalar_stepsizes(row[:, self.q:])
            np.multiply(self.S, G, out=self.S)
        else:
            np.multiply(G, self.coef, out=self.S)
        np.add(self.XY, self.S, out=self.B_XY)
        mix(self.W, self.mix_in, out=self.mix_out)
        if self.projection is not None:
            self.Y[...] = project(self.projection, self.Y)

    def _scalar_stepsizes(self, D: np.ndarray) -> None:
        np.maximum(self.mx, self.my, out=D[:, 0])
        D[:, 1] = self.my
        s = _neg_pow(D, self.neg_expo)
        if self.row_norms:  # spread the two stepsizes over the p + d entries
            s = np.take(s, self.side, axis=1, out=self.S)
        np.multiply(s, self.coef, out=self.S)

    def _coord_stepsizes(self, D: np.ndarray) -> None:
        mx, my, al = self.mx, self.my, self.alpha
        # row norms as np.linalg.norm computes them, without its dispatch
        self.psi[:, :self.p] = _psi(
            np.sqrt(np.add.reduce(mx * mx, axis=1)) ** (2 * al),
            np.sqrt(np.add.reduce(my * my, axis=1)) ** (2 * al),
        )[:, None]
        np.multiply(self.coef, self.psi, out=self.S)
        self.S *= _neg_pow(self.M_read, self.neg_expo)
        D[:] = self.M_read
        if mx.shape == my.shape:
            np.maximum(mx, my, out=D[:, :self.p])


def _find_nonfinite(state: RunState) -> tuple[int, str]:
    """The field, in the order X, Y, Mx, My, and its first node holding a
    non-finite entry; the state must hold one."""
    for name in ("X", "Y", "Mx", "My"):
        bad = ~np.isfinite(getattr(state, name))
        if bad.any():
            return int(np.argwhere(bad)[0][0]), name


class _Tally:
    """Reduces the run loop's buffers into the trace, a chunk at a time.

    ``rows`` receives one stepper row per iteration and ``snaps`` a copy of
    the state block per record; ``flush(j, r)`` reduces the first j rows
    into the per-iteration series and the first r snapshots into record
    columns.  A chunk holds about _CHUNK_DOUBLES doubles, so memory does
    not grow with K beyond the series and records themselves.
    """

    def __init__(self, problem, cfg: AlgoConfig, stepper: _Stepper, trace_stride: int):
        n, cols = stepper.Z.shape
        self.problem, self.cfg, self.stepper = problem, cfg, stepper
        self.chunk = max(1, min(cfg.K, _CHUNK_DOUBLES // (n * cols)))
        self.rows = np.empty((self.chunk, n, stepper.width))
        # records of one chunk, plus the one at k = 0 and the final one
        self.snaps = np.empty((self.chunk // trace_stride + 3, n, cols))
        self.ks: list[int] = []
        # gsum_x, gsum_y, zeta_v, zeta_u, zeta_v_hat
        self.series: list[list[np.ndarray]] = [[np.zeros(0)] for _ in range(5)]
        # xbar, ybar, consensus_x, consensus_y, avg_m_x, avg_m_y
        self.columns: list[list[np.ndarray]] = [[] for _ in range(6)]
        self.gsum = [0.0, 0.0]

    def _acc(self, A: np.ndarray, at: int) -> tuple[np.ndarray, np.ndarray]:
        """The x and y parts of the accumulator-shaped columns of A (R, n, .)
        that start at column ``at``: (R, n) each, or (R, n, p) / (R, n, d)."""
        p, q = self.stepper.p, self.stepper.q
        if self.stepper.coord:
            return A[:, :, at:at + p], A[:, :, at + p:at + q]
        return A[:, :, at], A[:, :, at + 1]

    def flush(self, j: int, r: int) -> None:
        st, cfg = self.stepper, self.cfg
        if j:
            rows = self.rows[:j]
            for i, h in enumerate(self._acc(rows, 0)):
                h = np.ascontiguousarray(h).reshape(j, -1)
                g = np.add.reduce(h, axis=1) / h.shape[1]
                g[0] += self.gsum[i]
                self.series[i].append(np.cumsum(g))
                self.gsum[i] = float(self.series[i][-1][-1])
            if st.adaptive:
                V, U = (np.ascontiguousarray(m) for m in self._acc(rows, st.q))
                zeta = [_zeta_series(V, cfg.alpha), _zeta_series(U, cfg.beta)]
                if st.coord:
                    zeta.append(_zeta_hat_series(V, cfg.alpha))
            else:
                zeta = [np.zeros(j), np.zeros(j)]
            for s, part in zip(self.series[2:], zeta):
                s.append(part)
        if r:
            S = self.snaps[:r]
            n, p, a = S.shape[1], st.p, st.a
            X, Y = S[:, :, :p], S[:, :, p:a]
            parts = [
                np.add.reduce(X, axis=1) / n,
                np.add.reduce(Y, axis=1) / n,
                *consensus_error(X, Y),
            ]
            for m in self._acc(S, a):
                parts.append(np.add.reduce(m.reshape(r, -1), axis=1) / m[0].size)
            for c, part in zip(self.columns, parts):
                c.append(part)

    def trace(self, state: RunState, abort: AbortInfo | None) -> Trace:
        problem, coord = self.problem, self.stepper.coord
        gx, gy, zv, zu, zh = (np.concatenate(s) for s in self.series)
        xbar, ybar, cx, cy, mx, my = (np.concatenate(c) for c in self.columns)
        ks = np.array(self.ks)
        gphi = (grad_phi_sq(problem, xbar) if self.cfg.projection.kind == "all"
                else np.full(len(ks), np.nan))
        # a record at iteration k > 0 reports the stepsizes applied at k - 1
        later = ks > 0
        i = ks[later] - 1
        z = np.zeros((5 if coord else 4, len(ks)))
        z[:4, later] = (zv[i], np.maximum.accumulate(zv)[i], zu[i], np.maximum.accumulate(zu)[i])
        if coord:
            z[4, later] = zh[i]
        return Trace(
            k=ks, grad_phi_sq=gphi, grad_xf_sq=grad_xf_sq(problem, xbar, ybar),
            consensus_x=cx, consensus_y=cy,
            zeta_v_inst=z[0], zeta_v_sup=z[1], zeta_u_inst=z[2], zeta_u_sup=z[3],
            avg_m_x=mx, avg_m_y=my, xbar=xbar, ybar=ybar,
            zeta_v_hat_inst=z[4] if coord else None,
            zeta_v_series=zv,
            zeta_u_series=zu,
            zeta_v_hat_series=zh if coord else None,
            gsum_x_series=gx,
            gsum_y_series=gy,
            abort=abort,
            final_state=state,
        )


def run(
    problem: QuadraticMinimaxProblem,
    W: np.ndarray,
    cfg: AlgoConfig,
    noise: NoiseModel = NoiseModel.none(),
    *,
    x0=None,
    y0=None,
    seed: int = 0,
    trace_stride: int = 1,
) -> Trace:
    """Execute cfg.K iterations, recording metrics at iteration 0, every
    trace_stride iterations, and unconditionally at the final iteration.

    Fully deterministic given (problem, W, cfg, noise, x0, y0, seed).  On
    a non-finite iterate the run stops and the trace carries an AbortInfo
    naming the iteration, node and state field.

    The loop keeps to the stepper and two buffer writes: a per-iteration
    row (squared-gradient increments and applied denominators) and, at
    records, a copy of the state block.  Series and record metrics are
    reduced from those buffers a chunk at a time.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (problem.n, problem.n):
        raise ConfigError(f"weight matrix shape {W.shape} does not match n={problem.n}")
    if trace_stride < 1:
        raise ConfigError("trace_stride must be >= 1")

    state = _initial_state(problem, cfg, x0, y0)
    stepper = _Stepper(state, W, cfg)
    tally = _Tally(problem, cfg, stepper, trace_stride)
    Z, XY, K, chunk = state.Z, stepper.XY, cfg.K, tally.chunk
    rows, snaps, ks = tally.rows, tally.snaps, tally.ks
    stream = GradientStream(seed)
    step = stepper.step
    snaps[0] = Z
    ks.append(0)
    j, r = 0, 1  # rows and snapshots filled in the current chunk

    abort: AbortInfo | None = None
    # Divergence is a handled outcome (abort record + exit path), so the
    # overflow/invalid warnings emitted on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(K):
            if j == chunk:
                tally.flush(j, r)
                j = r = 0
            step(sample_grad_block(problem, XY, noise, stream, k), rows[j])
            j += 1
            state.k = k + 1
            # Cheap pre-screen: the sum of squares is finite only when every
            # entry is, so the entrywise screen runs only near divergence.
            if not math.isfinite(np.vdot(Z, Z)) and not np.isfinite(Z).all():
                node, field_name = _find_nonfinite(state)
                abort = AbortInfo(k=k + 1, node=node, field=field_name)
                break
            if (k + 1) % trace_stride == 0:
                snaps[r] = Z
                r += 1
                ks.append(k + 1)
        if K > 0 and abort is None:
            snaps[r] = Z
            r += 1
            ks.append(K)
        tally.flush(j, r)
        return tally.trace(state, abort)
