"""The stepper shared by the four methods, and the run loop.

Node state is the iterates X (n, p) and Y (n, d) and the accumulators Mx
and My, one column each for d-sgda / d-tiada / d-adast and one per
coordinate ((n, p) and (n, d)) for the coordinate-wise variant.  The
methods differ in four switches only:

- constant (d-sgda) or adaptive stepsizes;
- accumulators kept local (d-tiada) or mixed with the iterates
  (tracking: d-adast, d-adast-coord);
- one accumulator per node or one per coordinate;
- whether the stepsize reads the accumulators before the communication
  round (``stepsize_source="local"``, the pseudo-code ordering: one round
  for all four quantities) or after it (``"mixed"``, the compact-form
  ordering, which costs an extra round).

The state lives in one flat buffer, laid out by what one gossip round
mixes, so that every block a round or an elementwise update touches is
one C-contiguous array.  With pre-mix tracking the accumulators ride in
the iterate round and the buffer is the single block [X | Y | Mx | My]
(n, p + d + q); otherwise it is the block [X | Y] (n, p + d) followed by
the block [Mx | My] (n, q).

With one accumulator per node the primal stepsize is
gamma_x * max(m_x, m_y)^(-alpha) for every adaptive method.  D-AdaST's
form gamma_x * psi * m_x^(-alpha), psi = m_x^alpha / max(m_x^alpha,
m_y^alpha), is the same number in exact arithmetic and differs only at
rounding level, so D-TiAda is D-AdaST without the accumulator columns in
the mix.  The coordinate-wise variant keeps psi, built from accumulator
norms.

A round that carries accumulators (post-mix tracking's [Mx | My] round,
and pre-mix tracking's single block) uses the mean-centered form
mean + W @ (v - mean), identical to W @ v in exact arithmetic for a
row-stochastic W but mass-conserving to roughly eps * consensus-error
instead of eps * magnitude, which is what keeps the tracking-average
identity tight over 1e5 iterations.  A round of iterates alone (the
[X | Y] block of d-sgda, d-tiada and post-mix tracking) takes the plain
product W @ v: no identity rests on the iterates' node mean, and the
plain product costs about half the centered form on a 400-node ring.  A
plain round spreads one node's inf as inf, a centered one as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_array

from .errors import ConfigError
from .metrics import TRACE_HEADER, consensus_error, grad_phi_sq, grad_xf_sq
from .metrics import zeta_hat_series as _zeta_hat_series
from .metrics import zeta_series as _zeta_series
from .problems import ALL, GradientStream, NoiseModel, ProjectionSet, QuadraticMinimaxProblem, \
    project, require_finite, sample_grad_block

__all__ = [
    "ALGORITHMS",
    "ADAPTIVE_ALGORITHMS",
    "STEPSIZE_SOURCES",
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
STEPSIZE_SOURCES = ("local", "mixed")  # the accumulators a stepsize reads: pre- or post-mix
_FIELDS = ("X", "Y", "Mx", "My")  # the state fields, in the order an abort screens them

# Per-iteration rows and record snapshots are reduced in chunks of about
# this many doubles (512 KiB), so a run's buffers do not grow with K and
# H, D, the snapshots and flush's temporaries fit in a 2 MiB L2.  Median us
# per iteration, this against 2**18, pairs alternating in one process on a
# 2-core box, each inside the spread between pairs: n = 3 with stride-1
# records 19.2 / 19.9 and 23.1 / 22.4 (two sets of 60 pairs), n = 50 noisy
# 33.5 / 35.9 (20), 400-node ring coordinate-wise 211.8 / 211.4 (40),
# 1600-node ring 841 / 843 and 905 / 854 (two sets of 40).
_CHUNK_DOUBLES = 1 << 16


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
        require_finite(gamma_x=self.gamma_x, gamma_y=self.gamma_y, c0=self.c0)
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ConfigError("stepsizes gamma_x and gamma_y must be positive")
        if self.c0 < 0:
            raise ConfigError("initial buffer c0 must be nonnegative")
        if self.K < 0:
            raise ConfigError("iteration count K must be nonnegative")
        if self.stepsize_source not in STEPSIZE_SOURCES:
            raise ConfigError("stepsize_source must be 'local' or 'mixed'")
        if self.algo in ADAPTIVE_ALGORITHMS and not (0.0 < self.beta < self.alpha < 1.0):
            raise ConfigError(
                f"adaptive exponents need 0 < beta < alpha < 1, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "projection": self.projection.to_dict()}


def _blocks(Z: np.ndarray, n: int, a: int, split: bool) -> tuple[np.ndarray, np.ndarray]:
    """The iterates [X | Y] (..., n, a) and the accumulators [Mx | My]
    (..., n, q) of flat state buffers Z (..., N), as views.

    Split, the buffer is the block [X | Y] followed by the block [Mx | My];
    otherwise it is the one block [X | Y | Mx | My] (see module docstring)."""
    lead = Z.shape[:-1]
    if split:
        return Z[..., :n * a].reshape(*lead, n, a), Z[..., n * a:].reshape(*lead, n, -1)
    block = Z.reshape(*lead, n, -1)
    return block[..., :a], block[..., a:]


def _sides(M: np.ndarray, p: int, coord: bool) -> tuple[np.ndarray, np.ndarray]:
    """The x and y parts of accumulator-shaped columns M (..., n, q): (..., n)
    each, or (..., n, p) and (..., n, d) for the coordinate-wise variant."""
    return (M[..., :p], M[..., p:]) if coord else (M[..., 0], M[..., 1])


@dataclass
class RunState:
    """Stacked node state in the flat buffer Z (see module docstring).

    XY = [X | Y] (n, p + d) and M = [Mx | My] (n, q) are views into Z, and
    X, Y, Mx and My views into those.  Mx / My are (n,) with one
    accumulator per node and (n, p) / (n, d) for the coordinate-wise
    variant.
    """

    Z: np.ndarray
    XY: np.ndarray
    M: np.ndarray
    p: int
    coord: bool = False
    k: int = 0

    @property
    def X(self) -> np.ndarray:
        return self.XY[:, :self.p]

    @property
    def Y(self) -> np.ndarray:
        return self.XY[:, self.p:]

    @property
    def Mx(self) -> np.ndarray:
        return _sides(self.M, self.p, self.coord)[0]

    @property
    def My(self) -> np.ndarray:
        return _sides(self.M, self.p, self.coord)[1]


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


def mix(W: np.ndarray, V: np.ndarray, out: np.ndarray | None = None, *,
        centered: bool = True) -> np.ndarray:
    """One gossip round: ``W @ V`` in the mean-centered form, or as the plain
    product with ``centered=False`` (see module docstring).

    W is a dense matrix or a ``csr_array``; only ``W @`` is used.  The
    stepper centers the rounds that carry accumulators, whose node mean
    must track the running mean of squared gradients; a round of iterates
    alone conserves nothing the method reads, so it takes the plain
    product, about half the time of the centered form."""
    if not centered:
        if isinstance(W, np.ndarray):
            return np.matmul(W, V, out=out)
        if out is None:
            return W @ V
        out[...] = W @ V
        return out
    m = _column_sums(V)
    m /= len(V)
    return np.add(m, W @ (V - m), out=out)


def _column_sums(V: np.ndarray) -> np.ndarray:
    """``np.add.reduce(V, axis=0)``, bit for bit.

    Over two or more columns both this einsum and the ufunc add the rows in
    order; past about 64 rows the einsum loop is the cheaper (3.8 against
    8.7 us at n = 400, 8 columns).  One column each sums its own way."""
    if V.ndim == 2 and V.shape[1] > 1 and len(V) > 64:
        return np.einsum("ni->i", V)
    return np.add.reduce(V, axis=0)


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


def _initial_state(
    problem: QuadraticMinimaxProblem, cfg: AlgoConfig, x0, y0
) -> RunState:
    n, p, d = problem.n, problem.p, problem.d

    def expand(v, dim, name):
        if v is None:
            return np.zeros((n, dim))
        arr = np.asarray(v, dtype=float)
        if not np.isfinite(arr).all():
            raise ConfigError(f"{name} must be finite")
        if arr.ndim == 0:
            return np.full((n, dim), float(arr))
        if arr.shape == (dim,):
            return np.tile(arr, (n, 1))
        if arr.shape == (n, dim):
            return arr
        raise ConfigError(f"{name} must be scalar, ({dim},) or ({n},{dim}), got {arr.shape}")

    coord = cfg.algo == "d-adast-coord"
    a, q = p + d, p + d if coord else 2
    Z = np.empty(n * (a + q))
    XY, M = _blocks(Z, n, a, split=not _pre_mix(cfg))
    XY[:, :p] = expand(x0, p, "x0")
    XY[:, p:] = expand(y0, d, "y0")
    M[...] = cfg.c0
    return RunState(Z=Z, XY=XY, M=M, p=p, coord=coord)


def _pre_mix(cfg: AlgoConfig) -> bool:
    """Whether the accumulators are tracked and ride in the iterate round."""
    return cfg.algo in TRACKING_ALGORITHMS and cfg.stepsize_source == "local"


class _Stepper:
    """One iteration of the configured method, in place on the state buffer.

    ``step(G, H, D)`` takes the sampled gradients G = [GX | GY] (n, p + d)
    and writes into H (n, q) the squared-gradient increments of the
    accumulators and, for the adaptive methods, into D (n, q) the applied
    stepsize denominators [v | u] (v = max(m_x, m_y), u = m_y; v = m_x for
    the coordinate-wise variant when p != d).  The pre-mix buffer B has
    the state's layout, so each round mixes one contiguous block.
    """

    __slots__ = ("Z", "p", "q", "W", "coord", "adaptive", "pre_mix", "post_mix", "split", "S",
                 "projection", "row_norms", "sides", "alpha", "coef", "neg_expo", "psi",
                 "XY", "M", "Y", "B_XY", "B_M", "B", "mix_in", "mix_out", "M_read", "mx", "my")

    def __init__(self, state: RunState, W: np.ndarray, cfg: AlgoConfig):
        XY, M = state.XY, state.M
        n, a = XY.shape
        p = state.p
        self.Z, self.p, self.q = state.Z, p, M.shape[1]
        # Gossip by a CSR product when the widest row of W has k nonzeros
        # and k * 64 < n, so never for n <= 64.  Microseconds per mix call,
        # dense / CSR, plain and centered at 2 columns (2-core box, best of
        # 21 alternating repeats): ring (k = 3) n = 128 3.7 / 5.9 and
        # 11.4 / 13.0, n = 400 25 / 8.4 and 36 / 20; exponential n = 400
        # (k = 10) 25 / 13 and 39 / 25, n = 1024 (k = 11) 510 / 35 and
        # 542 / 55; dense n = 400 (k = 201) 29 / 239 and 40 / 243.  At 8
        # columns the same graphs order the same way.  CSR wins on the
        # 400-node exponential graph (n / k = 40) and loses on the 128-node
        # ring (n / k = 43), so no bound on n / k takes the one without the
        # other.
        k = int(np.count_nonzero(W, axis=1).max())
        self.W = csr_array(W) if k * 64 < n else W
        self.coord = state.coord
        self.adaptive = cfg.algo in ADAPTIVE_ALGORITHMS
        self.pre_mix = _pre_mix(cfg)
        self.post_mix = cfg.algo in TRACKING_ALGORITHMS and not self.pre_mix
        self.split = not self.pre_mix
        self.projection = None if cfg.projection.kind == "all" else cfg.projection
        # one accumulator per side over several coordinates: sum squares per row
        self.row_norms = not self.coord and a > 2
        self.sides = (p, a - p)
        self.alpha = cfg.alpha
        # per-entry constants at full size, so that no ufunc loops over a
        # broadcast row: a (n, k) operand broadcast from (k,) runs n loops of k
        self.coef = np.tile(np.repeat([-cfg.gamma_x, cfg.gamma_y], self.sides), (n, 1))
        self.neg_expo = np.tile(
            -np.repeat([cfg.alpha, cfg.beta], self.sides if self.coord else (1, 1)), (n, 1))
        self.psi = np.ones((n, a))  # coordinate-wise psi on the x columns, 1 on the y columns
        self.S = np.empty((n, a))  # signed stepsize of every iterate entry
        B = np.empty_like(self.Z)  # the pre-mix buffer
        self.XY, self.M, self.Y = XY, M, XY[:, p:]
        self.B_XY, self.B_M = _blocks(B, n, a, self.split)
        # B as a state: where a non-finite value is first seen before a round spreads it
        self.B = RunState(Z=B, XY=self.B_XY, M=self.B_M, p=p, coord=self.coord)
        # accumulators ride along in the iterate round for pre-mix tracking
        self.mix_in, self.mix_out = (
            (self.B_XY, XY) if self.split else (B.reshape(n, -1), self.Z.reshape(n, -1)))
        # the accumulators the stepsize reads, and their x and y parts
        self.M_read = self.B_M if self.pre_mix else M
        self.mx, self.my = _sides(self.M_read, p, self.coord)

    def step(self, G: np.ndarray, H: np.ndarray, D: np.ndarray) -> None:
        if self.row_norms:
            p, d = self.sides
            if p == d:  # both sides at once, the same sums as one side at a time
                G3 = G.reshape(len(G), 2, p)
                np.einsum("nsp,nsp->ns", G3, G3, out=H)
            else:
                np.einsum("np,np->n", G[:, :p], G[:, :p], out=H[:, 0])
                np.einsum("np,np->n", G[:, p:], G[:, p:], out=H[:, 1])
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
                self._coord_stepsizes(D)
            else:
                self._scalar_stepsizes(D)
            np.multiply(self.S, G, out=self.S)
        else:
            np.multiply(G, self.coef, out=self.S)
        np.add(self.XY, self.S, out=self.B_XY)
        mix(self.W, self.mix_in, out=self.mix_out, centered=self.pre_mix)
        if self.projection is not None:
            self.Y[...] = project(self.projection, self.Y)

    def _scalar_stepsizes(self, D: np.ndarray) -> None:
        np.maximum(self.mx, self.my, out=D[:, 0])
        D[:, 1] = self.my
        s = _neg_pow(D, self.neg_expo)
        if self.row_norms:  # spread the two stepsizes over the p + d entries
            s = np.repeat(s, self.sides, axis=1)
        np.multiply(s, self.coef, out=self.S)

    def _coord_stepsizes(self, D: np.ndarray) -> None:
        mx, my, (p, d) = self.mx, self.my, self.sides
        # ||m||^(2 alpha) = (m @ m)^alpha per node and side; with p == d
        # both sides in one einsum
        if p == d:
            M3 = self.M_read.reshape(len(mx), 2, p)
            norms = np.einsum("nsp,nsp->ns", M3, M3) ** self.alpha
            nx, ny = norms[:, 0], norms[:, 1]
        else:
            nx, ny = (np.einsum("np,np->n", m, m) ** self.alpha for m in (mx, my))
        self.psi[:, :p] = _psi(nx, ny)[:, None]
        np.multiply(self.coef, self.psi, out=self.S)
        self.S *= _neg_pow(self.M_read, self.neg_expo)
        D[:] = self.M_read
        if p == d:
            np.maximum(mx, my, out=D[:, :p])


def _find_nonfinite(state: RunState, names=_FIELDS) -> tuple[int, str] | None:
    """The first of the fields ``names`` of ``state`` holding a non-finite
    entry, and its first such node; None when there is none."""
    for name in names:
        bad = ~np.isfinite(getattr(state, name))
        if bad.any():
            return int(np.argwhere(bad)[0][0]), name


class _Tally:
    """Reduces the run loop's buffers into the trace, a chunk at a time.

    ``H`` and ``D`` receive the stepper's increments and denominators, one
    (n, q) row per iteration, and ``snaps`` a copy of the flat state buffer
    per record; ``flush(j, r)`` reduces the first j rows into the
    per-iteration series and the first r snapshots into record columns.  A
    chunk holds about _CHUNK_DOUBLES doubles, so memory does not grow with
    K beyond the series and records themselves; ``trace()`` drops the chunk
    buffers before it builds the output.
    """

    def __init__(self, problem, cfg: AlgoConfig, stepper: _Stepper, trace_stride: int):
        size, n, q = stepper.Z.size, len(stepper.XY), stepper.q
        self.problem, self.cfg, self.stepper = problem, cfg, stepper
        self.chunk = max(1, min(cfg.K, _CHUNK_DOUBLES // size))
        self.H = np.empty((self.chunk, n, q))
        self.D = np.empty((self.chunk, n, q if stepper.adaptive else 0))
        # records of one chunk, plus the one at k = 0 and the final one
        self.snaps = np.empty((self.chunk // trace_stride + 3, size))
        self.ks: list[int] = []
        # gsum_x, gsum_y, zeta_v, zeta_u, zeta_v_hat
        self.series: list[list[np.ndarray]] = [[np.zeros(0)] for _ in range(5)]
        # xbar, ybar, consensus_x, consensus_y, avg_m_x, avg_m_y
        self.columns: list[list[np.ndarray]] = [[] for _ in range(6)]
        self.gsum = [0.0, 0.0]

    def flush(self, j: int, r: int) -> None:
        st, cfg = self.stepper, self.cfg
        if j:
            for i, h in enumerate(_sides(self.H[:j], st.p, st.coord)):
                h = np.ascontiguousarray(h).reshape(j, -1)
                g = np.add.reduce(h, axis=1) / h.shape[1]
                g[0] += self.gsum[i]
                self.series[i].append(np.cumsum(g))
                self.gsum[i] = float(self.series[i][-1][-1])
            if st.adaptive:
                # one side's contiguous copy at a time: the chunk's memory peak
                v, u = _sides(self.D[:j], st.p, st.coord)
                zeta_u = _zeta_series(np.ascontiguousarray(u), cfg.beta)
                V = np.ascontiguousarray(v)
                V_pow = V ** -cfg.alpha
                zeta = [_zeta_series(V, cfg.alpha, V_pow), zeta_u]
                if st.coord:
                    zeta.append(_zeta_hat_series(V, cfg.alpha, V_pow))
            else:
                zeta = [np.zeros(j), np.zeros(j)]
            for s, part in zip(self.series[2:], zeta):
                s.append(part)
        if r:
            XY, M = _blocks(self.snaps[:r], *st.XY.shape, st.split)
            n, p = XY.shape[1], st.p
            X, Y = XY[..., :p], XY[..., p:]
            parts = [
                np.add.reduce(X, axis=1) / n,
                np.add.reduce(Y, axis=1) / n,
                *consensus_error(X, Y),
            ]
            for m in _sides(M, p, st.coord):
                parts.append(np.add.reduce(m.reshape(r, -1), axis=1) / m[0].size)
            for c, part in zip(self.columns, parts):
                c.append(part)

    def trace(self, state: RunState, abort: AbortInfo | None) -> Trace:
        self.H = self.D = self.snaps = None  # freed before the output columns are built
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

    The loop keeps to the stepper and its buffer writes: per iteration the
    squared-gradient increments H and the applied denominators D, each one
    contiguous (n, q) row, and at records a copy of the flat state buffer.
    Series and record metrics are reduced from those buffers a chunk at a
    time.
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
    H, D, snaps, ks = tally.H, tally.D, tally.snaps, tally.ks
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
            step(sample_grad_block(problem, XY, noise, stream, k), H[j], D[j])
            j += 1
            state.k = k + 1
            # Cheap pre-screen: the sum of squares is finite only when every
            # entry is, so the entrywise screen runs only near divergence.
            if not math.isfinite(np.vdot(Z, Z)) and not np.isfinite(Z).all():
                # a mix spreads one node's inf, as NaN, to every node, so the
                # pre-mix blocks name the node before the state does; B's
                # accumulators are written and mixed only by the tracking methods
                mixed = _FIELDS if cfg.algo in TRACKING_ALGORITHMS else _FIELDS[:2]
                node, field_name = (_find_nonfinite(stepper.B, mixed)
                                    or _find_nonfinite(state))
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
        del H, D, snaps  # the chunk buffers are spent; trace() releases them
        return tally.trace(state, abort)
