"""Output checks, each computed apart from the simulator.

Every check takes plain numbers (arrays, parsed files) and returns a list
of messages, empty when the output is right.  The closed forms here are
written out from the problem definitions, not taken from the simulator:
the three-node counterexample's coefficients, the synthetic family's
gradient of Phi, the quadratic best response of a generated problem, the
exponential graph's uniform weights and the ring's spectrum.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TRACE_METRICS = ("grad_phi_sq", "grad_xf_sq", "consensus_x", "consensus_y", "zeta_v_inst",
                 "zeta_v_sup", "zeta_u_inst", "zeta_u_sup", "avg_m_x", "avg_m_y")


# ------------------------------------------------------------ counterexample

def counterexample_coupling(alpha: float, beta: float) -> tuple[float, float, float]:
    """(a, b, coupling) of the three-node construction.

    Node 0 has f = -y^2/2 + xy - x^2/2, nodes 1 and 2 the same with the
    coupling in place of the 1 before xy."""
    a = 2.0 ** (-1.0 / (2.0 * alpha - 1.0))
    b = 2.0 ** (-1.0 / (2.0 * beta - 1.0))
    return a, b, -(1.0 + 1.0 / a + 1.0 / b)


def counterexample_slope(alpha: float, beta: float) -> float:
    """y0 / x0 of the line on which untracked stepsizes cancel."""
    a, b, _ = counterexample_coupling(alpha, beta)
    return -(1.0 + a) / (a + a / b)


def counterexample_grad_norms(alpha, beta, xbar, ybar) -> tuple[np.ndarray, np.ndarray]:
    """|grad_x f| and |grad_y f| of the averaged objective at (xbar, ybar)."""
    _, _, coupling = counterexample_coupling(alpha, beta)
    a_bar = (1.0 + 2.0 * coupling) / 3.0  # B, C average to 1; b, c are 0
    xbar, ybar = np.asarray(xbar, float), np.asarray(ybar, float)
    return np.abs(a_bar * ybar - xbar), np.abs(a_bar * xbar - ybar)


def check_frozen(alpha, beta, xbar, ybar, tol: float = 1e-9) -> list[str]:
    """Untracked adaptive stepsizes leave both averaged gradient norms fixed."""
    gx, gy = counterexample_grad_norms(alpha, beta, xbar, ybar)
    drift = max(float(np.abs(gx - gx[0]).max() / gx[0]),
                float(np.abs(gy - gy[0]).max() / gy[0]))
    if not drift <= tol:
        return [f"d-tiada ({alpha},{beta}): gradient norms drift {drift:.3e} > {tol:g}"]
    return []


def check_escape(alpha, beta, xbar, ybar) -> list[str]:
    """Tracked stepsizes leave the line: |grad_x f| ends below half its start."""
    gx, _ = counterexample_grad_norms(alpha, beta, xbar, ybar)
    ratio = float(gx[-1] / gx[0])
    if not ratio < 0.5:
        return [f"d-adast ({alpha},{beta}): |grad_x f| ratio {ratio:.3g} is not < 0.5"]
    return []


def check_tracking(ks, avg_m_x, avg_m_y, gsum_x, gsum_y, c0: float,
                   tol: float = 1e-12) -> list[str]:
    """The node-mean accumulator equals c0 plus the running sum of node-mean
    squared gradient norms, at every record after the first."""
    ks = np.asarray(ks)
    later = ks > 0
    idx = ks[later] - 1
    worst = 0.0
    for m, g in ((avg_m_x, gsum_x), (avg_m_y, gsum_y)):
        m = np.asarray(m, float)[later]
        dev = np.abs(m - (c0 + np.asarray(g)[idx])) / np.maximum(np.abs(m), 1e-300)
        worst = max(worst, float(dev.max(initial=0.0)))
    if not worst <= tol:
        return [f"tracking identity off by {worst:.3e} > {tol:g}"]
    return []


# ------------------------------------------------------------------ traces

def parse_trace(path: Path | str) -> dict[str, list[str]]:
    """The columns of a trace CSV, as the text of each field."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return {h: [r[j] for r in rows] for j, h in enumerate(header)}


def columns(trace: dict[str, list[str]], *names: str) -> list[np.ndarray]:
    return [np.array([float(v) for v in trace[name]]) for name in names]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_csv_matches_records(trace: dict[str, list[str]], records) -> list[str]:
    """A trace CSV reads back bit-equal to the records it was written from."""
    n = len(trace["k"])
    if n != len(records):
        return [f"CSV has {n} rows, the run {len(records)} records"]
    for t, rec in enumerate(records):
        if int(trace["k"][t]) != rec.k:
            return [f"row {t}: k {trace['k'][t]} != {rec.k}"]
        for name in TRACE_METRICS:
            v = getattr(rec, name)
            if not _same(float(trace[name][t]), math.nan if v is None else float(v)):
                return [f"row {t}: {name} {trace[name][t]} != {v!r}"]
        for prefix, vec in (("xbar", rec.xbar), ("ybar", rec.ybar)):
            for j, v in enumerate(vec):
                if float(trace[f"{prefix}_{j}"][t]) != float(v):
                    return [f"row {t}: {prefix}_{j} {trace[f'{prefix}_{j}'][t]} != {v!r}"]
    return []


# --------------------------------------------------------------- synthetic

def check_synthetic_grad_phi(trace: dict[str, list[str]], L_values,
                             tol: float = 1e-12) -> list[str]:
    """grad_phi_sq against the family's closed form.

    With f_i = -y^2/2 + L_i x y - L_i^2 x^2/2 - 2 L_i x + L_i y, the best
    response is y* = Lbar x + Lbar, so grad Phi(x) = -Var(L) x + Lbar^2 -
    2 Lbar.  grad Phi cancels to about 0 at the stationary start, so the
    tolerance scales with the size of the terms, not of the result."""
    L = np.asarray(L_values, float)
    l_bar = L.mean()
    var = float(np.mean((L - l_bar) ** 2))
    x, gphi = columns(trace, "xbar_0", "grad_phi_sq")
    g = -var * x + (l_bar * l_bar - 2.0 * l_bar)
    scale = var * np.abs(x) + l_bar * l_bar + 2.0 * l_bar
    err = np.abs(np.sqrt(gphi) - np.abs(g)) / scale
    if not (err <= tol).all():
        t = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"grad_phi_sq row {t}: {gphi[t]!r} vs closed form {g[t] ** 2!r}"]
    return []


def exponential_uniform_weights(n: int) -> np.ndarray:
    """Node i receives from i - 2^j (mod n) for every 2^j < n, all weights
    1/(degree + 1), self included."""
    offsets = [1 << j for j in range(n.bit_length()) if (1 << j) <= n - 1]
    W = np.eye(n)
    for i in range(n):
        for o in offsets:
            W[i, (i - o) % n] = 1.0
    return W / (len(offsets) + 1)


def rho_by_svd(W: np.ndarray) -> float:
    n = W.shape[0]
    return float(np.linalg.svd(W - 1.0 / n, compute_uv=False)[0] ** 2)


def check_rho(reported: float, expected: float, tol: float = 1e-9) -> list[str]:
    if not abs(reported - expected) <= tol * expected:
        return [f"rho_w {reported!r} vs {expected!r} by SVD"]
    return []


def check_tail_zeta(label: str, zeta_v, tracked: bool, window: int) -> list[str]:
    """Tracking drives the stepsize inconsistency to about 0; without it
    the inconsistency stays of order 1e-1 on this family."""
    tail = float(np.mean(np.asarray(zeta_v)[-window:]))
    if tracked and not tail <= 1e-6:
        return [f"{label}: tail zeta_v {tail:.3e} > 1e-6"]
    if not tracked and not tail >= 1e-2:
        return [f"{label}: tail zeta_v {tail:.3e} < 1e-2"]
    return []


# ------------------------------------------------------------- ring sweep

class QuadraticOracle:
    """grad Phi and grad_x f of the average of generated quadratic locals
    f_i = -y'B_i y/2 + x'A_i y - x'C_i x/2 + b_i'x + c_i'y."""

    def __init__(self, doc: dict):
        loc = doc["locals"]
        self.A, self.B, self.C, self.b, self.c = (
            np.mean([np.asarray(l[key], float) for l in loc], axis=0)
            for key in ("A", "B", "C", "b", "c")
        )
        self.norms = [np.linalg.norm(M, 2) for M in (self.A, self.B, self.C)]

    def phi_hessian(self) -> np.ndarray:
        return self.A @ np.linalg.solve(self.B, self.A.T) - self.C

    def grad_phi(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """grad Phi at each row of X, and the size of the terms summed."""
        Ystar = np.linalg.solve(self.B, (X @ self.A + self.c).T).T  # rows: y*(x)
        G = Ystar @ self.A.T - X @ self.C.T + self.b
        nA, _, nC = self.norms
        scale = nA * np.linalg.norm(Ystar, axis=1) + nC * np.linalg.norm(X, axis=1) \
            + np.linalg.norm(self.b)
        return G, scale

    def grad_x(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        G = Y @ self.A.T - X @ self.C.T + self.b
        nA, _, nC = self.norms
        scale = nA * np.linalg.norm(Y, axis=1) + nC * np.linalg.norm(X, axis=1) \
            + np.linalg.norm(self.b)
        return G, scale


def check_quadratic_trace(trace: dict[str, list[str]], oracle: QuadraticOracle,
                          tol: float = 1e-10) -> list[str]:
    """grad_phi_sq and grad_xf_sq of every row against the closed forms."""
    p, d = oracle.A.shape
    X = np.stack(columns(trace, *(f"xbar_{j}" for j in range(p))), axis=1)
    Y = np.stack(columns(trace, *(f"ybar_{j}" for j in range(d))), axis=1)
    out = []
    for name, (G, scale) in (("grad_phi_sq", oracle.grad_phi(X)),
                             ("grad_xf_sq", oracle.grad_x(X, Y))):
        (v,) = columns(trace, name)
        err = np.abs(np.sqrt(v) - np.linalg.norm(G, axis=1)) / scale
        if not (err <= tol).all():
            t = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            out.append(f"{name} row {t}: {v[t]!r} vs closed form {np.sum(G[t] ** 2)!r}")
    return out


def check_summary_row(row: dict[str, str], trace: dict[str, list[str]],
                      threshold: float) -> list[str]:
    """A sweep summary row agrees with the last row of its trace, and its
    iterations-to-threshold with the first row at or under the threshold."""
    out = []
    for col, name in (("final_grad_phi_sq", "grad_phi_sq"), ("final_zeta_v_sup", "zeta_v_sup")):
        if not _same(float(row[col]), float(trace[name][-1])):
            out.append(f"summary {col} {row[col]} != last trace row {trace[name][-1]}")
    hit = next((int(k) for k, g in zip(trace["k"], trace["grad_phi_sq"])
                if float(g) <= threshold), -1)
    if int(row["iters_to_threshold"]) != hit:
        out.append(f"summary iters_to_threshold {row['iters_to_threshold']} != {hit}")
    return out


def ring_gap(n: int) -> float:
    """1 - rho_w of the n-node ring with weight 1/3 on self and both neighbours:
    the eigenvalues are (1 + 2 cos(2 pi j / n)) / 3, and j = 1 is the largest
    in magnitude after the eigenvalue 1."""
    return 1.0 - ((1.0 + 2.0 * math.cos(2.0 * math.pi / n)) / 3.0) ** 2


def check_ring_gap(rho_w: float, n: int, tol: float = 1e-6) -> list[str]:
    gap = ring_gap(n)
    if not abs((1.0 - rho_w) - gap) <= tol * gap:
        return [f"ring n={n}: gap 1 - rho_w = {1.0 - rho_w:.9e}, closed form {gap:.9e}"]
    return []


def read_manifest(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())
