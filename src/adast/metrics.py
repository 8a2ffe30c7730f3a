"""Per-iteration evaluation quantities: stationarity, consensus, and
stepsize-inconsistency measures.

Inconsistency is always computed on the stepsize denominators that were
actually applied in an update (for tracking algorithms these are the
locally accumulated values before the communication round).  For scalar
accumulators the per-iteration value is

    max_i (v_i^{-a} - vbar^{-a})^2 / (vbar^{-a})^2,   vbar = mean_i v_i,

and for coordinate-wise accumulators the normalized Frobenius form over
the flattened mean is used.  Where (vbar^{-a})^2 underflows (vbar past
about 1e220 at a = 0.7) the quotient would be rounding over 0, so those
rows take the equal ratio form ((v_i / vbar)^{-a} - 1)^2.  Running suprema
are maintained by the run recorder, not here.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .problems import QuadraticMinimaxProblem

__all__ = [
    "TRACE_HEADER",
    "grad_phi_sq",
    "grad_xf_sq",
    "consensus_error",
    "zeta_series",
    "zeta_hat_series",
]


_TINY = np.finfo(float).tiny  # the smallest normal double

# The leading trace CSV columns: the iteration, then the record metrics.
TRACE_HEADER = [
    "k",
    "grad_phi_sq",
    "grad_xf_sq",
    "consensus_x",
    "consensus_y",
    "zeta_v_inst",
    "zeta_v_sup",
    "zeta_u_inst",
    "zeta_u_sup",
    "avg_m_x",
    "avg_m_y",
]


def _sq_norms(G: np.ndarray) -> np.ndarray:
    """g @ g for each row g of a stack G (R, m), as an (R,) array."""
    return np.matmul(G[:, None, :], G[:, :, None])[:, 0, 0]


def grad_phi_sq(problem: QuadraticMinimaxProblem, xbar: np.ndarray) -> np.ndarray:
    """Squared norm of grad Phi at each row of the stack xbar (R, p)."""
    return _sq_norms(problem.grad_phi(xbar))


def grad_xf_sq(problem: QuadraticMinimaxProblem, xbar: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """Squared norm of the averaged x-gradient at each row pair of the
    stacks xbar (R, p), ybar (R, d)."""
    return _sq_norms(problem.grad_x_avg(xbar, ybar))


def consensus_error(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Frobenius deviation of each snapshot of the stacked iterates
    X (R, n, p), Y (R, n, d) from its node mean, as a pair of (R,) arrays.

    The deviations are taken on shifted data, each node minus node 0, so
    nodes that agree give exactly 0 however large they are; the rounded
    mean of the unshifted values can sit one rounding step off them, and
    that step squared overflows for iterates near 1e170."""

    def dev_sq(V: np.ndarray) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        if V.ndim != 3:
            raise ConfigError(f"consensus_error takes (R, n, dim) snapshots, got {V.shape}")
        dev = V - V[:, :1]
        dev -= np.add.reduce(dev, axis=1, keepdims=True) / V.shape[1]
        dev *= dev
        return np.add.reduce(dev.reshape(len(V), -1), axis=1)

    return dev_sq(X), dev_sq(Y)


def _deviation(V: np.ndarray, expo: float, v_pow: np.ndarray | None,
               ref: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(V^-a - ref^-a)^2 for a stack V (K, n) or (K, n, p) and a reference
    that broadcasts against it, by default each row's mean vbar, and
    vbar^-a per row; rows where vbar^-2a underflows take the equal ratio
    form ((V / vbar)^-a - (ref / vbar)^-a)^2 and a vbar^-a of 1."""
    vbar = V.mean(axis=tuple(range(1, V.ndim)), keepdims=True)
    vbar_pow = vbar ** (-expo)
    ref_pow = vbar_pow if ref is None else ref ** (-expo)
    dev = (V ** (-expo) if v_pow is None else v_pow) - ref_pow
    dev *= dev
    vbar_pow = vbar_pow.ravel()
    tiny = vbar_pow * vbar_pow < _TINY
    if tiny.any():  # the equal ratio form, where vbar^-2a underflows
        at = vbar[tiny]
        ratio = (V[tiny] / at) ** (-expo) - (1.0 if ref is None else (ref[tiny] / at) ** (-expo))
        dev[tiny], vbar_pow[tiny] = ratio * ratio, 1.0
    return dev, vbar_pow


def zeta_series(v_store: np.ndarray, expo: float, v_pow: np.ndarray | None = None) -> np.ndarray:
    """Vectorized per-iteration inconsistency over a whole run.

    v_store is (K, n) for scalar accumulators or (K, n, p) coordinate-wise;
    each slice follows the definitions in the module docstring.  v_pow,
    when given, is v_store ** -expo, made once by a caller that needs it
    twice.
    """
    V = np.asarray(v_store, dtype=float)
    dev, vbar_pow = _deviation(V, expo, v_pow)
    if V.ndim == 2:
        out = dev.max(axis=1) / (vbar_pow * vbar_pow)
    else:
        K, n, p = V.shape
        out = dev.sum(axis=(1, 2)) / (n * p * vbar_pow * vbar_pow)
    flat_axes = tuple(range(1, V.ndim))
    out[V.min(axis=flat_axes) == V.max(axis=flat_axes)] = 0.0
    return out


def zeta_hat_series(v_store: np.ndarray, expo: float,
                    v_pow: np.ndarray | None = None) -> np.ndarray:
    """Within-node cross-coordinate inconsistency of the coordinate-wise
    variant over a whole run of (K, n, p) denominators: rows are compared
    against their own row means, normalized by the flattened mean, and a
    row whose coordinates agree reads 0.  This term does not vanish under
    tracking.  v_pow is as in ``zeta_series``."""
    V = np.asarray(v_store, dtype=float)
    K, n, p = V.shape
    dev, vbar_pow = _deviation(V, expo, v_pow, np.einsum("knp->kn", V)[..., None] / p)
    # min == max over each node's coordinates, taken a column at a time:
    # numpy reduces a short last axis about 20 times slower
    agree = V[..., 0] == V[..., min(1, p - 1)]  # for p = 1, False only at NaN
    for j in range(2, p):
        agree &= V[..., j] == V[..., 0]
    dev[agree] = 0.0
    return dev.sum(axis=(1, 2)) / (n * p * vbar_pow * vbar_pow)
