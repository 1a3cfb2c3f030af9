"""Quadratically-modified TAP free energy and natural gradient descent.

The functional over magnetizations m in (-1,1)^n is

    F(m; y, q) = -beta H(m) - <y, m> - sum_i h(m_i)
                 - n [ons(q) + ons'(q) (Q(m) - q)]
                 + (n Gamma beta / 8) (Q(m) - q)^2,

with Q(m) = ||m||^2/n and the per-site Onsager term
ons(Q) = (beta^2/2)(xi(1) - xi(Q) - (1-Q) xi'(Q)) and ons' = -b/2, b the AMP
memory coefficient (`mixture` holds both; NGD evaluates them once per run).
NGD performs plain gradient steps in the natural parameter u = atanh(m), which
is mirror descent under the binary-entropy Bregman divergence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensors, _kernel, _rows, hessian
from .mixture import _entropy_terms, ons, ons_prime, onsager

__all__ = [
    "TapParams",
    "TapIterate",
    "ons",
    "ons_prime",
    "ftap_value",
    "ftap_grad",
    "ftap_hessian",
    "relative_hessian_extremes",
    "bregman",
    "ngd_run",
]

logger = logging.getLogger(__name__)

#: tanh(u) is pulled inside +-(1 - BOUNDARY_MARGIN) before any atanh/entropy
#: evaluation, keeping every iterate strictly interior.
BOUNDARY_MARGIN = 1e-12

#: A rejected NGD step halves its row's learning rate at most this many times.
MAX_HALVINGS = 30


@dataclass
class TapParams:
    """Linearization point q, regularization weight Gamma, and the tilt y."""

    beta: float
    q: float
    gamma_reg: float
    y: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0.0 <= self.q < 1.0:
            raise ValueError("q must lie in [0, 1)")
        if not np.isfinite(self.gamma_reg) or self.gamma_reg < 0:
            raise ValueError("gamma_reg must be finite and nonnegative")
        self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")


@dataclass
class TapIterate:
    """NGD iterate: m = tanh(u) exactly, with cached value and grad norm."""

    u: np.ndarray
    m: np.ndarray
    ftap: float | np.ndarray
    grad_norm: float | np.ndarray


def _check_interior(m: np.ndarray) -> None:
    if not np.all(np.abs(m) < 1.0):
        raise ValueError("m must be finite and lie strictly inside (-1, 1)^n")


def _onsager_terms(g: DisorderTensors, params: TapParams):
    """(ons(q), b(q)), the functional's constants at its linearization point."""
    return ons(g.spec, params.beta, params.q), onsager(g.spec, params.beta, params.q)


def _ftap(g: DisorderTensors, M: np.ndarray, params: TapParams, ons_q, b):
    """Value (rows,) and gradient (rows, n) of the modified free energy at rows
    M that the caller keeps interior, from one kernel call; (ons_q, b) = `_onsager_terms`."""
    n = g.n
    beta, q, gam = params.beta, params.q, params.gamma_reg
    h, dh = _kernel(g, M)
    Q = np.sum(M * M, axis=-1) / n
    # the tilt supports y as a shared (n,) vector or per-row (M, n)
    y = params.y
    tilt = np.sum(M * y, axis=-1) if y.ndim > 1 else M @ y
    val = (
        -beta * h
        - tilt
        - _entropy_terms(M).sum(axis=-1)
        - n * (ons_q + (-0.5 * b) * (Q - q))
        + n * gam * beta / 8.0 * (Q - q) ** 2
    )
    dval = (
        -beta * dh
        - y
        + np.arctanh(M)
        + b * M
        + (0.5 * gam * beta) * (Q - q)[:, None] * M
    )
    return val, dval


def ftap_value(g: DisorderTensors, m: np.ndarray, params: TapParams):
    """Value of the modified free energy at interior m (vector or batch)."""
    M, lead = _rows(m, g.n)
    _check_interior(M)
    return _ftap(g, M, params, *_onsager_terms(g, params))[0].reshape(lead)[()]


def ftap_grad(g: DisorderTensors, m: np.ndarray, params: TapParams):
    """Gradient: -beta grad H - y + atanh(m) + b(q) m + (Gamma beta / 2)(Q(m) - q) m."""
    M, lead = _rows(m, g.n)
    _check_interior(M)
    return _ftap(g, M, params, *_onsager_terms(g, params))[1].reshape(lead + (g.n,))


def ftap_hessian(g: DisorderTensors, m: np.ndarray, params: TapParams) -> np.ndarray:
    """Hessian: -beta hess H + D(m) + (b(q) + (Gamma beta/2)(Q-q)) I
    + (Gamma beta / n) m m^T, D = diag(1/(1-m_i^2))."""
    mv = np.asarray(m, dtype=float)
    _check_interior(mv)
    beta, q, gam = params.beta, params.q, params.gamma_reg
    H = -beta * hessian(g, mv)  # enforces the size cap and rejects a batch
    Q = float(mv @ mv) / g.n
    H[np.diag_indices(g.n)] += 1.0 / (1.0 - mv * mv)
    reg = 0.5 * gam * beta * (Q - q)
    H[np.diag_indices(g.n)] += onsager(g.spec, beta, q) + reg
    H += (gam * beta / g.n) * np.outer(mv, mv)
    return H


def relative_hessian_extremes(
    g: DisorderTensors, m: np.ndarray, params: TapParams
) -> tuple[float, float]:
    """Extreme eigenvalues of D(m)^{-1/2} hess F D(m)^{-1/2}."""
    mv = np.asarray(m, dtype=float)
    H = ftap_hessian(g, mv, params)
    d_inv_sqrt = np.sqrt(1.0 - mv * mv)
    A = H * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(w[-1])


def bregman(m: np.ndarray, nvec: np.ndarray) -> float:
    """Bregman divergence of the negative binary entropy:
    D(m, n) = -h(m) + h(n) + <grad h(n), m - n>, grad h(n) = -atanh(n)."""
    m = np.asarray(m, dtype=float)
    nvec = np.asarray(nvec, dtype=float)
    _check_interior(m)
    _check_interior(nvec)
    return float(
        -_entropy_terms(m).sum(axis=-1)
        + _entropy_terms(nvec).sum(axis=-1)
        - np.arctanh(nvec) @ (m - nvec)
    )


def _clip_interior(m: np.ndarray) -> np.ndarray:
    return np.clip(m, -1.0 + BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN)


def ngd_run(
    g: DisorderTensors,
    u0: np.ndarray,
    params: TapParams,
    eta: float,
    K: int,
    keep_history: bool = True,
) -> list[TapIterate]:
    """Natural gradient descent u <- u - eta grad F(tanh(u)) for K steps.

    If a step increases F, its learning rate is halved and the step retried
    (at most MAX_HALVINGS times, per batch row); the next step resumes at
    the nominal eta.  Iterates are therefore nonincreasing in F up to the
    floating-point resolution of the value (1e-12 relative: a converged
    iterate's value jitters by an ulp, which must not trip the safeguard);
    an increase beyond that after all halvings raises.  `u0` may be a vector
    or a batch (M, n); rows evolve independently, so results do not depend
    on how a batch is split.  Each trial is one value-and-gradient call whose
    gradient, once accepted, drives the next step and `grad_norm`.
    """
    if not 0.0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    if K < 1:
        raise ValueError("K must be >= 1")
    U, lead = _rows(u0, g.n)
    if not np.all(np.isfinite(U)):
        raise ValueError("u0 must be finite")
    terms = _onsager_terms(g, params)
    M = _clip_interior(np.tanh(U))
    f, gvec = _ftap(g, M, params, *terms)

    def _mk_state(U, Mm, f, gvec):
        return TapIterate(
            u=U.reshape(lead + (g.n,)),
            m=Mm.reshape(lead + (g.n,)),
            ftap=f.reshape(lead)[()],
            grad_norm=np.linalg.norm(gvec, axis=-1).reshape(lead)[()],
        )

    states: list[TapIterate] = []
    for k in range(K):
        if not np.all(np.isfinite(gvec)):
            raise FloatingPointError(f"NGD gradient non-finite at step k={k}")
        eta_row = np.full(f.shape, eta)
        noise_tol = 1e-12 * (1.0 + np.abs(f))
        for attempt in range(MAX_HALVINGS + 1):
            U_try = U - eta_row[:, None] * gvec
            M_try = _clip_interior(np.tanh(U_try))
            f_try, g_try = _ftap(g, M_try, params, *terms)
            bad = f_try > f + noise_tol
            if not np.any(bad):
                break
            if attempt == MAX_HALVINGS:
                raise RuntimeError(
                    f"NGD safeguard exhausted at step k={k} after {MAX_HALVINGS} halvings"
                )
            eta_row[bad] *= 0.5
            logger.debug("NGD k=%d: halved eta on %d row(s)", k, int(bad.sum()))
        U, M, f, gvec = U_try, M_try, f_try, g_try
        if not np.all(np.isfinite(U)):
            raise FloatingPointError(f"NGD produced a non-finite iterate at step k={k}")
        if keep_history:
            states.append(_mk_state(U, M, f, gvec))
    if not keep_history:
        states = [_mk_state(U, M, f, gvec)]
    return states
