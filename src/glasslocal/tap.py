"""Quadratically-modified TAP free energy and natural gradient descent.

The functional over magnetizations m in (-1,1)^n is

    F(m; y, q) = -beta H(m) - <y, m> - sum_i h(m_i)
                 - n [ons(q) + ons'(q) (Q(m) - q)]
                 + (n Gamma beta / 8) (Q(m) - q)^2,

with Q(m) = ||m||^2/n and the per-site Onsager term
ons(Q) = (beta^2/2)(xi(1) - xi(Q) - (1-Q) xi'(Q)) and ons' = -b/2, b the AMP
memory coefficient (`mixture` holds both; NGD evaluates them once per run).
NGD performs plain gradient steps in the natural parameter u = atanh(m), which
is mirror descent under the binary-entropy Bregman divergence.  F is evaluated
at u itself, so m = tanh(u) may round to +-1 (where h(+-1) = 0).  Its step is
a fixed eta, or per row the Barzilai-Borwein step that the sampler uses.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensors, _kernel, _kernel_work, _rows, hessian
from .mixture import _entropy_terms, ons, onsager

__all__ = [
    "TapParams",
    "TapIterate",
    "ftap_value",
    "ftap_grad",
    "ftap_hessian",
    "relative_hessian_extremes",
    "ngd_run",
]

logger = logging.getLogger(__name__)

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


def _ftap_work(g: DisorderTensors, rows: int):
    """Work arrays for `_ftap` on `rows` rows: the gradient (rows, n) it
    returns, then its scratch: H (rows,), the kernel's block scratch and
    three (rows, n) arrays."""
    h, gr, kscratch = _kernel_work(g, rows)
    return gr, (h, kscratch, *(np.empty_like(gr) for _ in range(3)))


def _ftap(g: DisorderTensors, U, M, params: TapParams, ons_q, b, work=None):
    """Value (rows,) and gradient (rows, n) of the modified free energy at rows U
    of natural parameters, M = tanh(U), from one kernel call; (ons_q, b) = `_onsager_terms`.

    Every (rows, n) step is written into `work` (`_ftap_work(g, rows)`,
    allocated when not given), whose first array receives the gradient.  The
    operations and their order do not depend on `work`, nor do the bits."""
    n = g.n
    beta, q, gam = params.beta, params.q, params.gamma_reg
    dval, (h, kscratch, t, a, log_a) = _ftap_work(g, len(M)) if work is None else work
    _kernel(g, M, (h, dval, kscratch))  # dval holds grad H until the terms below
    Q = np.sum(np.multiply(M, M, out=t), axis=-1) / n
    y = params.y  # (n,) shared by every row, or (rows, n) per row
    tilt = np.sum(np.multiply(M, y, out=t), axis=-1)
    val = (
        -beta * h
        - tilt
        - _entropy_terms(M, (t, a, log_a)).sum(axis=-1)
        - n * (ons_q + (-0.5 * b) * (Q - q))
        + n * gam * beta / 8.0 * (Q - q) ** 2
    )
    # -beta grad H - y + U + b M + (Gamma beta / 2)(Q - q) M, in order
    dval *= -beta
    dval -= y
    dval += U
    dval += np.multiply(b, M, out=t)
    dval += np.multiply((0.5 * gam * beta) * (Q - q)[:, None], M, out=t)
    return val, dval


def ftap_value(g: DisorderTensors, m: np.ndarray, params: TapParams):
    """Value of the modified free energy at interior m (vector or batch)."""
    M, lead = _rows(m, g.n, "m")
    _check_interior(M)
    return _ftap(g, np.arctanh(M), M, params, *_onsager_terms(g, params))[0].reshape(lead)[()]


def ftap_grad(g: DisorderTensors, m: np.ndarray, params: TapParams):
    """Gradient: -beta grad H - y + atanh(m) + b(q) m + (Gamma beta / 2)(Q(m) - q) m."""
    M, lead = _rows(m, g.n, "m")
    _check_interior(M)
    return _ftap(g, np.arctanh(M), M, params, *_onsager_terms(g, params))[1].reshape(lead + (g.n,))


def _hessian_rest(g: DisorderTensors, mv: np.ndarray, params: TapParams) -> np.ndarray:
    """`ftap_hessian` less its entropy diagonal D(m), defined on [-1, 1]^n."""
    beta, q, gam = params.beta, params.q, params.gamma_reg
    R = -beta * hessian(g, mv)  # rejects a batch
    R[np.diag_indices(g.n)] += onsager(g.spec, beta, q) + 0.5 * gam * beta * (mv @ mv / g.n - q)
    return R + (gam * beta / g.n) * np.outer(mv, mv)


def ftap_hessian(g: DisorderTensors, m: np.ndarray, params: TapParams) -> np.ndarray:
    """Hessian: -beta hess H + D(m) + (b(q) + (Gamma beta/2)(Q-q)) I
    + (Gamma beta / n) m m^T, D = diag(1/(1-m_i^2))."""
    mv = np.asarray(m, dtype=float)
    _check_interior(mv)
    H = _hessian_rest(g, mv, params)
    H[np.diag_indices(g.n)] += 1.0 / (1.0 - mv * mv)
    return H


def relative_hessian_extremes(
    g: DisorderTensors, m: np.ndarray, params: TapParams
) -> tuple[float, float]:
    """Extreme eigenvalues of D^{-1/2} hess F D^{-1/2} = I + S R S, S = D(m)^{-1/2} =
    diag(sqrt(1 - m_i^2)), R = `_hessian_rest`; a coordinate at +-1 gives eigenvalue 1."""
    mv = np.asarray(m, dtype=float)
    if not np.all(np.abs(mv) <= 1.0):
        raise ValueError("m must be finite and lie in [-1, 1]^n")
    s = np.sqrt(1.0 - mv * mv)
    A = _hessian_rest(g, mv, params) * np.outer(s, s)
    A[np.diag_indices(g.n)] += 1.0
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(w[-1])


def ngd_run(
    g: DisorderTensors,
    u0: np.ndarray,
    params: TapParams,
    eta: float,
    K: int,
    keep_history: bool = True,
    tol: float = 0.0,
    *,
    bb: bool = False,
) -> list[TapIterate]:
    """Natural gradient descent u <- u - eta grad F(tanh(u)): at most K steps;
    a row stops at tol.

    With `bb`, a row's next step is the Barzilai-Borwein (BB2, 1988) step
    s.r / r.r, or eta where s.r <= 0, with s = u_new - u_old and
    r = grad F_new - grad F_old of its last accepted step; eta is the first
    step, so that step is bitwise the fixed one.  Without `bb`, every step
    starts at eta.

    Before each step, a row whose ||grad F|| / sqrt(n) <= tol is frozen for the
    rest of the run: it takes a zero step, so its u, m, value and gradient keep
    their bits, and it never triggers a halving.  The run ends once every row
    is frozen (a run frozen at entry keeps just its start state), or after K
    steps.  tol = 0 turns the stop off: every run takes K steps.

    If a step increases F, its learning rate is halved and the step retried
    (at most MAX_HALVINGS times, per batch row); the next step starts anew.
    Iterates are therefore nonincreasing in F up to the floating-point
    resolution of the value (1e-12 relative: a converged iterate's value
    jitters by an ulp, which must not trip the safeguard); an increase
    beyond that after all halvings raises.  `u0` may be a vector or a batch
    (M, n); rows evolve independently, so results do not depend on how a
    batch is split.  Each trial is one value-and-gradient call whose
    gradient, once accepted, drives the next step and `grad_norm`.

    The run allocates its (rows, n) arrays once: u, m and the gradient of the
    accepted state and of the trial, which swap when a trial is accepted, and
    one `_ftap` scratch that serves both, so a trial allocates nothing of
    size n; s and r take the old state's u and gradient arrays.  `u0` is
    never written, and each returned iterate owns its arrays.
    """
    if not 0.0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be nonnegative and finite")
    U, lead = _rows(u0, g.n, "u0")
    terms = _onsager_terms(g, params)
    U, M = U.copy(), np.tanh(U)  # a copy: u0 is never written
    gvec, scratch = _ftap_work(g, len(U))
    f, _ = _ftap(g, U, M, params, *terms, (gvec, scratch))
    U_try, M_try, g_try = np.empty_like(U), np.empty_like(M), np.empty_like(gvec)

    def _mk_state(U, Mm, f, gvec):
        return TapIterate(
            u=U.reshape(lead + (g.n,)),
            m=Mm.reshape(lead + (g.n,)),
            ftap=f.reshape(lead)[()],
            grad_norm=np.linalg.norm(gvec, axis=-1).reshape(lead)[()],
        )

    states: list[TapIterate] = []
    frozen = np.zeros(f.shape, dtype=bool)
    eta_next = None  # the rows' BB steps, after the first step of a `bb` run
    for k in range(K):
        if not np.all(np.isfinite(gvec)):
            raise FloatingPointError(f"NGD gradient non-finite at step k={k}")
        if tol > 0.0:
            frozen |= np.einsum("ij,ij->i", gvec, gvec) <= tol * tol * g.n  # ||grad||^2 / n
            if frozen.all():
                break
        held = np.flatnonzero(frozen)  # indices: with no row frozen, nothing is copied
        eta_row = np.full(f.shape, eta) if eta_next is None else eta_next
        noise_tol = 1e-12 * (1.0 + np.abs(f))
        for attempt in range(MAX_HALVINGS + 1):
            np.subtract(U, np.multiply(eta_row[:, None], gvec, out=U_try), out=U_try)
            U_try[held] = U[held]
            np.tanh(U_try, out=M_try)
            f_try, _ = _ftap(g, U_try, M_try, params, *terms, (g_try, scratch))
            # a frozen row keeps its value and gradient bits, so it never halves
            f_try[held], g_try[held] = f[held], gvec[held]
            bad = f_try > f + noise_tol
            if not np.any(bad):
                break
            if attempt == MAX_HALVINGS:
                raise RuntimeError(
                    f"NGD safeguard exhausted at step k={k} after {MAX_HALVINGS} halvings"
                )
            eta_row[bad] *= 0.5
            logger.debug("NGD k=%d: halved eta on %d row(s)", k, int(bad.sum()))
        # the trial is the new state, and the old state's arrays take the next trial
        U, M, f, gvec, U_try, M_try, g_try = U_try, M_try, f_try, g_try, U, M, gvec
        if not np.all(np.isfinite(U)):
            raise FloatingPointError(f"NGD produced a non-finite iterate at step k={k}")
        if bb:  # s and r overwrite the old state's u and gradient
            s = np.subtract(U, U_try, out=U_try)
            r = np.subtract(gvec, g_try, out=g_try)
            sr, rr = np.einsum("ij,ij->i", s, r), np.einsum("ij,ij->i", r, r)
            eta_next = np.divide(sr, rr, out=np.full(f.shape, eta), where=sr > 0.0)
        if keep_history:  # the arrays are reused, so a stored state gets copies
            states.append(_mk_state(U.copy(), M.copy(), f, gvec))
    if not keep_history or not states:
        states = [_mk_state(U, M, f, gvec)]
    return states
