"""Scalar state evolution and the analytic temperature thresholds.

The recursion q_{k+1} = psi(beta^2 xi'(q_k) + t), q_0 = 0, predicts the
per-coordinate statistics of the message-passing mean estimator; its fixed
point q_*(beta, t) drives both the sampler's q-schedule and the information
quantity Psi_*.  The thresholds beta1, beta2, beta3, the replica-symmetric
critical point and the dynamical threshold are all deterministic functionals
of the mixture polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .mixture import MixtureSpec, binary_entropy, ons
from .scalar import GH_POINTS, gh_rule, mutual_info_scalar, psi, psi_prime

__all__ = [
    "SEProfile",
    "ThresholdReport",
    "se_recursion",
    "se_map",
    "mse_prediction",
    "beta1",
    "beta2",
    "beta3",
    "beta_c_rs",
    "beta_dyn",
    "psi_star",
    "q_schedule",
    "thresholds",
]

_LOG2 = math.log(2.0)

#: Fixed-point iteration stops when successive iterates differ by at most
#: FIXED_POINT_TOL, and reports non-convergence after FIXED_POINT_CAP steps.
FIXED_POINT_TOL = 1e-12
FIXED_POINT_CAP = 10_000

#: Solver settings of the thresholds, reported by `thresholds().method`.
Q_GRID = 4096  # gamma-grid of beta1 (log-spaced) and q-grid of beta_dyn
BETA1_GAMMA = (1e-8, 30.0)  # psi maps it onto q in [1e-8, 1 - 7e-8]
BETA2_GRID = 10_000
BETA2_TOL = 1e-4  # bisection width on beta
BETA3_C0 = 0.25  # heuristic constant of the general beta3
RS_PANELS = 2048  # Simpson panels of RS(t) on [0, 1]
RS_TOL = 1e-3  # bisection width on beta
BETA_STEP = 1e-3  # bisection width on beta of beta_dyn
DYN_CEILING = 3.0  # beta_dyn is None when there is no root at this beta

#: beta^2 xi(q) + h(q) - log 2 is a difference of O(log 2) quantities, so its
#: computed value carries ~1e-16 of rounding noise near q = 0; suprema below
#: this floor count as nonpositive.
NOISE_FLOOR = 1e-12


@dataclass
class SEProfile:
    """State-evolution trajectory and fixed point for one (beta, t) pair."""

    q_sequence: np.ndarray  # q_0 .. q_K
    q_star: float
    converged: bool


@dataclass
class ThresholdReport:
    """All analytic thresholds for one mixture, with solver metadata."""

    beta1: float
    beta2: float
    beta3: float
    beta_c_rs: float
    beta_dyn: float | None
    mixture: dict
    method: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def se_map(spec: MixtureSpec, beta: float, t: float, q):
    """One step of the recursion: f_t(q) = psi(beta^2 xi'(q) + t)."""
    return psi(beta * beta * spec.xi(q, order=1) + t)


def se_recursion(spec: MixtureSpec, beta: float, t: float, K: int) -> SEProfile:
    """Run the recursion for K steps and continue to the fixed point.

    The returned q_sequence has length K+1 (q_0 = 0 included); q_star is the
    plain-iteration limit, converged when successive iterates differ by at
    most FIXED_POINT_TOL within FIXED_POINT_CAP iterations.  Non-convergence
    is reported through the flag, not an exception.
    """
    if not (0.0 <= beta < math.inf and 0.0 <= t < math.inf):
        raise ValueError("beta and t must be finite and nonnegative")
    if K < 1:
        raise ValueError("K must be >= 1")
    qs = np.zeros(K + 1)
    q = 0.0
    for k in range(1, K + 1):
        q = float(se_map(spec, beta, t, q))
        qs[k] = q
    converged = False
    for _ in range(FIXED_POINT_CAP - K):
        q_next = float(se_map(spec, beta, t, q))
        if abs(q_next - q) <= FIXED_POINT_TOL:
            q = q_next
            converged = True
            break
        q = q_next
    return SEProfile(q_sequence=qs, q_star=q, converged=converged)


def mse_prediction(profile: SEProfile, k: int) -> float:
    """Predicted estimation error after k rounds: 1 - q_{k+1}."""
    if k + 1 >= profile.q_sequence.size or k < 0:
        raise IndexError(f"k={k} outside the computed trajectory")
    return 1.0 - float(profile.q_sequence[k + 1])


@lru_cache(maxsize=64)
def beta1(spec: MixtureSpec) -> float:
    """inf over q in (0,1) of sqrt(phi'(q) / xi''(q)).

    With q = psi(gamma), phi'(q) = 1/psi'(gamma), so this is
    1 / sqrt(max over gamma of psi'(gamma) xi''(psi(gamma))), scanned on a
    log-spaced gamma-grid of Q_GRID points over BETA1_GAMMA; absolute
    accuracy ~1e-4 on the threshold.
    """
    gammas = np.geomspace(*BETA1_GAMMA, Q_GRID)
    curvature = float(np.max(psi_prime(gammas) * spec.xi(psi(gammas), order=2)))
    if curvature <= 0:
        raise ValueError("degenerate mixture: xi'' vanishes on (0,1)")
    return 1.0 / math.sqrt(curvature)


def _bisect_threshold(name: str, holds, tol: float, ceiling: float | None = None):
    """Final bracket (lo, hi), hi - lo <= tol, of the beta at which `holds`,
    a predicate monotone in beta and false at 0, turns true: holds(hi), and
    lo is 0 or fails.  hi starts at the ceiling, or else doubles from 1 until
    it holds, at most 60 times.  None when the ceiling does not hold.
    """
    lo, hi = 0.0, 1.0 if ceiling is None else ceiling
    for _ in range(60):
        if holds(hi):
            break
        if ceiling is not None:
            return None
        hi *= 2.0
    else:
        raise RuntimeError(f"{name}: failed to bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return lo, hi


@lru_cache(maxsize=64)
def beta2(spec: MixtureSpec) -> float:
    """sup of beta with beta^2 xi(q) + h(q) - log 2 < 0 on all of (0,1), by
    bisection of the predicate that its grid maximum reaches NOISE_FLOOR."""
    qs = np.linspace(1e-6, 1.0 - 1e-9, BETA2_GRID)
    xq, hq = spec.xi(qs), binary_entropy(qs)
    lo, hi = _bisect_threshold(
        "beta2", lambda b: np.max(b * b * xq + hq - _LOG2) >= NOISE_FLOOR, BETA2_TOL
    )
    return 0.5 * (lo + hi)


def beta3(spec: MixtureSpec) -> float:
    """Local-convexity threshold.

    Exact value 1/(2 sqrt(xi''(0))) for a pure quadratic mixture; otherwise
    the heuristic c0 / sqrt(xi''(1) log xi_hat^(8)(1)) with c0 = BETA3_C0.
    """
    if len(spec.coeffs) == 1 and spec.coeffs[0][0] == 2:
        return 1.0 / (2.0 * math.sqrt(spec.xi(0.0, order=2)))
    x8 = spec.xi_hat(8)
    if x8 <= 1.0:
        raise ValueError("log xi_hat^(8)(1) undefined: xi_hat^(8)(1) <= 1")
    return BETA3_C0 / math.sqrt(spec.xi(1.0, order=2) * math.log(x8))


def _rs_max(spec: MixtureSpec, beta: float, s: np.ndarray) -> float:
    """max_t of RS(t) = int_0^t xi''(s) (psi(beta^2 xi'(s)) - s) ds.

    Composite Simpson on the panel grid; RS evaluated at every even node.
    """
    u = spec.xi(s, order=2) * (psi(beta * beta * spec.xi(s, order=1)) - s)
    h = s[1] - s[0]
    blocks = (u[0:-2:2] + 4.0 * u[1:-1:2] + u[2::2]) * (h / 3.0)
    rs = np.concatenate(([0.0], np.cumsum(blocks)))
    return float(rs[1:].max())


@lru_cache(maxsize=64)
def beta_c_rs(spec: MixtureSpec) -> float:
    """Replica-symmetric critical temperature from the RS(t) <= 0 condition."""
    s = np.linspace(0.0, 1.0, RS_PANELS + 1)
    lo, hi = _bisect_threshold("beta_c_rs", lambda b: _rs_max(spec, b, s) > 0, RS_TOL)
    return 0.5 * (lo + hi)


def dyn_h(lam):
    """H(lambda) = E[cosh(lambda G) tanh^2(lambda G)] / E[cosh(lambda G)].

    The cosh weight is absorbed exactly by the shifted-measure identity
    E[cosh(c G) g(G)] = e^{c^2/2} (E[g(G+c)] + E[g(G-c)]) / 2, so the
    evaluation is overflow-free for every lambda.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    z, w = gh_rule()
    a = np.tanh(lam[:, None] * (z + lam[:, None])) ** 2 @ w
    b = np.tanh(lam[:, None] * (z - lam[:, None])) ** 2 @ w
    return 0.5 * (a + b)


def _dyn_root(spec: MixtureSpec, beta: float) -> bool:
    """Whether q - H(beta sqrt(xi'(q))) changes sign on the q-grid; H is
    increasing in its argument, so this is monotone in beta."""
    q = np.linspace(1e-4, 1.0, Q_GRID)
    return bool(np.min(q - dyn_h(beta * np.sqrt(spec.xi(q, order=1)))) <= 0)


@lru_cache(maxsize=64)
def beta_dyn(spec: MixtureSpec) -> float | None:
    """Smallest beta at which q = H(beta sqrt(xi'(q))) has a root q > 0.

    The upper end of the final bisection bracket, BETA_STEP wide, so the
    grid root exists there and not BETA_STEP below.  Returns None when there
    is no root at DYN_CEILING.
    """
    bracket = _bisect_threshold("beta_dyn", lambda b: _dyn_root(spec, b), BETA_STEP, DYN_CEILING)
    return None if bracket is None else float(bracket[1])


def psi_star(spec: MixtureSpec, beta: float, t: float) -> float:
    """Psi_*(beta, t): the per-site information functional at q_*(beta, t).

    Psi(q) = (beta^2/2)(xi(1) - xi(q) - (1-q) xi'(q)) + I(beta^2 xi'(q) + t).
    Its t-derivative is (1 - q_*)/2, consistent with the scalar I-MMSE
    relation.  Meaningful below beta1; computed (with a warning) above it.
    """
    return _psi_at(spec, beta, t, se_recursion(spec, beta, t, K=1).q_star)


def _psi_at(spec: MixtureSpec, beta: float, t: float, q: float) -> float:
    """Psi(q) at a fixed point q = q_*(beta, t) the caller already has."""
    if beta >= beta1(spec):
        msg = f"psi_star evaluated at beta={beta} >= beta1; the fixed point may not be unique"
        warnings.warn(msg, stacklevel=3)
    return float(ons(spec, beta, q) + mutual_info_scalar(beta * beta * spec.xi(q, order=1) + t))


def q_schedule(spec: MixtureSpec, beta: float, delta: float, L: int) -> np.ndarray:
    """Fixed points q_*(beta, ell*delta) for ell = 0..L, shape (L+1,); the
    sampler needs each, so the first that does not converge raises, naming ell."""
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if L < 1:
        raise ValueError("L must be >= 1")
    values = np.zeros(L + 1)
    for ell in range(L + 1):
        prof = se_recursion(spec, beta, ell * delta, K=1)
        if not prof.converged:
            msg = f"ell={ell} (t={ell * delta:g}) did not converge in {FIXED_POINT_CAP} iterations"
            raise RuntimeError(f"q schedule: the fixed point at {msg}")
        values[ell] = prof.q_star
    return values


def thresholds(spec: MixtureSpec) -> ThresholdReport:
    """Compute every threshold and package it with solver metadata."""
    return ThresholdReport(
        beta1=beta1(spec),
        beta2=beta2(spec),
        beta3=beta3(spec),
        beta_c_rs=beta_c_rs(spec),
        beta_dyn=beta_dyn(spec),
        mixture=spec.to_dict(),
        method={
            "beta1": {"gamma_grid": Q_GRID, "gamma_range": list(BETA1_GAMMA), "spacing": "log"},
            "beta2": {"grid": BETA2_GRID, "bisect_tol": BETA2_TOL},
            "beta3": {"c0": BETA3_C0, "c0_is_heuristic": True},
            "beta_c_rs": {"simpson_panels": RS_PANELS, "bisect_tol": RS_TOL},
            "beta_dyn": {"bisect_tol": BETA_STEP, "q_grid": Q_GRID, "ceiling": DYN_CEILING},
            "quadrature_nodes": GH_POINTS,
            "fixed_point_tol": FIXED_POINT_TOL,
        },
    )
