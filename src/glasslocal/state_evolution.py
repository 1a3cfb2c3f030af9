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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mixture import MixtureSpec, binary_entropy, ons
from .scalar import DEFAULT_RULE, mutual_info_scalar, phi, phi_prime, psi

__all__ = [
    "SEProfile",
    "QSchedule",
    "ThresholdReport",
    "se_recursion",
    "se_map",
    "fixed_points",
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
Q_GRID = 4096  # q-grid of fixed_points, beta1 (log-spaced) and beta_dyn
BETA1_REFINE_TOL = 1e-6  # golden-section bracket width
BETA2_GRID = 10_000
BETA2_REFINE = 2000  # points of the local refinement around the argmax
BETA2_TOL = 1e-4  # bisection width on beta
RS_PANELS = 2048  # Simpson panels of RS(t) on [0, 1]
RS_TOL = 1e-3  # bisection width on beta
BETA_STEP = 1e-3  # beta_dyn's scan step

#: beta^2 xi(q) + h(q) - log 2 is a difference of O(log 2) quantities, so its
#: computed value carries ~1e-16 of rounding noise near q = 0; suprema below
#: this floor count as nonpositive.
NOISE_FLOOR = 1e-12


@dataclass
class SEProfile:
    """State-evolution trajectory and fixed point for one (beta, t) pair."""

    beta: float
    t: float
    q_sequence: np.ndarray  # q_0 .. q_K
    q_star: float
    gamma_star: float  # beta^2 xi'(q_star)
    converged: bool


@dataclass
class QSchedule:
    """Fixed points q_*(beta, ell * delta) for ell = 0..L."""

    values: np.ndarray
    converged: np.ndarray


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
        return {
            "beta1": self.beta1,
            "beta2": self.beta2,
            "beta3": self.beta3,
            "beta_c_rs": self.beta_c_rs,
            "beta_dyn": self.beta_dyn,
            "mixture": self.mixture,
            "method": self.method,
        }


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
    gamma_star = beta * beta * float(spec.xi(q, order=1))
    return SEProfile(
        beta=beta,
        t=t,
        q_sequence=qs,
        q_star=q,
        gamma_star=gamma_star,
        converged=converged,
    )


def fixed_points(spec: MixtureSpec, beta: float, t: float) -> np.ndarray:
    """All roots of q = f_t(q) on [0, 1], by sign-change bracketing.

    Below beta1 there is a single root; above beta1 the map can develop
    several, and iteration from q_0 = 0 lands on the smallest.  Used by the
    multi-root diagnostics; plain iteration remains the solver of record.
    """
    qs = np.linspace(0.0, 1.0, Q_GRID)
    g = qs - se_map(spec, beta, t, qs)
    roots = []
    for i in range(Q_GRID - 1):
        a, b = g[i], g[i + 1]
        if a == 0.0:
            roots.append(qs[i])
        if a * b < 0:
            lo, hi = qs[i], qs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (mid - float(se_map(spec, beta, t, mid))) * a > 0:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    if g[-1] == 0.0:
        roots.append(qs[-1])
    return np.array(roots)


def mse_prediction(profile: SEProfile, k: int) -> float:
    """Predicted estimation error after k rounds: 1 - q_{k+1}."""
    if k + 1 >= profile.q_sequence.size or k < 0:
        raise IndexError(f"k={k} outside the computed trajectory")
    return 1.0 - float(profile.q_sequence[k + 1])


@lru_cache(maxsize=64)
def beta1(spec: MixtureSpec) -> float:
    """inf over q in (0,1) of sqrt(phi'(q) / xi''(q)).

    Log-spaced grid scan followed by golden-section refinement; absolute
    accuracy ~1e-4 on the threshold.
    """
    qs = np.geomspace(1e-8, 1.0 - 1e-6, Q_GRID)
    xi2 = spec.xi(qs, order=2)
    if np.all(xi2 <= 0):
        raise ValueError("degenerate mixture: xi'' vanishes on (0,1)")
    with np.errstate(divide="ignore"):
        vals = np.sqrt(phi_prime(qs) / xi2)
    i = int(np.argmin(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, Q_GRID - 1)]

    def f(q):
        x2 = float(spec.xi(q, order=2))
        if x2 <= 0:
            return np.inf
        return math.sqrt(phi_prime(q) / x2)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > BETA1_REFINE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(f(0.5 * (a + b)), float(vals[i]))


def _sup_free_entropy(spec: MixtureSpec, beta: float, qs: np.ndarray, hq: np.ndarray) -> float:
    vals = beta * beta * spec.xi(qs) + hq - _LOG2
    i = int(np.argmax(vals))
    # local refinement around the coarse argmax
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, qs.size - 1)]
    qf = np.linspace(lo, hi, BETA2_REFINE)
    vf = beta * beta * spec.xi(qf) + binary_entropy(qf) - _LOG2
    return max(float(vals[i]), float(vf.max()))


@lru_cache(maxsize=64)
def beta2(spec: MixtureSpec) -> float:
    """sup of beta with beta^2 xi(q) + h(q) - log 2 < 0 on all of (0,1).

    Bisection on beta of the grid-supremum predicate (refined near the
    argmax).
    """
    qs = np.linspace(1e-6, 1.0 - 1e-9, BETA2_GRID)
    hq = binary_entropy(qs)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if _sup_free_entropy(spec, hi, qs, hq) >= NOISE_FLOOR:
            break
        hi *= 2.0
    else:
        raise RuntimeError("beta2: failed to bracket")
    while hi - lo > BETA2_TOL:
        mid = 0.5 * (lo + hi)
        if _sup_free_entropy(spec, mid, qs, hq) < NOISE_FLOOR:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta3(spec: MixtureSpec, c0: float = 0.25) -> float:
    """Local-convexity threshold.

    Exact value 1/(2 sqrt(xi''(0))) for a pure quadratic mixture; otherwise
    the heuristic c0 / sqrt(xi''(1) log xi_hat^(8)(1)) with the configurable
    constant c0.
    """
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if len(spec.coeffs) == 1 and spec.coeffs[0][0] == 2:
        return 1.0 / (2.0 * math.sqrt(spec.xi(0.0, order=2)))
    x8 = spec.xi_hat(8)
    if x8 <= 1.0:
        raise ValueError("log xi_hat^(8)(1) undefined: xi_hat^(8)(1) <= 1")
    return c0 / math.sqrt(spec.xi(1.0, order=2) * math.log(x8))


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
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if _rs_max(spec, hi, s) > 0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("beta_c_rs: failed to bracket")
    while hi - lo > RS_TOL:
        mid = 0.5 * (lo + hi)
        if _rs_max(spec, mid, s) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dyn_h(lam):
    """H(lambda) = E[cosh(lambda G) tanh^2(lambda G)] / E[cosh(lambda G)].

    The cosh weight is absorbed exactly by the shifted-measure identity
    E[cosh(c G) g(G)] = e^{c^2/2} (E[g(G+c)] + E[g(G-c)]) / 2, so the
    evaluation is overflow-free for every lambda.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    z, w = DEFAULT_RULE.nodes, DEFAULT_RULE.weights
    a = np.tanh(lam[:, None] * (z + lam[:, None])) ** 2 @ w
    b = np.tanh(lam[:, None] * (z - lam[:, None])) ** 2 @ w
    return 0.5 * (a + b)


@lru_cache(maxsize=64)
def beta_dyn(spec: MixtureSpec, ceiling: float = 3.0) -> float | None:
    """Smallest beta at which q = H(beta sqrt(xi'(q))) has a root q > 0.

    Upward scan in steps of BETA_STEP; each candidate checks for a sign
    change of q - H(.) on a q-grid.  H is increasing in its argument, so the
    per-beta predicate is monotone and the scan can run coarse-to-fine: the
    returned grid point is identical to a plain BETA_STEP sweep.  Returns None
    when no solution appears below the scan ceiling.
    """
    q = np.linspace(1e-4, 1.0, Q_GRID)
    sqrt_xi1 = np.sqrt(spec.xi(q, order=1))

    def admits_root(b: float) -> bool:
        return bool(np.min(q - dyn_h(b * sqrt_xi1)) <= 0)

    coarse = 32 * BETA_STEP
    b_hi = None
    for b in np.arange(coarse, ceiling + coarse, coarse):
        if admits_root(min(b, ceiling)):
            b_hi = min(b, ceiling)
            break
        if b >= ceiling:
            return None
    if b_hi is None:
        return None
    for b in np.arange(max(b_hi - coarse, 0.0) + BETA_STEP, b_hi + BETA_STEP / 2, BETA_STEP):
        if admits_root(b):
            return float(b)
    return float(b_hi)


def psi_star(spec: MixtureSpec, beta: float, t: float) -> float:
    """Psi_*(beta, t): the per-site information functional at q_*(beta, t).

    Psi(q) = (beta^2/2)(xi(1) - xi(q) - (1-q) xi'(q)) + I(beta^2 xi'(q) + t).
    Its t-derivative is (1 - q_*)/2, consistent with the scalar I-MMSE
    relation.  Meaningful below beta1; computed (with a warning) above it.
    """
    if beta >= beta1(spec):
        warnings.warn(
            f"psi_star evaluated at beta={beta} >= beta1; the fixed point may "
            "not be unique",
            stacklevel=2,
        )
    q = se_recursion(spec, beta, t, K=1).q_star
    return float(ons(spec, beta, q) + mutual_info_scalar(beta * beta * spec.xi(q, order=1) + t))


def q_schedule(spec: MixtureSpec, beta: float, delta: float, L: int) -> QSchedule:
    """Table of fixed points q_*(beta, ell*delta) for ell = 0..L."""
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if L < 1:
        raise ValueError("L must be >= 1")
    values = np.zeros(L + 1)
    converged = np.zeros(L + 1, dtype=bool)
    for ell in range(L + 1):
        prof = se_recursion(spec, beta, ell * delta, K=1)
        values[ell] = prof.q_star
        converged[ell] = prof.converged
    return QSchedule(values=values, converged=converged)


def thresholds(spec: MixtureSpec, c0: float = 0.25, dyn_ceiling: float = 3.0) -> ThresholdReport:
    """Compute every threshold and package it with solver metadata."""
    return ThresholdReport(
        beta1=beta1(spec),
        beta2=beta2(spec),
        beta3=beta3(spec, c0),
        beta_c_rs=beta_c_rs(spec),
        beta_dyn=beta_dyn(spec, ceiling=dyn_ceiling),
        mixture=spec.to_dict(),
        method={
            "beta1": {"grid": Q_GRID, "spacing": "log", "refine": "golden", "tol": 1e-4},
            "beta2": {"grid": BETA2_GRID, "refine": BETA2_REFINE, "bisect_tol": BETA2_TOL},
            "beta3": {"c0": c0, "c0_is_heuristic": True},
            "beta_c_rs": {"simpson_panels": RS_PANELS, "bisect_tol": RS_TOL},
            "beta_dyn": {"beta_step": BETA_STEP, "q_grid": Q_GRID, "ceiling": dyn_ceiling},
            "quadrature_nodes": DEFAULT_RULE.n_nodes,
            "fixed_point_tol": FIXED_POINT_TOL,
        },
    )
