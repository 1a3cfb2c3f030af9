"""Scalar Gaussian-channel functions: psi, its derivative, the inverse phi,
and the scalar mutual information I(gamma).

All expectations are over Z ~ N(0,1) and are evaluated with a fixed
Gauss-Hermite rule.  tanh(gamma + sqrt(gamma) z) has poles at distance
pi/(2 sqrt(gamma)) from the real axis, so Gauss-Hermite convergence degrades
as gamma grows: 81 nodes only reach ~2e-6 near gamma = 8.  The default rule
therefore uses 301 nodes (max abs error 7e-10 uniformly on gamma <= 200,
checked against adaptive quadrature in the tests), which is far below every
tolerance consumed downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gh_rule",
    "psi",
    "psi_prime",
    "phi",
    "mutual_info_scalar",
]

#: Beyond this gamma, 1 - psi(gamma) is below float resolution; the closed
#: asymptotic tail 1 - sqrt(pi/(2 gamma)) exp(-gamma/2) is used instead of
#: quadrature to avoid catastrophic cancellation and keep psi monotone.
LARGE_GAMMA = 200.0

#: Below this gamma, psi is its series gamma - gamma^2 + (5/3) gamma^3 (next
#: term -(13/3) gamma^4): the quadrature's odd part cancels only to about
#: 1e-16 sqrt(gamma), which swamps psi ~ gamma below gamma ~ 1e-32.
SMALL_GAMMA = 1e-6

_LOG2 = math.log(2.0)


#: Nodes of the one Gauss-Hermite rule (see `gh_rule`).
GH_POINTS = 301

#: phi bisects its bracket [0, hi] this many times, to width hi / 2^60.
PHI_BISECTIONS = 60


@lru_cache(maxsize=1)
def gh_rule() -> tuple[np.ndarray, np.ndarray]:
    """The one rule every expectation over Z in the package uses, built on
    first use: (nodes, weights) of GH_POINTS-node Gauss-Hermite, the weights
    normalized against the N(0,1) density.  Both arrays are read-only."""
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(GH_POINTS)
    weights /= math.sqrt(2.0 * math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _flat_nonneg(gamma):
    """gamma as a flat array, checked finite and nonnegative, and its shape."""
    g = np.asarray(gamma, dtype=float)
    if not np.all((g >= 0) & (g < np.inf)):
        raise ValueError("gamma must be finite and nonnegative")
    return g.reshape(-1), g.shape


def psi(gamma):
    """E[tanh(gamma + sqrt(gamma) Z)], increasing and concave, in [0, 1).

    Quadrature, with a series below SMALL_GAMMA and the asymptotic tail
    above LARGE_GAMMA.  Accepts scalars or arrays.
    """
    g, shape = _flat_nonneg(gamma)
    out = np.empty_like(g)
    tiny = g < SMALL_GAMMA
    large = g > LARGE_GAMMA
    mid = ~tiny & ~large
    if np.any(tiny):
        gt = g[tiny]
        out[tiny] = gt * (1.0 - gt * (1.0 - (5.0 / 3.0) * gt))
    if np.any(mid):
        gs = g[mid]
        z, w = gh_rule()
        out[mid] = np.tanh(gs[:, None] + np.sqrt(gs)[:, None] * z) @ w
    if np.any(large):
        gl = g[large]
        out[large] = 1.0 - np.sqrt(np.pi / (2.0 * gl)) * np.exp(-gl / 2.0)
    return out.reshape(shape)[()]


def psi_prime(gamma):
    """Derivative of psi, by Gaussian integration by parts.

    With V = gamma + sqrt(gamma) Z and T = tanh(V), the Stein form of the
    integrand reduces to (1 - T^2)(1 + 2T - 3T^2); at gamma = 0 the analytic
    value 1 is returned exactly.
    """
    g, shape = _flat_nonneg(gamma)
    out = np.empty_like(g)
    zero = g == 0.0
    large = g > LARGE_GAMMA
    mid = ~zero & ~large
    out[zero] = 1.0
    if np.any(mid):
        gm = g[mid]
        z, w = gh_rule()
        t = np.tanh(gm[:, None] + np.sqrt(gm)[:, None] * z)
        out[mid] = ((1.0 - t**2) * (1.0 + 2.0 * t - 3.0 * t**2)) @ w
    if np.any(large):
        gl = g[large]
        # derivative of the asymptotic tail; numerically 0 at this range
        k = np.sqrt(np.pi / 2.0)
        out[large] = k * np.exp(-gl / 2.0) * (0.5 * gl**-0.5 + 0.5 * gl**-1.5)
    return out.reshape(shape)[()]


def phi(q):
    """Inverse of psi: the gamma >= 0 with psi(gamma) = q, for q in [0, 1).

    Bracket doubling, then PHI_BISECTIONS bisections of [0, hi].  Accepts
    scalars or arrays.
    """
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr >= 0) & (q_arr < 1)):
        raise ValueError("phi requires q in [0, 1)")
    qv = q_arr.reshape(-1)
    lo = np.zeros_like(qv)
    hi = np.ones_like(qv)
    # expand the bracket until psi(hi) >= q everywhere
    for _ in range(60):
        bad = psi(hi) < qv
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    else:
        raise RuntimeError("phi: failed to bracket the root")
    for _ in range(PHI_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = psi(mid) < qv
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    g = 0.5 * (lo + hi)
    g[qv == 0.0] = 0.0
    return g.reshape(q_arr.shape)[()]


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def mutual_info_scalar(gamma):
    """I(gamma) = gamma - E[log cosh(gamma + sqrt(gamma) Z)], in [0, log 2]."""
    g, shape = _flat_nonneg(gamma)
    z, w = gh_rule()
    out = g - _log_cosh(g[:, None] + np.sqrt(g)[:, None] * z) @ w
    return np.clip(out, 0.0, _LOG2).reshape(shape)[()]
