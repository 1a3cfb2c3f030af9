"""Message-passing mean estimation with the Onsager memory correction.

The iteration

    m^k = tanh(z^k),  qhat^k = mean_i tanh^2(z^k_i),
    b_k = beta^2 (1 - qhat^k) xi''(qhat^k),
    z^{k+1} = beta grad H(m^k) + y - b_k m^{k-1},

started from m^{-1} = z^0 = 0, is the first stage of the mean estimator.
States are labeled by the z they carry: state k holds z^k (k = 1..K), so a
single-iteration run exposes z^1 = y exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensors, _rows, grad
from .mixture import onsager

__all__ = ["AmpState", "amp_run", "onsager", "amp_lipschitz_probe"]

logger = logging.getLogger(__name__)

#: |z| is clamped here so the natural-parameter handoff stays invertible.
Z_CLAMP = 40.0


@dataclass
class AmpState:
    """One iterate: m_hat = tanh(z) exactly, q_hat = mean of tanh^2(z_i)."""

    k: int
    m_hat: np.ndarray
    z: np.ndarray
    q_hat: float | np.ndarray
    onsager_b: float | np.ndarray


def amp_run(
    g: DisorderTensors,
    y: np.ndarray,
    beta: float,
    K: int,
    keep_history: bool = False,
) -> list[AmpState]:
    """Run K iterations from the zero initialization.

    `y` may be a single vector (n,) or a batch (M, n); batched runs keep one
    q_hat and Onsager scalar per row.  By default only the final state is
    returned, bounding memory; keep_history=True retains all K states for
    the state-evolution diagnostics.  A non-finite beta or y raises on entry;
    a non-finite iterate raises, naming the iteration.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    Y, lead = _rows(y, g.n)
    if not np.all(np.isfinite(Y)):
        raise ValueError("y must be finite")
    shape = lead + (g.n,)
    m_prev = np.zeros_like(Y)  # m^{-1}
    m = np.zeros_like(Y)  # m^0 = tanh(z^0) = 0
    b = onsager(g.spec, beta, np.mean(m**2, axis=-1))
    states: list[AmpState] = []
    for k in range(1, K + 1):
        z = beta * grad(g, m) + Y - b[:, None] * m_prev
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"AMP produced a non-finite iterate at k={k}")
        n_clamped = int(np.sum(np.abs(z) > Z_CLAMP))
        if n_clamped:
            logger.warning("AMP k=%d: clamped %d component(s) at |z|=%g", k, n_clamped, Z_CLAMP)
            z = np.clip(z, -Z_CLAMP, Z_CLAMP)
        m_prev = m
        m = np.tanh(z)
        q_hat = np.mean(m**2, axis=-1)
        b = onsager(g.spec, beta, q_hat)
        state = AmpState(
            k=k,
            m_hat=m.reshape(shape),
            z=z.reshape(shape),
            q_hat=q_hat.reshape(lead)[()],
            onsager_b=b.reshape(lead)[()],
        )
        if keep_history:
            states.append(state)
        else:
            states = [state]
    return states


def amp_lipschitz_probe(
    g: DisorderTensors,
    y: np.ndarray,
    y_perturbed: np.ndarray,
    beta: float,
    K: int,
) -> np.ndarray:
    """Per-iteration ratios ||z_k(y) - z_k(y')|| / ||y - y'||.

    z_k is the natural parameter atanh(m_k) as produced by the iteration
    (no atanh round trip).  A zero perturbation yields all-zero ratios.
    """
    y = np.asarray(y, dtype=float)
    y_perturbed = np.asarray(y_perturbed, dtype=float)
    denom = np.linalg.norm(y - y_perturbed)
    traj_a = amp_run(g, y, beta, K, keep_history=True)
    traj_b = amp_run(g, y_perturbed, beta, K, keep_history=True)
    if denom == 0.0:
        return np.zeros(K)
    return np.array(
        [np.linalg.norm(sa.z - sb.z) / denom for sa, sb in zip(traj_a, traj_b)]
    )
