"""Message-passing mean estimation with the Onsager memory correction.

The iteration

    m^k = tanh(z^k),  qhat^k = mean_i tanh^2(z^k_i),
    b_k = beta^2 (1 - qhat^k) xi''(qhat^k),
    z^{k+1} = beta grad H(m^k) + y - b_k m^{k-1},

started from m^{-1} = z^0 = 0, is the first stage of the mean estimator.
States are labeled by the z they carry: state k holds z^k (k = 1..K), so a
single-iteration run exposes z^1 = y exactly.  Every degree is p >= 2, so
grad H(m^0) = grad H(0) = 0 and z^1 = y - b_0 m^{-1} is formed without a
gradient call: K iterations make K - 1 of them.  The b_0 m^{-1} term is
kept, so an overflowed b_0 still gives a non-finite z^1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensors, _rows, grad
from .mixture import onsager

__all__ = ["AmpState", "amp_run"]


@dataclass
class AmpState:
    """One iterate: m_hat = tanh(z) exactly, q_hat = mean of tanh^2(z_i)."""

    k: int
    m_hat: np.ndarray
    z: np.ndarray
    q_hat: float | np.ndarray


def amp_run(
    g: DisorderTensors,
    y: np.ndarray,
    beta: float,
    K: int,
    keep_history: bool = False,
) -> list[AmpState]:
    """Run K iterations from the zero initialization.

    `y` may be a single vector (n,) or a batch (M, n); batched runs use one
    q_hat and Onsager scalar per row.  By default only the final state is
    returned, bounding memory; keep_history=True retains all K states for
    the state-evolution diagnostics.  A non-finite beta or y raises on entry;
    a non-finite iterate raises, naming the iteration.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    Y, lead = _rows(y, g.n, "y")
    shape = lead + (g.n,)
    m_prev = np.zeros_like(Y)  # m^{-1}
    m = np.zeros_like(Y)  # m^0 = tanh(z^0) = 0
    b = onsager(g.spec, beta, np.mean(m**2, axis=-1))
    states: list[AmpState] = []
    for k in range(1, K + 1):
        # grad H(m^0) = grad H(0) = 0, since every degree is >= 2
        z = (beta * grad(g, m) + Y if k > 1 else Y) - b[:, None] * m_prev
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"AMP produced a non-finite iterate at k={k}")
        m_prev = m
        m = np.tanh(z)
        q_hat = np.mean(m**2, axis=-1)
        b = onsager(g.spec, beta, q_hat)
        state = AmpState(
            k=k,
            m_hat=m.reshape(shape),
            z=z.reshape(shape),
            q_hat=q_hat.reshape(lead)[()],
        )
        if keep_history:
            states.append(state)
        else:
            states = [state]
    return states
