"""End-to-end sampler: Euler-discretized localization SDE driven by the
two-stage mean estimator, followed by randomized rounding.

One step of the discretized observation process is

    yhat_{l+1} = yhat_l + mhat(G, yhat_l) delta + sqrt(delta) w_{l+1},

where mhat is the message-passing + natural-gradient mean estimate run with
the precomputed fixed point q_*(beta, l delta).  After L steps the final mean
is rounded coordinatewise to a spin vector.  Every degree is p >= 2, so
grad H(0) = 0 and mhat(G, 0) = 0 exactly: the step from yhat_0 = 0 runs no
estimator.  (The exact mean of an odd-p mixture at y = 0 need not vanish, so
a `mean_fn` given to `sample` still runs there.)

Brownian increments and rounding uniforms come from per-replica labeled
streams, so replicas are reproducible independently of batching, and runs on
coupled disorder instances share their driving noise exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import CONFIG_SCHEMA
from .disorder import DisorderTensors
from .amp import amp_run
from .state_evolution import q_schedule
from .tap import TapIterate, TapParams, ngd_run

__all__ = [
    "SamplerParams",
    "SampleRun",
    "mean_estimate",
    "sample",
    "round_spins",
]

#: NGD stops a row once ||grad F|| / sqrt(n) falls to this.
NGD_TOL = 1e-8

_SAMPLER = CONFIG_SCHEMA["properties"]["sampler"]["properties"]


def _default(key: str):
    """The config schema's default for `sampler.<key>`, its one home."""
    return _SAMPLER[key]["default"]


@dataclass
class SamplerParams:
    """All knobs of one sampler run."""

    beta: float
    delta: float = _default("delta")
    L: int = _default("L")
    k_amp: int = _default("k_amp")
    k_ngd: int = _default("k_ngd")
    eta: float = _default("eta")
    gamma: float = _default("gamma")
    seed: int = 0
    keep_trajectory: bool = _default("keep_trajectory")

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.L < 1 or self.k_amp < 1 or self.k_ngd < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class SampleRun:
    """Output of one sampler invocation over R replicas, batch-shaped for any R."""

    mean_final: np.ndarray  # (R, n)
    x_alg: np.ndarray  # (R, n)
    final_q: np.ndarray  # (R,)
    grad_norm_last: np.ndarray  # (R,)
    q_used: np.ndarray  # (L+1,)
    y_trajectory: np.ndarray | None = None  # (L+1, R, n), with keep_trajectory
    # (L+1, R), default estimator only; row 0 is 0, the zero-tilt step is not run
    step_grad_norms: np.ndarray | None = None


def _estimate(g: DisorderTensors, y: np.ndarray, q: float, params: SamplerParams) -> TapIterate:
    """Two-stage mean of the tilted measure: message passing, then NGD, with
    the run's `beta`, `k_amp`, `k_ngd`, `eta` and `gamma`.

    AMP starts from zero and the natural-parameter handoff is u^0 = z^{k_amp}
    directly.  NGD runs at most k_ngd steps per row with Barzilai-Borwein
    steps (eta is each row's first step) and stops a row at `NGD_TOL`.
    Returns the final NGD iterate, whose `m` is the estimate and whose
    `grad_norm` is ||grad F(m)||.
    """
    final = amp_run(g, y, params.beta, params.k_amp, keep_history=False)[-1]
    tap = TapParams(beta=params.beta, q=q, gamma_reg=params.gamma, y=y)
    return ngd_run(
        g, final.z, tap, params.eta, params.k_ngd, keep_history=False, tol=NGD_TOL, bb=True
    )[-1]


def mean_estimate(
    g: DisorderTensors,
    y: np.ndarray,
    beta: float,
    q: float,
    k_amp: int = SamplerParams.k_amp,
    k_ngd: int = SamplerParams.k_ngd,
    eta: float = SamplerParams.eta,
    gamma: float = SamplerParams.gamma,
):
    """Final magnetization of the two-stage estimator, after at most k_ngd
    NGD steps; accepts y as a vector or a batch."""
    params = SamplerParams(beta=beta, k_amp=k_amp, k_ngd=k_ngd, eta=eta, gamma=gamma)
    return _estimate(g, y, q, params).m


def round_spins(m: np.ndarray, generator: np.random.Generator) -> np.ndarray:
    """Coordinatewise randomized rounding: P(x_i = +1) = (1 + m_i)/2.

    An ulp of overshoot beyond +-1 (means assembled from normalized weights
    can round to 1 + 2e-16) is clipped; anything larger, and NaN, is rejected.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.abs(m) <= 1.0 + 1e-9):
        raise ValueError("rounding requires m in [-1, 1]")
    m = np.clip(m, -1.0, 1.0)
    u = generator.uniform(size=m.shape)
    return np.where(u < (1.0 + m) / 2.0, 1.0, -1.0)


def sample(
    g: DisorderTensors,
    params: SamplerParams,
    n_replicas: int = 1,
    mean_fn=None,
    q_values: np.ndarray | None = None,
    replica_start: int = 0,
) -> SampleRun:
    """Run the full localization sampler on `n_replicas` replicas.

    The result has one row per replica.  Replicas evolve as a batch but each
    draws its Brownian increments from its own (seed, "brownian", replica)
    stream and rounds with its own (seed, "round", replica) stream, so
    per-replica randomness is independent of the batch it runs in;
    `replica_start` offsets the stream labels so a run can be split into
    chunks.  The kernel evaluates rows in blocks of a power-of-two count
    (`disorder._block_rows`: 8 at n = 40 with a degree-4 term), so splitting
    a batch at multiples of the block keeps every row's bits.  Any other
    partition can move float results by an ulp through BLAS reduction
    order; callers that need byte-stable files must pin the partition, as
    the CLI does.
    `mean_fn(g, Y, q) -> means`, rows in and rows out, replaces the default
    estimator when given (used by the exact-mean mode at tiny n); `q_values`
    overrides the precomputed schedule.
    """
    n = g.n
    if q_values is None:
        q_values = q_schedule(g.spec, params.beta, params.delta, params.L)
    if len(q_values) < params.L + 1:
        raise ValueError("q_values must cover ell = 0..L")
    default_estimator = mean_fn is None
    step_gnorms = np.zeros((params.L + 1, n_replicas)) if default_estimator else None

    def estimate(Y, ell):
        q = float(q_values[ell])
        if not default_estimator:
            return mean_fn(g, Y, q)
        if ell == 0:
            # Y = 0 and grad H(0) = 0 for p >= 2, so AMP stays at m = 0 and NGD
            # starts at a stationary point of F: the estimate is exactly 0
            return np.zeros_like(Y)
        it = _estimate(g, Y, q, params)
        step_gnorms[ell] = it.grad_norm
        return it.m

    replicas = range(replica_start, replica_start + n_replicas)
    streams = [rng.stream(params.seed, "brownian", r) for r in replicas]
    round_streams = [rng.stream(params.seed, "round", r) for r in replicas]

    Y = np.zeros((n_replicas, n))
    traj = np.zeros((params.L + 1, n_replicas, n)) if params.keep_trajectory else None
    sqrt_delta = math.sqrt(params.delta)
    for ell in range(params.L):
        means = estimate(Y, ell)
        W = np.stack([s.standard_normal(n) for s in streams])
        Y = Y + means * params.delta + sqrt_delta * W
        if traj is not None:
            traj[ell + 1] = Y

    mean_final = estimate(Y, params.L)
    x_alg = np.stack([round_spins(m, s) for m, s in zip(mean_final, round_streams)])
    final_q = np.sum(mean_final**2, axis=-1) / n
    # the last NGD iterate already carries ||grad F(mean_final)|| at (Y, q_L)
    grad_norm = step_gnorms[params.L] / math.sqrt(n) if default_estimator else np.zeros(n_replicas)
    return SampleRun(
        mean_final=mean_final,
        x_alg=x_alg,
        y_trajectory=traj,
        final_q=final_q,
        grad_norm_last=grad_norm,
        q_used=np.asarray(q_values[: params.L + 1]),
        step_grad_norms=step_gnorms,
    )
