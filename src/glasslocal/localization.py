"""End-to-end sampler: Euler-discretized localization SDE driven by the
two-stage mean estimator, followed by randomized rounding.

One step of the discretized observation process is

    yhat_{l+1} = yhat_l + mhat(G, yhat_l) delta + sqrt(delta) w_{l+1},

where mhat is the message-passing + natural-gradient mean estimate run with
the precomputed fixed point q_*(beta, l delta).  After L steps the final mean
is rounded coordinatewise to a spin vector.

Brownian increments and rounding uniforms come from per-replica labeled
streams, so replicas are reproducible independently of batching, and runs on
coupled disorder instances share their driving noise exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
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
    "simulate_planted_path",
]


@dataclass
class SamplerParams:
    """All knobs of one sampler run; T = L * delta."""

    beta: float
    delta: float = 0.05
    L: int = 400
    k_amp: int = 30
    k_ngd: int = 100
    eta: float = 0.1
    gamma: float = 1.0
    seed: int = 0
    keep_trajectory: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.L < 1 or self.k_amp < 1 or self.k_ngd < 1:
            raise ValueError("iteration counts must be >= 1")

    @property
    def T(self) -> float:
        return self.L * self.delta


@dataclass
class SampleRun:
    """Output of one sampler invocation over R replicas, batch-shaped for any R."""

    mean_final: np.ndarray  # (R, n)
    x_alg: np.ndarray  # (R, n)
    final_q: np.ndarray  # (R,)
    grad_norm_last: np.ndarray  # (R,)
    q_used: np.ndarray  # (L+1,)
    y_trajectory: np.ndarray | None = None  # (L+1, R, n), with keep_trajectory
    step_grad_norms: np.ndarray | None = None  # (L+1, R), default estimator only


def _estimate(
    g: DisorderTensors,
    y: np.ndarray,
    beta: float,
    q: float,
    k_amp: int,
    k_ngd: int,
    eta: float,
    gamma: float,
) -> TapIterate:
    """Two-stage mean of the tilted measure: message passing, then NGD.

    AMP starts from zero and the natural-parameter handoff is u^0 = z^{k_amp}
    directly.  Returns the final NGD iterate, whose `m` is the estimate and
    whose `grad_norm` is ||grad F(m)||.
    """
    final = amp_run(g, y, beta, k_amp, keep_history=False)[-1]
    params = TapParams(beta=beta, q=q, gamma_reg=gamma, y=np.asarray(y, dtype=float))
    return ngd_run(g, final.z, params, eta, k_ngd, keep_history=False)[-1]


def mean_estimate(
    g: DisorderTensors,
    y: np.ndarray,
    beta: float,
    q: float,
    k_amp: int = 30,
    k_ngd: int = 100,
    eta: float = 0.1,
    gamma: float = 1.0,
):
    """Final magnetization tanh(u^{k_ngd}) of the two-stage estimator;
    accepts y as a vector or a batch."""
    return _estimate(g, y, beta, q, k_amp, k_ngd, eta, gamma).m


def round_spins(m: np.ndarray, generator: np.random.Generator) -> np.ndarray:
    """Coordinatewise randomized rounding: P(x_i = +1) = (1 + m_i)/2.

    An ulp of overshoot beyond +-1 (means assembled from normalized weights
    can round to 1 + 2e-16) is clipped; anything larger is rejected.
    """
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m) > 1.0 + 1e-9):
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
    chunks.  (Changing the batch partition can still move float results by an
    ulp through BLAS reduction order; callers that need byte-stable files
    must pin the partition, as the CLI does.)
    `mean_fn(g, Y, q) -> means`, rows in and rows out, replaces the default
    estimator when given (used by the exact-mean mode at tiny n); `q_values`
    overrides the precomputed schedule.
    """
    n = g.n
    if q_values is None:
        sched = q_schedule(g.spec, params.beta, params.delta, params.L)
        if not np.all(sched.converged):
            raise RuntimeError("q schedule did not converge at every step")
        q_values = sched.values
    if len(q_values) < params.L + 1:
        raise ValueError("q_values must cover ell = 0..L")
    default_estimator = mean_fn is None
    step_gnorms = np.zeros((params.L + 1, n_replicas)) if default_estimator else None

    def estimate(Y, ell):
        q = float(q_values[ell])
        if not default_estimator:
            return mean_fn(g, Y, q)
        it = _estimate(g, Y, params.beta, q, params.k_amp, params.k_ngd, params.eta, params.gamma)
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


def simulate_planted_path(
    x: np.ndarray, times: np.ndarray, seed: int, replica: int = 0
) -> np.ndarray:
    """Observation path y(t) = t x + B(t) on an increasing time grid.

    Increments are N(0, dt I) draws from the (seed, "path", replica) stream;
    coupled runs sharing (seed, replica) reuse them exactly.  A grid point
    t = 0 yields y = 0.
    """
    x = np.asarray(x, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and nonnegative")
    g = rng.stream(seed, "path", replica)
    n = x.size
    ys = np.zeros((times.size, n))
    t_prev = 0.0
    b = np.zeros(n)
    for i, t in enumerate(times):
        dt = t - t_prev
        if dt > 0:
            b = b + math.sqrt(dt) * g.standard_normal(n)
        ys[i] = t * x + b
        t_prev = t
    return ys
