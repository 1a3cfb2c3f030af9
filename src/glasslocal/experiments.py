"""Disorder-chaos and algorithmic-stability experiment harnesses.

Both interpolate between independent disorder draws, G_s = sqrt(1-s^2) G_0
+ s G_1.  The chaos experiment compares exact Gibbs measures (small n, no
MCMC bias); the stability experiment reruns the sampler on G_0 and G_s with
the same driving noise omega (Brownian increments and rounding uniforms are
keyed by the master seed only, so the coupling is automatic).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .baselines import _check_batch_size, empirical_w2, exact_gibbs, exact_sample, overlap_moment
from .disorder import gen_random, interpolate
from .localization import SamplerParams, sample
from .mixture import MixtureSpec
from .state_evolution import q_schedule

__all__ = ["chaos_experiment", "stability_experiment"]


def chaos_experiment(
    spec: MixtureSpec,
    n: int,
    beta: float,
    s_list,
    seeds,
    batch_size: int,
) -> list[dict]:
    """Cross-overlap and W2 statistics between mu_{G_0} and mu_{G_s}.

    Exact sampling throughout.  Returns one row per (s, seed) with the
    squared-overlap moment and the empirical W2 between the two batches.
    A batch larger than `empirical_w2` takes is rejected before any
    enumeration.
    """
    _check_batch_size(batch_size)
    rows = []
    for seed in seeds:
        g0 = gen_random(spec, n, int(seed))
        g1 = gen_random(spec, n, int(seed) + 1_000_003)
        dist0 = exact_gibbs(g0, beta)
        batch0 = exact_sample(dist0, batch_size, seed=int(seed) * 2 + 1)
        for s in s_list:
            gs = interpolate(g0, g1, float(s))
            dists = exact_gibbs(gs, beta)
            batchs = exact_sample(dists, batch_size, seed=int(seed) * 2 + 2)
            rows.append(
                {
                    "s": float(s),
                    "seed": int(seed),
                    "overlap_moment": overlap_moment(batch0, batchs),
                    "w2": empirical_w2(batch0, batchs),
                }
            )
    return rows


def stability_experiment(
    spec: MixtureSpec,
    n: int,
    beta: float,
    s_list,
    params: SamplerParams,
    seeds,
    n_replicas: int,
) -> list[dict]:
    """Output sensitivity of the sampler under coupled disorder perturbations.

    For each s the sampler runs on G_0 and G_s with identical omega and one
    shared q schedule; rows report the mean squared spin distance
    (1/n) E||x0 - xs||^2 and its mean-vector analogue.
    """
    q_values = q_schedule(spec, beta, params.delta, params.L)
    rows = []
    for seed in seeds:
        g0 = gen_random(spec, n, int(seed))
        g1 = gen_random(spec, n, int(seed) + 1_000_003)
        base = replace(params, beta=beta, seed=int(seed))
        run0 = sample(g0, base, n_replicas=n_replicas, q_values=q_values)
        for s in s_list:
            gs = interpolate(g0, g1, float(s))
            run_s = sample(gs, base, n_replicas=n_replicas, q_values=q_values)
            dx = run0.x_alg - run_s.x_alg
            dm = run0.mean_final - run_s.mean_final
            rows.append(
                {
                    "s": float(s),
                    "seed": int(seed),
                    "spin_distance": float(np.mean(np.sum(dx**2, axis=-1)) / n),
                    "mean_distance": float(np.mean(np.sum(dm**2, axis=-1)) / n),
                }
            )
    return rows
