"""Built-in invariant suite behind the `validate` subcommand.

Fast self-contained checks of the analytic identities and contracts the rest
of the package depends on; one PASS/FAIL line per check.  The full test
suite is broader; this battery is for installed-environment sanity.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .amp import amp_run
from .baselines import SampleBatch, empirical_w2, exact_gibbs
from .disorder import all_spins, gen_random, grad, hamiltonian, hamiltonian_table, hessian
from .localization import SamplerParams, sample
from .mixture import MixtureSpec, binary_entropy, ons, ons_prime
from .scalar import DEFAULT_RULE, mutual_info_scalar, phi, psi, psi_prime
from .tap import TapParams, bregman, ftap_grad, ftap_hessian, ftap_value, ngd_run

__all__ = ["run_validation", "CHECKS"]


def _check_quadrature():
    w, z = DEFAULT_RULE.weights, DEFAULT_RULE.nodes
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(w @ z) <= 1e-12
    assert abs(w @ z**2 - 1.0) <= 1e-10


def _check_psi_shape():
    gs = np.linspace(0.0, 30.0, 200)
    vals = psi(gs)
    d1 = np.diff(vals)
    assert np.all(d1 > 0), "psi must be strictly increasing"
    assert np.all(np.diff(d1) < 1e-8), "psi must be concave"
    assert psi(0.0) == 0.0 and psi_prime(0.0) == 1.0


def _check_phi_inverse():
    for q in (0.1, 0.5, 0.9):
        assert abs(psi(phi(q)) - q) <= 1e-10


def _check_immse():
    for g in (0.1, 0.7, 2.0, 8.0):
        eps = 1e-5
        d = (mutual_info_scalar(g + eps) - mutual_info_scalar(g - eps)) / (2 * eps)
        assert abs(d - 0.5 * (1.0 - psi(g))) <= 1e-5


def _check_xi_derivatives():
    spec = MixtureSpec(((2, 0.5), (3, 0.7), (4, 0.2)))
    ts = np.linspace(0.0, 0.99, 34)
    for order in (1, 2, 3, 4):
        eps = 1e-6
        fd = (spec.xi(np.minimum(ts + eps, 1.0), order - 1) - spec.xi(ts - eps, order - 1)) / (
            np.minimum(ts + eps, 1.0) - (ts - eps)
        )
        ex = spec.xi(ts, order)
        scale = np.maximum(np.abs(ex), 1.0)
        assert np.max(np.abs(fd - ex) / scale) <= 1e-7


def _check_entropy():
    ms = np.linspace(-0.999, 0.999, 301)
    h = binary_entropy(ms)
    assert np.allclose(h, binary_entropy(-ms))
    assert np.all(np.diff(h, 2) <= 0)
    assert binary_entropy(1.0) == 0.0 and binary_entropy(-1.0) == 0.0


def _check_calculus():
    spec = MixtureSpec(((2, 0.5), (3, 0.7)))
    g = gen_random(spec, 6, seed=11)
    m = rng.stream(5, "validate-m").uniform(-0.8, 0.8, 6)
    eps = 1e-6
    fd = np.array(
        [
            (hamiltonian(g, m + eps * e) - hamiltonian(g, m - eps * e)) / (2 * eps)
            for e in np.eye(6)
        ]
    )
    assert np.max(np.abs(fd - grad(g, m))) <= 1e-5 * max(1.0, np.abs(grad(g, m)).max())
    fdh = np.array(
        [(grad(g, m + eps * e) - grad(g, m - eps * e)) / (2 * eps) for e in np.eye(6)]
    )
    assert np.max(np.abs(fdh - hessian(g, m))) <= 1e-5 * max(1.0, np.abs(hessian(g, m)).max())
    params = TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=np.zeros(6))
    fdt = np.array(
        [
            (ftap_value(g, m + eps * e, params) - ftap_value(g, m - eps * e, params)) / (2 * eps)
            for e in np.eye(6)
        ]
    )
    tg = ftap_grad(g, m, params)
    assert np.max(np.abs(fdt - tg)) <= 1e-5 * max(1.0, np.abs(tg).max())
    fdth = np.array(
        [
            (ftap_grad(g, m + eps * e, params) - ftap_grad(g, m - eps * e, params)) / (2 * eps)
            for e in np.eye(6)
        ]
    )
    th = ftap_hessian(g, m, params)
    assert np.max(np.abs(fdth - th)) <= 1e-4 * max(1.0, np.abs(th).max())
    e2 = 1e-7
    assert abs((ons(spec, 0.4, 0.3 + e2) - ons(spec, 0.4, 0.3 - e2)) / (2 * e2) - ons_prime(spec, 0.4, 0.3)) <= 1e-8


def _check_amp_contract():
    g = gen_random(MixtureSpec.sk(), 24, seed=3)
    y = rng.stream(4, "validate-y").standard_normal(24)
    st = amp_run(g, y, 0.5, K=1)[-1]
    assert np.array_equal(st.z, y)
    st0 = amp_run(g, np.zeros(24), 0.5, K=4, keep_history=True)[-1]
    assert np.all(st0.m_hat == 0.0)


def _check_ngd_monotone():
    g = gen_random(MixtureSpec.sk(), 16, seed=9)
    y = rng.stream(6, "validate-y2").standard_normal(16)
    params = TapParams(beta=0.3, q=0.1, gamma_reg=1.0, y=y)
    traj = ngd_run(g, np.zeros(16), params, eta=0.2, K=40)
    vals = [s.ftap for s in traj]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def _check_bregman():
    gen = rng.stream(7, "validate-breg")
    for _ in range(50):
        m = gen.uniform(-0.95, 0.95, 8)
        nv = gen.uniform(-0.95, 0.95, 8)
        d = bregman(m, nv)
        assert d >= 0.5 * np.sum((m - nv) ** 2) - 1e-12
        assert d <= np.sum((np.arctanh(m) - np.arctanh(nv)) ** 2) + 1e-12
    assert bregman(m, m) == 0.0


def _check_w2_metric():
    gen = rng.stream(8, "validate-w2")
    spins = lambda: np.where(gen.uniform(size=(12, 10)) < 0.5, -1.0, 1.0)
    a, b, c = (SampleBatch(spins=spins()) for _ in range(3))
    assert empirical_w2(a, a) == 0.0
    assert abs(empirical_w2(a, b) - empirical_w2(b, a)) <= 1e-12
    assert empirical_w2(a, c) <= empirical_w2(a, b) + empirical_w2(b, c) + 1e-9


def _check_exact_gibbs_uniform():
    g = gen_random(MixtureSpec.sk(), 6, seed=2)
    dist = exact_gibbs(g, beta=0.0)
    assert np.max(np.abs(dist.mean)) <= 1e-12
    assert np.max(np.abs(dist.cov - np.eye(6))) <= 1e-12
    y = rng.stream(3, "validate-tilt").standard_normal(6)
    dist_t = exact_gibbs(g, beta=0.0, y=y)
    assert np.max(np.abs(dist_t.mean - np.tanh(y))) <= 1e-12


def _check_glauber_balance():
    # pairwise detailed balance of the heat-bath conditional at n = 3
    g = gen_random(MixtureSpec.sk(), 3, seed=13)
    beta = 0.7
    X = all_spins(3)
    H = hamiltonian_table(g)
    logw = beta * H
    for b in range(8):
        for i in range(3):
            xb = X[b].copy()
            xb[i] *= -1
            b2 = int(sum(int(v > 0) << k for k, v in enumerate(xb)))
            flips = np.stack([X[b], X[b]])
            flips[:, i] = (1.0, -1.0)
            hp, hm = hamiltonian(g, flips)
            delta = hp - hm
            p_new = 1.0 / (1.0 + math.exp(-beta * delta * xb[i]))
            p_old = 1.0 / (1.0 + math.exp(-beta * delta * X[b][i]))
            lhs = logw[b] + math.log(p_new)
            rhs = logw[b2] + math.log(p_old)
            assert abs(lhs - rhs) <= 1e-12


def _check_sampler_determinism():
    g = gen_random(MixtureSpec.sk(), 8, seed=5)
    p = SamplerParams(beta=0.2, delta=0.25, L=4, k_amp=5, k_ngd=10, seed=42)
    r1 = sample(g, p, n_replicas=2)
    r2 = sample(g, p, n_replicas=2)
    assert np.array_equal(r1.x_alg, r2.x_alg)
    assert np.array_equal(r1.mean_final, r2.mean_final)
    # replica 1 alone reproduces its value from the batch
    r3 = sample(g, p, n_replicas=1, replica_start=1)
    assert np.array_equal(r1.x_alg[1], r3.x_alg[0])


CHECKS = [
    ("quadrature-moments", _check_quadrature),
    ("psi-monotone-concave", _check_psi_shape),
    ("phi-inverse-identity", _check_phi_inverse),
    ("scalar-i-mmse", _check_immse),
    ("xi-derivative-chain", _check_xi_derivatives),
    ("entropy-even-concave", _check_entropy),
    ("calculus-consistency", _check_calculus),
    ("amp-first-step", _check_amp_contract),
    ("ngd-monotone", _check_ngd_monotone),
    ("bregman-bounds", _check_bregman),
    ("w2-metric", _check_w2_metric),
    ("exact-gibbs-product", _check_exact_gibbs_uniform),
    ("glauber-detailed-balance", _check_glauber_balance),
    ("sampler-determinism", _check_sampler_determinism),
]


def run_validation(verbose: bool = True) -> list[str]:
    """Run every check; returns the names of the failures."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report, don't crash the suite
            failures.append(name)
            if verbose:
                print(f"FAIL {name}: {e}")
        else:
            if verbose:
                print(f"PASS {name}")
    return failures
