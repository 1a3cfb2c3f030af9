import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from glasslocal import (
    MixtureSpec,
    amp_run,
    bregman,
    ftap_grad,
    ftap_hessian,
    ftap_value,
    gen_random,
    ngd_run,
    ons,
    ons_prime,
    relative_hessian_extremes,
)
from glasslocal import tap
from glasslocal.tap import TapParams
from glasslocal import rng

from conftest import planted_instance


class TestOnsagerTerm:
    def test_saturated_vanishes(self, sk):
        assert ons(sk, 0.7, 1.0) == 0.0

    def test_sk_at_zero(self, sk):
        # per-site beta^2 xi(1) / 2 = beta^2 / 4
        assert ons(sk, 0.8, 0.0) == pytest.approx(0.8**2 / 4)

    def test_prime_matches_fd(self, mixed):
        eps = 1e-7
        for Q in (0.0, 0.3, 0.9):
            fd = (ons(mixed, 0.6, Q + eps) - ons(mixed, 0.6, Q - eps)) / (2 * eps)
            assert ons_prime(mixed, 0.6, Q) == pytest.approx(fd, abs=1e-8)


class TestValue:
    def test_symmetric_point(self, sk):
        # m = 0, y = 0, q = 0: -n log 2 - beta^2 n xi(1) / 2
        n, beta = 12, 0.7
        g = gen_random(sk, n, seed=1)
        params = TapParams(beta=beta, q=0.0, gamma_reg=1.0, y=np.zeros(n))
        want = -n * np.log(2.0) - beta**2 * n * sk.xi(1.0) / 2
        assert ftap_value(g, np.zeros(n), params) == pytest.approx(want, rel=1e-12)

    def test_reduces_to_unmodified_at_matching_q(self, mixed, gen):
        # Gamma = 0 and q = Q(m) kill every correction term
        from glasslocal import binary_entropy_sum, hamiltonian

        n, beta = 9, 0.5
        g = gen_random(mixed, n, seed=2)
        m = gen.uniform(-0.8, 0.8, n)
        y = gen.standard_normal(n)
        q = float(m @ m) / n
        params = TapParams(beta=beta, q=q, gamma_reg=0.0, y=y)
        plain = (
            -beta * hamiltonian(g, m)
            - y @ m
            - binary_entropy_sum(m)
            - n * ons(mixed, beta, q)
        )
        assert ftap_value(g, m, params) == pytest.approx(plain, rel=1e-12)

    def test_naive_reimplementation(self, mixed, gen):
        # term-by-term scalar oracle at n = 6
        n, beta, gam, q = 6, 0.45, 1.3, 0.2
        g = gen_random(mixed, n, seed=3)
        m = gen.uniform(-0.7, 0.7, n)
        y = gen.standard_normal(n)
        params = TapParams(beta=beta, q=q, gamma_reg=gam, y=y)
        h = lambda v: -(1 + v) / 2 * np.log((1 + v) / 2) - (1 - v) / 2 * np.log((1 - v) / 2)
        Q = sum(v * v for v in m) / n
        onsv = beta**2 / 2 * (mixed.xi(1.0) - mixed.xi(Q) - 0 * Q)
        onsq = beta**2 / 2 * (mixed.xi(1.0) - mixed.xi(q) - (1 - q) * mixed.xi(q, order=1))
        onspq = -(beta**2) / 2 * (1 - q) * mixed.xi(q, order=2)
        from glasslocal import hamiltonian

        want = (
            -beta * hamiltonian(g, m)
            - sum(y[i] * m[i] for i in range(n))
            - sum(h(v) for v in m)
            - n * (onsq + onspq * (Q - q))
            + n * gam * beta / 8 * (Q - q) ** 2
        )
        assert ftap_value(g, m, params) == pytest.approx(want, abs=1e-12)

    def test_boundary_rejected(self, sk):
        g = gen_random(sk, 4, seed=4)
        params = TapParams(beta=0.5, q=0.1, gamma_reg=1.0, y=np.zeros(4))
        with pytest.raises(ValueError):
            ftap_value(g, np.array([1.0, 0.0, 0.0, 0.0]), params)

    @pytest.mark.parametrize(
        "bad,match", [(1.0, "strictly inside"), (-1.0, "strictly inside"), (np.nan, "finite")]
    )
    @pytest.mark.parametrize("fn", [ftap_value, ftap_grad, ftap_hessian])
    def test_public_entries_check_m(self, mixed, fn, bad, match):
        g = gen_random(mixed, 4, seed=4)
        params = TapParams(beta=0.5, q=0.1, gamma_reg=1.0, y=np.zeros(4))
        m = np.array([0.2, bad, 0.0, -0.3])
        with pytest.raises(ValueError, match=match):
            fn(g, m, params)


class TestCalculus:
    def test_grad_fd(self, mixed, gen):
        n = 8
        g = gen_random(mixed, n, seed=5)
        m = gen.uniform(-0.85, 0.85, n)
        params = TapParams(beta=0.5, q=0.3, gamma_reg=1.2, y=gen.standard_normal(n))
        eps = 1e-6
        fd = np.array(
            [
                (ftap_value(g, m + eps * e, params) - ftap_value(g, m - eps * e, params))
                / (2 * eps)
                for e in np.eye(n)
            ]
        )
        np.testing.assert_allclose(ftap_grad(g, m, params), fd, rtol=1e-6, atol=1e-6)

    def test_stationary_symmetric_point(self, sk):
        g = gen_random(sk, 6, seed=6)
        params = TapParams(beta=0.0, q=0.0, gamma_reg=1.0, y=np.zeros(6))
        np.testing.assert_allclose(ftap_grad(g, np.zeros(6), params), np.zeros(6), atol=1e-15)

    def test_hessian_fd(self, mixed, gen):
        n = 8
        g = gen_random(mixed, n, seed=7)
        m = gen.uniform(-0.85, 0.85, n)
        params = TapParams(beta=0.5, q=0.3, gamma_reg=1.2, y=gen.standard_normal(n))
        H = ftap_hessian(g, m, params)
        np.testing.assert_array_equal(H, H.T)
        eps = 1e-6
        fd = np.array(
            [
                (ftap_grad(g, m + eps * e, params) - ftap_grad(g, m - eps * e, params))
                / (2 * eps)
                for e in np.eye(n)
            ]
        )
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-4)

    def test_beta_zero_hessian_identity(self, sk):
        g = gen_random(sk, 5, seed=8)
        params = TapParams(beta=0.0, q=0.0, gamma_reg=1.0, y=np.zeros(5))
        np.testing.assert_allclose(
            ftap_hessian(g, np.zeros(5), params), np.eye(5), atol=1e-15
        )

    def test_amp_handoff_near_stationary(self, sk):
        # the message-passing output is an approximate stationary point
        from glasslocal import se_recursion

        beta, t, n = 0.5, 1.0, 2000
        g, x, y = planted_instance(sk, n, beta, t, seed=0)
        m = amp_run(g, y, beta, K=30, keep_history=False)[-1].m_hat
        m = np.clip(m, -1 + 1e-12, 1 - 1e-12)
        qstar = se_recursion(sk, beta, t, K=1).q_star
        params = TapParams(beta=beta, q=qstar, gamma_reg=1.0, y=y)
        gn = np.linalg.norm(ftap_grad(g, m, params))
        assert gn / np.sqrt(t * n) <= 0.1


class TestRelativeHessian:
    def test_beta_zero_is_identity_metric(self, sk, gen):
        g = gen_random(sk, 10, seed=9)
        m = gen.uniform(-0.5, 0.5, 10)
        q = float(m @ m) / 10
        params = TapParams(beta=0.0, q=q, gamma_reg=0.0, y=np.zeros(10))
        lo, hi = relative_hessian_extremes(g, m, params)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_sk_lower_bound_probabilistic(self, sk):
        # min eigenvalue >= 1 - 2.2 beta in at least 95% of seeds
        n, beta = 300, 0.3
        hits = 0
        for seed in range(50):
            g = gen_random(sk, n, seed)
            m = rng.stream(seed, "m").uniform(-0.9, 0.9, n)
            params = TapParams(
                beta=beta, q=float(m @ m) / n, gamma_reg=1.0, y=np.zeros(n)
            )
            lo, _ = relative_hessian_extremes(g, m, params)
            hits += lo >= 1.0 - 2.2 * beta
        assert hits >= 48

    def test_golden_spectrum_regression(self, sk):
        # one pinned seed, recorded from the implementation
        n = 60
        g = gen_random(sk, n, seed=123)
        m = rng.stream(123, "m").uniform(-0.9, 0.9, n)
        params = TapParams(beta=0.3, q=float(m @ m) / n, gamma_reg=1.0, y=np.zeros(n))
        lo, hi = relative_hessian_extremes(g, m, params)
        assert lo == pytest.approx(0.6216752789969376, rel=1e-9)
        assert hi == pytest.approx(1.5218050037960527, rel=1e-9)


class TestBregman:
    def test_zero_at_equal_points(self, gen):
        m = gen.uniform(-0.9, 0.9, 12)
        assert bregman(m, m) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_squared_distance_bounds(self, seed):
        g = np.random.default_rng(seed)
        m = g.uniform(-0.95, 0.95, 6)
        nv = g.uniform(-0.95, 0.95, 6)
        d = bregman(m, nv)
        assert d >= 0.5 * np.sum((m - nv) ** 2) - 1e-12
        assert d <= np.sum((np.arctanh(m) - np.arctanh(nv)) ** 2) + 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            bregman(np.array([1.0]), np.array([0.0]))


class TestNgd:
    def _setup(self, spec, n, seed, beta=0.4):
        g = gen_random(spec, n, seed=seed)
        y = rng.stream(seed, "ngd-y").standard_normal(n)
        params = TapParams(beta=beta, q=0.2, gamma_reg=1.0, y=y)
        return g, params

    def test_fixed_point_stays(self, sk):
        # with a zero gradient every iterate equals u0; build one by solving
        # grad = 0 with NGD first, then restarting there
        g, params = self._setup(sk, 10, seed=10)
        final = ngd_run(g, np.zeros(10), params, eta=0.3, K=400, keep_history=False)[-1]
        assert final.grad_norm <= 1e-11
        traj = ngd_run(g, final.u, params, eta=0.3, K=5)
        for it in traj:
            np.testing.assert_allclose(it.u, final.u, atol=1e-9)

    def test_values_nonincreasing(self, mixed):
        g, params = self._setup(mixed, 14, seed=11)
        traj = ngd_run(g, np.zeros(14), params, eta=0.2, K=60)
        vals = np.array([it.ftap for it in traj])
        tol = 1e-12 * (1.0 + np.abs(vals))
        assert np.all(np.diff(vals) <= tol[:-1])

    def test_mirror_descent_equivalence(self, sk, gen):
        # the explicit u-step solves the Bregman proximal problem: compare
        # with an independent per-coordinate root solve of its stationarity
        n = 6
        g, params = self._setup(sk, n, seed=12)
        u = np.arctanh(gen.uniform(-0.6, 0.6, n))
        m = np.tanh(u)
        eta = 0.15
        gvec = ftap_grad(g, m, params)
        step = ngd_run(g, u, params, eta=eta, K=1)[-1]
        L = 1.0 / eta
        for i in range(n):
            root = brentq(
                lambda x: gvec[i] + L * (np.arctanh(x) - u[i]),
                -1 + 1e-12,
                1 - 1e-12,
                xtol=1e-15,
            )
            assert np.arctanh(root) - (u[i] - eta * gvec[i]) == pytest.approx(0.0, abs=1e-10)
            assert step.m[i] == pytest.approx(root, abs=1e-10)

    def test_converges_from_amp_init(self, sk):
        from glasslocal import se_recursion

        beta, t, n = 0.5, 1.0, 2000
        g, x, y = planted_instance(sk, n, beta, t, seed=2)
        z = amp_run(g, y, beta, K=30, keep_history=False)[-1].z
        qstar = se_recursion(sk, beta, t, K=1).q_star
        params = TapParams(beta=beta, q=qstar, gamma_reg=1.0, y=y)
        traj = ngd_run(g, z, params, eta=0.1, K=100)
        vals = np.array([it.ftap for it in traj])
        tol = 1e-12 * (1.0 + np.abs(vals))
        assert np.all(np.diff(vals) <= tol[:-1])
        assert traj[-1].grad_norm / np.sqrt(n) <= 1e-3

    def test_output_lipschitz_in_y(self, sk, gen):
        # perturbing y moves the minimizer by at most (1/c)||dy||, c the
        # measured relative-Hessian floor, with 20% slack
        n = 40
        g, params = self._setup(sk, n, seed=13, beta=0.25)
        final = ngd_run(g, np.zeros(n), params, eta=0.3, K=600, keep_history=False)[-1]
        c, _ = relative_hessian_extremes(g, final.m, params)
        dy = 1e-3 * gen.standard_normal(n)
        params2 = TapParams(
            beta=params.beta, q=params.q, gamma_reg=params.gamma_reg, y=params.y + dy
        )
        final2 = ngd_run(g, final.u, params2, eta=0.3, K=600, keep_history=False)[-1]
        move = np.linalg.norm(final2.m - final.m)
        assert move <= 1.2 * np.linalg.norm(dy) / c

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_one_kernel_call_per_trial(self, mixed, monkeypatch, caplog, keep_history):
        # without halvings, K steps make K + 1 fused value-and-gradient calls,
        # and the carried gradient is the one ftap_grad computes
        g, params = self._setup(mixed, 9, seed=15)
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return kernel(*args)

        kernel = tap._kernel
        monkeypatch.setattr(tap, "_kernel", counted)
        caplog.set_level(logging.DEBUG, logger="glasslocal.tap")
        K, u0 = 12, np.zeros((3, 9))
        states = ngd_run(g, u0, params, eta=0.05, K=K, keep_history=keep_history)
        assert not [r for r in caplog.records if "halved eta" in r.getMessage()]
        assert calls == [(3, 9)] * (K + 1)
        final = states[-1]
        want = np.linalg.norm(ftap_grad(g, final.m, params), axis=-1)
        np.testing.assert_array_equal(final.grad_norm, want, strict=True)

    def test_onsager_terms_once_per_run(self, mixed, monkeypatch, caplog):
        # (beta, q) is fixed for a run, so NGD's xi evaluations do not grow with K
        g, params = self._setup(mixed, 9, seed=15)
        calls = []
        xi = MixtureSpec.xi

        def counted(spec, *args, **kwargs):
            calls.append(args)
            return xi(spec, *args, **kwargs)

        monkeypatch.setattr(MixtureSpec, "xi", counted)
        caplog.set_level(logging.DEBUG, logger="glasslocal.tap")
        counts = []
        for K in (2, 20):
            calls.clear()
            ngd_run(g, np.zeros((3, 9)), params, eta=0.05, K=K)
            counts.append(len(calls))
        assert not [r for r in caplog.records if "halved eta" in r.getMessage()]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_u0_checked(self, sk, bad):
        g, params = self._setup(sk, 4, seed=14)
        u0 = np.array([[0.0, 0.1, 0.0, 0.0], [0.2, bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="u0"):
            ngd_run(g, u0, params, eta=0.1, K=2)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_eta_checked(self, sk, eta):
        g, params = self._setup(sk, 4, seed=14)
        with pytest.raises(ValueError, match="eta"):
            ngd_run(g, np.zeros(4), params, eta=eta, K=2)

    def test_parameter_validation(self, sk):
        g, params = self._setup(sk, 4, seed=14)
        with pytest.raises(ValueError):
            ngd_run(g, np.zeros(4), params, eta=0.0, K=5)
        with pytest.raises(ValueError):
            ngd_run(g, np.zeros(4), params, eta=0.1, K=0)
        with pytest.raises(ValueError):
            TapParams(beta=0.5, q=1.0, gamma_reg=1.0, y=np.zeros(4))

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_beta_checked(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            TapParams(beta=beta, q=0.1, gamma_reg=1.0, y=np.zeros(4))
