import logging

import numpy as np
import pytest
from scipy.optimize import brentq

from glasslocal import (
    MixtureSpec,
    amp_run,
    ftap_grad,
    ftap_hessian,
    ftap_value,
    gen_random,
    ngd_run,
    ons,
    ons_prime,
    relative_hessian_extremes,
)
from glasslocal import disorder, tap
from glasslocal.disorder import hessian
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
        from glasslocal import binary_entropy, hamiltonian

        n, beta = 9, 0.5
        g = gen_random(mixed, n, seed=2)
        m = gen.uniform(-0.8, 0.8, n)
        y = gen.standard_normal(n)
        q = float(m @ m) / n
        params = TapParams(beta=beta, q=q, gamma_reg=0.0, y=y)
        plain = (
            -beta * hamiltonian(g, m)
            - y @ m
            - binary_entropy(m).sum(-1)
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
        for n in (10, 600):
            g = gen_random(sk, n, seed=9)
            m = gen.uniform(-0.5, 0.5, n)
            q = float(m @ m) / n
            params = TapParams(beta=0.0, q=q, gamma_reg=0.0, y=np.zeros(n))
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

    def test_pinned_coordinate(self, mixed, gen):
        # a coordinate at +-1 gives the eigenvalue 1; the others are the
        # interior formula D^{-1/2} hess F D^{-1/2} on the free coordinates,
        # with hess F written out from its definition at the full m
        from glasslocal import hessian, onsager

        n, beta, q, gam = 8, 0.9, 0.3, 1.2
        g = gen_random(mixed, n, seed=9)
        m = gen.uniform(-0.8, 0.8, n)
        m[[2, 5]] = 1.0, -1.0
        params = TapParams(beta=beta, q=q, gamma_reg=gam, y=np.zeros(n))
        free = np.abs(m) < 1.0
        H = -beta * hessian(g, m) + (gam * beta / n) * np.outer(m, m)
        H += (onsager(mixed, beta, q) + 0.5 * gam * beta * (m @ m / n - q)) * np.eye(n)
        d = 1.0 - m[free] ** 2  # D^{-1} on the free coordinates
        HJ = H[np.ix_(free, free)] + np.diag(1.0 / d)
        w = np.linalg.eigvalsh(HJ * np.sqrt(np.outer(d, d)))
        assert w[0] < 1.0 < w[-1]  # so the extremes below are the free block's
        lo, hi = relative_hessian_extremes(g, m, params)
        assert lo == pytest.approx(w[0], rel=1e-12)
        assert hi == pytest.approx(w[-1], rel=1e-12)
        # with every coordinate pinned the matrix is the identity
        assert relative_hessian_extremes(g, np.sign(m), params) == (1.0, 1.0)

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, np.nan])
    def test_outside_cube_rejected(self, sk, bad):
        g = gen_random(sk, 3, seed=9)
        params = TapParams(beta=0.3, q=0.1, gamma_reg=1.0, y=np.zeros(3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            relative_hessian_extremes(g, np.array([0.1, bad, -1.0]), params)

    def test_golden_spectrum_regression(self, sk):
        # one pinned seed, recorded from the implementation
        n = 60
        g = gen_random(sk, n, seed=123)
        m = rng.stream(123, "m").uniform(-0.9, 0.9, n)
        params = TapParams(beta=0.3, q=float(m @ m) / n, gamma_reg=1.0, y=np.zeros(n))
        lo, hi = relative_hessian_extremes(g, m, params)
        assert lo == pytest.approx(0.6216752789969376, rel=1e-9)
        assert hi == pytest.approx(1.5218050037960527, rel=1e-9)


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
        # and the carried gradient is the one `_ftap` computes at the final u
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
        _, gvec = tap._ftap(g, final.u, final.m, params, *tap._onsager_terms(g, params))
        want = np.linalg.norm(gvec, axis=-1)
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

    @pytest.mark.parametrize("keep_history", [True, False])
    @pytest.mark.parametrize("eta", [0.05, 4.0], ids=["small-eta", "halving-eta"])
    @pytest.mark.parametrize("y_rows", [False, True], ids=["shared-y", "per-row-y"])
    @pytest.mark.parametrize(
        "coeffs", [{"2": 0.5}, {"2": 0.5, "3": 0.7, "4": 0.2}], ids=["sk", "p234"]
    )
    def test_workspace_matches_fresh_arrays(self, coeffs, y_rows, eta, keep_history):
        # ngd_run reuses one set of arrays for every trial; the same loop with
        # fresh arrays and `_ftap` without a workspace gives the same bits
        n, rows, K = 9, 4, 8
        g = gen_random(MixtureSpec.from_dict(coeffs), n, seed=16)
        y = rng.stream(16, "ngd-y").standard_normal((rows, n) if y_rows else n)
        params = TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=y)
        u0 = 0.5 * rng.stream(16, "ngd-u0").standard_normal((rows, n))
        u0_before = u0.copy()
        states = ngd_run(g, u0, params, eta=eta, K=K, keep_history=keep_history)
        want, halvings = _fresh_array_ngd(g, u0_before, params, eta, K, keep_history)
        np.testing.assert_array_equal(u0, u0_before, strict=True)
        assert (halvings > 0) == (eta > 1.0)
        assert len(states) == len(want)
        for got, (u, m, f, gn) in zip(states, want):
            for a, b in ((got.u, u), (got.m, m), (got.ftap, f), (got.grad_norm, gn)):
                np.testing.assert_array_equal(a, b, strict=True)
        arrays = [u0] + [a for s in states for a in (s.u, s.m, s.ftap, s.grad_norm)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

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


class TestNgdStop:
    """`ngd_run(..., tol)` freezes a row once ||grad F|| / sqrt(n) <= tol."""

    TOL = 1e-8

    def _setup(self, n=10, seed=17):
        g = gen_random(MixtureSpec.pure(2), n, seed=seed)
        y = rng.stream(seed, "ngd-y").standard_normal(n)
        return g, TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=y)

    def _stationary(self, g, params):
        final = ngd_run(g, np.zeros(g.n), params, eta=0.3, K=400, keep_history=False)[-1]
        assert final.grad_norm / np.sqrt(g.n) <= 1e-11
        return final.u

    def test_stationary_row_keeps_its_bits(self):
        g, params = self._setup()
        u_star = self._stationary(g, params)
        u0 = np.stack([u_star, np.zeros(g.n)])
        traj = ngd_run(g, u0, params, eta=0.6, K=50, tol=self.TOL)
        for it in traj:
            np.testing.assert_array_equal(it.u[0], u_star, strict=True)
            np.testing.assert_array_equal(it.m[0], np.tanh(u_star), strict=True)
        assert not np.array_equal(traj[-1].u[1], u0[1])
        assert traj[-1].grad_norm[1] / np.sqrt(g.n) <= self.TOL

    def test_frozen_row_never_halves(self, monkeypatch, caplog):
        # a frozen row's value is carried, not recomputed: a kernel whose H
        # drifts on that row from call to call (raising F) triggers no halving
        g, params = self._setup()
        u_star = self._stationary(g, params)
        calls = []

        def drifting(g_, X, work=None):
            h, gr = kernel(g_, X, work)
            calls.append(1)
            h[np.all(X == np.tanh(u_star), axis=-1)] -= 1e-6 * len(calls)
            return h, gr

        kernel = tap._kernel
        monkeypatch.setattr(tap, "_kernel", drifting)
        caplog.set_level(logging.DEBUG, logger="glasslocal.tap")
        traj = ngd_run(g, np.stack([u_star, np.zeros(g.n)]), params, eta=0.6, K=50, tol=self.TOL)
        assert not [r for r in caplog.records if "halved eta" in r.getMessage()]
        assert 1 < len(traj) < 50
        np.testing.assert_array_equal(traj[-1].u[0], u_star, strict=True)

    def test_frozen_row_is_the_row_cut_where_it_froze(self):
        # two rows that freeze after different step counts: each final row is
        # the tol = 0 run's row at its freeze step (the same batch, so the
        # same bits) and, to rounding, that row run alone for that many steps
        g, params = self._setup()
        u0 = np.stack([0.9 * np.tanh(params.y), 3.0 * rng.stream(17, "far").standard_normal(g.n)])
        free = ngd_run(g, u0, params, eta=0.6, K=200)
        gn = np.array([it.grad_norm for it in free]) / np.sqrt(g.n)
        froze = [int(np.argmax(gn[:, r] <= self.TOL)) + 1 for r in range(2)]
        assert froze[0] != froze[1] and max(froze) < 200
        stopped = ngd_run(g, u0, params, eta=0.6, K=200, tol=self.TOL)
        assert len(stopped) == max(froze)
        for r, k in enumerate(froze):
            for name in ("u", "m", "ftap", "grad_norm"):
                got, want = getattr(stopped[-1], name)[r], getattr(free[k - 1], name)[r]
                np.testing.assert_array_equal(got, want, strict=True)
            alone = ngd_run(g, u0[r], params, eta=0.6, K=k, keep_history=False)[-1]
            np.testing.assert_allclose(stopped[-1].u[r], alone.u, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_frozen_at_entry_returns_start_state(self, monkeypatch, keep_history):
        g, params = self._setup()
        u_star = self._stationary(g, params)
        u0 = np.stack([u_star, u_star])
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return kernel(*args)

        kernel = tap._kernel
        monkeypatch.setattr(tap, "_kernel", counted)
        states = ngd_run(g, u0, params, eta=0.6, K=20, keep_history=keep_history, tol=self.TOL)
        assert calls == [(2, g.n)]
        assert len(states) == 1
        np.testing.assert_array_equal(states[0].u, u0, strict=True)
        np.testing.assert_array_equal(states[0].m, np.tanh(u0), strict=True)
        assert not np.shares_memory(states[0].u, u0)

    def test_tol_zero_takes_every_step(self, sk):
        # y = 0 at u = 0 has a zero gradient: the stop ends the run at entry,
        # and tol = 0, the default, still takes all K steps
        g = gen_random(sk, 6, seed=18)
        params = TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=np.zeros(6))
        assert len(ngd_run(g, np.zeros((2, 6)), params, eta=0.6, K=7)) == 7
        assert len(ngd_run(g, np.zeros((2, 6)), params, eta=0.6, K=7, tol=0.0)) == 7
        assert len(ngd_run(g, np.zeros((2, 6)), params, eta=0.6, K=7, tol=self.TOL)) == 1

    @pytest.mark.parametrize("tol", [-1e-8, np.nan, np.inf])
    def test_tol_checked(self, sk, tol):
        g = gen_random(sk, 4, seed=14)
        params = TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=np.zeros(4))
        with pytest.raises(ValueError, match="tol"):
            ngd_run(g, np.zeros(4), params, eta=0.1, K=2, tol=tol)


class TestNgdBB:
    """`ngd_run(..., bb=True)`: each row's next trial is s.r / r.r after an
    accepted step (s the step in u, r the change of grad F), or eta where
    s.r <= 0."""

    TOL = 1e-8

    def _setup(self, coeffs={"2": 0.5}, n=10, seed=19, beta=0.4):
        g = gen_random(MixtureSpec.from_dict(coeffs), n, seed=seed)
        y = rng.stream(seed, "ngd-y").standard_normal(n)
        return g, TapParams(beta=beta, q=0.2, gamma_reg=1.0, y=y)

    @pytest.mark.parametrize("eta", [0.05, 4.0], ids=["small-eta", "halving-eta"])
    def test_first_step_is_the_fixed_step(self, eta):
        g, params = self._setup()
        u0 = 0.5 * rng.stream(19, "ngd-u0").standard_normal((3, g.n))
        fixed = ngd_run(g, u0, params, eta=eta, K=1)[-1]
        bb = ngd_run(g, u0, params, eta=eta, K=1, bb=True)[-1]
        for name in ("u", "m", "ftap", "grad_norm"):
            np.testing.assert_array_equal(getattr(bb, name), getattr(fixed, name), strict=True)
        later = ngd_run(g, u0, params, eta=eta, K=2, bb=True)[-1]
        assert not np.array_equal(later.u, ngd_run(g, u0, params, eta=eta, K=2)[-1].u)

    def test_nonpositive_curvature_takes_eta(self):
        # at beta = 3 with q near 1 the functional is concave along the top
        # eigenvector v of hess H: row 0 starts on v, so its first step has
        # s.r < 0 and its second step is eta, bit for bit the fixed run's;
        # row 1 sees s.r > 0 and moves by its BB step
        g, _ = self._setup()
        params = TapParams(beta=3.0, q=0.99, gamma_reg=0.0, y=np.zeros(g.n))
        v = np.linalg.eigh(hessian(g, np.zeros(g.n)))[1][:, -1]
        u0 = np.stack([1e-3 * v, 0.5 * rng.stream(19, "ngd-u0").standard_normal(g.n)])
        eta = 0.05
        first = ngd_run(g, u0, params, eta=eta, K=1)[-1]
        r = ftap_grad(g, first.m, params) - ftap_grad(g, np.tanh(u0), params)
        sr = np.einsum("ij,ij->i", first.u - u0, r)
        assert sr[0] < 0.0 < sr[1]
        fixed = ngd_run(g, u0, params, eta=eta, K=2)[-1]
        bb = ngd_run(g, u0, params, eta=eta, K=2, bb=True)[-1]
        np.testing.assert_array_equal(bb.u[0], fixed.u[0], strict=True)
        assert not np.array_equal(bb.u[1], fixed.u[1])

    def test_frozen_row_keeps_its_bits(self):
        g, params = self._setup()
        u_star = ngd_run(g, np.zeros(g.n), params, eta=0.3, K=400, keep_history=False)[-1]
        assert u_star.grad_norm / np.sqrt(g.n) <= 1e-11
        u0 = np.stack([u_star.u, np.zeros(g.n)])
        traj = ngd_run(g, u0, params, eta=0.6, K=50, tol=self.TOL, bb=True)
        assert len(traj) > 1
        for it in traj:
            np.testing.assert_array_equal(it.u[0], u_star.u, strict=True)
            np.testing.assert_array_equal(it.m[0], u_star.m, strict=True)
        assert traj[-1].grad_norm[1] / np.sqrt(g.n) <= self.TOL

    def test_rows_independent_of_batch(self):
        # at n = 40 with a degree-4 term the kernel's block is 8 rows: halves
        # cut at the block keep the batch's bits, and a row run alone (a
        # one-row block) agrees to rounding
        g, params = self._setup({"2": 0.5, "3": 0.7, "4": 0.2}, n=40, beta=0.25)
        assert disorder._block_rows(g) == 8
        y = rng.stream(19, "ngd-y-rows").standard_normal((16, g.n))
        u0 = 0.5 * rng.stream(19, "ngd-u0").standard_normal((16, g.n))

        def run(rows):
            p = TapParams(beta=params.beta, q=params.q, gamma_reg=params.gamma_reg, y=y[rows])
            return ngd_run(g, u0[rows], p, eta=0.6, K=100, keep_history=False, tol=self.TOL,
                           bb=True)[-1]

        batch = run(slice(0, 16))
        assert np.all(batch.grad_norm / np.sqrt(g.n) <= self.TOL)
        halves = [run(slice(0, 8)), run(slice(8, 16))]
        for name in ("u", "m", "ftap", "grad_norm"):
            got = np.concatenate([getattr(h, name) for h in halves])
            np.testing.assert_array_equal(got, getattr(batch, name), strict=True)
        for r in (0, 11):
            alone = run(slice(r, r + 1))
            np.testing.assert_allclose(alone.m[0], batch.m[r], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("eta", [0.05, 4.0], ids=["small-eta", "halving-eta"])
    def test_matches_reference_loop(self, eta):
        # the products s.r and r.r reuse the freed state arrays; a loop with
        # fresh arrays and the rule written row by row gives the same bits
        g, params = self._setup({"2": 0.5, "3": 0.7, "4": 0.2}, n=9, beta=0.4)
        u0 = 0.5 * rng.stream(16, "ngd-u0").standard_normal((4, g.n))
        states = ngd_run(g, u0, params, eta=eta, K=8, bb=True)
        want, halvings = _fresh_array_ngd(g, u0, params, eta, 8, True, bb=True)
        assert halvings > 0  # a BB trial overshoots at times, so both cover the safeguard
        for got, (u, m, f, gn) in zip(states, want, strict=True):
            for a, b in ((got.u, u), (got.m, m), (got.ftap, f), (got.grad_norm, gn)):
                np.testing.assert_array_equal(a, b, strict=True)


def _fresh_array_ngd(g, U, params, eta, K, keep_history, bb=False):
    """Reference NGD loop with fresh arrays in every trial: `_ftap` without a
    workspace.  Returns the (u, m, ftap, grad_norm) of each kept iterate and
    the number of row halvings."""
    terms = tap._onsager_terms(g, params)
    M = np.tanh(U)
    f, gvec = tap._ftap(g, U, M, params, *terms)
    states, halvings = [], 0
    eta_next = np.full(f.shape, eta)
    for _ in range(K):
        eta_row = eta_next.copy()
        noise_tol = 1e-12 * (1.0 + np.abs(f))
        for attempt in range(tap.MAX_HALVINGS + 1):
            U_try = U - eta_row[:, None] * gvec
            M_try = np.tanh(U_try)
            f_try, g_try = tap._ftap(g, U_try, M_try, params, *terms)
            bad = f_try > f + noise_tol
            if not np.any(bad):
                break
            assert attempt < tap.MAX_HALVINGS
            eta_row[bad] *= 0.5
            halvings += int(bad.sum())
        if bb:
            sr = np.einsum("ij,ij->i", U_try - U, g_try - gvec)
            rr = np.einsum("ij,ij->i", g_try - gvec, g_try - gvec)
            eta_next = np.array([a / b if a > 0.0 else eta for a, b in zip(sr, rr)])
        U, M, f, gvec = U_try, M_try, f_try, g_try
        if keep_history:
            states.append((U, M, f, np.linalg.norm(gvec, axis=-1)))
    if not keep_history:
        states = [(U, M, f, np.linalg.norm(gvec, axis=-1))]
    return states, halvings
