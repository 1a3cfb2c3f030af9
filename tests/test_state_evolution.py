import json

import numpy as np
import pytest

from glasslocal import (
    MixtureSpec,
    beta1,
    beta2,
    beta3,
    beta_c_rs,
    beta_dyn,
    mse_prediction,
    psi,
    psi_star,
    q_schedule,
    se_recursion,
    thresholds,
)
from glasslocal.state_evolution import dyn_h, fixed_points, se_map

# q_*(0.5, t) for t = 0, 0.5, 1.0, 1.5, 2.0 on the quadratic model: pinned by
# running the recursion with adaptive-quadrature psi to 1e-14 (tests/oracles)
SK_HALF_SCHEDULE = [0.0, 0.39795265, 0.59463856, 0.71584425, 0.79634536]


class TestRecursion:
    def test_zero_time_below_threshold(self, sk):
        prof = se_recursion(sk, 0.5, 0.0, K=5)
        assert prof.q_star == 0.0
        assert np.all(prof.q_sequence == 0.0)

    def test_beta_zero_decouples(self, sk):
        prof = se_recursion(sk, 0.0, 0.7, K=6)
        np.testing.assert_allclose(prof.q_sequence[1:], psi(0.7), atol=1e-14)

    def test_pinned_fixed_point(self, sk):
        # oracle: adaptive-quadrature recursion at tolerance 1e-14
        prof = se_recursion(sk, 0.5, 1.0, K=3)
        assert prof.q_star == pytest.approx(0.5946385559, abs=1e-6)
        assert prof.converged

    def test_monotone_bounded_by_fixed_point(self, sk):
        prof = se_recursion(sk, 0.6, 0.8, K=20)
        q = prof.q_sequence
        assert q[0] == 0.0
        assert np.all(np.diff(q) >= 0)
        assert np.all(q <= prof.q_star + 1e-12)

    def test_gamma_star_consistency(self, sk):
        prof = se_recursion(sk, 0.5, 1.0, K=2)
        assert prof.gamma_star == pytest.approx(0.25 * prof.q_star, abs=1e-12)
        assert abs(prof.q_star - psi(prof.gamma_star + 1.0)) <= 1e-10

    def test_mse_prediction(self, sk):
        prof = se_recursion(sk, 0.5, 1.0, K=8)
        # k=3 entry pinned by the recursion oracle
        assert mse_prediction(prof, 3) == pytest.approx(0.4053766297, abs=1e-6)
        assert mse_prediction(prof, 7) == pytest.approx(1.0 - prof.q_star, abs=1e-4)
        with pytest.raises(IndexError):
            mse_prediction(prof, 8)

    def test_mse_is_one_below_threshold_at_t0(self, sk):
        prof = se_recursion(sk, 0.5, 0.0, K=5)
        assert all(mse_prediction(prof, k) == 1.0 for k in range(5))


class TestRecursionProperties:
    def test_contraction_below_beta1(self, sk, gen):
        b1 = beta1(sk)
        beta = 0.7
        rate = (beta / b1) ** 2
        for _ in range(200):
            q1, q2 = gen.uniform(0, 1, 2)
            t = gen.uniform(0, 3)
            lhs = abs(se_map(sk, beta, t, q1) - se_map(sk, beta, t, q2))
            assert lhs <= rate * abs(q1 - q2) + 1e-9

    def test_geometric_convergence(self, sk):
        beta, t = 0.5, 0.8
        b1 = beta1(sk)
        prof = se_recursion(sk, beta, t, K=25)
        for k in range(1, 26):
            assert 1.0 - prof.q_sequence[k] / prof.q_star <= (beta / b1) ** (2 * k) + 1e-6

    def test_qstar_over_t_bounded(self, sk):
        for t in np.geomspace(1e-3, 5.0, 30):
            q = se_recursion(sk, 0.5, float(t), K=1).q_star
            assert 0.01 <= q / t <= 100.0

    def test_multiple_fixed_points_above_beta1(self, sk):
        # at beta = 1.5 some scanned t (here t = 0, where the symmetric root
        # survives next to the nonzero one) exhibits >= 2 roots
        found = False
        for t in np.linspace(0.0, 0.6, 31):
            roots = fixed_points(sk, 1.5, float(t))
            if len(roots) >= 2:
                found = True
                break
        assert found

    def test_unique_fixed_point_below_beta1(self, sk):
        for t in (0.05, 0.5, 2.0):
            assert len(fixed_points(sk, 0.5, t)) == 1


class TestThresholds:
    def test_sk_beta1(self, sk):
        assert beta1(sk) == pytest.approx(1.0, abs=1e-3)

    def test_beta1_lower_bound(self, sk, mixed):
        for spec in (sk, mixed, MixtureSpec.pure(3)):
            assert beta1(spec) >= spec.xi(1.0, order=2) ** -0.5 - 1e-6

    def test_beta1_pure_cubic_pinned(self):
        # oracle: dense 1e6-point grid scan (tests/oracles)
        assert beta1(MixtureSpec.pure(3)) == pytest.approx(0.9542650, abs=2e-4)

    def test_sk_beta2(self, sk):
        assert beta2(sk) == pytest.approx(1.0, abs=1e-3)

    def test_beta2_upper_bound(self, sk, mixed):
        for spec in (sk, mixed):
            x2 = spec.xi(0.0, order=2)
            if x2 > 0:
                assert beta2(spec) <= x2**-0.5 + 1e-3

    def test_beta2_pure_quartic_pinned(self):
        # oracle: 2e6-point dense grid bisection (tests/oracles)
        assert beta2(MixtureSpec.pure(4)) == pytest.approx(0.8299406, abs=5e-4)

    def test_sk_beta3_exact(self, sk):
        assert beta3(sk) == 0.5

    def test_beta3_pure_quadratic_rescaled(self):
        spec = MixtureSpec.pure(2, c_sq=1.0)  # xi = t^2, xi''(0) = 2
        assert beta3(spec) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-15)

    def test_beta3_general_branch(self):
        p3 = MixtureSpec.pure(3)
        want = 0.25 / np.sqrt(6.0 * np.log(6561.0))
        assert beta3(p3, c0=0.25) == pytest.approx(want, abs=1e-15)

    def test_beta3_log_domain_error(self):
        small = MixtureSpec(((2, 0.001), (3, 0.0001)))
        with pytest.raises(ValueError):
            beta3(small)

    def test_sk_beta_c_rs(self, sk):
        assert beta_c_rs(sk) == pytest.approx(1.0, abs=2e-3)

    def test_beta_c_rs_bounds(self, sk, mixed):
        for spec in (sk, mixed):
            bc = beta_c_rs(spec)
            assert bc >= beta1(spec) - 2e-3
            x2 = spec.xi(0.0, order=2)
            if x2 > 0:
                assert bc <= x2**-0.5 + 2e-3

    def test_report_serializes(self, sk):
        rep = thresholds(sk)
        d = rep.to_dict()
        assert d["beta3"] == 0.5
        assert d["method"]["beta3"]["c0_is_heuristic"]

    @pytest.mark.parametrize("spec_name", ["sk", "mixed"])
    def test_method_pinned(self, request, spec_name):
        # the solver settings thresholds.json reports, types included
        want = {
            "beta1": {"grid": 4096, "spacing": "log", "refine": "golden", "tol": 1e-4},
            "beta2": {"grid": 10000, "refine": 2000, "bisect_tol": 1e-4},
            "beta3": {"c0": 0.25, "c0_is_heuristic": True},
            "beta_c_rs": {"simpson_panels": 2048, "bisect_tol": 1e-3},
            "beta_dyn": {"beta_step": 1e-3, "q_grid": 4096, "ceiling": 3.0},
            "quadrature_nodes": 301,
            "fixed_point_tol": 1e-12,
        }
        got = thresholds(request.getfixturevalue(spec_name)).method
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


class TestBetaDyn:
    def test_pure_cubic_pinned(self):
        # oracle: beta x q double-grid brute force (tests/oracles)
        bd = beta_dyn(MixtureSpec.pure(3))
        assert bd == pytest.approx(1.038, abs=2e-3)

    def test_large_p_asymptotics(self):
        bd = beta_dyn(MixtureSpec.pure(100))
        ratio = bd / np.sqrt(2 * np.log(100) / 100)
        assert 0.7 <= ratio <= 1.3

    def test_decreasing_in_p(self):
        vals = [beta_dyn(MixtureSpec.pure(p)) for p in (50, 100, 200)]
        assert vals[0] > vals[1] > vals[2]

    def test_none_below_ceiling(self):
        # a very weak mixture has no nonzero solution below a low ceiling
        weak = MixtureSpec(((2, 0.01),))
        assert beta_dyn(weak, ceiling=1.0) is None

    def test_h_matches_direct_expectation(self, gen):
        # direct cosh-weighted Monte Carlo vs the shifted-measure evaluation
        lam = 1.3
        G = gen.standard_normal(2_000_000)
        direct = np.mean(np.cosh(lam * G) * np.tanh(lam * G) ** 2) / np.mean(np.cosh(lam * G))
        assert dyn_h(lam)[0] == pytest.approx(direct, abs=5e-3)


class TestPsiStarAndSchedule:
    def test_t_zero_value(self, sk):
        # beta^2 xi(1) / 2 below the uniqueness threshold
        assert psi_star(sk, 0.5, 0.0) == pytest.approx(0.5**2 * 0.5 / 2, abs=1e-12)

    def test_large_t_limit(self, sk):
        assert psi_star(sk, 0.5, 200.0) == pytest.approx(np.log(2.0), abs=1e-6)

    def test_t_derivative_i_mmse_factor(self, sk):
        # envelope derivative carries the one-half factor
        beta, t, eps = 0.5, 1.0, 1e-4
        fd = (psi_star(sk, beta, t + eps) - psi_star(sk, beta, t - eps)) / (2 * eps)
        qstar = se_recursion(sk, beta, t, K=1).q_star
        assert fd == pytest.approx(0.5 * (1.0 - qstar), abs=1e-4)

    def test_warns_above_beta1(self, sk):
        with pytest.warns(UserWarning):
            psi_star(sk, 1.5, 0.5)

    def test_schedule_pinned(self, sk):
        sched = q_schedule(sk, 0.5, 0.5, 4)
        np.testing.assert_allclose(sched.values, SK_HALF_SCHEDULE, atol=1e-6)
        assert np.all(sched.converged)

    def test_schedule_starts_at_zero_and_monotone(self, sk):
        sched = q_schedule(sk, 0.5, 0.1, 30)
        assert sched.values[0] == 0.0
        assert np.all(np.diff(sched.values) >= 0)

    def test_schedule_validation(self, sk):
        with pytest.raises(ValueError):
            q_schedule(sk, 0.5, 0.0, 4)
        with pytest.raises(ValueError):
            q_schedule(sk, 0.5, 0.1, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, sk, bad):
        for beta, t in [(bad, 0.5), (0.5, bad)]:
            with pytest.raises(ValueError, match="beta and t"):
                se_recursion(sk, beta, t, K=2)
        with pytest.raises(ValueError, match="delta"):
            q_schedule(sk, 0.5, bad, 4)
        with pytest.raises(ValueError, match="beta"):
            q_schedule(sk, bad, 0.1, 4)
