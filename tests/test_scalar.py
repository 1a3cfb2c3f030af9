import math

import numpy as np
import pytest
from scipy.integrate import quad

from glasslocal import mutual_info_scalar, phi, phi_prime, psi, psi_prime
from glasslocal.scalar import DEFAULT_RULE, QuadratureRule


class TestQuadratureRule:
    def test_moments(self):
        w, z = DEFAULT_RULE.weights, DEFAULT_RULE.nodes
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(w @ z) <= 1e-12
        assert abs(w @ z**2 - 1.0) <= 1e-10

    def test_default_rule_converged(self):
        # one-off verification of the default rule against an independent
        # adaptive quadrature; the integrand's poles at pi/(2 sqrt(gamma))
        # off the real axis rule out small node counts
        gs = np.geomspace(1e-3, 195.0, 50)
        ref = np.array(
            [
                quad(
                    lambda z, gg=g: math.exp(-z * z / 2)
                    / math.sqrt(2 * math.pi)
                    * math.tanh(gg + math.sqrt(gg) * z),
                    -14,
                    14,
                    limit=500,
                )[0]
                for g in gs
            ]
        )
        np.testing.assert_allclose(psi(gs), ref, atol=2e-9)


class TestPsi:
    def test_at_zero(self):
        assert psi(0.0) == 0.0

    def test_saturates(self):
        assert psi(1e4) == pytest.approx(1.0, abs=1e-12)
        assert psi(250.0) <= 1.0

    def test_monte_carlo_pin(self):
        # pinned by a 1e8-sample Monte Carlo oracle (tests/oracles)
        assert psi(1.0) == pytest.approx(0.550, abs=1e-3)

    def test_against_adaptive_quadrature(self):
        for g in (0.05, 0.5, 1.0, 4.0, 20.0):
            ref = quad(
                lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
                * math.tanh(g + math.sqrt(g) * z),
                -13,
                13,
                limit=300,
            )[0]
            assert psi(g) == pytest.approx(ref, abs=2e-9)

    def test_monotone_concave(self):
        gs = np.linspace(0.0, 40.0, 400)
        vals = psi(gs)
        d = np.diff(vals)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 1e-8)

    def test_tanh_square_identity(self):
        # E tanh = E tanh^2 on this channel; both forms agree numerically
        rule = DEFAULT_RULE
        for g in (0.3, 1.0, 5.0):
            v = g + math.sqrt(g) * rule.nodes
            sq = np.tanh(v) ** 2 @ rule.weights
            assert psi(g) == pytest.approx(sq, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [psi, psi_prime, mutual_info_scalar])
    def test_non_finite_rejected(self, fn, bad):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            fn(np.array([0.5, bad]))


class TestPsiPrime:
    def test_at_zero_exact(self):
        assert psi_prime(0.0) == 1.0

    @pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
    def test_positive(self, g):
        assert psi_prime(g) > 0

    def test_matches_finite_difference(self):
        for g in np.geomspace(0.01, 50.0, 25):
            eps = 1e-5 * max(g, 1e-2)
            fd = (psi(g + eps) - psi(max(g - eps, 0.0))) / (g + eps - max(g - eps, 0.0))
            assert psi_prime(g) == pytest.approx(fd, abs=1e-6)

    def test_half_point(self):
        eps = 1e-6
        fd = (psi(0.5 + eps) - psi(0.5 - eps)) / (2 * eps)
        assert psi_prime(0.5) == pytest.approx(fd, abs=1e-6)


class TestPhi:
    def test_fixed_point_at_zero(self):
        assert phi(0.0) == 0.0
        assert phi_prime(0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_inverse_identity(self, q):
        assert psi(phi(q)) == pytest.approx(q, abs=1e-10)

    def test_convex(self):
        qs = np.linspace(0.01, 0.95, 95)
        vals = phi(qs)
        assert np.all(np.diff(vals, 2) >= -1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi(1.0)
        with pytest.raises(ValueError):
            phi(-0.01)
        with pytest.raises(ValueError, match=r"q in \[0, 1\)"):
            phi(np.array([0.2, np.nan]))


class TestMutualInfo:
    def test_pure_noise(self):
        assert mutual_info_scalar(0.0) == 0.0

    def test_saturates_at_log2(self):
        assert mutual_info_scalar(1e4) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_monte_carlo_pin(self):
        # pinned by a 1e8-sample Monte Carlo oracle (tests/oracles)
        assert mutual_info_scalar(1.0) == pytest.approx(0.337, abs=1e-3)

    def test_i_mmse_relation(self):
        # dI/dgamma = (1 - psi)/2
        for g in (0.05, 0.4, 1.5, 6.0):
            eps = 1e-5
            fd = (mutual_info_scalar(g + eps) - mutual_info_scalar(g - eps)) / (2 * eps)
            assert fd == pytest.approx(0.5 * (1.0 - psi(g)), abs=1e-5)
