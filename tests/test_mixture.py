import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glasslocal import MixtureSpec, binary_entropy


class TestMixtureSpec:
    def test_sk_value(self, sk):
        # xi(t) = t^2/2 for the quadratic model
        assert sk.xi(1.0) == 0.5

    def test_zero_at_origin(self, mixed):
        assert mixed.xi(0.0) == 0.0

    def test_pure_cubic_second_derivative(self):
        p3 = MixtureSpec.pure(3)
        assert p3.xi(1.0, order=2) == 6.0

    def test_unsupported_order(self, sk):
        with pytest.raises(ValueError):
            sk.xi(0.5, order=5)

    def test_domain(self, sk):
        with pytest.raises(ValueError):
            sk.xi(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(((1, 1.0),))
        with pytest.raises(ValueError):
            MixtureSpec(((3, 1.0), (2, 1.0)))
        with pytest.raises(ValueError):
            MixtureSpec(((2, -0.1),))
        with pytest.raises(ValueError):
            MixtureSpec(((2, 0.0),))

    def test_zero_terms_dropped(self):
        # a tensor file cannot tell a zero term from an absent one
        spec = MixtureSpec(((2, 0.0), (3, 0.7), (4, 0.0)))
        assert spec.coeffs == ((3, 0.7),)
        assert spec == MixtureSpec.pure(3, 0.7)
        assert spec.degree == 3

    @pytest.mark.parametrize("csq", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, csq):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(((2, csq),))
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(((2, 0.5), (3, csq)))

    def test_high_degree_flagged_scalar_only(self):
        spec = MixtureSpec.pure(100)
        assert spec.scalar_only

    def test_xi_hat(self, sk):
        assert sk.xi_hat(8) == 128.0
        assert MixtureSpec.pure(3).xi_hat(0) == 1.0
        assert MixtureSpec.pure(2).xi_hat(2) == 4.0

    def test_json_roundtrip(self, mixed):
        assert MixtureSpec.from_dict(mixed.to_dict()) == mixed
        assert MixtureSpec.from_dict({"2": 0.5}) == MixtureSpec.sk()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_chain_finite_differences(self, mixed, order):
        ts = np.linspace(0.0, 0.99, 40)
        eps = 1e-6
        hi = np.minimum(ts + eps, 1.0)
        lo = ts - eps
        fd = (mixed.xi(hi, order - 1) - mixed.xi(lo, order - 1)) / (hi - lo)
        ex = mixed.xi(ts, order)
        np.testing.assert_allclose(fd, ex, rtol=1e-7, atol=1e-7)


class TestBinaryEntropy:
    def test_center(self):
        assert binary_entropy(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_boundary_convention(self):
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(-1.0) == 0.0

    def test_golden_value_half(self):
        # direct evaluation of the closed form at 64-bit precision
        assert binary_entropy(0.5) == pytest.approx(0.5623351446188083, abs=1e-15)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_even(self, m):
        assert binary_entropy(m) == pytest.approx(binary_entropy(-m), abs=1e-14)

    def test_concave_on_interior_grid(self):
        ms = np.linspace(-0.999, 0.999, 1001)
        assert np.all(np.diff(binary_entropy(ms), 2) <= 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.0001)

    @pytest.mark.parametrize("bad", [1.0001, -1.5, np.nan])
    @pytest.mark.parametrize("fn", [binary_entropy])
    def test_bound_checked(self, fn, bad):
        with pytest.raises(ValueError, match="binary entropy requires"):
            fn(np.array([0.5, bad, 0.0]))

    def test_against_scipy_xlogy(self, gen):
        from scipy.special import xlogy

        m = np.concatenate([[-1.0, 1.0, 0.0, 1 - 1e-12], gen.uniform(-1, 1, 200)])
        a, b = (1 + m) / 2, (1 - m) / 2
        want = -(xlogy(a, a) + xlogy(b, b))
        np.testing.assert_allclose(binary_entropy(m), want, rtol=1e-14, atol=0)
        assert binary_entropy(m[:2]).tolist() == [0.0, 0.0]
        np.testing.assert_allclose(
            binary_entropy(m.reshape(4, 51)), want.reshape(4, 51), rtol=1e-14, atol=0
        )
