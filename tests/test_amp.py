import numpy as np
import pytest

from glasslocal import MixtureSpec, amp_lipschitz_probe, amp_run, gen_random, onsager, se_recursion
from glasslocal import rng

from conftest import planted_instance


class TestOnsager:
    def test_saturated(self, sk):
        assert onsager(sk, 0.7, 1.0) == 0.0

    def test_sk_at_zero(self, sk):
        assert onsager(sk, 0.7, 0.0) == pytest.approx(0.49)

    def test_pure_cubic_at_zero(self):
        assert onsager(MixtureSpec.pure(3), 0.7, 0.0) == 0.0

    def test_domain(self, sk):
        with pytest.raises(ValueError):
            onsager(sk, 0.5, 1.2)


class TestAmpRun:
    def test_first_iterate_is_y(self, sk, gen):
        g = gen_random(sk, 20, seed=1)
        y = gen.standard_normal(20)
        st = amp_run(g, y, 0.5, K=1)[-1]
        np.testing.assert_array_equal(st.z, y)
        np.testing.assert_array_equal(st.m_hat, np.tanh(y))

    def test_zero_y_stays_at_symmetric_point(self, sk):
        g = gen_random(sk, 16, seed=2)
        for st in amp_run(g, np.zeros(16), 0.8, K=5, keep_history=True):
            assert np.all(st.m_hat == 0.0)
            assert st.q_hat == 0.0

    def test_state_invariants(self, sk, gen):
        g = gen_random(sk, 32, seed=3)
        y = gen.standard_normal(32)
        for st in amp_run(g, y, 0.5, K=6, keep_history=True):
            np.testing.assert_array_equal(st.m_hat, np.tanh(st.z))
            assert 0.0 <= st.q_hat <= 1.0
            assert st.onsager_b == pytest.approx(onsager(sk, 0.5, st.q_hat))

    def test_deterministic(self, sk, gen):
        g = gen_random(sk, 32, seed=4)
        y = gen.standard_normal(32)
        a = amp_run(g, y, 0.5, K=8)[-1]
        b = amp_run(g, y, 0.5, K=8)[-1]
        np.testing.assert_array_equal(a.z, b.z)

    def test_batch_matches_rows(self, sk, gen):
        g = gen_random(sk, 16, seed=5)
        Y = gen.standard_normal((3, 16))
        batch = amp_run(g, Y, 0.4, K=5)[-1]
        for r in range(3):
            single = amp_run(g, Y[r], 0.4, K=5)[-1]
            np.testing.assert_allclose(batch.z[r], single.z, atol=1e-13)

    def test_keep_history_flag(self, sk, gen):
        g = gen_random(sk, 8, seed=6)
        y = gen.standard_normal(8)
        assert len(amp_run(g, y, 0.3, K=7, keep_history=True)) == 7
        assert len(amp_run(g, y, 0.3, K=7)) == 1


class TestStateEvolutionTracking:
    def test_planted_sk_norm_and_mse(self, sk):
        # empirical statistics track the scalar recursion at n = 2000
        beta, t, n = 0.5, 1.0, 2000
        prof = se_recursion(sk, beta, t, K=12)
        q = prof.q_sequence
        g, x, y = planted_instance(sk, n, beta, t, seed=0)
        for st in amp_run(g, y, beta, K=10, keep_history=True):
            assert abs(st.q_hat - q[st.k]) <= 0.05
            assert abs(np.mean((st.m_hat - x) ** 2) - (1.0 - q[st.k + 1])) <= 0.08

    def test_z_increment_decay(self, sk):
        beta, t, n = 0.5, 1.0, 2000
        g, x, y = planted_instance(sk, n, beta, t, seed=1)
        traj = amp_run(g, y, beta, K=21, keep_history=True)
        ratios = [
            np.linalg.norm(b.z - a.z) / np.linalg.norm(a.z)
            for a, b in zip(traj[:-1], traj[1:])
        ]
        assert ratios[-1] < ratios[0]
        assert ratios[-1] < 0.1


class TestLipschitzProbe:
    def test_zero_perturbation_guarded(self, sk, gen):
        g = gen_random(sk, 12, seed=7)
        y = gen.standard_normal(12)
        np.testing.assert_array_equal(amp_lipschitz_probe(g, y, y, 0.3, 4), np.zeros(4))

    def test_first_ratio_is_one(self, sk, gen):
        g = gen_random(sk, 12, seed=8)
        y = gen.standard_normal(12)
        y2 = y + 1e-3 * gen.standard_normal(12)
        ratios = amp_lipschitz_probe(g, y, y2, 0.3, 5)
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)

    def test_golden_regression(self, sk):
        # pinned once from the implementation as regression values
        n = 500
        g = gen_random(sk, n, seed=9)
        y = rng.stream(9, "probe-y").standard_normal(n)
        y2 = y + 1e-3 * rng.stream(9, "probe-dy").standard_normal(n)
        ratios = amp_lipschitz_probe(g, y, y2, 0.3, 5)
        assert np.all(np.isfinite(ratios))
        np.testing.assert_allclose(
            ratios,
            [1.0, 1.0069994754407827, 1.0082485483544203, 1.0089933712250527, 1.009055853874235],
            rtol=1e-9,
        )


class TestErrors:
    def test_dimension_mismatch(self, sk, gen):
        g = gen_random(sk, 8, seed=0)
        with pytest.raises(ValueError):
            amp_run(g, gen.standard_normal(9), 0.5, K=2)

    def test_nonfinite_named_iteration(self, sk, gen):
        # finite inputs whose Onsager coefficient beta^2 xi''(0) overflows
        g = gen_random(sk, 8, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="k=1"):
                amp_run(g, gen.standard_normal(8), 1e200, K=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_named(self, sk, gen, bad):
        g = gen_random(sk, 8, seed=0)
        with pytest.raises(ValueError, match="beta must be finite"):
            amp_run(g, gen.standard_normal(8), bad, K=3)
        y = gen.standard_normal((2, 8))
        y[1, 3] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            amp_run(g, y, 0.5, K=3)
