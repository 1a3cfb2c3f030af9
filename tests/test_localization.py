import dataclasses
import inspect
import itertools
import logging

import numpy as np
import pytest

from glasslocal import (
    MixtureSpec,
    amp_run,
    exact_gibbs,
    exact_mean_batch,
    gen_random,
    mean_estimate,
    round_spins,
    sample,
    se_recursion,
)
from glasslocal import disorder, localization, rng, tap
from glasslocal.config import CONFIG_SCHEMA
from glasslocal.localization import SamplerParams
from glasslocal.state_evolution import q_schedule
from glasslocal.tap import TapParams, ftap_grad

from conftest import planted_instance


class TestMeanEstimate:
    def test_symmetric_point(self, sk):
        g = gen_random(sk, 10, seed=0)
        out = mean_estimate(g, np.zeros(10), beta=0.4, q=0.0, k_amp=5, k_ngd=10)
        np.testing.assert_array_equal(out, np.zeros(10))

    def test_matches_enumeration(self, sk):
        # n = 12 planted instances vs the exact tilted mean, 20 seeds
        beta, t, n = 0.3, 2.0, 12
        qstar = se_recursion(sk, beta, t, K=1).q_star
        errs = []
        for seed in range(20):
            g, x, y = planted_instance(sk, n, beta, t, seed)
            m_hat = mean_estimate(g, y, beta, qstar)
            errs.append(np.linalg.norm(m_hat - exact_gibbs(g, beta, y).mean) / np.sqrt(n))
        assert np.mean(errs) <= 0.15

    def test_norm_tracks_fixed_point(self, sk):
        beta, t, n = 0.5, 1.0, 2000
        qstar = se_recursion(sk, beta, t, K=1).q_star
        g, x, y = planted_instance(sk, n, beta, t, seed=3)
        m = mean_estimate(g, y, beta, qstar)
        assert abs(float(m @ m) / n - qstar) <= 0.05


class TestRounding:
    def test_degenerate(self):
        g = rng.stream(0, "r")
        np.testing.assert_array_equal(round_spins(np.ones(8), g), np.ones(8))
        np.testing.assert_array_equal(round_spins(-np.ones(8), g), -np.ones(8))

    def test_unbiased_at_zero(self):
        g = rng.stream(1, "r")
        draws = round_spins(np.zeros((100_000, 1)), g)
        se = 1.0 / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 3 * se

    def test_conditional_mean(self, gen):
        m = gen.uniform(-0.9, 0.9, 5)
        g = rng.stream(2, "r")
        draws = np.stack([round_spins(m, g) for _ in range(40_000)])
        se = np.sqrt((1 - m * m) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - m) <= 3 * se + 1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            round_spins(np.array([1.5]), rng.stream(0, "r"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"m in \[-1, 1\]"):
            round_spins(np.array([0.5, bad]), rng.stream(0, "r"))


class TestRoundingContraction:
    def test_w2_distortion_bounded(self, sk):
        # rounding two coupled mean ensembles inflates their empirical W2 by
        # at most 2 sqrt(W2) (plus Monte Carlo slack)
        from scipy.optimize import linear_sum_assignment

        from glasslocal.baselines import SampleBatch, empirical_w2

        n, beta, M = 10, 0.3, 300
        g = gen_random(sk, n, seed=77)
        x = np.ones(n)
        # planted tilts y = t x + B(t): one N(0, t I) draw per replica stream
        ya, yb = (
            np.stack([t * x + np.sqrt(t) * rng.stream(s, "path", r).standard_normal(n) for r in range(M)])
            for t, s in ((2.0, 7), (3.0, 8))
        )
        ma = exact_mean_batch(g, beta, ya)
        mb = exact_mean_batch(g, beta, yb)
        cost = ((ma**2).sum(1)[:, None] + (mb**2).sum(1)[None, :] - 2 * ma @ mb.T) / n
        rows, cols = linear_sum_assignment(cost)
        w2_pre = np.sqrt(max(cost[rows, cols].mean(), 0.0))
        xa = np.stack([round_spins(ma[r], rng.stream(9, "ra", r)) for r in range(M)])
        xb = np.stack([round_spins(mb[r], rng.stream(9, "rb", r)) for r in range(M)])
        w2_post = empirical_w2(SampleBatch(spins=xa), SampleBatch(spins=xb))
        assert w2_post <= 2.0 * np.sqrt(w2_pre) + 0.05


class TestSampler:
    def test_deterministic(self, sk):
        g = gen_random(sk, 8, seed=5)
        p = SamplerParams(beta=0.2, delta=0.25, L=4, k_amp=5, k_ngd=10, seed=42)
        a = sample(g, p, n_replicas=3)
        b = sample(g, p, n_replicas=3)
        np.testing.assert_array_equal(a.x_alg, b.x_alg)
        np.testing.assert_array_equal(a.mean_final, b.mean_final)

    def test_replica_batch_independence(self, sk):
        # per-replica randomness is keyed by the replica index; results agree
        # across batch partitions up to BLAS reduction-order ulps
        g = gen_random(sk, 8, seed=5)
        p = SamplerParams(beta=0.2, delta=0.25, L=4, k_amp=5, k_ngd=10, seed=42)
        batch = sample(g, p, n_replicas=3)
        solo = sample(g, p, n_replicas=1, replica_start=2)
        np.testing.assert_array_equal(np.atleast_2d(batch.x_alg)[2], solo.x_alg[0])
        np.testing.assert_allclose(
            np.atleast_2d(batch.mean_final)[2], solo.mean_final[0], atol=1e-12
        )

    def test_chunks_at_block_multiples_keep_bits(self, mixed):
        # the kernel evaluates rows in power-of-two blocks, so chunks that
        # start at multiples of the block reproduce the batch's bits; at the
        # mixed-tensor shape n = 40 the block is 8 rows, and with blocks of
        # n/4 = 10 rows this partition moves bits
        n = 40
        g = gen_random(mixed, n, seed=6)
        assert disorder._block_rows(g) == 8
        p = SamplerParams(beta=0.25, delta=0.05, L=2, k_amp=5, k_ngd=10, seed=3)
        batch = sample(g, p, n_replicas=48)
        chunks = [sample(g, p, n_replicas=k, replica_start=lo) for lo, k in ((0, 16), (16, 32))]
        for field in ("mean_final", "final_q", "grad_norm_last", "x_alg"):
            got = np.concatenate([getattr(c, field) for c in chunks])
            np.testing.assert_array_equal(getattr(batch, field), got, strict=True)

    def test_beta_zero_uniform_output(self, sk):
        # the localization process preserves the product measure at beta = 0
        n = 6
        g = gen_random(sk, n, seed=9)
        p = SamplerParams(beta=0.0, delta=0.25, L=20, k_amp=5, k_ngd=10, seed=11)
        run = sample(g, p, n_replicas=2000)
        xm = np.atleast_2d(run.x_alg).mean(axis=0)
        assert np.all(np.abs(xm) <= 3.0 / np.sqrt(2000))

    def test_trajectory_shape(self, sk):
        g = gen_random(sk, 5, seed=1)
        p = SamplerParams(beta=0.2, delta=0.5, L=3, k_amp=3, k_ngd=5, seed=0, keep_trajectory=True)
        run = sample(g, p)
        assert run.y_trajectory.shape == (4, 1, 5)
        np.testing.assert_array_equal(run.y_trajectory[0], np.zeros((1, 5)))

    def test_step_grad_norms_recorded(self, sk):
        g = gen_random(sk, 6, seed=8)
        p = SamplerParams(beta=0.3, delta=0.25, L=5, k_amp=5, k_ngd=20, seed=1)
        run = sample(g, p, n_replicas=2)
        assert run.step_grad_norms.shape == (6, 2)
        assert np.all(np.isfinite(run.step_grad_norms))

    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_grad_norm_last_is_final_step_norm(self, sk, n_replicas):
        # grad_norm_last is the last NGD iterate's norm per sqrt(n), and that
        # equals ||grad F(mean_final)|| recomputed at (Y_L, q_L) up to rounding:
        # NGD's gradient uses u where ftap_grad uses atanh(tanh(u))
        n = 6
        g = gen_random(sk, n, seed=8)
        # k_ngd = 3 keeps every row above NGD_TOL, so the norm is large
        # against the recomputation's rounding
        p = SamplerParams(
            beta=0.3, delta=0.25, L=5, k_amp=5, k_ngd=3, eta=0.1, seed=1, keep_trajectory=True
        )
        run = sample(g, p, n_replicas=n_replicas)
        gn = np.atleast_1d(run.grad_norm_last)
        assert np.all(gn > localization.NGD_TOL)  # a frozen row would end at or below it
        np.testing.assert_array_equal(gn, run.step_grad_norms[p.L] / np.sqrt(n))
        tp = TapParams(beta=p.beta, q=float(run.q_used[p.L]), gamma_reg=p.gamma,
                       y=np.atleast_2d(run.y_trajectory[p.L]))
        direct = np.linalg.norm(ftap_grad(g, np.atleast_2d(run.mean_final), tp), axis=-1)
        np.testing.assert_allclose(gn, direct / np.sqrt(n), rtol=1e-11)

    def test_q_schedule_used(self, sk):
        g = gen_random(sk, 5, seed=1)
        p = SamplerParams(beta=0.4, delta=0.5, L=3, k_amp=3, k_ngd=5, seed=0)
        run = sample(g, p)
        assert run.q_used[0] == 0.0
        assert np.all(np.diff(run.q_used) >= 0)

    def test_defaults_are_the_schema_defaults(self):
        schema = CONFIG_SCHEMA["properties"]["sampler"]["properties"]
        fields = {f.name: f.default for f in dataclasses.fields(SamplerParams)}
        shared = fields.keys() & schema.keys()
        assert shared == {"delta", "L", "k_amp", "k_ngd", "eta", "gamma", "keep_trajectory"}
        for key in shared:
            assert fields[key] == schema[key]["default"], key
        assert (schema["k_amp"]["default"], schema["eta"]["default"]) == (5, 0.6)
        params = inspect.signature(mean_estimate).parameters
        for key in ("k_amp", "k_ngd", "eta", "gamma"):
            assert params[key].default == fields[key], key

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SamplerParams(beta=0.5, delta=0.0)
        with pytest.raises(ValueError):
            SamplerParams(beta=0.5, L=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, sk, bad):
        with pytest.raises(ValueError, match="delta"):
            SamplerParams(beta=0.5, delta=bad)
        g = gen_random(sk, 4, seed=1)
        with pytest.raises(ValueError, match="beta"):
            sample(g, SamplerParams(beta=bad, L=4))


MIXED_ODD = ((2, 0.5), (3, 0.7), (4, 0.2))


class TestZeroTiltStep:
    """The default estimator is 0 at y = 0 (grad H(0) = 0 for p >= 2), so
    `sample` skips the l = 0 estimate; a `mean_fn` still runs there."""

    KNOBS = dict(k_amp=5, k_ngd=10, eta=0.1, gamma=1.0)
    # total kernel calls of `test_kernel_calls_hand_count`, with the knobs and
    # at the defaults (a fixed step of 0.6 takes 81 at the defaults)
    HAND_COUNTS = {((2, 0.5),): [45, 46], MIXED_ODD: [46, 49]}

    @pytest.mark.parametrize("coeffs", [((2, 0.5),), MIXED_ODD], ids=["sk", "p234"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("ell", [0, 3])
    def test_estimate_is_zero_at_zero_tilt(self, coeffs, rows, ell):
        beta, n = 0.4, 7
        g = gen_random(MixtureSpec(coeffs), n, seed=2)
        q = float(q_schedule(g.spec, beta, 0.5, 3)[ell])
        assert (q > 0.0) == (ell > 0)
        it = localization._estimate(g, np.zeros((rows, n)), beta, q, **self.KNOBS)
        np.testing.assert_array_equal(it.m, np.zeros((rows, n)))
        np.testing.assert_array_equal(it.grad_norm, np.zeros(rows))

    @pytest.mark.parametrize("coeffs", [((2, 0.5),), MIXED_ODD], ids=["sk", "p234"])
    def test_default_matches_mean_fn_long_path(self, coeffs):
        # the mean_fn run still executes the l = 0 estimate
        g = gen_random(MixtureSpec(coeffs), 8, seed=5)
        p = SamplerParams(beta=0.3, delta=0.25, L=4, seed=42, **self.KNOBS)
        qs = []

        def long_path(g_, Y, q):
            qs.append(q)
            return mean_estimate(g_, Y, p.beta, q, **self.KNOBS)

        short = sample(g, p, n_replicas=3)
        long = sample(g, p, n_replicas=3, mean_fn=long_path)
        assert len(qs) == p.L + 1
        for name in ("mean_final", "x_alg", "final_q"):
            np.testing.assert_array_equal(getattr(short, name), getattr(long, name), strict=True)
        np.testing.assert_array_equal(short.step_grad_norms[0], np.zeros(3))

    @pytest.mark.parametrize("coeffs", [((2, 0.5),), MIXED_ODD], ids=["sk", "p234"])
    def test_kernel_calls_hand_count(self, coeffs, monkeypatch, caplog):
        # each estimated step makes k_amp - 1 AMP gradients (none at m^0 = 0),
        # then 1 + steps + halvings NGD value-and-gradient calls: k_ngd steps
        # with the knobs, whose rows stay above NGD_TOL, and fewer at the
        # defaults, where every row freezes early; l = 0 makes no call
        g = gen_random(MixtureSpec(coeffs), 6, seed=3)
        calls, halved = [], []

        def counted(layer, kernel):
            def call(*args):
                calls.append(layer)
                assert args[1].shape == (2, 6)
                return kernel(*args)

            return call

        class Halvings(logging.Handler):
            def emit(self, record):
                if "halved eta" in record.getMessage():
                    halved.append(len(calls))  # the retry is the next call

        monkeypatch.setattr(disorder, "_kernel", counted("amp", disorder._kernel))
        monkeypatch.setattr(tap, "_kernel", counted("ngd", tap._kernel))
        caplog.set_level(logging.DEBUG, logger="glasslocal.tap")
        handler, logger = Halvings(), logging.getLogger("glasslocal.tap")
        logger.addHandler(handler)
        totals = []
        try:
            for knobs in (self.KNOBS, {}):
                p = SamplerParams(beta=0.3, delta=0.25, L=3, seed=7, **knobs)
                calls.clear()
                halved.clear()
                sample(g, p, n_replicas=2)
                runs = [(k, len(list(grp))) for k, grp in itertools.groupby(calls)]
                assert [k for k, _ in runs] == ["amp", "ngd"] * p.L
                assert all(count == p.k_amp - 1 for k, count in runs if k == "amp")
                steps, end = [], 0
                for k, count in runs:
                    start, end = end, end + count
                    if k == "ngd":
                        steps.append(count - 1 - sum(start < h < end for h in halved))
                if knobs:
                    assert steps == [p.k_ngd] * p.L
                else:
                    assert all(1 <= t < p.k_ngd for t in steps)
                assert len(calls) == sum(p.k_amp + t for t in steps) + len(halved)
                totals.append(len(calls))
        finally:
            logger.removeHandler(handler)
        assert totals == self.HAND_COUNTS[coeffs]


class TestNgdNearBeta1:
    """SK at beta = 0.8: the fixed step left 86 of 160 step-rows above
    NGD_TOL with the whole k_ngd budget spent (1,051 kernel calls); the BB
    step reaches NGD_TOL on every row in 765 calls."""

    CALL_BOUND = 950

    def test_every_row_reaches_tol_within_the_call_bound(self, sk, monkeypatch):
        g = gen_random(sk, 300, seed=0)
        p = SamplerParams(beta=0.8, L=10, seed=0)
        calls = []

        def counted(kernel):
            def call(*args):
                calls.append(1)
                return kernel(*args)

            return call

        monkeypatch.setattr(disorder, "_kernel", counted(disorder._kernel))
        monkeypatch.setattr(tap, "_kernel", counted(tap._kernel))
        run = sample(g, p, n_replicas=16)  # safeguard exhaustion would raise
        assert np.all(run.step_grad_norms[1:] / np.sqrt(g.n) <= localization.NGD_TOL)
        assert len(calls) <= self.CALL_BOUND


class TestPinnedCoordinates:
    """At the criterion-05 shape the last step's tilt is about T x = 20 x, so
    AMP hands NGD fields |u| > 19.1, where tanh(u) rounds to +-1.  F is
    evaluated at u, so NGD still reaches a stationary point.  (Evaluating F
    at m clipped to 1 - 1e-12 left ||grad F|| / sqrt(n) near 7 there.)"""

    def test_stationary_at_last_step(self, sk, caplog):
        g = gen_random(sk, 10, seed=100)
        p = SamplerParams(beta=0.25, delta=0.05, L=400, k_amp=30, k_ngd=100, eta=0.1,
                          gamma=1.0, keep_trajectory=True)
        caplog.set_level(logging.DEBUG, logger="glasslocal.tap")
        run = sample(g, p, n_replicas=4)
        assert np.median(run.grad_norm_last) <= 1e-6
        # the last step again, keeping every NGD iterate
        Y = run.y_trajectory[p.L]
        u0 = amp_run(g, Y, p.beta, p.k_amp)[-1].z
        assert np.any(np.abs(u0) > 19.1)
        tp = TapParams(beta=p.beta, q=float(run.q_used[p.L]), gamma_reg=p.gamma, y=Y)
        traj = tap.ngd_run(g, u0, tp, p.eta, p.k_ngd, tol=localization.NGD_TOL, bb=True)
        np.testing.assert_array_equal(traj[-1].m, run.mean_final, strict=True)
        for it in traj:
            pinned = np.abs(it.u) > 19.1
            assert np.all(np.abs(it.m[pinned]) == 1.0)
            assert np.all(np.isfinite(it.ftap)) and np.all(np.isfinite(it.grad_norm))
        assert np.any(np.abs(traj[-1].u) > 19.1)
        assert not [r for r in caplog.records if "halved eta" in r.getMessage()]


@pytest.fixture(scope="module")
def exact_mean_run(sk):
    n, beta = 10, 0.3
    g = gen_random(sk, n, seed=55)
    mean_fn = lambda g_, Y, q: exact_mean_batch(g_, beta, Y)
    p = SamplerParams(
        beta=beta, delta=0.05, L=400, k_amp=1, k_ngd=1, seed=3, keep_trajectory=True
    )
    out = sample(g, p, n_replicas=500, mean_fn=mean_fn, q_values=np.zeros(401))
    return g, beta, out.y_trajectory


class TestExactMeanMode:
    """Idealized dynamics at tiny n: the drift is the enumeration-exact mean."""

    def test_martingale_at_t1(self, exact_mean_run):
        g, beta, traj = exact_mean_run
        mt = exact_mean_batch(g, beta, traj[20])  # t = 1
        pm = mt.mean(axis=0)
        se = mt.std(axis=0, ddof=1) / np.sqrt(mt.shape[0])
        np.testing.assert_array_less(np.abs(pm - exact_gibbs(g, beta).mean), 3 * se + 1e-9)

    @pytest.mark.parametrize("ell,T", [(100, 5.0), (200, 10.0)])
    def test_covariance_contraction(self, exact_mean_run, ell, T):
        g, beta, traj = exact_mean_run
        n = traj.shape[-1]
        mt = exact_mean_batch(g, beta, traj[ell])
        tr = n - np.sum(mt * mt, axis=1)  # tr cov of the tilted measure
        se = tr.std(ddof=1) / np.sqrt(tr.shape[0])
        assert tr.mean() / n <= 1.0 / T + 3 * se / n

    def test_localizes(self, exact_mean_run):
        g, beta, traj = exact_mean_run
        n = traj.shape[-1]
        mt = exact_mean_batch(g, beta, traj[400])  # T = 20
        assert np.mean(np.sum(mt * mt, axis=1)) / n >= 0.9
