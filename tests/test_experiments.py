import numpy as np
import pytest
from scipy.stats import spearmanr

from glasslocal import MixtureSpec, chaos_experiment, stability_experiment
from glasslocal.localization import SamplerParams

S_GRID = (0.0, 0.1, 0.3, 1.0)


def _curves(rows, key="s"):
    seeds = sorted({r["seed"] for r in rows})
    out = {}
    for seed in seeds:
        d = {r[key]: r for r in rows if r["seed"] == seed}
        out[seed] = d
    return out


@pytest.fixture(scope="module")
def chaos_rows(sk):
    return chaos_experiment(sk, 12, 2.0, S_GRID, seeds=range(8), batch_size=200)


@pytest.fixture(scope="module")
def stability_params():
    return SamplerParams(beta=0.25, delta=0.25, L=8, k_amp=8, k_ngd=15, seed=0)


class TestChaos:
    def test_s_zero_matches_resampling_baseline(self, chaos_rows):
        # at s = 0 the two measures coincide: W2 is pure resampling noise,
        # far below the decorrelated s = 1 distance
        for seed, d in _curves(chaos_rows).items():
            assert d[0.0]["w2"] < d[1.0]["w2"]

    def test_overlap_trend_negative(self, chaos_rows):
        for seed, d in _curves(chaos_rows).items():
            vals = [d[s]["overlap_moment"] for s in S_GRID]
            assert spearmanr(S_GRID, vals).statistic < 0

    def test_beta_zero_flat(self, sk):
        rows = chaos_experiment(sk, 10, 0.0, (0.0, 0.5, 1.0), seeds=[1, 2], batch_size=400)
        for r in rows:
            assert abs(r["overlap_moment"] - 0.1) <= 0.03

    def test_batch_over_cap_rejected_before_enumeration(self, sk, monkeypatch):
        from glasslocal import experiments
        from glasslocal.baselines import W2_BATCH_CAP

        calls = []

        def exact_gibbs(g, beta):
            calls.append(g.n)
            raise RuntimeError("enumerated")

        monkeypatch.setattr(experiments, "exact_gibbs", exact_gibbs)
        with pytest.raises(ValueError, match=f"batch size 3000 exceeds the cap {W2_BATCH_CAP}"):
            chaos_experiment(sk, 12, 0.3, (0.0,), seeds=[0, 1], batch_size=3000)
        assert calls == []
        with pytest.raises(RuntimeError, match="enumerated"):  # the cap itself is allowed
            chaos_experiment(sk, 12, 0.3, (0.0,), seeds=[0], batch_size=W2_BATCH_CAP)
        assert calls == [12]


class TestStability:
    def test_s_zero_exact(self, sk, stability_params):
        rows = stability_experiment(sk, 8, 0.25, [0.0], stability_params, seeds=[3], n_replicas=4)
        assert rows[0]["spin_distance"] == 0.0
        assert rows[0]["mean_distance"] == 0.0

    def test_trend_nondecreasing(self, sk, stability_params):
        rows = stability_experiment(
            sk, 8, 0.25, [0.0, 0.1, 0.3, 0.6, 1.0], stability_params, seeds=range(4), n_replicas=8
        )
        s_vals = sorted({r["s"] for r in rows})
        mean_curve = [np.mean([r["mean_distance"] for r in rows if r["s"] == s]) for s in s_vals]
        rho = spearmanr(s_vals, mean_curve).statistic
        assert rho > 0

    def test_one_q_schedule_per_call(self, sk, monkeypatch):
        from glasslocal import experiments, localization, state_evolution

        calls = []

        def counted(*args):
            calls.append(args)
            return state_evolution.q_schedule(*args)

        for module in (experiments, localization):
            monkeypatch.setattr(module, "q_schedule", counted, raising=False)
        params = SamplerParams(beta=0.2, delta=0.25, L=2, k_amp=2, k_ngd=2, seed=0)
        rows = stability_experiment(sk, 4, 0.2, [0.0, 0.5, 1.0], params, seeds=[0, 1], n_replicas=2)
        assert len(rows) == 6
        assert len(calls) == 1
