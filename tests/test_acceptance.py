"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds, so every outcome is reproducible.
Runtime budgets are asserted at the stated limits.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import glasslocal as gl
from glasslocal import rng
from glasslocal.baselines import SampleBatch
from glasslocal.cli import main as cli_main
from glasslocal.localization import SamplerParams
from glasslocal.tap import TapParams

from conftest import planted_instance

RESULTS = []


def record(name, ok, detail, budget_s, elapsed_s):
    ok = bool(ok) and elapsed_s < budget_s
    RESULTS.append((name, ok, f"{detail} [{elapsed_s:.1f}s / budget {budget_s:.0f}s]"))
    assert ok, f"{name}: {detail} (elapsed {elapsed_s:.1f}s, budget {budget_s:.0f}s)"


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


@pytest.fixture(scope="module")
def sk():
    return gl.MixtureSpec.sk()


def test_criterion_01_sk_thresholds(sk):
    with Timer() as t:
        b1, b2, b3, bc = gl.beta1(sk), gl.beta2(sk), gl.beta3(sk), gl.beta_c_rs(sk)
    ok = (
        abs(b1 - 1.0) <= 1e-3
        and abs(b2 - 1.0) <= 1e-3
        and b3 == 0.5
        and abs(bc - 1.0) <= 2e-3
    )
    record(
        "01 quadratic-model thresholds",
        ok,
        f"beta1={b1:.5f} beta2={b2:.5f} beta3={b3} beta_c={bc:.5f}",
        30,
        t.elapsed,
    )


def test_criterion_02_scalar_identities():
    with Timer() as t:
        ok = gl.psi(0.0) <= 1e-12 and abs(gl.psi_prime(0.0) - 1.0) <= 1e-6
        gs = np.linspace(0.0, 25.0, 200)
        vals = gl.psi(gs)
        ok &= bool(np.all(np.diff(vals) > 0) and np.all(np.diff(vals, 2) < 1e-8))
        qs = np.linspace(0.0, 0.99, 100)
        resid = np.max(np.abs(gl.psi(gl.phi(qs)) - qs))
        ok &= resid <= 1e-10
    record("02 scalar identities", ok, f"inverse residual {resid:.1e}", 5, t.elapsed)


def test_criterion_03_amp_tracks_state_evolution(sk):
    beta, n, seeds = 0.5, 2000, range(5)
    with Timer() as t:
        worst_mse = worst_q = 0.0
        for tt in (0.5, 1.0, 2.0):
            q = gl.se_recursion(sk, beta, tt, K=12).q_sequence
            mse = np.zeros((len(seeds), 10))
            qh = np.zeros((len(seeds), 10))
            for i, seed in enumerate(seeds):
                g, x, y = planted_instance(sk, n, beta, tt, seed)
                for st in gl.amp_run(g, y, beta, K=10, keep_history=True):
                    mse[i, st.k - 1] = np.mean((st.m_hat - x) ** 2)
                    qh[i, st.k - 1] = st.q_hat
            ks = np.arange(1, 11)
            worst_mse = max(worst_mse, np.max(np.abs(mse.mean(0) - (1.0 - q[ks + 1]))))
            worst_q = max(worst_q, np.max(np.abs(qh.mean(0) - q[ks])))
        ok = worst_mse <= 0.05 and worst_q <= 0.05
    record(
        "03 message passing vs state evolution",
        ok,
        f"max|mse-pred|={worst_mse:.4f} max|q-pred|={worst_q:.4f} (<=0.05)",
        120,
        t.elapsed,
    )


def test_criterion_04_mean_estimation_oracle(sk):
    beta, tt, n = 0.3, 2.0, 12
    with Timer() as t:
        qstar = gl.se_recursion(sk, beta, tt, K=1).q_star
        errs = []
        for seed in range(20):
            g, x, y = planted_instance(sk, n, beta, tt, seed)
            m_hat = gl.mean_estimate(g, y, beta, qstar, k_amp=30, k_ngd=100)
            errs.append(np.linalg.norm(m_hat - gl.exact_gibbs(g, beta, y).mean) / np.sqrt(n))
        err = float(np.mean(errs))
    record("04 mean estimation vs enumeration", err <= 0.15, f"mean err {err:.4f} (<=0.15)", 120, t.elapsed)


@pytest.mark.slow  # most of the suite's time; `pytest -m "not slow"` skips it
def test_criterion_05_end_to_end_sampler(sk):
    n, beta, M = 10, 0.25, 500
    with Timer() as t:
        w2_alg, w2_base = [], []
        params = SamplerParams(beta=beta, delta=0.05, L=400, k_amp=30, k_ngd=100, eta=0.1, gamma=1.0)
        for seed in range(5):
            g = gl.gen_random(sk, n, seed=100 + seed)
            run = gl.sample(g, params, n_replicas=M)
            alg = SampleBatch(spins=np.atleast_2d(run.x_alg), provenance="algorithm")
            dist = gl.exact_gibbs(g, beta)
            ex1 = gl.exact_sample(dist, M, seed=2 * seed + 1)
            ex2 = gl.exact_sample(dist, M, seed=2 * seed + 2)
            w2_alg.append(gl.empirical_w2(alg, ex1))
            w2_base.append(gl.empirical_w2(ex2, ex1))
        med_alg = float(np.median(w2_alg))
        bound = 2.0 * float(np.median(w2_base)) + 0.05
    record(
        "05 end-to-end sampler transport error",
        med_alg <= bound,
        f"median W2(alg)={med_alg:.4f} <= {bound:.4f}",
        900,
        t.elapsed,
    )


def test_criterion_06_localization_invariants(sk):
    n, beta, paths = 10, 0.3, 500
    with Timer() as t:
        g = gl.gen_random(sk, n, seed=55)
        mean_fn = lambda g_, Y, q: gl.exact_mean_batch(g_, beta, Y)
        p = SamplerParams(beta=beta, delta=0.05, L=400, k_amp=1, k_ngd=1, seed=3, keep_trajectory=True)
        run = gl.sample(g, p, n_replicas=paths, mean_fn=mean_fn, q_values=np.zeros(401))
        traj = run.y_trajectory
        # (a) martingale at t = 1
        mt = gl.exact_mean_batch(g, beta, traj[20])
        se = mt.std(axis=0, ddof=1) / np.sqrt(paths)
        mart_ok = bool(np.all(np.abs(mt.mean(0) - gl.exact_gibbs(g, beta).mean) <= 3 * se + 1e-9))
        # (b) covariance contraction at T in {5, 10}
        cov_ok = True
        for ell, T in ((100, 5.0), (200, 10.0)):
            m_T = gl.exact_mean_batch(g, beta, traj[ell])
            tr = n - np.sum(m_T * m_T, axis=1)
            cov_ok &= tr.mean() / n <= 1.0 / T + 3 * tr.std(ddof=1) / np.sqrt(paths) / n
        # (c) localization at T = 20
        m_end = gl.exact_mean_batch(g, beta, traj[400])
        loc = float(np.mean(np.sum(m_end * m_end, axis=1)) / n)
        ok = mart_ok and cov_ok and loc >= 0.9
    record(
        "06 localization invariants",
        ok,
        f"martingale={mart_ok} covariance={cov_ok} final |m|^2/n={loc:.3f} (>=0.9)",
        600,
        t.elapsed,
    )


def test_criterion_07_partition_identity(sk):
    with Timer() as t:
        zs = np.array(
            [gl.partition_rescaled(gl.gen_random(sk, 10, seed=s), 0.3) for s in range(2000)]
        )
        se = zs.std(ddof=1) / np.sqrt(zs.size)
        dev = abs(zs.mean() - 1.0)
    record("07 rescaled partition identity", dev <= 3 * se, f"|E Z - 1| = {dev:.4f} <= 3se = {3*se:.4f}", 120, t.elapsed)


def test_criterion_08_calculus_consistency(mixed):
    n = 8
    with Timer() as t:
        g = gl.gen_random(mixed, n, seed=41)
        gen = np.random.default_rng(17)
        m = gen.uniform(-0.85, 0.85, n)
        y = gen.standard_normal(n)
        params = TapParams(beta=0.5, q=0.3, gamma_reg=1.2, y=y)
        eps = 1e-6
        eye = np.eye(n)
        fd_g = np.array(
            [(gl.hamiltonian(g, m + eps * e) - gl.hamiltonian(g, m - eps * e)) / (2 * eps) for e in eye]
        )
        r1 = np.max(np.abs(fd_g - gl.grad(g, m))) / max(np.abs(gl.grad(g, m)).max(), 1.0)
        fd_h = np.array([(gl.grad(g, m + eps * e) - gl.grad(g, m - eps * e)) / (2 * eps) for e in eye])
        r2 = np.max(np.abs(fd_h - gl.hessian(g, m))) / max(np.abs(gl.hessian(g, m)).max(), 1.0)
        fd_tg = np.array(
            [(gl.ftap_value(g, m + eps * e, params) - gl.ftap_value(g, m - eps * e, params)) / (2 * eps) for e in eye]
        )
        r3 = np.max(np.abs(fd_tg - gl.ftap_grad(g, m, params))) / max(np.abs(gl.ftap_grad(g, m, params)).max(), 1.0)
        fd_th = np.array(
            [(gl.ftap_grad(g, m + eps * e, params) - gl.ftap_grad(g, m - eps * e, params)) / (2 * eps) for e in eye]
        )
        r4 = np.max(np.abs(fd_th - gl.ftap_hessian(g, m, params))) / max(
            np.abs(gl.ftap_hessian(g, m, params)).max(), 1.0
        )
        e2 = 1e-7
        r5 = abs(
            (gl.ons(mixed, 0.5, 0.3 + e2) - gl.ons(mixed, 0.5, 0.3 - e2)) / (2 * e2)
            - gl.ons_prime(mixed, 0.5, 0.3)
        )
        ok = r1 <= 1e-6 and r2 <= 1e-5 and r3 <= 1e-6 and r4 <= 1e-5 and r5 <= 1e-8
    record(
        "08 calculus consistency",
        ok,
        f"grad={r1:.1e} hess={r2:.1e} tap-grad={r3:.1e} tap-hess={r4:.1e} ons'={r5:.1e}",
        60,
        t.elapsed,
    )


def test_criterion_09_ngd_contract(sk):
    beta, tt, n = 0.5, 1.0, 2000
    with Timer() as t:
        g, x, y = planted_instance(sk, n, beta, tt, seed=0)
        z0 = gl.amp_run(g, y, beta, K=30, keep_history=False)[-1].z
        qstar = gl.se_recursion(sk, beta, tt, K=1).q_star
        params = TapParams(beta=beta, q=qstar, gamma_reg=1.0, y=y)
        eta = 0.1
        traj = gl.ngd_run(g, z0, params, eta=eta, K=100)
        vals = np.array([it.ftap for it in traj])
        mono = bool(np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[:-1]))))
        # per-step mirror-descent residual against the nominal step
        resid = 0.0
        u = z0.copy()
        for it in traj:
            gvec = gl.ftap_grad(g, np.tanh(u), params)
            target = u - eta * gvec
            resid = max(resid, float(np.max(np.abs(np.arctanh(it.m) - target))))
            u = it.u
        gn = traj[-1].grad_norm / np.sqrt(n)
        ok = mono and resid <= 1e-10 and gn <= 1e-3
    record(
        "09 natural-gradient contract",
        ok,
        f"mirror residual={resid:.1e} (<=1e-10), monotone={mono}, final |grad|/sqrt(n)={gn:.1e} (<=1e-3)",
        60,
        t.elapsed,
    )


def test_criterion_10_relative_hessian_convexity(sk):
    n, beta = 300, 0.3
    with Timer() as t:
        bound = 1.0 - 2.2 * beta
        rates = {}
        for gamma in (0.0, 1.0):
            hits = 0
            for seed in range(50):
                g = gl.gen_random(sk, n, seed)
                m = rng.stream(seed, "m").uniform(-0.9, 0.9, n)
                params = TapParams(beta=beta, q=float(m @ m) / n, gamma_reg=gamma, y=np.zeros(n))
                lo, _ = gl.relative_hessian_extremes(g, m, params)
                hits += lo >= bound
            rates[gamma] = hits
        ok = all(v >= 48 for v in rates.values())  # 95% of 50
    record(
        "10 relative-Hessian convexity",
        ok,
        f"min-eig >= {bound:.2f} in {rates[0.0]}/50 (reg off) and {rates[1.0]}/50 (reg on)",
        300,
        t.elapsed,
    )


def test_criterion_11_beta_dyn_asymptotics():
    with Timer() as t:
        vals = {p: gl.beta_dyn(gl.MixtureSpec.pure(p)) for p in (50, 100, 200)}
        ratio = vals[100] / np.sqrt(2 * np.log(100) / 100)
        ok = 0.7 <= ratio <= 1.3 and vals[50] > vals[100] > vals[200]
    record(
        "11 dynamical threshold asymptotics",
        ok,
        f"ratio(p=100)={ratio:.3f} in [0.7,1.3]; decreasing {vals[50]:.3f}>{vals[100]:.3f}>{vals[200]:.3f}",
        120,
        t.elapsed,
    )


def test_criterion_12_disorder_chaos_trend(sk):
    n, beta = 12, 2.0
    s_grid = (0.0, 0.1, 0.3, 1.0)
    with Timer() as t:
        rows = gl.chaos_experiment(sk, n, beta, s_grid, seeds=range(20), batch_size=200)
        neg = 0
        for seed in range(20):
            vals = [r["overlap_moment"] for s in s_grid for r in rows if r["seed"] == seed and r["s"] == s]
            neg += spearmanr(s_grid, vals).statistic < 0
        p = SamplerParams(beta=beta, delta=0.25, L=8, k_amp=8, k_ngd=15, seed=0)
        st = gl.stability_experiment(sk, 8, 0.25, [0.0], p, seeds=[3], n_replicas=4)
        zero_exact = st[0]["spin_distance"] == 0.0 and st[0]["mean_distance"] == 0.0
        ok = neg >= 18 and zero_exact
    record(
        "12 disorder-chaos trend",
        ok,
        f"decreasing trend in {neg}/20 aggregates (>=18); coupled s=0 distance exactly 0: {zero_exact}",
        600,
        t.elapsed,
    )


def test_criterion_13_determinism(tmp_path):
    cases = {
        "gen-disorder": ["--n", "4", "--seed", "3"],
        "thresholds": ["--mixture", '{"2": 0.5}'],
        "se": ["--beta", "0.4", "--set", "se.t_max=0.5", "--set", "se.t_step=0.25"],
        "amp": ["--n", "100", "--beta", "0.4", "--seed", "1", "--set", "amp.k=3"],
        "tap": ["--n", "40", "--beta", "0.3", "--seed", "2", "--set", "tap.k_amp=5"],
        "sample": [
            "--n", "8", "--beta", "0.25", "--seed", "11",
            "--set", "sampler.L=4", "--set", "sampler.delta=0.25",
            "--set", "sampler.k_amp=5", "--set", "sampler.k_ngd=8",
            "--set", "sampler.replicas=3",
        ],
        "exact": ["--n", "6", "--beta", "0.2", "--seed", "4", "--set", "exact.m_samples=20"],
        "glauber": [
            "--n", "5", "--beta", "0.2", "--seed", "5",
            "--set", "glauber.sweeps=20", "--set", "glauber.burn_in=5",
        ],
        "chaos": [
            "--n", "6", "--beta", "0.5", "--seed", "0",
            "--set", "chaos.s_list=[0.0,0.5]", "--set", "chaos.n_seeds=2",
            "--set", "chaos.batch_size=20",
        ],
        "stability": [
            "--n", "6", "--beta", "0.2", "--seed", "0",
            "--set", "stability.s_list=[0.0,0.5]", "--set", "stability.n_seeds=1",
            "--set", "stability.replicas=2", "--set", "sampler.L=3",
            "--set", "sampler.delta=0.25", "--set", "sampler.k_amp=3",
            "--set", "sampler.k_ngd=5",
        ],
    }
    # w2 compares two batch files; it reuses the first exact output
    batch = tmp_path / "exact-0.out"
    cases["w2"] = ["--set", f'w2.batch_a="{batch}"', "--set", f'w2.batch_b="{batch}"']
    with Timer() as t:
        diffs = []
        for kind, extra in cases.items():
            outs = [tmp_path / f"{kind}-{i}.out" for i in range(3)]
            for out in outs[:2]:
                code = cli_main([kind, *extra, "--out", str(out)])
                assert code == 0, f"{kind} exited {code}"
            # third run: from the first run's echoed config, with `out` rewritten
            resolved = json.loads((tmp_path / f"{kind}-0.out.config.json").read_text())
            resolved["out"] = str(outs[2])
            echo = tmp_path / f"{kind}.json"
            echo.write_text(json.dumps(resolved))
            code = cli_main([kind, "--config", str(echo)])
            assert code == 0, f"{kind} from its echoed config exited {code}"
            if len({out.read_bytes() for out in outs}) != 1:
                diffs.append(kind)
        ok = not diffs
    record(
        "13 determinism across reruns",
        ok,
        "all subcommands byte-identical across two reruns and the echoed config"
        if ok
        else f"differs: {diffs}",
        600,
        t.elapsed,
    )
