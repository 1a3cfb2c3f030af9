import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from glasslocal import (
    MixtureSpec,
    empirical_w2,
    exact_gibbs,
    exact_mean_batch,
    exact_sample,
    gen_random,
    glauber_run,
    hamiltonian,
    overlap_moment,
    partition_rescaled,
)
from glasslocal import baselines, rng
from glasslocal.baselines import ExactGibbs, SampleBatch, _assign
from glasslocal.disorder import DisorderTensors, _flip_field, all_spins, gen_planted


class TestExactGibbs:
    def test_uniform_at_beta_zero(self, sk):
        g = gen_random(sk, 6, seed=0)
        d = exact_gibbs(g, 0.0)
        np.testing.assert_allclose(d.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.cov, np.eye(6), atol=1e-12)
        assert abs(np.exp(d.log_weights).sum() - 1.0) <= 1e-12

    def test_product_tilt(self, sk, gen):
        g = gen_random(sk, 6, seed=1)
        y = gen.standard_normal(6)
        d = exact_gibbs(g, 0.0, y)
        np.testing.assert_allclose(d.mean, np.tanh(y), atol=1e-12)

    def test_hand_enumeration_n2(self, sk):
        # 4-term hand calculation with an explicitly set coupling matrix
        G2 = np.array([[0.3, -1.1], [0.7, 0.2]])
        g = DisorderTensors(n=2, spec=sk, tensors={2: G2}, seed=0, kind="other")
        beta, c2 = 0.6, math.sqrt(0.5)
        # H(x) = c2/sqrt(2) (0.3 + 0.2 + (-1.1 + 0.7) x1 x2); states per bit order
        states = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
        ws = []
        for x1, x2 in states:
            H = c2 / math.sqrt(2.0) * (0.3 + 0.2 + (-1.1 + 0.7) * x1 * x2)
            ws.append(math.exp(beta * H))
        Z = sum(ws)
        want = (
            sum(w * x[0] for w, x in zip(ws, states)) / Z,
            sum(w * x[1] for w, x in zip(ws, states)) / Z,
        )
        d = exact_gibbs(g, beta)
        np.testing.assert_allclose(d.mean, want, atol=1e-14)

    def test_free_energy_derivative(self, sk):
        # d log Z / d beta equals the Gibbs average of the Hamiltonian
        g = gen_random(sk, 10, seed=2)
        beta, eps = 0.4, 1e-6
        lz = lambda b: exact_gibbs(g, b).log_z
        fd = (lz(beta + eps) - lz(beta - eps)) / (2 * eps)
        d = exact_gibbs(g, beta)
        e_h = np.exp(d.log_weights) @ hamiltonian(g, all_spins(10))
        assert fd == pytest.approx(e_h, abs=1e-8)

    def test_enumeration_cap(self, sk):
        too_big = DisorderTensors(n=21, spec=sk, tensors={2: np.zeros((21, 21))}, seed=0)
        with pytest.raises(ValueError):
            exact_gibbs(too_big, 0.1)


class TestExactSample:
    def test_uniform_moments(self, sk):
        g = gen_random(sk, 8, seed=3)
        batch = exact_sample(exact_gibbs(g, 0.0), 4000, seed=1)
        se = 1.0 / np.sqrt(4000)
        assert np.all(np.abs(batch.spins.mean(axis=0)) <= 3 * se)

    def test_point_mass(self, sk):
        g = gen_random(sk, 5, seed=4)
        y = 50.0 * np.ones(5)
        batch = exact_sample(exact_gibbs(g, 0.1, y), 64, seed=2)
        np.testing.assert_array_equal(batch.spins, np.ones((64, 5)))

    def test_decodes_drawn_indices(self, sk):
        dist = exact_gibbs(gen_random(sk, 8, seed=6), 0.7)
        M = 50
        u = rng.stream(9, "exact-sample").uniform(size=M)
        idx = np.searchsorted(np.cumsum(np.exp(dist.log_weights)), u, side="right")
        np.testing.assert_array_equal(exact_sample(dist, M, seed=9).spins, all_spins(8)[idx])

    def test_no_cube_at_the_cap(self):
        # the 2^20 x 20 cube alone would take 168 MB; the CDF takes 2 x 8 MB
        n = 20
        logw = np.full(2**n, -n * math.log(2.0))
        dist = ExactGibbs(n=n, log_weights=logw, log_z=0.0, mean=np.zeros(n), cov=np.eye(n))
        tracemalloc.start()
        try:
            batch = exact_sample(dist, 200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.spins.shape == (200, n)
        assert peak < 40e6

    def test_chi_square_goodness_of_fit(self, sk):
        # n = 4, 1e5 draws vs the exact table at the 1% level
        g = gen_random(sk, 4, seed=5)
        dist = exact_gibbs(g, 0.5)
        M = 100_000
        batch = exact_sample(dist, M, seed=3)
        bits = ((batch.spins + 1) // 2).astype(int)
        idx = bits @ (1 << np.arange(4))
        counts = np.bincount(idx, minlength=16)
        expected = np.exp(dist.log_weights) * M
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        from scipy.stats import chi2 as chi2_dist

        assert chi2 <= chi2_dist.ppf(0.99, df=15)


class TestGlauber:
    def test_beta_zero_fair_coin(self, sk):
        g = gen_random(sk, 6, seed=6)
        batch = glauber_run(g, 0.0, np.ones(6), sweeps=4000, seed=4, burn_in=100, thin=1)
        se = 1.0 / np.sqrt(len(batch))
        assert np.all(np.abs(batch.spins.mean(axis=0)) <= 4 * se)

    def test_deterministic(self, sk):
        g = gen_random(sk, 5, seed=7)
        a = glauber_run(g, 0.4, np.ones(5), sweeps=50, seed=9)
        b = glauber_run(g, 0.4, np.ones(5), sweeps=50, seed=9)
        np.testing.assert_array_equal(a.spins, b.spins)

    @pytest.mark.parametrize("burn_in", [30, 100])
    def test_burn_in_below_sweeps(self, sk, burn_in):
        g = gen_random(sk, 5, seed=7)
        with pytest.raises(ValueError, match="burn_in"):
            glauber_run(g, 0.4, np.ones(5), sweeps=30, seed=9, burn_in=burn_in)

    @pytest.mark.parametrize("thin", [0, -1])
    def test_thin_at_least_one(self, sk, thin):
        g = gen_random(sk, 5, seed=7)
        with pytest.raises(ValueError, match="thin"):
            glauber_run(g, 0.4, np.ones(5), sweeps=30, seed=9, thin=thin)

    @staticmethod
    def _assert_moments_match(g, beta, batch):
        # chain vs exact first and second moments within 12 s.e. of the
        # chain estimate: 3 s.e., inflated by 4 since thinned samples
        # remain correlated
        d = exact_gibbs(g, beta)
        X = batch.spins
        M = X.shape[0]
        se_first = X.std(axis=0, ddof=1) / np.sqrt(M)
        assert np.all(np.abs(X.mean(axis=0) - d.mean) <= 12 * se_first + 1e-12)
        prods = np.einsum("mi,mj->mij", X, X)
        se = prods.std(axis=0, ddof=1) / np.sqrt(M)
        bad = np.abs(X.T @ X / M - (d.cov + np.outer(d.mean, d.mean))) > 12 * se + 1e-12
        np.fill_diagonal(bad, False)
        assert not bad.any()

    def test_pair_correlations_match_enumeration(self, sk):
        n, beta = 8, 0.3
        g = gen_random(sk, n, seed=8)
        batch = glauber_run(g, beta, np.ones(n), sweeps=100_000, seed=5, burn_in=2000, thin=5)
        self._assert_moments_match(g, beta, batch)

    def test_mixed_degree_moments_match_enumeration(self):
        # odd and even degrees on the one flip-field update
        n, beta = 6, 0.3
        g = gen_random(MixtureSpec(((2, 0.5), (3, 0.7))), n, seed=8)
        batch = glauber_run(g, beta, np.ones(n), sweeps=6000, seed=5, burn_in=500, thin=5)
        self._assert_moments_match(g, beta, batch)

    def test_mixed_degree_path(self, mixed):
        g = gen_random(mixed, 5, seed=10)
        batch = glauber_run(g, 0.2, np.ones(5), sweeps=30, seed=11)
        assert len(batch) == 30


FLIP_SPECS = {
    "sk": ((2, 0.5),),
    "p3": ((3, 1.0),),
    "p4": ((4, 1.0),),
    "p234": ((2, 0.5), (3, 0.7), (4, 0.2)),
}


def _flip_instance(name, n):
    if name == "planted":
        x = np.where(rng.stream(1, "x").uniform(size=n) < 0.5, -1.0, 1.0)
        return gen_planted(MixtureSpec(FLIP_SPECS["p234"]), n, 1.0, x, seed=2)
    return gen_random(MixtureSpec(FLIP_SPECS[name]), n, seed=2)


class TestFlipField:
    """`disorder._flip_field` against the Hamiltonian, and its upkeep in
    `glauber_run`."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("name", [*FLIP_SPECS, "planted"])
    def test_matches_hamiltonian_difference(self, name, n, gen):
        g = _flip_instance(name, n)
        for _ in range(3):
            x = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
            phi, d, _, rows = _flip_field(g, x)
            flips = np.repeat(x[None], 2 * n, axis=0)
            flips[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
            H = hamiltonian(g, flips)
            scale = np.abs(H).max()
            np.testing.assert_allclose(2 * d, H[0::2] - H[1::2], rtol=1e-12, atol=1e-12 * scale)
            for j in range(n):
                y = x.copy()
                y[j] = -y[j]
                phi_j, d_j, _, _ = _flip_field(g, y)
                assert d_j[j] == d[j]  # d_j does not read x_j
                # R_j: exactly the monomials the flip negates (none for p = 3 at n = 1)
                np.testing.assert_array_equal(rows[j], np.flatnonzero(phi_j != phi))
                np.testing.assert_array_equal(phi_j[rows[j]], -phi[rows[j]])

    @pytest.mark.parametrize("name", ["sk", "p234"])
    def test_maintained_field_matches_fresh(self, name, monkeypatch):
        # the chain's d and phi after 200 sweeps against a fresh evaluation
        n = 12
        g = _flip_instance(name, n)
        kept = []

        def capture(*args):
            kept.append(_flip_field(*args))
            return kept[-1]

        monkeypatch.setattr(baselines, "_flip_field", capture)
        batch = glauber_run(g, 0.5, np.ones(n), sweeps=200, seed=3)
        phi, d, _, _ = kept[0]
        fresh_phi, fresh_d, _, _ = _flip_field(g, batch.spins[-1])
        np.testing.assert_array_equal(phi, fresh_phi)
        np.testing.assert_allclose(d, fresh_d, rtol=1e-12, atol=1e-12 * np.abs(fresh_d).max())


class TestW2:
    def _batch(self, spins):
        return SampleBatch(spins=np.asarray(spins, dtype=float))

    def test_identical_batches(self, gen):
        spins = np.where(gen.uniform(size=(40, 6)) < 0.5, -1.0, 1.0)
        assert empirical_w2(self._batch(spins), self._batch(spins)) == 0.0

    def test_singletons(self):
        x = np.ones((1, 4))
        y = np.array([[1.0, -1.0, 1.0, -1.0]])
        want = math.sqrt(8.0 / 4.0)
        assert empirical_w2(self._batch(x), self._batch(y)) == pytest.approx(want)

    def test_matches_exhaustive_assignment(self, gen):
        # M = 3 vs brute force over all 3! assignments
        a = np.where(gen.uniform(size=(3, 5)) < 0.5, -1.0, 1.0)
        b = np.where(gen.uniform(size=(3, 5)) < 0.5, -1.0, 1.0)
        cost = np.array([[np.sum((x - y) ** 2) / 5 for y in b] for x in a])
        best = min(
            np.mean([cost[i, p[i]] for i in range(3)])
            for p in itertools.permutations(range(3))
        )
        assert empirical_w2(self._batch(a), self._batch(b)) == pytest.approx(math.sqrt(best))

    def test_symmetry_and_triangle(self, gen):
        mk = lambda: self._batch(np.where(gen.uniform(size=(25, 8)) < 0.5, -1.0, 1.0))
        a, b, c = mk(), mk(), mk()
        assert empirical_w2(a, b) == pytest.approx(empirical_w2(b, a), abs=1e-12)
        assert empirical_w2(a, c) <= empirical_w2(a, b) + empirical_w2(b, c) + 1e-9

    def test_size_guards(self, gen):
        a = self._batch(np.ones((3, 4)))
        b = self._batch(np.ones((4, 4)))
        with pytest.raises(ValueError):
            empirical_w2(a, b)

    def test_unequal_dimension_named(self):
        a = self._batch(np.ones((3, 4)))
        b = self._batch(np.ones((3, 5)))
        with pytest.raises(ValueError, match="equal dimension: n = 4 and 5"):
            empirical_w2(a, b)
        with pytest.raises(ValueError, match="equal dimension: n = 4 and 5"):
            overlap_moment(a, b)

    def test_empty_named(self, recwarn):
        empty = self._batch(np.ones((0, 4)))
        with pytest.raises(ValueError, match="batches must be nonempty"):
            empirical_w2(empty, empty)
        assert not recwarn.list


def _spins(gen, N, n):
    return np.where(gen.uniform(size=(N, n)) < 0.5, -1.0, 1.0)


@st.composite
def spin_pairs(draw):
    """Two N x n spin batches, N in 1..60 and n in 1..20.  Rows come from a pool
    of k distinct draws, so small k gives duplicated rows and many tied costs;
    b is fresh, drawn from the same pool, a itself, or a permutation of a."""
    N, n = draw(st.integers(1, 60)), draw(st.integers(1, 20))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = _spins(gen, draw(st.integers(1, N)), n)
    a = pool[gen.integers(0, len(pool), size=N)]
    b = {
        "fresh": lambda: _spins(gen, N, n),
        "pool": lambda: pool[gen.integers(0, len(pool), size=N)],
        "same": lambda: a.copy(),
        "permuted": lambda: a[gen.permutation(N)],
    }[draw(st.sampled_from(["fresh", "pool", "same", "permuted"]))]()
    return a, b


class TestAssign:
    """The numpy assignment solver against scipy's `linear_sum_assignment`."""

    def _check(self, a, b):
        N, n = a.shape
        D = (n - a @ b.T) / 2
        cols = _assign(D)
        assert np.array_equal(np.sort(cols), np.arange(N))
        rows, ref = linear_sum_assignment(D)
        assert int(D[np.arange(N), cols].sum()) == int(D[rows, ref].sum())
        cost = (2.0 * n - 2.0 * (a @ b.T)) / n
        want = math.sqrt(cost[rows, ref].mean())
        got = empirical_w2(SampleBatch(spins=a), SampleBatch(spins=b))
        assert abs(got - want) <= 1e-15 * want

    @given(spin_pairs())
    @settings(max_examples=300, deadline=None)
    @example((np.ones((1, 1)), -np.ones((1, 1))))
    @example((np.ones((5, 3)), np.ones((5, 3))))
    def test_matches_scipy(self, pair):
        self._check(*pair)

    @pytest.mark.parametrize("N, n", [(40, 1), (200, 12), (500, 10)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scipy_seeded(self, N, n, seed):
        gen = np.random.default_rng(seed)
        self._check(_spins(gen, N, n), _spins(gen, N, n))


class TestExactGibbsTilt:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tilt(self, sk, bad):
        g = gen_random(sk, 4, seed=20)
        with pytest.raises(ValueError, match="tilt y must be finite"):
            exact_gibbs(g, 0.3, np.array([bad, 0.0, 0.0, 0.0]))


class TestNonFiniteInput:
    CALLS = {
        "exact_gibbs": lambda g, v: exact_gibbs(g, v),
        "partition_rescaled": lambda g, v: partition_rescaled(g, v),
        "exact_mean_batch-beta": lambda g, v: exact_mean_batch(g, v, np.zeros((2, 4))),
        "exact_mean_batch-Y": lambda g, v: exact_mean_batch(g, 0.3, np.array([[0.0] * 4, [v] * 4])),
        "glauber_run": lambda g, v: glauber_run(g, v, np.ones(4), sweeps=5, seed=0),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", CALLS)
    def test_rejected_by_name(self, sk, call, bad):
        g = gen_random(sk, 4, seed=20)
        name = "Y" if call.endswith("-Y") else "beta"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            self.CALLS[call](g, bad)


class TestBatchBits:
    def test_roundtrip(self, gen, tmp_path):
        from glasslocal import read_batch_bits, write_batch_bits

        spins = np.where(gen.uniform(size=(17, 11)) < 0.5, -1.0, 1.0)
        path = tmp_path / "batch.bits"
        write_batch_bits(path, SampleBatch(spins=spins))
        back = read_batch_bits(path)
        np.testing.assert_array_equal(back.spins, spins)
        # u32 n header precedes the packed rows
        raw = path.read_bytes()
        assert int.from_bytes(raw[:4], "little") == 11
        assert len(raw) == 4 + 17 * 2

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(8, 1, 0)
    @example(9, 3, 0)
    def test_roundtrip_any_n(self, tmp_path_factory, n, M, seed):
        from glasslocal import read_batch_bits, write_batch_bits

        spins = _spins(np.random.default_rng(seed), M, n)
        path = tmp_path_factory.mktemp("bits") / "b.bits"
        write_batch_bits(path, SampleBatch(spins=spins))
        assert path.stat().st_size == 4 + M * ((n + 7) // 8)
        back = read_batch_bits(path)
        np.testing.assert_array_equal(back.spins, spins, strict=True)

    @pytest.mark.parametrize("n, row", [(6, 0b00000010), (6, 0b00000001), (9, 0b01000000)])
    def test_set_padding_bit_rejected(self, tmp_path, n, row):
        # a row written for a larger n: its bits past n are data, not padding
        from glasslocal import read_batch_bits

        path = tmp_path / "pad.bits"
        path.write_bytes(n.to_bytes(4, "little") + bytes([0xFF] * (n // 8) + [row]))
        with pytest.raises(ValueError, match=f"sets a padding bit past n = {n}"):
            read_batch_bits(path)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_batch_needs_a_column(self, shape):
        # at n = 0, empirical_w2 would divide by zero and overlap_moment give NaN
        with pytest.raises(ValueError, match="n >= 1 columns"):
            SampleBatch(spins=np.ones(shape))

    def test_padding_is_zero(self):
        from glasslocal.baselines import _pack_spins, _unpack_spins

        rows = _pack_spins(np.ones((2, 6)))
        assert rows.tolist() == [[0b11111100]] * 2
        np.testing.assert_array_equal(_unpack_spins(rows, 6), np.ones((2, 6)))

    def test_oversized_rejected_before_decoding(self, tmp_path):
        # 3000 rows at n = 1000 are 375 KB on disk and 24 MB as float spins;
        # the cap is checked first, so the read peaks near the file's size
        import tracemalloc

        from glasslocal import read_batch_bits
        from glasslocal.baselines import W2_BATCH_CAP

        M, n = W2_BATCH_CAP + 1000, 1000
        path = tmp_path / "big.bits"
        path.write_bytes(n.to_bytes(4, "little") + bytes(M * n // 8))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"batch size {M} exceeds the cap {W2_BATCH_CAP}"):
                read_batch_bits(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * M * n // 8

    def test_corrupt_rejected(self, tmp_path):
        from glasslocal import read_batch_bits

        path = tmp_path / "bad.bits"
        path.write_bytes((9).to_bytes(4, "little") + b"\x01\x02\x03")
        with pytest.raises(ValueError):
            read_batch_bits(path)


class TestOverlapMoment:
    def test_self_single(self):
        b = SampleBatch(spins=np.ones((1, 6)))
        assert overlap_moment(b, b) == 1.0

    def test_independent_uniform(self, gen):
        n, M = 100, 200
        a = SampleBatch(spins=np.where(gen.uniform(size=(M, n)) < 0.5, -1.0, 1.0))
        b = SampleBatch(spins=np.where(gen.uniform(size=(M, n)) < 0.5, -1.0, 1.0))
        val = overlap_moment(a, b)
        # E q^2 = 1/n for independent uniform spins
        assert abs(val - 1.0 / n) <= 3 * (1.0 / n) / np.sqrt(M)

    def test_beta_zero_exact_batches(self, sk):
        g = gen_random(sk, 10, seed=12)
        d = exact_gibbs(g, 0.0)
        a = exact_sample(d, 400, seed=6)
        b = exact_sample(d, 400, seed=7)
        assert abs(overlap_moment(a, b) - 0.1) <= 0.02
