import itertools
import math
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glasslocal import (
    MixtureSpec,
    gen_planted,
    gen_random,
    grad,
    hamiltonian,
    hessian,
    interpolate,
    partition_rescaled,
    read_tensors,
    write_tensors,
)
from glasslocal import disorder
from glasslocal.disorder import DisorderTensors, _logsumexp, all_spins
from glasslocal.tap import TapParams, ngd_run

REFERENCE_SPECS = [((2, 0.5),), ((3, 0.7),), ((4, 0.2),), ((2, 0.5), (3, 0.7), (4, 0.2))]


def _reference(g, X):
    """H and grad H on rows by naive einsum, one call per derivative slot."""
    val, out = np.zeros(len(X)), np.zeros_like(X)
    for p, T in g.tensors.items():
        scale = g.spec.c(p) / g.n ** ((p - 1) / 2)
        idx = "ijkl"[:p]
        val += scale * np.einsum(idx + "".join(",a" + c for c in idx) + "->a", T, *[X] * p)
        for s in range(p):
            rest = "".join(",a" + c for j, c in enumerate(idx) if j != s)
            out += scale * np.einsum(idx + rest + "->a" + idx[s], T, *[X] * (p - 1))
    return val, out


def _reference_hessian(g, m):
    """The Hessian at one vector by naive einsum, one call per ordered pair
    of derivative slots."""
    out = np.zeros((g.n, g.n))
    for p, T in g.tensors.items():
        scale = g.spec.c(p) / g.n ** ((p - 1) / 2)
        idx = "ijkl"[:p]
        for s, r in itertools.permutations(range(p), 2):
            rest = "".join("," + c for j, c in enumerate(idx) if j not in (s, r))
            out += scale * np.einsum(idx + rest + "->" + idx[s] + idx[r], T, *[m] * (p - 2))
    return out


def _allocating_kernel(g, X):
    """The kernel with fresh arrays for every block, level and product, and
    each degree's monomials built from X afresh: the reference for its
    in-place form."""
    M, n = X.shape
    levels, packed = disorder._packed(g)
    val, gr = np.zeros(M), np.zeros((M, n))
    rows = disorder._block_rows(g)
    for lo in range(0, M, rows):
        Xb = X[lo : lo + rows]
        for p, C in packed.items():
            phi = Xb.T
            for prev, last in levels[: p - 2]:
                phi = phi[prev] * Xb.T[last]
            A = phi.T @ C
            scale = g.spec.c(p) / n ** ((p - 1) / 2)
            val[lo : lo + rows] += scale * (np.matmul(A[:, None, :], Xb[:, :, None])[:, 0, 0] / p)
            gr[lo : lo + rows] += scale * A
    return val, gr


def _past_block(g):
    """A row count that splits a batch into two row blocks."""
    return disorder._block_rows(g) + 2


def _colex_monomials(n, k, x):
    """The sorted k-multisets of range(n) in colex order, by enumeration,
    and x^gamma for each."""
    gammas = sorted(itertools.combinations_with_replacement(range(n), k), key=lambda c: c[::-1])
    return gammas, np.array([np.prod(x[list(c)]) for c in gammas])


class TestGeneration:
    def test_reproducible(self, sk):
        a = gen_random(sk, 2, seed=4)
        b = gen_random(sk, 2, seed=4)
        assert a.tensors[2].size == 4
        np.testing.assert_array_equal(a.tensors[2], b.tensors[2])

    def test_different_seeds_differ(self, sk):
        a = gen_random(sk, 4, seed=1)
        b = gen_random(sk, 4, seed=2)
        assert a.tensors[2].flat[0] != b.tensors[2].flat[0]

    def test_entry_statistics(self, sk):
        g = gen_random(sk, 1000, seed=0)
        e = g.tensors[2].ravel()
        assert abs(e.mean()) <= 4 / np.sqrt(e.size)
        assert 0.99 <= e.var() <= 1.01

    def test_budget_rejected(self, sk):
        # 4e8 entries, past ENTRY_BUDGET: raises before allocating
        with pytest.raises(ValueError, match="tensor budget exceeded"):
            gen_random(sk, 20_000, seed=0)

    def test_scalar_only_rejected(self):
        with pytest.raises(ValueError):
            gen_random(MixtureSpec.pure(100), 4, seed=0)


class TestPlanted:
    def test_beta_zero_reduces_to_random(self, mixed):
        x = np.ones(5)
        a = gen_planted(mixed, 5, 0.0, x, seed=9)
        b = gen_random(mixed, 5, seed=9)
        for p in b.tensors:
            np.testing.assert_array_equal(a.tensors[p], b.tensors[p])

    def test_n1_scalar_shift(self, sk):
        # spike beta c_2 / n^{1/2} x^2 = beta / sqrt(2) at n = 1
        beta = 0.8
        a = gen_planted(sk, 1, beta, np.ones(1), seed=3)
        w = gen_random(sk, 1, seed=3)
        assert a.tensors[2][0, 0] == pytest.approx(w.tensors[2][0, 0] + beta / np.sqrt(2))

    def test_diagonal_bias(self, sk):
        # E[G_ii] = beta c_2 n^{-1/2} over many seeds, within 5 s.e.
        n, beta = 4, 1.0
        x = np.ones(n)
        vals = np.array(
            [gen_planted(sk, n, beta, x, seed=s).tensors[2][0, 0] for s in range(10_000)]
        )
        want = beta * sk.c(2) / np.sqrt(n)
        assert abs(vals.mean() - want) <= 5 * vals.std(ddof=1) / np.sqrt(vals.size)

    def test_rejects_nonbinary(self, sk):
        with pytest.raises(ValueError):
            gen_planted(sk, 3, 0.5, np.array([1.0, 0.5, -1.0]), seed=0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_beta(self, sk, beta):
        with pytest.raises(ValueError, match="planted beta"):
            gen_planted(sk, 3, beta, np.ones(3), seed=0)


class TestInterpolate:
    def test_endpoints_exact(self, mixed):
        g0 = gen_random(mixed, 4, seed=1)
        g1 = gen_random(mixed, 4, seed=2)
        for p in g0.tensors:
            np.testing.assert_array_equal(interpolate(g0, g1, 0.0).tensors[p], g0.tensors[p])
            np.testing.assert_array_equal(interpolate(g0, g1, 1.0).tensors[p], g1.tensors[p])

    def test_marginal_variance_preserved(self, sk):
        g0 = gen_random(sk, 400, seed=5)
        g1 = gen_random(sk, 400, seed=6)
        gs = interpolate(g0, g1, 0.4)
        assert gs.tensors[2].var() == pytest.approx(1.0, abs=0.02)

    def test_shape_mismatch(self, sk, mixed):
        with pytest.raises(ValueError):
            interpolate(gen_random(sk, 4, 0), gen_random(sk, 5, 0), 0.5)
        with pytest.raises(ValueError):
            interpolate(gen_random(sk, 4, 0), gen_random(mixed, 4, 0), 0.5)


class TestHamiltonianCalculus:
    def test_zero_vector(self, mixed):
        g = gen_random(mixed, 5, seed=0)
        assert hamiltonian(g, np.zeros(5)) == 0.0
        np.testing.assert_array_equal(grad(g, np.zeros(5)), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [hamiltonian, grad])
    def test_non_finite_rejected(self, mixed, fn, bad):
        g = gen_random(mixed, 4, seed=0)
        x = np.zeros((2, 4))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            fn(g, x)

    def test_n1_sk_closed_form(self, sk):
        g = gen_random(sk, 1, seed=2)
        val = hamiltonian(g, np.array([0.7]))
        assert val == pytest.approx(sk.c(2) * g.tensors[2][0, 0] * 0.49)

    @pytest.mark.parametrize("rows", ["one", "three", "past-block"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    @pytest.mark.parametrize("coeffs", REFERENCE_SPECS, ids=["p2", "p3", "p4", "p234"])
    def test_reference_contraction(self, coeffs, n, rows):
        # the kernel against a naive per-slot einsum; the last row count
        # splits the batch into two row blocks
        spec = MixtureSpec(coeffs)
        g = gen_random(spec, n, seed=8)
        M = {"one": 1, "three": 3, "past-block": _past_block(g)}
        X = np.random.default_rng(n).uniform(-1, 1, (M[rows], n))
        want_val, want_grad = _reference(g, X)
        for got, want in ((hamiltonian(g, X), want_val), (grad(g, X), want_grad)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rows", ["one", "past-block"])
    @pytest.mark.parametrize("coeffs", REFERENCE_SPECS, ids=["p2", "p3", "p4", "p234"])
    def test_workspace_matches_allocating(self, coeffs, rows):
        # one workspace, NaN-filled and then reused on a second X, gives the
        # allocating kernel's bits; the past-block count spans two blocks
        n, spec = 7, MixtureSpec(coeffs)
        g = gen_random(spec, n, seed=9)
        M = {"one": 1, "past-block": _past_block(g)}[rows]
        work = disorder._kernel_work(g, M)
        for a in work:
            a.fill(np.nan)
        for seed in (1, 2):
            X = np.random.default_rng(seed).uniform(-1, 1, (M, n))
            val, gr = disorder._kernel(g, X, work)
            assert val is work[0] and gr is work[1]
            for want_val, want_grad in (disorder._kernel(g, X), _allocating_kernel(g, X)):
                np.testing.assert_array_equal(val, want_val, strict=True)
                np.testing.assert_array_equal(gr, want_grad, strict=True)

    def test_sk_kernel_is_g_plus_transpose_bitwise(self, sk):
        # for p = 2 the kernel is the BLAS product X @ (G + G^T) and its row
        # dot with X, exactly as evaluated before the packed cache; this pins
        # every SK output (the sampler's, criterion 05's) bit for bit
        n = 30
        g = gen_random(sk, n, seed=13)
        X = np.random.default_rng(3).uniform(-1, 1, (64, n))
        G2, scale = g.tensors[2], sk.c(2) / np.sqrt(n)
        A = X @ (G2 + G2.T)
        want_val = np.matmul(A[:, None, :], X[:, :, None])[:, 0, 0] / 2 * scale
        val, gr = disorder._kernel(g, X)
        np.testing.assert_array_equal(gr, A * scale, strict=True)
        np.testing.assert_array_equal(val, want_val, strict=True)

    @pytest.mark.parametrize("n", [1, 3, 6, 11])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_packed_coefficients(self, p, n):
        # C_p from a raw T against its definition, C_p[gamma, i] =
        # multinomial(gamma) S_p[i, gamma] with S_p the (p-1)!-normalized
        # symmetrization; the kernel's levels give the colex monomials
        gen = np.random.default_rng(100 * p + n)
        T, x = gen.standard_normal((n,) * p), gen.uniform(-1, 1, n)
        C = disorder._pack(T)
        gammas, phi = _colex_monomials(n, p - 1, x)
        S = sum(T.transpose(perm) for perm in itertools.permutations(range(p))) / math.factorial(p - 1)
        for row, gamma in zip(C, gammas):
            mult = math.factorial(p - 1) / math.prod(math.factorial(gamma.count(j)) for j in set(gamma))
            np.testing.assert_allclose(row, mult * S[(slice(None),) + gamma], rtol=1e-12, atol=1e-13)
        levels = [disorder._level(n, k) for k in range(2, p)]
        got = x
        for prev, last in levels:
            got = got[prev] * x[last]
        np.testing.assert_array_equal(got, phi)

    def test_covariance_identity(self, sk, gen):
        # sample covariance of (H(x1), H(x2)) over seeds vs n xi(<x1,x2>/n)
        n = 6
        x1 = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
        x2 = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
        h = np.array(
            [
                hamiltonian(gen_random(sk, n, seed=s), np.stack([x1, x2]))
                for s in range(2000)
            ]
        )
        c = np.cov(h.T)[0, 1]
        want = n * sk.xi(float(x1 @ x2) / n)
        se = np.sqrt((np.var(h[:, 0]) * np.var(h[:, 1]) + c * c) / 2000)
        assert abs(c - want) <= 5 * se

    def test_grad_fd(self, mixed, gen):
        g = gen_random(mixed, 8, seed=1)
        m = gen.uniform(-0.9, 0.9, 8)
        eps = 1e-6
        fd = np.array(
            [
                (hamiltonian(g, m + eps * e) - hamiltonian(g, m - eps * e)) / (2 * eps)
                for e in np.eye(8)
            ]
        )
        np.testing.assert_allclose(grad(g, m), fd, rtol=1e-6, atol=1e-8)

    def test_sk_grad_matrix_oracle(self, sk, gen):
        n = 40
        g = gen_random(sk, n, seed=12)
        m = gen.uniform(-1, 1, n)
        G2 = g.tensors[2]
        want = sk.c(2) / np.sqrt(n) * (G2 + G2.T) @ m
        np.testing.assert_allclose(grad(g, m), want, atol=1e-12)

    def test_hessian_fd_and_symmetry(self, mixed, gen):
        g = gen_random(mixed, 8, seed=3)
        m = gen.uniform(-0.9, 0.9, 8)
        H = hessian(g, m)
        assert np.array_equal(H, H.T)
        eps = 1e-6
        fd = np.array(
            [(grad(g, m + eps * e) - grad(g, m - eps * e)) / (2 * eps) for e in np.eye(8)]
        )
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    @pytest.mark.parametrize("coeffs", REFERENCE_SPECS, ids=["p2", "p3", "p4", "p234"])
    def test_hessian_reference(self, coeffs, n):
        g = gen_random(MixtureSpec(coeffs), n, seed=14)
        m = np.random.default_rng(n).uniform(-1, 1, n)
        want = _reference_hessian(g, m)
        np.testing.assert_allclose(hessian(g, m), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_sk_hessian_is_g_plus_transpose_bitwise(self, sk):
        # for p = 2 the Hessian is scale C_2 = scale (G + G^T), symmetrized
        # as before the packed cache, so SK spectra keep their bits at any n
        for n in (30, 513):
            g = gen_random(sk, n, seed=15)
            A = sk.c(2) / np.sqrt(n) * (g.tensors[2] + g.tensors[2].T)
            m = np.random.default_rng(4).uniform(-1, 1, n)
            np.testing.assert_array_equal(hessian(g, m), 0.5 * (A + A.T), strict=True)

    def test_pure_cubic_hessian_zero_at_origin(self):
        g = gen_random(MixtureSpec.pure(3), 5, seed=2)
        np.testing.assert_array_equal(hessian(g, np.zeros(5)), np.zeros((5, 5)))

    def test_planted_alignment(self, sk):
        # strong spike: gradient points along the plant
        n, hits = 24, 0
        for seed in range(100):
            x = np.where(np.random.default_rng(seed).uniform(size=n) < 0.5, -1.0, 1.0)
            g = gen_planted(sk, n, 3.0, x, seed)
            hits += (grad(g, x) @ x) / n > 0
        assert hits >= 99

    def test_interpolation_gradient_continuity(self, sk, gen):
        # || grad(G_s) - grad(G_0) || grows like s sqrt(n); measured constant
        n = 50
        g0 = gen_random(sk, n, seed=31)
        g1 = gen_random(sk, n, seed=32)
        m = gen.uniform(-1, 1, n)
        base = grad(g0, m)
        for s in (0.02, 0.05, 0.1):
            d = np.linalg.norm(grad(interpolate(g0, g1, s), m) - base)
            assert d <= 10.0 * s * np.sqrt(n)


class TestPartition:
    def test_beta_zero(self, sk):
        g = gen_random(sk, 6, seed=1)
        assert partition_rescaled(g, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_n1_closed_form(self, sk):
        g = gen_random(sk, 1, seed=7)
        beta = 0.6
        # x^2 = 1 collapses the sum; n beta^2 xi(1)/2 = beta^2/4
        want = np.exp(beta * sk.c(2) * g.tensors[2][0, 0] - beta**2 / 4)
        assert partition_rescaled(g, beta) == pytest.approx(want, rel=1e-12)

    def test_mean_is_one(self, sk):
        zs = np.array(
            [partition_rescaled(gen_random(sk, 10, seed=s), 0.3) for s in range(2000)]
        )
        se = zs.std(ddof=1) / np.sqrt(zs.size)
        assert abs(zs.mean() - 1.0) <= 3 * se

    def test_cap(self, sk):
        g = gen_random(sk, disorder.ENUMERATION_CAP + 1, seed=0)
        with pytest.raises(ValueError, match="enumeration cap exceeded"):
            partition_rescaled(g, 0.5)

    def test_logsumexp_against_scipy(self, gen):
        from scipy.special import logsumexp

        cases = [
            30.0 * gen.standard_normal(4096),
            gen.standard_normal(1000) - 800.0,
            np.array([2.0, 2.0, -1.0]),
            np.array([5.0]),
        ]
        for a in cases:
            np.testing.assert_allclose(_logsumexp(a), logsumexp(a), rtol=1e-14, atol=0)


class TestPackedCache:
    def test_built_once_per_instance(self, mixed, monkeypatch):
        # one C_p per degree across a whole NGD run, the Hessian and a
        # Hamiltonian call; the cache stays out of repr and ==
        built = []

        def counted(T):
            built.append(T.ndim)
            return pack(T)

        pack = disorder._pack
        monkeypatch.setattr(disorder, "_pack", counted)
        g = gen_random(mixed, 6, seed=21)
        params = TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=np.full(6, 0.1))
        ngd_run(g, np.zeros((2, 6)), params, eta=0.05, K=10)
        hessian(g, np.full(6, 0.3))
        hamiltonian(g, np.ones(6))
        assert sorted(built) == [2, 3, 4]
        assert "_cache" not in repr(g)
        fresh = DisorderTensors(n=g.n, spec=g.spec, tensors=g.tensors, seed=g.seed)
        assert fresh._cache is None and fresh == g

    def test_derived_instances_have_their_own(self, mixed, gen):
        # evaluate the sources first: a derived instance must not see their
        # caches, even where it shares a seed (planted) or equals one (s = 0, 1)
        n = 5
        g0, g1 = gen_random(mixed, n, seed=1), gen_random(mixed, n, seed=2)
        X = gen.uniform(-1, 1, (3, n))
        grad(g0, X)
        grad(g1, X)
        x = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
        derived = [interpolate(g0, g1, s) for s in (0.0, 0.3, 1.0)]
        derived.append(gen_planted(mixed, n, 2.0, x, seed=1))
        for h in derived:
            assert h._cache is None
            want_val, want_grad = _reference(h, X)
            np.testing.assert_allclose(hamiltonian(h, X), want_val, rtol=1e-12)
            np.testing.assert_allclose(grad(h, X), want_grad, rtol=1e-12)
            for p, C in h._cache[1].items():
                assert C is not g0._cache[1][p] and C is not g1._cache[1][p]

    def test_sk_cache_is_g_plus_transpose(self, sk):
        g = gen_random(sk, 9, seed=4)
        G2 = g.tensors[2]
        levels, packed = disorder._packed(g)
        assert levels == [] and list(packed) == [2]
        np.testing.assert_array_equal(packed[2], G2 + G2.T, strict=True)

    def test_cache_smaller_than_tensors(self):
        # C_p has C(n+p-2, p-1) rows of n: 3.7 MB for p = 4 at n = 40,
        # against the tensor's 20.5 MB
        g = gen_random(MixtureSpec.pure(4), 40, seed=0)
        _, packed = disorder._packed(g)
        assert packed[4].shape == (math.comb(42, 3), 40)
        assert packed[4].nbytes < g.tensors[4].nbytes / 5


class TestTensorFile:
    def test_roundtrip(self, mixed, tmp_path):
        g = gen_random(mixed, 5, seed=77)
        path = tmp_path / "instance.gltn"
        write_tensors(path, g)
        back = read_tensors(path)
        assert back.n == 5 and back.spec == mixed and back.seed == 77
        assert back.kind == "random"
        for p in g.tensors:
            np.testing.assert_array_equal(back.tensors[p], g.tensors[p])

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTGL" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_tensors(path)

    def test_header_layout(self, sk, tmp_path):
        g = gen_random(sk, 2, seed=5)
        path = tmp_path / "h.gltn"
        write_tensors(path, g)
        raw = path.read_bytes()
        assert raw[:5] == b"GLTN1"
        assert int.from_bytes(raw[5:9], "little") == 2  # n
        assert int.from_bytes(raw[9:13], "little") == 2  # P
        assert np.frombuffer(raw[13:21], dtype="<f8")[0] == 0.5  # c_2^2

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda raw: raw[:10], "header truncated"),
            (lambda raw: raw[:25], "header truncated"),
            (lambda raw: raw[:-8], "body truncated"),
            (lambda raw: raw + b"\x00", "trailing bytes"),
        ],
        ids=["short-head", "short-coeffs", "truncated-body", "trailing-byte"],
    )
    def test_length_checked(self, sk, tmp_path, edit, match):
        path = tmp_path / "t.gltn"
        write_tensors(path, gen_random(sk, 3, seed=1))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            read_tensors(path)

    @pytest.mark.parametrize("n, match", [(0, "n must be >= 1"), (100_000, "budget")])
    def test_header_checked_before_body(self, tmp_path, n, match):
        # a header alone: n = 10^5 claims 10^10 entries, rejected before any read
        path = tmp_path / "h.gltn"
        path.write_bytes(b"GLTN1" + struct.pack("<IIdQB", n, 2, 0.5, 0, 0))
        with pytest.raises(ValueError, match=match):
            read_tensors(path)

    def test_non_finite_coefficient_rejected(self, tmp_path):
        # a complete n = 2 file whose header gives c_2^2 = NaN
        path = tmp_path / "nan.gltn"
        path.write_bytes(b"GLTN1" + struct.pack("<IIdQB", 2, 2, math.nan, 0, 0) + bytes(8 * 4))
        with pytest.raises(ValueError, match="finite"):
            read_tensors(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_non_finite_entry_rejected(self, mixed, tmp_path, p, bad):
        g = gen_random(mixed, 3, seed=4)
        g.tensors[p][(-1,) * p] = bad
        path = tmp_path / "bad.gltn"
        write_tensors(path, g)
        with pytest.raises(ValueError, match=f"non-finite entry in degree p = {p}"):
            read_tensors(path)


@st.composite
def tensor_instances(draw):
    """An instance of n 1..6 with up to p = 4, generated random, planted or
    interpolated, from a spec that may carry explicit zero terms."""
    n = draw(st.integers(1, 6))
    degrees = draw(st.sets(st.sampled_from([2, 3, 4]), min_size=1))
    zeros = draw(st.sets(st.sampled_from(sorted(degrees)), max_size=len(degrees) - 1))
    csq = st.floats(1e-3, 1e3, allow_nan=False)
    spec = MixtureSpec(tuple((p, 0.0 if p in zeros else draw(csq)) for p in sorted(degrees)))
    seed = draw(st.integers(0, 2**64 - 1))
    kind = draw(st.sampled_from(["random", "planted", "interpolated"]))
    if kind == "planted":
        x = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        return gen_planted(spec, n, draw(st.floats(0.0, 2.0)), x, seed)
    g = gen_random(spec, n, seed)
    if kind == "interpolated":
        other = gen_random(spec, n, draw(st.integers(0, 2**64 - 1)))
        g = interpolate(g, other, draw(st.floats(0.0, 1.0)))
    return g


class TestTensorFileProperties:
    @given(tensor_instances())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("gltn") / "t.gltn"
        write_tensors(path, g)
        back = read_tensors(path)
        assert (back.n, back.spec, back.seed, back.kind) == (g.n, g.spec, g.seed, g.kind)
        assert sorted(back.tensors) == sorted(g.tensors)
        for p, T in g.tensors.items():
            np.testing.assert_array_equal(back.tensors[p], T, strict=True)

    @given(tensor_instances())
    @settings(max_examples=15, deadline=None)
    def test_every_truncation_named(self, tmp_path_factory, g):
        # every proper prefix of a valid file fails with a ValueError that
        # names the part cut short, never struct.error or MemoryError
        path = tmp_path_factory.mktemp("gltn") / "t.gltn"
        write_tensors(path, g)
        size = path.stat().st_size
        header_len = 5 + 8 + 8 * (g.spec.degree - 1) + 9
        for length in range(size - 1, -1, -1):
            os.truncate(path, length)
            cut = "header" if length < header_len else "body"
            with pytest.raises(ValueError, match="bad magic" if length < 5 else f"{cut} truncated"):
                read_tensors(path)


_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(1e-3, 10.0),
)


@st.composite
def tensor_headers(draw):
    """(n, P, coefficients, seed, kind tag, body length) of a fuzzed file:
    n, P and seed up to their u32/u64 limits, any c_p^2, any tag, and a body
    short of, equal to or past what a well-formed header asks for."""
    n = draw(st.one_of(st.integers(1, 6), st.just(0), st.integers(0, 2**32 - 1)))
    P = draw(st.one_of(st.integers(2, 4), st.integers(0, 6), st.integers(0, 2**32 - 1)))
    k = max(P - 1, 0) if P <= 7 else draw(st.integers(0, 6))  # a huge P: a short header
    coeffs = draw(st.lists(_COEFFS, min_size=k, max_size=k))
    seed, tag = draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 255))
    delta = draw(st.one_of(st.just(0), st.sampled_from([-9, -8, -1, 1, 8])))
    entries = sum(n**p for p, c in zip(range(2, P + 1), coeffs) if c > 0) if P <= 7 else 0
    body = 8 * entries + delta if entries <= 4096 else draw(st.integers(0, 64))
    return n, P, coeffs, seed, tag, max(body, 0)


def _complete(P, coeffs):
    """Whether a fuzzed header has one c_p^2 for each p = 2..P."""
    return len(coeffs) == max(P - 1, 0)


class TestTensorFileHeaderFuzz:
    @given(tensor_headers())
    @settings(max_examples=300, deadline=None)
    def test_instance_or_named_error(self, tmp_path_factory, header):
        # read_tensors returns the instance the header describes or raises a
        # ValueError naming the problem, before it reads any body; never
        # struct.error, MemoryError or OverflowError
        n, P, coeffs, seed, tag, body = header
        path = tmp_path_factory.mktemp("fuzz") / "h.gltn"
        raw = b"GLTN1" + struct.pack("<II", n, P) + struct.pack(f"<{len(coeffs)}d", *coeffs)
        path.write_bytes(raw + struct.pack("<QB", seed, tag) + bytes(body))
        try:
            want = MixtureSpec(tuple(zip(range(2, P + 1), coeffs)))
        except ValueError:
            want = None
        with mock.patch.object(np, "fromfile", wraps=np.fromfile) as fromfile:
            try:
                g = read_tensors(path)
            except ValueError as e:
                assert str(e)
                fromfile.assert_not_called()
                if want is not None and n >= 1 and not want.scalar_only and _complete(P, coeffs):
                    total = sum(n**p for p, _ in want.coeffs)
                    assert (total > disorder.ENTRY_BUDGET) == ("budget" in str(e))
                return
        assert want is not None and _complete(P, coeffs)
        assert (g.n, g.spec, g.seed) == (n, want, seed)
        assert g.kind == {0: "random", 1: "planted", 2: "interpolated"}.get(tag, "other")
        assert all(T.shape == (n,) * p for p, T in g.tensors.items())


class TestSpinEnumeration:
    def test_all_spins_shape_and_convention(self):
        X = all_spins(3)
        assert X.shape == (8, 3)
        np.testing.assert_array_equal(X[0], [-1, -1, -1])
        np.testing.assert_array_equal(X[1], [1, -1, -1])
        assert np.all(np.abs(X) == 1)


class TestHamiltonianTable:
    """The Walsh-Hadamard table against the kernel, its reference."""

    @staticmethod
    def _check(g):
        want = hamiltonian(g, all_spins(g.n))
        got = disorder.hamiltonian_table(g)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "mixture, n", [({"2": 1.0}, 1), ({"2": 1.0}, 2), ({"2": 1.0}, 9), ({"3": 1.0}, 1),
                       ({"3": 1.0}, 7)],
    )
    def test_matches_kernel_pure(self, mixture, n):
        self._check(gen_random(MixtureSpec.from_dict(mixture), n, seed=3))

    def test_matches_kernel_mixed_instances(self, mixed):
        n = 10
        g0, g1 = gen_random(mixed, n, seed=4), gen_random(mixed, n, seed=5)
        x = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
        for g in (g0, gen_planted(mixed, n, 0.8, x, seed=6), interpolate(g0, g1, 0.6)):
            self._check(g)

    def test_exact_gibbs_leaves_instance_unpacked(self, mixed):
        from glasslocal.baselines import exact_gibbs

        g = gen_random(mixed, 8, seed=2)
        exact_gibbs(g, 0.5)
        assert g._cache is None

    @staticmethod
    def _peak_bytes(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_below_one_tensor(self):
        # past the dense-tensor cap of `gen_random`, so built by hand
        T = np.random.default_rng(0).standard_normal((8,) * 7)
        g = DisorderTensors(n=8, spec=MixtureSpec.from_dict({"7": 1.0}), tensors={7: T}, seed=0)
        assert self._peak_bytes(lambda: disorder.hamiltonian_table(g)) < T.nbytes  # 16.8 MB

    def test_cap_before_allocation(self, sk):
        g = gen_random(sk, disorder.ENUMERATION_CAP + 1, seed=0)

        def table():
            with pytest.raises(ValueError, match="enumeration cap exceeded"):
                disorder.hamiltonian_table(g)

        assert self._peak_bytes(table) < 8 * 2**g.n // 16
