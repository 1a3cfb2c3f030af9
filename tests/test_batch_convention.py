"""One batch convention: a vector is a one-row batch.

Every kernel that accepts a vector gives the bit-identical result of the
one-row batch call `x[None]`; the single-vector Hessians reject a batch; and
`sample` returns batch shapes for any replica count.
"""

import numpy as np
import pytest

from glasslocal import (
    MixtureSpec,
    SamplerParams,
    amp_run,
    ftap_grad,
    ftap_hessian,
    ftap_value,
    gen_random,
    grad,
    hamiltonian,
    ngd_run,
    relative_hessian_extremes,
    rng,
    sample,
)
from glasslocal.tap import TapParams

SPECS = {"sk": MixtureSpec.sk(), "mixed": MixtureSpec(((2, 0.5), (3, 0.7), (4, 0.2)))}
N = 7


@pytest.fixture(params=sorted(SPECS))
def case(request):
    g = gen_random(SPECS[request.param], N, seed=21)
    gen = rng.stream(4, "batch-convention")
    m = gen.uniform(-0.8, 0.8, N)
    y = gen.standard_normal(N)
    return g, m, y, TapParams(beta=0.4, q=0.2, gamma_reg=1.0, y=y)


def assert_row(vector_result, batch_result):
    """The vector result is row 0 of the one-row batch result, bit for bit."""
    assert np.shape(batch_result)[0] == 1
    np.testing.assert_array_equal(vector_result, batch_result[0], strict=True)


def test_hamiltonian(case):
    g, m, _, _ = case
    assert_row(hamiltonian(g, m), hamiltonian(g, m[None]))


def test_grad(case):
    g, m, _, _ = case
    assert_row(grad(g, m), grad(g, m[None]))


def test_ftap_value(case):
    g, m, _, params = case
    assert_row(ftap_value(g, m, params), ftap_value(g, m[None], params))


def test_ftap_grad(case):
    g, m, _, params = case
    assert_row(ftap_grad(g, m, params), ftap_grad(g, m[None], params))


def test_amp_run(case):
    g, _, y, _ = case
    vec = amp_run(g, y, 0.4, K=6, keep_history=True)
    bat = amp_run(g, y[None], 0.4, K=6, keep_history=True)
    for sv, sb in zip(vec, bat):
        assert_row(sv.z, sb.z)
        assert_row(sv.q_hat, sb.q_hat)


def test_ngd_run(case):
    g, m, _, params = case
    u0 = np.arctanh(m)
    vec = ngd_run(g, u0, params, eta=0.1, K=8)
    bat = ngd_run(g, u0[None], params, eta=0.1, K=8)
    for sv, sb in zip(vec, bat):
        assert_row(sv.u, sb.u)
        assert_row(sv.ftap, sb.ftap)
        assert_row(sv.grad_norm, sb.grad_norm)


@pytest.mark.parametrize("fn", [ftap_hessian, relative_hessian_extremes])
def test_hessians_reject_a_batch(case, fn):
    g, m, _, params = case
    with pytest.raises(ValueError, match="single vector"):
        fn(g, np.stack([m, -m]), params)


def test_sample_returns_batch_shapes():
    g = gen_random(SPECS["sk"], 5, seed=1)
    p = SamplerParams(beta=0.2, delta=0.5, L=3, k_amp=3, k_ngd=5, seed=0, keep_trajectory=True)
    run = sample(g, p, n_replicas=1)
    assert run.mean_final.shape == run.x_alg.shape == (1, 5)
    assert run.final_q.shape == run.grad_norm_last.shape == (1,)
    assert run.y_trajectory.shape == (4, 1, 5)
    assert run.step_grad_norms.shape == (4, 1)
