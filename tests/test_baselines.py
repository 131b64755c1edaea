"""Power-iteration baseline and the log-norm exponential bound."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import (
    InnerPolicy,
    build_operator,
    exp_norm_bound,
    get_function,
    parse_matrix_token,
    power_method,
    run,
)
from matfunsvd.inner import InnerConfig

import matfunsvd.densela
import oracles


def op(token):
    return build_operator(parse_matrix_token(token))


# ---------------------------------------------------------------------------
# power method


def test_power_on_diagonal_matrix():
    A = oracles.make_operator_from_dense(np.diag([3.0, 1.0, 0.5]))
    rep = power_method(A, get_function("identity"), 1e-10, seed=0)
    assert rep.converged and rep.method_label == "power"
    assert rep.outer_iters <= 30
    npt.assert_allclose(rep.sigma, 3.0, rtol=1e-8)
    lead = rep.triplets[0]
    # dominant direction recovered up to sign
    npt.assert_allclose(np.abs(lead.right), [1.0, 0.0, 0.0], atol=1e-4)
    assert np.isnan(lead.gap_bound) and np.isnan(lead.theta_gap_second)


def test_power_matches_dense_sigma():
    A = op("A5:n=100")
    F = oracles.dense_fA(A.to_dense(), "exp")
    sv = np.linalg.svd(F, compute_uv=False)
    rep = power_method(A, get_function("exp"), 1e-5, seed=1)
    assert rep.converged
    npt.assert_allclose(rep.sigma, sv[0], rtol=1e-4)
    # sigma is sqrt of the final Rayleigh quotient: residual was relative
    assert rep.triplets[0].computed_residual <= 1e-5 * rep.sigma ** 2


def test_power_is_costlier_than_bidiag_on_gapped_problem():
    A = op("A5:n=100")
    f = get_function("exp")
    pw = power_method(A, f, 1e-4, seed=0)
    bd = run(A, f, 1e-4, inner_policy=InnerPolicy(eps_inner=1e-7), seed=0)
    assert pw.converged and bd.converged
    assert pw.outer_iters >= bd.outer_iters
    npt.assert_allclose(pw.sigma, bd.sigma, rtol=1e-3)


def test_power_report_accounting():
    A = op("A2:n=60")
    rep = power_method(A, get_function("exp"), 1e-3,
                       inner_cfg=InnerConfig(eps_inner=1e-6), seed=2,
                       matrix_label="A2:n=60")
    assert len(rep.ledger) == rep.outer_iters
    assert rep.eps_history == [1e-6] * rep.outer_iters
    npt.assert_allclose(rep.inner_avg, rep.inner_total / (2 * rep.outer_iters))
    d = rep.to_json_dict()
    assert d["method"] == "power" and d["matrix"] == "A2:n=60"
    assert d["rel_gap_second"] is None or np.isnan(d["rel_gap_second"])


def test_power_passes_the_inner_dimension_hint(monkeypatch):
    calls = []
    original = matfunsvd.densela.dense_matfun

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original(H, g)

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    rep = power_method(op("A5:n=400"), get_function("invsqrt"), 1e-6,
                       inner_cfg=InnerConfig(eps_inner=1e-8,
                                             method="extended-krylov"),
                       seed=1)
    assert rep.converged and rep.outer_iters > 2
    # without the hint every inner step evaluates f(H_k): one call per dim
    assert len(calls) < rep.inner_total / 3


def test_power_unconverged_flag():
    A = op("A2:n=200")
    rep = power_method(A, get_function("exp"), 1e-12, max_iters=3, seed=0)
    assert not rep.converged and rep.outer_iters == 3


def test_power_input_validation():
    A = op("A2:n=10")
    with pytest.raises(ValueError):
        power_method(A, get_function("exp"), 0.0)


# ---------------------------------------------------------------------------
# exponential norm bound


def test_exp_bound_dominates_true_norm():
    for token in ("A2:n=100", "A3:n=100", "A5:n=100", "A1:n=100:seed=0"):
        A = op(token)
        res = exp_norm_bound(A, tol=1e-8)
        assert res.converged
        true = np.linalg.norm(oracles.dense_fA(A.to_dense(), "exp"), 2)
        assert res.bound >= true * (1 - 1e-9)


def test_exp_bound_analytic_a2():
    # Hermitian part of the A2 stencil is tridiag(0.25, 2, 0.25), whose
    # largest eigenvalue is 2 + 0.5 cos(pi/(n+1))
    n = 100
    res = exp_norm_bound(op(f"A2:n={n}"), tol=1e-10)
    lam_want = 2.0 + 0.5 * np.cos(np.pi / (n + 1))
    npt.assert_allclose(res.lambda_max, lam_want, rtol=1e-9)
    npt.assert_allclose(res.bound, np.exp(lam_want), rtol=1e-8)


def test_exp_bound_analytic_a5():
    # Hermitian part of the grid stencil is the pure diffusion operator,
    # largest eigenvalue 4 + 4 cos(pi/(g+1))
    res = exp_norm_bound(op("A5:n=100"), tol=1e-10)
    lam_want = 4.0 + 4.0 * np.cos(np.pi / 11.0)
    npt.assert_allclose(res.lambda_max, lam_want, rtol=1e-9)


def test_exp_bound_negative_sign():
    A = op("A5:n=64")
    res = exp_norm_bound(A, sign=-1, tol=1e-9)
    true = np.linalg.norm(oracles.dense_fA(A.to_dense(), "expneg"), 2)
    assert res.converged
    assert res.bound >= true * (1 - 1e-9)
    # Hermitian part is positive definite, so the negated bound is below one
    assert res.bound < 1.0


def test_exp_bound_tight_for_hermitian_input():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((40, 40))
    B = 0.5 * (B + B.T)
    A = oracles.make_operator_from_dense(B)
    res = exp_norm_bound(A, tol=1e-10)
    true = np.linalg.norm(oracles.dense_fA(B, "exp"), 2)
    npt.assert_allclose(res.bound, true, rtol=1e-7)


def test_exp_bound_validation_and_exhaustion():
    A = op("A2:n=50")
    with pytest.raises(ValueError):
        exp_norm_bound(A, sign=2)
    res = exp_norm_bound(A, tol=1e-16, max_iters=5)
    assert not res.converged and res.iterations == 5
