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

import matfunsvd.densela
import oracles


def op(token):
    return build_operator(parse_matrix_token(token))


# ---------------------------------------------------------------------------
# power method


def test_power_on_diagonal_matrix():
    A = oracles.make_operator_from_dense(np.diag([3.0, 1.0, 0.5]))
    rep = power_method(A, get_function("identity"), 1e-10, seed=0)
    assert rep.converged
    assert rep.outer_iters <= 30
    npt.assert_allclose(rep.sigma, 3.0, rtol=1e-8)
    lead = rep.triplets[0]
    # dominant direction recovered up to sign
    npt.assert_allclose(np.abs(lead.right), [1.0, 0.0, 0.0], atol=1e-4)
    assert np.isnan(lead.gap_bound) and np.isnan(lead.theta_gap_second)


def test_power_matches_dense_sigma():
    A = op("A5:n=100")
    F = oracles.dense_fA(oracles.dense(A), "exp")
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
                       inner_policy=InnerPolicy(eps_inner=1e-6), seed=2)
    assert rep.outer_iters == len(rep.ledger) > 0
    assert rep.sigma == rep.triplets[0].theta
    assert rep.ledger.eps_issued == [1e-6] * rep.outer_iters
    npt.assert_allclose(rep.inner_avg, rep.inner_total / (2 * rep.outer_iters))
    assert np.isnan(rep.rel_gap_second) and np.isnan(rep.gap_bound)


def test_power_passes_the_inner_dimension_hint(monkeypatch):
    calls = []
    original = matfunsvd.densela.dense_matfun

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original(H, g)

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    rep = power_method(op("A5:n=400"), get_function("invsqrt"), 1e-6,
                       inner_policy=InnerPolicy(eps_inner=1e-8,
                                                method="extended-krylov"),
                       seed=1)
    assert rep.converged and rep.outer_iters > 2
    # without the hint every inner step evaluates f(H_k): one call per dim
    assert len(calls) < rep.inner_total / 3


def test_power_unconverged_flag():
    A = op("A2:n=200")
    rep = power_method(A, get_function("exp"), 1e-12, max_iters=3, seed=0)
    assert not rep.converged and rep.outer_iters == 3


def test_power_reports_a_domain_error_as_run_does():
    # the inner projection of diag(-1, 2, 3) meets the branch cut of invsqrt
    A = oracles.make_operator_from_dense(np.diag([-1.0, 2.0, 3.0]))
    f = get_function("invsqrt")
    pw = power_method(A, f, 1e-6)
    bd = run(A, f, 1e-6)
    assert not pw.converged and not bd.converged
    assert pw.aborted.startswith("domain error in inner solve: ")
    assert pw.aborted == bd.aborted
    # the first sweep did not complete: no sweep counts, no sigma
    assert pw.outer_iters == bd.outer_iters == 0
    assert np.isnan(pw.sigma) and np.isnan(bd.sigma)


def test_power_names_the_stop_when_fAv_vanishes():
    A = oracles.make_operator_from_dense(np.zeros((4, 4)))
    f = get_function("identity")
    pw = power_method(A, f, 1e-6)
    assert not pw.converged and pw.aborted == "f(A) v vanished"
    assert pw.outer_iters == 0 and np.isnan(pw.sigma)
    # run stops on the same input with a breakdown of its left basis
    assert run(A, f, 1e-6).aborted == "left basis breakdown"


@pytest.mark.parametrize("s", [1e-100, 1e100, 1e150])
def test_power_sigma_far_from_unit_scale(s):
    # y = f(A)^H f(A) v has entries of size sigma^2, whose squares underflow
    # or overflow; sigma(s B) = s sigma(B)
    B = np.diag(np.arange(1.0, 7.0)) + np.diag(np.full(5, 0.1), 1)
    A = oracles.make_operator_from_dense(s * B)
    pw = power_method(A, get_function("identity"), 1e-8)
    assert pw.converged and pw.aborted is None
    npt.assert_allclose(pw.sigma, s * np.linalg.svd(B, compute_uv=False)[0],
                        rtol=1e-12)


def test_power_input_validation():
    A = op("A2:n=10")
    with pytest.raises(ValueError):
        power_method(A, get_function("exp"), 0.0)
    # as run rejects m_max < 1: no sweep means no sigma to report
    with pytest.raises(ValueError, match="max_iters"):
        power_method(A, get_function("exp"), 1e-4, max_iters=0)


# ---------------------------------------------------------------------------
# exponential norm bound


def test_exp_bound_dominates_true_norm():
    for token in ("A2:n=100", "A3:n=100", "A5:n=100", "A1:n=100:seed=0"):
        A = op(token)
        res = exp_norm_bound(A, tol=1e-8)
        assert res.converged
        true = np.linalg.norm(oracles.dense_fA(oracles.dense(A), "exp"), 2)
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
    true = np.linalg.norm(oracles.dense_fA(oracles.dense(A), "expneg"), 2)
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


# (token, sign, tol, max_iters) -> iterations, converged and lambda_max as
# recorded from the stand-alone Lanczos loop that exp_norm_bound ran before it
# used the inner Arnoldi builder (one BLAS thread)
EXP_BOUND_RECORDED = [
    ("A1:n=400:seed=0", 1, 1e-10, 400, 90, True, 2.179177660924084),
    ("A1:n=400:seed=0", -1, 1e-10, 400, 73, True, -0.8389512192297222),
    ("A1:n=400:seed=3", 1, 1e-10, 400, 100, True, 2.137632933059898),
    ("A1:n=400:seed=3", -1, 1e-10, 400, 70, True, -0.847277741512326),
    ("A2:n=400", 1, 1e-10, 400, 400, True, 2.4999846556397034),
    ("A2:n=400", -1, 1e-10, 400, 400, True, -1.5000153443602962),
    ("A3:n=400", 1, 1e-10, 400, 178, True, 20.325985265821554),
    ("A3:n=400", -1, 1e-10, 400, 180, True, -0.6835157105892955),
    ("A5:n=400", 1, 1e-10, 400, 74, True, 7.955323304900515),
    ("A5:n=400", -1, 1e-10, 400, 83, True, -0.04467669509948548),
    ("A3:n=400", 1, 1e-10, 50, 50, False, 20.317852480981887),
    ("A2:n=400", 1, 1e-6, 400, 379, True, 2.4999846553991705),
    ("A2:n=400", -1, 1e-12, 120, 120, False, -1.500035274138772),
    ("A1:n=400:seed=0", 1, 1e-6, 400, 69, True, 2.1791776609155735),
    ("A5:n=400", -1, 1e-6, 400, 67, True, -0.04467669509948656),
]


@pytest.mark.parametrize("token,sign,tol,max_iters,iterations,converged,lam",
                         EXP_BOUND_RECORDED)
def test_exp_bound_matches_recorded_values_and_dense_oracle(
        token, sign, tol, max_iters, iterations, converged, lam):
    A = op(token)
    res = exp_norm_bound(A, sign=sign, tol=tol, max_iters=max_iters)
    assert (res.iterations, res.converged) == (iterations, converged)
    npt.assert_allclose(res.lambda_max, lam, rtol=1e-13, atol=0)
    if converged:
        # the Ritz value is within its residual, tol*|lambda|, of the
        # largest eigenvalue of the Hermitian part
        D = oracles.dense(A)
        evals = np.linalg.eigvalsh(0.5 * sign * (D + D.conj().T))
        npt.assert_allclose(res.lambda_max, evals[-1], rtol=tol,
                            atol=1e-13 * np.abs(evals).max())


def test_exp_bound_validation_and_exhaustion():
    A = op("A2:n=50")
    with pytest.raises(ValueError):
        exp_norm_bound(A, sign=2)
    with pytest.raises(ValueError, match="max_iters"):
        exp_norm_bound(A, max_iters=0)
    res = exp_norm_bound(A, tol=1e-16, max_iters=5)
    assert not res.converged and res.iterations == 5
