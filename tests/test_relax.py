"""Relaxation scheduler and the a-posteriori tau certificate."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import (
    InnerPolicy,
    build_operator,
    get_function,
    parse_matrix_token,
    run,
    verify_tau,
)
from matfunsvd.outer import build_khat, leading_eigenpair
from matfunsvd.relax import next_tolerance

EPS_OUT = 1e-4
M_MAX = 100
FLOOR = EPS_OUT / M_MAX


# ---------------------------------------------------------------------------
# scheduler


def test_first_two_steps_use_fixed_floor():
    for k in (1, 2):
        assert next_tolerance(k, 5.0, 1.0, 1e-3, EPS_OUT, M_MAX) == FLOOR


def test_full_relaxation_quotient_identity():
    # delta = 2 * m * r makes the quotient exactly one
    r = 3.7e-5
    got = next_tolerance(5, 2.0, 2 * M_MAX * r, r, EPS_OUT, M_MAX)
    npt.assert_allclose(got, EPS_OUT, rtol=1e-14)


def test_quotient_is_capped_at_eps_out():
    got = next_tolerance(5, 2.0, 1e6, 1e-12, EPS_OUT, M_MAX)
    assert got == EPS_OUT


def test_floor_and_degenerate_inputs():
    assert next_tolerance(5, 2.0, 1e-12, 1.0, EPS_OUT, M_MAX) == FLOOR
    assert next_tolerance(5, 0.0, 1.0, 1e-3, EPS_OUT, M_MAX) == FLOOR
    assert next_tolerance(5, 2.0, -1.0, 1e-3, EPS_OUT, M_MAX) == FLOOR
    assert next_tolerance(5, 2.0, np.nan, 1e-3, EPS_OUT, M_MAX) == FLOOR
    assert next_tolerance(5, 2.0, 1.0, np.inf, EPS_OUT, M_MAX) == FLOOR
    # vanished residual counts as full relaxation, not more
    assert next_tolerance(5, 2.0, 1.0, 0.0, EPS_OUT, M_MAX) == EPS_OUT


def test_scheduler_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        delta = 10.0 ** rng.uniform(-8, 2)
        r = 10.0 ** rng.uniform(-10, 0)
        eps = next_tolerance(4, 1.0, delta, r, EPS_OUT, M_MAX)
        assert FLOOR <= eps <= EPS_OUT
    # smaller residual never tightens the tolerance
    rs = np.logspace(-2, -9, 12)
    tols = [next_tolerance(4, 1.0, 1e-3, r, EPS_OUT, M_MAX) for r in rs]
    assert all(a <= b + 1e-18 for a, b in zip(tols, tols[1:]))


# ---------------------------------------------------------------------------
# verify_tau


def symmetric_khat():
    M = np.diag([3.0, 2.4, 1.7, 1.1]) + np.diag([0.4, 0.3, 0.2], 1)
    return build_khat(M, M.T)


def test_self_certificate_at_full_step():
    K = symmetric_khat()
    m = K.shape[0] // 2
    lam, q = leading_eigenpair(K)
    diag = verify_tau(K, m, lam, q)
    assert diag.condition_ok
    assert diag.r_norm <= 1e-12
    assert diag.tau_bound <= 1e-11
    assert diag.tail_norm == 0.0
    assert diag.theta_shift <= 1e-12
    npt.assert_allclose(diag.theta_matched, abs(lam), rtol=1e-12)


def run_state(token, fid, eps_out, eps_inner=1e-10, m_max=300):
    A = build_operator(parse_matrix_token(token))
    rep = run(A, get_function(fid), eps_out, m_max=m_max,
              inner_policy=InnerPolicy(eps_inner=eps_inner), seed=0,
              keep_state=True)
    assert rep.converged
    return rep.state


def prefix_pair(st, k):
    Kk = build_khat(st.M[:k, :k], st.T[:k, :k])
    return leading_eigenpair(Kk)


def test_certificate_on_converged_run():
    st = run_state("A2:n=200", "sqrt", 1e-6)
    m = st.j
    K_full = build_khat(st.M, st.T[:m, :m])
    theta_k, q_k = prefix_pair(st, m - 1)
    diag = verify_tau(K_full, m - 1, theta_k, q_k)  # asserts internally
    assert diag.condition_ok
    assert diag.tail_norm <= diag.tail_bound + 1e-10
    assert diag.theta_shift <= diag.s_norm * diag.tau_bound + 1e-10
    # the certified estimate is genuinely close to a full-problem eigenvalue
    assert diag.theta_shift <= 1e-4 * abs(theta_k)


def test_certificate_far_from_convergence_is_weaker():
    st = run_state("A5:n=100", "exp", 1e-8)
    m = st.j
    K_full = build_khat(st.M, st.T[:m, :m])
    early = max(3, m // 3)
    theta_e, q_e = prefix_pair(st, early)
    diag_e = verify_tau(K_full, early, theta_e, q_e)
    theta_l, q_l = prefix_pair(st, m - 1)
    diag_l = verify_tau(K_full, m - 1, theta_l, q_l)
    assert diag_l.tau_bound < diag_e.tau_bound
    assert diag_l.theta_shift < diag_e.theta_shift + 1e-12


def test_certificate_survives_block_perturbation():
    st = run_state("A5:n=49", "exp", 1e-7, m_max=60)
    m = st.j
    Mm, Tm = st.M.copy(), st.T[:m, :m].copy()
    rng = np.random.default_rng(1)
    Mm += 1e-3 * rng.standard_normal(Mm.shape)
    Tm += 1e-3 * rng.standard_normal(Tm.shape)
    K_pert = build_khat(Mm, Tm)
    # the certified pair must come from the (perturbed) submatrix itself
    k = m - 1
    theta_k, q_k = leading_eigenpair(build_khat(Mm[:k, :k], Tm[:k, :k]))
    diag = verify_tau(K_pert, k, theta_k, q_k)  # asserts when applicable
    assert diag.r_norm >= 0 and diag.delta_true >= 0
    if diag.condition_ok:
        assert diag.tail_norm <= diag.tail_bound + 1e-10


def test_verify_tau_input_validation():
    K = symmetric_khat()
    lam, q = leading_eigenpair(K)
    with pytest.raises(ValueError):
        verify_tau(K[:, :5], 4, lam, q)
    with pytest.raises(ValueError):
        verify_tau(K, 3, lam, q)  # length mismatch with k
    with pytest.raises(ValueError):
        verify_tau(K, 2, lam, np.array([1.0, 0.0, 0.0, 0.0]))  # vanishing block
    with pytest.raises(ValueError):
        verify_tau(K, 5, lam, np.zeros(10))  # subproblem larger than full


# ---------------------------------------------------------------------------
# relaxed runs end to end


def test_relaxed_run_matches_fixed_run():
    A = build_operator(parse_matrix_token("A5:n=400"))
    f = get_function("exp")
    eps_out = 1e-6
    fixed = run(A, f, eps_out, inner_policy=InnerPolicy(eps_inner=eps_out / 500))
    relaxed = run(A, f, eps_out, inner_policy=InnerPolicy(relax=True))
    assert fixed.converged and relaxed.converged
    npt.assert_allclose(relaxed.sigma, fixed.sigma, rtol=10 * eps_out)
    hist = relaxed.ledger.eps_issued
    assert all(e >= eps_out / 500 - 1e-18 for e in hist)
    assert all(e <= eps_out + 1e-18 for e in hist)
    # tolerances eventually sit above the fixed floor
    assert max(hist) > eps_out / 500


def test_relaxed_run_saves_inner_work():
    A = build_operator(parse_matrix_token("A5:n=400"))
    f = get_function("exp")
    eps_out = 1e-6
    fixed = run(A, f, eps_out, inner_policy=InnerPolicy(eps_inner=eps_out / 500))
    relaxed = run(A, f, eps_out, inner_policy=InnerPolicy(relax=True))
    assert relaxed.inner_total < fixed.inner_total
