"""Relaxation scheduler and the a-posteriori tau certificate."""

import numpy as np
import numpy.testing as npt

from matfunsvd import (
    InnerPolicy,
    build_operator,
    get_function,
    parse_matrix_token,
    run,
)
from matfunsvd.relax import next_tolerance

import oracles

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
# the tau certificate (oracles.tau_certificate)


def symmetric_state():
    # T = M^T and t_next = 0: K = [[0, M], [M^T, 0]] is symmetric
    M = np.diag([3.0, 2.4, 1.7, 1.1]) + np.diag([0.4, 0.3, 0.2], 1)
    return oracles.state_from(M, np.vstack([M.T, np.zeros(4)]),
                              np.zeros(4), np.zeros(4))


def test_self_certificate_at_full_step():
    st = symmetric_state()
    m = st.j
    lam, _ = oracles.leading_eigenpair(st.M, st.T[:m])
    diag = oracles.tau_certificate(st, m)
    assert diag.condition_ok
    assert diag.r_norm <= 1e-12
    assert diag.tau_bound <= 1e-11
    assert diag.tail_norm == 0.0
    assert diag.theta_shift <= 1e-12
    npt.assert_allclose(diag.theta_matched, abs(lam), rtol=1e-12)
    # the embedding is an eigenvector of the symmetric K, so delta_true is
    # the distance from theta to the rest of its spectrum
    ev = np.linalg.eigvalsh(oracles.khat(st.M, st.T[:m]))
    rest = np.delete(ev, np.argmin(np.abs(ev - lam.real)))
    npt.assert_allclose(diag.delta_true, np.min(np.abs(rest - lam.real)),
                        rtol=1e-12)


def run_state(token, fid, eps_out, eps_inner=1e-10, m_max=300):
    A = build_operator(parse_matrix_token(token))
    rep = run(A, get_function(fid), eps_out, m_max=m_max,
              inner_policy=InnerPolicy(eps_inner=eps_inner), seed=0,
              keep_state=True)
    assert rep.converged
    return rep.state


def test_certificate_on_converged_run():
    st = run_state("A2:n=200", "sqrt", 1e-6)
    m = st.j
    theta_k, _ = oracles.leading_eigenpair(st.M[:m - 1, :m - 1],
                                           st.T[:m - 1, :m - 1])
    diag = oracles.tau_certificate(st, m - 1)
    assert diag.condition_ok
    assert diag.tail_norm <= diag.tail_bound + 1e-10
    assert diag.theta_shift <= diag.s_norm * diag.tau_bound + 1e-10
    # the certified estimate is genuinely close to a full-problem eigenvalue
    assert diag.theta_shift <= 1e-4 * abs(theta_k)


def test_certificate_far_from_convergence_is_weaker():
    st = run_state("A5:n=100", "exp", 1e-8)
    m = st.j
    diag_e = oracles.tau_certificate(st, max(3, m // 3))
    diag_l = oracles.tau_certificate(st, m - 1)
    for diag in (diag_e, diag_l):
        if diag.condition_ok:
            assert diag.tail_norm <= diag.tail_bound + 1e-10
            assert diag.theta_shift <= diag.s_norm * diag.tau_bound + 1e-10
    assert diag_l.tau_bound < diag_e.tau_bound
    assert diag_l.theta_shift < diag_e.theta_shift + 1e-12


def test_certificate_survives_block_perturbation():
    st = run_state("A5:n=49", "exp", 1e-7, m_max=60)
    m = st.j
    # perturb only the entries a state stores: M upper triangular, T upper
    # Hessenberg; the certified pair comes from the perturbed state itself
    rng = np.random.default_rng(1)
    Mm = st.M + 1e-3 * np.triu(rng.standard_normal((m, m)))
    Tm = st.T + 1e-3 * np.triu(rng.standard_normal((m + 1, m)), -1)
    pert = oracles.state_from(Mm, Tm, st.ledger.g1, st.ledger.g2)
    diag = oracles.tau_certificate(pert, m - 1)
    assert diag.r_norm >= 0 and diag.delta_true >= 0
    if diag.condition_ok:
        assert diag.tail_norm <= diag.tail_bound + 1e-10
        assert diag.theta_shift <= diag.s_norm * diag.tau_bound + 1e-10


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
