"""Outer iteration: inexact Golub-Kahan-Lanczos bidiagonalization of f(A).

Each step applies the two inner approximations

    z1 ~ f(A)   v_j   ->  orthogonalized against U, extending M (upper triangular)
    z2 ~ f(A)^H u_j   ->  orthogonalized against V, extending T (upper Hessenberg)

Because the products are inexact, the short recurrences do not truncate: both
orthogonalizations run against the full bases and every accumulated
coefficient is kept.  A run takes at most min(m_max, n) steps, so the bases
and the buffer that holds M and T are allocated once, to that cap, when the
run starts, and each step writes its columns in place.  Singular triplet
estimates are the eigenpairs of

    K = [[0, M], [T_square, 0]]

whose spectrum pairs as +/- sigma estimates.  Since K^2 = diag(M T, T M),
they are read from the j x j eigenproblem of M T_square instead: theta is
the principal square root of an eigenvalue and the eigenvector of K is
[x; T_square x / theta].  The computed residual of an eigenpair
(theta, q=[x; y]) is |t_{j+1,j} * x_j|.  Inner error estimates are logged
per step; their weighted sum bounds the gap between the computed residual
and the true one, and convergence is declared when the two together drop
below eps_out * theta.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import relax
from .densela import eig_dense
from .functions import DomainError, ScalarFunction
from .inner import _LAG, InnerPolicy, approx_fAv
from .orth import BasisBreakdown, rgs

__all__ = [
    "InexactnessLedger",
    "InnerPolicy",
    "TripletEstimate",
    "RunReport",
    "BidiagState",
    "rgs",
    "bidiag_step",
    "run",
]


@dataclass
class InexactnessLedger:
    """Per-step inner error estimates and the tolerances that were issued."""

    g1: list = field(default_factory=list)  # ||f(A) v_j - z1||  (estimates)
    g2: list = field(default_factory=list)  # ||f(A)^H u_j - z2|| (estimates)
    eps_issued: list = field(default_factory=list)

    def append_step(self, g1, g2, eps):
        self.g1.append(float(g1))
        self.g2.append(float(g2))
        self.eps_issued.append(float(eps))

    def __len__(self):
        return len(self.g1)


@dataclass
class TripletEstimate:
    """One singular triplet estimate (theta, left, right) with its residuals.

    ``run`` returns ``left`` and ``right`` as unit n-vectors in span(U) and
    span(V).  During the loop ``_extract`` stores only their coefficient
    vectors in those bases; ``run`` lifts them to n-vectors once, on exit.
    """

    theta: float
    left: np.ndarray
    right: np.ndarray
    computed_residual: float
    gap_bound: float
    theta_gap_second: float


class BidiagState:
    """Bases and coupling matrices of the bidiagonalization after j steps.

    Everything is allocated once, for at most cap = min(m_max, n) steps:
    U and V in column-major n x (cap + 1) buffers, M (j x j, upper
    triangular) and T ((j+1) x j, upper Hessenberg) in one zero-filled
    buffer, ``_coupling[0]`` and ``_coupling[1]``.  Each step writes its
    columns in place.  ``U`` (j columns), ``V`` (j + 1 columns, or j once
    the right basis is exhausted), ``M``, ``T`` and ``t_next`` read views
    of the buffers, so nothing is copied or rebuilt per step.
    """

    def __init__(self, v1, m_max):
        v1 = np.asarray(v1)
        nrm = np.linalg.norm(v1)
        if nrm == 0.0:
            raise ValueError("start vector must be nonzero")
        n = v1.shape[0]
        cap = min(m_max, n)
        self._U = np.empty((n, cap + 1), dtype=v1.dtype, order="F")
        self._V = np.empty_like(self._U)
        self._V[:, 0] = v1 / nrm
        self.j = 0
        self._coupling = np.zeros((2, cap + 1, cap), dtype=v1.dtype)
        self.ledger = InexactnessLedger()
        self.exhausted = False  # right basis cannot be extended further
        # step of the first lagged test in the next inner solves: the
        # smaller inner dimension of the last step minus the lag
        self.first_test = _LAG + 1

    def append_columns(self, m_coeffs, t_coeffs):
        """Store column j+1 of M (j+1 entries) and of T (j+2 entries)."""
        j = self.j
        self._coupling[0, : j + 1, j] = m_coeffs
        self._coupling[1, : j + 2, j] = t_coeffs
        self.j = j + 1

    @property
    def U(self):
        return self._U[:, : self.j]

    @property
    def V(self):
        return self._V[:, : self.j + (not self.exhausted)]

    @property
    def M(self):
        return self._coupling[0, : self.j, : self.j]

    @property
    def T(self):
        return self._coupling[1, : self.j + 1, : self.j]

    @property
    def t_next(self):
        j = self.j
        return float(abs(self._coupling[1, j, j - 1])) if j else 0.0


def bidiag_step(state: BidiagState, A, f: ScalarFunction, eps_inner,
                policy: InnerPolicy):
    """Advance the bidiagonalization by one step (two inner solves).

    Returns the inner results ``(r1, r2)`` of f(A) v_j and f(A)^H u_j; r2
    is None, and the state unchanged, when f(A) v_j lies in span(U).  When
    f(A)^H u_j lies in span(V), ``state.exhausted`` is set.
    """
    if state.exhausted:
        raise RuntimeError("right basis is exhausted; cannot step further")
    j = state.j
    r1 = approx_fAv(A, f, state._V[:, j], eps_inner, policy, adjoint=False,
                    first_test=state.first_test)
    try:
        u_j, m_coeffs = rgs(r1.vector, state.U)
    except BasisBreakdown:
        # the left space is invariant and no new direction exists
        return r1, None
    state._U[:, j] = u_j

    # the first step has no earlier dimensions: the adjoint solve takes its
    # hint from the forward one
    r2 = approx_fAv(A, f, u_j, eps_inner, policy, adjoint=True,
                    first_test=r1.dims_used - _LAG if j == 0
                    else state.first_test)
    try:
        v_next, t_coeffs = rgs(r2.vector, state.V)
        state._V[:, j + 1] = v_next
    except BasisBreakdown as bd:
        # f(A)^H u_j already lies in span(V): record the projections with the
        # (numerically zero) next coefficient; the computed residual vanishes
        t_coeffs = bd.coeffs
        state.exhausted = True

    state.first_test = min(r1.dims_used, r2.dims_used) - _LAG
    state.append_columns(m_coeffs, t_coeffs)
    state.ledger.append_step(r1.err_estimate, r2.err_estimate, eps_inner)
    return r1, r2


def _projected_eig(M, T, count):
    """Eigenpairs of K = [[0, M], [T, 0]] (T square) from the j x j problem.

    K squares to diag(M T, T M), so each eigenpair (lambda, x) of M T gives
    the two eigenpairs (+/- theta, [x; +/- T x / theta]) of K, theta =
    sqrt(lambda) the principal root; on the imaginary axis the root with
    Im >= 0 represents the pair.  Returns the j representatives theta,
    ordered by modulus descending (then larger real part, then larger
    imaginary part), and as columns the blocks x (unit) and y = T x / theta
    of the leading ``count`` of them; y = 0 when theta == 0.

    Because lambda = theta^2, a trailing theta loses relative accuracy: its
    absolute error is about eps * theta_max.  M T also squares the range of
    the entries, and scipy 1.17.1's eig pins the eigenvalues of a matrix
    with all entries beyond about 1e-/+138 near 6.7e-139 or 1.5e138.  So M
    and T are first divided by 2^e, e the binary exponent of their largest
    entry, which is exact, and theta is multiplied back.
    """
    scale = 2.0 ** np.frexp(max(np.abs(M).max(), np.abs(T).max()))[1]
    w, vr = eig_dense((M / scale) @ (T / scale))
    theta = np.sqrt(w) * scale
    theta[(theta.real == 0.0) & (theta.imag < 0.0)] *= -1.0
    order = np.lexsort((-theta.imag, -theta.real, -np.abs(theta)))
    # vr is real when every eigenvalue is; the blocks are complex regardless
    theta, X = theta[order], vr[:, order[:count]].astype(complex)
    Y = np.column_stack([T @ x / t if t != 0.0 else np.zeros_like(x)
                         for x, t in zip(X.T, theta)])
    return theta, X, Y


def _extract(state: BidiagState, num_triplets=1):
    """Triplet estimates plus the leading gap delta (for the relax scheduler).

    Each estimate comes from the +theta eigenvector [x; y] of K, scaled to
    unit length like an eigenvector from eig(K): it gives the computed
    residual t_next * |x_j|, the gap bound and the left/right coefficient
    vectors.  delta is the distance from the leading theta to the rest of
    the +/- theta spectrum, where the absolute error of a trailing theta
    (see ``_projected_eig``) is harmless.

    The estimates carry the unit coefficient vectors of their left and
    right vectors in U and V (length j); ``run`` lifts them to n-vectors
    once, on exit.
    """
    j = state.j
    theta, X, Y = _projected_eig(state.M, state.T[:j], min(num_triplets, j))
    t_next = state.t_next
    g1 = np.asarray(state.ledger.g1)
    g2 = np.asarray(state.ledger.g2)

    triplets = []
    for rank, (x, y) in enumerate(zip(X.T, Y.T)):
        yn = np.linalg.norm(y)
        qn = np.hypot(1.0, yn)  # ||[x; y]||
        residual = t_next * abs(x[j - 1]) / qn
        gap = float(np.sum(np.sqrt(g1 ** 2 * np.abs(y) ** 2
                                   + g2 ** 2 * np.abs(x) ** 2))) / qn
        modulus = float(abs(theta[rank]))
        if rank + 1 < j:
            theta2 = float(abs(theta[rank + 1]))
            rel_gap = (modulus - theta2) / modulus if modulus > 0 else np.nan
        else:
            rel_gap = np.nan
        right = y / yn if yn > 0 else y
        triplets.append(TripletEstimate(
            theta=modulus, left=x, right=right,
            computed_residual=float(residual), gap_bound=gap,
            theta_gap_second=rel_gap))

    # smallest distance from the leading eigenvalue of K to the rest of its
    # spectrum (+/- theta), reused by the relaxation scheduler
    delta = float(np.min(np.abs(np.concatenate([theta[1:], -theta])
                                - theta[0])))
    return triplets, delta


@dataclass
class RunReport:
    """Outcome of one outer run; every other number is derived from these."""

    triplets: list
    inner_total: int
    wall_time_s: float
    converged: bool
    ledger: InexactnessLedger
    aborted: str | None = None
    state: BidiagState | None = None

    @property
    def sigma(self):
        return self.triplets[0].theta if self.triplets else np.nan

    @property
    def outer_iters(self):
        return len(self.ledger)

    @property
    def inner_avg(self):
        return self.inner_total / (2 * len(self.ledger)) if self.ledger else 0.0

    @property
    def rel_gap_second(self):
        return self.triplets[0].theta_gap_second if self.triplets else np.nan

    @property
    def gap_bound(self):
        return self.triplets[0].gap_bound if self.triplets else np.nan


def _start_vector(n, dtype, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    return v.astype(dtype)


def run(A, f: ScalarFunction, eps_out, m_max=500,
        inner_policy: InnerPolicy | None = None, num_triplets=1, seed=0,
        keep_state=False) -> RunReport:
    """Approximate the leading singular triplets of f(A).

    ``converged`` means that the leading estimate is certified:
    computed_residual + gap_bound < eps_out * theta, which bounds the true
    residual too; secondary triplets are monitored but do not gate.
    Otherwise ``aborted`` names the stop: "domain error in inner solve: ..."
    (the report carries the message instead of raising), "left basis
    breakdown" (f(A) v_j lies in span(U); the step j - 1 estimates kept had
    just failed the test), "inner solve unconverged: the gap bound is not
    finite" (the ledger keeps an infinite estimate, so no later step could
    certify) or "right basis exhausted before convergence".  It stays None
    when min(m_max, n) steps ran out.
    """
    if not (0.0 < eps_out < 1.0):
        raise ValueError("eps_out must lie in (0, 1)")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    policy = inner_policy or InnerPolicy()
    num_triplets = max(1, int(num_triplets))

    t0 = time.perf_counter()
    state = BidiagState(_start_vector(A.n, A.dtype, seed), m_max)
    inner_total = 0
    converged = False
    aborted = None
    triplets: list = []
    prev = None  # (theta, delta, residual) from the previous step

    # V fills the whole space within n steps, so a run ends there at the
    # latest; the state is allocated for no more
    for k in range(1, min(m_max, A.n) + 1):
        if policy.eps_inner is not None:
            eps_k = policy.eps_inner
        elif not policy.relax or prev is None:
            eps_k = eps_out / m_max
        else:
            eps_k = relax.next_tolerance(k, *prev, eps_out, m_max)
        try:
            r1, r2 = bidiag_step(state, A, f, eps_k, policy)
        except DomainError as exc:
            aborted = f"domain error in inner solve: {exc}"
            break
        inner_total += r1.dims_used
        if r2 is None:
            aborted = "left basis breakdown"
            break
        inner_total += r2.dims_used
        triplets, delta = _extract(state, num_triplets)
        lead = triplets[0]
        if lead.computed_residual + lead.gap_bound < eps_out * lead.theta:
            converged = True
            break
        if not np.isfinite(lead.gap_bound):
            aborted = "inner solve unconverged: the gap bound is not finite"
            break
        if state.exhausted:
            aborted = "right basis exhausted before convergence"
            break
        prev = (lead.theta, delta, lead.computed_residual)

    for t in triplets:  # coefficient vectors in U and V -> n-vectors
        t.left = state._U[:, : t.left.shape[0]] @ t.left
        t.right = state._V[:, : t.right.shape[0]] @ t.right
    return RunReport(
        triplets=triplets, inner_total=inner_total,
        wall_time_s=time.perf_counter() - t0, converged=converged,
        ledger=state.ledger, aborted=aborted,
        state=state if keep_state else None)
