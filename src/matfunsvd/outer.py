"""Outer iteration: inexact Golub-Kahan-Lanczos bidiagonalization of f(A).

Each step applies the two inner approximations

    z1 ~ f(A)   v_j   ->  orthogonalized against U, extending M (upper triangular)
    z2 ~ f(A)^H u_j   ->  orthogonalized against V, extending T (upper Hessenberg)

Because the products are inexact, the short recurrences do not truncate: both
orthogonalizations run against the full bases and every accumulated
coefficient is kept, written in place into one growing buffer that holds M
and T.  Singular triplet estimates are the eigenpairs of

    K = [[0, M], [T_square, 0]]

whose spectrum pairs as +/- sigma estimates.  Since K^2 = diag(M T, T M),
they are read from the j x j eigenproblem of M T_square instead: theta is
the principal square root of an eigenvalue and the eigenvector of K is
[x; T_square x / theta].  The computed residual of an eigenpair
(theta, q=[x; y]) is |t_{j+1,j} * x_j| and convergence is declared when it
drops below eps_out * theta.  Inner error estimates are logged per step;
their weighted sum bounds the gap between the computed residual and the
true one.  ``build_khat`` and ``leading_eigenpair`` keep the 2j x 2j form
as the reference for ``verify_tau`` and the tests.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import relax
from .densela import eig_dense
from .functions import DomainError, ScalarFunction
from .inner import _LAG, InnerConfig, approx_fAv
from .orth import BasisBreakdown, GrowingBasis, rgs

__all__ = [
    "InexactnessLedger",
    "InnerPolicy",
    "TripletEstimate",
    "RunReport",
    "BidiagState",
    "rgs",
    "bidiag_step",
    "build_khat",
    "leading_eigenpair",
    "run",
]

_CAPACITY = 16  # initial column capacity of the coupling-matrix buffer


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


@dataclass(frozen=True)
class InnerPolicy:
    """Run-level recipe for inner tolerances and the subspace method."""

    method: str = "standard-krylov"
    max_dim: int = 300
    relax: bool = False
    eps_inner: float | None = None  # explicit fixed override

    def __post_init__(self):
        if self.relax and self.eps_inner is not None:
            raise ValueError("relax mode and an explicit eps_inner are exclusive")


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

    M (j x j, upper triangular) and T ((j+1) x j, upper Hessenberg) live in
    one zero-filled buffer, ``_coupling[0]`` and ``_coupling[1]``, which
    doubles its column capacity when full, as ``GrowingBasis`` does.  Each
    step writes one column of each in place; ``M``, ``T`` and ``t_next``
    read views of the buffer, so nothing is rebuilt per step.
    """

    def __init__(self, v1):
        v1 = np.asarray(v1)
        nrm = np.linalg.norm(v1)
        if nrm == 0.0:
            raise ValueError("start vector must be nonzero")
        self.n = v1.shape[0]
        self.dtype = v1.dtype
        self.U = GrowingBasis(self.n, v1.dtype)
        self.V = GrowingBasis(self.n, v1.dtype)
        self.V.append(v1 / nrm)
        self.j = 0
        self._coupling = np.zeros((2, _CAPACITY + 1, _CAPACITY),
                                  dtype=v1.dtype)
        self.ledger = InexactnessLedger()
        self.exhausted = False  # right basis cannot be extended further
        # step of the first lagged test in the next inner solves: the
        # smaller inner dimension of the last step minus the lag
        self.first_test = _LAG + 1

    def append_columns(self, m_coeffs, t_coeffs):
        """Store column j+1 of M (j+1 entries) and of T (j+2 entries)."""
        j = self.j
        cap = self._coupling.shape[2]
        if j == cap:
            bigger = np.zeros((2, 2 * cap + 1, 2 * cap), dtype=self.dtype)
            bigger[:, : cap + 1, :cap] = self._coupling
            self._coupling = bigger
        self._coupling[0, : j + 1, j] = m_coeffs
        self._coupling[1, : j + 2, j] = t_coeffs
        self.j = j + 1

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


@dataclass
class StepInfo:
    status: str           # "ok" | "breakdown-U" | "exhausted-V"
    inner_dims: int = 0
    inner_converged: bool = True


def bidiag_step(state: BidiagState, A, f: ScalarFunction,
                inner_cfg: InnerConfig) -> StepInfo:
    """Advance the bidiagonalization by one step (two inner solves)."""
    if state.exhausted:
        raise RuntimeError("right basis is exhausted; cannot step further")
    v_j = state.V.column(state.j)

    r1 = approx_fAv(A, f, v_j, inner_cfg, adjoint=False,
                    first_test=state.first_test)
    try:
        u_j, m_coeffs = rgs(r1.vector, state.U.matrix())
    except BasisBreakdown:
        # f(A) v_j lies in span(U): the left space is invariant and no new
        # direction exists; the caller finalizes at the previous step
        return StepInfo(status="breakdown-U", inner_dims=r1.dims_used,
                        inner_converged=r1.converged)
    state.U.append(u_j)

    r2 = approx_fAv(A, f, u_j, inner_cfg, adjoint=True,
                    first_test=state.first_test)
    try:
        v_next, t_coeffs = rgs(r2.vector, state.V.matrix())
    except BasisBreakdown as bd:
        # f(A)^H u_j already lies in span(V): record the projections with the
        # (numerically zero) next coefficient; the computed residual vanishes
        t_coeffs, v_next = bd.coeffs, None
        state.exhausted = True

    state.first_test = min(r1.dims_used, r2.dims_used) - _LAG
    state.append_columns(m_coeffs, t_coeffs)
    if v_next is not None:
        state.V.append(v_next)
    state.ledger.append_step(r1.err_estimate, r2.err_estimate,
                             inner_cfg.eps_inner)
    return StepInfo(
        status="exhausted-V" if v_next is None else "ok",
        inner_dims=r1.dims_used + r2.dims_used,
        inner_converged=r1.converged and r2.converged)


def build_khat(M, T_square):
    """Assemble K = [[0, M], [T_square, 0]] from the coupling matrices."""
    j = M.shape[0]
    K = np.zeros((2 * j, 2 * j), dtype=np.promote_types(M.dtype, T_square.dtype))
    K[:j, j:] = M
    K[j:, :j] = T_square
    return K


def _representatives(values):
    """One eigenvalue per +/- pair: positive real part wins, then Im >= 0.

    Sorted by modulus descending with deterministic tie-breaking
    (larger real part first, then larger imaginary part).
    """
    keep = (values.real > 0.0) | ((values.real == 0.0) & (values.imag >= 0.0))
    idx = np.flatnonzero(keep)
    order = sorted(idx, key=lambda i: (-abs(values[i]), -values[i].real,
                                       -values[i].imag))
    return order


def _extract(state: BidiagState, num_triplets=1):
    """Triplet estimates plus the leading gap delta (for the relax scheduler).

    Solves the projected problem in its j x j form.  K = [[0, M], [T, 0]]
    (T square, its first j rows) squares to diag(M T, T M), so each
    eigenpair (lambda, x) of M T gives the two eigenpairs
    (+/- theta, [x; +/- T x / theta]) of K, theta = sqrt(lambda) the
    principal root.  The +theta vector [x; y], scaled to unit length like
    an eigenvector from eig(K), gives the computed residual t_next * |x_j|,
    the gap bound and the left/right coefficient vectors; delta is the
    distance from the leading theta to the rest of the +/- theta spectrum.
    When theta == 0 both roots vanish and y = 0.

    Because lambda = theta^2, a trailing theta loses relative accuracy: its
    absolute error is about eps * theta_max.  Only the leading estimates
    are reported, and in delta that absolute error is harmless.  M T also
    squares the range of the entries; the vector norms of the run loop
    already keep theta within the square root of the floating-point range.

    The estimates carry the unit coefficient vectors of their left and
    right vectors in U and V (length j); ``run`` lifts them to n-vectors
    once, on exit.
    """
    j = state.j
    if j == 0:
        raise ValueError("cannot extract from an empty state")
    T = state.T[:j]
    dec = eig_dense(state.M @ T)
    theta = np.sqrt(dec.values)
    # every principal root represents its +/- pair; on the imaginary axis
    # the representative has Im >= 0, as _representatives picks it in K
    theta[(theta.real == 0.0) & (theta.imag < 0.0)] *= -1.0
    order = _representatives(theta)
    t_next = state.t_next
    g1 = np.asarray(state.ledger.g1)
    g2 = np.asarray(state.ledger.g2)

    triplets = []
    count = min(num_triplets, len(order))
    for rank in range(count):
        i = order[rank]
        x = dec.vectors[:, i]  # unit
        y = T @ x / theta[i] if theta[i] != 0.0 else np.zeros(j, dtype=complex)
        yn = np.linalg.norm(y)
        qn = np.hypot(1.0, yn)  # ||[x; y]||
        residual = t_next * abs(x[j - 1]) / qn
        gap = float(np.sum(np.sqrt(g1 ** 2 * np.abs(y) ** 2
                                   + g2 ** 2 * np.abs(x) ** 2))) / qn
        modulus = float(abs(theta[i]))
        if rank + 1 < len(order):
            theta2 = float(abs(theta[order[rank + 1]]))
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
    lead = theta[order[0]]
    others = np.concatenate([np.delete(theta, order[0]), -theta])
    delta = float(np.min(np.abs(others - lead)))
    return triplets, delta


def leading_eigenpair(K):
    """Leading (+)-representative eigenpair of a block matrix [[0,M],[T,0]]."""
    dec = eig_dense(K)
    order = _representatives(dec.values)
    if not order:
        raise ValueError("no representative eigenvalue found")
    i = order[0]
    return dec.values[i], dec.vectors[:, i]


@dataclass
class RunReport:
    """Outcome of one outer run; JSON field names are part of the contract."""

    sigma: float
    triplets: list
    outer_iters: int
    inner_total: int
    inner_avg: float
    wall_time_s: float
    converged: bool
    seed: int
    eps_history: list
    ledger: InexactnessLedger
    matrix_label: str = ""
    function_label: str = ""
    method_label: str = "lanczos"
    aborted: str | None = None
    state: BidiagState | None = None

    @property
    def rel_gap_second(self):
        return self.triplets[0].theta_gap_second if self.triplets else np.nan

    @property
    def gap_bound(self):
        return self.triplets[0].gap_bound if self.triplets else np.nan

    def to_json_dict(self):
        return {
            "matrix": self.matrix_label,
            "function": self.function_label,
            "sigma": self.sigma,
            "rel_gap_second": self.rel_gap_second,
            "outer": self.outer_iters,
            "inner_total": self.inner_total,
            "inner_avg": self.inner_avg,
            "time_s": self.wall_time_s,
            "converged": self.converged,
            "gap_bound": self.gap_bound,
            "method": self.method_label,
            "seed": self.seed,
        }


def _start_vector(n, dtype, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    return v.astype(dtype)


def run(A, f: ScalarFunction, eps_out, m_max=500,
        inner_policy: InnerPolicy | None = None, num_triplets=1, seed=0,
        keep_state=False, matrix_label="", function_label="") -> RunReport:
    """Approximate the leading singular triplets of f(A).

    Stops when the relative computed residual of the largest estimate drops
    below eps_out (secondary triplets are monitored but do not gate).
    Breakdown of either basis certifies an invariant subspace, so a run that
    terminates this way with at least one extracted triplet counts as
    converged.  Domain errors from the scalar function abort the run; the
    report carries the message instead of raising.
    """
    if not (0.0 < eps_out < 1.0):
        raise ValueError("eps_out must lie in (0, 1)")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    policy = inner_policy or InnerPolicy()
    num_triplets = max(1, int(num_triplets))

    t0 = time.perf_counter()
    state = BidiagState(_start_vector(A.n, A.dtype, seed))
    inner_total = 0
    eps_history: list = []
    converged = False
    aborted = None
    triplets: list = []
    prev = None  # (theta, delta, residual) from the previous step

    for k in range(1, m_max + 1):
        if policy.eps_inner is not None:
            eps_k = policy.eps_inner
        elif not policy.relax or prev is None:
            eps_k = eps_out / m_max
        else:
            eps_k = relax.next_tolerance(k, prev[0], prev[1], prev[2],
                                         eps_out, m_max)
        cfg = InnerConfig(eps_inner=eps_k, method=policy.method,
                          max_dim=policy.max_dim)
        try:
            info = bidiag_step(state, A, f, cfg)
        except DomainError as exc:
            aborted = f"domain error in inner solve: {exc}"
            break
        inner_total += info.inner_dims
        if info.status == "breakdown-U":
            # no new left direction exists: the captured subspace is
            # invariant and the current estimates are exact up to the ledger
            converged = bool(triplets)
            if not converged:
                aborted = "left basis breakdown before any completed step"
            break
        eps_history.append(eps_k)
        triplets, delta = _extract(state, num_triplets)
        lead = triplets[0]
        theta = lead.theta
        if theta > 0.0 and lead.computed_residual < eps_out * theta:
            converged = True
            break
        if state.exhausted:
            aborted = "right basis exhausted before convergence"
            break
        prev = (theta, delta, lead.computed_residual)

    for t in triplets:  # coefficient vectors in U and V -> n-vectors
        t.left = state.U.matrix()[:, : t.left.shape[0]] @ t.left
        t.right = state.V.matrix()[:, : t.right.shape[0]] @ t.right
    wall = time.perf_counter() - t0
    outer = state.j
    sigma = triplets[0].theta if triplets else np.nan
    return RunReport(
        sigma=sigma, triplets=triplets, outer_iters=outer,
        inner_total=inner_total,
        inner_avg=inner_total / (2 * outer) if outer else 0.0,
        wall_time_s=wall, converged=converged, seed=seed,
        eps_history=eps_history, ledger=state.ledger,
        matrix_label=matrix_label, function_label=function_label or f.id,
        aborted=aborted, state=state if keep_state else None)
