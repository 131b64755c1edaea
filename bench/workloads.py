"""Benchmark workloads: which problem each one solves and what counts as correct.

A workload is a closed loop over *units*.  A unit is the work done for one
start vector: one ``run`` call, or for the criterion-5 workload one fixed and
one relaxed ``run`` call from the same start vector.  The workload seed given
on the command line only chooses the start-vector seeds handed to
``run(seed=...)``; the matrix, function and tolerances are fixed.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# relaxed and fixed sigma of one start vector must agree this closely
# (criterion 5)
PAIR_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    family: str              # "A2" or "A5"
    n: int
    function: str
    eps_out: float
    m_max: int
    method: str              # "standard-krylov" or "extended-krylov"
    eps_inner: float | None  # fixed inner tolerance; None for the pair
    pair: bool               # unit = fixed + relaxed solve (criterion 5)
    reference: float         # independent sigma, see references.py
    reference_rtol: float
    quality_units: int       # the first units give the count metrics

    @property
    def token(self):
        return f"{self.family}:n={self.n}"

    @property
    def nnz(self):
        """Stored nonzeros of A, for computed matvec flops."""
        if self.family == "A2":
            return 3 * self.n - 2
        return 5 * self.n - 4 * math.isqrt(self.n)

    def policies(self, InnerPolicy):
        """(label, policy) of each run call in one unit."""
        if self.pair:
            return (("fixed", InnerPolicy(method=self.method)),
                    ("relaxed", InnerPolicy(method=self.method, relax=True)))
        return (("fixed", InnerPolicy(method=self.method,
                                      eps_inner=self.eps_inner)),)


def start_seed(workload_seed, unit):
    """Start-vector seed of a unit, derived from the workload seed alone."""
    return int(np.random.SeedSequence([workload_seed, unit]).generate_state(1)[0])


def check(workload, report):
    """Reason a finished run misses its reference, or None when it passes."""
    if report.aborted:
        return f"aborted: {report.aborted}"
    if not report.converged:
        return "converged=False"
    rel = abs(report.sigma - workload.reference) / workload.reference
    if not rel <= workload.reference_rtol:
        return (f"sigma {report.sigma!r} is {rel:.2e} from reference "
                f"{workload.reference!r} (rtol {workload.reference_rtol:g})")
    return None


def check_pair(fixed_sigma, relaxed_sigma):
    rel = abs(relaxed_sigma - fixed_sigma) / abs(fixed_sigma)
    if not rel <= PAIR_RTOL:
        return f"relaxed sigma is {rel:.2e} from fixed (limit {PAIR_RTOL:g})"
    return None


def load():
    """The benchmark workloads by name, with references from references.json."""
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)

    def ref(family, n, function):
        entry = refs[f"{family}:n={n}/{function}"]
        return entry["sigma"], entry["rtol"]

    a5_exp = ref("A5", 10000, "exp")
    a5_inv = ref("A5", 2500, "invsqrt")
    a2_exp = ref("A2", 2500, "exp")
    workloads = (
        # criterion-1 grid row: the inner layer dominates (Gram-Schmidt,
        # Pade f(H), matvecs); the projected eigensolve is under a tenth
        Workload(
            "a5-exp-grid", "A5", 10000, "exp", 1e-4, 500, "standard-krylov",
            1e-7, False, *a5_exp, quality_units=22),
        # criterion 5: the same inner layer through LU solves, eigen and
        # Schur-Parlett f(H) and the relax scheduler; the only LU in set-up
        Workload(
            "a5-invsqrt-eksm", "A5", 2500, "invsqrt", 1e-7, 50,
            "extended-krylov", None, True, *a5_inv, quality_units=10),
        # not in BENCHMARK.json: the projected eigensolve dominates, but one
        # solve takes 10-40 s and 175-273 outer steps with the start vector,
        # so no run that fits the time budget gives a steady median; kept
        # runnable for traces of that layer
        Workload(
            "a2-exp-long", "A2", 2500, "exp", 1e-4, 500, "standard-krylov",
            1e-7, False, *a2_exp, quality_units=1),
    )
    return {w.name: w for w in workloads}
