"""Span tracer that wraps the solver's layers from outside the package.

Each traced call records a span ``[name, start, end, parent, solve, attrs]``
in memory: the parent is the index of the enclosing span and ``solve`` the
identifier of the unit of work it belongs to.  Layers are wrapped by module
attribute, so a call is traced exactly when the caller looks the name up on
that module or class at call time.  A name that no longer exists is reported
as absent and its layer reads as never called.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _approx_attrs(args, kwargs, result):
    return {"dims": getattr(result, "dims_used", None),
            "converged": getattr(result, "converged", None),
            "breakdown": getattr(result, "breakdown", None)}


def _rgs_attrs(args, kwargs, result):
    # two classical Gram-Schmidt passes, each B^H z and B c: 8 n k real flops
    # (times 4 in complex arithmetic); computed, not counted by hardware
    basis = args[1] if len(args) > 1 else kwargs.get("basis")
    if basis is None:
        return {"flops": 0}
    n, k = basis.shape
    return {"flops": 8 * n * k * (4 if basis.dtype.kind == "c" else 1)}


def _matfun_attrs(args, kwargs, result):
    return {"dim": int(np.shape(args[0])[0])}


def _tolerance_attrs(args, kwargs, result):
    return {"eps": float(result)}


# (module, attribute path, span name, attribute recorder)
LAYERS = (
    ("matfunsvd.outer", "bidiag_step", "outer.bidiag_step", None),
    ("matfunsvd.outer", "approx_fAv", "inner.approx_fAv", _approx_attrs),
    ("matfunsvd.outer", "rgs", "orth.rgs.outer", None),
    ("matfunsvd.outer", "eig_dense", "densela.eig_dense.outer", None),
    ("matfunsvd.inner", "rgs", "orth.rgs.inner", _rgs_attrs),
    ("matfunsvd.densela", "dense_matfun", "densela.dense_matfun", _matfun_attrs),
    ("matfunsvd.densela", "eig_dense", "densela.eig_dense.matfun", None),
    ("matfunsvd.densela", "Factorization.solve", "densela.lu_solve", None),
    ("matfunsvd.operators", "LinearOperator.apply", "operators.apply", None),
    ("matfunsvd.operators", "LinearOperator.apply_adjoint",
     "operators.apply_adjoint", None),
    ("matfunsvd.operators", "LinearOperator.factorization",
     "operators.factorization", None),
    ("matfunsvd.relax", "next_tolerance", "relax.next_tolerance",
     _tolerance_attrs),
)

ROOT = "outer.run"


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.solve = None
        self.absent = []
        self._stack = []
        self._saved = []  # (owner, attribute, original, was_own_attribute)

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.solve, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every layer attribute by its traced wrapper."""
        absent = []
        for module, path, name, attrs in self.layers:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            own = attr in vars(owner)
            self._saved.append((owner, attr, fn, own))
            setattr(owner, attr, self._wrap(fn, name, attrs))
        self.absent = absent

    def uninstall(self):
        while self._saved:
            owner, attr, fn, own = self._saved.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def root(self, solve):
        """The root span of one solve; spans opened inside belong to it."""
        rec = [ROOT, 0.0, 0.0, None, solve, None]
        self.solve = solve
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.solve = None


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, solve, attrs in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def summarize(spans, solves):
    """Per-solve totals by span name over the given solve identifiers.

    Returns ``(per_name, roots)``: per_name maps a span name to lists of
    per-solve ``calls``, ``s``, ``self_s`` and recorded ``attrs``; roots holds
    each solve's root duration.
    """
    index = {s: i for i, s in enumerate(solves)}
    k = len(solves)
    selfs = self_times(spans)
    per_name = defaultdict(lambda: {"calls": [0] * k, "s": [0.0] * k,
                                    "self_s": [0.0] * k,
                                    "attrs": [[] for _ in range(k)]})
    roots = [0.0] * k
    for rec, self_s in zip(spans, selfs):
        name, t0, t1, parent, solve, attrs = rec
        i = index.get(solve)
        if i is None:
            continue
        entry = per_name[name]
        entry["calls"][i] += 1
        entry["s"][i] += t1 - t0
        entry["self_s"][i] += self_s
        if attrs is not None:
            entry["attrs"][i].append(attrs)
        if name == ROOT:
            roots[i] += t1 - t0
    return per_name, roots
