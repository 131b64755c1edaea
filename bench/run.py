"""Solver benchmark: time to a certified sigma, end to end and per layer.

    python3 bench/run.py --workload a5-exp-grid --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs a closed loop: units of work back to back, one at
a time, for ``--seconds`` (and at least the workload's ``quality_units``).
Every ``run`` call is checked against an independent reference.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each unit runs once untraced and once traced, the layers are
wrapped by module attribute (see tracer.py), and the last line carries the
per-layer metrics.  End-to-end times are scaled to a reference machine speed
measured by a probe around every unit (speed.py).  The result, with an
environment block, and the spans of a traced run are also written under
``.bench_out/``.
"""

import os
import sys

if __name__ == "__main__":
    # one BLAS thread: the loop is one process on a machine whose cores may
    # be shared, and thread count alone moves a2-exp-long by 2x; this has to
    # happen before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as workload_defs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 50
WARMUP_N = 100

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "outer_iters": "count",
    "inner_total": "count",
    "gap_bound_rel": "ratio",
    "certified_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "outer.run.s": "s",
    "outer.bidiag_step.s": "s",
    "outer.self_s": "s",
    "outer.steps": "count",
    "densela.eig_dense.outer.calls": "count",
    "densela.eig_dense.outer.s": "s",
    "inner.approx_fAv.calls": "count",
    "inner.approx_fAv.s": "s",
    "inner.approx_fAv.self_s": "s",
    "inner.dims_mean": "count",
    "inner.converged_frac": "ratio",
    "inner.breakdowns": "count",
    "orth.rgs.inner.calls": "count",
    "orth.rgs.inner.s": "s",
    "orth.rgs.inner.flops": "flop",
    "orth.rgs.outer.calls": "count",
    "orth.rgs.outer.s": "s",
    "operators.apply.calls": "count",
    "operators.apply.s": "s",
    "operators.apply.flops": "flop",
    "operators.factorization.s": "s",
    "densela.dense_matfun.calls": "count",
    "densela.dense_matfun.s": "s",
    "densela.dense_matfun.dim_mean": "count",
    "densela.eig_dense.matfun.s": "s",
    "densela.lu_solve.calls": "count",
    "densela.lu_solve.s": "s",
    "relax.next_tolerance.calls": "count",
    "relax.eps_issued_max_over_min": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The checkout does not hold the package sources."""


def load_api():
    """Import matfunsvd from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "matfunsvd", "__init__.py")):
        raise SetupError(f"no package sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import matfunsvd
    if os.path.dirname(os.path.dirname(os.path.abspath(matfunsvd.__file__))) != SRC:
        raise SetupError(f"matfunsvd was imported from {matfunsvd.__file__}")
    return matfunsvd


# ---------------------------------------------------------------------------
# environment block


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "matfunsvd", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# thread-count query of OpenBLAS under the symbol prefixes its wheels use
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def _openblas_threads():
    """Thread count each bundled OpenBLAS reports, by library file name."""
    found = {}
    for module in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            module.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in _THREAD_QUERIES:
                if hasattr(lib, symbol):
                    query = getattr(lib, symbol)
                    query.restype = ctypes.c_int
                    found[os.path.basename(path)] = query()
                    break
    return found


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


# ---------------------------------------------------------------------------
# set-up and solves


def set_up(api, wl):
    """Operator build plus, for the extended method, its first LU factor."""
    t0 = time.perf_counter()
    A = api.build_operator(api.parse_matrix_token(wl.token))
    if wl.method == "extended-krylov":
        A.factorization()
    return A, time.perf_counter() - t0


def solve_unit(api, A, f, wl, unit, seed, tracer=None):
    """Run the calls of one unit; one record per ``run`` call."""
    records = []
    for label, policy in wl.policies(api.InnerPolicy):
        rec = {"unit": unit, "policy": label, "seed": seed}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = api.run(A, f, wl.eps_out, m_max=wl.m_max,
                                 inner_policy=policy, seed=seed)
            else:
                with tracer.root(f"u{unit}-{label}"):
                    report = api.run(A, f, wl.eps_out, m_max=wl.m_max,
                                     inner_policy=policy, seed=seed)
        except Exception as exc:  # a raising solve is a failed solve
            rec["time_s"] = time.perf_counter() - t0
            rec["reason"] = "raised " + "".join(
                traceback.format_exception_only(exc)).strip()
            records.append(rec)
            continue
        rec["time_s"] = time.perf_counter() - t0
        lead = report.triplets[0] if report.triplets else None
        rec.update(
            sigma=float(report.sigma), outer=int(report.outer_iters),
            inner_total=int(report.inner_total),
            gap_bound=float(report.gap_bound),
            certified=bool(lead is not None and lead.computed_residual
                           + report.gap_bound < wl.eps_out * lead.theta),
            reason=workload_defs.check(wl, report))
        records.append(rec)
    if wl.pair and all("sigma" in r for r in records):
        fixed, relaxed = records
        if relaxed["reason"] is None:
            relaxed["reason"] = workload_defs.check_pair(fixed["sigma"],
                                                         relaxed["sigma"])
    for rec in records:
        rec["ok"] = rec["reason"] is None
    return records


def warm_up(api, wl):
    """One untimed small solve per policy, so lazy set-up is done."""
    small = dataclasses.replace(wl, n=WARMUP_N)
    A, _ = set_up(api, small)
    solve_unit(api, A, api.get_function(wl.function), small, -1, 0)


def closed_loop(seed, seconds, min_units, probe, do_unit):
    """Units back to back until the time is up and ``min_units`` are done.

    ``do_unit(unit, start_seed)`` returns its records; each gets the speed
    scale of the probes timed just before and just after it.  A unit starts
    only while it is expected to end before the deadline, so a run overshoots
    ``seconds`` by less than one unit's spread.
    """
    deadline = time.perf_counter() + seconds
    unit, lengths = 0, []
    before = probe.time()
    while (unit < min_units
           or time.perf_counter() + statistics.median(lengths) <= deadline):
        t0 = time.perf_counter()
        records = do_unit(unit, workload_defs.start_seed(seed, unit))
        after = probe.time()
        for rec in records:
            rec["probe_s"] = (before + after) / 2
            rec["scaled_s"] = rec["time_s"] * speed.REFERENCE_S / rec["probe_s"]
        lengths.append(time.perf_counter() - t0)
        before = after
        unit += 1


# ---------------------------------------------------------------------------
# metrics


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median(values):
    """Median, or NaN when every call that would give a value failed."""
    return statistics.median(values) if values else float("nan")


def _by_unit(records):
    units = defaultdict(list)
    for rec in records:
        units[rec["unit"]].append(rec)
    return [units[u] for u in sorted(units)]


def _unit_values(units, field):
    """Each unit's mean over those of its calls that have the field."""
    values = []
    for calls in units:
        got = [c[field] for c in calls if field in c]
        if got:
            values.append(sum(got) / len(got))
    return values


def tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    rank = n - 10
    if rank < (n + 1) // 2:
        return {"samples": n, "percentile": None, "value": None}
    return {"samples": n, "percentile": round(100.0 * rank / n, 1),
            "value": sorted(samples)[rank - 1]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, records, setup_s, rss_mb):
    units = _by_unit(records)
    quality = units[: wl.quality_units]
    calls = [c for u in quality for c in u]
    for c in calls:
        if "sigma" in c:
            c["gap_bound_rel"] = c["gap_bound"] / c["sigma"]
    failed = sum(not r["ok"] for r in records)
    # times and gap_bound_rel are medians, robust to a stall or an outlier;
    # the counts of the fixed quality units are means, which move smoothly
    # where the per-unit values jump between a few outer step counts
    metrics = {
        "solve_s": statistics.median(_unit_values(units, "scaled_s")),
        "setup_s": setup_s,
        "outer_iters": _mean(_unit_values(quality, "outer")),
        "inner_total": _mean(_unit_values(quality, "inner_total")),
        "gap_bound_rel": _median(_unit_values(quality, "gap_bound_rel")),
        "certified_frac": sum(c.get("certified", False) for c in calls)
        / len(calls),
        "ok_frac": 1.0 - failed / len(records),
        "peak_rss_mb": rss_mb,
    }
    detail = {"failed_frac": failed / len(records),
              "solve_s_tail": tail(_unit_values(units, "scaled_s")),
              "solve_wall_s": statistics.median(_unit_values(units, "time_s")),
              "probe_s": statistics.median(r["probe_s"] for r in records),
              "units": len(units), "quality_units": len(quality)}
    return metrics, detail


def per_layer(wl, tracer, solves, setups, overhead):
    """Per-layer metrics: means per traced solve (factorization: per set-up)."""
    per, roots = tracing.summarize(tracer.spans, solves)
    k = len(solves)

    def total(name, field):
        return _mean(per[name][field]) if name in per else 0.0

    def attrs(name, key):
        """Recorded values of one span attribute, per solve."""
        by_solve = per[name]["attrs"] if name in per else []
        return [[a[key] for a in solve if a.get(key) is not None]
                for solve in by_solve]

    def pooled(name, key):
        return [v for solve in attrs(name, key) for v in solve]

    converged = pooled("inner.approx_fAv", "converged")
    eps_ratios = [max(eps) / min(eps)
                  for eps in attrs("relax.next_tolerance", "eps") if eps]
    apply_calls = (total("operators.apply", "calls")
                   + total("operators.apply_adjoint", "calls"))
    setup_per, _ = tracing.summarize(tracer.spans, setups)
    fact = setup_per["operators.factorization"]["s"] \
        if "operators.factorization" in setup_per else []

    metrics = {
        "outer.run.s": _mean(roots),
        "outer.bidiag_step.s": total("outer.bidiag_step", "s"),
        "outer.self_s": total(tracing.ROOT, "self_s")
        + total("outer.bidiag_step", "self_s"),
        "outer.steps": total("outer.bidiag_step", "calls"),
        "densela.eig_dense.outer.calls": total("densela.eig_dense.outer", "calls"),
        "densela.eig_dense.outer.s": total("densela.eig_dense.outer", "s"),
        "inner.approx_fAv.calls": total("inner.approx_fAv", "calls"),
        "inner.approx_fAv.s": total("inner.approx_fAv", "s"),
        "inner.approx_fAv.self_s": total("inner.approx_fAv", "self_s"),
        "inner.dims_mean": _mean(pooled("inner.approx_fAv", "dims")),
        "inner.converged_frac": (sum(converged) / len(converged)
                                 if converged else 0.0),
        "inner.breakdowns": sum(pooled("inner.approx_fAv", "breakdown")) / k,
        "orth.rgs.inner.calls": total("orth.rgs.inner", "calls"),
        "orth.rgs.inner.s": total("orth.rgs.inner", "s"),
        "orth.rgs.inner.flops": sum(pooled("orth.rgs.inner", "flops")) / k,
        "orth.rgs.outer.calls": total("orth.rgs.outer", "calls"),
        "orth.rgs.outer.s": total("orth.rgs.outer", "s"),
        "operators.apply.calls": apply_calls,
        "operators.apply.s": (total("operators.apply", "s")
                              + total("operators.apply_adjoint", "s")),
        "operators.apply.flops": apply_calls * 2 * wl.nnz,
        "operators.factorization.s": _mean(fact),
        "densela.dense_matfun.calls": total("densela.dense_matfun", "calls"),
        "densela.dense_matfun.s": total("densela.dense_matfun", "s"),
        "densela.dense_matfun.dim_mean": _mean(pooled("densela.dense_matfun",
                                                      "dim")),
        "densela.eig_dense.matfun.s": total("densela.eig_dense.matfun", "s"),
        "densela.lu_solve.calls": total("densela.lu_solve", "calls"),
        "densela.lu_solve.s": total("densela.lu_solve", "s"),
        "relax.next_tolerance.calls": total("relax.next_tolerance", "calls"),
        "relax.eps_issued_max_over_min": _mean(eps_ratios) if eps_ratios else 1.0,
        "trace.overhead_s": overhead,
    }
    root_s = _mean(roots)
    split = {name: {"self_s": _mean(entry["self_s"]),
                    "share": _mean(entry["self_s"]) / root_s if root_s else 0.0}
             for name, entry in sorted(per.items(),
                                       key=lambda kv: -sum(kv[1]["self_s"]))}
    detail = {"absent": tracer.absent, "traced_solves": k,
              "self_split": split,
              "self_sum_minus_root_s": sum(v["self_s"] for v in split.values())
              - root_s}
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point


def measure(api, wl, seed, seconds, trace):
    f = api.get_function(wl.function)
    warm_up(api, wl)
    probe = speed.SpeedProbe()
    probe.time()
    tracer = tracing.Tracer() if trace else None
    setup_times, setups = [], []
    if tracer is not None:
        tracer.install()
    before = probe.time()
    try:
        for i in range(SETUP_REPS):
            if tracer is not None:
                tracer.solve = f"setup{i}"
                setups.append(tracer.solve)
            A, dt = set_up(api, wl)
            setup_times.append(dt)
    finally:
        if tracer is not None:
            tracer.solve = None
            tracer.uninstall()
    setup_probe = (before + probe.time()) / 2
    setup_s = statistics.median(setup_times) * speed.REFERENCE_S / setup_probe

    records = []
    if not trace:
        rss = []

        def one(unit, s):
            recs = solve_unit(api, A, f, wl, unit, s)
            records.extend(recs)
            if unit == 0:
                # what a user who builds the operator and solves once needs;
                # later units would add the high-water mark of the longest
                # solve in the run, which jumps as a basis buffer doubles
                rss.append(peak_rss_mb())
            return recs

        closed_loop(seed, seconds, wl.quality_units, probe, one)
        metrics, detail = end_to_end(wl, records, setup_s, rss[0])
        detail.update(setup_reps=len(setup_times), setup_probe_s=setup_probe,
                      setup_wall_s=statistics.median(setup_times))
        return records, metrics, detail, tracer

    # each unit untraced and traced, alternating which goes first
    def both(unit, s):
        unit_records = []
        for traced in ((False, True) if unit % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                recs = solve_unit(api, A, f, wl, unit, s,
                                  tracer if traced else None)
            finally:
                tracer.uninstall()
            for r in recs:
                r["traced"] = traced
            unit_records.extend(recs)
        records.extend(unit_records)
        return unit_records

    closed_loop(seed, seconds, 1, probe, both)
    overhead = [_mean([r["scaled_s"] for r in calls if r["traced"]])
                - _mean([r["scaled_s"] for r in calls if not r["traced"]])
                for calls in _by_unit(records)]
    solves = [f"u{r['unit']}-{r['policy']}" for r in records if r["traced"]]
    metrics, detail = per_layer(wl, tracer, solves, setups,
                                statistics.median(overhead))
    return records, metrics, detail, tracer


def _write_outputs(stem, result, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve",
                                  "attrs"], "spans": tracer.spans}, fh,
                      separators=(",", ":"))


def main(argv=None, workloads=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    try:
        api = load_api()
        workloads = workloads if workloads is not None else workload_defs.load()
    except (SetupError, ImportError, OSError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads)}")
    wl = workloads[args.workload]

    records, metrics, detail, tracer = measure(api, wl, args.seed,
                                               args.seconds, args.trace)
    units = END_TO_END if not args.trace else PER_LAYER
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    env = environment()
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    _write_outputs(stem, {"workload": dataclasses.asdict(wl),
                          "seed": args.seed, "seconds": args.seconds,
                          "environment": env, "detail": detail,
                          "records": records, **result}, tracer)

    for r in records:
        if not r["ok"]:
            print(f"FAILED unit {r['unit']} {r['policy']} seed {r['seed']}: "
                  f"{r['reason']}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
