"""Command-line experiment runner with CSV/JSON table output.

Subcommands:

* ``run``      bidiagonalization, one table row per (matrix, function) pair
* ``triplets`` fixed-vs-relaxed comparison of the leading singular values,
  one row per triplet index
* ``power``    the power-iteration baseline, rows as for ``run``
* ``expbound`` Hermitian-part upper bound for the exponential norm

Each subcommand accepts only the flags it reads.

Matrix tokens name a generator plus options, e.g. ``A2``, ``A2:n=400``,
``A1:n=1000:seed=7``, ``file:path=m.mtx:shift=10``.  Sigma-like columns are
stored pre-rounded to 6 significant digits so that emitting and re-parsing
a table reproduces it exactly; empty cells stand for unavailable values.
"""

import argparse
import csv
import io
import json
import math
import sys

from . import baselines, densela, operators, outer
from .functions import FUNCTION_IDS, get_function
from .operators import OperatorError

__all__ = [
    "RUN_COLUMNS",
    "TRIPLET_COLUMNS",
    "EXPBOUND_COLUMNS",
    "round_sig",
    "emit_csv",
    "emit_json",
    "main",
]

RUN_COLUMNS = ("matrix", "function", "sigma", "rel_gap_second", "outer",
               "inner_total", "inner_avg", "time_s", "converged", "gap_bound")
TRIPLET_COLUMNS = ("matrix", "function", "index", "sigma_fixed",
                   "sigma_relaxed", "rel_discrepancy")
EXPBOUND_COLUMNS = ("matrix", "sign", "bound", "lambda_max", "iterations",
                    "converged")

_INNER_METHODS = {"krylov": "standard-krylov", "eksm": "extended-krylov"}


def round_sig(x, digits=6):
    """Round to ``digits`` significant decimal digits (None/nan pass through)."""
    if x is None:
        return None
    x = float(x)
    if not math.isfinite(x) or x == 0.0:
        return x
    scale = digits - 1 - math.floor(math.log10(abs(x)))
    return round(x, scale)


def _clean(x):
    # non-finite table values are emitted as empty cells / JSON null
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _cell_to_str(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows, columns=RUN_COLUMNS):
    """Serialize rows (dicts) to CSV text with a header line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_to_str(row.get(c)) for c in columns])
    return buf.getvalue()


def emit_json(rows, columns=RUN_COLUMNS):
    """JSON mirror of the CSV table: a list of objects, same keys and values."""
    payload = [{c: row.get(c) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _report_to_row(token, fid, report):
    """One RUN_COLUMNS row of a ``run`` or ``power_method`` report."""
    row = {"matrix": token, "function": fid, "outer": report.outer_iters,
           "inner_total": report.inner_total, "inner_avg": report.inner_avg,
           "time_s": report.wall_time_s, "converged": report.converged}
    for key in ("sigma", "rel_gap_second", "gap_bound"):
        row[key] = _clean(round_sig(getattr(report, key)))
    return row


def _operators(args, labels, skips):
    """Resolve every matrix token; an unreadable file skips each label.

    Under ``--inner eksm`` a singular operator is invalid input: each one is
    factored here, before any solve, and the solves reuse the LU.
    """
    resolved = []
    for token in args.matrix:
        spec = operators.parse_matrix_token(
            token, default_n=args.default_n, default_seed=args.seed)
        try:
            A = operators.build_operator(spec)
            if getattr(args, "inner", None) == "eksm":
                A.factorization()
        except (FileNotFoundError, OSError, operators.MatrixMarketError) as exc:
            skips.extend((token, label, str(exc)) for label in labels)
        except densela.FactorizationError as exc:
            raise densela.FactorizationError(f"{exc} (matrix {token})") from exc
        else:
            resolved.append((token, A))
    return resolved


def _policy(args, relax=False, eps_inner=None):
    return outer.InnerPolicy(method=_INNER_METHODS[args.inner],
                             max_dim=args.max_inner_dim, relax=relax,
                             eps_inner=eps_inner)


def _solve(args, token, A, f, policy, num_triplets=1):
    """One solve (``power``: power_method, else run); warns if it aborted."""
    if args.command == "power":
        report = baselines.power_method(
            A, f, args.eps_out, max_iters=args.m_max, inner_policy=policy,
            seed=args.seed)
    else:
        report = outer.run(A, f, args.eps_out, m_max=args.m_max,
                           inner_policy=policy, num_triplets=num_triplets,
                           seed=args.seed)
    if report.aborted:
        print(f"warning: {token}/{f.id}: {report.aborted}", file=sys.stderr)
    return report


def _report_rows(args, token, A, fid):
    """``run`` and ``power``: one RUN_COLUMNS row."""
    relax = args.command == "run" and args.relax
    report = _solve(args, token, A, get_function(fid),
                    _policy(args, relax, args.eps_inner))
    return [_report_to_row(token, fid, report)], [report.converged]


def _triplet_rows(args, token, A, fid):
    """``triplets``: fixed vs relaxed, one TRIPLET_COLUMNS row per index."""
    f = get_function(fid)
    fixed, relaxed = (
        _solve(args, token, A, f, policy, num_triplets=args.triplets)
        for policy in (_policy(args, eps_inner=args.eps_inner),
                       _policy(args, relax=True)))
    rows = []
    for i in range(args.triplets):
        sf = fixed.triplets[i].theta if i < len(fixed.triplets) else None
        sr = relaxed.triplets[i].theta if i < len(relaxed.triplets) else None
        disc = (abs(sf - sr) / sf
                if sf is not None and sr is not None and sf > 0 else None)
        rows.append({
            "matrix": token,
            "function": fid,
            "index": i + 1,
            "sigma_fixed": _clean(round_sig(sf)),
            "sigma_relaxed": _clean(round_sig(sr)),
            "rel_discrepancy": _clean(round_sig(disc)),
        })
    return rows, [fixed.converged, relaxed.converged]


def _expbound_rows(args, token, A, _label):
    """``expbound``: one EXPBOUND_COLUMNS row per matrix."""
    res = baselines.exp_norm_bound(A, sign=args.sign, tol=args.tol,
                                   max_iters=args.max_iters, seed=args.seed)
    row = {
        "matrix": token,
        "sign": args.sign,
        "bound": _clean(round_sig(res.bound)),
        "lambda_max": _clean(round_sig(res.lambda_max)),
        "iterations": res.iterations,
        "converged": bool(res.converged),
    }
    return [row], [res.converged]


# subcommand -> (rows of one matrix/label pair, table columns)
_TABLES = {
    "run": (_report_rows, RUN_COLUMNS),
    "power": (_report_rows, RUN_COLUMNS),
    "triplets": (_triplet_rows, TRIPLET_COLUMNS),
    "expbound": (_expbound_rows, EXPBOUND_COLUMNS),
}


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, columns, args):
    if args.format == "json":
        return emit_json(rows, columns)
    return emit_csv(rows, columns)


def _add_common_flags(p):
    p.add_argument("--matrix", action="append", required=True,
                   metavar="TOKEN",
                   help="matrix token (repeatable): A1..A5, file:path=...; "
                        "options like A2:n=400")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the start vector and seeded generators")
    p.add_argument("--n", type=int, default=10000, dest="default_n",
                   help="default matrix size for tokens without n=")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")


def _add_solver_flags(p):
    _add_common_flags(p)
    p.add_argument("--function", action="append", required=True,
                   choices=sorted(FUNCTION_IDS), help="scalar function id "
                   "(repeatable)")
    p.add_argument("--inner", choices=sorted(_INNER_METHODS), default="krylov",
                   help="inner subspace family")
    p.add_argument("--eps-out", type=float, default=1e-4,
                   help="outer relative tolerance")
    p.add_argument("--m-max", type=int, default=500,
                   help="maximum outer steps")
    p.add_argument("--eps-inner", type=float, default=None,
                   help="fixed inner tolerance override "
                        "(default: eps-out/m-max; power: eps-out/100)")
    p.add_argument("--max-inner-dim", type=int, default=300,
                   help="inner subspace dimension cap")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matfunsvd",
        description="Leading singular triplets and 2-norms of matrix "
                    "functions f(A) via inexact bidiagonalization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one table row per matrix/function")
    _add_solver_flags(p_run)
    p_run.add_argument("--relax", action="store_true",
                       help="relax inner tolerances as the residual shrinks")

    p_tri = sub.add_parser("triplets",
                           help="fixed vs relaxed leading singular values")
    _add_solver_flags(p_tri)
    p_tri.add_argument("--triplets", type=int, default=1,
                       help="number of leading triplets to estimate")

    p_pow = sub.add_parser("power", help="power-iteration baseline rows")
    _add_solver_flags(p_pow)

    p_exp = sub.add_parser("expbound",
                           help="log-norm upper bound for ||exp(+/-A)||")
    _add_common_flags(p_exp)
    p_exp.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p_exp.add_argument("--tol", type=float, default=1e-6)
    p_exp.add_argument("--max-iters", type=int, default=400)
    return parser


def main(argv=None):
    """Run one subcommand and write its table.

    Returns 0 when nothing was skipped and every solve converged (for
    ``triplets``, the fixed and the relaxed run alike), 1 otherwise, and 2
    on invalid input, a singular A under ``--inner eksm`` included.
    """
    args = build_parser().parse_args(argv)
    solve, columns = _TABLES[args.command]
    labels = ["expbound"] if args.command == "expbound" else args.function
    skips: list = []
    rows = []
    converged = True
    try:
        if args.command == "triplets" and args.triplets < 1:
            raise ValueError("--triplets must be >= 1")
        for token, A in _operators(args, labels, skips):
            for label in labels:
                new_rows, flags = solve(args, token, A, label)
                rows += new_rows
                converged = converged and all(flags)
    except (OperatorError, ValueError, densela.FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for token, label, reason in skips:
        print(f"skipped: {token}/{label}: {reason}", file=sys.stderr)
    _write_output(_emit(rows, columns, args), args.out)
    return 0 if converged and not skips else 1


if __name__ == "__main__":
    sys.exit(main())
