"""Smoke test of the benchmark on tiny problems.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a wrong reference is counted as a failure, and that the traced run's span
tree has the expected parent links with self times summing to the root.
"""

import dataclasses
import json
import os

import pytest

import references
import run as bench
import tracer as tracing
import workloads

REPO = os.path.dirname(bench.HERE)

# child span -> the span that must enclose it
PARENTS = {
    "outer.bidiag_step": "outer.run",
    "densela.eig_dense.outer": "outer.run",
    "relax.next_tolerance": "outer.run",
    "inner.approx_fAv": "outer.bidiag_step",
    "orth.rgs.outer": "outer.bidiag_step",
    "orth.rgs.inner": "inner.approx_fAv",
    "operators.apply": "inner.approx_fAv",
    "operators.apply_adjoint": "inner.approx_fAv",
    "operators.factorization": "inner.approx_fAv",
    "densela.lu_solve": "inner.approx_fAv",
    "densela.dense_matfun": "inner.approx_fAv",
    "densela.eig_dense.matfun": "densela.dense_matfun",
}


@pytest.fixture(scope="module")
def tiny():
    """Small twins of the benchmark workloads with dense references."""
    full = workloads.load()
    a2_sigma, _ = references.reference_sigma("A2", 200, "exp")
    a5_sigma, _ = references.reference_sigma("A5", 100, "invsqrt")
    return {
        "tiny-a2-exp": dataclasses.replace(
            full["a2-exp-long"], name="tiny-a2-exp", n=200, eps_out=1e-3,
            eps_inner=1e-6, reference=a2_sigma, reference_rtol=1e-3,
            quality_units=2),
        "tiny-a5-eksm": dataclasses.replace(
            full["a5-invsqrt-eksm"], name="tiny-a5-eksm", n=100,
            reference=a5_sigma, quality_units=2),
    }


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _run(capsys, monkeypatch, tmp_path, workloads_, name, trace):
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], workloads=workloads_)
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["tiny-a2-exp", "tiny-a5-eksm"])
def test_every_metric_printed_with_unit(capsys, monkeypatch, tmp_path, tiny,
                                        declared, name, trace):
    out, result = _run(capsys, monkeypatch, tmp_path, tiny, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(declared[trace])
    assert set(declared[trace]) == set(bench.PER_LAYER if trace
                                       else bench.END_TO_END)
    for metric, unit in declared[trace].items():
        m = result["metrics"][metric]
        assert m["unit"] == unit
        assert isinstance(m["value"], float)
        assert any(line.split()[:1] == [metric] and line.endswith(" " + unit)
                   for line in out), metric
    if trace:
        detail = json.loads(out[-2])["detail"]
        assert detail["absent"] == []
        assert abs(detail["self_sum_minus_root_s"]) < 1e-9
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert result["metrics"]["outer_iters"]["value"] > 0


def test_wrong_reference_counts_as_failed(capsys, monkeypatch, tmp_path, tiny):
    wrong = {name: dataclasses.replace(wl, reference=wl.reference * 1.01)
             for name, wl in tiny.items()}
    out, result = _run(capsys, monkeypatch, tmp_path, wrong, "tiny-a5-eksm", 0)
    detail = json.loads(out[-2])["detail"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["failed_frac"] == 1.0
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert any(line.startswith("FAILED") for line in out)


def _traced_solve(tiny, name, layers=tracing.LAYERS):
    api = bench.load_api()
    wl = tiny[name]
    A, _ = bench.set_up(api, wl)
    t = tracing.Tracer(layers)
    t.install()
    try:
        records = bench.solve_unit(api, A, api.get_function(wl.function), wl,
                                   0, 5, tracer=t)
    finally:
        t.uninstall()
    assert all(r["ok"] for r in records)
    return t, records


@pytest.mark.parametrize("name", ["tiny-a2-exp", "tiny-a5-eksm"])
def test_span_tree_parent_links(tiny, name):
    t, records = _traced_solve(tiny, name)
    spans = t.spans
    names = {s[0] for s in spans}
    expected = {"outer.run", "outer.bidiag_step", "inner.approx_fAv",
                "orth.rgs.outer", "orth.rgs.inner", "densela.eig_dense.outer",
                "densela.dense_matfun", "operators.apply",
                "operators.apply_adjoint"}
    if name == "tiny-a5-eksm":
        expected |= {"densela.lu_solve", "operators.factorization",
                     "densela.eig_dense.matfun", "relax.next_tolerance"}
    assert expected <= names
    for name_, t0, t1, parent, solve, attrs in spans:
        assert t0 <= t1
        if name_ == tracing.ROOT:
            assert parent is None
            continue
        p = spans[parent]
        assert p[0] == PARENTS[name_], (name_, p[0])
        assert p[4] == solve
        assert p[1] <= t0 and t1 <= p[2]
    solves = sorted({s[4] for s in spans})
    assert len(solves) == len(records)
    per, roots = tracing.summarize(spans, solves)
    for i in range(len(solves)):
        self_sum = sum(entry["self_s"][i] for entry in per.values())
        assert self_sum == pytest.approx(roots[i], abs=1e-9)


def test_missing_layer_is_absent_and_uninstall_restores(tiny):
    import matfunsvd.densela as densela
    import matfunsvd.operators as operators

    original_apply = operators.LinearOperator.apply
    layers = tracing.LAYERS + (
        ("matfunsvd.densela", "svd_small_removed", "densela.gone", None),
        ("matfunsvd.no_such_module", "f", "nowhere.f", None),
        ("matfunsvd.densela", "NoClass.solve", "densela.no_class", None),
    )
    t, _ = _traced_solve(tiny, "tiny-a2-exp", layers)
    assert t.absent == ["densela.gone", "nowhere.f", "densela.no_class"]
    assert operators.LinearOperator.apply is original_apply
    assert "solve" in vars(densela.Factorization)
    assert densela.eig_dense.__module__ == "matfunsvd.densela"
    assert not hasattr(densela.eig_dense, "__wrapped__")
