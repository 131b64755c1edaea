"""Table serialization and the command-line entry points."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import cli
from matfunsvd.cli import (
    EXPBOUND_COLUMNS,
    RUN_COLUMNS,
    TRIPLET_COLUMNS,
    build_parser,
    emit_csv,
    emit_json,
    round_sig,
)

import oracles
from oracles import parse_csv


# ---------------------------------------------------------------------------
# serialization helpers


def test_round_sig():
    assert round_sig(123456.789) == 123457.0
    assert round_sig(1.2345678e-7) == 1.23457e-7
    assert round_sig(-0.0012345649) == -0.00123456
    assert round_sig(12.0, digits=2) == 12.0
    assert round_sig(None) is None
    assert round_sig(0.0) == 0.0
    assert math.isnan(round_sig(float("nan")))


SAMPLE_ROWS = [
    {"matrix": "A2:n=100", "function": "exp", "sigma": 12.1825,
     "rel_gap_second": 0.00123456, "outer": 23, "inner_total": 460,
     "inner_avg": 10.0, "time_s": 0.125, "converged": True,
     "gap_bound": 3.2e-05},
    {"matrix": "A5", "function": "invsqrt", "sigma": None,
     "rel_gap_second": None, "outer": 500, "inner_total": 12345,
     "inner_avg": 12.345, "time_s": 7.5, "converged": False,
     "gap_bound": None},
]


def test_csv_round_trip():
    text = emit_csv(SAMPLE_ROWS)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RUN_COLUMNS)
    assert len(lines) == 3
    # None cells are empty, booleans lowercase words
    assert ",," in lines[2] and lines[2].endswith("false,")
    assert parse_csv(text) == SAMPLE_ROWS


def test_csv_empty_table_is_header_only():
    text = emit_csv([])
    assert text == ",".join(RUN_COLUMNS) + "\n"
    assert parse_csv(text) == []


def test_csv_parse_rejects_malformed():
    with pytest.raises(ValueError, match="empty CSV"):
        parse_csv("")
    header = ",".join(RUN_COLUMNS)
    with pytest.raises(ValueError, match="row width"):
        parse_csv(header + "\nA2,exp\n")
    bad = header + "\n" + "A2,exp,1.0,,3,30,10.0,0.1,maybe,\n"
    with pytest.raises(ValueError, match="boolean"):
        parse_csv(bad)


def test_json_mirrors_csv():
    text = emit_json(SAMPLE_ROWS)
    rows = json.loads(text)
    assert rows == SAMPLE_ROWS
    assert rows == parse_csv(emit_csv(SAMPLE_ROWS))


# ---------------------------------------------------------------------------
# experiment driver


SMALL = ["--matrix", "A2:n=60", "--function", "exp", "--eps-out", "1e-3",
         "--eps-inner", "1e-7", "--seed", "0"]


def table(capsys, command, *argv):
    """Exit code, parsed rows and stderr of one cli.main call."""
    code = cli.main([command, *argv])
    captured = capsys.readouterr()
    return code, parse_csv(captured.out) if captured.out else [], captured.err


def test_config_validation():
    parser = build_parser()
    for extra in (["--inner", "chebyshev"], ["--function", "tanh"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", *SMALL, *extra])


def test_run_row_shape(capsys):
    code, rows, err = table(capsys, "run", *SMALL)
    assert code == 0 and err == "" and len(rows) == 1
    row = rows[0]
    assert set(row) == set(RUN_COLUMNS)
    assert row["matrix"] == "A2:n=60" and row["function"] == "exp"
    assert row["converged"] is True
    # sigma-like cells are stored pre-rounded
    assert row["sigma"] == round_sig(row["sigma"])
    assert row["gap_bound"] == round_sig(row["gap_bound"])
    npt.assert_allclose(row["sigma"], np.exp(2.0 + 0.5 * np.cos(np.pi / 61)),
                        rtol=1e-3)


def test_run_deterministic_modulo_time(capsys):
    twice = []
    for _ in range(2):
        _, rows, _ = table(capsys, "run", *SMALL, "--function", "sqrt")
        twice.append([{k: v for k, v in r.items() if k != "time_s"}
                      for r in rows])
    assert len(twice[0]) == 2 and twice[0] == twice[1]


def test_run_skips_missing_file(capsys):
    code, rows, err = table(
        capsys, "run", "--matrix", "file:path=/nonexistent/m.mtx",
        "--matrix", "A2:n=40", "--function", "exp", "--function", "expneg",
        "--eps-out", "1e-3", "--eps-inner", "1e-7")
    assert code == 1
    assert [r["matrix"] for r in rows] == ["A2:n=40", "A2:n=40"]
    skips = [line for line in err.splitlines() if line.startswith("skipped:")]
    assert [line.split(": ")[1] for line in skips] == [
        "file:path=/nonexistent/m.mtx/exp",
        "file:path=/nonexistent/m.mtx/expneg",
    ]
    assert all(line.split(": ", 2)[2] for line in skips)


def test_multi_triplet_against_dense_svd(capsys):
    code, rows, err = table(capsys, "triplets", "--matrix", "A2:n=80",
                            "--function", "exp", "--eps-out", "1e-6",
                            "--eps-inner", "1e-10", "--triplets", "3")
    assert code == 0 and err == "" and list(rows[0]) == list(TRIPLET_COLUMNS)
    assert [r["index"] for r in rows] == [1, 2, 3]
    A = cli.operators.build_operator(cli.operators.parse_matrix_token("A2:n=80"))
    sv = np.linalg.svd(oracles.dense_fA(oracles.dense(A), "exp"),
                       compute_uv=False)
    for row in rows:
        want = sv[row["index"] - 1]
        npt.assert_allclose(row["sigma_fixed"], want, rtol=1e-5)
        npt.assert_allclose(row["sigma_relaxed"], want, rtol=1e-5)
        assert row["rel_discrepancy"] <= 1e-5


def test_multi_triplet_one_index_is_one_triplet_row(capsys):
    code, rows, _ = table(capsys, "triplets", *SMALL, "--triplets", "1")
    assert code == 0 and len(rows) == 1
    assert list(rows[0]) == list(TRIPLET_COLUMNS) and rows[0]["index"] == 1
    code, rows, err = table(capsys, "triplets", *SMALL, "--triplets", "0")
    assert code == 2 and rows == [] and "triplets" in err


def test_multi_triplet_unconverged_exits_1(capsys):
    # the table has no converged column; the exit status still counts the
    # fixed and the relaxed run of every row
    code, rows, _ = table(capsys, "triplets", "--matrix", "A2:n=60",
                          "--function", "exp", "--eps-out", "1e-10",
                          "--m-max", "2", "--triplets", "2")
    assert code == 1 and [r["index"] for r in rows] == [1, 2]


# ---------------------------------------------------------------------------
# command line


def test_main_run_csv(capsys):
    code = cli.main(["run", "--matrix", "A2:n=50", "--function", "exp",
                     "--eps-out", "1e-3", "--eps-inner", "1e-7"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = parse_csv(captured.out)
    assert len(rows) == 1 and rows[0]["converged"] is True
    npt.assert_allclose(rows[0]["sigma"],
                        np.exp(2.0 + 0.5 * np.cos(np.pi / 51)), rtol=1e-3)


def test_main_unknown_token_exits_2(capsys):
    code = cli.main(["run", "--matrix", "A9", "--function", "exp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["expbound", "--matrix", "A2:n=10", "--max-iters", "0"],
    ["power", "--matrix", "A2:n=10", "--function", "exp", "--m-max", "0"],
])
def test_main_iteration_cap_below_one_exits_2(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: max_iters must be >= 1\n"
    assert captured.out == ""


def test_main_missing_file_exits_1(capsys):
    code = cli.main(["run", "--matrix", "file:path=/no/such.mtx",
                     "--matrix", "A2:n=40", "--function", "exp",
                     "--eps-out", "1e-3"])
    captured = capsys.readouterr()
    assert code == 1 and "skipped: file:path=/no/such.mtx/exp" in captured.err
    assert len(parse_csv(captured.out)) == 1


def test_main_unconverged_exits_1(capsys):
    code = cli.main(["run", "--matrix", "A2:n=60", "--function", "exp",
                     "--eps-out", "1e-10", "--m-max", "2"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == 1 and rows[0]["converged"] is False
    assert rows[0]["outer"] == 2


def test_main_json_output_to_file(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = cli.main(["run", "--matrix", "A2:n=50", "--function", "expneg",
                     "--eps-out", "1e-3", "--format", "json",
                     "--out", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    rows = json.loads(out.read_text())
    assert rows[0]["function"] == "expneg" and rows[0]["converged"] is True


def test_main_accepts_matrix_market_file(tmp_path, capsys):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
    path = tmp_path / "small.mtx"
    oracles.write_mtx(path, A)
    code = cli.main(["run", "--matrix", f"file:path={path}",
                     "--function", "exp", "--eps-out", "1e-6",
                     "--eps-inner", "1e-10"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    sv = np.linalg.svd(oracles.dense_fA(A, "exp"), compute_uv=False)
    assert code == 0
    npt.assert_allclose(rows[0]["sigma"], sv[0], rtol=1e-5)


def test_main_left_breakdown_warns_and_exits_1(tmp_path, capsys):
    path = oracles.write_mtx(tmp_path / "d.mtx", np.diag([1.0, 0.0, 0.0, 0.0]))
    token = f"file:path={path}"
    code = cli.main(["run", "--matrix", token, "--function", "identity",
                     "--eps-out", "1e-8"])
    captured = capsys.readouterr()
    assert code == 1 and parse_csv(captured.out)[0]["converged"] is False
    assert f"warning: {token}/identity: left basis breakdown" in captured.err


def test_main_power_subcommand(capsys):
    code = cli.main(["power", "--matrix", "A5:n=100", "--function", "exp",
                     "--eps-out", "1e-3"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == 0 and rows[0]["converged"] is True
    # power rows have no second-triplet information
    assert rows[0]["rel_gap_second"] is None and rows[0]["gap_bound"] is None


def test_main_expbound_subcommand(capsys):
    code = cli.main(["expbound", "--matrix", "A2:n=100", "--tol", "1e-9"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == 0 and list(rows[0]) == list(EXPBOUND_COLUMNS)
    lam = 2.0 + 0.5 * np.cos(np.pi / 101)
    npt.assert_allclose(rows[0]["lambda_max"], lam, rtol=1e-5)
    npt.assert_allclose(rows[0]["bound"], np.exp(lam), rtol=1e-5)
    assert rows[0]["sign"] == 1 and rows[0]["converged"] is True
