"""End-to-end tests of the command-line entry point."""

import csv
import io as stdio
import os
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from fraclag import cli, io, operators, oracle, planner
from fraclag.cli import main
from fraclag.integrands import Params
from fraclag.planner import MODES, make_plan, mode_counts, scheme


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_plan_reproduces_reference_sizes(tmp_path):
    out = tmp_path / "plan.csv"
    code = main([
        "plan", "--alpha", "0.6", "--h", "1.0",
        "--n", "5,10,15,20,25,50,100", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["n", "m", "k_n", "j_n", "k_m", "j_m", "predicted_error", "inversions"]
    assert [int(r[1]) for r in rows] == [2, 4, 6, 8, 10, 19, 38]


def test_plan_accepts_fractional_alpha(tmp_path, capsys):
    # "3/4" must parse to the exact double 0.75.
    code = main(["plan", "--alpha", "3/4", "--h", "1.0", "--n", "50"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(row[1]) == 16


def test_plan_at_tiny_h(capsys):
    # eps2(m) / K2 underflows to 0 here; the cut was once a raw math
    # domain error
    code = main(["plan", "--alpha", "0.5", "--h", "1e-154", "--n", "3000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[:2] == ["3000", "1000"]


def test_plan_for_tolerance_path(capsys):
    code = main(["plan", "--alpha", "0.5", "--h", "1.0", "--tol", "1.0"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(row[0]) == 1


def test_plan_tolerance_row_meets_target(capsys):
    code = main(["plan", "--alpha", "0.5", "--h", "0.01", "--tol", "1e-6"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[6]) <= 1e-6


def test_plan_requires_exactly_one_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--alpha", "0.5", "--h", "1.0"])
    assert exc.value.code == 2


def test_sequences_command(capsys):
    code = main(["sequences", "--alpha", "0.6", "--h", "1.0", "--n-max", "40"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,g_I,g_II,g_III,g_IV,eps1,eps2,n_star,n_star_star"
    assert len(lines) == 41
    # eps2/eps1 shrinks with n: the second integrand converges faster.
    ratios = [float(r.split(",")[6]) / float(r.split(",")[5]) for r in lines[1:]]
    assert ratios[-1] < ratios[0]
    assert float(lines[1].split(",")[7]) == pytest.approx(8.558003154385923, rel=1e-12)


def test_scalar_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "scalar-sweep", "--alpha", "0.5", "--h", "0.01", "--n", "20",
        "--lambda-min", "100", "--lambda-max", "100", "--points", "1",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["lambda", "err_total", "err_int1", "err_int2",
                      "q_I", "q_II", "q_III", "q_IV", "regime1", "regime2"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 100.0
    assert rows[0][8] in ("I", "II")
    assert rows[0][9] in ("III", "IV")


def test_scalar_sweep_at_small_alpha_completes(tmp_path, capsys):
    # the second-integrand threshold and h**(1/alpha) * lam are past double
    # range here; the estimates saturate instead of raising OverflowError
    out = tmp_path / "x.csv"
    code = main(["scalar-sweep", "--alpha", "0.01", "--h", "1e-3", "--n", "40", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out)
    assert len(rows) == 200
    for row in rows:
        assert all(float(cell) >= 0.0 for cell in row[1:8])  # no NaN
        assert row[9] == "III"  # lambda_bbar = inf


def test_scalar_sweep_rejects_inverted_range(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "scalar-sweep", "--alpha", "0.5", "--h", "0.01", "--n", "10",
        "--lambda-min", "1000", "--lambda-max", "10", "--out", str(out),
    ])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_scalar_sweep_reports_bad_params_before_an_inverted_range(tmp_path, capsys):
    # every command builds its Params first, so the data error comes first
    code = main([
        "scalar-sweep", "--alpha", "0.5", "--h", "1e300", "--n", "10",
        "--lambda-min", "1000", "--lambda-max", "10", "--out", str(tmp_path / "sweep.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: h**(1/alpha) is out of double range at alpha=0.5, h=1e+300\n"


def test_apply_identity_matrix(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n1.0\n1.0\n")
    out = tmp_path / "y.txt"
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "40",
        "--matrix-file", str(mat), "--vector-file", str(rhs), "--out", str(out),
    ])
    assert code == 0
    got = np.loadtxt(out)
    np.testing.assert_allclose(got, 0.5, atol=1e-6)
    assert "plan: n=40" in capsys.readouterr().err


@pytest.mark.parametrize("mode", MODES)
def test_apply_reports_the_scheme_that_ran(tmp_path, capsys, mode):
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n50.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n")
    code = main([
        "apply", "--alpha", "0.5", "--h", "0.01", "--n", "40", "--mode", mode,
        "--diag-file", str(diag), "--vector-file", str(rhs), "--out", str(tmp_path / "y.txt"),
    ])
    assert code == 0
    s = scheme(40, Params(0.5, 0.01), mode)
    (n, m), (k_n, k_m) = mode_counts(40, Params(0.5, 0.01), mode)
    assert capsys.readouterr().err == (
        f"plan: n={n} m={m} k_n={k_n} k_m={k_m} solves={s.solves} "
        f"predicted_error={s.predicted_error:.6e}\n"
    )
    if mode == "standard":
        assert (m, k_n, k_m) == (40, 40, 40)


def test_apply_diagonal_with_infinite_mode(tmp_path, capsys):
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n+inf\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("3.0\n3.0\n")
    out = tmp_path / "y.txt"
    code = main([
        "apply", "--alpha", "0.3", "--h", "0.01", "--n", "25",
        "--mode", "truncated",
        "--diag-file", str(diag), "--vector-file", str(rhs), "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert float(lines[1]) == 0.0
    assert float(lines[0]) == pytest.approx(3.0 / 1.01, abs=1e-2)
    err = capsys.readouterr().err
    assert "solves=" in err and "predicted_error=" in err


def test_apply_reports_bad_operator(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("-5.0,0.0\n0.0,-5.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n1.0\n")
    out = tmp_path / "y.txt"
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
        "--matrix-file", str(mat), "--vector-file", str(rhs), "--out", str(out),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_apply_reports_empty_matrix_file(tmp_path, capsys):
    mat = tmp_path / "empty.txt"
    mat.write_text("")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's loadtxt warned on no data
        code = main([
            "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
            "--matrix-file", str(mat), "--vector-file", str(rhs), "--out", str(tmp_path / "y.txt"),
        ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {mat}: no values found\n"


def test_apply_names_a_matrix_file_with_a_non_finite_entry(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2.0,0.0\n0.0,1e400\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n1.0\n")
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
        "--matrix-file", str(mat), "--vector-file", str(rhs), "--out", str(tmp_path / "y.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {mat}: matrix entries must be finite\n"


def test_apply_reports_missing_file(tmp_path, capsys):
    out = tmp_path / "y.txt"
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
        "--diag-file", str(tmp_path / "absent.txt"),
        "--vector-file", str(tmp_path / "alsoabsent.txt"), "--out", str(out),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_apply_reports_dimension_mismatch(tmp_path, capsys):
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n2.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n1.0\n1.0\n")
    out = tmp_path / "y.txt"
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
        "--diag-file", str(diag), "--vector-file", str(rhs), "--out", str(out),
    ])
    assert code == 1


@pytest.mark.parametrize("h", ["1e8", "1e-8"])
def test_out_of_range_parameters_are_refused(tmp_path, capsys, h):
    # h**(1/alpha) is not a finite positive double at alpha = 0.01
    code = main(["plan", "--alpha", "0.01", "--h", h, "--n", "60"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n2.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n1.0\n")
    code = main([
        "apply", "--alpha", "0.01", "--h", h, "--n", "60", "--mode", "truncated",
        "--diag-file", str(diag), "--vector-file", str(rhs), "--out", str(tmp_path / "y.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--diag-file", "--vector-file"])
def test_apply_names_a_file_that_is_not_utf8(tmp_path, capsys, flag):
    files = {"--diag-file": tmp_path / "d.txt", "--vector-file": tmp_path / "b.txt"}
    for path in files.values():
        path.write_text("1.0\n2.0\n")
    files[flag].write_bytes(b"1.0\xff")
    code = main([
        "apply", "--alpha", "0.5", "--h", "1.0", "--n", "10",
        "--diag-file", str(files["--diag-file"]), "--vector-file", str(files["--vector-file"]),
        "--out", str(tmp_path / "y.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {files[flag]}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("operator, text", [
    ("--diag-file", "1.0\n50.0\n"),
    ("--matrix-file", "1.0,0.0\n0.0,50.0\n"),
], ids=["diagonal", "matrix"])
def test_apply_reads_files_that_start_with_a_byte_order_mark(tmp_path, capsys, operator, text):
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        (folder / "op.txt").write_text(text, encoding=encoding)
        (folder / "b.txt").write_text("1.0\n2.0\n", encoding=encoding)
        code = main([
            "apply", "--alpha", "0.5", "--h", "0.01", "--n", "20", operator, str(folder / "op.txt"),
            "--vector-file", str(folder / "b.txt"), "--out", str(folder / "y.txt"),
        ])
        results.append((code, capsys.readouterr(), (folder / "y.txt").read_bytes()))
    assert results[0][0] == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "1/0", "cannot parse alpha '1/0'"),
    ("--alpha", "x", "cannot parse alpha 'x'"),
    ("--h", "abc", "expected a number, got 'abc'"),
    ("--h", "nan", "expected a positive finite number, got 'nan'"),
    ("--n", "2.5", "expected an integer, got '2.5'"),
    ("--lambda-min", "0.5", "spectral points must be >= 1, got '0.5'"),
])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, flag, value, message):
    out = tmp_path / "s.csv"
    args = {"--alpha": "0.5", "--h": "1", "--n": "5", "--out": str(out), flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["scalar-sweep", *(part for pair in args.items() for part in pair)])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_scalar_sweep_refuses_an_alpha_too_small_for_the_estimates(tmp_path, capsys):
    # alpha = 5e-324 passes the flag check, and apply handles it, but the
    # sweep's estimates need pi/alpha in double range
    out = tmp_path / "s.csv"
    code = main(["scalar-sweep", "--alpha", "5e-324", "--h", "1", "--n", "5", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: alpha=5e-324 is too small for the error estimates")
    assert not out.exists()


def test_bad_alpha_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--alpha", "1.5", "--h", "1.0", "--n", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag,sizes", [
    ("plan", "--n", ""),
    ("plan", "--n", ","),
    ("operator-error", "--n-list", ""),
])
def test_empty_rule_size_list_is_a_usage_error(tmp_path, capsys, command, flag, sizes):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha", "0.5", "--h", "1", flag, sizes, "--out", str(out)])
    assert exc.value.code == 2
    assert "expected at least one rule size" in capsys.readouterr().err
    assert not out.exists()


def test_points_error_names_the_grid(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scalar-sweep", "--alpha", "0.5", "--h", "1", "--n", "5",
              "--points", "0", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "number of grid points must be in [1, 10000], got '0'" in err
    assert "rule size" not in err


def test_operator_error_all_modes(tmp_path):
    out = tmp_path / "err.csv"
    code = main([
        "operator-error", "--alpha", "0.5", "--h", "0.01",
        "--n-list", "10,20", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["n", "inversions", "err_standard", "est_standard",
                      "err_balanced", "est_balanced", "err_truncated", "est_truncated"]
    assert [int(r[0]) for r in rows] == [10, 20]
    p = Params(0.5, 0.01)
    for r in rows:
        plan = make_plan(int(r[0]), p)
        assert int(r[1]) == plan.inversions
        for cell in r[2:]:
            assert float(cell) > 0.0
        # each est_ cell is the error the mode advertises, as in `apply`
        for mode, cell in zip(MODES, r[3::2]):
            assert float(cell) == scheme(int(r[0]), p, mode).predicted_error


def test_operator_error_single_mode_leaves_other_cells_empty(tmp_path):
    out = tmp_path / "err.csv"
    code = main([
        "operator-error", "--alpha", "0.5", "--h", "0.01",
        "--n-list", "10", "--mode", "standard", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    row = rows[0]
    assert int(row[1]) == 20  # two full rules
    assert row[2] != "" and row[4] == "" and row[6] == ""
    assert row[3] != "" and row[5] != "" and row[7] != ""


@pytest.mark.parametrize("mode", [*MODES, "all"])
def test_operator_error_measures_a_spectrum_with_infinite_entries(tmp_path, mode):
    # +inf first, in the middle and last: a spectrum error_sweep refuses
    d = [np.inf, 1.0, 30.0, np.inf, 1e8, 2.5, np.inf]
    diag, out = tmp_path / "d.txt", tmp_path / "err.csv"
    diag.write_text("".join(f"{v!r}\n" for v in d))
    assert main([
        "operator-error", "--alpha", "0.3", "--h", "1e-3", "--n-list", "5,20",
        "--mode", mode, "--diag-file", str(diag), "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    p, ones = Params(0.3, 1e-3), np.ones(len(d))
    exact = oracle.exact_diagonal_apply(d, ones, p)
    for row in rows:
        for measured in MODES:
            cell = row[header.index(f"err_{measured}")]
            if mode in (measured, "all"):
                approx = operators.apply_resolvent(operators.DiagonalOperator(d), ones, p, int(row[0]), measured)
                assert float(cell) == np.abs(exact - approx).max()
            else:
                assert cell == ""


def test_operator_error_evaluates_the_closed_form_once(tmp_path, monkeypatch):
    # every measured cell of a command reads one closed-form vector
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    exact = oracle.exact_diagonal_apply
    monkeypatch.setattr(oracle, "exact_diagonal_apply", counted)
    assert main([
        "operator-error", "--alpha", "0.5", "--h", "0.01", "--n-list", "5,20",
        "--mode", "all", "--out", str(tmp_path / "err.csv"),
    ]) == 0
    assert len(calls) == 1


_HEADERS = {
    "plan": ["n", "m", "k_n", "j_n", "k_m", "j_m", "predicted_error", "inversions"],
    "sequences": ["n", "g_I", "g_II", "g_III", "g_IV", "eps1", "eps2", "n_star", "n_star_star"],
    "operator-error": ["n", "inversions", "err_standard", "est_standard",
                       "err_balanced", "est_balanced", "err_truncated", "est_truncated"],
    "scalar-sweep": ["lambda", "err_total", "err_int1", "err_int2",
                     "q_I", "q_II", "q_III", "q_IV", "regime1", "regime2"],
}


@pytest.mark.parametrize("argv", [
    ["plan", "--n", "1,5,50"],
    ["plan", "--tol", "1e-6"],
    ["sequences", "--n-max", "6"],
    ["operator-error", "--n-list", "5,20"],
    ["operator-error", "--n-list", "5", "--mode", "balanced"],
    ["scalar-sweep", "--n", "10", "--points", "5", "--mode", "truncated"],
], ids="-".join)
def test_each_table_has_its_header_and_rows_as_wide(tmp_path, argv):
    out = tmp_path / "table.csv"
    assert main([*argv, "--alpha", "0.5", "--h", "0.01", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == _HEADERS[argv[0]]
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("mode", MODES)
def test_scalar_sweep_and_operator_error_measure_one_error(tmp_path, mode):
    # the sweep's 161 points are operator-error's built-in diagonal, and both
    # measure against the oracle's one closed form
    sweep, table = tmp_path / "sweep.csv", tmp_path / "err.csv"
    common = ["--alpha", "0.5", "--h", "0.01", "--mode", mode]
    assert main(["scalar-sweep", *common, "--n", "50", "--points", "161", "--out", str(sweep)]) == 0
    assert main(["operator-error", *common, "--n-list", "50", "--out", str(table)]) == 0
    _, records = _read_csv(sweep)
    header, rows = _read_csv(table)
    assert [float(r[0]) for r in records] == cli.benchmark_diagonal().tolist()
    assert max(float(r[1]) for r in records) == float(rows[0][header.index(f"err_{mode}")])


def test_operator_error_custom_diagonal(tmp_path):
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n100.0\n10000.0\n")
    out = tmp_path / "err.csv"
    code = main([
        "operator-error", "--alpha", "0.75", "--h", "0.1",
        "--n-list", "15", "--mode", "balanced",
        "--diag-file", str(diag), "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    assert float(rows[0][4]) > 0.0


def test_operator_error_runs_are_byte_identical(tmp_path, monkeypatch):
    args = ["operator-error", "--alpha", "0.3", "--h", "0.01", "--n-list", "5,15"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    monkeypatch.setattr(operators, "_usable_cores", lambda: 4)
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("args, builds", [
    (["operator-error", "--n-list", "10,20,40"], 9),
    (["operator-error", "--n-list", "10,20,40", "--mode", "balanced"], 9),
    (["apply", "--n", "40"], 1),
    (["scalar-sweep", "--n", "10", "--points", "5"], 1),
])
def test_each_scheme_is_built_once(tmp_path, monkeypatch, args, builds):
    # every module that imported planner.scheme sees the counting wrapper
    calls, build = [], planner.scheme

    def counted(*a, **kw):
        calls.append(a)
        return build(*a, **kw)

    for module in (planner, operators, oracle, cli):
        monkeypatch.setattr(module, "scheme", counted)
    diag = tmp_path / "d.txt"
    diag.write_text("1.0\n50.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n")
    files = {"apply": ["--diag-file", str(diag), "--vector-file", str(rhs)]}
    code = main(args + ["--alpha", "0.5", "--h", "0.01", "--out", str(tmp_path / "out")]
                + files.get(args[0], []))
    assert code == 0
    assert len(calls) == builds == len(set(calls))


@pytest.mark.parametrize("low, top, last", [
    # 10**log10(DBL_MAX) overflows; that point is the flag's value
    ("1e300", "1.7976931348623157e308", sys.float_info.max),
    # a grid that does not overflow keeps numpy's last point
    ("1", "5", 5.000000000000001),
], ids=["largest-double", "finite"])
def test_scalar_sweep_grid_ends_at_lambda_max(tmp_path, capsys, low, top, last):
    out = tmp_path / "sweep.csv"
    code = main(["scalar-sweep", "--alpha", "0.5", "--h", "0.01", "--n", "20",
                 "--lambda-min", low, "--lambda-max", top, "--points", "3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out)
    assert float(rows[-1][0]) == last
    assert all(np.isfinite(float(cell)) for row in rows for cell in row[:8])


def test_apply_joins_every_thread_it_starts(tmp_path, monkeypatch):
    # run() ends the process without waiting for threads: each must be gone
    # by the time main() returns
    monkeypatch.setattr(operators, "_usable_cores", lambda: 2)
    size = 2**17
    files = {"diag": tmp_path / "d.txt", "vec": tmp_path / "b.txt"}
    io.write_vector(files["diag"], np.logspace(0, 16, size))
    io.write_vector(files["vec"], np.ones(size))
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    code = main(["apply", "--alpha", "0.5", "--h", "0.01", "--n", "20",
                 "--diag-file", str(files["diag"]), "--vector-file", str(files["vec"]),
                 "--out", str(tmp_path / "y.txt")])
    assert code == 0
    assert started
    assert threading.active_count() == before


class _Exited(Exception):
    """Raised in place of ``os._exit`` so run() can be called in-process."""


_GETTRACE, _GETPROFILE = sys.gettrace, sys.getprofile


@pytest.fixture
def process(monkeypatch):
    """``run`` on an argv, with ``os._exit`` raising ``_Exited`` and no
    tracer, profiler or ``sys.monitoring`` tool seen (the tier-1 runner may
    trace the tests)."""

    def exit_(status):
        raise _Exited(status)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", None, raising=False)

    def call(*argv):
        monkeypatch.setattr(sys, "argv", ["fraclag", *argv])
        cli.run()

    return call


_PLAN = ("plan", "--alpha", "0.5", "--h", "0.01", "--n", "10,20")


def _apply_args(folder, out, diag="1.0\n50.0\n"):
    """``apply`` argv on a diagonal file ``diag`` and a 2-vector, both
    written to ``folder``."""
    folder.mkdir(exist_ok=True)
    (folder / "d.txt").write_text(diag)
    (folder / "b.txt").write_text("1.0\n2.0\n")
    return ("apply", "--alpha", "0.5", "--h", "0.01", "--n", "20", "--diag-file", str(folder / "d.txt"),
            "--vector-file", str(folder / "b.txt"), "--out", str(out))


def test_run_exits_with_the_status_after_flushing(monkeypatch, capsys, process):
    assert main(list(_PLAN)) == 0
    want = capsys.readouterr().out.encode()
    # a block-buffered stdout: nothing reaches the bytes before a flush
    raw = stdio.BytesIO()
    monkeypatch.setattr(sys, "stdout", stdio.TextIOWrapper(stdio.BufferedWriter(raw, 1 << 16)))
    seen = []

    def exit_(status):
        seen.append(raw.getvalue())
        raise _Exited(status)

    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(_Exited) as exc:
        process(*_PLAN)
    assert exc.value.args == (0,)
    assert seen == [want]


def test_run_passes_a_refusal_through(tmp_path, capsys, process):
    args = _apply_args(tmp_path, tmp_path / "y.txt", diag="0.5\n50.0\n")
    with pytest.raises(_Exited) as exc:
        process(*args)
    assert exc.value.args == (1,)
    assert capsys.readouterr().err == "error: diagonal entries must be >= 1\n"


def test_run_without_stdout(tmp_path, monkeypatch, process):
    # a process started with its stdout closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(_Exited) as exc:
        process(*_apply_args(tmp_path, tmp_path / "y.txt"))
    assert exc.value.args == (0,)


@pytest.mark.parametrize("hook", ["profile", "trace", "monitoring"])
def test_run_exits_normally_when_profiled_or_traced(monkeypatch, process, hook):
    # cProfile, trace and sys.monitoring tools such as coverage.py's write
    # their results after the code returns
    if hook == "monitoring":
        # Python 3.12's sys.monitoring with one tool registered, as id 1
        monitoring = types.SimpleNamespace(get_tool={1: "coverage.py"}.get)
        monkeypatch.setattr(sys, "monitoring", monitoring, raising=False)
        set_ = old = None
    else:
        get, set_ = {"profile": (_GETPROFILE, sys.setprofile), "trace": (_GETTRACE, sys.settrace)}[hook]
        monkeypatch.setattr(sys, f"get{hook}", get)
        old = get()
        set_(lambda *event: None)
    try:
        with pytest.raises(SystemExit) as exc:
            process(*_PLAN)
    finally:
        if set_ is not None:
            set_(old)
    assert exc.value.code == 0


def test_run_exits_normally_when_a_flush_fails(monkeypatch, process):
    class ClosedPipe(stdio.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        process("plan", "--alpha", "0.5", "--h", "0.01", "--n", "10", "--out", os.devnull)
    assert exc.value.code == 0


def test_run_leaves_usage_errors_to_argparse(process, capsys):
    with pytest.raises(SystemExit) as exc:
        process("plan", "--alpha", "0.5", "--h", "0.01")
    assert exc.value.code == 2
    assert "one of the arguments --n --tol is required" in capsys.readouterr().err


@pytest.mark.skipif(operators._usable_cores() < 2, reason="one usable core: OpenBLAS runs one thread at either setting")
def test_dense_apply_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at 400 entries eigh's bits differ between one and two OpenBLAS threads
    # unless the one-thread section holds; the matrix comes from a file, since
    # building it in each process would feed eigh bits that already differ
    n = 400
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
    a = (q * np.logspace(0, 8, n)) @ q.T
    np.savetxt(tmp_path / "A.csv", (a + a.T) / 2, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "b.txt", np.random.default_rng(2).standard_normal(n), fmt="%.17g")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-m", "fraclag.cli", "apply", "--alpha", "0.5", "--h", "0.01", "--n", "50",
             "--mode", "truncated", "--matrix-file", str(tmp_path / "A.csv"),
             "--vector-file", str(tmp_path / "b.txt"), "--out", str(tmp_path / f"y.{threads}")],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for threads in ("1", "2")
    }
    for child in children.values():
        child.communicate(timeout=120)
        assert child.returncode == 0
    assert (tmp_path / "y.1").read_bytes() == (tmp_path / "y.2").read_bytes()


def test_the_module_process_matches_main(tmp_path, capsys):
    """``python -m fraclag.cli`` gives the bytes, messages and status of an
    in-process ``main``, and a profiled run still writes its profile."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, flushed only by run()
    cases = {
        "plan": _PLAN,
        "apply": _apply_args(tmp_path, "{out}"),
        "refused": _apply_args(tmp_path / "refused", "{out}", diag="0.5\n50.0\n"),
    }
    prof = tmp_path / "plan.prof"

    def start(*argv):
        return subprocess.Popen([sys.executable, "-m", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    children = {
        name: start("fraclag.cli", *(a.format(out=tmp_path / f"{name}.child") for a in args))
        for name, args in cases.items()
    }
    profiled = start("cProfile", "-o", str(prof), "-m", "fraclag.cli", *_PLAN)
    for name, args in cases.items():
        status = main([a.format(out=tmp_path / f"{name}.main") for a in args])
        want = capsys.readouterr()
        out, err = children[name].communicate(timeout=60)
        assert (children[name].returncode, out.decode(), err.decode()) == (status, want.out, want.err)
        main_file, child_file = tmp_path / f"{name}.main", tmp_path / f"{name}.child"
        assert main_file.exists() == child_file.exists()
        if main_file.exists():
            assert child_file.read_bytes() == main_file.read_bytes()
    out, err = profiled.communicate(timeout=60)
    assert (profiled.returncode, err) == (0, b"")
    assert prof.stat().st_size > 0
