"""End-to-end tests of the command-line entry point."""

import csv
import warnings

import numpy as np
import pytest

from fraclag import cli, operators, oracle, planner
from fraclag.cli import main
from fraclag.integrands import Params
from fraclag.planner import MODES, make_plan, scheme


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
    (n, m), (k_n, k_m) = s.sizes, s.kept
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
