"""Tests for the file formats used by the command-line layer."""

import math
import warnings

import numpy as np
import pytest

from fraclag.io import (
    format_scalar,
    read_diagonal,
    read_matrix,
    read_vector,
    write_csv,
    write_vector,
)


def test_format_scalar_strings_pass_through():
    assert format_scalar("II") == "II"
    assert format_scalar("") == ""


def test_format_scalar_integers():
    assert format_scalar(42) == "42"
    assert format_scalar(-7) == "-7"


def test_format_scalar_floats_are_lossless():
    for value in (0.1, 1.0 / 3.0, 2.0**-52, 1.2431785837717026e-06, -math.pi):
        assert float(format_scalar(value)) == value


def test_format_scalar_rejects_bool():
    with pytest.raises(TypeError):
        format_scalar(True)


def test_vector_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    vec = np.array([1.5, -2.25, 3.0e-17])
    write_vector(path, vec)
    got = read_vector(path)
    assert np.array_equal(got, vec)
    # trailing newline, one entry per line
    text = path.read_text()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 3


def test_read_diagonal_accepts_infinity(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1.0\n+inf\n2.5\n")
    got = read_diagonal(path)
    assert got[0] == 1.0
    assert math.isinf(got[1])
    assert got[2] == 2.5


def test_read_vector_rejects_non_finite(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\ninf\n")
    with pytest.raises(ValueError):
        read_vector(path)


def test_read_rejects_garbage_tokens(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\ntwo\n")
    with pytest.raises(ValueError):
        read_vector(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        read_vector(path)
    with pytest.raises(ValueError):
        read_diagonal(path)


@pytest.mark.parametrize("text", ["", "\n  \n", "# no rows\n"], ids=["empty", "blank", "comment"])
def test_read_matrix_rejects_a_file_without_values(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no values found"):
            read_matrix(path)


def test_read_matrix_skips_comments(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# a 1x2 matrix\n2.0,1.0  # first row\n")
    np.testing.assert_array_equal(read_matrix(path), [[2.0, 1.0]])


def test_read_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2.0,1.0\n1.0,3.0\n")
    got = read_matrix(path)
    np.testing.assert_array_equal(got, [[2.0, 1.0], [1.0, 3.0]])
    assert got.ndim == 2


def test_read_matrix_single_row_stays_2d(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("5.0\n")
    assert read_matrix(path).shape == (1, 1)


def test_read_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,x\n")
    with pytest.raises(ValueError):
        read_matrix(path)
    path.write_bytes(b"1.0\xff\n")
    with pytest.raises(ValueError, match="m.csv: cannot parse matrix CSV"):
        read_matrix(path)


def test_write_csv_bytes_are_stable(tmp_path):
    header = ["n", "value", "label"]
    rows = [[1, 0.1, "a"], [2, 1.0 / 3.0, "b"]]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(first, header, rows)
    write_csv(second, header, rows)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "n,value,label"
    assert lines[1].startswith("1,0.1")
    # unix line endings regardless of platform conventions
    assert b"\r" not in first.read_bytes()


def test_write_csv_floats_round_trip(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, ["x"], [[2.0**-52]])
    body = path.read_text().splitlines()[1]
    assert float(body) == 2.0**-52
