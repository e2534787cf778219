"""File formats: dense matrices as headerless CSV, vectors and diagonals as
one entry per line, command output as headered CSV.

All numeric output uses 17 significant digits so round-trips are lossless
and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "format_scalar",
    "read_matrix",
    "read_diagonal",
    "read_vector",
    "write_vector",
    "write_rows",
    "write_csv",
]


def format_scalar(value) -> str:
    """Serialize one cell: strings pass through, integers stay integral,
    floats get 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("booleans have no serialized form")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def read_matrix(path) -> np.ndarray:
    """Dense matrix from comma-separated rows, no header; ``#`` starts a
    comment."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        # loadtxt warns on a file without rows, then returns a (0, 1) array
        if any(line.split("#", 1)[0].strip() for line in lines):
            return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: cannot parse matrix CSV: {exc}") from exc
    raise ValueError(f"{path}: no values found")


def _scalar_tokens(path) -> list[float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    values = []
    for token in text.split():
        try:
            values.append(float(token))
        except ValueError as exc:
            raise ValueError(f"{path}: bad scalar token {token!r}") from exc
    if not values:
        raise ValueError(f"{path}: no values found")
    return values


def read_diagonal(path) -> np.ndarray:
    """Diagonal entries, whitespace separated; accepts the +inf token."""
    return np.asarray(_scalar_tokens(path), dtype=float)


def read_vector(path) -> np.ndarray:
    """Vector, one entry per line (any whitespace separation accepted)."""
    values = _scalar_tokens(path)
    if not all(np.isfinite(values)):
        raise ValueError(f"{path}: vector entries must be finite")
    return np.asarray(values, dtype=float)


def write_vector(path, vec) -> None:
    """One scalar per line, 17 significant digits, trailing newline."""
    lines = [format_scalar(float(v)) for v in np.asarray(vec, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rows(handle, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Headered CSV with deterministic bytes (fixed line terminator) to ``handle``."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_scalar(cell) for cell in row] for row in rows)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``write_rows`` to the file at ``path``, created or truncated."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_rows(handle, header, rows)
