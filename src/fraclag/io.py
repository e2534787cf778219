"""File formats: dense matrices as headerless CSV, vectors and diagonals as
one entry per line, command output as headered CSV.  Input files are read
as UTF-8, with or without a leading byte-order mark.

All numeric output uses 17 significant digits so round-trips are lossless
and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import math
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
    comment.  Every entry must be finite: ``inf``, ``nan`` and a number past
    the double range, such as ``1e400``, are refused with the file's name."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
        # loadtxt warns on a file without rows, then returns a (0, 1) array
        has_rows = any(line.split("#", 1)[0].strip() for line in lines)
        matrix = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2) if has_rows else None
    except ValueError as exc:
        raise ValueError(f"{path}: cannot parse matrix CSV: {exc}") from exc
    if matrix is None:
        raise ValueError(f"{path}: no values found")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{path}: matrix entries must be finite")
    return matrix


def _scalar_tokens(path) -> list[float]:
    """The numbers of a whitespace-separated file.  A token that reads as
    +-inf must spell infinity (``inf`` or ``infinity``, any case, with an
    optional sign); one past the double range, such as ``1e400``, is
    refused rather than read as an infinity."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    values = []
    for token in text.split():
        try:
            value = float(token)
        except ValueError as exc:
            raise ValueError(f"{path}: bad scalar token {token!r}") from exc
        if math.isinf(value) and token.lstrip("+-").lower() not in ("inf", "infinity"):
            raise ValueError(f"{path}: scalar token {token!r} is outside the double range")
        values.append(value)
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
