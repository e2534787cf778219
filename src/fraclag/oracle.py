"""Independent ground truth for testing and error measurement.

Nothing here goes through the Laguerre rules except as the object under
study: exact diagonal resolvents come from direct spectral evaluation, and
integral references come from adaptive quadrature on finite windows sized so
the discarded tail is provably negligible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .estimates import q_estimates
from .integrands import Params, _coordinate, _f1, _f2, _log_bounds, _real, _scalar, _spectral, _spectral_scalar
from .operators import DiagonalOperator, apply_scheme
from .planner import Scheme, mode_counts, scheme

__all__ = [
    "OracleError",
    "RepresentationCheck",
    "SweepRecord",
    "SWEEP_HEADER",
    "exact_diagonal_apply",
    "exact_scalar_resolvent",
    "representation_check",
    "error_sweep",
]


class OracleError(RuntimeError):
    """The adaptive reference integration did not certify its accuracy."""


class RepresentationCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class SweepRecord:
    """Measured errors and a-priori estimates at one spectral point."""

    lam: float
    err_total: float
    err_int1: float
    err_int2: float
    q_I: float
    q_II: float
    q_III: float
    q_IV: float
    regime1: str
    regime2: str


# CSV column names of a SweepRecord, in field order: a row is astuple(record)
SWEEP_HEADER = ("lambda", "err_total", "err_int1", "err_int2",
                "q_I", "q_II", "q_III", "q_IV", "regime1", "regime2")


def exact_diagonal_apply(entries: Sequence[float], b, p: Params) -> np.ndarray:
    """Entrywise resolvent b_i / (1 + h * d_i**alpha) of a finite ``b``;
    +inf entries map to 0.  The one place the closed form is computed."""
    d = np.atleast_1d(_spectral(entries, "diagonal entries"))
    vec = _real(b, "b")
    if vec.shape != d.shape:
        raise ValueError(f"shape mismatch: entries {d.shape}, vector {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("b must be finite")
    # h > 0, so an inf entry gives an inf denominator and a clean 0 quotient
    with np.errstate(all="ignore"):
        return vec / (1.0 + p.h * d**p.alpha)


def exact_scalar_resolvent(lam, p: Params):
    """Closed form ``1 / (1 + h * lam**alpha)`` for ``lam in [1, inf]``,
    elementwise: ``exact_diagonal_apply`` of a ``b`` of ones.  A single point
    comes back as a float, and ``lam = +inf`` maps to 0.
    """
    lam = _spectral(lam)
    out = exact_diagonal_apply(lam.ravel(), np.ones(lam.size), p).reshape(lam.shape)
    return out if lam.ndim else float(out)


def _entry_errors(op: DiagonalOperator, built: Scheme) -> np.ndarray:
    """``|exact_diagonal_apply - apply_scheme|`` per entry of ``op`` for a
    ``b`` of ones: the one measurement of a scheme's error on a diagonal,
    0 at a +inf entry."""
    ones = np.ones(op.dimension)
    return np.abs(exact_diagonal_apply(op.entries, ones, built.params) - apply_scheme(op, ones, built))


def _knee(lam: float, p: Params, which: int) -> float:
    # abscissa where the solve factor switches regimes; a useful breakpoint
    big_l = _coordinate(lam, p)
    if which == 1:
        return p.alpha * max(0.0, big_l)
    return (p.alpha + 1.0) * max(0.0, -big_l)


def _reference_integral(
    which: int, lam: float, p: Params, upper: float, epsabs: float, epsrel: float
) -> tuple[float, float]:
    """Adaptive quadrature of exp(-x) * f_which over [0, upper].

    quad evaluates only finite x in [0, upper] and ``lam``, which the caller
    has checked, is fixed, so the integrand calls the unchecked kernel of
    f_which; the values are those of f_which bit for bit.
    """
    kernel = _f1 if which == 1 else _f2

    def integrand(x: float) -> float:
        return math.exp(-x) * kernel(np.float64(x), lam, p)

    knee = _knee(lam, p, which)
    points = [knee] if 0.0 < knee < upper else None
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", IntegrationWarning)
        value, achieved = quad(
            integrand, 0.0, upper, epsabs=epsabs, epsrel=epsrel, limit=500, points=points
        )
    return value, achieved


def representation_check(lam: float, p: Params, tol: float) -> RepresentationCheck:
    """Confirm the two-integral representation against the closed form.

    Each integral is evaluated adaptively on [0, X_i] with X_i large enough
    that the tail, bounded by K_i * exp(-X_i), stays below tol/10.
    """
    tol = _scalar(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    lam = _spectral_scalar(lam)
    budget = tol / 10.0
    total = 0.0
    # log(K_i / budget) in logs: K2 / budget overflows at tiny h
    for which, log_k in zip((1, 2), _log_bounds(p)):
        upper = max(50.0, log_k - math.log(budget))
        value, achieved = _reference_integral(which, lam, p, upper, epsabs=budget, epsrel=0.0)
        if not math.isfinite(value) or achieved > tol / 2.0:
            raise OracleError(
                f"reference integration of integrand {which} at lam={lam!r} "
                f"reported error {achieved!r}, above the tol/2 budget"
            )
        total += value
    lhs = p.prefactor * total
    rhs = exact_scalar_resolvent(lam, p)
    return RepresentationCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


# windows for the relative-accuracy sweep references: wide enough that the
# tail is below the integral value times machine precision
_SWEEP_PAD1 = 40.0
_SWEEP_PAD2 = 60.0


def _sweep_reference(which: int, lam: float, p: Params) -> float:
    pad = _SWEEP_PAD1 if which == 1 else _SWEEP_PAD2
    upper = pad + _knee(lam, p, which)
    value, _ = _reference_integral(which, lam, p, upper, epsabs=0.0, epsrel=1e-13)
    return value


def error_sweep(p: Params, n: int, lambda_grid: Sequence[float], mode: str = "standard") -> list[SweepRecord]:
    """Measured-vs-estimated errors over a grid of spectral points.

    Per point: the total error, ``_entry_errors`` of the grid as a
    diagonal, the two per-integral quadrature errors against adaptive
    references, and the four modulus estimates with their active regimes.
    Each quadrature sum is the grid's ``DiagonalOperator.apply_sum`` over
    that integral's systems of ``scheme(n, p, mode)``, which the total's
    approximation also sums; the first ``k1`` of ``mode_counts``' kept
    counts ``(k1, k2)`` are the first integral's.  ``lambda_grid`` must be
    a 1-D sequence of finite spectral points.
    """
    # a generator becomes its points; a scalar stays 0-d and is refused below
    grid = _spectral(list(lambda_grid) if np.iterable(lambda_grid) else lambda_grid, "lambda_grid")
    if grid.ndim != 1:
        raise ValueError(f"lambda_grid must be 1-D, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("lambda_grid must be finite")
    grid = grid.tolist()
    if not grid:
        return []
    built = scheme(n, p, mode)
    (n1, n2), (k1, _) = mode_counts(n, p, mode)
    op, ones = DiagonalOperator(grid), np.ones(len(grid))
    err_total = _entry_errors(op, built)
    sums1 = op.apply_sum(built.systems[:k1], ones)
    sums2 = op.apply_sum(built.systems[k1:], ones)

    records = []
    for lam, err, int1, int2 in zip(grid, err_total.tolist(), sums1.tolist(), sums2.tolist()):
        est, est2 = q_estimates(lam, n1, p), q_estimates(lam, n2, p)
        records.append(
            SweepRecord(
                lam=lam,
                err_total=err,
                err_int1=abs(_sweep_reference(1, lam, p) - int1),
                err_int2=abs(_sweep_reference(2, lam, p) - int2),
                q_I=est.q_I,
                q_II=est.q_II,
                q_III=est2.q_III,
                q_IV=est2.q_IV,
                regime1=est.regime1,
                regime2=est.regime2,
            )
        )
    return records
