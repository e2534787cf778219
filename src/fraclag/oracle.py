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
from .integrands import Params, _f1, _f2, _real, _spectral, bounds, exact_scalar_resolvent
from .operators import DiagonalOperator, apply_scheme
from .planner import scheme

__all__ = [
    "OracleError",
    "RepresentationCheck",
    "SweepRecord",
    "SWEEP_HEADER",
    "exact_diagonal_apply",
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
    """Entrywise resolvent b_i / (1 + h * d_i**alpha); +inf entries map to 0."""
    d = np.atleast_1d(_real(entries, "diagonal entries"))
    vec = _real(b, "b")
    if vec.shape != d.shape:
        raise ValueError(f"shape mismatch: entries {d.shape}, vector {vec.shape}")
    _spectral(d, "diagonal entries")
    # h > 0, so an inf entry gives an inf denominator and a clean 0 quotient
    with np.errstate(over="ignore"):
        return vec / (1.0 + p.h * d**p.alpha)


def _knee(lam: float, p: Params, which: int) -> float:
    # abscissa where the solve factor switches regimes; a useful breakpoint
    big_l = p.log_h_root + math.log(lam)
    if which == 1:
        return p.alpha * max(0.0, big_l)
    return (p.alpha + 1.0) * max(0.0, -big_l)


def _reference_integral(
    which: int, lam: float, p: Params, upper: float, epsabs: float, epsrel: float
) -> tuple[float, float]:
    """Adaptive quadrature of exp(-x) * f_which over [0, upper].

    quad evaluates only finite x in [0, upper] and ``lam`` is fixed, so the
    integrand calls the unchecked kernel of f_which; the values are those of
    f_which bit for bit.
    """
    kernel = _f1 if which == 1 else _f2
    lam = _spectral(lam)[()]

    def integrand(x: float) -> float:
        return math.exp(-x) * kernel(np.float64(x), lam, p)

    knee = _knee(lam, p, which)
    points = [knee] if 0.0 < knee < upper else None
    with warnings.catch_warnings(), np.errstate(over="ignore", divide="ignore"):
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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    k1, k2 = bounds(p)
    budget = tol / 10.0
    total = 0.0
    for which, k in ((1, k1), (2, k2)):
        upper = max(50.0, math.log(k / budget))
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

    Per point: the total error of the assembled approximation, the two
    per-integral quadrature errors against adaptive references, and the four
    modulus estimates with their active regimes.  Each quadrature sum is the
    grid's ``DiagonalOperator.apply_sum`` over that integral's systems of
    ``scheme(n, p, mode)``, which the total's approximation also sums.
    """
    grid = _real(list(lambda_grid), "lambda_grid").tolist()
    if not grid:
        return []
    built = scheme(n, p, mode)
    (n1, n2), k1 = built.sizes, built.kept[0]
    op, ones = DiagonalOperator(grid), np.ones(len(grid))
    approx = apply_scheme(op, ones, built)
    sums1 = op.apply_sum(built.systems[:k1], ones)
    sums2 = op.apply_sum(built.systems[k1:], ones)

    records = []
    for lam, approx_lam, int1, int2 in zip(grid, approx, sums1.tolist(), sums2.tolist()):
        exact = exact_scalar_resolvent(lam, p)
        est = q_estimates(lam, n1, p)
        est2 = est if n2 == n1 else q_estimates(lam, n2, p)
        records.append(
            SweepRecord(
                lam=lam,
                err_total=abs(exact - float(approx_lam)),
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
