"""A-priori error estimates for the Gauss-Laguerre resolvent sums.

The ``n``-point rule error for each integrand is governed by the complex
singularity of the integrand nearest the positive real axis.  Which
singularity wins depends on where ``lam`` sits relative to two thresholds,
``lambda_bar`` for the first integrand and ``lambda_bbar`` for the second,
giving four per-``lam`` modulus estimates ``q_I .. q_IV``.  Maximizing over
``lam`` yields four ``lam``-free decay sequences ``g_I .. g_IV`` whose
pairwise crossovers ``n_star`` and ``n_star_star`` drive branch selection in
the planner.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .integrands import Params, _real
from .laguerre import _rule_size

__all__ = [
    "CURVATURE_C",
    "PoleSet",
    "EstimateBreakdown",
    "GSequences",
    "poles",
    "gamma_pm",
    "lambda_bar",
    "lambda_bbar",
    "q_estimates",
    "g_sequences",
    "n_star",
    "n_star_star",
    "eps1",
    "eps2",
    "standard_estimate",
]

# decay constant of the cube-root regimes: 3 / 2**(2/3)
CURVATURE_C = 3.0 * 2.0 ** (-2.0 / 3.0)


@dataclass(frozen=True)
class PoleSet:
    """Nearest singularities of the transformed integrands for one ``lam``."""

    z0_I: complex
    z0_II: complex
    z0_III: complex
    z0_IV: complex


@dataclass(frozen=True)
class EstimateBreakdown:
    """Per-``lam`` modulus estimates with the active regime per integrand."""

    q_I: float
    q_II: float
    q_III: float
    q_IV: float
    regime1: str
    regime2: str

    @property
    def selected_first(self) -> float:
        """Estimate in force for the first integrand."""
        return self.q_I if self.regime1 == "I" else self.q_II

    @property
    def selected_second(self) -> float:
        """Estimate in force for the second integrand."""
        return self.q_III if self.regime2 == "III" else self.q_IV


class GSequences(NamedTuple):
    g_I: float
    g_II: float
    g_III: float
    g_IV: float


def _check_lam(lam: float) -> float:
    lam = float(_real(lam, "lam"))
    if not (lam >= 1.0) or math.isinf(lam):
        raise ValueError(f"lam must be a finite value >= 1, got {lam!r}")
    return lam


def _exp(x: float) -> float:
    # math.exp, saturating to inf past double range instead of raising
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _quotient(num: float, den: float, lam: float) -> float:
    # every denominator of q_I .. q_IV grows with s or h*lam**alpha; once one
    # overflows (to inf, or to NaN through inf - inf) the estimate is at its
    # 0-limit
    if not den < math.inf:
        return 0.0
    if den > 0.0 and math.isfinite(num):
        return num / den
    raise ValueError(f"error estimate at lam={lam!r} is out of double range")


def _log_shifted(lam: float, p: Params) -> float:
    # log(h**(1/alpha) * lam), the recurring spectral coordinate; a lam below
    # 1, NaN or inf raises ValueError here
    return p.log_h_root + math.log(_check_lam(lam))


def poles(lam: float, p: Params) -> PoleSet:
    """Singularity locations that drive the four estimates at ``lam``."""
    a = p.alpha
    big_l = _log_shifted(lam, p)
    return PoleSet(
        z0_I=complex(a * big_l, a * math.pi),
        z0_II=complex(0.0, (1.0 - a) * math.pi),
        z0_III=complex(-(a + 1.0) * big_l, (a + 1.0) * math.pi),
        z0_IV=complex(0.0, (1.0 - a) * (a + 1.0) * math.pi / a),
    )


def gamma_pm(lam: float, p: Params) -> tuple[float, float]:
    """The pair ``sqrt(sqrt(L**2 + pi**2) +- L)`` with
    ``L = log(h**(1/alpha) * lam)``; the two values multiply to ``pi``."""
    big_l = _log_shifted(lam, p)
    r = math.hypot(big_l, math.pi)
    return math.sqrt(r + big_l), math.sqrt(r - big_l)


def lambda_bar(p: Params) -> float:
    """First-integrand regime threshold: estimate I applies above it;
    ``inf`` past double range."""
    a = p.alpha
    return _exp((2.0 * a - 1.0) * math.pi / (2.0 * a * (1.0 - a)) - p.log_h_root)


def lambda_bbar(p: Params) -> float:
    """Second-integrand regime threshold, clamped below at 1: estimate III
    applies under it; ``inf`` past double range."""
    a = p.alpha
    raw = _exp(-(2.0 * a - 1.0) * math.pi / (2.0 * a * (1.0 - a)) - p.log_h_root)
    return max(1.0, raw)


def q_estimates(lam: float, n: int, p: Params) -> EstimateBreakdown:
    """Modulus estimates ``q_I .. q_IV`` of the ``n``-point rule errors at
    ``lam``, with the active regime chosen against the thresholds.

    All four are reported; the regime labels say which one is expected to
    track the measured error of each integrand.  Where ``s`` or
    ``h * lam**alpha`` is past double range an estimate takes its 0-limit.
    These are the paper's estimates: at small alpha (0.01, say) they do not
    track the measured error (ROADMAP item 1).
    """
    lam = _check_lam(lam)
    n = _rule_size(n)
    a = p.alpha
    nbar = 4.0 * n + 2.0
    gp, gm = gamma_pm(lam, p)
    s = _exp(_log_shifted(lam, p))  # h**(1/alpha) * lam
    hl = _exp(math.log(p.h) + a * math.log(lam))  # h * lam**alpha
    rot = cmath.exp(1j * a * math.pi)  # principal branch of (-1)**alpha

    den_i = abs(cmath.exp(-2j * a * math.pi) + 2.0 * hl * p.cos_pi_alpha * cmath.exp(-1j * a * math.pi) + hl * hl)
    q_i = _quotient(4.0 * math.pi * a * hl * math.exp(-math.sqrt(2.0 * a * nbar) * gm), den_i, lam)

    den_ii = p.sin_pi_alpha * abs(1.0 - cmath.exp(-1j * math.pi / a) * s)
    q_ii = _quotient(2.0 * math.pi * math.exp(-math.sqrt(2.0 * (1.0 - a) * math.pi * nbar)), den_ii, lam)

    den_iii = abs(1.0 + 2.0 * p.cos_pi_alpha * rot * hl + rot * rot * hl * hl)
    q_iii = _quotient(4.0 * math.pi * a * hl * math.exp(-math.sqrt(2.0 * (a + 1.0) * nbar) * gp), den_iii, lam)

    den_iv = p.sin_pi_alpha * abs(cmath.exp(1j * (1.0 - a) * math.pi / a) + s)
    q_iv = _quotient(2.0 * math.pi * math.exp(-math.sqrt(2.0 * nbar * (1.0 - a) * (a + 1.0) * math.pi / a)), den_iv, lam)

    return EstimateBreakdown(
        q_I=q_i,
        q_II=q_ii,
        q_III=q_iii,
        q_IV=q_iv,
        regime1="I" if lam > lambda_bar(p) else "II",
        regime2="III" if lam < lambda_bbar(p) else "IV",
    )


def g_sequences(n: int, p: Params) -> GSequences:
    """``lam``-free decay sequences bounding the four estimates over all
    ``lam >= 1``.  All four decrease strictly in ``n``."""
    n = _rule_size(n)
    a = p.alpha
    nbar = 4.0 * n + 2.0
    pi = math.pi
    g_i = 4.0 * pi * a * math.exp(-CURVATURE_C * (nbar * a * a * pi * pi) ** (1.0 / 3.0))
    g_ii = (2.0 * pi / p.sin_pi_alpha) * math.exp(-math.sqrt(2.0 * (1.0 - a) * pi * nbar))
    g_iii = 4.0 * pi * a * math.exp(-CURVATURE_C * (a * (a + 1.0) * pi * pi * nbar) ** (1.0 / 3.0))
    g_iv = (2.0 * pi / p.sin_pi_alpha) * math.exp(-math.sqrt(2.0 * nbar * (1.0 - a) * (a + 1.0) * pi / a))
    return GSequences(g_i, g_ii, g_iii, g_iv)


def n_star(p: Params) -> float:
    """Crossover size past which ``g_I`` dominates ``g_II``.  Below 1 for
    roughly ``alpha < 0.47``, in which case ``g_I`` dominates everywhere."""
    a = p.alpha
    return (CURVATURE_C**6 / 32.0) * a**4 / (1.0 - a) ** 3 * math.pi - 0.5


def n_star_star(p: Params) -> float:
    """Crossover size past which ``g_III`` dominates ``g_IV``.  Below 1 for
    roughly ``alpha < 0.55``."""
    a = p.alpha
    return (CURVATURE_C**6 / 32.0) * a**5 / ((1.0 - a) ** 3 * (1.0 + a)) * math.pi - 0.5


def eps1(n: int, p: Params) -> float:
    """Dominant decay sequence of the first integrand at size ``n``."""
    g = g_sequences(n, p)
    return g.g_I if n >= n_star(p) else g.g_II


def eps2(m: int, p: Params) -> float:
    """Dominant decay sequence of the second integrand at size ``m``."""
    g = g_sequences(m, p)
    return g.g_III if m >= n_star_star(p) else g.g_IV


def standard_estimate(n: int, p: Params) -> float:
    """The paper's a-priori estimate of the plain ``n``-point method's error
    (both integrands at size ``n``); not a bound (ROADMAP item 1)."""
    return p.prefactor * eps1(n, p)
