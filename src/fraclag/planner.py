"""Rule sizing: the three modes of ``scheme``.

``standard`` runs both integrands' rules at size ``n``.  ``balanced`` sizes
the second at a smaller ``m`` so both quadrature errors match, and
``truncated`` also drops the nodes whose contribution falls below the
accuracy already lost, leaving ``k_n + k_m`` shifted solves per resolvent
application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .estimates import CURVATURE_C, eps1, eps2, n_star, n_star_star, standard_estimate
from .integrands import Params, ShiftedSystem, bounds, node_system
from .laguerre import _rule_size, gauss_laguerre, truncation_index

__all__ = [
    "MODES",
    "Plan",
    "Scheme",
    "balance_m",
    "thresholds",
    "analytic_j",
    "make_plan",
    "balanced_estimate",
    "truncated_estimate",
    "asymptotic_estimates",
    "plan_for_tolerance",
    "scheme",
    "mode_counts",
]

# the multiple of standard_estimate each mode advertises
_FIGURE = {"standard": 1.0, "balanced": 2.0, "truncated": 4.0}

MODES = tuple(_FIGURE)

# The second-integrand balance has two closed forms; the slow-decay form is
# kept through a 25% band past the analytic crossover n_star, which drops
# exponential prefactors and places the switch too early for the published
# reference sizes.
_BRANCH2_STRETCH = 1.25

# guard against ties landing a hair above an integer
_ROUND_FUZZ = 1e-9

# the largest first-rule size plan_for_tolerance tries
_TOL_PLAN_MAX = 2000


@dataclass(frozen=True)
class Plan:
    """Sizes, truncation indices and cost of one resolvent application.

    ``k_n``/``k_m`` are the numerically determined kept-term counts,
    ``j_n``/``j_m`` their closed-form predictions; ``inversions`` counts the
    shifted solves of the truncated method, ``k_n + k_m``.
    """

    n: int
    m: int
    k_n: int
    k_m: int
    j_n: int
    j_m: int
    s1: float
    s2: float
    predicted_error: float

    @property
    def inversions(self) -> int:
        return self.k_n + self.k_m


def balance_m(n: int, p: Params) -> int:
    """Second-integrand rule size matching the first integrand's accuracy.

    The raw balance value is rounded up and clamped into ``[1, n]``.
    """
    n = _rule_size(n)
    a = p.alpha
    ns = n_star(p)
    nss = n_star_star(p)
    if nss < n <= _BRANCH2_STRETCH * ns:
        top = 2.0 * math.sqrt((2.0 * n + 1.0) * (1.0 - a) * math.pi) + math.log(2.0 * a * p.sin_pi_alpha)
        raw = top**3 / (27.0 * (a + 1.0) * a * math.pi**2) - 0.5
    else:
        raw = a * (2.0 * n + 1.0) / (2.0 * (a + 1.0)) - 0.5
    m = math.ceil(raw - _ROUND_FUZZ)
    return min(max(m, 1), n)


def thresholds(n: int, m: int, p: Params) -> tuple[float, float]:
    """Node cutoffs ``(s1, s2)``: contributions beyond them are smaller than
    the quadrature errors already committed.  Clamped below at 0."""
    k1, k2 = bounds(p)
    s1 = max(0.0, -math.log(eps1(n, p) / k1))
    s2 = max(0.0, -math.log(eps2(m, p) / k2))
    return s1, s2


def analytic_j(n: int, m: int, p: Params) -> tuple[int, int]:
    """Closed-form predictions of the kept-term counts ``(j_n, j_m)``.

    ``j_m``'s formula can go negative once ``h >= 1``; it then falls back to
    the numeric truncation index of the ``m``-point rule.
    """
    n = _rule_size(n)
    m = _rule_size(m)
    a = p.alpha
    pi = math.pi

    if n <= n_star(p):
        raw_n = 2.0 * (1.0 - a) ** 0.25 * (2.0 * n / pi) ** 0.75
    else:
        raw_n = 2.0 * math.sqrt(3.0) * (a * n * n / pi**2) ** (1.0 / 3.0)
    j_n = min(max(math.floor(raw_n + _ROUND_FUZZ), 1), n)

    lead = math.log(a / (a + 1.0)) - p.log_h_root
    if m <= n_star_star(p):
        inner = lead + math.sqrt(8.0 * m * (1.0 - a) * (a + 1.0) * pi / a)
    else:
        inner = lead + 3.0 * ((a + 1.0) * a * pi**2 * m) ** (1.0 / 3.0)
    val = 4.0 * m / pi**2 * inner
    if val <= 0.0:
        _, s2 = thresholds(n, m, p)
        j_m = truncation_index(gauss_laguerre(m), s2)
    else:
        j_m = min(max(math.floor(math.sqrt(val) + _ROUND_FUZZ), 1), m)
    return j_n, j_m


def _sized(n: int, p: Params, mode: str) -> tuple[tuple[int, int], tuple[int, int], float]:
    """Rule sizes, kept counts and advertised error of ``mode`` at first-rule
    size ``n``; the only place a mode is turned into them."""
    n = _rule_size(n)
    if mode not in _FIGURE:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    sizes = kept = (n, n) if mode == "standard" else (n, balance_m(n, p))
    if mode == "truncated":
        cuts = thresholds(*sizes, p)
        kept = tuple(truncation_index(gauss_laguerre(size), s) for size, s in zip(sizes, cuts))
    return sizes, kept, _FIGURE[mode] * standard_estimate(n, p)


def make_plan(n: int, p: Params) -> Plan:
    """Full sizing decision for a truncated resolvent application at size ``n``."""
    (n, m), (k_n, k_m), error = _sized(n, p, "truncated")
    s1, s2 = thresholds(n, m, p)
    j_n, j_m = analytic_j(n, m, p)
    return Plan(
        n=n,
        m=m,
        k_n=k_n,
        k_m=k_m,
        j_n=j_n,
        j_m=j_m,
        s1=s1,
        s2=s2,
        predicted_error=error,
    )


def balanced_estimate(n: int, p: Params) -> float:
    """The paper's a-priori estimate for the balanced method, twice the
    dominant decay; not a bound (ROADMAP item 1)."""
    return _FIGURE["balanced"] * standard_estimate(n, p)


def truncated_estimate(plan: Plan, p: Params) -> float:
    """The paper's a-priori estimate for the truncated method (not a bound,
    ROADMAP item 1), in terms of the predicted kept-term count ``j_n``."""
    a = p.alpha
    pi = math.pi
    if plan.n > n_star(p):
        tail = 4.0 * pi * a * math.exp(
            -CURVATURE_C * pi * 2.0 ** (1.0 / 6.0) * 3.0 ** (-0.25) * math.sqrt(a * plan.j_n)
        )
    else:
        tail = (2.0 * pi / p.sin_pi_alpha) * math.exp(
            -(3.0**0.75) / math.sqrt(2.0) * math.sqrt(a) * pi * math.sqrt(plan.j_n)
        )
    return 4.0 * p.prefactor * tail


def asymptotic_estimates(q: int, p: Params) -> tuple[float, float]:
    """Large-budget error trends ``(balanced, truncated)`` at ``q`` solves.

    These express accuracy as a function of the number of inversions alone,
    for comparing the balanced and truncated strategies at equal cost.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    a = p.alpha
    pi = math.pi
    bal = 8.0 * p.sin_pi_alpha * math.exp(-3.0 * (q * (a + 1.0) / (2.0 * a + 1.0) * a * a * pi * pi) ** (1.0 / 3.0))
    trunc = 16.0 * p.sin_pi_alpha * math.exp(
        -(3.0**0.75) / math.sqrt(2.0) * pi * math.sqrt(a) * math.sqrt(q) / math.sqrt(1.0 + math.sqrt(a / (a + 1.0)))
    )
    return bal, trunc


def plan_for_tolerance(tol: float, p: Params) -> Plan:
    """Smallest-``n`` plan, ``n <= 2000``, whose predicted error meets ``tol``."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    for n in range(1, _TOL_PLAN_MAX + 1):
        if _FIGURE["truncated"] * standard_estimate(n, p) <= tol:
            return make_plan(n, p)
    raise ValueError(f"no n <= {_TOL_PLAN_MAX} meets tolerance {tol}")


class Scheme(NamedTuple):
    """Rule sizes ``(n1, n2)`` of the two integrands, the leading nodes
    ``(k1, k2)`` of each rule that become shifted solves, the a-priori
    error estimate the mode advertises, the shifted system of every kept
    node in solve order (the first rule's, then the second's) and the
    ``Params`` they were built for."""

    sizes: tuple[int, int]
    kept: tuple[int, int]
    predicted_error: float
    systems: tuple[ShiftedSystem, ...]
    params: Params

    @property
    def solves(self) -> int:
        """Shifted solves per application, one per kept node."""
        return sum(self.kept)


def scheme(n: int, p: Params, mode: str) -> Scheme:
    """The scheme of ``mode`` at first-rule size ``n``: ``_sized``'s sizes,
    kept counts and advertised error, and the shifted system of every kept
    node."""
    sizes, kept, error = _sized(n, p, mode)
    systems: list[ShiftedSystem] = []
    for size, count, which in zip(sizes, kept, ("first", "second")):
        rule = gauss_laguerre(size)
        # Python floats: at a subnormal alpha, -x/alpha saturates to -inf with no numpy warning
        nodes, weights = rule.nodes[:count].tolist(), rule.weights[:count].tolist()
        systems.extend(node_system(x, w, which, p) for x, w in zip(nodes, weights))
    return Scheme(sizes, kept, error, tuple(systems), p)


def mode_counts(n: int, p: Params, mode: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """``scheme(n, p, mode)``'s sizes and kept counts, read from ``_sized``
    without building any node system; kept because the benchmark imports it."""
    sizes, kept, _ = _sized(n, p, mode)
    return sizes, kept
