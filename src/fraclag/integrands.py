"""Problem parameters, the two integrands of the resolvent representation,
and the shifted linear system each quadrature node of them becomes.

For a spectral point ``lam >= 1`` of a positive self-adjoint operator, the
scalar resolvent value ``1 / (1 + h * lam**alpha)`` equals

    (sin(alpha*pi) / (alpha*pi)) * (I1(lam) + I2(lam)),

where ``I1`` and ``I2`` integrate ``exp(-x) * f1(x, lam)`` and
``exp(-x) * f2(x, lam)`` over ``[0, inf)``.  Both integrands are bounded,
positive and smooth, which is what makes Gauss-Laguerre rules effective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Params", "ShiftedSystem", "f1", "f2", "node_system", "bounds"]


@dataclass(frozen=True)
class Params:
    """Fractional power ``alpha`` in (0, 1) and scaling ``h > 0`` such that
    ``h**(1/alpha)`` is a finite positive double.

    Derived quantities used throughout the package are computed once and
    cached on the instance.
    """

    alpha: float
    h: float

    def __post_init__(self) -> None:
        alpha = _scalar(self.alpha, "alpha")
        h = _scalar(self.h, "h")
        if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha!r}")
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"h must be finite and positive, got {self.h!r}")
        # h**(1/alpha) scales every shifted solve; past this it is no longer a
        # finite positive double
        if abs(math.log(h) / alpha) > math.log(sys.float_info.max):
            raise ValueError(
                f"h**(1/alpha) is out of double range at alpha={self.alpha!r}, h={self.h!r}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "h", h)

    @cached_property
    def h_root(self) -> float:
        """``h**(1/alpha)``."""
        return math.exp(self.log_h_root)

    @cached_property
    def log_h_root(self) -> float:
        """``log(h) / alpha``, kept separately so products with large ``lam``
        can be formed in log space without intermediate overflow."""
        return math.log(self.h) / self.alpha

    @cached_property
    def cos_pi_alpha(self) -> float:
        return math.cos(math.pi * self.alpha)

    @cached_property
    def sin_pi_alpha(self) -> float:
        return math.sin(math.pi * self.alpha)

    @cached_property
    def prefactor(self) -> float:
        """``sin(alpha*pi) / (alpha*pi)``, the factor in front of both sums."""
        return self.sin_pi_alpha / (self.alpha * math.pi)


def _real(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, else ValueError naming them ``what``:
    a cast would drop an imaginary part with only a warning and parse text."""
    try:
        values = np.asarray(values)
    except ValueError as exc:  # a ragged nesting; numpy's message names no argument
        raise ValueError(f"{what} must be a rectangular array of real numbers") from exc
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real, got dtype {values.dtype}")
    return values.astype(float, copy=False)


def _scalar(value, what: str) -> float:
    """The 0-d companion of ``_real``: ``value`` as a float, else ValueError
    naming it ``what``."""
    value = _real(value, what)
    if value.ndim:
        raise ValueError(f"{what} must be a scalar, got shape {value.shape}")
    return float(value)


# The least spectral point: the representation, the estimates and the rule
# sizing all assume a spectrum in [_SPECTRAL_FLOOR, inf).  Every check and
# clamp of it in the package reads it from here.
_SPECTRAL_FLOOR = 1.0


def _spectral(values, what: str = "lam") -> np.ndarray:
    """``values`` as a float array, refused unless every entry is at least
    ``_SPECTRAL_FLOOR``; the message names them ``what``.  The one check of
    the floor: +inf passes it."""
    values = _real(values, what)
    # every comparison with NaN is false, so one comparison per check refuses it
    if not np.all(values >= _SPECTRAL_FLOOR):
        raise ValueError(f"{what} must be >= {_SPECTRAL_FLOOR:g}")
    return values


def _spectral_scalar(lam) -> float:
    """One spectral point ``lam`` as a float: real, at least the floor
    (``_spectral``) and 0-d (``_scalar``), checked in that order."""
    return _scalar(_spectral(lam), "lam")


def _coordinate(lam: float, p: Params) -> float:
    """The spectral coordinate ``log(h**(1/alpha) * lam)`` of a float ``lam``
    already checked by ``_spectral``; the errors depend on ``lam`` only
    through it.  +inf gives +inf."""
    return p.log_h_root + math.log(lam)


def _evaluate(kernel, x, lam, p: Params):
    """``kernel(x, lam, p)`` for ``_f1`` or ``_f2`` once ``x`` is checked
    finite and nonnegative and ``lam >= 1``, with every floating-point flag
    of the kernel's 0-limits ignored; a 0-d result comes back as a float."""
    x = _real(x, "x")
    if not np.all((x >= 0) & (x < np.inf)):
        raise ValueError("x must be finite and nonnegative")
    lam = _spectral(lam)
    with np.errstate(all="ignore"):
        out = kernel(x, lam, p)
    return out if out.ndim else float(out)


def f1(x, lam, p: Params):
    """First integrand, evaluated elementwise.

    ``f1(x) = 1 / ((1 + exp(-x/alpha) * h**(1/alpha) * lam)
              * (exp(-2x) + 2*exp(-x)*cos(alpha*pi) + 1))``

    Values are nonnegative, below 1 for ``alpha <= 1/2`` and below
    ``1 / sin(alpha*pi)**2`` in general.  The product ``h**(1/alpha) * lam``
    is formed in log space, so extreme magnitudes degrade gracefully to the
    0-limit of the integrand instead of producing NaN.
    """
    return _evaluate(_f1, x, lam, p)


def f2(x, lam, p: Params):
    """Second integrand, evaluated elementwise.

    ``f2(x) = (alpha/(alpha+1)) / ((exp(-x/(alpha+1)) + h**(1/alpha) * lam)
              * (1 + 2*cos(alpha*pi)*exp(-alpha*x/(alpha+1))
                 + exp(-2*alpha*x/(alpha+1))))``
    """
    return _evaluate(_f2, x, lam, p)


# The kernels below are the formulas of f1 and f2 and nothing else.  They take
# float arrays or np.float64 scalars, trust that x is finite and nonnegative
# and lam >= 1, and leave the flags of the 0-limits, such as exp(-x)
# underflowing, to the caller's np.errstate, which ignores them all.


def _f1(x, lam, p: Params):
    t = np.exp(-x / p.alpha + p.log_h_root + np.log(lam))
    e = np.exp(-x)
    den = (1.0 + t) * (e * e + 2.0 * p.cos_pi_alpha * e + 1.0)
    return 1.0 / den


def _f2(x, lam, p: Params):
    ap1 = p.alpha + 1.0
    s = np.exp(p.log_h_root + np.log(lam))
    u = np.exp(-x / ap1)
    v = np.exp(-p.alpha * x / ap1)
    den = (u + s) * (1.0 + 2.0 * p.cos_pi_alpha * v + v * v)
    return (p.alpha / ap1) / den


@dataclass(frozen=True)
class ShiftedSystem:
    """One node's solve (sigma*I + tau*L)y = b and the multiplier scale
    applied to its solution.  sigma > 0 keeps the system positive definite
    whenever the spectrum of L is nonnegative.  A NaN field, or
    sigma == tau == 0, which is singular for every L, raises ValueError."""

    sigma: float
    tau: float
    scale: float

    def __post_init__(self) -> None:
        if math.isnan(self.sigma) or math.isnan(self.tau) or math.isnan(self.scale):
            raise ValueError(f"shifted system fields must not be NaN, got {self}")
        if self.sigma == 0.0 and self.tau == 0.0:
            raise ValueError(f"sigma == tau == 0 makes a singular system, got {self}")


def node_system(x: float, w: float, which: str, p: Params) -> ShiftedSystem:
    """Shifted system of the node at ``x`` with weight ``w``: ``w`` times
    ``_f1`` or ``_f2`` above, factored as ``scale / (sigma + tau * lam)``.

    ``which`` selects the integrand: "first" pairs a unit identity shift
    with a decaying operator coefficient, "second" the other way around.
    The trigonometric denominator of the integrand is folded into ``scale``.
    """
    a = p.alpha
    if which == "first":
        e = math.exp(-x)
        return ShiftedSystem(
            sigma=1.0,
            tau=math.exp(-x / a + p.log_h_root),
            scale=w / (e * e + 2.0 * e * p.cos_pi_alpha + 1.0),
        )
    if which == "second":
        v = math.exp(-a * x / (a + 1.0))
        return ShiftedSystem(
            sigma=math.exp(-x / (a + 1.0)),
            tau=p.h_root,
            scale=w * (a / (a + 1.0)) / (1.0 + 2.0 * p.cos_pi_alpha * v + v * v),
        )
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def bounds(p: Params) -> tuple[float, float]:
    """Tail envelope constants ``(K1, K2)`` of the two integrands:
    ``K1 = 1`` and ``K2 = (alpha/(alpha+1)) * h**(-1/alpha)``.

    Both integrands approach these envelopes from below as ``x`` grows;
    for ``alpha > 1/2`` they may exceed them near the origin by at most
    the resonance factor ``1 / sin(alpha*pi)**2``."""
    return 1.0, (p.alpha / (p.alpha + 1.0)) * math.exp(-p.log_h_root)


def _log_bounds(p: Params) -> tuple[float, float]:
    """``(log K1, log K2)`` of ``bounds``, formed without ``K2``: at tiny ``h``
    a quotient of a small figure by ``K2`` underflows to 0, whose log has no
    value, and one of ``K2`` by a small figure overflows."""
    return 0.0, math.log(p.alpha / (p.alpha + 1.0)) - p.log_h_root
