"""Gauss-Laguerre quadrature rules and threshold-based truncation indices.

Rules are for the weight ``exp(-x)`` on ``[0, inf)``.  Nodes come from the
eigenvalues of the symmetric tridiagonal Jacobi matrix (diagonal ``2j - 1``,
off-diagonal ``j``), refined by Newton iteration on the recurrence-evaluated
Laguerre polynomial.  Weights are recovered from the classical identity
``w_j = x_j / ((n + 1) * L_{n+1}(x_j))**2``, evaluated in scaled arithmetic
so large rules do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .integrands import _scalar

__all__ = [
    "MAX_RULE_SIZE",
    "QuadratureRule",
    "gauss_laguerre",
    "truncation_index",
]

# Rules beyond a few hundred points exhaust IEEE double range in the weights;
# the cap is generous headroom over every size the planner ever requests.
MAX_RULE_SIZE = 10_000

_NEWTON_RELTOL = 1e-14
_NEWTON_MAX_STEPS = 4


@dataclass(frozen=True)
class QuadratureRule:
    """An ``n``-point Gauss-Laguerre rule.

    Attributes
    ----------
    n : int
        Number of nodes.  The rule integrates polynomials of degree
        ``2n - 1`` exactly against ``exp(-x)`` on ``[0, inf)``.
    nodes : numpy.ndarray
        Strictly increasing positive abscissas, shape ``(n,)``.
    weights : numpy.ndarray
        Positive weights summing to one, shape ``(n,)``.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray


def _scaled_laguerre(degree: int, x: np.ndarray):
    """Evaluate the Laguerre polynomials ``L_degree`` and ``L_{degree-1}``.

    Returns ``(p, p_prev, log_scale)`` with ``L_degree(x) = p * exp(log_scale)``
    elementwise; the running rescale keeps intermediates inside double range
    for any rule size up to the module cap.
    """
    p_prev = np.ones_like(x)
    p = 1.0 - x
    log_scale = np.zeros_like(x)
    for k in range(1, degree):
        p, p_prev = ((2 * k + 1 - x) * p - k * p_prev) / (k + 1), p
        mag = np.maximum(np.abs(p), np.abs(p_prev))
        big = mag > 1e120
        if big.any():
            shrink = np.where(big, mag, 1.0)
            p = p / shrink
            p_prev = p_prev / shrink
            log_scale = log_scale + np.log(shrink)
    return p, p_prev, log_scale


def _refine_nodes(n: int, x: np.ndarray) -> np.ndarray:
    # Newton iteration on L_n; x*L_n'(x) = n*(L_n(x) - L_{n-1}(x)).
    for _ in range(_NEWTON_MAX_STEPS):
        p, p_prev, _ = _scaled_laguerre(n, x)
        step = x * p / (n * (p - p_prev))
        x = x - step
        if np.all(np.abs(step) <= _NEWTON_RELTOL * x):
            break
    return x


def _weights_from_nodes(n: int, x: np.ndarray) -> np.ndarray:
    p_next, _, log_scale = _scaled_laguerre(n + 1, x)
    log_w = np.log(x) - 2.0 * (np.log(np.abs(p_next)) + log_scale + np.log(n + 1.0))
    w = np.exp(log_w)
    # pin the zeroth moment exactly: integral of exp(-x) over [0, inf) is 1
    return w / w.sum()


@lru_cache(maxsize=128)
def _build_rule(n: int) -> QuadratureRule:
    j = np.arange(1, n + 1, dtype=float)
    # from n = 190 on the last weights underflow: 0 or a subnormal is then
    # their value to double precision
    with np.errstate(all="ignore"):
        nodes = eigvalsh_tridiagonal(2.0 * j - 1.0, j[:-1])
        nodes = _refine_nodes(n, nodes)
        weights = _weights_from_nodes(n, nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(n=n, nodes=nodes, weights=weights)


def gauss_laguerre(n: int) -> QuadratureRule:
    """Build the ``n``-point Gauss-Laguerre rule for ``exp(-x)`` on ``[0, inf)``.

    Parameters
    ----------
    n : int
        Rule size, ``1 <= n <= MAX_RULE_SIZE``.

    Returns
    -------
    QuadratureRule
        Immutable rule; repeated calls with the same ``n`` return the same
        cached object, so results are bit-reproducible within a process.

    Raises
    ------
    ValueError
        If ``n`` is not an integer in ``[1, MAX_RULE_SIZE]``.
    """
    return _build_rule(_rule_size(n))


def _rule_size(n) -> int:
    """``n`` as a Python int, or ValueError unless it is an integer (NumPy
    integers included) in ``[1, MAX_RULE_SIZE]``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"rule size must be an integer, got {n!r}")
    if n < 1 or n > MAX_RULE_SIZE:
        raise ValueError(f"rule size must be in [1, {MAX_RULE_SIZE}], got {n}")
    return int(n)


def truncation_index(rule: QuadratureRule, s: float) -> int:
    """Smallest 1-based ``k`` such that ``rule.nodes[k - 1] >= s``, or
    ``rule.n`` when even the largest node falls short of ``s``.

    Summing the first ``k`` terms of the rule then keeps every node below the
    threshold ``s`` plus the first node at or past it, or the full rule.

    Parameters
    ----------
    rule : QuadratureRule
    s : float
        Nonnegative threshold.

    Returns
    -------
    int
        The kept-term count, in ``[1, rule.n]``.
    """
    s = _scalar(s, "s")
    if not 0.0 <= s < np.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s!r}")
    return min(int(np.searchsorted(rule.nodes, s, side="left")) + 1, rule.n)
