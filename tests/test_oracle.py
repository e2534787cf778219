"""Tests for the adaptive reference checks and the error sweep."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from fraclag import integrands, oracle
from fraclag.integrands import Params, bounds, f1, f2
from fraclag.laguerre import gauss_laguerre
from fraclag.operators import DiagonalOperator, apply_scheme
from fraclag.oracle import (
    OracleError,
    SweepRecord,
    error_sweep,
    exact_diagonal_apply,
    exact_scalar_resolvent,
    representation_check,
)
from fraclag.planner import MODES, mode_counts, scheme

# High-precision references (mpmath, 50 digits, rounded to double).
EXACT_RES_LAM1E16_A05_H001 = 9.99999000000999999e-7


def test_exact_diagonal_apply_simple():
    p = Params(0.5, 1.0)
    got = exact_diagonal_apply([1.0, 4.0], np.array([1.0, 1.0]), p)
    np.testing.assert_allclose(got, [0.5, 1.0 / 3.0], rtol=1e-15)


def test_exact_diagonal_apply_infinite_entry():
    p = Params(0.3, 0.01)
    got = exact_diagonal_apply([1.0, float("inf")], np.array([2.0, 2.0]), p)
    assert got[1] == 0.0
    assert got[0] == pytest.approx(2.0 / 1.01, rel=1e-15)


def test_exact_diagonal_apply_validation():
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        exact_diagonal_apply([1.0, 2.0], np.ones(3), p)
    with pytest.raises(ValueError):
        exact_diagonal_apply([0.5], np.ones(1), p)
    with pytest.raises(ValueError):
        exact_diagonal_apply([2.0, float("nan")], np.ones(2), p)


@pytest.mark.parametrize(
    "entries,b",
    [([math.inf], [math.inf]), ([4.0], [math.nan]), ([1.0, 2.0], [1.0, -math.inf])],
    ids=["inf-over-inf", "nan", "minus-inf"],
)
def test_exact_diagonal_apply_refuses_a_non_finite_b(entries, b):
    # apply_scheme refuses the same b, so the reference and the method
    # agree on what they accept
    with pytest.raises(ValueError, match="^b must be finite$"):
        exact_diagonal_apply(entries, b, Params(0.5, 0.01))


def test_exact_scalar_resolvent_simple():
    p = Params(0.5, 1.0)
    assert exact_scalar_resolvent(1.0, p) == pytest.approx(0.5, rel=1e-15)


def test_exact_scalar_resolvent_far_field():
    p = Params(0.5, 0.01)
    got = exact_scalar_resolvent(1e16, p)
    assert got == pytest.approx(EXACT_RES_LAM1E16_A05_H001, rel=1e-14)


def test_exact_scalar_resolvent_infinite_mode():
    p = Params(0.3, 0.01)
    assert exact_scalar_resolvent(float("inf"), p) == 0.0


def test_exact_scalar_resolvent_monotone():
    p = Params(0.7, 0.2)
    lams = 10.0 ** np.linspace(0, 16, 9)
    vals = [exact_scalar_resolvent(float(lam), p) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_exact_scalar_resolvent_rejects_small_lambda():
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        exact_scalar_resolvent(0.999, p)


# 1 / (1 + h * lam**alpha) at the doubles alpha, h and lam, from mpmath at
# 50 digits, to 25 significant digits
_CLOSED_FORM = [
    (0.95, 1e-3, 1e16, 6.309573444797961614292858e-13),
    (0.5, 0.01, 1e16, 9.999990000009999781833609e-7),
    (0.9, 1e-8, 1e300, 9.999999999999845935252365e-263),
]


@pytest.mark.parametrize("alpha,h,lam,want", _CLOSED_FORM)
def test_exact_scalar_resolvent_is_correctly_rounded_at_large_lam(alpha, h, lam, want):
    # exp(alpha * log(lam)) amplifies the rounding of log(lam) by
    # alpha * log(lam), up to 90 ulps at lam = 1e300
    got = exact_scalar_resolvent(lam, Params(alpha, h))
    assert abs(got - want) <= 1.5 * np.finfo(float).eps * want


@pytest.mark.parametrize("alpha,h", [(0.5, 0.01), (0.95, 1e-3), (0.9, 1e-8), (0.05, 10.0)])
def test_exact_scalar_resolvent_is_the_diagonal_apply_of_ones(alpha, h):
    p = Params(alpha, h)
    grid = np.append(10.0 ** np.linspace(0, 300, 301), math.inf)
    want = exact_diagonal_apply(grid, np.ones(grid.size), p).view(np.int64)
    points = [exact_scalar_resolvent(lam, p) for lam in grid.tolist()]
    assert all(type(value) is float for value in points)
    assert np.array_equal(np.array(points).view(np.int64), want)
    # an array comes back elementwise, in its own shape
    block = exact_scalar_resolvent(grid.reshape(-1, 2), p)
    assert block.shape == (151, 2)
    assert np.array_equal(block.ravel().view(np.int64), want)


@pytest.mark.parametrize("mode", MODES)
def test_error_sweep_total_is_the_distance_to_the_closed_form(mode):
    p, n = Params(0.5, 0.01), 50
    grid = 10.0 ** np.linspace(0, 16, 33)
    ones = np.ones(grid.size)
    approx = apply_scheme(DiagonalOperator(grid), ones, scheme(n, p, mode))
    want = np.abs(approx - exact_diagonal_apply(grid, ones, p))
    got = np.array([rec.err_total for rec in error_sweep(p, n, grid, mode)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "lam,alpha,h",
    [(1.0, 0.5, 1.0), (1e8, 0.3, 0.01), (1e16, 0.75, 0.001), (3.7, 0.9, 10.0)],
)
def test_representation_matches_closed_form(lam, alpha, h):
    """The two-integral split reproduces 1/(1 + h*lam^alpha)."""
    check = representation_check(lam, Params(alpha, h), tol=1e-10)
    assert check.gap <= 1e-10
    assert check.rhs == pytest.approx(1.0 / (1.0 + h * lam**alpha), rel=1e-12)


def _quad_of_public_integrand(which, lam, p, upper, epsabs, epsrel):
    f = f1 if which == 1 else f2
    knee = oracle._knee(lam, p, which)
    points = [knee] if 0.0 < knee < upper else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(lambda x: math.exp(-x) * f(x, lam, p), 0.0, upper,
                    epsabs=epsabs, epsrel=epsrel, limit=500, points=points)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    "lam,alpha,h",
    [(1.0, 0.5, 1.0), (3.7, 0.05, 1e-3), (1e8, 0.3, 0.01), (1e16, 0.05, 10.0),
     (1e16, 0.95, 1e-4), (1e16, 0.5, 1.0)],
)
@pytest.mark.parametrize("upper,epsabs,epsrel", [(60.0, 0.0, 1e-13), (50.0, 1e-11, 0.0)])
def test_reference_integral_matches_public_integrand_bitwise(which, lam, alpha, h, upper, epsabs, epsrel):
    """The reference runs the unchecked kernels; value and achieved error
    must equal quad over the checked public integrand, bit for bit."""
    p = Params(alpha, h)
    got = oracle._reference_integral(which, lam, p, upper, epsabs, epsrel)
    want = _quad_of_public_integrand(which, lam, p, upper, epsabs, epsrel)
    np.testing.assert_array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("lam", [0.5, float("nan")])
def test_representation_check_refuses_lam_before_quadrature(lam, monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(oracle, "quad", no_quad)
    with pytest.raises(ValueError, match="lam must be >= 1"):
        representation_check(lam, Params(0.5, 1.0), tol=1e-8)


def test_representation_check_validates_tol():
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        representation_check(1.0, p, tol=0.0)
    with pytest.raises(ValueError):
        representation_check(1.0, p, tol=-1e-8)


def test_representation_check_refuses_an_infinite_tol():
    # unrefused, the window log K - log(tol/10) would be -inf
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        representation_check(1.0, Params(0.5, 1.0), tol=math.inf)


def test_representation_check_windows_in_logs_at_tiny_h():
    # K2 / (tol/10) overflows here; an infinite window made scipy refuse
    # with "Infinity inputs cannot be used with break points"
    p = Params(0.5, 1e-150)
    assert bounds(p)[1] / 1e-9 == math.inf
    check = representation_check(10.0, p, 1e-8)
    assert check.gap <= 1e-8


def test_representation_check_reports_unreachable_budget():
    # Far below machine precision the adaptive integrator cannot certify
    # its result and must say so rather than return silently.
    with pytest.raises(OracleError):
        representation_check(1.0, Params(0.5, 1.0), tol=1e-300)


def test_error_sweep_single_point():
    p = Params(0.5, 0.01)
    records = error_sweep(p, 20, [100.0])
    assert len(records) == 1
    rec = records[0]
    assert isinstance(rec, SweepRecord)
    assert rec.lam == 100.0
    for field in ("err_total", "err_int1", "err_int2", "q_I", "q_II", "q_III", "q_IV"):
        val = getattr(rec, field)
        assert math.isfinite(val)
        assert val >= 0.0
    assert rec.regime1 in ("I", "II")
    assert rec.regime2 in ("III", "IV")


def test_error_sweep_preserves_grid_order():
    p = Params(0.3, 0.1)
    grid = [1.0, 10.0, 1e5, 1e12]
    records = error_sweep(p, 15, grid)
    assert [r.lam for r in records] == grid


def test_error_sweep_total_error_bounded_by_envelopes():
    # Crude ceiling: the total error cannot exceed the prefactor times the
    # integrand envelopes, whatever the rule size.
    p = Params(0.75, 0.5)
    k1, k2 = bounds(p)
    ceiling = 2.0 * p.prefactor * (k1 + k2)
    for rec in error_sweep(p, 5, list(10.0 ** np.linspace(0, 16, 9))):
        assert rec.err_total <= ceiling


def test_error_sweep_tracks_selected_estimates():
    """Measured per-integral errors stay within a factor of the active
    modulus estimates across a broad log grid.

    The absolute floor covers points where the estimate drops below what
    the 1e-13 relative-accuracy reference can resolve.
    """
    p = Params(1.0 / 3.0, 0.01)
    grid = list(10.0 ** np.linspace(0, 12, 7))
    for rec in error_sweep(p, 25, grid):
        sel1 = rec.q_I if rec.regime1 == "I" else rec.q_II
        sel2 = rec.q_III if rec.regime2 == "III" else rec.q_IV
        assert rec.err_int1 <= 10.0 * sel1 + 1e-15
        assert rec.err_int2 <= 10.0 * sel2 + 1e-15


def test_error_sweep_modes_reduce_second_rule():
    from fraclag.planner import balanced_estimate, make_plan

    p = Params(0.5, 0.01)
    grid = [1e4]
    std = error_sweep(p, 30, grid, mode="standard")[0]
    bal = error_sweep(p, 30, grid, mode="balanced")[0]
    tr = error_sweep(p, 30, grid, mode="truncated")[0]
    # First-integral error identical for standard and balanced: same rule.
    assert bal.err_int1 == std.err_int1
    # Each variant stays within its own a-priori bound.
    assert bal.err_total <= balanced_estimate(30, p)
    assert tr.err_total <= make_plan(30, p).predicted_error


def test_error_sweep_reads_only_the_scheme(monkeypatch):
    # the per-rule sums come from the scheme's systems, and the references
    # call the unchecked kernels, so the checked f1 and f2 are never used
    def refuse(*args):
        raise AssertionError("the public integrands were evaluated")

    monkeypatch.setattr(integrands, "_evaluate", refuse)
    records = error_sweep(Params(0.5, 0.01), 20, [1.0, 1e4, 1e12], mode="truncated")
    assert [r.lam for r in records] == [1.0, 1e4, 1e12]


@pytest.mark.parametrize("mode", ["standard", "balanced", "truncated"])
def test_error_sweep_rule_sums_are_the_kept_quadratures(mode):
    # each integral's sum over the scheme's systems is its rule's quadrature
    # of the kept nodes, up to the rounding of the two ways of summing it:
    # the sums are below 0.79 here, and 3 of their ulps (2**-53) apart at most
    p, n = Params(0.5, 0.01), 50
    grid = list(10.0 ** np.linspace(0, 16, 20))
    sizes, counts = mode_counts(n, p, mode)
    for rec in error_sweep(p, n, grid, mode):
        for which, f, size, kept, err in zip(
            (1, 2), (f1, f2), sizes, counts, (rec.err_int1, rec.err_int2)
        ):
            rule = gauss_laguerre(size)
            quadrature = float(rule.weights[:kept] @ f(rule.nodes[:kept], rec.lam, p))
            want = abs(oracle._sweep_reference(which, rec.lam, p) - quadrature)
            assert err == pytest.approx(want, abs=4 * 2.0**-53)


def test_error_sweep_empty_grid():
    assert error_sweep(Params(0.5, 1.0), 10, []) == []


def test_error_sweep_rejects_bad_grid():
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        error_sweep(p, 10, [0.5])


@pytest.mark.parametrize(
    "grid,message",
    [
        ([0.5], "lambda_grid must be >= 1"),
        ([math.nan], "lambda_grid must be >= 1"),
        ([math.inf], "lambda_grid must be finite"),
        ([[2.0, 3.0]], r"lambda_grid must be 1-D, got shape \(1, 2\)"),
        (3.0, r"lambda_grid must be 1-D, got shape \(\)"),
        (np.float64(3.0), r"lambda_grid must be 1-D, got shape \(\)"),
    ],
    ids=["below-floor", "nan", "inf", "2-D", "scalar", "numpy-scalar"],
)
def test_error_sweep_refusals_name_lambda_grid(grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        error_sweep(Params(0.5, 0.01), 10, grid)
