"""Tests for the parameters, the two integrand factors and the input checks."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fraclag.estimates import gamma_pm, poles, q_estimates
from fraclag.integrands import Params, ShiftedSystem, bounds, f1, f2, node_system
from fraclag.laguerre import gauss_laguerre, truncation_index
from fraclag.operators import DenseOperator, DiagonalOperator, apply_resolvent, scalar_approx
from fraclag.oracle import error_sweep, exact_diagonal_apply, exact_scalar_resolvent, representation_check
from fraclag.planner import asymptotic_estimates, plan_for_tolerance, scheme

# High-precision references (mpmath, 50 digits, rounded to double).
F1_X1_LAM10_A03_H001 = 0.63783498435673219364
F2_X2_LAM100_A075_H0001 = 2.2468224675963754546


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("h", [1e-4, 0.01, 1.0, 10.0])
def test_params_derived_quantities(alpha, h):
    p = Params(alpha, h)
    assert p.h_root == pytest.approx(h ** (1.0 / alpha), rel=1e-12)
    assert p.log_h_root == pytest.approx(math.log(h) / alpha, rel=1e-12, abs=1e-300)
    assert p.cos_pi_alpha == pytest.approx(math.cos(math.pi * alpha), abs=1e-15)
    assert p.sin_pi_alpha == pytest.approx(math.sin(math.pi * alpha), abs=1e-15)
    assert p.prefactor == pytest.approx(
        math.sin(math.pi * alpha) / (alpha * math.pi), rel=1e-14
    )


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_params_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        Params(alpha, 1.0)


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
def test_params_rejects_bad_h(h):
    with pytest.raises(ValueError):
        Params(0.5, h)


_NAN = float("nan")


@pytest.mark.parametrize(
    "fields",
    [(0.0, 0.0, 1.0), (-0.0, 0.0, 0.5), (0.0, -0.0, 0.0), (_NAN, 1.0, 1.0), (1.0, _NAN, 1.0), (1.0, 1.0, _NAN)],
)
def test_shifted_system_refuses_nan_and_singular_fields(fields):
    with pytest.raises(ValueError, match="NaN|singular"):
        ShiftedSystem(*fields)


@pytest.mark.parametrize(
    "fields", [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 1.0, -2.0), (0.0, float("inf"), 1.0)]
)
def test_shifted_system_accepts_what_the_kernel_handles(fields):
    # negative fields, tau == 0 beside sigma > 0 and an infinite tau reach the
    # diagonal kernel's tests
    system = ShiftedSystem(*fields)
    assert (system.sigma, system.tau, system.scale) == fields


@pytest.mark.parametrize("alpha, h", [(0.01, 1e8), (0.01, 1e-8), (0.002, 10.0)])
def test_params_rejects_h_root_out_of_double_range(alpha, h):
    # log(h)/alpha beyond log(DBL_MAX): h**(1/alpha) overflows or underflows
    with pytest.raises(ValueError):
        Params(alpha, h)


@pytest.mark.parametrize("h", [1e3, 1e-3])
def test_params_accepts_h_root_inside_double_range(h):
    p = Params(0.01, h)
    assert math.isfinite(p.h_root) and p.h_root > 0.0


def test_f1_at_origin_for_unit_parameters():
    # x=0, lam=1, h=1: (1 + 1)^-1 * (2 + 2 cos(pi alpha))^-1.
    p = Params(0.5, 1.0)
    assert f1(0.0, 1.0, p) == pytest.approx(0.25, rel=1e-14)


def test_f2_at_origin_for_unit_parameters():
    # x=0, lam=1, h=1: (alpha/(alpha+1)) * (1/2) * (2 + 2 cos(pi alpha))^-1.
    p = Params(0.5, 1.0)
    assert f2(0.0, 1.0, p) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_f1_frozen_reference():
    p = Params(0.3, 0.01)
    assert f1(1.0, 10.0, p) == pytest.approx(F1_X1_LAM10_A03_H001, rel=1e-14)


def test_f2_frozen_reference():
    p = Params(0.75, 0.001)
    assert f2(2.0, 100.0, p) == pytest.approx(F2_X2_LAM100_A075_H0001, rel=1e-14)


def test_integrand_vectorization_matches_scalar():
    p = Params(0.6, 0.5)
    x = np.linspace(0.0, 40.0, 17)
    v1 = f1(x, 3.0, p)
    v2 = f2(x, 3.0, p)
    for i, xi in enumerate(x):
        assert v1[i] == f1(float(xi), 3.0, p)
        assert v2[i] == f2(float(xi), 3.0, p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integrand_envelopes(seed):
    """Envelope constants hold pointwise for alpha <= 1/2; beyond that the
    oscillatory denominator can dip, but never below sin(alpha*pi)**2."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        alpha = rng.uniform(0.05, 0.95)
        h = 10.0 ** rng.uniform(-4, 1)
        lam = 10.0 ** rng.uniform(0, 16)
        x = rng.uniform(0.0, 80.0)
        p = Params(alpha, h)
        k1, k2 = bounds(p)
        slack = 1.0 if alpha <= 0.5 else 1.0 / p.sin_pi_alpha**2
        assert 0.0 <= f1(x, lam, p) <= k1 * slack * (1 + 1e-12)
        assert 0.0 <= f2(x, lam, p) <= k2 * slack * (1 + 1e-12)


def test_envelope_constants():
    p = Params(0.75, 0.01)
    k1, k2 = bounds(p)
    assert k1 == 1.0
    assert k2 == pytest.approx((0.75 / 1.75) * 0.01 ** (-1.0 / 0.75), rel=1e-14)


def test_f1_decreasing_in_lambda():
    p = Params(0.4, 0.1)
    lams = 10.0 ** np.arange(0, 17, 2)
    vals = [f1(0.7, float(lam), p) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_f2_decreasing_in_lambda():
    p = Params(0.4, 0.1)
    lams = 10.0 ** np.arange(0, 17, 2)
    vals = [f2(0.7, float(lam), p) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_extreme_arguments_stay_clean():
    # h^(1/alpha) = 1e300 is a double, but lam * h^(1/alpha) overflows the
    # double range; the factor must degrade to its zero limit instead of
    # producing nan.
    p = Params(0.01, 1e3)
    val = f1(0.0, 1e16, p)
    assert val == 0.0
    assert f2(800.0, 1.0, Params(0.5, 1.0)) >= 0.0


@pytest.mark.parametrize("func", [f1, f2])
def test_integrand_domain_errors(func):
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        func(-0.5, 1.0, p)
    with pytest.raises(ValueError):
        func(1.0, 0.5, p)
    with pytest.raises(ValueError):
        func(float("nan"), 1.0, p)
    with pytest.raises(ValueError):
        func(float("inf"), 1.0, p)
    with pytest.raises(ValueError):
        func(float("-inf"), 1.0, p)
    with pytest.raises(ValueError):
        func(1.0, float("nan"), p)


@pytest.mark.parametrize("which, func", [("first", f1), ("second", f2)])
def test_a_trigonometric_factor_that_cancels_is_refused(which, func):
    # for 1 - alpha below about 3.4e-9 cos(alpha*pi) rounds to -1, and the
    # factor cancels to 0 where exp(-x) rounds to 1: node_system divided by
    # it and f1, f2 returned inf
    p = Params(1.0 - 1e-9, 1.0)
    assert p.cos_pi_alpha == -1.0
    message = rf"{func.__name__}'s trigonometric factor is not > 0 at alpha=0\.999999999, x="
    with pytest.raises(ValueError, match=message + r"0\.0:"):
        node_system(0.0, 1.0, which, p)
    for x in (0.0, 1e-17):
        with pytest.raises(ValueError, match=message + re.escape(repr(x))):
            func(x, 2.0, p)
    # an array names its first x where the factor cancels
    with pytest.raises(ValueError, match=message + r"1e-17:"):
        func(np.array([3.0, 1e-17, 0.0]), 2.0, p)
    # away from x = 0 it is positive, at every node of a 200-point rule too
    assert np.all(np.isfinite(func(np.array([1e-3, 1.0, 5.0]), 2.0, p)))
    assert all(math.isfinite(s.scale) for s in scheme(200, p, "standard").systems)


_P = Params(0.5, 0.01)

# every entry point that takes numbers from a caller, the name its message
# gives them, and a complex and a text value for them
_REAL_INPUTS = {
    "Params-alpha": (lambda v: Params(v, 0.01), "alpha", np.complex128(0.5 + 0.1j), "0.5"),
    "Params-h": (lambda v: Params(0.5, v), "h", np.complex128(0.01 + 0.01j), "0.01"),
    "q_estimates-lam": (lambda v: q_estimates(v, 10, _P), "lam", np.complex128(10 + 1j), "10"),
    "f1-x": (lambda v: f1(v, 10.0, _P), "x", np.array([1 + 1j]), ["1"]),
    "f2-lam": (lambda v: f2(1.0, v, _P), "lam", np.array([10 + 1j]), ["10"]),
    "exact_scalar_resolvent-lam": (lambda v: exact_scalar_resolvent(v, _P), "lam", [10 + 1j], ["10"]),
    "apply_resolvent-b": (
        lambda v: apply_resolvent(DiagonalOperator([1.0, 2.0, 3.0]), v, _P, 5), "b", [1, 1j, 1], ["1", "2", "3"]
    ),
    "DiagonalOperator-entries": (DiagonalOperator, "diagonal entries", [2, 2 + 1j], ["2", "3"]),
    "DenseOperator-matrix": (DenseOperator, "matrix", [[2, 1j], [-1j, 2]], [["2", "0"], ["0", "2"]]),
    "exact_diagonal_apply-entries": (
        lambda v: exact_diagonal_apply(v, [1.0, 1.0], _P), "diagonal entries", [2, 2 + 1j], ["2", "3"]
    ),
    "exact_diagonal_apply-b": (lambda v: exact_diagonal_apply([2.0, 3.0], v, _P), "b", [1, 1j], ["1", "2"]),
    "error_sweep-lambda_grid": (lambda v: error_sweep(_P, 5, v), "lambda_grid", [10 + 1j], ["10"]),
}


@pytest.mark.parametrize("kind", ["complex", "text"])
@pytest.mark.parametrize("entry", sorted(_REAL_INPUTS))
def test_complex_and_text_inputs_are_refused(entry, kind):
    # a cast to float would drop the imaginary part with only a warning, or
    # parse the text
    call, name, complex_value, text_value = _REAL_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be real, got dtype"):
        call(complex_value if kind == "complex" else text_value)


@pytest.mark.parametrize("entry", sorted(_REAL_INPUTS))
def test_ragged_inputs_are_refused_with_their_name(entry):
    call, name, _, _ = _REAL_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a rectangular array of real numbers$"):
        call([[2.0], [2.0, 3.0]])


def test_object_inputs_are_refused():
    with pytest.raises(ValueError, match="^diagonal entries must be real, got dtype object"):
        DiagonalOperator([Fraction(2), Fraction(3)])


# every argument that takes one number, given text, an array of one or more
# entries, or an integer past 64 bits, which numpy holds as an object; and
# truncation_index's s out of its range, which names it the same way
_SCALAR_INPUTS = [
    ("Params-alpha", lambda v: Params(v, 0.1), "alpha", np.array([0.5])),
    ("Params-h", lambda v: Params(0.5, v), "h", np.array([0.1])),
    ("q_estimates-lam", lambda v: q_estimates(v, 10, _P), "lam", np.array([2.0])),
    ("poles-lam", lambda v: poles(v, _P), "lam", np.array([2.0])),
    ("gamma_pm-lam", lambda v: gamma_pm(v, _P), "lam", "2"),
    ("plan_for_tolerance-tol-text", lambda v: plan_for_tolerance(v, _P), "tol", "1e-6"),
    ("plan_for_tolerance-tol-array", lambda v: plan_for_tolerance(v, _P), "tol", np.array([1e-6, 1e-3])),
    ("representation_check-lam", lambda v: representation_check(v, _P, 1e-8), "lam", np.array([2.0])),
    ("representation_check-tol", lambda v: representation_check(2.0, _P, v), "tol", "1e-8"),
    ("truncation_index-s", lambda v: truncation_index(gauss_laguerre(5), v), "s", "1"),
    ("truncation_index-s-negative", lambda v: truncation_index(gauss_laguerre(5), v), "s", -1.0),
    ("truncation_index-s-inf", lambda v: truncation_index(gauss_laguerre(5), v), "s", math.inf),
    ("asymptotic_estimates-q-text", lambda v: asymptotic_estimates(v, _P), "q", "3"),
    ("asymptotic_estimates-q-huge", lambda v: asymptotic_estimates(v, _P), "q", 10**400),
    ("scalar_approx-lam", lambda v: scalar_approx(v, _P, 5), "lam", np.array([2.0])),
]


@pytest.mark.parametrize("call,name,value", [case[1:] for case in _SCALAR_INPUTS],
                         ids=[case[0] for case in _SCALAR_INPUTS])
def test_scalar_arguments_are_refused_with_their_name(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be (real|a scalar|finite and nonnegative), got"):
        call(value)


def test_error_sweep_takes_any_iterable_of_reals():
    grid = [1.0, 10.0, 1e8]
    want = error_sweep(_P, 5, grid)
    assert error_sweep(_P, 5, iter(grid)) == want
    assert error_sweep(_P, 5, np.array(grid, dtype=np.float32).astype(float)) == want
    assert error_sweep(_P, 5, (int(lam) for lam in grid)) == want
