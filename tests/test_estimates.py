"""Tests for pole geometry, widths and the a-priori error sequences."""

import math
import sys

import numpy as np
import pytest

from fraclag import estimates
from fraclag.estimates import (
    CURVATURE_C,
    eps1,
    eps2,
    g_sequences,
    gamma_pm,
    lambda_bar,
    lambda_bbar,
    n_star,
    n_star_star,
    poles,
    q_estimates,
    standard_estimate,
)
from fraclag.estimates import _quotient
from fraclag.integrands import Params

# High-precision references (mpmath, 50 digits, rounded to double).
POLE_A03_RE_I = -1.8420680743952365472
POLE_A03_IM_I = 0.94247779607693797154
POLE_A03_IM_II = 2.1991148575128552669
POLE_A03_RE_III = 7.9822949890460250379
POLE_A03_IM_III = 4.08407044966673121
POLE_A03_IM_IV = 9.52949771588903949
GAMMA_PLUS_A05_H001_L1E8 = 4.3522099610801912701
GAMMA_MINUS_A05_H001_L1E8 = 0.72183848704074690513
LAMBDA_BAR_A03_H001 = 232948.87391384401931
LAMBDA_BBAR_A075_H001 = 7.0387930229261890665
Q_I_A03_LAM1E4_N30 = 2.053256009447772238e-14
Q_II_A03_LAM1E4_N30 = 6.7551257143862089116e-10
Q_III_A03_LAM1E4_N30 = 9.9776975625655748194e-8
Q_IV_A03_LAM1E4_N30 = 8.8703996678513846399e-21
G_I_N50_A05 = 1.9527803529386721378e-6
N_STAR_A06 = 8.5580031543859228974
N_STAR_STAR_A06 = 2.8967511828947210865
STANDARD_EST_N50_A05 = 1.2431785837717026112e-6


def test_curvature_constant():
    assert CURVATURE_C == pytest.approx(3.0 * 2.0 ** (-2.0 / 3.0), rel=1e-15)
    assert CURVATURE_C == pytest.approx(1.8898815748423097472, rel=1e-15)


def test_pole_positions_frozen():
    p = Params(0.3, 0.01)
    ps = poles(1e4, p)
    assert ps.z0_I.real == pytest.approx(POLE_A03_RE_I, rel=1e-13)
    assert ps.z0_I.imag == pytest.approx(POLE_A03_IM_I, rel=1e-13)
    assert ps.z0_II.real == 0.0
    assert ps.z0_II.imag == pytest.approx(POLE_A03_IM_II, rel=1e-13)
    assert ps.z0_III.real == pytest.approx(POLE_A03_RE_III, rel=1e-13)
    assert ps.z0_III.imag == pytest.approx(POLE_A03_IM_III, rel=1e-13)
    assert ps.z0_IV.real == 0.0
    assert ps.z0_IV.imag == pytest.approx(POLE_A03_IM_IV, rel=1e-13)


def test_poles_coincide_for_unit_arguments():
    # alpha = 1/2 with lam = h = 1 merges the two first-integrand poles
    # at i*pi/2, the double-pole configuration of the threshold case.
    ps = poles(1.0, Params(0.5, 1.0))
    assert ps.z0_I == pytest.approx(1j * math.pi / 2, abs=1e-15)
    assert ps.z0_II == pytest.approx(1j * math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("alpha,h", [(0.3, 0.5), (0.5, 0.01)])
def test_pole_real_part_vanishes_at_unit_product(alpha, h):
    # lam * h^(1/alpha) = 1 zeroes the real part of the lam-dependent
    # poles; the lam-free pair always sits on the imaginary axis.
    lam = h ** (-1.0 / alpha)
    ps = poles(lam, Params(alpha, h))
    assert ps.z0_I.real == pytest.approx(0.0, abs=1e-10)
    assert ps.z0_I.imag == pytest.approx(math.pi * alpha, rel=1e-12)
    assert ps.z0_II.imag == pytest.approx(math.pi * (1.0 - alpha), rel=1e-12)
    assert ps.z0_III.real == pytest.approx(0.0, abs=1e-10)


def test_second_pair_imaginary_parts():
    # Heights (alpha+1)pi and (1-alpha)(alpha+1)pi/alpha, independent
    # of lam and h.
    alpha = 0.3
    ps = poles(777.0, Params(alpha, 0.2))
    assert ps.z0_III.imag == pytest.approx(math.pi * (alpha + 1.0), rel=1e-13)
    assert ps.z0_IV.imag == pytest.approx(
        math.pi * (1.0 - alpha) * (alpha + 1.0) / alpha, rel=1e-13
    )


def test_gamma_widths_frozen():
    gp, gm = gamma_pm(1e8, Params(0.5, 0.01))
    assert gp == pytest.approx(GAMMA_PLUS_A05_H001_L1E8, rel=1e-13)
    assert gm == pytest.approx(GAMMA_MINUS_A05_H001_L1E8, rel=1e-13)


def test_gamma_product_is_pi():
    """gamma_plus * gamma_minus = pi for every parameter combination."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = Params(rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-4, 1))
        gp, gm = gamma_pm(10.0 ** rng.uniform(0, 16), p)
        assert gp * gm == pytest.approx(math.pi, rel=1e-12)


def test_gamma_balanced_at_unit_product():
    p = Params(0.5, 0.01)
    gp, gm = gamma_pm(p.h ** (-1.0 / p.alpha), p)
    assert gp == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gm == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_lambda_bar_frozen():
    assert lambda_bar(Params(0.3, 0.01)) == pytest.approx(
        LAMBDA_BAR_A03_H001, rel=1e-13
    )


def test_lambda_bar_halfway_exponent():
    # alpha = 1/2 zeroes the exponential factor: lambda_bar = h^-2.
    for h in (0.01, 0.1, 1.0, 10.0):
        got = lambda_bar(Params(0.5, h))
        assert got == pytest.approx(h**-2.0, rel=1e-12)


def test_lambda_bbar_frozen_and_clamped():
    assert lambda_bbar(Params(0.75, 0.01)) == pytest.approx(
        LAMBDA_BBAR_A075_H001, rel=1e-13
    )
    # Raw threshold falls below 1 for h = 1; the clamp keeps it at 1.
    assert lambda_bbar(Params(0.75, 1.0)) == 1.0


def test_q_estimates_frozen():
    q = q_estimates(1e4, 30, Params(0.3, 0.01))
    assert q.q_I == pytest.approx(Q_I_A03_LAM1E4_N30, rel=1e-12)
    assert q.q_II == pytest.approx(Q_II_A03_LAM1E4_N30, rel=1e-12)
    assert q.q_III == pytest.approx(Q_III_A03_LAM1E4_N30, rel=1e-12)
    assert q.q_IV == pytest.approx(Q_IV_A03_LAM1E4_N30, rel=1e-12)


def test_regime_selection_follows_thresholds():
    p = Params(0.3, 0.01)
    lam_bar = lambda_bar(p)
    lam_bbar = lambda_bbar(p)
    assert q_estimates(lam_bar * 10, 20, p).regime1 == "I"
    assert q_estimates(max(1.0, lam_bar / 10), 20, p).regime1 == "II"
    assert q_estimates(max(1.0, lam_bbar / 2), 20, p).regime2 == "III"
    assert q_estimates(lam_bbar * 10, 20, p).regime2 == "IV"


def test_q_estimates_selected_properties():
    q = q_estimates(1e4, 30, Params(0.3, 0.01))
    assert q.selected_first == q.q_II  # 1e4 < lambda_bar = 2.3e5
    assert q.selected_second == q.q_III  # 1e4 < lambda_bbar = 9.2e7


def test_q_estimates_finite_at_threshold():
    # At lam = lambda_bar the two saddle contributions merge; the modulus
    # form must stay finite there even though the naive width vanishes.
    p = Params(0.5, 0.1)
    q = q_estimates(lambda_bar(p), 15, p)
    for val in (q.q_I, q.q_II, q.q_III, q.q_IV):
        assert math.isfinite(val)
        assert val > 0


# alpha x h grid on which the thresholds and estimates once overflowed; the
# pairs whose h**(1/alpha) is out of double range are refused by Params
OVERFLOW_ALPHAS = (0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99)
OVERFLOW_HS = (1e-300, 1e-15, 1e-3, 1.0, 1e3, 1e15, 1e100, 1e300)


def _accepted_params():
    for alpha in OVERFLOW_ALPHAS:
        for h in OVERFLOW_HS:
            try:
                yield Params(alpha, h)
            except ValueError:
                pass


def test_thresholds_saturate_past_double_range():
    assert lambda_bar(Params(0.99, 1e-300)) == math.inf
    assert lambda_bbar(Params(0.01, 1e-3)) == math.inf
    assert lambda_bbar(Params(0.05, 1e-15)) == math.inf
    for p in _accepted_params():
        for threshold in (lambda_bar(p), lambda_bbar(p)):
            assert threshold >= 0.0  # never NaN


def test_q_estimates_never_nan_past_double_range():
    lams = 10.0 ** np.linspace(0.0, 300.0, 31)
    for p in _accepted_params():
        for lam in lams:
            q = q_estimates(lam, 30, p)
            for val in (q.q_I, q.q_II, q.q_III, q.q_IV):
                assert 0.0 <= val < math.inf, (p, lam, q)


def test_q_estimates_take_zero_limit_on_overflowed_denominators():
    # h**(1/alpha) * lam = 1e311 and h * lam**alpha = 1e308: all four
    # denominators overflow
    q = q_estimates(1e8, 30, Params(0.99, 1e300))
    assert (q.q_I, q.q_II, q.q_III, q.q_IV) == (0.0, 0.0, 0.0, 0.0)
    # h**(1/alpha) * lam overflows, h * lam**alpha = 1e3 does not
    q = q_estimates(1e300, 30, Params(0.01, 1000.0))
    assert q.q_II == q.q_IV == 0.0
    assert q.q_I > 0.0


def test_q_estimate_quotient_refuses_what_is_not_a_zero_limit():
    assert _quotient(1.0, math.inf, 2.0) == 0.0
    assert _quotient(math.inf, math.nan, 2.0) == 0.0
    for num, den in ((math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="out of double range"):
            _quotient(num, den, 2.0)


def test_q_estimates_decrease_with_n():
    p = Params(0.3, 0.01)
    prev = q_estimates(1e4, 5, p)
    for n in (10, 20, 40, 80):
        cur = q_estimates(1e4, n, p)
        assert cur.q_II < prev.q_II
        assert cur.q_I < prev.q_I
        prev = cur


def test_g_sequence_frozen_value():
    g = g_sequences(50, Params(0.5, 1.0))
    assert g.g_I == pytest.approx(G_I_N50_A05, rel=1e-12)


def test_g_sequences_structure():
    p = Params(0.5, 1.0)
    g = g_sequences(12, p)
    nbar = 4 * 12 + 2
    assert g.g_I == pytest.approx(
        4 * math.pi * 0.5 * math.exp(-CURVATURE_C * (nbar * 0.25 * math.pi**2) ** (1 / 3)),
        rel=1e-13,
    )
    assert g.g_II == pytest.approx(
        2 * math.pi * math.exp(-math.sqrt(2 * 0.5 * math.pi * nbar)), rel=1e-13
    )


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_g_sequences_decreasing(alpha):
    p = Params(alpha, 1.0)
    for name in ("g_I", "g_II", "g_III", "g_IV"):
        vals = [getattr(g_sequences(n, p), name) for n in range(1, 80, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_second_integral_sequences_dominate(Sample=(5, 15, 30)):
    # With the extra (alpha+1) factor in the exponents the second-integral
    # sequences decay visibly faster than the first-integral ones.
    p = Params(0.7, 1.0)
    for n in Sample:
        g = g_sequences(n, p)
        assert g.g_III < g.g_I
        assert g.g_IV < g.g_II


def test_crossover_indices_frozen():
    p = Params(0.6, 1.0)
    assert n_star(p) == pytest.approx(N_STAR_A06, rel=1e-13)
    assert n_star_star(p) == pytest.approx(N_STAR_STAR_A06, rel=1e-13)


def test_crossover_indices_near_one():
    # Analytic crossovers pass through n = 1 close to these alphas.
    assert n_star(Params(0.47, 1.0)) == pytest.approx(1.0, abs=0.1)
    assert n_star_star(Params(0.55, 1.0)) == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_second_crossover_below_first(alpha):
    p = Params(alpha, 1.0)
    assert n_star_star(p) < n_star(p)


def test_crossover_matches_sequence_intersection():
    # The first n where g_I drops under g_II should sit within one index
    # of the analytic crossover.
    p = Params(0.6, 1.0)
    cross = next(n for n in range(1, 60) if g_sequences(n, p).g_I >= g_sequences(n, p).g_II)
    assert abs(cross - n_star(p)) <= 1.0


def test_eps_selects_active_branch():
    p = Params(0.6, 1.0)
    # n = 20 lies past n_star = 8.56, so the cubic-exponent branch rules.
    assert eps1(20, p) == g_sequences(20, p).g_I
    # n = 5 lies below it.
    assert eps1(5, p) == g_sequences(5, p).g_II
    # m = 2 lies below n_star_star = 2.90.
    assert eps2(2, p) == g_sequences(2, p).g_IV
    assert eps2(10, p) == g_sequences(10, p).g_III


def test_eps_small_alpha_uses_cubic_branch():
    # n_star < 1 for small alpha, so every admissible n is past it.
    p = Params(0.3, 1.0)
    assert n_star(p) < 1.0
    for n in (1, 5, 30):
        assert eps1(n, p) == g_sequences(n, p).g_I


def test_standard_estimate_frozen():
    p = Params(0.5, 1.0)
    assert standard_estimate(50, p) == pytest.approx(STANDARD_EST_N50_A05, rel=1e-12)
    assert standard_estimate(50, p) == pytest.approx(p.prefactor * eps1(50, p), rel=1e-15)


def test_standard_estimate_decreasing():
    p = Params(0.4, 0.01)
    vals = [standard_estimate(n, p) for n in range(1, 100, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("lam", [0.5, 0.0, float("nan")])
def test_rejects_bad_lambda(lam):
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        poles(lam, p)
    with pytest.raises(ValueError):
        q_estimates(lam, 10, p)


def test_estimates_refuse_an_infinite_lambda():
    # _spectral_scalar lets +inf through; the estimates need lam finite
    p = Params(0.5, 1.0)
    for estimate in (poles, gamma_pm, lambda lam, p: q_estimates(lam, 10, p)):
        with pytest.raises(ValueError, match="^lam must be finite, got inf$"):
            estimate(math.inf, p)


def test_q_estimates_check_lambda_once_and_derive_its_coordinate_once(monkeypatch):
    checks, coordinates = [], []
    spectral, coordinate = estimates._spectral_scalar, estimates._coordinate
    monkeypatch.setattr(estimates, "_spectral_scalar", lambda lam: checks.append(lam) or spectral(lam))
    monkeypatch.setattr(estimates, "_coordinate", lambda lam, p: coordinates.append(lam) or coordinate(lam, p))
    q_estimates(1e4, 30, Params(0.5, 0.01))
    assert checks == coordinates == [1e4]


def test_q_estimates_refuse_an_alpha_whose_pi_over_alpha_overflows():
    # Params takes a subnormal alpha, and scheme and apply handle it, but
    # exp(-i*pi/alpha) has no value there
    p = Params(5e-324, 1.0)
    with pytest.raises(ValueError, match=r"^alpha=5e-324 is too small for the error estimates"):
        q_estimates(1.0, 50, p)
    # the smallest alpha with pi/alpha in range still gets estimates
    tiny = math.nextafter(math.pi / sys.float_info.max, 1.0)
    q = q_estimates(1.0, 50, Params(tiny, 1.0))
    assert all(0.0 <= v < math.inf for v in (q.q_I, q.q_II, q.q_III, q.q_IV))
