"""Tests for rule balancing, truncation thresholds and plan assembly."""

import math

import numpy as np
import pytest

from fraclag import planner
from fraclag.estimates import eps1, eps2, g_sequences, n_star, q_estimates, standard_estimate
from fraclag.integrands import Params
from fraclag.laguerre import MAX_RULE_SIZE, gauss_laguerre
from fraclag.planner import (
    MODES,
    Plan,
    analytic_j,
    asymptotic_estimates,
    balance_m,
    balanced_estimate,
    make_plan,
    mode_counts,
    plan_for_tolerance,
    scheme,
    thresholds,
    truncated_estimate,
)

# High-precision references (mpmath, 50 digits, rounded to double).
S1_N5_A075 = 3.6941137249848100968
S2_M2_A075_H001 = 9.1625608459623724882
BALANCED_EST_N50_A05 = 2.4863571675434052225e-6
ASY_BAL_A05_Q60 = 4.3746858742793598814e-6
ASY_TRUNC_A05_Q60 = 4.1046787744161065645e-9

# Companion rule sizes for alpha = 0.6 and alpha = 0.75 at reference n.
SIZES_A06 = {5: 2, 10: 4, 15: 6, 20: 8, 25: 10, 50: 19, 100: 38}
SIZES_A075 = {5: 2, 10: 4, 15: 7, 20: 9, 25: 11, 50: 16, 100: 46}


@pytest.mark.parametrize("n,m", sorted(SIZES_A06.items()))
def test_companion_sizes_alpha_06(n, m):
    assert balance_m(n, Params(0.6, 1.0)) == m


@pytest.mark.parametrize("n,m", sorted(SIZES_A075.items()))
def test_companion_sizes_alpha_075(n, m):
    assert balance_m(n, Params(0.75, 1.0)) == m


def test_companion_size_is_h_independent():
    for h in (1e-4, 1e-2, 1.0, 10.0):
        assert balance_m(50, Params(0.6, h)) == 19
        assert balance_m(100, Params(0.75, h)) == 46


def test_companion_size_rounds_up():
    # Raw proportional value at alpha = 0.6, n = 50 is 18.4375.
    raw = 0.6 * 101.0 / (2.0 * 1.6) - 0.5
    assert raw == pytest.approx(18.4375, abs=1e-12)
    assert balance_m(50, Params(0.6, 1.0)) == 19


def test_companion_size_clamped_to_valid_range():
    for alpha in (0.1, 0.5, 0.9):
        p = Params(alpha, 1.0)
        assert balance_m(1, p) == 1
        for n in (2, 3, 10, 100):
            m = balance_m(n, p)
            assert 1 <= m <= n


def test_companion_ratio_approaches_proportional_limit():
    # m/n settles near alpha/(alpha+1) once n is large.
    for ad in range(1, 10):
        alpha = ad / 10.0
        m = balance_m(100, Params(alpha, 1e-2))
        assert m / 100.0 == pytest.approx(alpha / (alpha + 1.0), rel=0.10)


def test_balanced_sequences_stay_comparable():
    # After balancing, the two per-integral estimates stay within a small
    # constant of each other wherever the first estimate is in its
    # asymptotic branch.
    for ad in range(1, 10):
        alpha = ad / 10.0
        p = Params(alpha, 1e-2)
        start = max(2, math.ceil(n_star(p))) + 1
        for n in range(start, 101, 3):
            m = balance_m(n, p)
            ratio = eps2(m, p) / eps1(n, p)
            assert 0.2 <= ratio <= 5.0


def test_thresholds_frozen():
    p = Params(0.75, 1.0)
    s1, _ = thresholds(5, balance_m(5, p), p)
    assert s1 == pytest.approx(S1_N5_A075, rel=1e-12)
    p = Params(0.75, 0.01)
    _, s2 = thresholds(5, 2, p)
    assert s2 == pytest.approx(S2_M2_A075_H001, rel=1e-12)


def test_thresholds_clamp_at_zero():
    # eps1 exceeds the envelope for tiny rules at large alpha; the
    # threshold must not go negative.
    p = Params(0.9, 1.0)
    s1, s2 = thresholds(1, 1, p)
    assert s1 == 0.0
    assert s2 >= 0.0


def test_kept_term_predictions_match_reference_sizes():
    # Reference kept-term counts at alpha = 0.75, h = 1, within one index.
    expected = {
        5: (2, 2),
        10: (4, 4),
        15: (6, 6),
        20: (8, 6),
        25: (10, 8),
        50: (18, 10),
        100: (30, 22),
    }
    p = Params(0.75, 1.0)
    for n, (jn_ref, jm_ref) in sorted(expected.items()):
        jn, jm = analytic_j(n, balance_m(n, p), p)
        assert abs(jn - jn_ref) <= 1
        assert abs(jm - jm_ref) <= 1


def test_kept_term_count_floor():
    # Raw first-integral count at alpha = 0.75, n = 5 is 3.37 -> 3.
    p = Params(0.75, 1.0)
    jn, _ = analytic_j(5, balance_m(5, p), p)
    assert jn == 3


def test_kept_term_counts_degenerate():
    p = Params(0.5, 1.0)
    jn, jm = analytic_j(1, 1, p)
    assert jn == 1
    assert jm == 1


def test_kept_term_fallback_for_large_h():
    # h >= 1 can push the second-integral bracket negative; the analytic
    # count then falls back to the numeric truncation index.
    p = Params(0.5, 100.0)
    n, m = 20, balance_m(20, p)
    _, jm = analytic_j(n, m, p)
    _, s2 = thresholds(n, m, p)
    from fraclag.laguerre import truncation_index

    k_m = truncation_index(gauss_laguerre(m), s2)
    assert jm == k_m


def test_make_plan_reference_configuration():
    plan = make_plan(25, Params(0.75, 1.0))
    assert plan.n == 25
    assert plan.m == 11
    assert abs(plan.k_n - 10) <= 1
    assert abs(plan.k_m - 7) <= 1
    assert plan.inversions == plan.k_n + plan.k_m


def test_make_plan_structure():
    plan = make_plan(30, Params(0.5, 0.01))
    assert isinstance(plan, Plan)
    assert 1 <= plan.m <= plan.n
    assert 1 <= plan.k_n <= plan.n
    assert 1 <= plan.k_m <= plan.m
    assert 1 <= plan.j_n <= plan.n
    assert 1 <= plan.j_m <= plan.m
    assert plan.s1 >= 0 and plan.s2 >= 0
    assert plan.predicted_error > 0
    assert plan.inversions == plan.k_n + plan.k_m


def test_make_plan_degenerate():
    plan = make_plan(1, Params(0.5, 1.0))
    assert (plan.n, plan.m, plan.k_n, plan.k_m) == (1, 1, 1, 1)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_truncation_drops_only_controlled_tail(alpha):
    # Whenever nodes are dropped, the first dropped node already sits past
    # the threshold region: exp(-x_k) <= eps1.
    p = Params(alpha, 0.01)
    for n in (10, 25, 50, 75):
        plan = make_plan(n, p)
        if plan.k_n < plan.n:
            x = gauss_laguerre(plan.n).nodes
            assert math.exp(-x[plan.k_n - 1]) <= eps1(plan.n, p) * (1 + 1e-12)


def test_predicted_error_decreases():
    p = Params(0.6, 0.01)
    vals = [make_plan(n, p).predicted_error for n in range(5, 80, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_predicted_error_is_multiple_of_standard():
    p = Params(0.6, 0.01)
    plan = make_plan(40, p)
    assert plan.predicted_error == pytest.approx(4.0 * standard_estimate(40, p), rel=1e-15)


def test_balanced_estimate_doubles_standard():
    p = Params(0.5, 1.0)
    assert balanced_estimate(50, p) == pytest.approx(BALANCED_EST_N50_A05, rel=1e-12)
    for n in (3, 17, 64):
        assert balanced_estimate(n, p) == 2.0 * standard_estimate(n, p)


def test_truncated_estimate_tracks_plan_prediction():
    # Written in terms of kept terms, the truncated bound stays within a
    # modest factor of the full-rule prediction.
    for alpha in (0.3, 0.5, 0.75):
        p = Params(alpha, 0.01)
        for n in (20, 40, 60):
            plan = make_plan(n, p)
            ratio = truncated_estimate(plan, p) / plan.predicted_error
            assert 0.1 <= ratio <= 10.0


def test_asymptotic_estimates_frozen():
    bal, trunc = asymptotic_estimates(60, Params(0.5, 1.0))
    assert bal == pytest.approx(ASY_BAL_A05_Q60, rel=1e-12)
    assert trunc == pytest.approx(ASY_TRUNC_A05_Q60, rel=1e-12)


def test_asymptotic_estimates_decreasing():
    p = Params(0.4, 1.0)
    pairs = [asymptotic_estimates(q, p) for q in range(10, 200, 15)]
    assert all(a[0] > b[0] for a, b in zip(pairs, pairs[1:]))
    assert all(a[1] > b[1] for a, b in zip(pairs, pairs[1:]))
    # Truncation buys a strictly better constant in the exponent.
    assert all(t < b for b, t in pairs)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_balanced_speedup_constant(alpha):
    """Cost to reach equal accuracy shrinks by 2(alpha+1)/(2alpha+1).

    The balanced exponent is c_bal * q^(1/3) versus c_std * (2q')^(1/3)
    for the plain scheme, so the admissible cost ratio is the cube of
    c_bal / c_std; it must land strictly inside (4/3, 2).
    """
    p = Params(alpha, 1.0)
    q1, q2 = 64, 216
    b1, _ = asymptotic_estimates(q1, p)
    b2, _ = asymptotic_estimates(q2, p)
    pref = 8.0 * p.sin_pi_alpha
    c_bal = -math.log(b1 / pref) / q1 ** (1.0 / 3.0)
    check = -math.log(b2 / pref) / q2 ** (1.0 / 3.0)
    assert c_bal == pytest.approx(check, rel=1e-12)
    c_std = 1.8898815748423097 * 2.0 ** (1.0 / 3.0) * (alpha * math.pi) ** (2.0 / 3.0)
    speedup = (c_bal / c_std) ** 3
    assert speedup == pytest.approx(2.0 * (alpha + 1.0) / (2.0 * alpha + 1.0), rel=1e-10)
    assert 4.0 / 3.0 < speedup < 2.0


def test_plan_for_tolerance_loose():
    plan = plan_for_tolerance(1.0, Params(0.5, 1.0))
    assert plan.n == 1


def test_plan_for_tolerance_meets_target():
    p = Params(0.4, 0.01)
    for tol in (1e-3, 1e-6, 1e-9):
        plan = plan_for_tolerance(tol, p)
        assert plan.predicted_error <= tol
        if plan.n > 1:
            assert make_plan(plan.n - 1, p).predicted_error > tol


def test_plan_for_tolerance_unreachable():
    with pytest.raises(ValueError):
        plan_for_tolerance(1e-300, Params(0.5, 1.0))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_plan_for_tolerance_refuses_a_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        plan_for_tolerance(tol, Params(0.5, 1.0))


@pytest.mark.parametrize("q", [0, -1])
def test_asymptotic_estimates_refuse_fewer_than_one_solve(q):
    with pytest.raises(ValueError, match="q must be >= 1"):
        asymptotic_estimates(q, Params(0.5, 1.0))


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "7", MAX_RULE_SIZE + 1])
def test_planner_rejects_bad_rule_size(bad):
    p = Params(0.5, 1.0)
    with pytest.raises((TypeError, ValueError)):
        balance_m(bad, p)
    with pytest.raises((TypeError, ValueError)):
        make_plan(bad, p)
    # the estimates share the planner's rule-size validation
    for estimate in (g_sequences, eps1, eps2, standard_estimate, balanced_estimate,
                     lambda n, p: q_estimates(10.0, n, p)):
        with pytest.raises(ValueError, match="rule size must be"):
            estimate(bad, p)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


@pytest.mark.parametrize("h", [0.01, 10.0], ids=["h<1", "h>=1"])
def test_truncated_scheme_does_not_compute_analytic_j(h, monkeypatch):
    # at h >= 1, analytic_j recomputes the thresholds and the m-rule index
    p = Params(0.6, h)
    want = [scheme(n, p, "truncated") for n in (1, 5, 50)]
    monkeypatch.setattr(planner, "analytic_j", _refuse("analytic_j"))
    assert [scheme(n, p, "truncated") for n in (1, 5, 50)] == want


@pytest.mark.parametrize("mode", MODES)
def test_mode_counts_builds_no_systems(mode, monkeypatch):
    p = Params(0.75, 1.0)
    want = [scheme(n, p, mode)[:2] for n in (1, 25, 120)]
    monkeypatch.setattr(planner, "node_system", _refuse("node_system"))
    assert [mode_counts(n, p, mode) for n in (1, 25, 120)] == want
