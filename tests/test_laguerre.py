"""Tests for the Gauss-Laguerre rule construction."""

import math

import numpy as np
import pytest
from numpy.polynomial import laguerre as npleg

from fraclag.laguerre import (
    MAX_RULE_SIZE,
    gauss_laguerre,
    truncation_index,
)

# Two-node rule in closed form: nodes 2 -+ sqrt(2), weights (2 +- sqrt(2))/4.
GL2_NODE_LO = 0.5857864376269049512
GL2_NODE_HI = 3.4142135623730950488
GL2_W_LO = 0.8535533905932737622
GL2_W_HI = 0.1464466094067262378


def test_single_node_rule():
    rule = gauss_laguerre(1)
    assert rule.nodes.shape == (1,)
    assert rule.nodes[0] == 1.0
    assert rule.weights[0] == 1.0


def test_two_node_rule_closed_form():
    rule = gauss_laguerre(2)
    np.testing.assert_allclose(rule.nodes, [GL2_NODE_LO, GL2_NODE_HI], rtol=1e-15)
    np.testing.assert_allclose(rule.weights, [GL2_W_LO, GL2_W_HI], rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 40])
def test_moments_exact_to_degree(n):
    """An n-node rule integrates x^k exp(-x) exactly for k <= 2n-1.

    The exact moment is k!, so the relative error of w @ x**k against
    factorial(k) measures the rule quality directly.
    """
    rule = gauss_laguerre(n)
    for k in range(2 * n):
        exact = math.factorial(k)
        approx = rule.weights @ rule.nodes**k
        assert abs(approx - exact) <= 1e-8 * exact


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50, 100, 200])
def test_basic_rule_structure(n):
    rule = gauss_laguerre(n)
    assert rule.nodes.shape == rule.weights.shape == (n,)
    assert np.all(rule.nodes > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights >= 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 10, 40])
def test_nodes_interlace(n):
    """Roots of consecutive Laguerre polynomials strictly interlace."""
    inner = gauss_laguerre(n).nodes
    outer = gauss_laguerre(n + 1).nodes
    assert np.all(outer[:-1] < inner)
    assert np.all(inner < outer[1:])


@pytest.mark.parametrize("n", [5, 10, 20, 50, 100, 200])
def test_node_spacing_grows(n):
    # Consecutive gaps widen toward the tail; the growth factor stays
    # below 2 for every rule size used here.
    gaps = np.diff(gauss_laguerre(n).nodes)
    ratios = gaps[1:] / gaps[:-1]
    assert np.all(ratios > 1.0)
    assert np.all(ratios < 2.0)


@pytest.mark.parametrize("n", [2, 5, 10, 20, 50, 100])
def test_weights_bounded_by_scaled_spacing(n):
    # w_j <= C (x_j - x_{j-1}) exp(-x_j); measured C tops out near 1.57.
    rule = gauss_laguerre(n)
    gaps = np.diff(rule.nodes)
    bound = 1.6 * gaps * np.exp(-rule.nodes[1:])
    assert np.all(rule.weights[1:] <= bound)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_nodes_are_laguerre_roots(n):
    """Cross-check against the numpy Laguerre series root finder."""
    rule = gauss_laguerre(n)
    coeffs = np.zeros(n + 1)
    coeffs[-1] = 1.0
    roots = np.sort(npleg.lagroots(coeffs))
    np.testing.assert_allclose(rule.nodes, roots, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [3, 10, 30])
def test_weights_match_barycentric_formula(n):
    # Independent weight formula w_j = x_j / ((n+1) L_{n+1}(x_j))^2.
    rule = gauss_laguerre(n)
    coeffs = np.zeros(n + 2)
    coeffs[-1] = 1.0
    lnext = npleg.lagval(rule.nodes, coeffs)
    alt = rule.nodes / ((n + 1) * lnext) ** 2
    np.testing.assert_allclose(rule.weights, alt, rtol=5e-13)


def test_rule_arrays_are_read_only():
    rule = gauss_laguerre(6)
    with pytest.raises((ValueError, RuntimeError)):
        rule.nodes[0] = 0.0
    with pytest.raises((ValueError, RuntimeError)):
        rule.weights[0] = 0.0


def test_rule_is_deterministic():
    first = gauss_laguerre(37)
    again = gauss_laguerre(37)
    assert np.array_equal(first.nodes, again.nodes)
    assert np.array_equal(first.weights, again.weights)


@pytest.mark.parametrize("bad", [0, -1, MAX_RULE_SIZE + 1])
def test_rule_size_out_of_range(bad):
    with pytest.raises(ValueError):
        gauss_laguerre(bad)


@pytest.mark.parametrize("bad", [True, 2.0, "5", None])
def test_rule_size_wrong_type(bad):
    with pytest.raises((TypeError, ValueError)):
        gauss_laguerre(bad)


def test_truncation_index_examples():
    rule = gauss_laguerre(10)
    assert truncation_index(rule, 0.0) == 1
    assert truncation_index(rule, 1.0) == 3
    assert truncation_index(rule, 5.0) == 5
    assert type(truncation_index(rule, 0.0)) is int


def test_truncation_keeps_all_when_threshold_past_last_node():
    rule = gauss_laguerre(10)
    assert rule.nodes[-1] < 100.0
    assert truncation_index(rule, 100.0) == 10


def test_truncation_index_is_minimal():
    rule = gauss_laguerre(25)
    s = 7.3
    cut = truncation_index(rule, s)
    assert rule.nodes[cut - 1] >= s
    assert np.all(rule.nodes[: cut - 1] < s)


def test_truncation_rejects_bad_threshold():
    rule = gauss_laguerre(4)
    with pytest.raises(ValueError):
        truncation_index(rule, -1.0)
    with pytest.raises(ValueError):
        truncation_index(rule, float("nan"))
