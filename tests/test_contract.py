"""Property tests of the sizing contract over the whole accepted domain, and
of the diagonal kernel against the per-solve default sum."""

import math
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fraclag import operators  # noqa: E402
from fraclag.estimates import standard_estimate  # noqa: E402
from fraclag.integrands import Params, ShiftedSystem  # noqa: E402
from fraclag.operators import _BLOCK, DiagonalOperator, OperatorHandle, apply_resolvent  # noqa: E402
from fraclag.planner import MODES, scheme  # noqa: E402

# each mode's advertised error as a multiple of the standard figure
_FIGURE_FACTOR = {"standard": 1.0, "balanced": 2.0, "truncated": 4.0}

_SPECTRUM = DiagonalOperator([1.0, 10.0, 1e8, 1e300, math.inf])


@st.composite
def accepted_params(draw):
    """Any alpha in (0, 1) with an h whose h**(1/alpha) is a normal double:
    Params accepts |log h| / alpha up to log(DBL_MAX) ~ 709.78."""
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    log_h = draw(st.floats(-709.0 * alpha, 709.0 * alpha))
    return Params(alpha, math.exp(log_h))


@settings(max_examples=200, deadline=None)
@given(p=accepted_params(), n=st.integers(1, 200), mode=st.sampled_from(MODES))
def test_scheme_contract(p, n, mode):
    s = scheme(n, p, mode)
    assert len(s.systems) == s.solves == sum(s.kept)
    assert s.sizes[0] == n and s.sizes[1] <= n
    assert all(1 <= k <= size for k, size in zip(s.kept, s.sizes))
    for system in s.systems:
        for value in (system.sigma, system.tau, system.scale):
            assert math.isfinite(value) and value >= 0.0
    assert s.predicted_error == _FIGURE_FACTOR[mode] * standard_estimate(n, p)

    y = apply_resolvent(_SPECTRUM, np.ones(_SPECTRUM.dimension), p, n, mode)
    assert np.isfinite(y).all()
    assert y[-1] == 0.0


@st.composite
def spectra(draw):
    """Diagonal entries in [1, 10**top] over 1 to 3 blocks of the kernel,
    sorted or not, with up to three +inf entries."""
    blocks = draw(st.integers(1, 3))
    size = draw(st.integers((blocks - 1) * _BLOCK + 1, blocks * _BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 300.0)), size)
    if draw(st.booleans()):
        d.sort()
    d[rng.integers(0, size, draw(st.integers(0, 3)))] = math.inf
    return d


_SPECIAL_B = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]


@st.composite
def hand_made_systems(draw):
    """Nonnegative systems with scales down to 1e-60, about half of them with
    sigma == 1 and tau down to 0, so that 1 + tau*d rounds to 1 over whole
    blocks, then one more with a negative scale, or with tau == 0 (0*inf at
    +inf entries)."""
    def system(sigma, tau):
        return ShiftedSystem(sigma, tau, 10.0 ** draw(st.floats(-60.0, 1.0)))

    def shift():
        if draw(st.booleans()):
            return 1.0, 10.0 ** draw(st.floats(-330.0, 3.0))  # 0.0 below -324
        return 10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 1e3))

    systems = [system(*shift()) for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        extra = ShiftedSystem(*shift(), -draw(st.floats(0.0, 10.0)))
    else:
        extra = system(shift()[0], 0.0)
    systems.insert(draw(st.integers(0, len(systems))), extra)
    return systems


@settings(max_examples=100, deadline=None)
@given(
    d=spectra(),
    cores=st.sampled_from([None, 1, 2, 3, 7]),
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.floats(0.0, 1.0),
    b_scale=st.floats(-300.0, 300.0),
    specials=st.lists(st.sampled_from(_SPECIAL_B), max_size=8),
    systems=st.one_of(
        st.builds(lambda p, n, mode: scheme(n, p, mode).systems,
                  accepted_params(), st.integers(1, 50), st.sampled_from(MODES)),
        hand_made_systems(),
    ),
)
def test_diagonal_apply_sum_is_the_default_sum(d, cores, seed, zero_frac, b_scale, specials, systems):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(d.size) * 10.0**b_scale
    b[rng.random(d.size) < zero_frac] = 0.0
    b[rng.integers(0, d.size, len(specials))] = specials
    diag = DiagonalOperator(d)
    want = OperatorHandle.apply_sum(diag, systems, b)
    # @given cannot take monkeypatch; None keeps the real core count
    with nullcontext() if cores is None else patch.object(operators, "_usable_cores", lambda: cores):
        got = diag.apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
