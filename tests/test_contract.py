"""Property tests of the sizing contract over the whole accepted domain."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fraclag.estimates import standard_estimate  # noqa: E402
from fraclag.integrands import Params  # noqa: E402
from fraclag.operators import DiagonalOperator, apply_resolvent  # noqa: E402
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
