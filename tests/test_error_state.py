"""The package's own numpy arithmetic ignores every floating-point flag, so a
caller's strict ``np.errstate`` changes no result: only a user's solver runs
under it.  Each case is computed under the default state, then again under
``np.errstate(all="raise")`` on a cold rule cache, and must give the same
bits."""

import numpy as np
import pytest

from fraclag.cli import main
from fraclag.integrands import Params, f1
from fraclag.laguerre import _build_rule, gauss_laguerre
from fraclag.operators import CallbackOperator, DenseOperator, DiagonalOperator, apply_resolvent, scalar_approx
from fraclag.oracle import error_sweep, exact_diagonal_apply

_P = Params(0.5, 0.01)
_D = 10.0 ** np.linspace(0.0, 16.0, 161)
_B = np.random.default_rng(3).standard_normal(_D.size)
_Q = np.linalg.qr(np.random.default_rng(4).standard_normal((40, 40)))[0]
_A = _Q @ np.diag(np.logspace(0.0, 8.0, 40)) @ _Q.T


def _rule(_):
    rule = gauss_laguerre(200)
    return rule.nodes.tobytes(), rule.weights.tobytes()


def _callback(_):
    op = CallbackOperator(_D.size, DiagonalOperator(_D).solve_shifted)
    return apply_resolvent(op, _B, Params(0.1, 1e-3), 50).tobytes()


def _cli_apply(tmp_path):
    diag, vec, out = tmp_path / "d.txt", tmp_path / "b.txt", tmp_path / "y.txt"
    np.savetxt(diag, _D)
    np.savetxt(vec, _B)
    code = main(["apply", "--alpha", "0.5", "--h", "0.01", "--n", "200",
                 "--diag-file", str(diag), "--vector-file", str(vec), "--out", str(out)])
    return code, out.read_bytes()


_CASES = {
    "gauss_laguerre": _rule,
    "apply_diagonal": lambda _: apply_resolvent(DiagonalOperator(_D), _B, _P, 200).tobytes(),
    "apply_dense": lambda _: apply_resolvent(DenseOperator((_A + _A.T) / 2), _B[:40], _P, 200).tobytes(),
    "callback_over_the_diagonal_solve": _callback,
    "scalar_approx": lambda _: scalar_approx(1.0, _P, 300),
    "exact_diagonal_apply": lambda _: exact_diagonal_apply([1.0], [5e-320], _P).tobytes(),
    "f1": lambda _: f1(800.0, 1.0, _P),
    "error_sweep": lambda _: error_sweep(_P, 200, [1.0, 1e4, 1e8]),
    "cli_apply": _cli_apply,
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_internal_flags_never_reach_a_strict_caller(case, tmp_path):
    want = _CASES[case](tmp_path)
    _build_rule.cache_clear()
    with np.errstate(all="raise"):
        got = _CASES[case](tmp_path)
    assert repr(got) == repr(want)
