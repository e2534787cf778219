"""Tests for shifted-system assembly and the operator-level resolvent."""

import math
import tracemalloc

import numpy as np
import pytest

from fraclag.estimates import q_estimates, standard_estimate
from fraclag.integrands import Params, exact_scalar_resolvent, node_system
from fraclag.laguerre import gauss_laguerre
from fraclag.operators import (
    _BLOCK,
    CallbackOperator,
    DenseOperator,
    DiagonalOperator,
    OperatorError,
    apply_resolvent,
    scalar_approx,
)
from fraclag.planner import MODES, balanced_estimate, make_plan, mode_counts, scheme


def test_node_system_first_integral_origin():
    # x = 0, w = 1, alpha = 0.5, h = 1: sigma = 1, tau = 1,
    # scale = 1 / (1 + 2 cos(pi/2) + 1) = 1/2.
    p = Params(0.5, 1.0)
    sys = node_system(0.0, 1.0, "first", p)
    assert sys.sigma == 1.0
    assert sys.tau == pytest.approx(1.0, rel=1e-15)
    assert sys.scale == pytest.approx(0.5, rel=1e-14)


def test_node_system_second_integral_origin():
    # x = 0, w = 1, alpha = 0.5, h = 1: sigma = 1, tau = 1,
    # scale = (1/3) / (2 + 2 cos(pi/2)) = 1/6.
    p = Params(0.5, 1.0)
    sys = node_system(0.0, 1.0, "second", p)
    assert sys.sigma == pytest.approx(1.0, rel=1e-15)
    assert sys.tau == pytest.approx(1.0, rel=1e-15)
    assert sys.scale == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_node_system_far_tail():
    # Large x drives tau (first kind) and sigma (second kind) to zero and
    # the scales to the bare weight.
    p = Params(0.5, 1.0)
    first = node_system(500.0, 0.25, "first", p)
    assert first.sigma == 1.0
    assert first.tau == 0.0
    assert first.scale == pytest.approx(0.25, rel=1e-12)
    second = node_system(2000.0, 0.25, "second", p)
    assert second.sigma == 0.0
    assert second.tau == pytest.approx(p.h_root, rel=1e-15)
    assert second.scale == pytest.approx(0.25 / 3.0, rel=1e-12)


def test_node_system_rejects_unknown_kind():
    with pytest.raises(ValueError):
        node_system(1.0, 1.0, "third", Params(0.5, 1.0))


def test_mode_counts():
    p = Params(0.75, 1.0)
    plan = make_plan(25, p)
    (n1, n2), (c1, c2) = mode_counts(25, p, "standard")
    assert (n1, n2, c1, c2) == (25, 25, 25, 25)
    (n1, n2), (c1, c2) = mode_counts(25, p, "balanced")
    assert (n1, n2, c1, c2) == (25, plan.m, 25, plan.m)
    (n1, n2), (c1, c2) = mode_counts(25, p, "truncated")
    assert (n1, n2) == (25, plan.m)
    assert (c1, c2) == (plan.k_n, plan.k_m)
    advertised = {
        "standard": standard_estimate(25, p),
        "balanced": balanced_estimate(25, p),
        "truncated": plan.predicted_error,
    }
    for mode in MODES:
        s = scheme(25, p, mode)
        assert (s.sizes, s.kept) == mode_counts(25, p, mode)
        assert s.solves == sum(s.kept)
        assert s.predicted_error == advertised[mode]


@pytest.mark.parametrize("mode", MODES)
def test_scheme_systems_are_the_kept_nodes(mode):
    p = Params(0.6, 0.01)
    s = scheme(30, p, mode)
    assert len(s.systems) == s.solves
    want = []
    for size, count, which in zip(s.sizes, s.kept, ("first", "second")):
        rule = gauss_laguerre(size)
        want += [node_system(rule.nodes[j], rule.weights[j], which, p) for j in range(count)]
    assert list(s.systems) == want
    assert s[:2] == mode_counts(30, p, mode)


def test_mode_counts_rejects_unknown_mode():
    with pytest.raises(ValueError):
        mode_counts(10, Params(0.5, 1.0), "fancy")


def test_diagonal_operator_validation():
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([]))
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([2.0, float("nan")]))


def test_diagonal_operator_accepts_infinite_modes():
    op = DiagonalOperator(np.array([1.0, float("inf")]))
    assert op.dimension == 2


def test_identity_operator_matches_scalar_value():
    """Applying to the identity reproduces 1/(1+h) in every entry."""
    for alpha in (0.3, 0.5, 0.75):
        p = Params(alpha, 0.7)
        op = DiagonalOperator(np.ones(4))
        got = apply_resolvent(op, np.ones(4), p, 30)
        want = 1.0 / 1.7
        assert np.all(np.abs(got - want) <= standard_estimate(30, p) + 1e-14)


def test_diagonal_moderate_rule_accuracy():
    rng = np.random.default_rng(5)
    d = 10.0 ** rng.uniform(0, 12, size=50)
    p = Params(0.5, 0.01)
    got = apply_resolvent(DiagonalOperator(d), np.ones(50), p, 50)
    want = 1.0 / (1.0 + p.h * np.sqrt(d))
    assert np.max(np.abs(got - want)) <= 1e-5


def test_infinite_mode_maps_to_zero():
    p = Params(0.3, 0.01)
    op = DiagonalOperator(np.array([1.0, float("inf"), 4.0]))
    got = apply_resolvent(op, np.array([1.0, 1.0, 1.0]), p, 20)
    assert got[1] == 0.0
    assert got[0] > 0 and got[2] > 0


@pytest.mark.parametrize("mode", MODES)
def test_scalar_and_diagonal_agree_bitwise(mode):
    # A 1x1 diagonal apply and the scalar helper must produce the exact
    # same double, whatever the mode.
    p = Params(0.6, 0.1)
    lam = 37.5
    vec = apply_resolvent(DiagonalOperator(np.array([lam])), np.ones(1), p, 24, mode)
    assert scalar_approx(lam, p, 24, mode) == vec[0]
    # a NumPy integer rule size is accepted by every mode
    again = apply_resolvent(DiagonalOperator(np.array([lam])), np.ones(1), p, np.int64(24), mode)
    assert again[0] == vec[0]


@pytest.mark.parametrize("mode", MODES)
def test_modes_agree_within_estimates(mode):
    p = Params(0.75, 0.01)
    lam = 1e3
    got = scalar_approx(lam, p, 40, mode)
    want = exact_scalar_resolvent(lam, p)
    assert got == pytest.approx(want, abs=50 * standard_estimate(40, p))


def test_approximation_positive_across_spectrum():
    p = Params(0.5, 0.01)
    for lam in 10.0 ** np.linspace(0, 16, 33):
        assert scalar_approx(float(lam), p, 30) > 0.0


def test_far_field_error_tracks_estimate():
    p = Params(0.3, 0.01)
    lam = 1e10
    err = abs(scalar_approx(lam, p, 30) - exact_scalar_resolvent(lam, p))
    q = q_estimates(lam, 30, p)
    bound = p.prefactor * (q.selected_first + q.selected_second)
    assert err <= 10.0 * bound
    assert err >= bound / 100.0


def test_dense_operator_matches_eigendecomposition():
    """Dense solves agree with the closed form through an orthogonal frame."""
    rng = np.random.default_rng(42)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    eigs = np.array([1.0, 2.5, 10.0, 1e3, 1e6, 1e9])
    mat = (basis * eigs) @ basis.T
    mat = 0.5 * (mat + mat.T)
    p = Params(0.5, 0.01)
    b = rng.standard_normal(6)
    got = apply_resolvent(DenseOperator(mat), b, p, 50)
    coeff = basis.T @ b
    want = basis @ (coeff / (1.0 + p.h * eigs**p.alpha))
    assert np.max(np.abs(got - want)) <= 2e-5


def test_dense_operator_rejects_bad_matrices():
    with pytest.raises(ValueError):
        DenseOperator(np.ones((2, 3)))
    asym = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(OperatorError):
        DenseOperator(asym)
    with pytest.raises(ValueError):
        DenseOperator(np.array([[float("inf"), 0.0], [0.0, 2.0]]))


def _rotated(eigs, seed):
    """Q diag(eigs) Q^T for a random orthogonal Q, symmetrized exactly."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    mat = (basis * eigs) @ basis.T
    return basis, 0.5 * (mat + mat.T)


@pytest.mark.parametrize(
    "mat", [-5.0 * np.eye(2), _rotated(np.array([0.5, 2.0]), 7)[1]], ids=["negative", "rotated"]
)
def test_dense_operator_refuses_spectrum_below_one(mat):
    with pytest.raises(OperatorError) as excinfo:
        DenseOperator(mat)
    assert repr(float(np.linalg.eigh(mat)[0][0])) in str(excinfo.value)


def test_dense_operator_accepts_rounding_below_one():
    # eigh is backward stable: a spectrum starting exactly at 1 may read
    # slightly below it and must still be accepted
    _, mat = _rotated(np.logspace(0, 4, 8), 1)
    assert np.linalg.eigh(mat)[0][0] < 1.0
    got = apply_resolvent(DenseOperator(mat), np.ones(8), Params(0.5, 0.01), 20)
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("mode", MODES)
def test_dense_operator_is_diagonal_in_eigenbasis(mode):
    # rounding in the matrix itself moves its eigenpairs by about eps*|A|,
    # so the spectrum spans [1, 1e4] as in the benchmark (at 1e9 the
    # former Cholesky path also differed by 1.6e-10 from this reference)
    d = np.array([1.0, 2.5, 10.0, 1e2, 1e3, 1e4])
    basis, mat = _rotated(d, 42)
    b = np.random.default_rng(0).standard_normal(d.size)
    p = Params(0.6, 0.01)
    got = apply_resolvent(DenseOperator(mat), b, p, 40, mode)
    want = basis @ apply_resolvent(DiagonalOperator(d), basis.T @ b, p, 40, mode)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", MODES)
def test_dense_apply_sum_matches_default(mode):
    _, mat = _rotated(np.logspace(0, 6, 30), 5)
    dense = DenseOperator(mat)
    b = np.random.default_rng(1).standard_normal(30)
    systems = scheme(30, Params(0.4, 0.1), mode).systems
    got = dense.apply_sum(systems, b)
    want = CallbackOperator(30, dense.solve_shifted).apply_sum(systems, b)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_dense_apply_is_deterministic(monkeypatch):
    _, mat = _rotated(np.logspace(0, 4, 50), 2)
    op = DenseOperator(mat)
    b = np.random.default_rng(2).standard_normal(50)
    p = Params(0.5, 0.01)
    monkeypatch.delenv("FRACLAG_THREADS", raising=False)
    first = apply_resolvent(op, b, p, 40).tobytes()
    again = apply_resolvent(op, b, p, 40).tobytes()
    monkeypatch.setenv("FRACLAG_THREADS", "2")
    pooled = apply_resolvent(op, b, p, 40).tobytes()
    assert first == again == pooled


def test_callback_operator_parity():
    d = np.array([1.0, 3.0, 9.0])

    def solve(sigma, tau, rhs):
        return rhs / (sigma + tau * d)

    cb = CallbackOperator(3, solve)
    p = Params(0.4, 0.1)
    got = apply_resolvent(cb, np.ones(3), p, 15)
    ref = apply_resolvent(DiagonalOperator(d), np.ones(3), p, 15)
    assert np.array_equal(got, ref)


def test_callback_operator_refuses_non_finite_solution():
    def solve(sigma, tau, rhs):
        y = rhs / (sigma + tau)
        y[1] = np.nan
        return y

    with pytest.raises(OperatorError, match="non-finite.*sigma=.*tau="):
        apply_resolvent(CallbackOperator(3, solve), np.ones(3), Params(0.5, 1.0), 5)


def test_callback_operator_rejects_bad_shape():
    cb = CallbackOperator(3, lambda s, t, b: np.zeros(2))
    with pytest.raises(OperatorError):
        apply_resolvent(cb, np.ones(3), Params(0.5, 1.0), 5)


def test_apply_resolvent_validates_inputs():
    op = DiagonalOperator(np.ones(3))
    p = Params(0.5, 1.0)
    with pytest.raises(ValueError):
        apply_resolvent(op, np.ones(4), p, 10)
    with pytest.raises(ValueError):
        apply_resolvent(op, np.ones((3, 1)), p, 10)
    with pytest.raises(ValueError):
        apply_resolvent(op, np.ones(3), p, 10, mode="other")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_resolvent(op, [1.0, bad, 1.0], p, 10)


def test_worker_pool_does_not_change_bits(monkeypatch):
    p = Params(0.6, 0.01)
    rng = np.random.default_rng(3)
    d = 10.0 ** rng.uniform(0, 10, size=20)
    b = rng.standard_normal(20)
    # the diagonal sums serially; the callback goes through the pool
    for op in (DiagonalOperator(d), CallbackOperator(20, DiagonalOperator(d).solve_shifted)):
        monkeypatch.delenv("FRACLAG_THREADS", raising=False)
        seq = apply_resolvent(op, b, p, 35, "truncated")
        monkeypatch.setenv("FRACLAG_THREADS", "4")
        par = apply_resolvent(op, b, p, 35, "truncated")
        assert np.array_equal(seq, par)


def test_serial_apply_holds_one_solution_at_a_time(monkeypatch):
    # 100 solves at n=50; a reduction that kept every solution would peak
    # near 100 vectors.
    monkeypatch.delenv("FRACLAG_THREADS", raising=False)
    size = 10**5
    op = DiagonalOperator(np.linspace(1.0, 1e6, size))
    b = np.ones(size)
    p = Params(0.5, 0.01)
    apply_resolvent(op, b, p, 50)  # builds and caches the rule outside the trace
    tracemalloc.start()
    try:
        apply_resolvent(op, b, p, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * b.nbytes


def _peak_bytes(call):
    call()  # builds and caches the rules outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_default_apply_sum_keeps_few_solutions_in_flight(monkeypatch, threads):
    # 100 solves at n=50 through solve_shifted; a pool that submitted them
    # all up front would hold finished solutions until the reduction got
    # to them.
    monkeypatch.setenv("FRACLAG_THREADS", threads)
    size = 10**5
    op = CallbackOperator(size, DiagonalOperator(np.linspace(1.0, 1e6, size)).solve_shifted)
    b = np.ones(size)
    peak = _peak_bytes(lambda: apply_resolvent(op, b, Params(0.5, 0.01), 50))
    assert peak < 6 * b.nbytes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_diagonal_apply_allocates_no_vector_per_solve(monkeypatch, threads):
    # the fused sum allocates the accumulator and one block of scratch; the
    # prefactor product may take one more vector
    monkeypatch.setenv("FRACLAG_THREADS", threads)
    size = 10**5
    op = DiagonalOperator(np.linspace(1.0, 1e6, size))
    b = np.ones(size)
    peak = _peak_bytes(lambda: apply_resolvent(op, b, Params(0.5, 0.01), 50))
    assert peak < 3 * b.nbytes


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("mode", MODES + ("far-tail",))
def test_diagonal_apply_sum_matches_default_bitwise(size, mode):
    rng = np.random.default_rng(size)
    d = 10.0 ** rng.uniform(0, 16, size)
    d[[0, size // 3, -1]] = np.inf  # +inf entries in the first, a middle and the last block
    b = rng.standard_normal(size)
    b[size // 2] = -0.0
    p = Params(0.4, 0.01)
    tail = node_system(500.0, 0.25, "first", p)
    assert tail.tau == 0.0  # 0 * inf: the +inf entries need pinning
    if mode == "far-tail":
        systems = [tail, node_system(600.0, 0.5, "first", p)]
        assert all(s.tau == 0.0 for s in systems)
    else:
        systems = list(scheme(30, p, mode).systems) + [tail]
    diag = DiagonalOperator(d)
    got = diag.apply_sum(systems, b)
    want = CallbackOperator(size, diag.solve_shifted).apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[0] == 0.0 and got[-1] == 0.0


def test_diagonal_apply_sum_rejects_wrong_length():
    with pytest.raises(ValueError):
        DiagonalOperator(np.ones(3)).apply_sum(scheme(5, Params(0.5, 1.0), "standard").systems, np.ones(4))


def test_worker_pool_ignores_invalid_setting(monkeypatch):
    monkeypatch.setenv("FRACLAG_THREADS", "not-a-number")
    p = Params(0.5, 1.0)
    got = scalar_approx(2.0, p, 8)
    assert math.isfinite(got)


@pytest.mark.parametrize("mode", ["balanced", "truncated"])
def test_reduced_modes_cost_less_but_stay_accurate(mode):
    p = Params(0.5, 0.01)
    lam = 1e4
    n = 40
    (n1, n2), (c1, c2) = mode_counts(n, p, mode)
    assert c1 + c2 < 2 * n
    err = abs(scalar_approx(lam, p, n, mode) - exact_scalar_resolvent(lam, p))
    assert err <= 10.0 * make_plan(n, p).predicted_error


def test_truncated_mode_drops_tail_systems_only():
    # Truncation must equal the balanced sums with tail terms removed:
    # recompute by slicing rules directly.
    from fraclag.integrands import f1, f2

    p = Params(0.75, 0.01)
    lam = 100.0
    n = 30
    plan = make_plan(n, p)
    r1, r2 = gauss_laguerre(n), gauss_laguerre(plan.m)
    i1 = r1.weights[: plan.k_n] @ f1(r1.nodes[: plan.k_n], lam, p)
    i2 = r2.weights[: plan.k_m] @ f2(r2.nodes[: plan.k_m], lam, p)
    want = p.prefactor * (i1 + i2)
    got = scalar_approx(lam, p, n, "truncated")
    assert got == pytest.approx(want, rel=1e-13)
