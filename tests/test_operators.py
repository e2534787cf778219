"""Tests for shifted-system assembly and the operator-level resolvent."""

import math
import multiprocessing
import sys
import threading
import tracemalloc
import types
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from fraclag import operators
from fraclag.estimates import q_estimates, standard_estimate
from fraclag.integrands import Params, ShiftedSystem, node_system
from fraclag.laguerre import gauss_laguerre
from fraclag.operators import (
    _BLOCK,
    CallbackOperator,
    DenseOperator,
    DiagonalOperator,
    OperatorError,
    OperatorHandle,
    apply_resolvent,
    apply_scheme,
    scalar_approx,
)
from fraclag.oracle import error_sweep, exact_scalar_resolvent
from fraclag.planner import MODES, Scheme, balanced_estimate, make_plan, mode_counts, scheme


def _coefficient_sum(d, systems, b):
    """r(d)*b as plainly as it can be written: each system's coefficient
    added in node order, one product with ``b``, and every +inf entry
    pinned to +0.0.  A system that ``_rescales`` adds
    (scale/tau) / (sigma/tau + d), any other scale / (sigma + tau*d).  It
    does not depend on blocks, skips, constant nodes or threads, and
    ``DiagonalOperator.apply_sum`` gives its bits."""
    d = np.asarray(d, dtype=float)
    c = np.zeros(d.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in systems:
            if _rescales(s, d):
                c += (s.scale / s.tau) / (s.sigma / s.tau + d)
            else:
                c += s.scale / (s.sigma + s.tau * d)
        y = c * b
    y[np.isinf(d)] = 0.0
    return y


def _rescales(s, d):
    """Whether the diagonal kernel over the entries ``d`` adds the system
    ``s`` rescaled by its tau: where 0 < tau < inf and, at every finite
    entry, tau*d is a normal finite double and sigma + tau*d, sigma/tau,
    scale/tau and sigma/tau + d are finite."""
    finite = d[np.isfinite(d)]
    if finite.size == 0 or not 0.0 < s.tau < math.inf:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        shift, numerator = s.sigma / s.tau, s.scale / s.tau
        return bool(
            np.all(s.tau * finite >= np.finfo(float).tiny)
            and np.all(np.isfinite([shift, numerator]))
            and np.all(np.isfinite(s.sigma + s.tau * finite))
            and np.all(np.isfinite(shift + finite))
        )


def _assert_within_rounding(got, want, systems, b):
    """Wherever ``want`` is a normal finite double, |got - want| is at most
    (2J + 6) * 2**-53 * |want|, for J systems with fields >= 0: the rounding
    that separates a coefficient sum times ``b`` from a per-solve sum of J
    terms of one sign, to first order.  That takes the whole bound: the two
    sums' denominators round apart, a rescaled one by sigma/tau and a
    per-solve one by tau*d, so no room is left for a prefactor's product,
    and a caller that compares ``apply_resolvent`` results relies on its
    fixed inputs.  A term that underflows loses up to half a subnormal ulp,
    2**-1075, in each, so J * (max scale + |b|) * 2**-1074 is added to the
    bound."""
    b = np.asarray(b, dtype=float)
    normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
    solves = len(systems)
    underflow = (max(s.scale for s in systems) + np.abs(b)) * 2.0**-1074 * solves
    bound = (2 * solves + 6) * 2.0**-53 * np.abs(want) + underflow
    assert np.all((np.abs(got - want) <= bound)[normal])


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


# (sigma, tau, scale) of node_system(1.3, 0.2, which, Params(alpha, h)) at an
# interior node, where no factor collapses: mpmath at 50 digits from the
# doubles of the inputs, rounded to 20 digits
NODE_SYSTEM_X13_W02 = {
    (0.3, 1e-3, "first"): (1.0, 1.3123728736940948837e-12, 0.14340475278727646235),
    (0.3, 1e-3, "second"): (0.36787944117144230589, 9.9999999999999921726e-11, 0.019074235834188403327),
    (0.75, 10.0, "first"): (1.0, 3.8067664347396896597, 0.29033668618711695548),
    (0.75, 10.0, "second"): (0.47575267845565059465, 21.544346900318837218, 0.16546308156313559428),
}


@pytest.mark.parametrize("alpha, h, which", list(NODE_SYSTEM_X13_W02))
def test_node_system_frozen_reference(alpha, h, which):
    got = node_system(1.3, 0.2, which, Params(alpha, h))
    want = NODE_SYSTEM_X13_W02[alpha, h, which]
    assert (got.sigma, got.tau, got.scale) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("which", ["first", "second"])
@pytest.mark.parametrize("x", [-1000.0, -1.0, -math.inf, math.inf, math.nan])
def test_node_system_refuses_a_node_off_the_half_line(x, which):
    # f1 and f2 refuse these x in the same words; a raw exp would overflow
    with pytest.raises(ValueError, match="x must be finite and nonnegative"):
        node_system(x, 1.0, which, Params(0.5, 1.0))


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
        assert s.solves == sum(mode_counts(25, p, mode)[1])
        assert s.predicted_error == advertised[mode]


@pytest.mark.parametrize("mode", MODES)
def test_scheme_systems_are_the_kept_nodes(mode):
    p = Params(0.6, 0.01)
    s = scheme(30, p, mode)
    sizes, kept = mode_counts(30, p, mode)
    assert len(s.systems) == s.solves == sum(kept)
    want = []
    for size, count, which in zip(sizes, kept, ("first", "second")):
        rule = gauss_laguerre(size)
        want += [node_system(rule.nodes[j], rule.weights[j], which, p) for j in range(count)]
    assert list(s.systems) == want


def test_a_scheme_is_any_set_of_systems():
    # systems no Gauss-Laguerre rule gives, with sigma = 0 and the identity
    # solve among them, apply as the weighted sum they define
    rng = np.random.default_rng(21)
    systems = tuple(
        ShiftedSystem(sigma, tau, scale)
        for sigma, tau, scale in zip(rng.uniform(0.5, 2.0, 7), 10.0 ** rng.uniform(-3, 1, 7), rng.uniform(0.1, 1.0, 7))
    ) + (ShiftedSystem(0.0, 0.7, 0.3), ShiftedSystem(1.0, 1e-30, 0.2))
    p = Params(0.3, 2.0)
    built = Scheme(systems=systems, params=p, predicted_error=1e-3)
    assert Scheme._fields == ("systems", "params", "predicted_error")
    assert built.solves == len(systems) == 9

    ev = np.linspace(1.0, 100.0, 40)
    b = rng.standard_normal(ev.size)
    q, _ = np.linalg.qr(rng.standard_normal((ev.size, ev.size)))

    def eigenbasis_sum(c):
        return p.prefactor * sum(s.scale * c / (s.sigma + s.tau * ev) for s in systems)

    dense = q @ np.diag(ev) @ q.T
    cases = [
        (DiagonalOperator(ev), eigenbasis_sum(b)),
        (DenseOperator((dense + dense.T) / 2.0), q @ eigenbasis_sum(q.T @ b)),
        (CallbackOperator(ev.size, lambda sigma, tau, rhs: rhs / (sigma + tau * ev)), eigenbasis_sum(b)),
    ]
    for op, want in cases:
        got = apply_scheme(op, b, built)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_mode_counts_rejects_unknown_mode():
    # an unhashable mode is refused by the same check, not by a TypeError
    # from the lookup of its figure
    p = Params(0.5, 1.0)
    calls = [
        lambda mode: mode_counts(10, p, mode),
        lambda mode: scheme(5, p, mode),
        lambda mode: apply_resolvent(DiagonalOperator([1.0, 2.0]), [1.0, 1.0], p, 5, mode=mode),
        lambda mode: error_sweep(p, 5, [2.0], mode=mode),
    ]
    for mode in ("fancy", None, ("standard",), ["standard"], {}, np.array(["standard"])):
        for call in calls:
            with pytest.raises(ValueError, match=r"^mode must be one of \('standard', 'balanced', 'truncated'\), got "):
                call(mode)


def test_diagonal_operator_validation():
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([]))
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        DiagonalOperator(np.array([2.0, float("nan")]))


def test_diagonal_operator_copies_its_entries():
    # the skip bounds are taken from the entries at construction, so a
    # later write by the caller must reach neither them nor the sums
    d = np.logspace(0, 16, 1000)
    op = DiagonalOperator(d)
    b, p = np.ones(d.size), Params(0.5, 0.01)
    want = apply_resolvent(op, b, p, 50)
    assert d.flags.writeable
    d[:] = 1.0
    assert np.array_equal(op.entries, np.logspace(0, 16, 1000))
    assert np.array_equal(apply_resolvent(op, b, p, 50), want)


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
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        DenseOperator(asym)
    with pytest.raises(ValueError):
        DenseOperator(np.array([[float("inf"), 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("state", [{}, {"all": "raise"}], ids=["default", "raise"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1e308, -1e308], [1e308, 1e308]], "matrix is not symmetric"),  # a - a.T overflows
        ([[1e-320, 0.0], [0.0, 1e-320]], "matrix spectrum must be >= 1"),  # 1e-12 * scale underflows
    ],
    ids=["overflow", "underflow"],
)
def test_dense_operator_refuses_extreme_matrices_without_a_flag(matrix, message, state):
    # the checks' own arithmetic raises or warns nothing under either state
    with warnings.catch_warnings(), np.errstate(**state):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            DenseOperator(matrix)


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
    with pytest.raises(ValueError, match="matrix spectrum must be >= 1") as excinfo:
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


@pytest.mark.parametrize("setter", ["openblas", "none"])
@pytest.mark.parametrize("mode", MODES)
def test_dense_solve_shifted_is_the_fused_sum_of_one_system(monkeypatch, mode, setter):
    # a dense per-solve call is apply_sum over its one system, bit for bit,
    # with the one-thread BLAS section setting the count or changing nothing
    if setter == "none":
        monkeypatch.setattr(operators, "_openblas_threads", lambda: None)
    elif operators._openblas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    _, mat = _rotated(np.logspace(0, 8, 40), 4)
    op = DenseOperator(mat)
    b = np.random.default_rng(4).standard_normal(40)
    for s in scheme(50, Params(0.5, 0.01), mode).systems:
        want = op.apply_sum((ShiftedSystem(s.sigma, s.tau, 1.0),), b)
        assert op.solve_shifted(s.sigma, s.tau, b).tobytes() == want.tobytes()


def test_dense_apply_is_deterministic(monkeypatch):
    _, mat = _rotated(np.logspace(0, 4, 50), 2)
    op = DenseOperator(mat)
    b = np.random.default_rng(2).standard_normal(50)
    p = Params(0.5, 0.01)
    first = apply_resolvent(op, b, p, 40).tobytes()
    again = apply_resolvent(op, b, p, 40).tobytes()
    _set_cores(monkeypatch, 2)
    pooled = apply_resolvent(op, b, p, 40).tobytes()
    assert first == again == pooled


def test_dense_sections_restore_the_blas_thread_count(monkeypatch):
    # eight callers switching often: without the lock a caller can save
    # another's 1 as the count to restore, and the count ends at 1
    threads = operators._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    get, set_ = threads
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (seen.append(get()), eigh(a))[1])
    _, mat = _rotated(np.logspace(0, 4, 20), 3)
    b = np.random.default_rng(3).standard_normal(20)
    systems = scheme(20, Params(0.5, 0.01), "standard").systems
    old, interval = get(), sys.getswitchinterval()
    set_(2)
    try:
        want = DenseOperator(mat).apply_sum(systems, b).tobytes()
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: DenseOperator(mat).apply_sum(systems, b).tobytes()) for _ in range(2000)]
            got = [future.result(timeout=60) for future in futures]
        count = get()
    finally:
        sys.setswitchinterval(interval)
        set_(old)
    assert got == [want] * 2000
    assert seen == [1] * 2001  # every eigh ran on one thread
    assert count == 2


def test_dense_operator_runs_without_a_blas_thread_setter(monkeypatch):
    # a numpy whose bundled library lacks the setter: the sections change
    # nothing, and on a matrix this small the bits are the one-thread ones
    _, mat = _rotated(np.logspace(0, 4, 50), 2)
    b = np.random.default_rng(2).standard_normal(50)
    p = Params(0.5, 0.01)
    want = apply_resolvent(DenseOperator(mat), b, p, 40).tobytes()
    monkeypatch.setattr(operators.ctypes, "CDLL", lambda path: types.SimpleNamespace())
    operators._openblas_threads.cache_clear()
    try:
        assert operators._openblas_threads() is None
        op = DenseOperator(mat)
        got = [apply_resolvent(op, b, p, 40).tobytes(), op.solve_shifted(1.0, 0.5, b).tobytes()]
    finally:
        operators._openblas_threads.cache_clear()
    assert got[0] == want
    assert got[1] == DenseOperator(mat).solve_shifted(1.0, 0.5, b).tobytes()


def test_callback_operator_parity():
    d = np.array([1.0, 3.0, 9.0])

    def solve(sigma, tau, rhs):
        return rhs / (sigma + tau * d)

    cb = CallbackOperator(3, solve)
    p = Params(0.4, 0.1)
    got = apply_resolvent(cb, np.ones(3), p, 15)
    # per-solve backends agree bit for bit, the diagonal kernel within rounding
    diag = DiagonalOperator(d)
    assert np.array_equal(got, apply_resolvent(CallbackOperator(3, diag.solve_shifted), np.ones(3), p, 15))
    _assert_within_rounding(apply_resolvent(diag, np.ones(3), p, 15), got, scheme(15, p, "standard").systems, np.ones(3))


def test_callback_operator_refuses_non_finite_solution():
    def solve(sigma, tau, rhs):
        y = rhs / (sigma + tau)
        y[1] = np.nan
        return y

    # summed as the diagonal kernel sums it, then refused by apply_scheme
    # after its retry on a scaled b
    with pytest.raises(OperatorError, match="the result is not finite"):
        apply_resolvent(CallbackOperator(3, solve), np.ones(3), Params(0.5, 1.0), 5)


@pytest.mark.parametrize("solve", [None, 3.0, "solve"])
def test_callback_operator_refuses_a_solve_that_is_not_callable(solve):
    with pytest.raises(ValueError, match="solve must be callable"):
        CallbackOperator(3, solve)


@pytest.mark.parametrize(
    "solution, message",
    [(np.zeros(2), "shape"), (np.zeros(3, dtype=complex), "complex solution at sigma=.*tau=")],
    ids=["shape", "complex"],
)
def test_callback_operator_rejects_bad_shape(solution, message):
    # a cast to float would drop the imaginary part with only a warning
    cb = CallbackOperator(3, lambda s, t, b: solution)
    with pytest.raises(OperatorError, match=message):
        apply_resolvent(cb, np.ones(3), Params(0.5, 1.0), 5)


@pytest.mark.parametrize(
    "solution",
    [np.array(["1", "2", "3"]), [object()] * 3, "x", np.array([b"1", b"2", b"3"])],
    ids=["str", "object", "scalar-str", "bytes"],
)
def test_callback_operator_refuses_non_numeric_solution(solution):
    # a cast to float would parse the strings, or raise TypeError/ValueError
    cb = CallbackOperator(3, lambda s, t, b: solution)
    dtype = np.asarray(solution).dtype
    with pytest.raises(OperatorError, match=rf"dtype {dtype} at sigma=.*, tau="):
        apply_resolvent(cb, np.ones(3), Params(0.5, 1.0), 5)


@pytest.mark.parametrize("dimension", [0, -2, 2.5, True, np.bool_(True), "3", np.float64(3.0)])
def test_callback_operator_refuses_a_bad_dimension(dimension):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        CallbackOperator(dimension, DiagonalOperator([1.0, 2.0, 4.0]).solve_shifted)


@pytest.mark.parametrize("dimension", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_callback_operator_accepts_integer_dimensions(dimension):
    diag = DiagonalOperator([1.0, 2.0, 4.0])
    op = CallbackOperator(dimension, diag.solve_shifted)
    assert type(op.dimension) is int and op.dimension == 3
    p = Params(0.5, 1.0)
    assert np.array_equal(apply_resolvent(op, np.ones(3), p, 5), apply_resolvent(diag, np.ones(3), p, 5))


@pytest.mark.parametrize("solution", [np.ones(3, dtype=bool), np.arange(3), np.ones(3, dtype=np.float32)])
def test_callback_operator_accepts_numeric_solutions(solution):
    # one unit system: the sum is the solution itself, taken as float64
    cb = CallbackOperator(3, lambda s, t, b: solution.copy())
    got = cb.apply_sum([ShiftedSystem(1.0, 1.0, 1.0)], np.ones(3))
    assert got.dtype == np.float64 and np.array_equal(got, solution)


def _solve_in_place(sigma, tau, rhs):
    rhs /= sigma + tau * np.array([1.0, 3.0, 9.0])
    return rhs


def _lu_solve_overwriting(sigma, tau, rhs):
    # f2py ignores the read-only flag and solves into rhs itself
    factors = scipy.linalg.lu_factor(np.diag(sigma + tau * np.array([1.0, 3.0, 9.0])))
    return scipy.linalg.lu_solve(factors, rhs, overwrite_b=True)


@pytest.mark.parametrize(
    "solve, error, message",
    [(_solve_in_place, ValueError, "read-only"), (_lu_solve_overwriting, OperatorError, "shares memory.*copy")],
    ids=["numpy", "scipy"],
)
def test_callback_cannot_write_into_its_right_hand_side(solve, error, message):
    # solving in place would divide the shared b once per node
    b = np.ones(3)
    with pytest.raises(error, match=message):
        apply_resolvent(CallbackOperator(3, solve), b, Params(0.4, 0.1), 15)
    assert b.flags.writeable
    # numpy refuses the write; compiled code has written into b by the time
    # its solution is refused
    if solve is _solve_in_place:
        assert np.array_equal(b, np.ones(3))


class _OneEntrySolutions(OperatorHandle):
    """A backend whose solutions have one entry whatever ``b`` is."""

    dimension = 3

    def solve_shifted(self, sigma, tau, b):
        return b[:1] / (sigma + tau)


def test_default_apply_sum_refuses_a_solution_of_the_wrong_shape():
    # broadcasting would add the one entry into every entry of the sum
    with pytest.raises(OperatorError, match=r"shape \(1,\), expected \(3,\)"):
        apply_resolvent(_OneEntrySolutions(), [1.0, 5.0, 9.0], Params(0.5, 1.0), 5)


class _UserSolutions(OperatorHandle):
    """A diagonal backend whose ``solve_shifted`` returns its solution as
    ``kind``: an array, a list, complex, strings, NaN or ``b`` itself."""

    dimension = 3

    def __init__(self, kind):
        self.kind = kind

    def solve_shifted(self, sigma, tau, b):
        y = b / (sigma + tau * np.array([1.0, 2.0, 4.0]))
        return {
            "array": y, "list": list(y), "complex": y.astype(complex), "str": y.astype(str),
            "nan": np.full_like(y, np.nan), "b": b,
        }[self.kind]


@pytest.mark.parametrize(
    "kind, message", [("complex", "complex solution at sigma="), ("str", "dtype <U"), ("b", "shares memory")]
)
def test_default_apply_sum_checks_every_solution(kind, message):
    # the sum would raise a raw TypeError on the first two, and add b itself
    with pytest.raises(OperatorError, match=message):
        apply_resolvent(_UserSolutions(kind), [1.0, 5.0, 9.0], Params(0.5, 1.0), 5)


def test_default_apply_sum_accepts_a_list_solution():
    p = Params(0.5, 1.0)
    got = apply_resolvent(_UserSolutions("list"), [1.0, 5.0, 9.0], p, 5)
    want = apply_resolvent(_UserSolutions("array"), [1.0, 5.0, 9.0], p, 5)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class _UserSums(OperatorHandle):
    """A backend whose ``apply_sum`` returns ``kind``: one entry, complex,
    strings or ``b`` itself."""

    dimension = 3

    def __init__(self, kind):
        self.kind = kind

    def apply_sum(self, systems, b):
        return {
            "one": np.ones(1), "complex": b.astype(complex), "str": b.astype(str), "b": b,
        }[self.kind]


@pytest.mark.parametrize(
    "kind, message",
    [
        ("one", r"apply_sum returned shape \(1,\), expected \(3,\)$"),
        ("complex", "apply_sum returned a complex solution$"),
        ("str", "apply_sum returned a solution of dtype <U"),
        ("b", "apply_sum returned a solution that shares memory with b"),
    ],
    ids=["one-entry", "complex", "str", "b"],
)
def test_apply_checks_what_apply_sum_returns(kind, message):
    # unchecked, these would give a (1,) result, a complex one, prefactor * b
    # and a raw UFuncTypeError
    with pytest.raises(OperatorError, match=message):
        apply_resolvent(_UserSums(kind), [1.0, 5.0, 9.0], Params(0.5, 1.0), 5)


def test_apply_refuses_a_backend_that_returns_nan():
    with pytest.raises(OperatorError, match="not finite"):
        apply_resolvent(_UserSolutions("nan"), np.ones(3), Params(0.5, 1.0), 5)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_apply_computes_a_finite_result_near_the_double_limit(kind, mode, sign):
    # the exact result is about 9.9e306 * sign at d = 1, but the solve
    # b / (sigma + tau*d) overflows at nodes where sigma + tau*d < 0.056;
    # the method is linear in b, so the result is 1e307 times that of b = sign
    d = [1.0, 1e8]
    op = DiagonalOperator(d) if kind == "diagonal" else DenseOperator(np.diag(d))
    p = Params(0.5, 0.01)
    got = apply_resolvent(op, [sign * 1e307] * 2, p, 50, mode)
    unit = apply_resolvent(op, [sign] * 2, p, 50, mode)
    np.testing.assert_allclose(got, 1e307 * unit, rtol=1e-15, atol=0.0)


def test_apply_computes_a_callback_solution_that_overflows():
    # the solves overflow at b = 1e307, and the retry on a scaled b gives the
    # bits of the diagonal's own solves, and the diagonal kernel's result
    # within rounding
    d = np.array([1.0, 1e8])

    def solve(sigma, tau, b):
        with np.errstate(over="ignore"):
            return b / (sigma + tau * d)

    p = Params(0.5, 0.01)
    diag = DiagonalOperator(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_resolvent(CallbackOperator(2, solve), [1e307] * 2, p, 50)
        want = apply_resolvent(_PerSolve(diag), [1e307] * 2, p, 50)
        fused = apply_resolvent(diag, [1e307] * 2, p, 50)
    assert np.isfinite(want).all()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    _assert_within_rounding(fused, want, scheme(50, p, "standard").systems, [1e307] * 2)


class _Wrapped(OperatorHandle):
    """A backend of ``inner``'s dimension that supplies neither
    ``solve_shifted`` nor ``apply_sum``."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def dimension(self):
        return self._inner.dimension


class _PerSolve(_Wrapped):
    """A backend that supplies only ``solve_shifted``, ``inner``'s."""

    def solve_shifted(self, sigma, tau, b):
        return self._inner.solve_shifted(sigma, tau, b)


class _SumOnly(_Wrapped):
    """A backend that supplies only ``apply_sum``, ``inner``'s, as one that
    forms the whole sum without a single solve does."""

    def apply_sum(self, systems, b):
        return self._inner.apply_sum(systems, b)


@pytest.mark.parametrize("mode", MODES)
def test_a_backend_may_supply_apply_sum_alone(mode):
    d = np.logspace(0, 8, 12)
    d[3] = np.inf
    inner = DiagonalOperator(d)
    b = np.random.default_rng(5).standard_normal(d.size)
    p = Params(0.45, 0.05)
    got = apply_resolvent(_SumOnly(inner), b, p, 30, mode)
    want = apply_resolvent(inner, b, p, 30, mode)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_backend_that_supplies_neither_operation_fails_at_its_first_apply():
    op = _Wrapped(DiagonalOperator([1.0, 2.0]))  # only dimension is abstract
    with pytest.raises(AttributeError, match="solve_shifted"):
        apply_resolvent(op, np.ones(2), Params(0.5, 0.01), 5)


@pytest.mark.parametrize("b", [1e307, 1.7e308, -1.7e308])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_every_backend_sums_an_overflow_alike(kind, alpha, mode, b):
    # one spectrum gives one answer however it is supplied: the sums
    # overflow, none of them warns, and apply_scheme's retry computes them;
    # the per-solve backends agree bit for bit, the kernel within rounding
    d = [1.0, 1e8]
    inner = DiagonalOperator(d) if kind == "diagonal" else DenseOperator(np.diag(d))
    p = Params(alpha, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = apply_resolvent(inner, [b] * 2, p, 50, mode)
        want = apply_resolvent(_PerSolve(inner), [b] * 2, p, 50, mode)
        got = apply_resolvent(CallbackOperator(2, inner.solve_shifted), [b] * 2, p, 50, mode)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.isfinite(want).all()
    _assert_within_rounding(fused, want, scheme(50, p, mode).systems, [b] * 2)


class _InfiniteAtZeroShift(_PerSolve):
    """``inner``'s solves, but inf everywhere when ``sigma`` is 0."""

    def solve_shifted(self, sigma, tau, b):
        return np.full(self.dimension, np.inf) if sigma == 0.0 else super().solve_shifted(sigma, tau, b)


def test_apply_refuses_an_infinite_solution_at_a_zero_scale_cleanly():
    # 0 * inf is NaN; the sum takes it without a warning and apply_scheme
    # refuses the result
    p = Params(0.5, 0.01)
    systems = scheme(10, p, "standard").systems + (ShiftedSystem(0.0, 1.0, 0.0),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorError, match="the result is not finite"):
            apply_scheme(_InfiniteAtZeroShift(DiagonalOperator([1.0, 1e8])), np.ones(2), Scheme(systems, p, 0.0))


class _TrackedSolutions(OperatorHandle):
    """A diagonal backend that records, at each solve, how many of its
    earlier solutions are still alive."""

    def __init__(self, d):
        self._d = np.asarray(d, dtype=float)
        self.solutions: list[weakref.ref] = []
        self.alive_at_solve: list[int] = []

    @property
    def dimension(self):
        return self._d.size

    def solve_shifted(self, sigma, tau, b):
        self.alive_at_solve.append(sum(r() is not None for r in self.solutions))
        with np.errstate(over="ignore", invalid="ignore"):  # as DiagonalOperator
            y = b / (sigma + tau * self._d)
        self.solutions.append(weakref.ref(y))
        return y


def test_serial_apply_holds_one_solution_at_a_time():
    # the default apply_sum frees each solution before the next solve, and
    # keeps none once it returns
    op = _TrackedSolutions(np.logspace(0, 6, 50))
    p = Params(0.5, 0.01)
    got = apply_resolvent(op, np.ones(50), p, 30)
    assert len(op.alive_at_solve) == len(scheme(30, p, "standard").systems)
    assert op.alive_at_solve == [0] * len(op.alive_at_solve)
    assert all(r() is None for r in op.solutions)
    diag = DiagonalOperator(op._d)
    want = apply_resolvent(CallbackOperator(50, diag.solve_shifted), np.ones(50), p, 30)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    _assert_within_rounding(apply_resolvent(diag, np.ones(50), p, 30), want, scheme(30, p, "standard").systems, np.ones(50))


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


@pytest.mark.parametrize("shape", [(1,), (2, 1)])
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_builtin_solve_shifted_refuses_b_of_the_wrong_shape(kind, shape):
    # numpy would broadcast either b against three entries
    d = np.array([1.0, 2.0, 3.0])
    op = DiagonalOperator(d) if kind == "diagonal" else DenseOperator(_rotated(d, 3)[1])
    b = np.ones(shape)
    with pytest.raises(ValueError) as from_apply_sum:
        op.apply_sum([], b)
    with pytest.raises(ValueError) as from_solve:
        op.solve_shifted(1.0, 1.0, b)
    assert str(from_solve.value) == str(from_apply_sum.value)


@pytest.mark.parametrize(
    "sigma, tau, message",
    [(math.nan, 1.0, "must not be NaN"), (1.0, math.nan, "must not be NaN"), (0.0, 0.0, "singular")],
)
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_builtin_solve_shifted_refuses_what_shifted_system_refuses(kind, sigma, tau, message):
    # the solves returned NaN, or inf with numpy's divide-by-zero warning
    d = [1.0, 2.0]
    op = DiagonalOperator(d) if kind == "diagonal" else DenseOperator(np.diag(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            op.solve_shifted(sigma, tau, np.ones(2))


_SCHEME_OPERATORS = {
    "diagonal": DiagonalOperator,
    "dense": lambda d: DenseOperator(_rotated(d, 3)[1]),
    "callback": lambda d: CallbackOperator(d.size, DiagonalOperator(d).solve_shifted),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", sorted(_SCHEME_OPERATORS))
def test_apply_scheme_matches_apply_resolvent_bitwise(kind, mode):
    d = np.logspace(0, 8, 12)
    op = _SCHEME_OPERATORS[kind](d)
    b = np.random.default_rng(4).standard_normal(d.size)
    p = Params(0.45, 0.05)
    built = scheme(30, p, mode)
    assert built.params == p  # the scheme fixes the prefactor it is applied with
    got = apply_scheme(op, b, built)
    want = apply_resolvent(op, b, p, 30, mode)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for bad in (np.nan, np.inf, -np.inf):
        b[5] = bad
        with pytest.raises(ValueError, match="finite"):
            apply_scheme(op, b, built)


def _peak_bytes(call):
    call()  # builds and caches the rules outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_apply_sum_keeps_few_solutions_in_flight():
    # 100 solves at n=50 through solve_shifted; a reduction that kept every
    # solution would peak near 100 vectors.  The sum, one solution and one
    # block of scaled terms (2**16 entries, 0.66 of this vector) measure
    # 2.68; a scaled copy of the whole solution would take 3, and holding
    # the last solution into the next solve 4.
    size = 10**5
    op = CallbackOperator(size, DiagonalOperator(np.linspace(1.0, 1e6, size)).solve_shifted)
    b = np.ones(size)
    peak = _peak_bytes(lambda: apply_resolvent(op, b, Params(0.5, 0.01), 50))
    assert peak < 2.8 * b.nbytes


def test_diagonal_solve_shifted_allocates_only_its_solution():
    # no temporary for tau*d or for the shifted diagonal
    size = 10**5
    d = np.linspace(1.0, 1e6, size)
    d[::1000] = np.inf  # the pinning writes into the solution too
    op = DiagonalOperator(d)
    b = np.ones(size)
    assert _peak_bytes(lambda: op.solve_shifted(1.0, 0.25, b)) < 1.2 * b.nbytes


def _set_cores(monkeypatch, cores):
    """Make the diagonal kernel see ``cores`` usable cores; None keeps the
    real count."""
    if cores is not None:
        monkeypatch.setattr(operators, "_usable_cores", lambda: cores)


@pytest.mark.parametrize("cores", [None, 1, 2, 3], ids=["real", "1", "2", "3"])
def test_diagonal_apply_allocates_no_vector_per_solve(monkeypatch, cores):
    # the fused sum allocates the accumulator and one block of scratch per
    # worker; the prefactor product may take one more vector
    _set_cores(monkeypatch, cores)
    size = 10**5
    op = DiagonalOperator(np.linspace(1.0, 1e6, size))
    b = np.ones(size)
    peak = _peak_bytes(lambda: apply_resolvent(op, b, Params(0.5, 0.01), 50))
    assert peak < 3 * b.nbytes


@pytest.mark.parametrize("cores", [None, 1, 2, 3, 7], ids=["real", "1", "2", "3", "7"])
@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 5 * _BLOCK + 7])
@pytest.mark.parametrize("mode", MODES + ("far-tail",))
def test_diagonal_apply_sum_matches_default_bitwise(monkeypatch, size, mode, cores):
    rng = np.random.default_rng(size)
    d = 10.0 ** rng.uniform(0, 16, size)
    d[[0, size // 3, -1]] = np.inf  # +inf entries in the first, a middle and the last block
    block = DiagonalOperator(np.ones(size))._block  # the kernel's grid depends on the size only
    d[3 * block : 4 * block] = np.inf  # the fourth of six blocks is all +inf
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
    if size == 5 * _BLOCK + 7:
        assert len(diag._spans) == 6 and diag._spans[3] == (math.inf, math.inf)
    want = _coefficient_sum(d, systems, b)
    _set_cores(monkeypatch, cores)
    got = diag.apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[0] == 0.0 and got[-1] == 0.0


@pytest.mark.parametrize("size, block", [(1, 1), (_BLOCK, _BLOCK), (_BLOCK + 1, _BLOCK // 2 + 1), (10**6, 62500)])
def test_diagonal_blocks_share_the_entries_equally(size, block):
    # 10**6 entries: 16 blocks of 62500, not 15 of 2**16 and a runt of 16960
    op = DiagonalOperator(np.ones(size))
    assert op._block == block
    assert len(op._spans) == -(-size // _BLOCK) == -(-size // block)


_THREE = 2 * _BLOCK + 3  # entries of three kernel blocks


def _constant_second_nodes():
    # h = 1e-100: tau = 1e-200, so sigma + tau*d rounds to sigma everywhere
    d = np.logspace(0, 16, _THREE)
    d[[4, _THREE // 2, -1]] = np.inf
    return d, scheme(50, Params(0.5, 1e-100), "standard").systems[50:], None


def _constant_tau_zero():
    d = np.logspace(0, 16, _THREE)
    d[7] = np.inf
    systems = [ShiftedSystem(2.5, 0.0, 1.0), ShiftedSystem(0.3, 0.0, 7.0), ShiftedSystem(1.0, 1.0, 1.0), ShiftedSystem(4.0, 0.0, 0.5)]
    return d, systems, [[True, True, False, True]] * 3


def _constant_negative_tau():
    # 1e20 - d rounds to 1e20 below half its ulp, 8192; 8000.5 - d stays
    # away from 0 and takes every value
    d = np.linspace(1.0, 4000.0, _THREE)
    d[-2] = np.inf
    systems = [ShiftedSystem(1e20, -1.0, 1.0), ShiftedSystem(8000.5, -1.0, 1.0), ShiftedSystem(1.0, 1.0, 1.0)]
    return d, systems, [[True, False, False]] * 3


def _constant_one_ulp():
    # 1 + 2**-53 * d is 1 at d = 1, the tie, and 1 + 2**-52 above 4/3, so only
    # the first block's end denominators differ, by one ulp; the kernel adds
    # the first system rescaled, and 2**53 + d ties the same way: 2**53 at
    # d = 1 and 2**53 + 2 above it
    d = np.linspace(1.0, 2.0, _THREE)
    op = DiagonalOperator(d)
    low, high = (1.0 + 2.0**-53 * end for end in op._spans[0])
    assert np.nextafter(low, 2.0) == high
    systems = [ShiftedSystem(1.0, 2.0**-53, 1.0), ShiftedSystem(1.0, 2.0**-60, 3.0)]
    assert _forms(op, systems) == [(2.0**53, 1.0, 2.0**53), (2.0**60, 1.0, 3.0 * 2.0**60)]
    low, high = (2.0**53 + end for end in op._spans[0])
    assert low == 2.0**53 and np.nextafter(low, np.inf) == high
    assert all(2.0**53 + lo == 2.0**53 + hi for lo, hi in op._spans[1:])
    return d, systems, [[False, True], [True, True], [True, True]]


def _constant_infinite_block():
    # the middle block is +inf alone: tau > 0 gives 1/inf, tau == 0 a NaN
    # and tau < 0 -1/inf there, and the pin decides every bit
    d = np.logspace(0, 16, _THREE)
    block = DiagonalOperator(d)._block
    d[block : 2 * block] = np.inf
    systems = [ShiftedSystem(1.0, 1e-3, 1.0), ShiftedSystem(1.0, 0.0, 2.0), ShiftedSystem(3.0, -1e-20, 1.0)]
    return d, systems, [[False, True, False], [True, False, True], [False, True, False]]


def _constant_zero_denominator():
    # -1 + d is 0 over the first two blocks, where the passes give
    # 1/0; Python's float division refuses it, so it is no constant
    d = np.ones(_THREE)
    d[-9:] = 2.0
    systems = [ShiftedSystem(-1.0, 1.0, 1.0), ShiftedSystem(1.0, 1.0, 1.0)]
    return d, systems, [[False, True], [False, True], [False, False]]


def _constant_tie(which):
    # every block's greatest finite entry is 2**1000, and tau*2**1000 is
    # 2**-53 at the tie, where 1 + 2**-53 rounds to even, to 1: nodes 2-3
    # are constant at the tie and at tau == 0, and one ulp of tau above the
    # tie they run the passes.  tau*d is subnormal at d = 1, so the kernel
    # adds them as they are, not rescaled
    tie = 2.0**-53 / 2.0**1000
    tau = {"tie": tie, "above": np.nextafter(tie, 1.0), "zero": 0.0}[which]
    rng = np.random.default_rng(9)
    d = 2.0 ** rng.uniform(0.0, 1000.0, _THREE)
    d[::1000] = 2.0**1000
    d[5::7919] = np.inf
    op = DiagonalOperator(d)
    assert all(span[1] == 2.0**1000 for span in op._spans)
    systems = [ShiftedSystem(1.0, 1.0, 1.0), ShiftedSystem(1.0, tau, 0.5), ShiftedSystem(1.0, tau, 3.0)]
    assert _forms(op, systems) == [(s.sigma, s.tau, s.scale) for s in systems]
    constant = which != "above"
    return d, systems, [[False, constant, constant]] * 3


_CONSTANT_CASES = {
    "second-nodes": _constant_second_nodes,
    "tau-zero": _constant_tau_zero,
    "negative-tau": _constant_negative_tau,
    "one-ulp": _constant_one_ulp,
    "zero-denominator": _constant_zero_denominator,
    "infinite-block": _constant_infinite_block,
    "tie": lambda: _constant_tie("tie"),
    "tie-above": lambda: _constant_tie("above"),
    "tie-zero": lambda: _constant_tie("zero"),
}


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_CONSTANT_CASES))
def test_diagonal_constant_nodes_match_the_coefficient_sum(monkeypatch, case, cores):
    # per block, which kept nodes add one constant; None: every one does
    d, systems, constant = _CONSTANT_CASES[case]()
    op = DiagonalOperator(d)
    assert len(op._spans) == 3
    forms = _forms(op, systems)
    kept = [op._kept_nodes(forms, span) for span in op._spans]
    if constant is None:
        assert all(kept) and all(c is not None for block in kept for _, c in block)
    else:
        assert [[c is not None for _, c in block] for block in kept] == constant
    rng = np.random.default_rng(5)
    b = rng.standard_normal(d.size)
    b[[1, 2, 3]] = -0.0, 5e-324, -2.5e-310
    with np.errstate(divide="ignore"):
        want = _coefficient_sum(d, systems, b)
    _set_cores(monkeypatch, cores)
    got = op.apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all(got[np.isinf(d)] == 0.0)


def _unsafe_overflow():
    # tau*d overflows over the upper entries, where a per-solve term is 0
    # and a rescaled one a subnormal: times a b near 1e300, they part by far
    # more than rounding
    d = np.logspace(0, 300, _THREE)
    d[[5, _THREE // 2]] = np.inf
    systems = scheme(1, Params(0.5, 5.145317001177723e140), "standard").systems
    s = systems[-1]
    with np.errstate(over="ignore"):
        over = s.tau * d == np.inf
        assert np.all(s.scale / (s.sigma + s.tau * d[over]) == 0.0)
    assert np.any((s.scale / s.tau) / (s.sigma / s.tau + d[over & np.isfinite(d)]) > 0.0)
    return d, systems


def _unsafe_subnormal():
    # tau*d below 2**-1022 at d = 1, though normal at the greatest entries:
    # one ulp of tau below the least normal and two subnormal taus
    d = np.logspace(0, 16, _THREE)
    d[7] = np.inf
    tiny = np.finfo(float).tiny
    assert DiagonalOperator(d)._form(ShiftedSystem(1.0, tiny, 1.0))[1] == 1.0  # the least normal rescales
    systems = [ShiftedSystem(1.0, np.nextafter(tiny, 0.0), 1.0), ShiftedSystem(0.5, 1e-310, 2.0), ShiftedSystem(1e-300, 2.0**-1030, 3.0)]
    return d, systems


def _unsafe_tau():
    # tau == 0 and tau < 0, with every denominator positive
    d = np.linspace(1.0, 4000.0, _THREE)
    systems = [ShiftedSystem(1.0, 0.0, 1.0), ShiftedSystem(1e20, -1.0, 1.0), ShiftedSystem(8000.5, -1.0, 2.0)]
    return d, systems


def _unsafe_denominator():
    # tau*d is normal, but sigma + tau*d overflows over the upper entries in
    # the first system, and sigma/tau + d in the second: there the form
    # whose denominator overflows has a term of 0 and the other does not.
    # The second's fields are numpy scalars, whose overflow must not warn
    d = np.logspace(0, 300, _THREE)
    d[9] = np.inf
    big = np.finfo(float).max
    systems = [ShiftedSystem(1.7e308, 1e7, 1e300), ShiftedSystem(big * 2.0**-10, 2.0**-10, 1.0)]
    with np.errstate(over="ignore"):
        assert 1.7e308 + 1e7 * d[-1] == np.inf and big + d[-1] == np.inf
    return d, systems


_UNSAFE_CASES = {
    "overflow": _unsafe_overflow,
    "subnormal": _unsafe_subnormal,
    "tau": _unsafe_tau,
    "denominator": _unsafe_denominator,
}


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_UNSAFE_CASES))
def test_diagonal_keeps_four_passes_where_rescaling_is_unsafe(monkeypatch, case, cores):
    # these systems are added as they are, in the bits of the plain
    # scale / (sigma + tau*d), of _coefficient_sum and of apply_sum alike
    d, systems = _UNSAFE_CASES[case]()
    op = DiagonalOperator(d)
    assert _forms(op, systems) == [(s.sigma, s.tau, s.scale) for s in systems]
    assert not any(_rescales(s, d) for s in systems)
    b = np.random.default_rng(3).standard_normal(d.size)
    c = np.zeros(d.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in systems:
            c += s.scale / (s.sigma + s.tau * d)
        want = c * b
    want[np.isinf(d)] = 0.0
    assert np.array_equal(_coefficient_sum(d, systems, b).view(np.int64), want.view(np.int64))
    _set_cores(monkeypatch, cores)
    got = op.apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("mode", MODES)
def test_diagonal_nodes_at_the_paper_point_take_three_passes(monkeypatch, mode, cores):
    # on diag-1m's spectrum every system is rescaled, so every kept node
    # that is no constant runs sigma/tau + d, scale/tau over it and the sum
    d = np.logspace(0.0, 16.0, 10**6)
    op = DiagonalOperator(d)
    systems = scheme(50, Params(0.5, 0.01), mode).systems
    assert _forms(op, systems) == [(s.sigma / s.tau, 1.0, s.scale / s.tau) for s in systems]
    kept_nodes, passes = DiagonalOperator._kept_nodes, []

    def recorded(forms, span):
        kept = kept_nodes(forms, span)
        passes.extend(form for form, constant in kept if constant is None)
        return kept

    monkeypatch.setattr(DiagonalOperator, "_kept_nodes", staticmethod(recorded))
    # and no node forms tau*d: the kernel's one vector product per block
    # is the one with b
    products = []

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def multiply(self, *args, **kwargs):
            products.append(kwargs["out"].size)
            return np.multiply(*args, **kwargs)

    monkeypatch.setattr(operators, "np", Counted())
    _set_cores(monkeypatch, cores)
    op.apply_sum(systems, np.ones(d.size))
    assert passes and all(tau == 1.0 for _, tau, _ in passes)
    assert sorted(products) == [op._block] * len(op._spans)


@pytest.mark.parametrize("mode", MODES)
def test_diagonal_nodes_at_tiny_h_are_all_constant(mode):
    # at h = 1e-100 every tau*d over 16 decades is under half an ulp of its
    # sigma, so every kept node of either rule adds one constant
    op = DiagonalOperator(np.logspace(0, 16, 4 * _BLOCK))
    systems = scheme(50, Params(0.5, 1e-100), mode).systems
    forms = _forms(op, systems)
    constants = [c for span in op._spans for _, c in op._kept_nodes(forms, span)]
    assert constants and all(c is not None for c in constants)


def _three_blocks():
    """A diagonal of three kernel blocks, a right-hand side and systems."""
    rng = np.random.default_rng(11)
    op = DiagonalOperator(10.0 ** rng.uniform(0, 16, 3 * _BLOCK))
    return op, rng.standard_normal(op.dimension), scheme(30, Params(0.4, 0.01), "standard").systems


def _apply_in_child(op, systems, b, conn):
    conn.send_bytes(op.apply_sum(systems, b).tobytes())
    conn.close()


def test_forked_child_gets_the_parents_bits(monkeypatch):
    # the child inherits none of the parent's threads
    _set_cores(monkeypatch, 2)
    op, b, systems = _three_blocks()
    want = op.apply_sum(systems, b).tobytes()  # runs threads here first
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_apply_in_child, args=(op, systems, b, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child's apply did not finish"
        assert receive.recv_bytes() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    op, b, systems = _three_blocks()
    _set_cores(monkeypatch, 1)
    want = op.apply_sum(systems, b)
    _set_cores(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(op.apply_sum, systems, b) for _ in range(8)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_threaded_apply_leaves_no_thread_running(monkeypatch):
    op, b, systems = _three_blocks()
    _set_cores(monkeypatch, 2)
    before = threading.active_count()
    op.apply_sum(systems, b)
    assert threading.active_count() == before
    # a kernel part that fails on a pool thread reaches the caller after
    # the pool is joined
    sum_blocks = DiagonalOperator._sum_blocks

    def failing(self, systems, b, acc, starts):
        if starts[0] != 0:
            raise ArithmeticError("pool part failed")
        sum_blocks(self, systems, b, acc, starts)

    monkeypatch.setattr(DiagonalOperator, "_sum_blocks", failing)
    with pytest.raises(ArithmeticError, match="pool part failed"):
        op.apply_sum(systems, b)
    assert threading.active_count() == before
    monkeypatch.setattr(DiagonalOperator, "_sum_blocks", sum_blocks)
    # a solve that fails ends the serial per-solve sum: no later solve starts
    index = {(s.sigma, s.tau): j for j, s in enumerate(systems)}
    assert len(index) == len(systems)
    k, started = 7, []

    def solve(sigma, tau, rhs):
        started.append(index[sigma, tau])
        if index[sigma, tau] == k:
            raise ArithmeticError("solve k failed")
        return op.solve_shifted(sigma, tau, rhs)

    with pytest.raises(ArithmeticError, match="solve k failed"):
        CallbackOperator(op.dimension, solve).apply_sum(systems, b)
    assert threading.active_count() == before
    assert started == list(range(k + 1))


def test_usable_cores_fall_back_to_cpu_count(monkeypatch):
    # where os.sched_getaffinity is missing, as on macOS and Windows
    monkeypatch.delattr(operators.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(operators.os, "cpu_count", lambda: 3)
    assert operators._usable_cores() == 3
    monkeypatch.setattr(operators.os, "cpu_count", lambda: None)
    assert operators._usable_cores() == 1


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_one_block_diagonal_starts_no_thread(monkeypatch, cores):
    # the pool starts a thread only for a part it is given
    _set_cores(monkeypatch, cores)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    op = DiagonalOperator(np.logspace(0, 16, 161))
    apply_resolvent(op, np.ones(op.dimension), Params(0.5, 0.01), 50)
    assert started == []
    # three blocks give the pool parts, and the count sees their threads
    many, b, systems = _three_blocks()
    many.apply_sum(systems, b)
    assert bool(started) == (cores > 1)


def test_callback_may_call_the_threaded_kernel(monkeypatch):
    # serial solves that each run the kernel's pool
    inner, b, systems = _three_blocks()

    def solve(sigma, tau, rhs):
        return inner.apply_sum([ShiftedSystem(sigma, tau, 1.0)], rhs)

    op = CallbackOperator(inner.dimension, solve)
    _set_cores(monkeypatch, 1)
    want = op.apply_sum(systems, b)
    _set_cores(monkeypatch, 2)
    results = []
    caller = threading.Thread(target=lambda: results.append(op.apply_sum(systems, b)), daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "nested apply_sum deadlocked"
    assert np.array_equal(results[0].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("kind", ["diagonal", "callback"])
def test_kernel_parts_run_under_the_callers_error_state(monkeypatch, kind, cores):
    # the caller's error state reaches a part of the sum only when that part
    # is a user's own solver; built-in parts ignore every flag. Only the
    # second block meets sigma + tau*d == 0, and only in the second system;
    # with 2 cores the diagonal kernel runs that block on a pool thread
    d = np.full(3 * _BLOCK, 4.0)
    d[_BLOCK + 5] = 1.0
    op = DiagonalOperator(d)
    _set_cores(monkeypatch, cores)
    systems = (ShiftedSystem(1.0, 1.0, 1.0), ShiftedSystem(-1.0, 1.0, 1.0))
    b = np.ones(d.size)
    if kind == "diagonal":
        with np.errstate(divide="ignore"):
            want = _coefficient_sum(d, systems, b)
        with np.errstate(all="raise"):
            got = op.apply_sum(systems, b)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            with pytest.raises(OperatorError, match="not finite"):
                apply_scheme(op, b, Scheme(systems, Params(0.5, 0.01), 0.0))
        return
    # a callback around the built-in solve sees no flag of its own arithmetic
    builtin = CallbackOperator(d.size, op.solve_shifted)
    want = builtin.apply_sum(systems, b)
    with np.errstate(all="raise"):
        got = builtin.apply_sum(systems, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a solver of the user's own runs under the caller's state
    user = CallbackOperator(d.size, lambda sigma, tau, rhs: rhs / (sigma + tau * d))
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        user.apply_sum(systems, b)


_SMALL_OPERATORS = {
    "default": lambda: CallbackOperator(3, DiagonalOperator([1.0, 2.0, 4.0]).solve_shifted),
    "diagonal": lambda: DiagonalOperator([1.0, 2.0, 4.0]),
    "dense": lambda: DenseOperator(np.diag([1.0, 2.0, 4.0])),
}


@pytest.mark.parametrize("kind", sorted(_SMALL_OPERATORS))
def test_apply_sum_takes_b_as_float64(kind):
    op = _SMALL_OPERATORS[kind]()
    systems = scheme(5, Params(0.5, 1.0), "standard").systems
    want = op.apply_sum(systems, np.array([1.0, 2.0, 3.0]))
    for b in ([1, 2, 3], np.array([1, 2, 3]), np.array([1, 2, 3], dtype=np.float32)):
        got = op.apply_sum(systems, b)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kind", sorted(_SMALL_OPERATORS))
@pytest.mark.parametrize("b", [np.ones(2), np.ones(4), np.ones((3, 1)), 1.0])
def test_diagonal_apply_sum_rejects_wrong_length(kind, b):
    systems = scheme(5, Params(0.5, 1.0), "standard").systems
    with pytest.raises(ValueError, match="must be 1-D|dimension mismatch"):
        _SMALL_OPERATORS[kind]().apply_sum(systems, b)


def test_diagonal_skips_most_tail_terms_at_the_paper_point():
    # standard mode at n=50: the far nodes of both rules add under a
    # quarter ulp of the running coefficient sum in most blocks
    op = DiagonalOperator(np.logspace(0, 16, 4 * _BLOCK))
    systems = scheme(50, Params(0.5, 0.01), "standard").systems
    forms = _forms(op, systems)
    kept = np.array([_kept_mask(forms, op._kept_nodes(forms, span)) for span in op._spans])
    assert kept.shape == (4, len(systems))
    assert kept[:, 0].all()  # nothing is known before the first term
    assert 1.0 - kept.mean() >= 0.4


def test_diagonal_skip_needs_nonnegative_systems():
    size = _BLOCK + 1
    block = DiagonalOperator(np.ones(size))._block
    d = np.full(size, np.inf)
    d[:block] = np.logspace(0, 16, block)  # the second block is all +inf
    op = DiagonalOperator(d)
    assert op._spans[1] == (math.inf, math.inf)
    big, tiny = ShiftedSystem(1.0, 1.0, 1.0), ShiftedSystem(1.0, 1.0, 1e-40)
    forms = _forms(op, [big, tiny])
    assert _kept_mask(forms, op._kept_nodes(forms, op._spans[0])) == [True, False]
    # a term of the other sign may shrink the sum: every node after it runs
    for odd in (ShiftedSystem(1.0, 1.0, -1.0), ShiftedSystem(1.0, math.inf, 1.0)):
        forms = _forms(op, [big, tiny, odd, tiny])
        assert _kept_mask(forms, op._kept_nodes(forms, op._spans[0])) == [True, False, True, True]


def _forms(op, systems):
    """The forms ``op.apply_sum`` gives ``DiagonalOperator._kept_nodes`` for
    ``systems``, under the error state it computes them in."""
    with np.errstate(all="ignore"):
        return [op._form(s) for s in systems]


def _kept_mask(forms, kept):
    """Whether ``DiagonalOperator._kept_nodes`` kept each of ``forms``, read
    from its result ``kept``, which lists kept forms in node order."""
    rest = [s for s, _ in kept]
    mask = []
    for s in forms:
        mask.append(bool(rest) and rest[0] is s)
        if mask[-1]:
            rest.pop(0)
    assert rest == []
    return mask


def _recorded_bounds(monkeypatch):
    """Make ``DiagonalOperator._kept_nodes`` record, from any thread, which
    forms each of its results keeps, as a ``_kept_mask``, in the list this
    returns."""
    bounds, results = DiagonalOperator._kept_nodes, []

    def recorded(forms, span):
        kept = bounds(forms, span)
        results.append(_kept_mask(forms, kept))
        return kept

    monkeypatch.setattr(DiagonalOperator, "_kept_nodes", staticmethod(recorded))
    return results


def test_diagonal_bounds_run_only_where_they_can_skip(monkeypatch):
    # bounding reads only a block's span, so apply_sum bounds every block,
    # once, even for this truncated scheme, whose bounds keep every node
    op = DiagonalOperator(np.logspace(0, 16, 3 * _BLOCK))
    b = np.repeat([1.0, 2.0, 3.0], _BLOCK)
    truncated = scheme(50, Params(0.5, 0.01), "truncated").systems
    results = _recorded_bounds(monkeypatch)
    got = op.apply_sum(truncated, b)
    assert len(results) == len(op._spans) == 3
    assert all(all(kept) for kept in results)
    assert np.array_equal(got.view(np.int64), _coefficient_sum(op.entries, truncated, b).view(np.int64))
    # scales 1e40 apart, yet the second term is the larger: no block skips
    spread = [ShiftedSystem(1.0, 1.0, 1.0), ShiftedSystem(1e-60, 1e-60, 1e-40)]
    forms = _forms(op, spread)
    assert all(all(_kept_mask(forms, op._kept_nodes(forms, span))) for span in op._spans)


def test_diagonal_skip_gate_is_a_cost_rule(monkeypatch):
    # equal scales, yet the second term is under 2**-55 of the first over
    # entries in [1, 4]: apply_sum takes the provable skip and still gives
    # the plain coefficient sum's bits
    op = DiagonalOperator(np.linspace(1.0, 4.0, 1000))
    b = np.ones(op.dimension)
    systems = [ShiftedSystem(1.0, 0.0, 1.0), ShiftedSystem(1.0, 1e20, 1.0)]
    results = _recorded_bounds(monkeypatch)
    got = op.apply_sum(systems, b)
    assert results == [[True, False]]
    assert np.array_equal(got.view(np.int64), _coefficient_sum(op.entries, systems, b).view(np.int64))


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
