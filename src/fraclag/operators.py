"""Applying the rational approximation to an operator.

Each quadrature node becomes one shifted linear solve (sigma*I + tau*L)y = b;
the resolvent approximation is a weighted sum of those solutions, which every
backend computes through ``OperatorHandle.apply_sum``.  The default sums
``solve_shifted`` results in node order; ``DiagonalOperator`` fuses the whole
sum into one pass over cache-sized blocks of its entries, and ``DenseOperator``
runs that kernel in its eigenbasis.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .integrands import Params, ShiftedSystem
from .planner import scheme

__all__ = [
    "OperatorError",
    "OperatorHandle",
    "DiagonalOperator",
    "DenseOperator",
    "CallbackOperator",
    "apply_resolvent",
    "scalar_approx",
]

_THREAD_ENV = "FRACLAG_THREADS"

# Entries per block of DiagonalOperator.apply_sum: the block's entries,
# right-hand side, scratch and accumulator (4 x 128 KiB) stay in L2.  At
# 10**6 entries on a 2-vCPU Xeon (2 MiB L2 per core), 2**14 and 2**15 timed
# the same and 2**12 and 2**17 were a third to a half slower.
_BLOCK = 1 << 14


class OperatorError(RuntimeError):
    """An operator was refused or a shifted solve could not be completed."""


class OperatorHandle(ABC):
    """Self-adjoint positive operator with spectrum in [1, inf), exposed
    through shifted solves and their weighted sum ``apply_sum``."""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Size of the vectors the operator acts on."""

    @abstractmethod
    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        """Solve (sigma*I + tau*L)y = b.  Must be safe to call concurrently."""

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """Return sum_j scale_j * (sigma_j*I + tau_j*L)^{-1} b for a 1-D ``b``
        of length ``dimension``, added in node order.

        This default calls ``solve_shifted`` once per system, on a pool of
        FRACLAG_THREADS threads when that is above 1, and adds each solution
        as it arrives, so results are bit-reproducible whatever the setting.
        At most one solve per thread is in flight, so memory does not grow
        with the number of systems.
        """
        def solve(s: ShiftedSystem) -> np.ndarray:
            return self.solve_shifted(s.sigma, s.tau, b)

        def weighted_sum(solutions: Iterator[np.ndarray]) -> np.ndarray:
            acc = np.zeros_like(b)
            for system in systems:
                acc += system.scale * next(solutions)
            return acc

        workers = _worker_count()
        if workers > 1 and len(systems) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return weighted_sum(_in_order(pool, solve, systems, workers))
        return weighted_sum(map(solve, systems))


class DiagonalOperator(OperatorHandle):
    """Operator given by its spectrum; shifted solves are elementwise.

    Entries must be >= 1; +inf is allowed and yields exact zeros in every
    solve (the resolvent annihilates that component).
    """

    def __init__(self, entries: Sequence[float]):
        d = np.atleast_1d(np.asarray(entries, dtype=float))
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal entries must form a nonempty 1-D sequence")
        if not (d >= 1.0).all():
            raise ValueError("diagonal entries must be >= 1")
        d.setflags(write=False)
        self._d = d
        self._infinite = np.flatnonzero(np.isinf(d))

    @property
    def dimension(self) -> int:
        return self._d.size

    @property
    def entries(self) -> np.ndarray:
        return self._d

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        # tau can underflow to 0 for far-tail nodes; 0 * inf would poison the
        # +inf entries, so those are pinned to the 0 limit explicitly.
        with np.errstate(over="ignore", invalid="ignore"):
            out = b / (sigma + tau * self._d)
        if self._infinite.size:
            out[self._infinite] = 0.0
        return out

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """The weighted sum of ``solve_shifted`` results, bit for bit, computed
        block by block with one scratch array and no allocation per system.
        Runs serially: FRACLAG_THREADS does not apply."""
        if b.shape != self._d.shape:
            raise ValueError(f"b must have shape {self._d.shape}, got {b.shape}")
        acc = np.zeros_like(b)
        scratch = np.empty(min(_BLOCK, b.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, b.size, _BLOCK):
                hi = min(lo + _BLOCK, b.size)
                d, rhs, out, y = self._d[lo:hi], b[lo:hi], acc[lo:hi], scratch[: hi - lo]
                # The same operations, in the same order, as solve_shifted
                # followed by acc += scale * y.
                for s in systems:
                    np.multiply(s.tau, d, out=y)
                    np.add(s.sigma, y, out=y)
                    np.divide(rhs, y, out=y)
                    np.multiply(s.scale, y, out=y)
                    np.add(out, y, out=out)
            # solve_shifted pins +inf entries to +0.0, so each term and the sum
            # there is +0.0; the kernel left b/inf there, or 0*inf = NaN.
            acc[self._infinite] = 0.0
        return acc


class DenseOperator(OperatorHandle):
    """Dense symmetric matrix with spectrum in [1, inf).

    Every shifted matrix sigma*I + tau*A shares A's eigenvectors Q, so one
    ``eigh`` at construction turns each solve into the diagonal kernel
    between a product with Q^T and one with Q.
    """

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        scale = np.abs(a).max()
        if scale > 0.0 and np.abs(a - a.T).max() > 1e-12 * scale:
            raise OperatorError("matrix is not symmetric")
        ev, self._q = np.linalg.eigh(a)
        # eigh is backward stable, so a spectrum starting at 1 may read up to
        # about N*eps*max|ev| below it; clamping that is below eigh's own error
        if ev[0] < 1.0 - ev.size * np.finfo(float).eps * np.abs(ev).max():
            raise OperatorError(f"matrix spectrum must be >= 1, smallest eigenvalue is {float(ev[0])!r}")
        self._diag = DiagonalOperator(np.maximum(ev, 1.0))

    @property
    def dimension(self) -> int:
        return self._diag.dimension

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        return self._q @ self._diag.solve_shifted(sigma, tau, self._q.T @ b)

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        return self._q @ self._diag.apply_sum(systems, self._q.T @ b)


class CallbackOperator(OperatorHandle):
    """Operator backed by a user-supplied solver ``solve(sigma, tau, b)``.

    Self-adjointness and positivity are taken on trust.
    """

    def __init__(self, dimension: int, solve: Callable[[float, float, np.ndarray], np.ndarray]):
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        self._dim = dimension
        self._solve = solve

    @property
    def dimension(self) -> int:
        return self._dim

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        y = np.asarray(self._solve(sigma, tau, b), dtype=float)
        if y.shape != b.shape:
            raise OperatorError(
                f"callback returned shape {y.shape}, expected {b.shape}"
            )
        if not np.isfinite(y).all():
            raise OperatorError(f"callback returned a non-finite solution at sigma={sigma!r}, tau={tau!r}")
        return y


def _in_order(pool: ThreadPoolExecutor, solve, systems, window: int) -> Iterator[np.ndarray]:
    """Solutions of ``systems`` in order, with at most ``window`` solves
    submitted and not yet consumed; the next is submitted only when the
    consumer asks for another solution."""
    todo = iter(systems)
    pending = deque(pool.submit(solve, s) for s in islice(todo, window))
    try:
        while pending:
            yield pending.popleft().result()
            for s in islice(todo, 1):
                pending.append(pool.submit(solve, s))
    finally:
        for future in pending:
            future.cancel()


def _worker_count() -> int:
    raw = os.environ.get(_THREAD_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return workers if workers > 1 else 1


def apply_resolvent(
    op: OperatorHandle, b, p: Params, n: int, mode: str = "standard"
) -> np.ndarray:
    """Approximate (I + h*L^alpha)^{-1} b with the n-point method, as
    ``prefactor * op.apply_sum(scheme(n, p, mode).systems, b)``."""
    vec = np.asarray(b, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"b must be 1-D, got shape {vec.shape}")
    if vec.size != op.dimension:
        raise ValueError(
            f"dimension mismatch: operator is {op.dimension}, vector is {vec.size}"
        )
    if not np.isfinite(vec).all():
        raise ValueError("b must be finite")
    return p.prefactor * op.apply_sum(scheme(n, p, mode).systems, vec)


def scalar_approx(lam: float, p: Params, n: int, mode: str = "standard") -> float:
    """The method's value at a single eigenvalue: same code path as
    apply_resolvent on a 1x1 diagonal operator."""
    op = DiagonalOperator([lam])
    return float(apply_resolvent(op, np.ones(1), p, n, mode)[0])
