"""Applying the rational approximation to an operator.

Each quadrature node becomes one shifted linear solve (sigma*I + tau*L)y = b;
the resolvent approximation is a weighted sum of those solutions, which every
backend computes through ``OperatorHandle.apply_sum``.  The default sums
``solve_shifted`` results in node order; ``DiagonalOperator`` fuses the whole
sum into one pass over cache-sized blocks of its entries, and ``DenseOperator``
runs that kernel in its eigenbasis.

The per-solve default runs serially, since each solve in flight holds a
vector.  It holds the sum, one solution and one block of scaled terms, and
``DiagonalOperator.solve_shifted`` allocates only the vector it returns.
The diagonal kernel splits its blocks over the cores this process may use,
so ``taskset`` and cpusets cap its threads: the calling thread runs one part
and a pool built for the call runs the rest, each under the caller's numpy
error state, and the pool is joined before ``apply_sum`` returns.  A pool
kept across calls saved only the 0.2-0.3 ms it takes to start and join two
threads.

The Gauss-Laguerre weights decay like exp(-x), so many tail nodes add less
than half an ulp of the running sum.  The diagonal kernel skips such a node
for a whole block when a float bound proves that its term cannot change a
bit of any entry there (``DiagonalOperator._kept_nodes``): the result stays
bit for bit the default sum.  On 10**6 entries spread over 10^[0, 16] at
alpha 0.5, h 0.01, n=50 it skips 45% of the (block, node) passes in
standard mode and 35% in balanced mode; the truncated scheme has no such
node, and a cheap test on its scales spares it the bounds.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .integrands import Params, ShiftedSystem
from .planner import Scheme, scheme

__all__ = [
    "OperatorError",
    "OperatorHandle",
    "DiagonalOperator",
    "DenseOperator",
    "CallbackOperator",
    "apply_scheme",
    "apply_resolvent",
    "scalar_approx",
]

# Entries per block of DiagonalOperator.apply_sum, which is also the unit its
# workers share out, and per chunk of the default apply_sum's reduction, whose
# one temporary is a block of scaled terms.  The kernel block's entries,
# right-hand side, scratch and accumulator take 4 x 512 KiB per worker.
# Serially 2**14, 2**15 and 2**16 time within noise at 10**6 entries on a
# 2-vCPU Xeon.  Split over two threads, a 2**14 block's ufunc passes last
# only 5-13 us, so handing the interpreter lock between the threads ate the
# gain; with 2**16 blocks the mean call over the three modes fell from
# 82-101 to 53-63 ms, against 62-77 ms with 2**15 (5 interleaved process
# triples, median of 7 calls).
_BLOCK = 1 << 16

# A term below 2**-55 times every accumulator entry it meets is under a
# quarter ulp of each, so adding it rounds back to the entry.
_NEGLIGIBLE = 2.0**55


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
        """Solve (sigma*I + tau*L)y = b."""

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """Return sum_j scale_j * (sigma_j*I + tau_j*L)^{-1} b for a 1-D ``b``
        of length ``dimension``, added in node order.

        This default calls ``solve_shifted`` once per system, serially, and
        adds each solution before the next solve starts, a block at a time,
        so it holds the sum, one solution and one block of scaled terms
        however many systems there are.  ``b`` is taken as a read-only
        float64 vector; anything else raises ValueError.  A solution whose
        shape is not ``b``'s raises OperatorError.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        blocks = [(slice(lo, lo + _BLOCK), acc[lo : lo + _BLOCK]) for lo in range(0, b.size, _BLOCK)]
        for s in systems:
            y = self.solve_shifted(s.sigma, s.tau, b)
            if y.shape != b.shape:
                raise OperatorError(f"solve_shifted returned shape {y.shape}, expected {b.shape}")
            # acc += s.scale * y, a block at a time so the scaled term is
            # never a whole vector
            for part, out in blocks:
                np.add(out, s.scale * y[part], out=out)
            del y  # frees this solution before the next one is allocated
        return acc


class DiagonalOperator(OperatorHandle):
    """Operator given by its spectrum; shifted solves are elementwise.

    Entries must be >= 1; +inf is allowed and yields exact zeros in every
    solve (the resolvent annihilates that component).
    """

    def __init__(self, entries: Sequence[float]):
        # a copy: a later write by the caller would make _spans unsound
        d = np.array(entries, dtype=float, ndmin=1)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal entries must form a nonempty 1-D sequence")
        if not (d >= 1.0).all():
            raise ValueError("diagonal entries must be >= 1")
        d.setflags(write=False)
        self._d = d
        self._infinite = np.flatnonzero(np.isinf(d))
        # per block of apply_sum, its least and greatest finite entry, or
        # None when every entry there is +inf
        self._spans: list[tuple[float, float] | None] = []
        for lo in range(0, d.size, _BLOCK):
            finite = d[lo : lo + _BLOCK]
            finite = finite[np.isfinite(finite)]
            self._spans.append((float(finite.min()), float(finite.max())) if finite.size else None)

    @property
    def dimension(self) -> int:
        return self._d.size

    @property
    def entries(self) -> np.ndarray:
        return self._d

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        b = _as_vector(b, self.dimension)
        # b / (sigma + tau*d), computed in the one vector it returns.  tau can
        # underflow to 0 for far-tail nodes; 0 * inf would poison the +inf
        # entries, so those are pinned to the 0 limit explicitly.
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.multiply(tau, self._d)
            np.add(sigma, out, out=out)
            np.divide(b, out, out=out)
        if self._infinite.size:
            out[self._infinite] = 0.0
        return out

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """The weighted sum of ``solve_shifted`` results, bit for bit, computed
        block by block with one scratch block per worker and no allocation
        per system.

        The blocks of 2**16 entries are dealt to W = min(usable cores,
        blocks) parts, ``starts[t::W]``: the calling thread runs part 0 and a
        pool of W-1 threads the rest.  Each entry's sum is formed inside its
        block, in node order, so the bits do not depend on W.  In each block
        a node is skipped when ``_kept_nodes`` proves that its term cannot
        change a bit of the block's sum.  A skip needs a term 2**-55 of an
        earlier one, which in the node systems of a scheme takes scales that
        span more than 2**55: the standard and balanced schemes' span about
        2**250, a truncated scheme's usually less.  Keeping a node is always
        exact, so a call whose scales span less keeps every node unchecked.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        starts = range(0, b.size, _BLOCK)
        workers = min(_usable_cores(), len(starts))
        scales = [s.scale for s in systems]
        bounding = min(scales, default=0.0) * _NEGLIGIBLE < max(scales, default=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            if workers == 1:
                self._sum_blocks(systems, b, acc, starts, bounding)
            else:
                # numpy's error state is per thread: each pool part takes the caller's
                errors, on_error = np.geterr(), np.geterrcall()

                def part(t: int) -> None:
                    with np.errstate(call=on_error, **errors):
                        self._sum_blocks(systems, b, acc, starts[t::workers], bounding)

                # leaving the block waits for every part, since each writes into acc
                with ThreadPoolExecutor(max_workers=workers - 1) as pool:
                    futures = [pool.submit(part, t) for t in range(1, workers)]
                    self._sum_blocks(systems, b, acc, starts[::workers], bounding)
                for future in futures:
                    future.result()
        # solve_shifted pins +inf entries to +0.0, so each term and the sum
        # there is +0.0; the kernel left b/inf there, or 0*inf = NaN.
        acc[self._infinite] = 0.0
        return acc

    def _sum_blocks(
        self, systems: Sequence[ShiftedSystem], b: np.ndarray, acc: np.ndarray, starts: range, bounding: bool
    ) -> None:
        """Add the terms of every block starting at ``starts`` into acc,
        skipping those ``_kept_nodes`` rules out when ``bounding``."""
        scratch = np.empty(min(_BLOCK, b.size))
        for lo in starts:
            if self._spans[lo // _BLOCK] is None:
                continue  # every entry is +inf, pinned to zero by apply_sum
            # _kept_nodes writes |b| of the block into scratch before the
            # block's solves reuse it
            kept = compress(systems, self._kept_nodes(systems, b, scratch, lo)) if bounding else systems
            hi = min(lo + _BLOCK, b.size)
            d, rhs, out, y = self._d[lo:hi], b[lo:hi], acc[lo:hi], scratch[: hi - lo]
            # The same operations, in the same order, as solve_shifted
            # followed by acc += scale * y.
            for s in kept:
                np.multiply(s.tau, d, out=y)
                np.add(s.sigma, y, out=y)
                np.divide(rhs, y, out=y)
                np.multiply(s.scale, y, out=y)
                np.add(out, y, out=out)

    def _kept_nodes(
        self, systems: Sequence[ShiftedSystem], b: np.ndarray, scratch: np.ndarray, lo: int
    ) -> list[bool]:
        """For the block of ``apply_sum`` starting at ``lo``, whether each
        system's term may change a bit of the block's sum; ``scratch``
        receives |b| of the block.  No term of a block whose entries are all
        +inf is kept, since apply_sum pins those entries to zero.

        While the fields of the systems so far are finite and >= 0, each term
        ``scale * (b_i / (sigma + tau*d_i))`` has the sign of ``b_i``, so
        |acc_i| never shrinks and is at least every term added so far.
        Rounding is monotone, so over the block's finite entries
        ``scale*(bmax/(sigma + tau*dmin))`` bounds each computed term from
        above and ``scale*(bmin/(sigma + tau*dmax))`` bounds it from below
        where b_i != 0 (bmin, bmax over the nonzero |b_i|).  A term whose
        upper bound is 2**-55 of an earlier lower bound is thus under a
        quarter ulp of every acc_i with b_i != 0 and adds nothing under
        round-to-nearest; where b_i == 0 it is +-0 once sigma + tau*dmin > 0,
        and +inf entries are pinned to zero afterwards anyway.  From the
        first system with a negative or non-finite field on, every node is
        kept.
        """
        span = self._spans[lo // _BLOCK]
        if span is None:
            return [False] * len(systems)
        y = scratch[: min(_BLOCK, b.size - lo)]
        np.abs(b[lo : lo + y.size], out=y)
        b_max, b_min = float(y.max()), float(y.min())
        inf = math.inf
        if b_min == 0.0:
            b_min = float(np.min(y, where=y > 0.0, initial=inf))
        d_min, d_max = span
        floor = 0.0  # the least |acc_i| over b_i != 0 proven so far
        kept = [True] * len(systems)
        for j, s in enumerate(systems):
            sigma, tau, scale = s.sigma, s.tau, s.scale
            if not (0.0 <= sigma < inf and 0.0 <= tau < inf and 0.0 <= scale < inf):
                break
            least = sigma + tau * d_min
            if least > 0.0:
                kept[j] = not (scale * (b_max / least) * _NEGLIGIBLE < floor)
                term = scale * (b_min / (sigma + tau * d_max))
                if term > floor:
                    floor = term
        return kept


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
        b = _as_vector(b, self.dimension)
        return self._q @ self._diag.solve_shifted(sigma, tau, self._q.T @ b)

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        b = _as_vector(b, self.dimension)
        return self._q @ self._diag.apply_sum(systems, self._q.T @ b)


class CallbackOperator(OperatorHandle):
    """Operator backed by a user-supplied solver ``solve(sigma, tau, b)``.

    Self-adjointness and positivity are taken on trust.  ``b`` is passed
    read-only, so a numpy write into it raises; compiled code that ignores
    the flag, such as scipy.linalg's solvers with ``overwrite_b=True``, can
    still overwrite it and so must be given a copy.  A solution that shares
    memory with ``b``, as such a solver returns, of the wrong shape,
    complex or not finite raises OperatorError.
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
        y = np.asarray(self._solve(sigma, tau, b))
        if np.may_share_memory(y, b):
            raise OperatorError(
                f"callback returned a solution that shares memory with b at sigma={sigma!r}, tau={tau!r};"
                " pass the solver a copy of b"
            )
        if np.iscomplexobj(y):
            raise OperatorError(f"callback returned a complex solution at sigma={sigma!r}, tau={tau!r}")
        y = y.astype(float, copy=False)
        if y.shape != b.shape:
            raise OperatorError(
                f"callback returned shape {y.shape}, expected {b.shape}"
            )
        if not np.isfinite(y).all():
            raise OperatorError(f"callback returned a non-finite solution at sigma={sigma!r}, tau={tau!r}")
        return y


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _as_vector(b, dimension: int) -> np.ndarray:
    """``b`` as a read-only 1-D float64 view of length ``dimension``, else
    ValueError; a numpy write into a solver's right-hand side raises rather
    than corrupt the sum and the caller's ``b``."""
    vec = np.asarray(b, dtype=float).view()
    vec.setflags(write=False)
    if vec.ndim != 1:
        raise ValueError(f"b must be 1-D, got shape {vec.shape}")
    if vec.size != dimension:
        raise ValueError(
            f"dimension mismatch: operator is {dimension}, vector is {vec.size}"
        )
    return vec


def apply_scheme(op: OperatorHandle, b, built: Scheme) -> np.ndarray:
    """Approximate (I + h*L^alpha)^{-1} b with a scheme already built by
    ``scheme(n, p, mode)``, as
    ``built.params.prefactor * op.apply_sum(built.systems, b)``; ``b`` must
    be finite."""
    vec = _as_vector(b, op.dimension)
    if not np.isfinite(vec).all():
        raise ValueError("b must be finite")
    return built.params.prefactor * op.apply_sum(built.systems, vec)


def apply_resolvent(
    op: OperatorHandle, b, p: Params, n: int, mode: str = "standard"
) -> np.ndarray:
    """Approximate (I + h*L^alpha)^{-1} b with the n-point method, as
    ``prefactor * op.apply_sum(scheme(n, p, mode).systems, b)``."""
    return apply_scheme(op, b, scheme(n, p, mode))


def scalar_approx(lam: float, p: Params, n: int, mode: str = "standard") -> float:
    """The method's value at a single eigenvalue: same code path as
    apply_resolvent on a 1x1 diagonal operator."""
    op = DiagonalOperator([lam])
    return float(apply_resolvent(op, np.ones(1), p, n, mode)[0])
