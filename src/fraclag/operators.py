"""Applying the rational approximation to an operator.

Each quadrature node becomes one shifted linear solve (sigma*I + tau*L)y = b;
the resolvent approximation is a weighted sum of those solutions, which every
backend computes through ``OperatorHandle.apply_sum``.  The default sums
``solve_shifted`` results in node order; ``DiagonalOperator`` fuses the whole
sum into one pass over equal cache-sized blocks of its entries, and
``DenseOperator`` runs that kernel in its eigenbasis.

The per-solve default runs serially, since each solve in flight holds a
vector.  It holds the sum, one solution and one block of scaled terms, and
checks every solution before adding it (``_solution``);
``DiagonalOperator.solve_shifted`` allocates only the vector it returns.
The diagonal kernel splits its blocks over the cores this process may use,
so ``taskset`` and cpusets cap its threads: the calling thread runs one part
and a pool built for the call runs the rest, each under the caller's numpy
error state, and the pool is joined before ``apply_sum`` returns.  The pool
starts a thread only for a part it is given, so a diagonal of one block
starts none.  The blocks are all of one size, so parts of equally many
blocks get equal work.

The diagonal kernel's result is the default sum bit for bit.  It leaves
out, for a whole block, a node whose term provably cannot change a bit of
the block's sum (``DiagonalOperator._kept_nodes``), and adds scale*b for a
node whose solve is the identity over the block; neither raises a
floating-point flag from the passes it leaves out.  The README gives the
kernel's measured timings and the share of passes it spares.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .integrands import _SPECTRAL_FLOOR, Params, ShiftedSystem, _real, _spectral, _spectral_scalar
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

# The most entries per block of DiagonalOperator.apply_sum, which cuts its
# entries into the fewest blocks of one size under this cap, the unit its
# workers share out, and the entries per chunk of the default apply_sum's
# reduction, whose one temporary is a block of scaled terms.  The kernel
# block's entries, right-hand side, scratch and accumulator take at most
# 4 x 512 KiB per worker.  Smaller blocks make passes so short that handing
# the interpreter lock between the threads eats the gain of splitting them.
_BLOCK = 1 << 16

# A term below 2**-55 times every accumulator entry it meets is under a
# quarter ulp of each, so adding it rounds back to the entry.
_NEGLIGIBLE = 2.0**55

# 1 + t rounds to 1 for 0 <= t <= 2**-53, the tie included, which rounds to
# even; a system (1, tau, scale) whose tau*d stays there is scale * I.
_IDENTITY = 2.0**-53


class OperatorError(RuntimeError):
    """A backend returned a solution or sum that the apply cannot use: one
    of the wrong shape or dtype, one that shares memory with ``b``, or a
    result that is not finite."""


class OperatorHandle(ABC):
    """Self-adjoint positive operator with spectrum in [1, inf), exposed
    through the weighted sum of its shifted solves, ``apply_sum``.

    A subclass defines ``dimension`` and either ``apply_sum``, when it forms
    the sum in one go, or ``solve_shifted(sigma, tau, b)``, returning the
    solution of (sigma*I + tau*L)y = b, which the default ``apply_sum``
    calls once per system."""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Size of the vectors the operator acts on."""

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """Return sum_j scale_j * (sigma_j*I + tau_j*L)^{-1} b for a 1-D ``b``
        of length ``dimension``, added in node order.

        This default calls ``solve_shifted`` once per system, serially, and
        adds each solution before the next solve starts, a block at a time,
        so it holds the sum, one solution and one block of scaled terms
        however many systems there are.  ``b`` is taken as a read-only
        float64 vector; anything else raises ValueError.  Each solution goes
        through ``_solution``, so one that shares memory with ``b``, is not
        real and numeric or is not of ``b``'s shape raises OperatorError;
        this is the one check of every per-solve result.  As in the diagonal
        kernel, the sum ignores overflow and invalid operations, and
        ``apply_scheme`` judges a result that is not finite; the solves run
        under the caller's numpy error state.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        blocks = [(slice(lo, lo + _BLOCK), acc[lo : lo + _BLOCK]) for lo in range(0, b.size, _BLOCK)]
        for s in systems:
            y = _solution(self.solve_shifted(s.sigma, s.tau, b), b, (s.sigma, s.tau))
            # acc += s.scale * y, a block at a time so the scaled term is
            # never a whole vector
            with np.errstate(over="ignore", invalid="ignore"):
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
        d = np.array(_spectral(entries, "diagonal entries"), ndmin=1)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal entries must form a nonempty 1-D sequence")
        d.setflags(write=False)
        self._d = d
        self._infinite = np.flatnonzero(np.isinf(d))
        # apply_sum's block size: ceil(N / ceil(N / _BLOCK)), so strided parts
        # of equally many blocks get equal work
        self._block = -(-d.size // -(-d.size // _BLOCK))
        # per block, its least and greatest finite entry, or (inf, inf) when
        # every entry there is +inf
        self._spans: list[tuple[float, float]] = []
        for lo in range(0, d.size, self._block):
            finite = d[lo : lo + self._block]
            finite = finite[np.isfinite(finite)]
            self._spans.append((float(finite.min()), float(finite.max())) if finite.size else (math.inf, math.inf))

    @property
    def dimension(self) -> int:
        return self._d.size

    @property
    def entries(self) -> np.ndarray:
        return self._d

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        """Solve (sigma*I + tau*L)y = b; a shift that ``ShiftedSystem``
        refuses, with a NaN field or sigma == tau == 0, raises ValueError."""
        ShiftedSystem(sigma, tau, 1.0)
        b = _as_vector(b, self.dimension)
        # b / (sigma + tau*d), computed in the one vector it returns.  tau can
        # underflow to 0 for far-tail nodes; 0 * inf would poison the +inf
        # entries, so those are pinned to the 0 limit explicitly.
        out = np.empty_like(self._d)
        with np.errstate(over="ignore", invalid="ignore"):
            _solve_into(sigma, tau, self._d, b, out)
        out[self._infinite] = 0.0
        return out

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """The weighted sum of ``solve_shifted`` results, bit for bit, computed
        block by block with one scratch block per worker and no allocation
        per system.

        The entries are cut into the fewest blocks of at most 2**16, all of
        one size but a last one that may be shorter, and the blocks are
        dealt to W = min(usable cores, blocks) parts, ``starts[t::W]``: the
        calling thread runs part 0 and a pool the rest, which starts no
        thread when W is 1.  Each entry's sum is formed inside its block, in
        node order, so the bits do not depend on W or on the block size.  In
        each block a node is skipped when ``_kept_nodes`` proves that its
        term cannot change a bit of the block's sum, and a node whose solve
        is the identity on the block adds scale*b.  Neither raises a
        floating-point flag from the passes it leaves out.  The kernel looks
        for skips only when the node scales span more than 2**55, since that
        is where measurement found them: a skip may exist at any scales, but
        looking costs a pass over each block.  Every block, one of +inf
        entries alone too, runs the same passes, and every +inf entry is
        pinned to +0.0 afterwards.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        starts = range(0, b.size, self._block)
        workers = min(_usable_cores(), len(starts))
        scales = [s.scale for s in systems]
        bounding = min(scales, default=0.0) * _NEGLIGIBLE < max(scales, default=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            # numpy's error state is per thread: each part takes the caller's
            errors, on_error = np.geterr(), np.geterrcall()

            def part(t: int) -> None:
                with np.errstate(call=on_error, **errors):
                    self._sum_blocks(systems, b, acc, starts[t::workers], bounding)

            # leaving the block waits for every part, since each writes into acc
            with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
                futures = [pool.submit(part, t) for t in range(1, workers)]
                part(0)
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
        scratch = np.empty(self._block)
        for lo in starts:
            span = self._spans[lo // self._block]
            hi = lo + self._block
            d, rhs, out = self._d[lo:hi], b[lo:hi], acc[lo:hi]
            y = scratch[: rhs.size]
            # _kept_nodes writes |b| of the block into y before the block's
            # solves reuse it
            kept = compress(systems, self._kept_nodes(systems, rhs, span, y)) if bounding else systems
            d_max = span[1]
            # solve_shifted's operations, then acc += scale * y, but without
            # the solve where it gives y = b
            for s in kept:
                if s.sigma == 1.0 and 0.0 <= s.tau * d_max <= _IDENTITY:
                    # rounding is monotone, so every tau*d_i here is in
                    # [0, 2**-53], 1 + tau*d_i rounds to 1 and b_i / 1 is b_i
                    np.multiply(s.scale, rhs, out=y)
                else:
                    _solve_into(s.sigma, s.tau, d, rhs, y)
                    np.multiply(s.scale, y, out=y)
                np.add(out, y, out=out)

    @staticmethod
    def _kept_nodes(
        systems: Sequence[ShiftedSystem], rhs: np.ndarray, span: tuple[float, float], scratch: np.ndarray
    ) -> list[bool]:
        """For a block of ``apply_sum`` with right-hand side ``rhs`` and least
        and greatest finite entry ``span``, (inf, inf) when every entry is
        +inf, whether each system's term may change a bit of the block's
        sum; ``scratch``, of ``rhs``'s size, receives |rhs|.

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
        and +inf entries are pinned to zero afterwards anyway.  On a block of
        +inf entries alone sigma + tau*dmin is +inf or NaN, so each lower
        bound is 0 or NaN, the floor stays 0 and every node is kept.  From
        the first system with a negative or non-finite field on, every node
        is kept.
        """
        np.abs(rhs, out=scratch)
        b_max, b_min = float(scratch.max()), float(scratch.min())
        inf = math.inf
        if b_min == 0.0:
            b_min = float(np.min(scratch, where=scratch > 0.0, initial=inf))
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
        a = _real(matrix, "matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        scale = np.abs(a).max()
        if scale > 0.0 and np.abs(a - a.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        ev, self._q = np.linalg.eigh(a)
        # eigh is backward stable, so a spectrum starting at the floor may read
        # up to about N*eps*max|ev| below it; clamping that is below eigh's own
        # error
        if ev[0] < _SPECTRAL_FLOOR - ev.size * np.finfo(float).eps * np.abs(ev).max():
            raise ValueError(f"matrix spectrum must be >= {_SPECTRAL_FLOOR:g}, smallest eigenvalue is {float(ev[0])!r}")
        self._diag = DiagonalOperator(np.maximum(ev, _SPECTRAL_FLOOR))

    @property
    def dimension(self) -> int:
        return self._diag.dimension

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        b = _as_vector(b, self.dimension)
        # as in the diagonal's solve and kernel, an overflow is left to
        # apply_scheme's check of the result
        with np.errstate(over="ignore", invalid="ignore"):
            return self._q @ self._diag.solve_shifted(sigma, tau, self._q.T @ b)

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        b = _as_vector(b, self.dimension)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._q @ self._diag.apply_sum(systems, self._q.T @ b)


class CallbackOperator(OperatorHandle):
    """Operator backed by a user-supplied solver ``solve(sigma, tau, b)``,
    which is its ``solve_shifted``.

    Self-adjointness and positivity are taken on trust.  ``b`` is passed
    read-only, so a numpy write into it raises; compiled code that ignores
    the flag, such as scipy.linalg's solvers with ``overwrite_b=True``, can
    still overwrite it and so must be given a copy.  Each solution is
    checked by the default ``apply_sum``, as any backend's is: one that
    shares memory with ``b``, as such a solver returns, raises
    OperatorError.  A solution with inf or NaN is summed as the diagonal
    kernel sums one, and ``apply_scheme`` refuses a result that is not
    finite after its retry on a scaled ``b``.
    """

    def __init__(self, dimension: int, solve: Callable[[float, float, np.ndarray], np.ndarray]):
        if not isinstance(dimension, (int, np.integer)) or isinstance(dimension, bool) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        if not callable(solve):
            raise ValueError(f"solve must be callable, got {solve!r}")
        self._dim = int(dimension)
        self.solve_shifted = solve

    @property
    def dimension(self) -> int:
        return self._dim


def _solve_into(sigma: float, tau: float, d: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> None:
    """out = rhs / (sigma + tau*d), computed in ``out``."""
    np.multiply(tau, d, out=out)
    np.add(sigma, out, out=out)
    np.divide(rhs, out, out=out)


def _solution(y, b: np.ndarray, shift: tuple[float, float] | None = None) -> np.ndarray:
    """``y``, returned for the right-hand side ``b`` by a solver at
    ``shift = (sigma, tau)`` or, when ``shift`` is None, by ``apply_sum``,
    as a float64 array of ``b``'s shape, else OperatorError naming the
    source.  A cast would drop an imaginary part with only a warning and
    parse strings, and a solution of another shape would broadcast."""
    y = np.asarray(y)
    if np.may_share_memory(y, b):
        problem = "a solution that shares memory with b (pass the solver a copy of b)"
    elif np.iscomplexobj(y):
        problem = "a complex solution"
    elif y.dtype.kind not in "biuf":
        problem = f"a solution of dtype {y.dtype}"
    elif y.shape != b.shape:
        problem = f"shape {y.shape}, expected {b.shape},"
    else:
        return y.astype(float, copy=False)
    if shift is None:
        raise OperatorError(f"apply_sum returned {problem.rstrip(',')}")
    raise OperatorError(f"solver returned {problem} at sigma={shift[0]!r}, tau={shift[1]!r}")


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _as_vector(b, dimension: int) -> np.ndarray:
    """``b`` as a read-only 1-D float64 view of length ``dimension``, else
    ValueError; a numpy write into a solver's right-hand side raises rather
    than corrupt the sum and the caller's ``b``."""
    vec = _real(b, "b").view()
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
    be finite.  ``apply_sum``'s result goes through ``_solution``, and one
    that fails it raises OperatorError.

    A finite ``b`` near the double limit can overflow the solves.  When the
    result is not finite, the sum runs once more on ``b * 2**-k``, with
    ``k`` the binary exponent of ``max|b|``, and its result is scaled by
    ``2**k``, which is exact away from subnormals.  A result that is still
    not finite, from a backend's inf or NaN or a true result past the
    double limit, raises OperatorError."""
    vec = _as_vector(b, op.dimension)
    if not np.isfinite(vec).all():
        raise ValueError("b must be finite")
    y = _prefactor_sum(op, vec, built)
    if not np.isfinite(y).all():
        k = math.frexp(float(np.abs(vec).max()))[1]
        small = _prefactor_sum(op, np.ldexp(vec, -k), built)
        with np.errstate(over="ignore"):  # a true result past the limit is refused below
            y = np.ldexp(small, k)
    if not np.isfinite(y).all():
        raise OperatorError("the result is not finite: the solves overflowed or returned inf or NaN")
    return y


def _prefactor_sum(op: OperatorHandle, vec: np.ndarray, built: Scheme) -> np.ndarray:
    """The prefactor times ``op.apply_sum(built.systems, vec)``, checked by
    ``_solution``."""
    return built.params.prefactor * _solution(op.apply_sum(built.systems, vec), vec)


def apply_resolvent(
    op: OperatorHandle, b, p: Params, n: int, mode: str = "standard"
) -> np.ndarray:
    """Approximate (I + h*L^alpha)^{-1} b with the n-point method, as
    ``prefactor * op.apply_sum(scheme(n, p, mode).systems, b)``."""
    return apply_scheme(op, b, scheme(n, p, mode))


def scalar_approx(lam: float, p: Params, n: int, mode: str = "standard") -> float:
    """The method's value at a single eigenvalue: same code path as
    apply_resolvent on a 1x1 diagonal operator."""
    op = DiagonalOperator([_spectral_scalar(lam)])
    return float(apply_resolvent(op, np.ones(1), p, n, mode)[0])
