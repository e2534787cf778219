"""Applying the rational approximation to an operator.

Each quadrature node becomes one shifted linear solve (sigma*I + tau*L)y = b;
the resolvent approximation is a weighted sum of those solutions, which every
backend computes through ``OperatorHandle.apply_sum``.  The default sums
``solve_shifted`` results in node order.  On a diagonal that sum is the
scalar rational function r(d) = sum_j scale_j / (sigma_j + tau_j*d) times
b, and ``DiagonalOperator`` forms it so; ``DenseOperator`` runs that kernel
in its eigenbasis, and its per-solve call is that fused sum of one system.
Each rule lives in the docstring of the function that applies it: the
per-solve memory bound in ``OperatorHandle.apply_sum``, the thread split and
the +inf pin in ``DiagonalOperator.apply_sum``, the skip and constant proofs
in ``DiagonalOperator._kept_nodes``, the one-thread BLAS section in
``DenseOperator`` and the overflow retry in ``apply_scheme``.

Agreement.  Per-solve backends over the same solves give one another's
bits.  The diagonal kernel rounds each coefficient once before its product
with b, where a per-solve term is rounded twice, so for J systems with
fields >= 0 and no term that underflows its normal finite results are
within (2J + 6) * 2**-53 relative of a per-solve sum's.

Floating point.  Every numpy pass here on the package's own data runs under
``np.errstate(all="ignore")``, and ``apply_scheme`` alone judges a result
that is not finite; only a user's ``solve_shifted`` or ``apply_sum`` runs
under the caller's numpy error state.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
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

# A term below 2**-55 times every coefficient sum it meets is under a
# quarter ulp of each, so adding it rounds back to the sum.
_NEGLIGIBLE = 2.0**55

# held while a one-thread BLAS section has changed the process-wide count
_BLAS_LOCK = threading.Lock()


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
    calls once per system.  Backends agree as the module docstring says."""

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
        this is the one check of every per-solve result.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        blocks = [(slice(lo, lo + _BLOCK), acc[lo : lo + _BLOCK]) for lo in range(0, b.size, _BLOCK)]
        for s in systems:
            y = _solution(self.solve_shifted(s.sigma, s.tau, b), b, (s.sigma, s.tau))
            # acc += s.scale * y, a block at a time so the scaled term is
            # never a whole vector
            with np.errstate(all="ignore"):
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
        refuses, with a NaN field or sigma == tau == 0, raises ValueError.

        ``apply_sum`` does not call it: this is the per-solve path, which a
        ``CallbackOperator`` over it and wrappers that time or trace single
        solves take."""
        ShiftedSystem(sigma, tau, 1.0)
        b = _as_vector(b, self.dimension)
        # b / (sigma + tau*d), computed in the one vector it returns.  tau can
        # underflow to 0 for far-tail nodes; 0 * inf would poison the +inf
        # entries, so those are pinned to the 0 limit explicitly.
        out = np.empty_like(self._d)
        with np.errstate(all="ignore"):
            np.multiply(tau, self._d, out=out)
            np.add(sigma, out, out=out)
            np.divide(b, out, out=out)
        out[self._infinite] = 0.0
        return out

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """r(d) * b, bit for bit the plain coefficient sum: c_i += scale_j /
        (sigma_j + tau_j*d_i) for each system in node order, then c_i * b_i,
        and +0.0 at every +inf entry.  It allocates the result and one
        scratch block per worker, none per system; ``_kept_nodes`` proves
        that the terms it leaves out or adds as one constant keep every bit.

        Thread split.  The entries are cut into the fewest blocks of at most
        2**16, all of one size but a last one that may be shorter, and the
        blocks are dealt to W = min(usable cores, blocks) parts,
        ``starts[t::W]``: the calling thread runs part 0 and a pool the
        rest, which starts no thread when W is 1, and the pool is joined
        before this returns.  ``taskset`` and cpusets cap W.  Each entry's
        coefficient sum is formed inside its block, in node order, and
        multiplied by b once, so the bits do not depend on W or on the block
        size.

        +inf pin.  The resolvent annihilates a +inf entry.  Every block, one
        of +inf entries alone too, is summed by the same rule, which leaves
        (scale/inf)*b or a NaN from 0*inf there, and every +inf entry is set
        to +0.0 afterwards.
        """
        b = _as_vector(b, self.dimension)
        acc = np.zeros_like(b)
        starts = range(0, b.size, self._block)
        workers = min(_usable_cores(), len(starts))
        # leaving the block waits for every part, since each writes into acc
        with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
            futures = [pool.submit(self._sum_blocks, systems, b, acc, starts[t::workers]) for t in range(1, workers)]
            self._sum_blocks(systems, b, acc, starts[::workers])
        for future in futures:
            future.result()
        acc[self._infinite] = 0.0
        return acc

    def _sum_blocks(self, systems: Sequence[ShiftedSystem], b: np.ndarray, acc: np.ndarray, starts: range) -> None:
        """Write r(d)*b into acc over every block starting at ``starts``,
        with the terms of r that ``_kept_nodes`` keeps, each a constant it
        gives or four vector passes."""
        scratch = np.empty(self._block)
        with np.errstate(all="ignore"):
            for lo in starts:
                hi = lo + self._block
                d, out = self._d[lo:hi], acc[lo:hi]
                term = scratch[: d.size]
                for s, constant in self._kept_nodes(systems, self._spans[lo // self._block]):
                    if constant is None:
                        np.multiply(s.tau, d, out=term)
                        np.add(s.sigma, term, out=term)
                        np.divide(s.scale, term, out=term)
                        np.add(out, term, out=out)
                    else:
                        np.add(out, constant, out=out)
                np.multiply(out, b[lo:hi], out=out)

    @staticmethod
    def _kept_nodes(systems: Sequence[ShiftedSystem], span: tuple[float, float]) -> list[tuple[ShiftedSystem, float | None]]:
        """For a block of ``apply_sum`` with least and greatest finite entry
        ``span``, (inf, inf) when every entry is +inf, each system whose term
        of r may change a bit of the block's coefficient sum, in node order,
        with that term when it is one constant over the block, else None.

        Both come from the end denominators ``sigma + tau*dmin`` and
        ``sigma + tau*dmax``, rounded as the vector passes round them.
        Rounding is monotone, so for either sign of tau the computed
        ``sigma + tau*d_i`` is monotone over the block's finite entries.

        Skip.  While the fields of the systems so far are finite and >= 0,
        each term ``scale / (sigma + tau*d_i)`` is >= 0, so the sum c_i never
        shrinks and is at least every term added so far; over the block
        ``scale / (sigma + tau*dmin)`` bounds each computed term from above
        and ``scale / (sigma + tau*dmax)`` bounds it from below.  A term
        whose upper bound is 2**-55 of an earlier lower bound is thus under
        a quarter ulp of every c_i and adds nothing under round-to-nearest.
        On a block of +inf entries alone sigma + tau*dmin is +inf or NaN, so
        each lower bound is 0 or NaN, the floor stays 0 and no node is
        skipped.  From the first system with a negative or non-finite field
        on, no node is skipped.

        Constant.  When both end denominators round to one double ``den``,
        by monotonicity every entry's does, and the four passes give every
        entry ``scale / den``, bit for bit.  NaN never compares equal, so it
        takes the passes.  So does a zero, whose quotient Python refuses;
        only zeros compare equal with another bit pattern, and -0 cannot
        arise anyway: it needs sigma == tau == 0, which ``ShiftedSystem``
        refuses, or a nonzero |tau*d_i| below the least subnormal, which
        d_i >= 1 rules out.  +inf entries lie outside the span; ``apply_sum``
        pins them.
        """
        inf = math.inf
        d_min, d_max = span
        floor = 0.0  # the least c_i proven so far
        bounded = True  # every field so far is finite and >= 0
        kept = []
        for s in systems:
            sigma, tau, scale = s.sigma, s.tau, s.scale
            low, high = sigma + tau * d_min, sigma + tau * d_max
            bounded = bounded and 0.0 <= sigma < inf and 0.0 <= tau < inf and 0.0 <= scale < inf
            if bounded and low > 0.0:
                if scale / low * _NEGLIGIBLE < floor:
                    continue
                term = scale / high
                if term > floor:
                    floor = term
            kept.append((s, scale / low if low == high != 0.0 else None))
        return kept


class DenseOperator(OperatorHandle):
    """Dense symmetric matrix with spectrum in [1, inf).

    Every shifted matrix sigma*I + tau*A shares A's eigenvectors Q, so one
    ``eigh`` at construction turns the whole sum into the diagonal kernel
    between a product with Q^T and one with Q.  That ``apply_sum`` is the
    one arithmetic path: ``solve_shifted`` is the fused sum of one system.

    One-thread BLAS section.  OpenBLAS splits ``eigh`` and a product
    differently at different thread counts, and so rounds them differently.
    So ``eigh`` and each product run with numpy's bundled OpenBLAS set to
    one thread, and the previous count is restored afterwards: the bits are
    the same on any number of cores and under any ``OPENBLAS_NUM_THREADS``.
    The count is process-wide; a lock keeps concurrent sections from
    restoring it wrongly, and a BLAS call that another thread makes during
    a section runs on one thread too.  The diagonal kernel between the
    products runs outside the section.  Where numpy bundles no OpenBLAS
    whose count can be set, the section changes nothing and the bits may
    vary with the BLAS thread count.
    """

    def __init__(self, matrix):
        a = _real(matrix, "matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        with np.errstate(all="ignore"):
            scale = np.abs(a).max()
            if scale > 0.0 and np.abs(a - a.T).max() > 1e-12 * scale:
                raise ValueError("matrix is not symmetric")
            ev, self._q = _on_one_blas_thread(np.linalg.eigh, a)
            # eigh is backward stable, so a spectrum starting at the floor may
            # read up to about N*eps*max|ev| below it; clamping that is below
            # eigh's own error
            if ev[0] < _SPECTRAL_FLOOR - ev.size * np.finfo(float).eps * np.abs(ev).max():
                raise ValueError(f"matrix spectrum must be >= {_SPECTRAL_FLOOR:g}, smallest eigenvalue is {float(ev[0])!r}")
        self._diag = DiagonalOperator(np.maximum(ev, _SPECTRAL_FLOOR))

    @property
    def dimension(self) -> int:
        return self._diag.dimension

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        """``apply_sum((ShiftedSystem(sigma, tau, 1.0),), b)``, so a shift
        that ``ShiftedSystem`` refuses raises ValueError; kept for per-solve
        callers, such as a ``CallbackOperator`` over it."""
        return self.apply_sum((ShiftedSystem(sigma, tau, 1.0),), b)

    def apply_sum(self, systems: Sequence[ShiftedSystem], b: np.ndarray) -> np.ndarray:
        """Q @ r(D) (Q^T @ b), with r(D) the diagonal kernel over the
        eigenvalues and each product in a one-thread BLAS section."""
        b = _as_vector(b, self.dimension)
        with np.errstate(all="ignore"):
            y = self._diag.apply_sum(systems, _on_one_blas_thread(np.matmul, self._q.T, b))
            return _on_one_blas_thread(np.matmul, self._q, y)


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's
    wheels bundle in ``numpy.libs``, or None when there is none; looked up
    at the first ``DenseOperator``, not at import."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
        return get, set_
    return None


def _on_one_blas_thread(call, *args):
    """``call(*args)`` in ``DenseOperator``'s one-thread BLAS section."""
    threads = _openblas_threads()
    if threads is None:
        return call(*args)
    get, set_ = threads
    with _BLAS_LOCK:
        old = get()
        set_(1)
        try:
            return call(*args)
        finally:
            set_(old)


class CallbackOperator(OperatorHandle):
    """Operator backed by a user-supplied solver ``solve(sigma, tau, b)``,
    which is its ``solve_shifted``.

    Self-adjointness and positivity are taken on trust.  ``b`` is passed
    read-only, so a numpy write into it raises; compiled code that ignores
    the flag, such as scipy.linalg's solvers with ``overwrite_b=True``, can
    still overwrite it and so must be given a copy.  Each solution is
    checked by the default ``apply_sum``, as any backend's is: one that
    shares memory with ``b``, as such a solver returns, raises
    OperatorError.  A solution with inf or NaN is summed like any other,
    and ``apply_scheme`` judges the result.
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
        y = _prefactor_sum(op, vec, built, math.frexp(float(np.abs(vec).max()))[1])
    if not np.isfinite(y).all():
        raise OperatorError("the result is not finite: the solves overflowed or returned inf or NaN")
    return y


def _prefactor_sum(op: OperatorHandle, vec: np.ndarray, built: Scheme, k: int = 0) -> np.ndarray:
    """``2**k`` times the prefactor times
    ``op.apply_sum(built.systems, vec * 2**-k)``, checked by ``_solution``."""
    with np.errstate(all="ignore"):
        small = np.ldexp(vec, -k) if k else vec
    y = _solution(op.apply_sum(built.systems, small), small)
    with np.errstate(all="ignore"):
        y = built.params.prefactor * y
        return np.ldexp(y, k) if k else y


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
